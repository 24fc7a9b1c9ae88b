"""Spectral-calculus helpers for Hermitian/anti-Hermitian matrices and unitaries.

Everything here works on plain complex ndarrays.  Matrix functions are
evaluated by unitary diagonalization (eigh on the Hermitian reduction), so
the results of exp/cos/sin/sinc/sqrt/square are exact up to the
diagonalization error, and exponentials of anti-Hermitian inputs are unitary
to machine precision.

``dagger``, ``op_norm``, the three ``*_defect`` measures,
``spectral_function``, ``log_unitary_principal``, ``exp_family`` (over its
generators) and ``polar_antihermitian`` accept a single matrix or a stack of
shape ``(..., n, n)`` and act slice by slice, with one batched LAPACK call
per step and stack; each slice of a stacked result is bitwise equal to the
result for that slice alone.  ``op_norm`` returns a float for a matrix and an
array of shape ``(...)`` for a stack.

``op_norm`` takes the largest singular value from the SVD.  For a stack
whose slices are Hermitian or anti-Hermitian by construction, such as the
velocities of an orbit curve, differences of projections or a lift's
reconstruction residual, ``op_norm(a, hermitian=True)`` takes the largest
|eigenvalue| from ``eigvalsh`` instead, of i times the slice where
‖a + a*‖_F < ‖a‖_F (a nonzero anti-Hermitian slice; never a Hermitian one).
Nothing checks the structure: ``eigvalsh`` reads one triangle, so a slice
that is neither gets a wrong norm.  On (257, n, n) stacks with one BLAS
thread the path took 2.5x less time than the SVD at n = 2, 1.7x at n = 8
and 1.4x at n = 16, agreeing within 3.3e-15 relative; the default stays the
SVD, so the builds' numbers do not move.

``log_unitary_principal`` diagonalizes a unitary U through a Cayley
transform with a shifted pole, in numpy alone.  The pole e^{iφ} sits in the
middle of the widest gap between the eigenangles of U, and with
v = e^{-iφ}U the matrix C = i(1 - v)^{-1}(1 + v) is Hermitian with
eigenvalue -cot(b/2) for each eigenangle b of v in (0, 2π).  That map is
strictly increasing in b, so C has exactly the eigenspaces of U: ``eigh`` of
C returns an orthonormal eigenbasis of U, also on clustered or repeated
spectrum, where an eigenbasis from U's own eigenvectors need not be
orthonormal.  The widest of the n gaps is at least 2π/n, so every b lies in
[π/n, 2π - π/n] and ‖C‖ ≤ cot(π/2n): the pole stays away from the spectrum
and the solve stays well conditioned, also for eigenangles next to ±π.

``exp_family(z, ts)`` samples e^{tz} for one anti-Hermitian z on a vector of
times with one eigh of z; every path of one generator is sampled through it,
and a stack of different generators goes through ``spectral_function``.

``op_norm_within(a, tol)`` decides ``op_norm(a) <= tol`` per slice.  It is
the tolerance gate of ``spectral_function``, ``log_unitary_principal``,
``exp_family`` and ``polar_antihermitian``, of the orbit-point,
horizontality, tangent-projection, curve-gap, lift- and path-unitarity,
section-gap and logarithm-entry gates of ``orbit``, and of the gates of
``grassmann.tangent_decompose``.  It decides first by the Frobenius bounds
``‖a‖_F / √r ≤ ‖a‖ ≤ ‖a‖_F`` (r the smaller side of a), each with a
relative margin of 1e-12 against roundoff; the singular values are computed
only for the slices that neither bound settles, so every decision equals the
exact test.  Error messages still report exact operator-norm defects.
"""
from __future__ import annotations

import numpy as np

from .errors import BranchCutError, DomainError
from .tolerances import ANGLE_GUARD, SPECTRAL_TOL

__all__ = [
    "dagger",
    "op_norm",
    "op_norm_within",
    "herm_defect",
    "antiherm_defect",
    "unitary_defect",
    "spectral_function",
    "log_unitary_principal",
    "exp_family",
    "polar_antihermitian",
    "nearest_unitary",
    "dump_matrix",
    "load_matrix",
]

# Relative slack on both Frobenius bounds of the gate; far above the
# roundoff of the computed Frobenius norm and largest singular value.
_GATE_MARGIN = 1e-12


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each slice of a stack."""
    return np.swapaxes(a, -1, -2).conj()


def op_norm(a: np.ndarray, hermitian: bool = False) -> float | np.ndarray:
    """Spectral norm (largest singular value) of a matrix, or of each slice
    of a ``(..., m, n)`` stack.

    With ``hermitian``, every slice must be square and Hermitian or
    anti-Hermitian by construction (this is not checked); its norm is then
    its largest |eigenvalue|, from ``eigvalsh`` of the slice, or of i times
    the slice where ‖a + a*‖_F < ‖a‖_F, which holds for a nonzero
    anti-Hermitian slice and for no Hermitian one."""
    a = np.asarray(a)
    if a.size == 0:
        norms = np.zeros(a.shape[:-2])
    elif hermitian:
        anti = _frobenius_sq(a + dagger(a)) < _frobenius_sq(a)
        if np.any(anti):
            a = np.where(anti[..., None, None], 1j * a, a)
        w = np.linalg.eigvalsh(a)
        norms = np.maximum(-w[..., 0], w[..., -1])
    else:
        norms = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(norms) if a.ndim == 2 else norms


def _frobenius_sq(a: np.ndarray) -> np.ndarray:
    return (a.real**2 + a.imag**2).sum(axis=(-2, -1))


def op_norm_within(a: np.ndarray, tol: float) -> bool | np.ndarray:
    """``op_norm(a) <= tol`` per slice, settled by the Frobenius bounds
    where they decide and by the singular values elsewhere."""
    a = np.asarray(a)
    fro = np.linalg.norm(a, axis=(-2, -1))
    rank_bound = max(min(a.shape[-2:]), 1)
    within = fro * (1.0 + _GATE_MARGIN) <= tol
    open_ = ~within & (fro / np.sqrt(rank_bound) * (1.0 - _GATE_MARGIN) <= tol)
    if np.any(open_):
        if a.ndim == 2:
            return op_norm(a) <= tol
        within[open_] = op_norm(a[open_]) <= tol
    return bool(within) if a.ndim == 2 else within


def herm_defect(a: np.ndarray) -> float | np.ndarray:
    return op_norm(a - dagger(a))


def antiherm_defect(a: np.ndarray) -> float | np.ndarray:
    return op_norm(a + dagger(a))


def unitary_defect(a: np.ndarray) -> float | np.ndarray:
    return op_norm(dagger(a) @ a - np.eye(a.shape[-1]))


def _sinc(z: np.ndarray) -> np.ndarray:
    # sin(z)/z with the removable singularity filled by its Taylor series;
    # below 1e-4 the series error is ~1e-38, far under roundoff.
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    out = np.empty_like(z)
    zs = z[small]
    out[small] = 1.0 - zs**2 / 6.0 + zs**4 / 120.0
    zb = z[~small]
    out[~small] = np.sin(zb) / zb
    return out

_SCALAR_MAPS = {
    "exp": np.exp,
    "cos": np.cos,
    "sin": np.sin,
    "sinc": _sinc,
    "square": lambda z: z * z,
}


def spectral_function(h: np.ndarray, f: str) -> np.ndarray:
    """Apply the scalar map ``f`` to a Hermitian or anti-Hermitian matrix,
    or to each slice of a ``(..., n, n)`` stack with one batched eigh.

    Parameters
    ----------
    h : square complex ndarray or stack of them, Hermitian or
        anti-Hermitian within ``SPECTRAL_TOL``.  A stack is
        Hermitian when every slice is, else anti-Hermitian when every slice
        is; a stack that needs both readings raises ``DomainError``.
    f : one of ``exp``, ``cos``, ``sin``, ``sinc`` (sin z / z), ``sqrt``
        (nonnegative spectrum required), ``square``.

    Anti-Hermitian input is diagonalized through its Hermitian reduction
    -i*h, so the eigenbasis is orthonormal and f is evaluated on the purely
    imaginary spectrum.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise DomainError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    herm = op_norm_within(h - dagger(h), SPECTRAL_TOL)
    if np.all(herm):
        w, v = np.linalg.eigh((h + dagger(h)) / 2.0)
        eigs = w.astype(complex)
    elif np.all(op_norm_within(h + dagger(h), SPECTRAL_TOL)):
        if f == "sqrt":
            raise DomainError("sqrt needs a Hermitian input")
        w, v = np.linalg.eigh((h - dagger(h)) / 2.0j)
        eigs = 1j * w
    else:
        _raise_not_normal(h)
    if f == "sqrt":
        if w.min() < -SPECTRAL_TOL:
            raise DomainError(f"sqrt needs nonnegative spectrum, min eigenvalue {w.min():.3e}")
        vals = np.sqrt(np.clip(w, 0.0, None)).astype(complex)
    else:
        try:
            scalar = _SCALAR_MAPS[f]
        except KeyError:
            raise DomainError(f"unknown scalar map {f!r}") from None
        vals = scalar(eigs)
    return (v * vals[..., None, :]) @ dagger(v)


def _first_slice(mask: np.ndarray) -> tuple[int, ...]:
    """Index of the first True entry of a per-slice mask; () for a matrix."""
    i = int(np.flatnonzero(np.ravel(mask))[0])
    return tuple(int(k) for k in np.unravel_index(i, np.shape(mask)))


def _raise_not_normal(h: np.ndarray) -> None:
    """Error path of spectral_function: name the first slice that is
    neither Hermitian nor anti-Hermitian, with its exact defects, or report
    a stack that mixes the two."""
    hd = np.asarray(herm_defect(h))
    ad = np.asarray(antiherm_defect(h))
    bad = (hd > SPECTRAL_TOL) & (ad > SPECTRAL_TOL)
    if not np.any(bad):
        raise DomainError(
            f"stack mixes Hermitian and anti-Hermitian slices within {SPECTRAL_TOL:.1e}; "
            "apply the map to each kind separately"
        )
    k = _first_slice(bad)
    where = "matrix" if h.ndim == 2 else f"slice {k}"
    raise DomainError(
        f"{where} is neither Hermitian (defect {hd[k]:.3e}) nor "
        f"anti-Hermitian (defect {ad[k]:.3e}) within {SPECTRAL_TOL:.1e}"
    )


def log_unitary_principal(u: np.ndarray) -> np.ndarray:
    """Principal anti-Hermitian logarithm of a unitary, or of each slice of
    a ``(..., n, n)`` stack.

    Eigenangles are taken in (-pi, pi); spectrum within ANGLE_GUARD of -1
    raises BranchCutError.  The eigenbasis Q is the ``eigh`` basis of the
    Cayley transform C = i(1 - v)^{-1}(1 + v), v = e^{-iφ}U, with the pole
    e^{iφ} in the middle of the widest gap between U's eigenangles (from
    ``eigvals``).  C is Hermitian, and its eigenvalue -cot(b/2) is
    injective in the eigenangle b of v, so C's eigenspaces are U's and Q is
    orthonormal on clustered spectrum; the widest gap is at least 2π/n, so
    ‖C‖ ≤ cot(π/2n).  The angles are read from the diagonal of T = Q*UQ,
    whose off-diagonal part is the normality gate.  Every step runs once per
    stack, and each slice of the result is bitwise equal to the logarithm of
    that slice alone.  A stack's errors name the first failing slice.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-2] != u.shape[-1]:
        raise DomainError(f"expected a square matrix or a stack of them, got shape {u.shape}")
    n = u.shape[-1]
    unitary = op_norm_within(dagger(u) @ u - np.eye(n), SPECTRAL_TOL)
    if not np.all(unitary):
        k = _first_slice(np.logical_not(unitary))
        where = "input" if u.ndim == 2 else f"slice {k}"
        raise DomainError(
            f"{where} is not unitary (defect {unitary_defect(u[k]):.3e} > {SPECTRAL_TOL:.1e})"
        )
    a = np.sort(np.angle(np.linalg.eigvals(u)), axis=-1)
    gaps = np.diff(a, axis=-1, append=a[..., :1] + 2.0 * np.pi)
    pole = np.take_along_axis(a + gaps / 2.0, np.argmax(gaps, axis=-1)[..., None], -1)
    v = np.exp(-1j * pole)[..., None] * u
    eye = np.eye(n)
    s = np.linalg.solve(eye - v, eye + v)
    # C = i s; eigh reads the Hermitian part of C, i (s - s*) / 2
    _, q = np.linalg.eigh((s - dagger(s)) * 0.5j)
    t = dagger(q) @ u @ q
    diag = np.diagonal(t, axis1=-2, axis2=-1)
    off = t.copy()
    off[..., np.arange(n), np.arange(n)] = 0.0
    normal = op_norm_within(off, 1e3 * SPECTRAL_TOL)
    if not np.all(normal):
        k = _first_slice(np.logical_not(normal))
        where = "unitary" if u.ndim == 2 else f"slice {k}"
        raise DomainError(
            f"{where} is not normal enough to diagonalize (defect {op_norm(off[k]):.3e})"
        )
    angles = np.angle(diag)
    at = np.argmax(np.abs(angles), axis=-1)[..., None]
    worst = np.take_along_axis(diag, at, axis=-1)[..., 0]
    cut = np.pi - np.abs(np.angle(worst)) < ANGLE_GUARD
    if np.any(cut):
        k = _first_slice(cut)
        where = "" if u.ndim == 2 else f" of slice {k}"
        raise BranchCutError(
            f"eigenvalue {worst[k]:.12f}{where} is within {ANGLE_GUARD:.1e} of the "
            "branch cut at -1",
            eigenvalue=complex(worst[k]),
        )
    x = (q * (1j * angles)[..., None, :]) @ dagger(q)
    return (x - dagger(x)) / 2.0


def exp_family(z: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """e^{t z} for an anti-Hermitian matrix z at every time of the vector
    ts, as a ``(len(ts), n, n)`` stack from one eigh of the Hermitian
    reduction (z - z*) / 2i.  For a ``(k, n, n)`` stack of generators the
    result is ``(k, len(ts), n, n)``, from one batched eigh, each path
    bitwise that of its generator alone; a stack's refusal names its first
    slice that is not anti-Hermitian."""
    z = np.asarray(z, dtype=complex)
    anti = op_norm_within(z + dagger(z), SPECTRAL_TOL)
    if not np.all(anti):
        k = _first_slice(np.logical_not(anti))
        where = "input" if z.ndim == 2 else f"slice {k}"
        raise DomainError(f"{where} is not anti-Hermitian (defect {antiherm_defect(z[k]):.3e})")
    h = (z - dagger(z)) / 2j
    w, v = np.linalg.eigh(h)
    phases = np.exp(1j * w[..., None, :] * np.asarray(ts, dtype=float)[:, None])
    return np.einsum("...ab,...tb,...cb->...tac", v, phases, v.conj())


def polar_antihermitian(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar split x = u |x| of an anti-Hermitian matrix, or of each slice
    of a ``(..., n, n)`` stack.

    Returns (u, absx) with absx = sqrt(-x^2) PSD, u anti-Hermitian, partial
    isometry on the support of x and zero on its kernel, commuting with absx.
    """
    x = np.asarray(x, dtype=complex)
    anti = op_norm_within(x + dagger(x), SPECTRAL_TOL)
    if not np.all(anti):
        k = _first_slice(np.logical_not(anti))
        where = "input" if x.ndim == 2 else f"slice {k}"
        raise DomainError(f"{where} is not anti-Hermitian (defect {antiherm_defect(x[k]):.3e})")
    w, v = np.linalg.eigh((x - dagger(x)) / 2.0j)
    absw = np.abs(w)
    cutoff = SPECTRAL_TOL * np.maximum(1.0, absw.max(axis=-1, keepdims=True))
    signs = np.where(absw > cutoff, 1j * np.sign(w), 0.0)
    u = (v * signs[..., None, :]) @ dagger(v)
    absx = (v * absw.astype(complex)[..., None, :]) @ dagger(v)
    return u, absx


def nearest_unitary(a: np.ndarray) -> np.ndarray:
    """Polar factor of an invertible matrix: the closest unitary."""
    u, s, vh = np.linalg.svd(a)
    if s.min() <= 0:
        raise DomainError("matrix is singular; no unique nearest unitary")
    return u @ vh


def dump_matrix(a: np.ndarray) -> str:
    """Serialize a complex matrix: one row per line, entries ``re+imi``
    with 17 significant digits, whitespace separated."""
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.view(float))):
        raise DomainError("matrix has non-finite entries")
    lines = []
    for row in np.atleast_2d(a):
        lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row))
    return "\n".join(lines) + "\n"


def load_matrix(text: str) -> np.ndarray:
    """Inverse of dump_matrix."""
    rows = []
    for line in text.strip().splitlines():
        entries = []
        for token in line.split():
            try:
                entries.append(complex(token[:-1].replace("i", "j") + "j" if token.endswith("i") else token))
            except ValueError:
                raise DomainError(f"cannot parse matrix entry {token!r}") from None
        rows.append(entries)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise DomainError("matrix text is empty or ragged")
    a = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(a.view(float))):
        raise DomainError("matrix text has non-finite entries")
    return a
