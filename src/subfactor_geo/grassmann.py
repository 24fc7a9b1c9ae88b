"""The projection manifold around the trace projection: tangent splitting,
the block form of its geodesics, degenerate directions, and the audit that
decides when the whole orbit sits inside it as a totally geodesic leaf.

Tangent vectors to the projection manifold at p are parametrized by
expectation-free elements x of M through v = xp + px*; anti-Hermitian x
give the orbit directions and Hermitian x the normal ones.  A direction is
degenerate when the big-manifold geodesic stays on the orbit, which
happens exactly when x is anti-Hermitian with x^2 in the subalgebra.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Inclusion,
    expectation_E,
    orthonormalize,
    random_antihermitian,
    random_horizontal,
    span_project,
    span_residual,
)
from .basic import BasicConstruction, reduce_R
from .errors import (
    ConstructionError,
    DomainError,
    RadiusError,
    bound_gate,
    refusals,
    require_each,
    require_one,
)
from .families import family_record
from .linalg import (
    dagger,
    norm_gate,
    op_norm,
    polar_antihermitian,
    spectral_function,
)
from .tolerances import DECOMPOSE_TOL, SPECTRAL_TOL

__all__ = [
    "tangent_decompose",
    "DecomposeResult",
    "grassmann_exp_block",
    "degeneracy_test",
    "DegeneracyResult",
    "degenerate_geodesic_closed_form",
    "totally_geodesic_audit",
    "AuditReport",
    "tangent_space_comparison",
    "TangentComparison",
    "kernel_real_onb",
    "sample_degenerate_direction",
    "sample_nondegenerate_direction",
]


@dataclass(frozen=True, eq=False)
class DecomposeResult:
    x: np.ndarray            # full parameter
    orbit_part: np.ndarray   # anti-Hermitian component of x
    normal_part: np.ndarray  # Hermitian component of x
    ambient_orbit: np.ndarray
    ambient_normal: np.ndarray


def tangent_decompose(bc: BasicConstruction, v: np.ndarray) -> DecomposeResult:
    """Recover the parameter x from a Hermitian p-codiagonal v = xp + px*
    via the compression reduction of v(2p - 1), and split it into the
    orbit-tangent (anti-Hermitian) and normal (Hermitian) components.

    For an (n, D, D) stack of v the fields are stacks; each slice's gates
    decide for it (the operator-norm ones through norm_gate), and a refusal
    names its trial."""
    single = v.ndim == 2
    vs = v[None] if single else v
    require = require_one if single else require_each
    p = bc.jones_p
    comp = np.eye(bc.dim_l2) - p
    corners = np.stack([p @ vs @ p, comp @ vs @ comp], axis=1)
    message = "tangent decomposition expects a Hermitian input (defect {:.3e})"
    require(
        refusals(
            len(vs),
            norm_gate(vs - dagger(vs), SPECTRAL_TOL, message),
            norm_gate(corners, DECOMPOSE_TOL, "input is not p-codiagonal (corner norm {:.3e})"),
        )
    )
    x = reduce_R(bc, vs @ (2.0 * p - np.eye(bc.dim_l2)))
    free = bound_gate(
        bc.inc.two_norm(expectation_E(bc.inc, x)),
        DECOMPOSE_TOL,
        "recovered parameter has expectation norm {:.3e}",
        ConstructionError,
    )
    lx = bc.left(x)
    recon = bound_gate(
        bc.two_norm1(lx @ p + p @ dagger(lx) - vs),
        DECOMPOSE_TOL,
        "decomposition fails xp + px* = v by {:.3e}",
        ConstructionError,
    )
    require(refusals(len(vs), free, recon))
    xa = 0.5 * (x - dagger(x))
    xh = 0.5 * (x + dagger(x))
    la = bc.left(xa)
    lh = bc.left(xh)
    fields = (x, xa, xh, la @ p - p @ la, lh @ p + p @ lh)
    return DecomposeResult(*(f[0] if single else f for f in fields))


def grassmann_exp_block(
    bc: BasicConstruction, x: np.ndarray, t: float | np.ndarray
) -> np.ndarray:
    """Geodesic of the projection manifold through p with codiagonal
    generator xp - px*, assembled blockwise from spectral functions of
    E(x*x) instead of a dense exponential.

    With s = sqrt(E(x*x)) and y = t x, the corner of the moved projection
    along p is cos^2(t s), the off-corners carry t sinc(2 t s), and the
    complementary corner is x t^2 sinc^2(t s) x*.

    For an (n, m, m) stack of x with a vector of n times t, the (n, D, D)
    stack of moved projections; each slice's gates decide for it, and a
    refusal names its trial.
    """
    inc = bc.inc
    single = x.ndim == 2
    xs = x[None] if single else x
    ts = np.reshape(t, (-1, 1, 1))
    require = require_one if single else require_each
    free = bound_gate(
        inc.two_norm(expectation_E(inc, xs)),
        SPECTRAL_TOL,
        "block exponential expects an expectation-free parameter (expectation norm {:.3e})",
    )
    # op-norm below pi: the largest float below pi makes the gate strict
    message = "parameter op-norm {:.3f} reached pi; action degenerates"
    require(refusals(len(xs), free, norm_gate(xs, np.nextafter(np.pi, 0.0), message, RadiusError)))
    e = expectation_E(inc, dagger(xs) @ xs)
    s = spectral_function(e, "sqrt")
    cos_ts = spectral_function(ts * s, "cos")
    cos2 = cos_ts @ cos_ts
    sinc_2ts = spectral_function(2.0 * ts * s, "sinc")
    sinc_ts = spectral_function(ts * s, "sinc")
    sinc2 = sinc_ts @ sinc_ts
    p = bc.jones_p
    l_cos2 = bc.left(cos2)
    l_x_sinc = bc.left(xs @ sinc_2ts)
    l_x_sinc2 = bc.left(xs @ sinc2)
    l_x = bc.left(xs)
    q = (
        l_cos2 @ p
        + ts * (l_x_sinc @ p + p @ dagger(l_x_sinc))
        + ts * ts * (l_x_sinc2 @ p @ dagger(l_x))
    )
    # the same curve through the generator exponential, as a consistency gate
    v = l_x @ p - p @ dagger(l_x)
    ev = spectral_function(ts * v, "exp")
    message = "block assembly differs from the exponential by {:.3e}"
    gap = q - ev @ p @ dagger(ev)
    require(refusals(len(xs), norm_gate(gap, SPECTRAL_TOL, message, ConstructionError)))
    return q[0] if single else q


@dataclass(frozen=True)
class DegeneracyResult:
    degenerate: bool
    defect: float
    skew_defect: float
    square_defect: float


def degeneracy_test(inc: Inclusion, x: np.ndarray) -> DegeneracyResult:
    """Decide whether x generates a projection-manifold geodesic that stays
    on the orbit: x must be anti-Hermitian with x^2 inside the subalgebra
    (tested as the expectation residual of x^2)."""
    skew = inc.two_norm(x + dagger(x))
    square = span_residual(inc.embed_basis, x @ x, inc.amb.weight_vector)
    defect = max(skew, square)
    return DegeneracyResult(
        degenerate=defect <= SPECTRAL_TOL,
        defect=defect,
        skew_defect=skew,
        square_defect=square,
    )


def degenerate_geodesic_closed_form(
    bc: BasicConstruction, x: np.ndarray, t: float | np.ndarray
) -> np.ndarray:
    """Closed form of a degenerate geodesic from the polar pieces x = u|x|:
    p cos^2(t|x|) + u p u* sin^2(t|x|) + (1/2)[u, p] sin(2t|x|).

    Verified on the fly against the conjugation curve e^{tx} p e^{-tx}.  A
    vector of times gives the (len(t), D, D) stack of the curve's points,
    each verified, from one polar split.
    """
    res = degeneracy_test(bc.inc, x)
    if not res.degenerate:
        raise DomainError(
            f"direction fails the degeneracy test (defect {res.defect:.3e})"
        )
    ts = np.reshape(t, (-1, 1, 1))
    u, absx = polar_antihermitian(x)
    cos_t = spectral_function(ts * absx, "cos")
    sin_t = spectral_function(ts * absx, "sin")
    sin_2t = spectral_function(2.0 * ts * absx, "sin")
    p = bc.jones_p
    lu = bc.left(u)
    l_cos2 = bc.left(cos_t @ cos_t)
    l_sin2 = bc.left(sin_t @ sin_t)
    l_sin2t = bc.left(sin_2t)
    q = (
        p @ l_cos2
        + lu @ p @ dagger(lu) @ l_sin2
        + 0.5 * (lu @ p - p @ lu) @ l_sin2t
    )
    etx = spectral_function(ts * x, "exp")
    letx = bc.left(etx)
    gap = op_norm(q - letx @ p @ dagger(letx)).max()
    if gap > SPECTRAL_TOL:
        raise ConstructionError(
            f"closed form differs from the conjugation curve by {gap:.3e}"
        )
    return q if np.ndim(t) else q[0]


def _kernel_bases(inc: Inclusion) -> tuple[np.ndarray, np.ndarray]:
    """Trace-orthonormal basis of the expectation kernel, and a
    real-orthonormal anti-Hermitian basis of the same kernel."""
    w = inc.amb.weight_vector
    ker = orthonormalize(inc.amb_basis - expectation_E(inc, inc.amb_basis), w)
    ik = 1j * ker
    # the anti-Hermitian parts of k and ik, interleaved per kernel element
    cands = np.stack([0.5 * (ker - dagger(ker)), 0.5 * (ik - dagger(ik))], axis=1)
    return ker, orthonormalize(cands.reshape((-1,) + ker.shape[1:]), w, real=True)


def kernel_real_onb(inc: Inclusion) -> np.ndarray:
    """Real-orthonormal anti-Hermitian basis of the expectation kernel
    (the horizontal directions at the base point)."""
    return _kernel_bases(inc)[1]


@dataclass(frozen=True, eq=False)
class AuditReport:
    holds: bool
    max_defect: float
    n_directions: int
    witness: tuple[np.ndarray, np.ndarray] | None
    product_closure_holds: bool
    product_max_defect: float
    degeneracy_agreement: bool


def totally_geodesic_audit(inc: Inclusion) -> AuditReport:
    """Decide whether every orbit direction is degenerate, which makes the
    orbit a totally geodesic leaf of the projection manifold.

    Polarized over a real-orthonormal anti-Hermitian basis of the
    expectation kernel: the audit holds when every anticommutator of basis
    elements has zero expectation residual.  The stricter all-products
    closure over the complex kernel basis is recorded alongside (it can
    fail while the audit holds, because only symmetrized products enter
    squares of anti-Hermitian directions).
    """
    w = inc.amb.weight_vector
    ker, basis = _kernel_bases(inc)

    def residuals(stack: np.ndarray) -> np.ndarray:
        # ‖y − E(y)‖₂ of each slice
        return inc.two_norm(stack - span_project(inc.embed_basis, stack, w))

    # anticommutators one row i (pairs j >= i) at a time; the witness is the
    # first pair that attains the maximum
    worst = 0.0
    worst_pair: tuple[np.ndarray, np.ndarray] | None = None
    for i, a in enumerate(basis):
        row = residuals(a @ basis[i:] + basis[i:] @ a)
        j = int(np.argmax(row))
        if row[j] > worst:
            worst = float(row[j])
            worst_pair = (a, basis[i + j])
    holds = worst <= SPECTRAL_TOL

    prod_worst = max((float(residuals(a @ ker).max()) for a in ker), default=0.0)

    by_square = residuals(basis @ basis) <= SPECTRAL_TOL
    agreement = all(
        degeneracy_test(inc, a).degenerate == sq for a, sq in zip(basis, by_square)
    )
    return AuditReport(
        holds=holds,
        max_defect=worst,
        n_directions=len(basis),
        witness=None if holds else worst_pair,
        product_closure_holds=prod_worst <= SPECTRAL_TOL,
        product_max_defect=prod_worst,
        degeneracy_agreement=agreement,
    )


@dataclass(frozen=True)
class TangentComparison:
    dim_expectation_free: int
    dim_orbit_tangent: int
    span_defect: float

    @property
    def match(self) -> bool:
        return (
            self.dim_expectation_free == self.dim_orbit_tangent
            and self.span_defect <= 1e-9
        )


def tangent_space_comparison(bc: BasicConstruction) -> TangentComparison:
    """Compare {y tangent to the projection manifold at p with E1(y) = 0}
    against the orbit tangent space at p, as real spans inside the
    extension algebra."""
    p = bc.jones_p
    w = 1.0 / bc.dim_l2
    la = bc.left(kernel_real_onb(bc.inc))
    free = la @ p + p @ dagger(la)
    orbit = la @ p - p @ la
    free_onb = orthonormalize(free, w, real=True)
    orbit_onb = orthonormalize(orbit, w, real=True)
    defect = max(
        span_residual(orbit_onb, free, w, real=True),
        span_residual(free_onb, orbit, w, real=True),
    )
    return TangentComparison(
        dim_expectation_free=len(free_onb),
        dim_orbit_tangent=len(orbit_onb),
        span_defect=defect,
    )


def sample_degenerate_direction(
    inc: Inclusion, rng: np.random.Generator
) -> np.ndarray:
    """Produce an anti-Hermitian direction passing the degeneracy test.

    Families whose kernel contains no nonzero degenerate direction fall
    back to a subalgebra direction (a zero-speed degenerate direction,
    since it commutes with the trace projection).
    """
    family = family_record(inc.family_tag)
    if family is not None and family.tensor_mk is not None:
        m, k = family.tensor_mk
        if k == 2:
            # Hermitian left factor times a traceless anti-Hermitian 2x2
            # right factor: the square collapses to the left factor alone
            b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            b = 0.5 * (b + dagger(b))
            w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            w = 0.5 * (w - dagger(w))
            w = w - (np.trace(w) / 2.0) * np.eye(2)
            x = np.kron(b, w)
        else:
            # no nonzero degenerate kernel direction exists for odd k;
            # use a subalgebra direction (zero speed on the orbit)
            b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            b = 0.5 * (b - dagger(b))
            x = np.kron(b, np.eye(k))
    else:
        x = random_horizontal(inc, rng)
    res = degeneracy_test(inc, x)
    if not res.degenerate:
        raise ConstructionError(
            f"sampler produced a non-degenerate direction (defect {res.defect:.3e})"
        )
    return x


def sample_nondegenerate_direction(
    inc: Inclusion, rng: np.random.Generator, min_defect: float = 0.05
) -> np.ndarray:
    """Random anti-Hermitian direction whose square visibly escapes the
    subalgebra, for divergence tests of the degeneracy criterion."""
    for _ in range(64):
        x = random_antihermitian(rng, inc.amb_basis)
        x = x / max(op_norm(x), 1e-12)
        res = degeneracy_test(inc, x)
        if res.square_defect > min_defect:
            return x
    raise ConstructionError(
        "could not sample a direction with a visibly non-subalgebra square"
    )

