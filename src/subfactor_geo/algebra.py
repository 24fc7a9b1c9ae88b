"""Finite-dimensional tracial *-algebras, inclusions, and conditional expectations.

An algebra is described abstractly by full matrix blocks with positive trace
weights (the trace of the identity is 1).  An inclusion N <= M is stored
concretely: M lives inside an ambient matrix arena as the span of a
trace-orthonormal basis, N as the span of the images of its own basis under
a unital trace-preserving *-embedding.  The conditional expectation onto N
is the trace-orthogonal projection onto that image, which is the unique
trace-preserving expectation.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .linalg import dagger, op_norm, spectral_function
from .tolerances import GRAM_DROP_TOL, PP_MARGIN_TOL, SPECTRAL_TOL

__all__ = [
    "AlgebraDescriptor",
    "Inclusion",
    "PPReport",
    "expectation_E",
    "horizontal_projection",
    "pimsner_popa_validate",
    "make_tensor_inclusion",
    "make_group_flip_inclusion",
    "make_custom_inclusion",
    "orthonormalize",
    "span_coords",
    "span_project",
    "span_residual",
    "span_residuals",
    "weighted_norms",
    "closure_defects",
    "random_element",
    "seeded_elements",
    "random_antihermitian",
    "random_unitary",
    "random_horizontal",
]


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Finite direct sum of full matrix blocks with a faithful tracial state.

    ``trace_weights[i]`` is the weight of a single diagonal matrix unit in
    block i, so the trace of x is sum_i trace_weights[i] * Tr(x_i) and the
    weights satisfy sum_i trace_weights[i] * block_dims[i] = 1.
    """

    block_dims: tuple[int, ...]
    trace_weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.block_dims) != len(self.trace_weights) or not self.block_dims:
            raise DomainError("block_dims and trace_weights must be equal-length and nonempty")
        if any(d < 1 for d in self.block_dims):
            raise DomainError(f"block dimensions must be positive: {self.block_dims}")
        if any(w <= 0 for w in self.trace_weights):
            raise DomainError(f"trace weights must be positive: {self.trace_weights}")
        total = sum(w * d for w, d in zip(self.trace_weights, self.block_dims))
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"trace weights must sum to 1 against block dims, got {total!r}")

    @property
    def ambient_dim(self) -> int:
        return sum(self.block_dims)

    @property
    def dim(self) -> int:
        """Complex dimension of the algebra."""
        return sum(d * d for d in self.block_dims)

    @cached_property
    def weight_vector(self) -> np.ndarray:
        """Trace weight of each diagonal position of the arena; built on the
        first read and shared, read-only, by every later one."""
        w = np.concatenate(
            [np.full(d, w) for d, w in zip(self.block_dims, self.trace_weights)]
        )
        w.flags.writeable = False
        return w

    def identity(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=complex)

    def trace(self, x: np.ndarray) -> complex | np.ndarray:
        """tau(x); slice by slice, as an array, for stacks of shape (..., n, n)."""
        val = np.diagonal(x, axis1=-2, axis2=-1) @ self.weight_vector
        return complex(val) if val.ndim == 0 else val

    def inner(self, a: np.ndarray, b: np.ndarray) -> complex | np.ndarray:
        """Trace inner product <a, b> = tau(b* a); slice by slice, as an
        array, for stacks of shape (..., n, n)."""
        val = np.einsum("...kd,...kd,d->...", b.conj(), a, self.weight_vector)
        return complex(val) if val.ndim == 0 else val

    def two_norm(self, x: np.ndarray) -> float | np.ndarray:
        """Trace 2-norm; slice by slice, as an array, for stacks."""
        norms = weighted_norms(x, self.weight_vector)
        return float(norms) if norms.ndim == 0 else norms

    def canonical_basis(self) -> np.ndarray:
        """Trace-orthonormal basis with the identity as its first element."""
        units = [self.identity()]
        off = 0
        for d, w in zip(self.block_dims, self.trace_weights):
            for i in range(d):
                for j in range(d):
                    e = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
                    e[off + i, off + j] = 1.0 / np.sqrt(w)
                    units.append(e)
            off += d
        return orthonormalize(units, self.weight_vector)


def orthonormalize(candidates, weights, real: bool = False) -> np.ndarray:
    """Orthonormal basis of the span of the candidates, in order.

    ``candidates`` is a stack or any iterable of arrays of one shape.  The
    inner product is <a, b> = sum conj(b) a w over the candidate's axes,
    where ``weights`` broadcasts against them (a trace weight vector, or
    1/D for tau1); ``real`` keeps only its real part.  Classical
    Gram-Schmidt with one re-orthogonalization pass, each pass two
    matrix-vector products against the basis built so far; a candidate
    whose residual norm is at most GRAM_DROP_TOL is dropped as dependent.
    """
    cands = iter(candidates)
    first = np.asarray(next(cands), dtype=complex)
    w = np.broadcast_to(np.asarray(weights, dtype=float), first.shape).reshape(-1)
    # rows are added by doubling: the rank is often far below min(n, N)
    basis = np.empty((64, first.size), dtype=complex)
    k = 0
    for cand in itertools.chain([first], cands):
        v = np.asarray(cand, dtype=complex).reshape(-1)
        for _ in range(2):
            # conj(<v, b_i>) for every basis element b_i at once
            c = basis[:k] @ np.conj(v * w)
            v = v - (c.real if real else c.conj()) @ basis[:k]
        nrm = np.sqrt((v.real**2 + v.imag**2) @ w)
        if nrm > GRAM_DROP_TOL:
            if k == len(basis):
                basis = np.concatenate([basis, np.empty_like(basis)])
            basis[k] = v / nrm
            k += 1
    return basis[:k].reshape((k,) + first.shape).copy()


# The span kernel: every coordinate, projection, residual and *-closure
# check over an orthonormal stack b (E, E1, membership in M and M1, the
# construction's property defects) goes through these routines.  The inner
# product is the one of ``orthonormalize``.


def span_coords(stack: np.ndarray, x: np.ndarray, weights, real: bool = False) -> np.ndarray:
    """Coefficients <x, b_i> of x, or of each slice of a (..., n, n) stack,
    over the stack b; ``real`` keeps their real part.  One GEMM on the
    flattened matrices."""
    xw = (x * weights).reshape(x.shape[:-2] + (-1,))
    # <b_i, x> = conj(<x, b_i>): conjugating x, not the (often larger) stack
    c = xw.conj() @ stack.reshape(len(stack), -1).T
    return c.real if real else c.conj()


def span_project(stack: np.ndarray, x: np.ndarray, weights, real: bool = False) -> np.ndarray:
    """Orthogonal projection of x, or of each slice of a stack, onto the
    (real, with ``real``) span of the stack."""
    c = span_coords(stack, x, weights, real)
    return (c @ stack.reshape(len(stack), -1)).reshape(x.shape)


def weighted_norms(x: np.ndarray, weights) -> np.ndarray:
    """The 2-norm of the inner product of ``orthonormalize``,
    sqrt(sum_kd |x_kd|^2 w_d), of x (a 0-d array) or of each slice of a
    stack; ``weights`` is a vector over the last axis or a scalar.  Every
    trace 2-norm of an algebra and every span residual takes this formula."""
    w = np.broadcast_to(np.asarray(weights, dtype=float), x.shape[-1:])
    return np.sqrt(np.maximum(np.einsum("...kd,...kd,d->...", x.conj(), x, w).real, 0.0))


def span_residuals(
    stack: np.ndarray, x: np.ndarray, weights, real: bool = False
) -> np.ndarray:
    """Weighted 2-norm distance of x, or of each slice of a stack, from the
    span of the stack."""
    return weighted_norms(x - span_project(stack, x, weights, real), weights)


def span_residual(stack: np.ndarray, x: np.ndarray, weights, real: bool = False) -> float:
    """Largest weighted 2-norm distance of x, or of a slice of a stack,
    from the span of the stack."""
    return float(span_residuals(stack, x, weights, real).max())


def closure_defects(stack: np.ndarray, weights) -> tuple[float, float]:
    """(product, adjoint): the largest distance of b_a b_c over all pairs,
    and of b_a*, from the span of the stack.  The products are formed one
    row a at a time, so no step holds more than len(stack) of them."""
    product = max(span_residual(stack, b @ stack, weights) for b in stack)
    return product, span_residual(stack, dagger(stack), weights)


@dataclass(frozen=True, eq=False)
class Inclusion:
    """A unital trace-preserving inclusion N <= M realized in a matrix arena.

    ``amb_basis`` is a trace-orthonormal basis of M (first element the arena
    identity); ``embed_basis[j]`` is the image of the abstract basis element
    ``sub_basis[j]`` of N, aligned so the embedding is explicit.
    ``lam`` is the index constant of the inclusion: the trace of the
    downward projection in the extension algebra, against which all the
    geometry is normalized.
    """

    sub: AlgebraDescriptor
    amb: AlgebraDescriptor
    sub_basis: np.ndarray
    embed_basis: np.ndarray
    amb_basis: np.ndarray
    lam: float
    family_tag: str = "custom"

    @property
    def dim(self) -> int:
        return self.amb_basis.shape[0]

    def identity(self) -> np.ndarray:
        return self.amb.identity()

    def trace(self, x: np.ndarray) -> complex | np.ndarray:
        return self.amb.trace(x)

    def two_norm(self, x: np.ndarray) -> float:
        return self.amb.two_norm(x)

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of x, or of each slice of a stack, over the basis of M."""
        return span_coords(self.amb_basis, x, self.amb.weight_vector)

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        return np.tensordot(c, self.amb_basis, axes=1)

    @cached_property
    def left_regular(self) -> np.ndarray:
        """(D, D, D), read-only: [i, r, s] = <b_i b_s, b_r>, so slice i is left
        multiplication by b_i on L2(M); filled by the factory and shared by
        every construction built from this inclusion."""
        basis = self.amb_basis
        coords_prod = span_coords(basis, basis[:, None] @ basis[None], self.amb.weight_vector)
        left = np.ascontiguousarray(np.swapaxes(coords_prod, 1, 2))
        left.flags.writeable = False
        return left

    @cached_property
    def pp_report(self) -> PPReport:
        """The feasibility probe at the declared lam (32 samples, seed 0), run
        by the factory, or by the build for an inclusion made otherwise."""
        return pimsner_popa_validate(self, n_samples=32, lam=self.lam, seed=0)

    def validate(self) -> None:
        for name, stack, desc in (
            ("sub", self.sub_basis, self.sub),
            ("embed", self.embed_basis, self.amb),
            ("amb", self.amb_basis, self.amb),
        ):
            gram = span_coords(stack, stack, desc.weight_vector)
            if op_norm(gram - np.eye(len(stack))) > 1e-11:
                raise DomainError(f"{name} basis is not trace-orthonormal")
            if op_norm(stack[0] - desc.identity()) > 1e-11:
                raise DomainError(f"{name} basis must start with the identity")
        if self.sub_basis.shape[0] != self.embed_basis.shape[0]:
            raise DomainError("sub and embed bases must be aligned")
        # the frame and property 1 read N's blocks from ``sub``
        if len(self.sub_basis) != self.sub.dim or span_residual(
            self.sub.canonical_basis(), self.sub_basis, self.sub.weight_vector
        ) > SPECTRAL_TOL:
            raise DomainError("sub basis does not span the algebra its descriptor declares")
        if not 0.0 < self.lam <= 1.0:
            raise DomainError(f"index constant must lie in (0, 1], got {self.lam}")
        if np.abs(self.sub.trace(self.sub_basis) - self.amb.trace(self.embed_basis)).max() > 1e-11:
            raise DomainError("embedding does not preserve the trace")
        wv = self.amb.weight_vector
        defect = span_residual(self.amb_basis, self.embed_basis, wv)
        if defect > SPECTRAL_TOL:
            raise DomainError(f"embedded subalgebra leaves M (defect {defect:.3e})")
        # both spans are *-algebras, and the structure constants upstairs
        # match the abstract ones
        for what, stack in (("subalgebra image", self.embed_basis), ("M", self.amb_basis)):
            product, adjoint = closure_defects(stack, wv)
            if adjoint > SPECTRAL_TOL:
                raise DomainError(f"{what} is not adjoint-closed")
            if product > SPECTRAL_TOL:
                raise DomainError(f"{what} is not closed under products")
        sub, emb = self.sub_basis, self.embed_basis
        c_sub = span_coords(sub, sub[:, None] @ sub[None], self.sub.weight_vector)
        c_emb = span_coords(emb, emb[:, None] @ emb[None], wv)
        if np.abs(c_sub - c_emb).max() > 1e-9:
            raise DomainError("embedding is not multiplicative")


def expectation_E(inc: Inclusion, x: np.ndarray) -> np.ndarray:
    """Trace-orthogonal projection of x onto the image of N.

    On elements of M this is the unique trace-preserving conditional
    expectation onto N; it is defined on the whole arena.
    """
    return span_project(inc.embed_basis, x, inc.amb.weight_vector)


def horizontal_projection(inc: Inclusion, x: np.ndarray) -> np.ndarray:
    """Anti-Hermitian part of x with its expectation removed.

    The result z satisfies z* = -z and E(z) = 0: a horizontal direction.
    """
    a = (x - dagger(x)) / 2.0
    return a - expectation_E(inc, a)


@dataclass(frozen=True, eq=False)
class PPReport:
    feasible: bool
    worst_margin: float
    lam: float
    n_checked: int
    witness: np.ndarray | None


def pimsner_popa_validate(
    inc: Inclusion, n_samples: int = 64, lam: float | None = None, seed: int = 0
) -> PPReport:
    """Check E(x*x) >= lam * x*x over a deterministic probe family.

    Probes: every basis element of M, then for each of ``n_samples``
    Gaussian elements x of M, x itself followed by the rank-one spectral
    projections of its Hermitian part (low-rank probes; Gaussian elements
    alone are far from the extremals of the inequality, projections sit on
    them).  The probes form one stack, and x*x, E(x*x) - lam * x*x and its
    eigenvalues are each computed once over it.  Feasible means the worst
    eigenvalue margin is at least -``PP_MARGIN_TOL``; the witness is the
    first probe with the worst margin.  Deterministic under the seed.
    """
    if lam is None:
        lam = inc.lam
    if not lam > 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    shape = inc.amb_basis.shape[1:]
    xs = seeded_elements(inc.amb_basis, n_samples, seed)
    _, vecs = np.linalg.eigh((xs + dagger(xs)) / 2.0)
    # projs[s, c] = v v* for the column v = vecs[s, :, c]
    cols = np.swapaxes(vecs, -1, -2)
    projs = cols[..., :, None] * cols[..., None, :].conj()
    samples = np.concatenate([xs[:, None], projs], axis=1).reshape((-1,) + shape)
    probes = np.concatenate([inc.amb_basis, samples])
    y = dagger(probes) @ probes
    d = expectation_E(inc, y) - lam * y
    margins = np.linalg.eigvalsh((d + dagger(d)) / 2.0).min(axis=-1)
    k = int(np.argmin(margins))
    worst = float(margins[k])
    feasible = worst >= -PP_MARGIN_TOL
    return PPReport(
        feasible=feasible,
        worst_margin=worst,
        lam=float(lam),
        n_checked=len(probes),
        witness=None if feasible else probes[k].copy(),
    )


# ---------------------------------------------------------------------------
# built-in families


def make_tensor_inclusion(m: int, k: int) -> Inclusion:
    """N = M_m tensor 1_k inside M = M_{mk}; E = identity tensor normalized
    partial trace; index constant 1/k^2."""
    if m < 1 or k < 2:
        raise DomainError(f"tensor family needs m >= 1 and k >= 2, got ({m}, {k})")
    sub = AlgebraDescriptor((m,), (1.0 / m,))
    amb = AlgebraDescriptor((m * k,), (1.0 / (m * k),))
    sub_basis = sub.canonical_basis()
    embed_basis = np.stack([np.kron(b, np.eye(k, dtype=complex)) for b in sub_basis])
    amb_basis = amb.canonical_basis()
    inc = Inclusion(
        sub=sub,
        amb=amb,
        sub_basis=sub_basis,
        embed_basis=embed_basis,
        amb_basis=amb_basis,
        lam=1.0 / (k * k),
        family_tag=f"tensor({m},{k})",
    )
    return _validated(inc)


def make_group_flip_inclusion(
    n_desc: AlgebraDescriptor, theta: np.ndarray | None = None, tag: str | None = None
) -> Inclusion:
    """Order-two twist family: M = {[[a, b], [theta(b), theta(a)]]} inside
    M_{2n}, N embedded as diag(n, theta(n)); E keeps the diagonal part;
    index constant 1/2.

    ``theta`` is a unitary on N's arena acting by conjugation (None means
    the identity automorphism; a block-swap is the corresponding permutation
    matrix).  It must be an order-two *-automorphism of N preserving the
    trace, and the trace of N must be uniform on its arena diagonal so that
    the ambient arena carries the normalized matrix trace.
    """
    n = n_desc.ambient_dim
    wv = n_desc.weight_vector
    if np.abs(wv - wv[0]).max() > 1e-14:
        raise DomainError("group flip family needs a uniform trace on the subalgebra arena")
    if theta is not None:
        theta = np.asarray(theta, dtype=complex)
        if theta.shape != (n, n):
            raise DomainError(f"theta must be {n}x{n}, got {theta.shape}")
        if op_norm(dagger(theta) @ theta - np.eye(n)) > SPECTRAL_TOL:
            raise DomainError("theta must be unitary")

    def th(x: np.ndarray) -> np.ndarray:
        if theta is None:
            return x
        return theta @ x @ dagger(theta)

    sub_basis = n_desc.canonical_basis()
    tbs = th(sub_basis)
    if span_residual(sub_basis, tbs, wv) > SPECTRAL_TOL:
        raise DomainError("theta does not preserve the subalgebra")
    if op_norm(th(tbs) - sub_basis).max() > SPECTRAL_TOL:
        raise DomainError("theta is not of order two")
    if np.abs(n_desc.trace(tbs) - n_desc.trace(sub_basis)).max() > 1e-11:
        raise DomainError("theta does not preserve the trace")

    def diag_type(b):
        out = np.zeros((2 * n, 2 * n), dtype=complex)
        out[:n, :n] = b
        out[n:, n:] = th(b)
        return out

    def off_type(b):
        out = np.zeros((2 * n, 2 * n), dtype=complex)
        out[:n, n:] = b
        out[n:, :n] = th(b)
        return out

    amb = AlgebraDescriptor((2 * n,), (1.0 / (2 * n),))
    embed_basis = np.stack([diag_type(b) for b in sub_basis])
    amb_basis = np.concatenate(
        [embed_basis, np.stack([off_type(b) for b in sub_basis])]
    )
    inc = Inclusion(
        sub=n_desc,
        amb=amb,
        sub_basis=sub_basis,
        embed_basis=embed_basis,
        amb_basis=amb_basis,
        lam=0.5,
        family_tag=tag or f"group_flip(n={n})",
    )
    return _validated(inc)


def make_custom_inclusion(
    sub: AlgebraDescriptor,
    amb: AlgebraDescriptor,
    phi,
    lam: float,
    m_span=None,
    tag: str = "custom",
) -> Inclusion:
    """Inclusion from an explicit embedding map ``phi`` (abstract N arena ->
    ambient arena).  ``m_span`` optionally lists arena matrices spanning M
    (default: all of the arena).  The declared ``lam`` is validated for
    feasibility, never inferred."""
    sub_basis = sub.canonical_basis()
    embed_basis = np.stack([np.asarray(phi(b), dtype=complex) for b in sub_basis])
    if m_span is None:
        amb_basis = amb.canonical_basis()
    else:
        amb_basis = orthonormalize([amb.identity()] + list(m_span), amb.weight_vector)
    inc = Inclusion(
        sub=sub,
        amb=amb,
        sub_basis=sub_basis,
        embed_basis=embed_basis,
        amb_basis=amb_basis,
        lam=lam,
        family_tag=tag,
    )
    return _validated(inc)


def _validated(inc: Inclusion) -> Inclusion:
    """inc, once it passes ``validate`` and the feasibility probe at its
    declared lam; every factory ends here, so builds read cached results."""
    inc.validate()
    report = inc.pp_report
    if not report.feasible:
        raise DomainError(
            f"declared lambda {inc.lam} is infeasible (worst margin {report.worst_margin:.3e})"
        )
    inc.left_regular  # filled here, so no build of inc pays for it
    return inc


# ---------------------------------------------------------------------------
# seeded sampling


def random_element(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray:
    """Gaussian element in the span of a trace-orthonormal basis."""
    c = (rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))) / np.sqrt(2)
    return np.tensordot(c, basis, axes=1)


def seeded_elements(basis: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n Gaussian elements in the span of a basis from one generator seeded
    with ``seed``: the samples of the feasibility probe and of property 6."""
    rng = np.random.default_rng(seed)
    return np.reshape([random_element(rng, basis) for _ in range(n)], (n,) + basis.shape[1:])


def random_antihermitian(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray:
    x = random_element(rng, basis)
    return (x - dagger(x)) / 2.0


def random_unitary(
    rng: np.random.Generator, basis: np.ndarray, scale: float = 1.0
) -> np.ndarray:
    """exp of a scaled Gaussian anti-Hermitian element: a unitary that stays
    in the spanned algebra."""
    a = random_antihermitian(rng, basis)
    nrm = op_norm(a)
    if nrm > 0:
        a = a * (scale / nrm)
    return spectral_function(a, "exp")


def random_horizontal(
    inc: Inclusion, rng: np.random.Generator, op_scale: float | None = None
) -> np.ndarray:
    """Random anti-Hermitian direction with zero expectation, optionally
    rescaled to a given operator norm."""
    z = horizontal_projection(inc, random_element(rng, inc.amb_basis))
    nrm = op_norm(z)
    if nrm == 0.0:
        raise DomainError("sampled a zero horizontal direction")
    if op_scale is not None:
        z = z * (op_scale / nrm)
    return z
