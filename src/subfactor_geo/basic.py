"""The extension algebra of an inclusion: trace projection, left regular
representation, and the downward expectation.

M acts on itself as a Hilbert space L2(M) under <a,b> = tau(b*a); the
projection p onto the image of the subalgebra generates, together with M,
the extension algebra M1 = <M, p> = span(M u MpM).  The normalized matrix
trace tau1 = tr/D of the D x D representation restricted to M1 plays the
role of the canonical trace; its compatibility tau1(left_rep(x)) = tau(x) is
validated at build time and the construction refuses to proceed otherwise.

M1 is built from the matrix units of N, with no Gram-Schmidt.  Its
commutant on L2(M) is the right action of N (Jones 1983); R_x is right
multiplication by x, read from left_cache.  For each block j of N, of size
n_j, let f^j_ab be its matrix units mapped into M, and V_j the s_j
eigenvalue-1 eigenvectors of the projection R_{f^j_11}.  Right
multiplication reverses products, so R_{f^j_1a} V_j is an isometry onto the
range of R_{f^j_aa}; over j and a these ranges sum to L2(M).  So the frame
W = [R_{f^j_1a} V_j over j, a] is a D x D unitary, and
S = W (+_j M_{s_j} (x) 1_{n_j}) W* is a *-algebra of dimension
K = sum_j s_j^2, traced by tr.

An element of S is held as W, the blocks and K coordinates that
``_block_coords`` reads: per block j, V_j* x V_j scaled by sqrt(n_j/D),
row-major, where V = [V_j over j] is the first copy of each block.  On S
this is a tau1-isometry onto C^K, the coordinates over the never-formed
basis sqrt(D/n_j) W (E (x) 1_{n_j}) W*, E over the matrix units of each
block; ``from_m1_coords`` is its inverse.  Products in S multiply blocks,
and membership in S averages W* y W over the n_j copies of each block.

``_gate_frame`` makes S = M1 from three facts (Jones 1983; Jones-Sunder
1997).  W is unitary (FRAME_TOL), so S is an algebra with commutant
S' = W (+_j 1_{s_j} (x) M_{n_j}) W*, of dimension sum_j n_j^2.  p and every
left(b_i) lie in S (CLOSURE_TOL), so M1, the algebra they generate, lies
in S, and S' lies in M1'.  And dim M1' = dim S': on L2(M) the commutant of
left(M) is R_M, so M1' = R_M cap {p}' is the nullspace of m -> [R_m, p] on
the D coordinates of m (M1_COMMUTANT_CUT), and its span must be R_N
(COMMUTANT_SPAN_TOL).  Equal dimensions give M1' = S', so M1 = M1'' = S''
= S by the double commutant theorem.  The center of M1 is then
S cap M1' = S cap R_N, read on the dim N coordinates of N.

``BasicConstruction.compressed`` is the first copy in W's coordinates:
x -> V* x V, an injective *-homomorphism of M1 into the r x r matrices
(r = sum_j s_j), hence isometric.  Operator norms, products, adjoints and
spectral functions of elements of M1 are those of their compressions, on
r x r matrices instead of D x D ones (r = 8 of D = 16 for tensor(2,2), 27
of 81 for tensor(3,3)).  Its frame is the identity, its blocks have
multiplicity 1, and its basis of M1 is the scaled matrix units.  When every
block of M1 has multiplicity D/r on L2(M) (as when N is a factor),
tr(x) = (D/r) tr(V* x V) on M1 and tau1 is tr/r on the compression, where
the Markov check confirms it.  The verification suites run there, all but
the construction suite, which verifies the construction on L2(M); so do the
CLI's log and sweeps.  The frame, the center of M1 and
verify_construction_properties read L2(M) itself.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    Inclusion,
    expectation_E,
    pimsner_popa_validate,
    seeded_elements,
    span_coords,
    span_project,
    span_residual,
    weighted_norms,
)
from .errors import (
    ConstructionError,
    Gate,
    MembershipError,
    refusals,
    require_each,
    require_one,
)
from .linalg import dagger, norm_gate, op_norm, op_norm_within
from .tolerances import (
    CLOSURE_TOL,
    COMMUTANT_CUT,
    COMMUTANT_SPAN_TOL,
    FRAME_TOL,
    M1_COMMUTANT_CUT,
    MEMBERSHIP_TOL,
    REDUCTION_TOL,
    SPECTRAL_TOL,
    WITNESS_TOL,
)

__all__ = [
    "BasicConstruction",
    "build_basic_construction",
    "expectation_E1",
    "reduce_R",
    "recover_unitary",
    "verify_construction_properties",
    "PropertyRecord",
    "ConstructionReport",
]


@dataclass(frozen=True, eq=False)
class BasicConstruction:
    """Immutable result of the extension-algebra build; safe to share."""

    inc: Inclusion
    left_cache: np.ndarray      # (D, D, D): inc.left_regular, left multiplication by each b_i
    jones_p: np.ndarray         # (D, D) projection onto the image of the subalgebra
    frame: np.ndarray           # (D, D) unitary W with M1 = W (+_j M_{s_j} (x) 1_{n_j}) W*
    blocks: tuple[tuple[int, int], ...]  # (s_j, n_j): size and multiplicity of each block of M1
    lam: float

    @property
    def dim_l2(self) -> int:
        return self.left_cache.shape[1]

    @property
    def dim_m1(self) -> int:
        return sum(s * s for s, _ in self.blocks)

    @property
    def dim_commutant(self) -> int:
        """dim S': the frame's algebra S has commutant +_j 1_{s_j} (x) M_{n_j}."""
        return sum(n * n for _, n in self.blocks)

    @property
    def copy_frame(self) -> np.ndarray:
        """V: the D x r columns of the frame that carry the first copy of each
        block of M1."""
        return np.concatenate([self.frame[:, c[0]:c[0] + s] for s, _, c in self._copies()], axis=1)

    def _copies(self) -> Iterator[tuple[int, int, range]]:
        """Per block j of M1: s_j, n_j, and the first index in W's
        coordinates of each of its n_j copies."""
        o = 0
        for s, n in self.blocks:
            yield s, n, range(o, o + n * s, s)
            o += n * s

    def left(self, x: np.ndarray) -> np.ndarray:
        """Left multiplication by x in L2 coordinates (D x D matrix), slice
        by slice for stacks."""
        return np.tensordot(self.inc.coords(x), self.left_cache, axes=1)

    def tau1(self, a: np.ndarray) -> complex:
        return complex(np.trace(a)) / self.dim_l2

    def inner1(self, a: np.ndarray, b: np.ndarray) -> complex | np.ndarray:
        """tau1(b* a); slice by slice, as an array, for (..., D, D) stacks."""
        val = np.einsum("...ij,...ij->...", b.conj(), a) / self.dim_l2
        return complex(val) if val.ndim == 0 else val

    def two_norm1(self, a: np.ndarray) -> float | np.ndarray:
        """tau1 2-norm; slice by slice, as an array, for (..., D, D) stacks.
        A matrix and each slice take one formula, the dot products of the
        flattened real and imaginary parts, so a slice's norm does not
        depend on the stack it sits in."""
        flat = a.reshape(a.shape[:-2] + (1, -1))
        re, im = flat.real, flat.imag
        sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
        norms = np.sqrt(sq[..., 0, 0]) / np.sqrt(self.dim_l2)
        return float(norms) if a.ndim == 2 else norms

    def from_m1_coords(self, c: np.ndarray) -> np.ndarray:
        """The element of M1 with block coordinates c, or one per row of a
        (..., K) array (see the module docstring): block j's s_j^2
        coordinates, scaled by sqrt(D/n_j), form its matrix X_j, and the
        element is W (+_j 1_{n_j} (x) X_j) W*."""
        d = self.dim_l2
        x = np.zeros(c.shape[:-1] + (d, d), dtype=complex)
        k = 0
        for s, n, copies in self._copies():
            xj = np.sqrt(d / n) * c[..., k:k + s * s].reshape(c.shape[:-1] + (s, s))
            for a in copies:
                x[..., a:a + s, a:a + s] = xj
            k += s * s
        return self.frame @ x @ dagger(self.frame)

    def membership_defects(self, y: np.ndarray) -> np.ndarray:
        """tau1 2-norm distance of y, or of each slice of a stack, from M1."""
        return weighted_norms(_off_m1(self, y), 1.0 / self.dim_l2)

    def membership_gate(self, ys: np.ndarray, what: str = "input") -> Gate:
        """The gate of E1 for an (n, D, D) stack: a slice in M1 within
        MEMBERSHIP_TOL, else a MembershipError naming what and its defect."""
        defects = self.membership_defects(ys)
        message = f"{what} is outside the extension algebra (defect {{:.3e}})"
        return defects <= MEMBERSHIP_TOL, lambda k: MembershipError(
            message.format(defects[k]), defect=float(defects[k])
        )

    @cached_property
    def compressed(self) -> BasicConstruction:
        """This construction on one copy of each block of M1 (see the module
        docstring); built and gated on the first read, then shared.  It is
        the construction itself when the first copy of each block is all of
        L2(M) or when the compression fails the Markov check."""
        return _compress(self)

    def to_compressed(self, y: np.ndarray) -> np.ndarray:
        """y in M1 as an element of ``compressed``: V* y V, or y itself when
        the compression is the construction.  y outside M1 within
        MEMBERSHIP_TOL is refused with a MembershipError."""
        require_one(refusals(1, self.membership_gate(y[None])))
        if self.compressed is self:
            return y
        v = self.copy_frame
        return dagger(v) @ y @ v

    def _e1_coords(self, y: np.ndarray) -> np.ndarray:
        """Coefficients of the projection of y (or of each slice of a stack)
        onto left_rep(M), over the left images of the M basis
        (tau1-orthonormal by Markov compatibility)."""
        return span_coords(self.left_cache, y, 1.0 / self.dim_l2)

    def _e1_unchecked(self, y: np.ndarray) -> np.ndarray:
        """E1 of y, or of each slice of a stack, without the membership check."""
        return span_project(self.left_cache, y, 1.0 / self.dim_l2)


def expectation_E1(bc: BasicConstruction, y: np.ndarray) -> np.ndarray:
    """tau1-orthogonal projection of y in M1 onto left_rep(M), slice by
    slice for a stack.

    Satisfies E1(p) = lam * 1 and the M-bimodule property.  A stack's
    refusal names its trial.
    """
    ys = y.reshape((-1,) + y.shape[-2:])
    (require_one if y.ndim == 2 else require_each)(refusals(len(ys), bc.membership_gate(ys)))
    return bc._e1_unchecked(y)


def reduce_R(bc: BasicConstruction, y: np.ndarray) -> np.ndarray:
    """The unique m in M with left_rep(m) p = y p, computed as (1/lam) E1(y p).

    For an (n, D, D) stack, slice by slice; each slice's gates decide for
    it, and a refusal names its trial."""
    single = y.ndim == 2
    ys = y[None] if single else y
    p = bc.jones_p
    outside = bc.membership_gate(ys)
    ms = bc.inc.from_coords(bc._e1_coords(ys @ p) / bc.lam)
    consistent = norm_gate(
        bc.left(ms) @ p - ys @ p,
        REDUCTION_TOL,
        "reduction is inconsistent: left_rep(m) p differs from y p by {:.3e}",
        ConstructionError,
    )
    (require_one if single else require_each)(refusals(len(ys), outside, consistent))
    return ms[0] if single else ms


def recover_unitary(bc: BasicConstruction, omega: np.ndarray) -> np.ndarray:
    """Unitary u in M with u p = omega p, for omega in U_{M1} preserving the
    orbit of p.  Raises DomainError when no such unitary exists (the
    recovered element fails to be unitary).  For an (n, D, D) stack, slice
    by slice; each slice's gates decide for it, and a refusal names its
    trial."""
    single = omega.ndim == 2
    omegas = omega[None] if single else omega
    require = require_one if single else require_each
    gram = dagger(omegas) @ omegas - np.eye(bc.dim_l2)
    unitary = norm_gate(gram, SPECTRAL_TOL, "omega is not unitary (defect {:.3e})")
    require(refusals(len(omegas), unitary))
    us = reduce_R(bc, omegas)
    preserving = norm_gate(
        dagger(us) @ us - bc.inc.identity(),
        WITNESS_TOL,
        "omega does not preserve the orbit of p: recovered element has unitary defect {:.3e}",
    )
    require(refusals(len(us), preserving))
    return us[0] if single else us


def build_basic_construction(inc: Inclusion) -> BasicConstruction:
    """Build the extension algebra for a validated inclusion.

    Fails loudly (ConstructionError) on Markov incompatibility or when any
    of the defining properties of the trace projection is violated on basis
    elements.
    """
    pp = inc.pp_report
    if not pp.feasible:
        raise ConstructionError(
            f"E(x*x) >= lam x*x fails at declared lam {inc.lam} "
            f"(worst margin {pp.worst_margin:.3e})"
        )
    basis = inc.amb_basis
    d = inc.dim
    w = inc.amb.weight_vector
    # left_cache[i, r, s] = <b_i b_s, b_r> = coords_prod[i, s, r]
    left_cache = inc.left_regular
    coords_prod = np.swapaxes(left_cache, 1, 2)

    # unital *-homomorphism checks, decided through the Frobenius bounds;
    # the exact defect is computed for a refusal's text only
    if op_norm(left_cache[0] - np.eye(d)) > SPECTRAL_TOL:
        raise ConstructionError("left_rep(1) is not the identity")
    left_adj = np.tensordot(span_coords(basis, dagger(basis), w), left_cache, axes=1)
    star = left_adj - dagger(left_cache)
    if not np.all(op_norm_within(star, SPECTRAL_TOL)):
        defect = float(op_norm(star).max())
        raise ConstructionError(f"left_rep does not intertwine adjoints (defect {defect:.3e})")
    # left(b_i b_j) = left(b_i) left(b_j), one row i (D matrices) at a time
    def homo_row(i: int) -> np.ndarray:
        return left_cache[i] @ left_cache - np.tensordot(coords_prod[i], left_cache, 1)

    if not all(np.all(op_norm_within(homo_row(i), SPECTRAL_TOL)) for i in range(d)):
        defect = max(float(op_norm(homo_row(i)).max()) for i in range(d))
        raise ConstructionError(f"left_rep is not multiplicative (defect {defect:.3e})")

    markov = _markov_defect(inc, left_cache)
    if markov > SPECTRAL_TOL:
        raise ConstructionError(
            f"Markov incompatibility: normalized trace of the representation "
            f"differs from tau by {markov:.3e}"
        )

    # trace projection onto the image of the subalgebra
    embed_coords = span_coords(basis, inc.embed_basis, w)
    jones_p = embed_coords.T @ embed_coords.conj()
    if (
        op_norm(jones_p @ jones_p - jones_p) > SPECTRAL_TOL
        or op_norm(jones_p - dagger(jones_p)) > SPECTRAL_TOL
    ):
        raise ConstructionError("trace projection is not a projection")

    frame, blocks = _m1_frame(inc, left_cache)
    bc = BasicConstruction(
        inc=inc, left_cache=left_cache, jones_p=jones_p, frame=frame, blocks=blocks, lam=inc.lam
    )
    _gate_frame(bc)
    _gate_properties(bc)
    return bc


def _off_m1(bc: BasicConstruction, y: np.ndarray) -> np.ndarray:
    """y less its projection onto M1, or each slice of a stack, in W's
    coordinates: every diagonal copy of each block of M1 less their average."""
    yw = dagger(bc.frame) @ y @ bc.frame
    for s, n, copies in bc._copies():
        views = [yw[..., a:a + s, a:a + s] for a in copies]
        mean = sum(views) / n
        for view in views:
            view -= mean
    return yw


def _right(left_cache: np.ndarray, c: np.ndarray) -> np.ndarray:
    """R_x, right multiplication on L2(M) by the x with coordinates c over
    the basis of M, for each row of c: R_x[r, s] = sum_k c_k left_cache[s, r, k]."""
    return np.swapaxes(np.tensordot(c, left_cache, axes=([1], [2])), -1, -2)


def _markov_defect(inc: Inclusion, left_cache: np.ndarray) -> float:
    """Markov compatibility: how far the normalized trace of the
    representation, restricted to left(M), is from tau."""
    trace = np.trace(left_cache, axis1=1, axis2=2) / left_cache.shape[1]
    return float(np.abs(trace - inc.trace(inc.amb_basis)).max())


def _compress(bc: BasicConstruction) -> BasicConstruction:
    """The construction carried by V* . V on the first copy V of each block
    of M1; bc itself when V is square or when the compressed representation
    fails the Markov check (blocks of M1 with unequal multiplicities).
    Gated by the build's property gates."""
    v = bc.copy_frame
    if v.shape[1] == bc.dim_l2:
        return bc
    vh = dagger(v)
    left_cache = np.ascontiguousarray(vh @ bc.left_cache @ v)
    if _markov_defect(bc.inc, left_cache) > SPECTRAL_TOL:
        return bc
    small = BasicConstruction(
        inc=bc.inc,
        left_cache=left_cache,
        jones_p=vh @ bc.jones_p @ v,
        frame=np.eye(v.shape[1], dtype=complex),
        blocks=tuple((s, 1) for s, _ in bc.blocks),
        lam=bc.lam,
    )
    # compressing again changes nothing, and may not be derived from the
    # compressed arrays, which hold no right action of M
    vars(small)["compressed"] = small
    _gate_properties(small)
    return small


def _m1_frame(inc: Inclusion, left_cache: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The frame W of M1 and its blocks (s_j, n_j), read from the blocks
    that the inclusion declares for N (see the module docstring).

    The matrix units f^j_1a of each block j of N are mapped into M through
    their coordinates over ``sub_basis`` applied to ``embed_basis``.  V_j is
    the eigenvalue-1 eigenvectors of R_{f^j_11}, and block j's columns of W
    are R_{f^j_1a} V_j, copy a after copy a - 1.
    """
    dims = inc.sub.block_dims
    rows = np.repeat(np.cumsum((0,) + dims[:-1]), dims)
    cols = rows + np.concatenate([np.arange(n) for n in dims])
    units = np.zeros((len(rows),) + inc.sub_basis.shape[1:], dtype=complex)
    units[np.arange(len(rows)), rows, cols] = 1.0
    f = np.tensordot(span_coords(inc.sub_basis, units, inc.sub.weight_vector), inc.embed_basis, 1)
    r_f = _right(left_cache, inc.coords(f))
    columns, blocks = [], []
    for r_j in np.split(r_f, np.cumsum(dims)[:-1]):
        w, u = np.linalg.eigh((r_j[0] + dagger(r_j[0])) / 2.0)
        # the spectrum is {0, 1}; the frame gate refuses anything else
        v = u[:, w > 0.5]
        columns += list(r_j @ v)
        blocks.append((v.shape[1], len(r_j)))
    return np.concatenate(columns, axis=1), tuple(blocks)


def _unitary_defect(bc: BasicConstruction) -> float:
    """How far the frame W is from a unitary: the larger of ||W*W - 1|| and
    ||WW* - 1||, so a frame missing columns reads 1."""
    w = bc.frame
    return max(
        op_norm(dagger(w) @ w - np.eye(w.shape[1])), op_norm(w @ dagger(w) - np.eye(len(w)))
    )


def _generator_defects(bc: BasicConstruction) -> np.ndarray:
    """tau1 2-norm distance from the frame's algebra S of p, then of each
    left(b_i): the generators of M1."""
    return bc.membership_defects(np.concatenate([bc.jones_p[None], bc.left_cache]))


def _blocks(bc: BasicConstruction, xs: np.ndarray) -> list[np.ndarray]:
    """V_j* x V_j, the first-copy block j of x (or of each slice of a
    stack) in W's coordinates, for each block j of M1."""
    y = dagger(bc.copy_frame) @ xs @ bc.copy_frame
    ends = np.cumsum([s for s, _ in bc.blocks])
    return [y[..., e - s:e, e - s:e] for (s, _), e in zip(bc.blocks, ends)]


def _block_coords(bc: BasicConstruction, xs: np.ndarray) -> np.ndarray:
    """The K block coordinates of x, or of each slice of a stack (see the
    module docstring): each sqrt(n_j/D) V_j* x V_j row-major, block by
    block; ``from_m1_coords`` is their inverse on M1."""
    parts = [np.sqrt(n / bc.dim_l2) * x for (_, n), x in zip(bc.blocks, _blocks(bc, xs))]
    return np.concatenate([x.reshape(x.shape[:-2] + (-1,)) for x in parts], axis=-1)


def _p_commutant(bc: BasicConstruction, ops: np.ndarray, cut: float) -> tuple[int, float]:
    """The m in M with [op_m, p] = 0, ops[k] the operator of basis element k:
    the nullspace dimension of the D^2 x D commutator matrix at the relative
    cut, and the largest distance of its elements from N."""
    inc, p = bc.inc, bc.jones_p
    null = _nullspace((ops @ p - p @ ops).reshape(len(ops), -1).T, cut)
    span = span_residual(inc.embed_basis, inc.from_coords(null.T), inc.amb.weight_vector)
    return null.shape[1], span


def _commutant(bc: BasicConstruction) -> tuple[int, float]:
    """M1' = R_M cap {p}' (see the module docstring); R_k is left_cache[:, :, k].T."""
    return _p_commutant(bc, np.swapaxes(bc.left_cache, 0, 2), M1_COMMUTANT_CUT)


def _gate_frame(bc: BasicConstruction) -> None:
    """Refuse a frame whose algebra S = W (+_j M_{s_j} (x) 1_{n_j}) W* is
    not M1: W is not unitary, a generator of M1 lies outside S, or the
    commutant of M1 is larger than S' (see the module docstring)."""
    unitary = _unitary_defect(bc)
    if unitary > FRAME_TOL:
        raise ConstructionError(f"M1 frame is not unitary (defect {unitary:.3e})")
    outside = _generator_defects(bc)
    k = int(np.argmax(outside))
    if outside[k] > CLOSURE_TOL:
        what = "p" if k == 0 else f"left(b_{k - 1})"
        raise ConstructionError(
            f"{what} is outside the algebra of the M1 frame (defect {outside[k]:.3e})"
        )
    dim, span = _commutant(bc)
    if dim != bc.dim_commutant:
        raise ConstructionError(
            f"M1' has dimension {dim} against dim S' = {bc.dim_commutant}: "
            "the frame's algebra is larger than M1"
        )
    if span > COMMUTANT_SPAN_TOL:
        raise ConstructionError(f"M1' is not the right action of N (defect {span:.3e})")


# Defects of the defining properties of the trace projection, shared by the
# build gate and the verifier; each is the worst over its stacked probes.


def _compression_defect(bc: BasicConstruction, xs: np.ndarray) -> float:
    """Property 2, p x p = E(x) p, over a stack of elements of M."""
    p = bc.jones_p
    ex = bc.left(expectation_E(bc.inc, xs))
    return float(op_norm(p @ bc.left(xs) @ p - ex @ p).max())


def _commutation_defect(bc: BasicConstruction) -> float:
    """Property 3, its reverse inclusion: N commutes with p."""
    p = bc.jones_p
    ln = bc.left(bc.inc.embed_basis)
    return float(op_norm(ln @ p - p @ ln).max())


def _times_p_defect(bc: BasicConstruction, span: np.ndarray, corner: bool) -> float:
    """Largest coordinate distance of m_k p (p m_k p with ``corner``) from
    the span of the orthonormal stack ``span``, m_k over the basis of the
    coordinates.  For k = (j, a, b) and X_j the block of p, the coordinates
    are E_ab X_j (p m_k p: X_j E_ab X_j), the outer product of e_a (column
    a of X_j) and row b of X_j, taken s_j rows at a time."""
    basis = _block_coords(bc, span)[:, None]
    worst, k = 0.0, 0
    for (s, _), x in zip(bc.blocks, _blocks(bc, bc.jones_p)):
        for a in range(s):
            col = x[:, a] if corner else np.eye(s)[a]
            rows = np.zeros((s, 1, bc.dim_m1), dtype=complex)
            rows[:, 0, k:k + s * s] = (col[None, :, None] * x[:, None, :]).reshape(s, -1)
            worst = max(worst, span_residual(basis, rows, 1.0))
        k += s * s
    return worst


def _corner_defect(bc: BasicConstruction) -> float:
    """Property 4: n -> n p is multiplicative and p M1 p lies in N p."""
    p = bc.jones_p
    e = bc.inc.embed_basis
    n = len(e)
    lnp = bc.left(e) @ p
    prods = (e[:, None] @ e[None]).reshape((n * n,) + e.shape[1:])
    mult = (lnp[:, None] @ lnp[None]).reshape((n * n,) + p.shape) - bc.left(prods) @ p
    corner = _times_p_defect(bc, lnp / np.sqrt(bc.lam), corner=True)
    return max(float(op_norm(mult).max()), corner)


def _module_defect(bc: BasicConstruction) -> float:
    """Property 5: M1 p = M p."""
    return _times_p_defect(bc, bc.left_cache @ bc.jones_p / np.sqrt(bc.lam), corner=False)


def _norm_bound_defect(bc: BasicConstruction, xs: np.ndarray) -> float:
    """Property 6, sqrt(lam) ||x|| <= ||x p|| <= ||x||, over a stack of
    elements of M."""
    a = op_norm(xs)
    ap = op_norm(bc.left(xs) @ bc.jones_p)
    return float(max(0.0, (ap - a).max(), (np.sqrt(bc.lam) * a - ap).max()))


def _e1p_defect(bc: BasicConstruction) -> float:
    """Property 7: E1(p) = lam 1 and tau1(p) = lam."""
    p = bc.jones_p
    return max(
        op_norm(bc._e1_unchecked(p) - bc.lam * np.eye(bc.dim_l2)),
        abs(bc.tau1(p) - bc.lam),
    )


def _gate_properties(bc: BasicConstruction) -> None:
    """Refuse a construction failing property 2-7 on the basis of M.

    Property 1's frame clauses are ``_gate_frame``, which runs first on
    L2(M); its center count is left to the verifier.  Property 8 already
    ran at the top of the build.
    """
    basis = bc.inc.amb_basis
    for index, what, defect in (
        (2, "p x p differs from E(x) p", lambda: _compression_defect(bc, basis)),
        (3, "the subalgebra does not commute with p", lambda: _commutation_defect(bc)),
        (4, "n -> n p is not a *-isomorphism onto p M1 p", lambda: _corner_defect(bc)),
        (5, "M1 p exceeds M p", lambda: _module_defect(bc)),
        (6, "compression norm bounds violated", lambda: _norm_bound_defect(bc, basis)),
        (7, "E1(p) differs from lam*1", lambda: _e1p_defect(bc)),
    ):
        value = defect()
        if value > SPECTRAL_TOL:
            raise ConstructionError(f"property {index} fails: {what} by {value:.3e}")


@dataclass(frozen=True)
class PropertyRecord:
    index: int
    name: str
    paper_anchor: str
    passed: bool
    worst_defect: float
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ConstructionReport:
    records: tuple[PropertyRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def _nullspace(a: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of a tall matrix."""
    # economy SVD keeps the full row space whenever rows >= cols, without
    # materializing the (rows x rows) left factor
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    cutoff = rtol * max(1.0, s.max(initial=0.0))
    rank = int((s > cutoff).sum())
    return vh[rank:].conj().T


def _m1_center_dim(bc: BasicConstruction) -> int:
    """Dimension of the center of M1, S cap M1' = S cap R_N once the clauses
    of property 1 hold: the nullspace of n -> (R_n less its projection onto
    S), on the dim N coordinates of n over N's basis."""
    right = _right(bc.left_cache, bc.inc.coords(bc.inc.embed_basis))
    off = _off_m1(bc, right).reshape(len(right), -1).T
    return _nullspace(off, M1_COMMUTANT_CUT).shape[1]


def verify_construction_properties(
    bc: BasicConstruction, n_samples: int = 32, seed: int = 0
) -> ConstructionReport:
    """Report on the eight defining properties of the construction."""
    inc = bc.inc
    lam = bc.lam

    records: list[PropertyRecord] = []

    # 1: M1 is the frame's algebra S, closed and traced by tr because W is
    # unitary, holding the generators of M1, and with the commutant S' of S;
    # center dimension recorded (trivial iff a factor)
    unitary_defect = _unitary_defect(bc)
    generator_defect = float(_generator_defects(bc).max())
    commutant_dim, commutant_defect = _commutant(bc)
    center_dim = _m1_center_dim(bc)
    predicted = len(inc.sub.block_dims)
    ok1 = (
        unitary_defect <= FRAME_TOL
        and generator_defect <= CLOSURE_TOL
        and commutant_dim == bc.dim_commutant
        and commutant_defect <= COMMUTANT_SPAN_TOL
        and center_dim == predicted
    )
    records.append(
        PropertyRecord(
            1,
            "extension algebra, trace, center",
            "[M:N] = λ⁻¹",
            ok1,
            max(unitary_defect, generator_defect),
            {
                "center_dim": center_dim,
                "predicted_center_dim": predicted,
                "unitary_defect": unitary_defect,
                "generator_defect": generator_defect,
                "commutant_dim": commutant_dim,
                "commutant_defect": commutant_defect,
                "dim_m1": bc.dim_m1,
            },
        )
    )

    def record(index: int, name: str, anchor: str, defect: float) -> PropertyRecord:
        return PropertyRecord(index, name, anchor, defect <= SPECTRAL_TOL, defect)

    # 2: p x p = E(x) p
    defect2 = _compression_defect(bc, inc.amb_basis)
    records.append(record(2, "compression to the subalgebra", "E: M → N", defect2))

    # 3: relative commutant of p in M equals N
    comm_dim, span_defect = _p_commutant(bc, bc.left_cache, COMMUTANT_CUT)
    reverse_defect = _commutation_defect(bc)
    ok3 = (
        comm_dim == inc.embed_basis.shape[0]
        and span_defect <= COMMUTANT_SPAN_TOL
        and reverse_defect <= SPECTRAL_TOL
    )
    records.append(
        PropertyRecord(
            3,
            "relative commutant of p",
            "{p}′ ∩ M = N",
            ok3,
            max(span_defect, reverse_defect),
            {"commutant_dim": comm_dim, "subalgebra_dim": int(inc.embed_basis.shape[0])},
        )
    )

    # 4-7: the corner N p = p M1 p, the module M1 p = M p, the norm bounds
    # of the compression on the basis plus samples, and E1(p) = lam
    probes = np.concatenate([inc.amb_basis, seeded_elements(inc.amb_basis, n_samples, seed)])
    records += [
        record(4, "corner algebra is the subalgebra", "R(x) = (1/λ)E₁(xp)", _corner_defect(bc)),
        record(5, "compressed module", "R(x) = (1/λ)E₁(xp)", _module_defect(bc)),
        record(6, "compression norm bounds", "E(x*x) ≥ λ x*x", _norm_bound_defect(bc, probes)),
        record(7, "trace of the projection", "E₁(p) = λ", _e1p_defect(bc)),
    ]

    # 8: the index inequality at the declared constant
    pp = pimsner_popa_validate(inc, n_samples=n_samples, lam=lam, seed=seed)
    records.append(
        PropertyRecord(
            8,
            "index inequality",
            "E(x*x) ≥ λ x*x",
            pp.feasible,
            max(0.0, -pp.worst_margin),
            {"worst_margin": pp.worst_margin, "n_checked": pp.n_checked},
        )
    )
    return ConstructionReport(records=tuple(records))
