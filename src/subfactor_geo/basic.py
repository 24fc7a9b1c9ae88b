"""The extension algebra of an inclusion: trace projection, left regular
representation, and the downward expectation.

M acts on itself as a Hilbert space under <a,b> = tau(b*a); the projection
p onto the image of the subalgebra generates, together with M, the
extension algebra M1 = span(M u MpM).  The normalized matrix trace of the
D x D representation restricted to M1 plays the role of the canonical trace
tau1; its compatibility tau1(left_rep(x)) = tau(x) is validated at build
time and the construction refuses to proceed otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Inclusion,
    closure_defects,
    expectation_E,
    orthonormalize,
    pimsner_popa_validate,
    random_element,
    span_coords,
    span_project,
    span_residual,
)
from .errors import ConstructionError, DomainError, MembershipError
from .linalg import dagger, op_norm
from .tolerances import MEMBERSHIP_TOL, SPECTRAL_TOL, WITNESS_TOL

__all__ = [
    "BasicConstruction",
    "build_basic_construction",
    "expectation_E1",
    "reduce_R",
    "recover_unitary",
    "verify_construction_properties",
    "PropertyRecord",
    "ConstructionReport",
    "dump_construction",
]


@dataclass(frozen=True, eq=False)
class BasicConstruction:
    """Immutable result of the extension-algebra build; safe to share."""

    inc: Inclusion
    left_cache: np.ndarray      # (D, D, D): left multiplication by each basis element
    jones_p: np.ndarray         # (D, D) projection onto the image of the subalgebra
    m1_basis: np.ndarray        # (K, D, D) tau1-orthonormal basis of M1
    lam: float

    @property
    def dim_l2(self) -> int:
        return self.left_cache.shape[1]

    @property
    def dim_m1(self) -> int:
        return self.m1_basis.shape[0]

    def left(self, x: np.ndarray) -> np.ndarray:
        """Left multiplication by x in L2 coordinates (D x D matrix), slice
        by slice for stacks."""
        return np.tensordot(self.inc.coords(x), self.left_cache, axes=1)

    def tau1(self, a: np.ndarray) -> complex:
        return complex(np.trace(a)) / self.dim_l2

    def inner1(self, a: np.ndarray, b: np.ndarray) -> complex:
        """tau1(b* a)."""
        return complex(np.vdot(b, a)) / self.dim_l2

    def two_norm1(self, a: np.ndarray) -> float | np.ndarray:
        """tau1 2-norm; slice by slice, as an array, for (..., D, D) stacks."""
        if a.ndim == 2:
            return float(np.linalg.norm(a)) / np.sqrt(self.dim_l2)
        return np.linalg.norm(a, axis=(-2, -1)) / np.sqrt(self.dim_l2)

    def membership_defect(self, y: np.ndarray) -> float:
        """Largest tau1 2-norm distance of y, or of a slice of a stack, from M1."""
        return span_residual(self.m1_basis, y, 1.0 / self.dim_l2)

    def _e1_coords(self, y: np.ndarray) -> np.ndarray:
        """Coefficients of the projection of y (or of each slice of a stack)
        onto left_rep(M), over the left images of the M basis
        (tau1-orthonormal by Markov compatibility)."""
        return span_coords(self.left_cache, y, 1.0 / self.dim_l2)

    def _e1_unchecked(self, y: np.ndarray) -> np.ndarray:
        """E1 of y, or of each slice of a stack, without the membership check."""
        return span_project(self.left_cache, y, 1.0 / self.dim_l2)

    def _reduce_unchecked(self, y: np.ndarray) -> np.ndarray:
        """(1/lam) E1(y p) pulled back to M, without reduce_R's checks."""
        return self.inc.from_coords(self._e1_coords(y @ self.jones_p) / self.lam)

    def pullback(self, y: np.ndarray) -> np.ndarray:
        """Inverse of left_rep on its image; y must lie in left_rep(M)."""
        x = self.inc.from_coords(self._e1_coords(y))
        defect = self.two_norm1(self.left(x) - y)
        if defect > MEMBERSHIP_TOL:
            raise MembershipError(
                f"matrix is not in left_rep(M) (defect {defect:.3e})", defect=defect
            )
        return x


def expectation_E1(bc: BasicConstruction, y: np.ndarray) -> np.ndarray:
    """tau1-orthogonal projection of y in M1 onto left_rep(M), slice by
    slice for a stack.

    Satisfies E1(p) = lam * 1 and the M-bimodule property.
    """
    defect = bc.membership_defect(y)
    if defect > MEMBERSHIP_TOL:
        raise MembershipError(
            f"input is outside the extension algebra (defect {defect:.3e})", defect=defect
        )
    return bc._e1_unchecked(y)


def reduce_R(bc: BasicConstruction, y: np.ndarray) -> np.ndarray:
    """The unique m in M with left_rep(m) p = y p, computed as (1/lam) E1(y p)."""
    defect = bc.membership_defect(y)
    if defect > MEMBERSHIP_TOL:
        raise MembershipError(
            f"input is outside the extension algebra (defect {defect:.3e})", defect=defect
        )
    m = bc._reduce_unchecked(y)
    resid = op_norm(bc.left(m) @ bc.jones_p - y @ bc.jones_p)
    if resid > 1e-8:
        raise ConstructionError(
            f"reduction is inconsistent: left_rep(m) p differs from y p by {resid:.3e}"
        )
    return m


def recover_unitary(bc: BasicConstruction, omega: np.ndarray) -> np.ndarray:
    """Unitary u in M with u p = omega p, for omega in U_{M1} preserving the
    orbit of p.  Raises DomainError when no such unitary exists (the
    recovered element fails to be unitary)."""
    ud = op_norm(dagger(omega) @ omega - np.eye(bc.dim_l2))
    if ud > SPECTRAL_TOL:
        raise DomainError(f"omega is not unitary (defect {ud:.3e})")
    u = reduce_R(bc, omega)
    u_defect = op_norm(dagger(u) @ u - bc.inc.identity())
    if u_defect > WITNESS_TOL:
        raise DomainError(
            f"omega does not preserve the orbit of p: recovered element has "
            f"unitary defect {u_defect:.3e}"
        )
    return u


def build_basic_construction(inc: Inclusion) -> BasicConstruction:
    """Build the extension algebra for a validated inclusion.

    Fails loudly (ConstructionError) on Markov incompatibility or when any
    of the defining properties of the trace projection is violated on basis
    elements.
    """
    pp = pimsner_popa_validate(inc, n_samples=32, lam=inc.lam, seed=0)
    if not pp.feasible:
        raise ConstructionError(
            f"E(x*x) >= lam x*x fails at declared lam {inc.lam} "
            f"(worst margin {pp.worst_margin:.3e})"
        )
    basis = inc.amb_basis
    d = inc.dim
    w = inc.amb.weight_vector
    # coords_prod[i, s, r] = <b_i b_s, b_r>, and left multiplication
    # matrices L[i][r, s] = coords_prod[i, s, r]
    coords_prod = span_coords(basis, basis[:, None] @ basis[None], w)
    left_cache = np.ascontiguousarray(np.swapaxes(coords_prod, 1, 2))

    # unital *-homomorphism checks
    if op_norm(left_cache[0] - np.eye(d)) > SPECTRAL_TOL:
        raise ConstructionError("left_rep(1) is not the identity")
    left_adj = np.tensordot(span_coords(basis, dagger(basis), w), left_cache, axes=1)
    star_defect = float(op_norm(left_adj - dagger(left_cache)).max())
    if star_defect > SPECTRAL_TOL:
        raise ConstructionError(f"left_rep does not intertwine adjoints (defect {star_defect:.3e})")
    # left(b_i b_j) = left(b_i) left(b_j), one row i (D matrices) at a time
    homo_defect = max(
        float(
            op_norm(left_cache[i] @ left_cache - np.tensordot(coords_prod[i], left_cache, 1)).max()
        )
        for i in range(d)
    )
    if homo_defect > SPECTRAL_TOL:
        raise ConstructionError(
            f"left_rep is not multiplicative (defect {homo_defect:.3e})"
        )

    # Markov compatibility: the normalized D-trace restricts to tau
    markov = float(
        np.abs(np.trace(left_cache, axis1=1, axis2=2) / d - inc.trace(basis)).max()
    )
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

    bc = BasicConstruction(
        inc=inc,
        left_cache=left_cache,
        jones_p=jones_p,
        m1_basis=orthonormalize(_m1_generators(left_cache, jones_p), 1.0 / d),
        lam=inc.lam,
    )
    _gate_properties(bc)
    return bc


def _m1_generators(left_cache: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Spanning stack of M1: left(b_i) for every basis element of M, then
    left(b_i) p left(b_j) in i-major order."""
    d = left_cache.shape[0]
    gens = np.empty((d + d * d, d, d), dtype=complex)
    gens[:d] = left_cache
    np.matmul((left_cache @ p)[:, None], left_cache[None], out=gens[d:].reshape(d, d, d, d))
    return gens


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


def _corner_defect(bc: BasicConstruction) -> float:
    """Property 4: n -> n p is multiplicative and p M1 p lies in N p."""
    p = bc.jones_p
    e = bc.inc.embed_basis
    n = len(e)
    lnp = bc.left(e) @ p
    prods = (e[:, None] @ e[None]).reshape((n * n,) + e.shape[1:])
    mult = (lnp[:, None] @ lnp[None]).reshape((n * n,) + p.shape) - bc.left(prods) @ p
    corner = span_residual(lnp / np.sqrt(bc.lam), p @ bc.m1_basis @ p, 1.0 / bc.dim_l2)
    return max(float(op_norm(mult).max()), corner)


def _module_defect(bc: BasicConstruction) -> float:
    """Property 5: M1 p = M p."""
    p = bc.jones_p
    return span_residual(bc.left_cache @ p / np.sqrt(bc.lam), bc.m1_basis @ p, 1.0 / bc.dim_l2)


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

    Property 1 is left to the verifier: its closure clause multiplies all
    K^2 pairs of basis elements of M1.  Property 8 already ran at the top of
    the build.
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


def _nullspace(a: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of a tall matrix."""
    # economy SVD keeps the full row space whenever rows >= cols, without
    # materializing the (rows x rows) left factor
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    cutoff = rtol * max(1.0, s.max(initial=0.0))
    rank = int((s > cutoff).sum())
    return vh[rank:].conj().T


def _algebra_defects(bc: BasicConstruction) -> tuple[float, float, float]:
    """Property 1, its algebra and trace clauses, over all pairs (a, b) of
    basis elements of M1: the largest tau1 2-norm distance of m_a m_b and
    of m_a* from span(m1_basis), and the largest
    |tau1(m_a m_b) - tau1(m_b m_a)|."""
    basis = bc.m1_basis
    k = bc.dim_m1
    product, adjoint = closure_defects(basis, 1.0 / bc.dim_l2)
    # t[a, b] = trace(m_a m_b), one K x K product of the flattened stacks
    t = basis.reshape(k, -1) @ np.swapaxes(basis, 1, 2).reshape(k, -1).T
    trace = float(np.abs(t - t.T).max()) / bc.dim_l2
    return product, adjoint, trace


def _center_dim(bc: BasicConstruction) -> int:
    """Dimension of the center of span(m1_basis), computed from the
    generators of M1.

    M1 is the algebra generated by left(M) and p (Jones 1983), and
    m1_basis spans left(M) + left(M) p left(M), which holds those
    generators and lies in M1.  Once the closure clause of property 1
    holds, that span is closed under products, so it is M1, and an element
    of it is central exactly when it commutes with p and with left(b_i) for
    every basis element b_i of M: commuting with a generating set means
    commuting with every product and sum of its members.  The commutant of
    these D + 1 generators is cut down one generator at a time, in
    coordinates over m1_basis: V starts as the identity, and each generator
    g replaces V by V times the nullspace of the D^2 x v matrix of the
    commutators [g, z], z running over the tau1-orthonormal elements that
    the columns of V give.  No step is larger than D^2 x K.  When the
    closure clause fails, property 1 already fails, and the count is the
    dimension of the commutant of the generators within the span.
    """
    d = bc.dim_l2
    v = np.eye(bc.dim_m1)
    for g in (bc.jones_p, *bc.left_cache):
        z = np.tensordot(v.T, bc.m1_basis, axes=1)
        comm = (g @ z - z @ g).reshape(len(z), d * d).T
        v = v @ _nullspace(comm, rtol=1e-9)
        if v.shape[1] == 0:
            break
    return v.shape[1]


def verify_construction_properties(
    bc: BasicConstruction, n_samples: int = 32, seed: int = 0
) -> ConstructionReport:
    """Report on the eight defining properties of the construction."""
    inc = bc.inc
    p = bc.jones_p
    d = bc.dim_l2
    lam = bc.lam
    rng = np.random.default_rng(seed)

    records: list[PropertyRecord] = []

    # 1: span(m1_basis) is an algebra on which tau1 is a trace; center
    # dimension recorded (trivial iff a factor)
    prod_defect, adj_defect, trace_defect = _algebra_defects(bc)
    center_dim = _center_dim(bc)
    predicted = len(inc.sub.block_dims)
    ok1 = (
        prod_defect <= 1e-9
        and adj_defect <= 1e-9
        and trace_defect <= SPECTRAL_TOL
        and (center_dim == predicted if inc.family_tag != "custom" else True)
    )
    records.append(
        PropertyRecord(
            1,
            "extension algebra, trace, center",
            "[M:N] = λ⁻¹",
            ok1,
            max(prod_defect, adj_defect, trace_defect),
            {
                "center_dim": center_dim,
                "predicted_center_dim": predicted,
                "product_defect": prod_defect,
                "adjoint_defect": adj_defect,
                "trace_defect": trace_defect,
            },
        )
    )

    # 2: p x p = E(x) p
    defect2 = _compression_defect(bc, inc.amb_basis)
    records.append(
        PropertyRecord(
            2, "compression to the subalgebra", "E: M → N", defect2 <= SPECTRAL_TOL, defect2
        )
    )

    # 3: relative commutant of p in M equals N
    null = _nullspace((bc.left_cache @ p - p @ bc.left_cache).reshape(d, d * d).T)
    comm_dim = null.shape[1]
    xs = inc.from_coords(null.T)
    span_defect = span_residual(inc.embed_basis, xs, inc.amb.weight_vector)
    reverse_defect = _commutation_defect(bc)
    ok3 = (
        comm_dim == inc.embed_basis.shape[0]
        and span_defect <= 1e-9
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

    # 4: N -> Np is a *-isomorphism onto p M1 p
    defect4 = _corner_defect(bc)
    records.append(
        PropertyRecord(
            4,
            "corner algebra is the subalgebra",
            "R(x) = (1/λ)E₁(xp)",
            defect4 <= SPECTRAL_TOL,
            defect4,
        )
    )

    # 5: M1 p = M p
    defect5 = _module_defect(bc)
    records.append(
        PropertyRecord(
            5, "compressed module", "R(x) = (1/λ)E₁(xp)", defect5 <= SPECTRAL_TOL, defect5
        )
    )

    # 6: norm bounds for the compression, basis plus samples
    samples = [random_element(rng, inc.amb_basis) for _ in range(n_samples)]
    probes = np.concatenate([inc.amb_basis, np.reshape(samples, (-1,) + inc.amb_basis.shape[1:])])
    defect6 = _norm_bound_defect(bc, probes)
    records.append(
        PropertyRecord(
            6, "compression norm bounds", "E(x*x) ≥ λ x*x", defect6 <= SPECTRAL_TOL, defect6
        )
    )

    # 7: E1(p) = lam
    defect7 = _e1p_defect(bc)
    records.append(
        PropertyRecord(
            7, "trace of the projection", "E₁(p) = λ", defect7 <= SPECTRAL_TOL, defect7
        )
    )

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


def dump_construction(bc: BasicConstruction, out_dir, config_hash: str = "") -> list[str]:
    """Write the trace projection and extension basis as matrix text files
    plus a manifest; returns the written file names."""
    import json
    import os

    from .linalg import dump_matrix

    os.makedirs(out_dir, exist_ok=True)
    written = []

    def put(name: str, mat: np.ndarray) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(dump_matrix(mat))
        written.append(name)

    put("jones_p.txt", bc.jones_p)
    for i, b in enumerate(bc.m1_basis):
        put(f"m1_basis_{i:03d}.txt", b)
    manifest = {
        "schema": 1,
        "family": bc.inc.family_tag,
        "dim_l2": bc.dim_l2,
        "dim_m1": bc.dim_m1,
        "lam": bc.lam,
        "config_hash": config_hash,
        "files": written,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return written + ["manifest.json"]
