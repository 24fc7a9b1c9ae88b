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

from .algebra import Inclusion, pimsner_popa_validate, random_element
from .errors import ConstructionError, DomainError, MembershipError
from .linalg import dagger, op_norm
from .tolerances import GRAM_DROP_TOL, MEMBERSHIP_TOL, spectral_tol

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
    l2_basis: np.ndarray        # (D, n, n): trace-orthonormal basis of M, identity first
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
        """Left multiplication by x in L2 coordinates (D x D matrix)."""
        return np.tensordot(self.inc.coords(x), self.left_cache, axes=1)

    def left_many(self, xs: np.ndarray) -> np.ndarray:
        cs = np.einsum(
            "tkd,bkd,d->tb", xs, self.l2_basis.conj(), self.inc.amb.weight_vector
        )
        return np.tensordot(cs, self.left_cache, axes=1)

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

    def project_m1(self, y: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
        """tau1-orthogonal projection onto span(m1_basis) and its residual,
        slice by slice for stacks."""
        c = np.einsum("krs,...rs->...k", self.m1_basis.conj(), y) / self.dim_l2
        proj = np.tensordot(c, self.m1_basis, axes=1)
        return proj, self.two_norm1(y - proj)

    def membership_defect(self, y: np.ndarray) -> float | np.ndarray:
        return self.project_m1(y)[1]

    def _e1_coords(self, y: np.ndarray) -> np.ndarray:
        """Coefficients of the projection of y (or of each slice of a stack)
        onto left_rep(M), over the left images of the M basis
        (tau1-orthonormal by Markov compatibility)."""
        return np.einsum("irs,...rs->...i", self.left_cache.conj(), y) / self.dim_l2

    def pullback(self, y: np.ndarray, check: bool = True) -> np.ndarray:
        """Inverse of left_rep on its image."""
        c = self._e1_coords(y)
        x = self.inc.from_coords(c)
        if check:
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
    defect = np.max(bc.membership_defect(y))
    if defect > MEMBERSHIP_TOL:
        raise MembershipError(
            f"input is outside the extension algebra (defect {defect:.3e})", defect=defect
        )
    return np.tensordot(bc._e1_coords(y), bc.left_cache, axes=1)


def reduce_R(bc: BasicConstruction, y: np.ndarray) -> np.ndarray:
    """The unique m in M with left_rep(m) p = y p, computed as (1/lam) E1(y p)."""
    defect = bc.membership_defect(y)
    if defect > MEMBERSHIP_TOL:
        raise MembershipError(
            f"input is outside the extension algebra (defect {defect:.3e})", defect=defect
        )
    c = bc._e1_coords(y @ bc.jones_p) / bc.lam
    m = bc.inc.from_coords(c)
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
    tol = spectral_tol()
    ud = op_norm(dagger(omega) @ omega - np.eye(bc.dim_l2))
    if ud > tol:
        raise DomainError(f"omega is not unitary (defect {ud:.3e})")
    u = reduce_R(bc, omega)
    u_defect = op_norm(dagger(u) @ u - bc.inc.identity())
    if u_defect > 1e-8:
        raise DomainError(
            f"omega does not preserve the orbit of p: recovered element has "
            f"unitary defect {u_defect:.3e}"
        )
    lp = bc.left(u) @ bc.jones_p
    resid = op_norm(lp - omega @ bc.jones_p)
    if resid > 1e-8:
        raise DomainError(f"recovered unitary fails u p = omega p (defect {resid:.3e})")
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
    tol = spectral_tol()
    basis = inc.amb_basis
    d = inc.dim
    w = inc.amb.weight_vector
    # left multiplication matrices: L[i][r, s] = <b_i b_s, b_r>
    prods = np.einsum("iab,sbc->isac", basis, basis)
    left_cache = np.einsum("iskd,rkd,d->irs", prods, basis.conj(), w)

    # unital *-homomorphism checks
    if op_norm(left_cache[0] - np.eye(d)) > tol:
        raise ConstructionError("left_rep(1) is not the identity")
    coords_adj = np.einsum(
        "ikd,rkd,d->ir", np.conj(np.transpose(basis, (0, 2, 1))), basis.conj(), w
    )
    left_adj = np.tensordot(coords_adj, left_cache, axes=1)
    star_defect = max(
        op_norm(left_adj[i] - dagger(left_cache[i])) for i in range(d)
    )
    if star_defect > tol:
        raise ConstructionError(f"left_rep does not intertwine adjoints (defect {star_defect:.3e})")
    coords_prod = np.einsum("iskd,rkd,d->isr", prods, basis.conj(), w)
    lhs = np.einsum("irt,jts->ijrs", left_cache, left_cache)
    rhs = np.tensordot(coords_prod, left_cache, axes=([2], [0]))
    homo_defect = float(
        max(op_norm(lhs[i, j] - rhs[i, j]) for i in range(d) for j in range(d))
    )
    if homo_defect > tol:
        raise ConstructionError(
            f"left_rep is not multiplicative (defect {homo_defect:.3e})"
        )

    # Markov compatibility: the normalized D-trace restricts to tau
    markov = max(
        abs(np.trace(left_cache[i]) / d - inc.trace(basis[i])) for i in range(d)
    )
    if markov > tol:
        raise ConstructionError(
            f"Markov incompatibility: normalized trace of the representation "
            f"differs from tau by {markov:.3e}"
        )

    # trace projection onto the image of the subalgebra
    embed_coords = np.einsum("jkd,bkd,d->jb", inc.embed_basis, basis.conj(), w)
    jones_p = np.einsum("jr,js->rs", embed_coords, embed_coords.conj())
    if op_norm(jones_p @ jones_p - jones_p) > tol or op_norm(jones_p - dagger(jones_p)) > tol:
        raise ConstructionError("trace projection is not a projection")

    # extension algebra basis: M plus M p M, orthonormalized under tau1
    gens = [left_cache[i] for i in range(d)]
    for i in range(d):
        lip = left_cache[i] @ jones_p
        for j in range(d):
            gens.append(lip @ left_cache[j])
    m1_list: list[np.ndarray] = []
    for cand in gens:
        v = cand.astype(complex)
        for _ in range(2):
            for b in m1_list:
                v = v - (np.vdot(b, v) / d) * b
        nrm = np.linalg.norm(v) / np.sqrt(d)
        if nrm > GRAM_DROP_TOL:
            m1_list.append(v / nrm)
    m1_basis = np.stack(m1_list)

    bc = BasicConstruction(
        inc=inc,
        l2_basis=basis,
        left_cache=left_cache,
        jones_p=jones_p,
        m1_basis=m1_basis,
        lam=inc.lam,
    )
    _check_build_properties(bc)
    return bc


def _check_build_properties(bc: BasicConstruction) -> None:
    """Basis-element verification of the defining compression properties."""
    tol = spectral_tol()
    p = bc.jones_p
    inc = bc.inc
    d = bc.dim_l2
    from .algebra import expectation_E

    # p x p = E(x) p
    defect2 = max(
        op_norm(p @ bc.left_cache[i] @ p - bc.left(expectation_E(inc, inc.amb_basis[i])) @ p)
        for i in range(d)
    )
    if defect2 > tol:
        raise ConstructionError(
            f"property 2 fails: p x p differs from E(x) p by {defect2:.3e}"
        )
    # the subalgebra commutes with p and n -> n p is multiplicative
    lam = bc.lam
    embeds = [bc.left(e) for e in inc.embed_basis]
    defect4 = 0.0
    for i, li in enumerate(embeds):
        defect4 = max(defect4, op_norm(li @ p - p @ li))
        for j, lj in enumerate(embeds):
            prod = inc.embed_basis[i] @ inc.embed_basis[j]
            defect4 = max(defect4, op_norm((li @ p) @ (lj @ p) - bc.left(prod) @ p))
    if defect4 > tol:
        raise ConstructionError(
            f"property 4 fails: n -> n p is not a *-isomorphism (defect {defect4:.3e})"
        )
    # M1 p = M p: every m1 basis element compresses into span(left(M) p)
    mp = np.stack([bc.left_cache[i] @ p for i in range(d)]) / np.sqrt(lam)
    defect5 = 0.0
    for y in bc.m1_basis:
        yp = y @ p
        c = np.einsum("krs,rs->k", mp.conj(), yp) / d
        defect5 = max(defect5, bc.two_norm1(yp - np.tensordot(c, mp, axes=1)))
    if defect5 > tol:
        raise ConstructionError(f"property 5 fails: M1 p exceeds M p by {defect5:.3e}")
    # norm compression bounds on basis elements
    sq = np.sqrt(lam)
    defect6 = 0.0
    for i in range(d):
        a_norm = op_norm(inc.amb_basis[i])
        ap_norm = op_norm(bc.left_cache[i] @ p)
        defect6 = max(defect6, ap_norm - a_norm, sq * a_norm - ap_norm)
    if defect6 > tol:
        raise ConstructionError(
            f"property 6 fails: compression norm bounds violated by {defect6:.3e}"
        )
    # E1(p) = lam 1
    e1p = np.tensordot(bc._e1_coords(p), bc.left_cache, axes=1)
    defect7 = op_norm(e1p - lam * np.eye(d))
    if defect7 > tol:
        raise ConstructionError(f"E1(p) differs from lam*1 by {defect7:.3e}")


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


def verify_construction_properties(
    bc: BasicConstruction, n_samples: int = 32, seed: int = 0
) -> ConstructionReport:
    """Report on the eight defining properties of the construction."""
    tol = spectral_tol()
    inc = bc.inc
    p = bc.jones_p
    d = bc.dim_l2
    k = bc.dim_m1
    lam = bc.lam
    rng = np.random.default_rng(seed)
    from .algebra import expectation_E

    records: list[PropertyRecord] = []

    # 1: tau1 is a trace on the extension algebra, whose span is an algebra;
    # center dimension recorded (trivial iff a factor)
    prod_defect = 0.0
    trace_defect = 0.0
    comm_cols = []
    for a in range(k):
        prods = bc.m1_basis[a] @ bc.m1_basis          # (K, D, D)
        cs = np.einsum("krs,brs->bk", bc.m1_basis.conj(), prods) / d
        resid = prods - np.tensordot(cs, bc.m1_basis, axes=([1], [0]))
        prod_defect = max(prod_defect, max(bc.two_norm1(r) for r in resid))
        rev = bc.m1_basis @ bc.m1_basis[a]
        trace_defect = max(
            trace_defect,
            float(np.abs(np.trace(prods, axis1=1, axis2=2) - np.trace(rev, axis1=1, axis2=2)).max()) / d,
        )
        comm_cols.append((prods - rev).reshape(k, d * d))
    adj_defect = 0.0
    for a in range(k):
        adj = dagger(bc.m1_basis[a])
        c = np.einsum("krs,rs->k", bc.m1_basis.conj(), adj) / d
        adj_defect = max(adj_defect, bc.two_norm1(adj - np.tensordot(c, bc.m1_basis, axes=1)))
    comm_matrix = np.concatenate(comm_cols, axis=1).T  # (K*D^2, K)
    center = _nullspace(comm_matrix, rtol=1e-9)
    center_dim = center.shape[1]
    predicted = len(inc.sub.block_dims)
    ok1 = (
        prod_defect <= 1e-9
        and adj_defect <= 1e-9
        and trace_defect <= tol
        and (center_dim == predicted if inc.family_tag != "custom" else True)
    )
    records.append(
        PropertyRecord(
            1,
            "extension algebra, trace, center",
            "[M:N] = λ⁻¹",
            ok1,
            max(prod_defect, adj_defect, trace_defect),
            {"center_dim": center_dim, "predicted_center_dim": predicted},
        )
    )

    # 2: p x p = E(x) p
    defect2 = max(
        op_norm(p @ bc.left_cache[i] @ p - bc.left(expectation_E(inc, inc.amb_basis[i])) @ p)
        for i in range(d)
    )
    records.append(
        PropertyRecord(2, "compression to the subalgebra", "E: M → N", defect2 <= tol, defect2)
    )

    # 3: relative commutant of p in M equals N
    cols = np.stack(
        [(bc.left_cache[i] @ p - p @ bc.left_cache[i]).reshape(d * d) for i in range(d)],
        axis=1,
    )
    null = _nullspace(cols)
    comm_dim = null.shape[1]
    span_defect = 0.0
    for col in null.T:
        x = inc.from_coords(col)
        span_defect = max(span_defect, inc.two_norm(x - expectation_E(inc, x)))
    reverse_defect = max(
        op_norm(bc.left(e) @ p - p @ bc.left(e)) for e in inc.embed_basis
    )
    ok3 = (
        comm_dim == inc.embed_basis.shape[0]
        and span_defect <= 1e-9
        and reverse_defect <= tol
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
    embeds = [bc.left(e) for e in inc.embed_basis]
    np_basis = np.stack([li @ p for li in embeds]) / np.sqrt(lam)
    defect4 = 0.0
    for i, li in enumerate(embeds):
        for j, lj in enumerate(embeds):
            prod = inc.embed_basis[i] @ inc.embed_basis[j]
            defect4 = max(defect4, op_norm((li @ p) @ (lj @ p) - bc.left(prod) @ p))
    for y in bc.m1_basis:
        pyp = p @ y @ p
        c = np.einsum("krs,rs->k", np_basis.conj(), pyp) / d
        defect4 = max(defect4, bc.two_norm1(pyp - np.tensordot(c, np_basis, axes=1)))
    records.append(
        PropertyRecord(
            4, "corner algebra is the subalgebra", "R(x) = (1/λ)E₁(xp)", defect4 <= tol, defect4
        )
    )

    # 5: M1 p = M p
    mp = np.stack([bc.left_cache[i] @ p for i in range(d)]) / np.sqrt(lam)
    defect5 = 0.0
    for y in bc.m1_basis:
        yp = y @ p
        c = np.einsum("krs,rs->k", mp.conj(), yp) / d
        defect5 = max(defect5, bc.two_norm1(yp - np.tensordot(c, mp, axes=1)))
    records.append(
        PropertyRecord(5, "compressed module", "R(x) = (1/λ)E₁(xp)", defect5 <= tol, defect5)
    )

    # 6: norm bounds for the compression, basis plus samples
    sq = np.sqrt(lam)
    defect6 = 0.0
    probes = [inc.amb_basis[i] for i in range(d)]
    probes += [random_element(rng, inc.amb_basis) for _ in range(n_samples)]
    for a in probes:
        a_norm = op_norm(a)
        ap_norm = op_norm(bc.left(a) @ p)
        defect6 = max(defect6, ap_norm - a_norm, sq * a_norm - ap_norm)
    records.append(
        PropertyRecord(
            6, "compression norm bounds", "E(x*x) ≥ λ x*x", defect6 <= tol, defect6
        )
    )

    # 7: E1(p) = lam
    e1p = np.tensordot(bc._e1_coords(p), bc.left_cache, axes=1)
    defect7 = max(op_norm(e1p - lam * np.eye(d)), abs(bc.tau1(p) - lam))
    records.append(PropertyRecord(7, "trace of the projection", "E₁(p) = λ", defect7 <= tol, defect7))

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
