"""Extension-algebra build: frozen small cases and a Gram-solve oracle."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from m1_reference import (
    block_center_dim,
    corner_defect_reference,
    frame_basis,
    generated_defect,
    generator_rank,
    gram_schmidt_basis,
    homomorphism_defects,
    module_defect_reference,
)
from subfactor_geo.algebra import (
    closure_defects,
    make_custom_inclusion,
    make_group_flip_inclusion,
    make_tensor_inclusion,
    orthonormalize,
    random_element,
    random_unitary,
    span_coords,
    span_residual,
    span_residuals,
    AlgebraDescriptor,
)
from subfactor_geo import basic, family_construction
from subfactor_geo.basic import (
    BasicConstruction,
    _block_coords,
    _gate_frame,
    _nullspace,
    _unitary_defect,
    build_basic_construction,
    expectation_E1,
    recover_unitary,
    reduce_R,
    verify_construction_properties,
)
from subfactor_geo.errors import ConstructionError, DomainError, MembershipError
from subfactor_geo.linalg import dagger, op_norm, spectral_function
from subfactor_geo.tolerances import CLOSURE_TOL, FRAME_TOL, SPECTRAL_TOL


def gram_solve_expectation(bc, y):
    """Independent projection onto left_rep(M): solve the Gram system over
    the left images of the M basis instead of trusting their orthonormality."""
    imgs = [bc.left(b) for b in bc.inc.amb_basis]
    g = np.array([[np.vdot(bi, bj) for bj in imgs] for bi in imgs]) / bc.dim_l2
    v = np.array([np.vdot(bi, y) for bi in imgs]) / bc.dim_l2
    c = np.linalg.solve(g, v)
    return np.tensordot(c, np.stack(imgs), axes=1)


def test_flip_scalars_frozen_representation():
    # M = span{1, s} with s the swap, N = C: everything is computable by hand
    inc = make_group_flip_inclusion(AlgebraDescriptor((1,), (1.0,)))
    bc = build_basic_construction(inc)
    assert bc.dim_l2 == 2
    assert bc.lam == 0.5
    s = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    # left multiplication by the swap exchanges the two basis vectors
    assert op_norm(bc.left(s) - s) < 1e-13
    assert op_norm(bc.left(inc.identity()) - np.eye(2)) < 1e-13
    # the trace projection fixes the N-span, which is the first coordinate
    assert op_norm(bc.jones_p - np.diag([1.0, 0.0])) < 1e-13
    e1p = expectation_E1(bc, bc.jones_p)
    assert op_norm(e1p - 0.5 * np.eye(2)) < 1e-13
    # extension algebra is all of the 2x2 matrices
    assert bc.dim_m1 == 4


def test_tensor_trace_projection_is_first_coordinate():
    # N = C means the image of N in L2(M) is the line through the identity,
    # which is the first basis vector by construction
    for k in (2, 3):
        bc = build_basic_construction(make_tensor_inclusion(1, k))
        d = bc.dim_l2
        expected = np.zeros((d, d))
        expected[0, 0] = 1.0
        assert op_norm(bc.jones_p - expected) < 1e-12


def test_markov_compatibility(bc, rng):
    # tau1 restricted to left_rep(M) is the trace of M
    for _ in range(10):
        x = random_element(rng, bc.inc.amb_basis)
        assert abs(bc.tau1(bc.left(x)) - bc.inc.trace(x)) < 1e-12


def test_e1_matches_gram_solve_oracle(bc, rng):
    for _ in range(10):
        y = random_element(rng, frame_basis(bc).reshape(bc.dim_m1, -1)).reshape(
            bc.dim_l2, bc.dim_l2
        )
        # membership-gated route vs plain least squares
        assert bc.two_norm1(expectation_E1(bc, y) - gram_solve_expectation(bc, y)) < 1e-10


def test_e1_fixed_points_and_trace(bc, rng):
    p = bc.jones_p
    assert bc.two_norm1(expectation_E1(bc, p) - bc.lam * np.eye(bc.dim_l2)) < 1e-11
    for _ in range(10):
        x = random_element(rng, bc.inc.amb_basis)
        lx = bc.left(x)
        assert bc.two_norm1(expectation_E1(bc, lx) - lx) < 1e-11
        y = random_element(rng, frame_basis(bc).reshape(bc.dim_m1, -1)).reshape(
            bc.dim_l2, bc.dim_l2
        )
        assert abs(bc.tau1(expectation_E1(bc, y)) - bc.tau1(y)) < 1e-12


def test_e1_m_bimodularity(bc, rng):
    for _ in range(10):
        a = bc.left(random_element(rng, bc.inc.amb_basis))
        b = bc.left(random_element(rng, bc.inc.amb_basis))
        y = random_element(rng, frame_basis(bc).reshape(bc.dim_m1, -1)).reshape(
            bc.dim_l2, bc.dim_l2
        )
        lhs = expectation_E1(bc, a @ y @ b)
        rhs = a @ expectation_E1(bc, y) @ b
        assert bc.two_norm1(lhs - rhs) < 1e-10


def test_sandwich_identity(bc, rng):
    # E1(a p b) = lam * a b for a, b in left_rep(M)
    for _ in range(10):
        a = bc.left(random_element(rng, bc.inc.amb_basis))
        b = bc.left(random_element(rng, bc.inc.amb_basis))
        lhs = expectation_E1(bc, a @ bc.jones_p @ b)
        assert bc.two_norm1(lhs - bc.lam * (a @ b)) < 1e-10


def test_compression_implements_expectation(bc, rng):
    from subfactor_geo.algebra import expectation_E

    p = bc.jones_p
    for _ in range(10):
        x = random_element(rng, bc.inc.amb_basis)
        lhs = p @ bc.left(x) @ p
        rhs = bc.left(expectation_E(bc.inc, x)) @ p
        assert op_norm(lhs - rhs) < 1e-11


def test_scaled_compressions_are_orthonormal(bc):
    # {left(b_i) p / sqrt(lam)} is tau1-orthonormal
    ims = np.stack([bc.left(b) @ bc.jones_p for b in bc.inc.amb_basis]) / np.sqrt(bc.lam)
    gram = np.einsum("ars,brs->ab", ims.conj(), ims) / bc.dim_l2
    assert op_norm(gram - np.eye(len(ims))) < 1e-11


def test_m1_basis_is_orthonormal(bc):
    gram = np.einsum("ars,brs->ab", frame_basis(bc).conj(), frame_basis(bc)) / bc.dim_l2
    assert op_norm(gram - np.eye(bc.dim_m1)) < 1e-10


def test_m1_dimension_matches_structure(constructions):
    # N = C cases: M1 is the full matrix algebra on L2(M)
    for name in ("tensor(1,2)", "tensor(1,3)", "group_flip(scalars)"):
        bc = constructions[name]
        assert bc.dim_m1 == bc.dim_l2**2


def test_e1_rejects_outside_elements(constructions, rng):
    bc = constructions["tensor(2,2)"]
    y = rng.standard_normal((bc.dim_l2, bc.dim_l2)) + 1j * rng.standard_normal(
        (bc.dim_l2, bc.dim_l2)
    )
    defect = bc.membership_defects(y).max()
    assert defect > 1e-6
    # E1 and the reduction refuse with one text; a stack names its trial
    for refuse in (expectation_E1, reduce_R):
        with pytest.raises(MembershipError) as refused:
            refuse(bc, y)
        assert str(refused.value) == f"input is outside the extension algebra (defect {defect:.3e})"
        assert abs(refused.value.defect - defect) <= 1e-12 * defect
    with pytest.raises(MembershipError, match=r"^trial 1: input is outside the extension algebra"):
        expectation_E1(bc, np.stack([bc.jones_p, y]))


def test_reduce_r_left_inverse(bc, rng):
    for _ in range(10):
        a = random_element(rng, bc.inc.amb_basis)
        m = reduce_R(bc, bc.left(a) @ bc.jones_p)
        assert bc.inc.two_norm(m - a) < 1e-10


def test_recover_unitary_from_disguised_omega(bc, rng):
    p = bc.jones_p
    comp = np.eye(bc.dim_l2) - p
    for _ in range(8):
        v = random_unitary(rng, bc.inc.amb_basis, scale=0.6)
        # hide the unitary behind a p-commuting extension unitary
        w = random_element(rng, frame_basis(bc).reshape(bc.dim_m1, -1)).reshape(
            bc.dim_l2, bc.dim_l2
        )
        w = w - dagger(w)
        c = spectral_function(p @ w @ p + comp @ w @ comp, "exp")
        omega = bc.left(v) @ c
        u = recover_unitary(bc, omega)
        assert op_norm(bc.left(u) @ p - omega @ p) < 1e-9
        assert op_norm(dagger(u) @ u - bc.inc.identity()) < 1e-9


def test_recover_unitary_rejects_non_unitary(bc):
    with pytest.raises(DomainError):
        recover_unitary(bc, 0.5 * np.eye(bc.dim_l2))


def test_all_eight_properties_pass(bc):
    rep = verify_construction_properties(bc, n_samples=12, seed=1)
    assert rep.passed
    assert tuple(r.index for r in rep.records) == tuple(range(1, 9))
    assert all(r.worst_defect <= 1e-9 for r in rep.records)


def test_property_report_center_dimension(constructions):
    rep = verify_construction_properties(constructions["tensor(2,2)"], n_samples=6, seed=1)
    rec = rep.records[0]
    # extension of a factor inclusion is a factor
    assert rec.detail["center_dim"] == 1


def full_property1_reference(bc):
    """Property 1 pair by pair, as the verifier once computed it: the
    closure, adjoint and trace defects from one einsum projection per left
    factor, and the center as the nullspace of the K*D^2 x K matrix of all
    commutators [m_a, m_b]."""
    k, d = bc.dim_m1, bc.dim_l2
    basis = frame_basis(bc)

    def residual(ys):
        c = np.einsum("krs,trs->tk", basis.conj(), ys) / d
        return float(bc.two_norm1(ys - np.tensordot(c, basis, axes=1)).max())

    product = trace = 0.0
    cols = []
    for a in range(k):
        prods = basis[a] @ basis
        rev = basis @ basis[a]
        product = max(product, residual(prods))
        trace = max(
            trace,
            float(
                np.abs(np.trace(prods, axis1=1, axis2=2) - np.trace(rev, axis1=1, axis2=2)).max()
            )
            / d,
        )
        cols.append((prods - rev).reshape(k, d * d))
    s = np.linalg.svd(np.concatenate(cols, axis=1).T, compute_uv=False)
    center_dim = k - int((s > 1e-9 * max(1.0, s.max())).sum())
    return product, residual(dagger(basis)), trace, center_dim


def diagonal_pair_construction():
    """N = C + C inside M2 as its diagonal, at lam = 1/2: a non-factor
    subalgebra, so M1 has a two-dimensional center."""
    sub = AlgebraDescriptor((1, 1), (0.5, 0.5))
    amb = AlgebraDescriptor((2,), (0.5,))
    return build_basic_construction(make_custom_inclusion(sub, amb, lambda b: b, 0.5))


def diagonal_m2_pair_construction():
    """N = M2 + M2 inside M4 as its block diagonal, at lam = 1/2: a non-factor
    subalgebra whose M1 = M4 + M4 (K = 32) has two copies of each block on
    L2(M), so the compression is proper (r = 8 of D = 16)."""
    sub = AlgebraDescriptor((2, 2), (0.25, 0.25))
    amb = AlgebraDescriptor((4,), (0.25,))
    return build_basic_construction(make_custom_inclusion(sub, amb, lambda b: b, 0.5))


def test_property1_matches_full_commutator_reference(frame_cases):
    # the frame clauses of property 1 pass where the pair-by-pair closure,
    # adjoint and trace clauses do; M1' has the dimension of S', which is
    # dim N, and the generators have rank K; the center S cap R_N is the
    # center counted block by block and that of the K*D^2 x K commutator
    # matrix, which tensor(3,2) leaves out, its matrix having 26.9M entries
    center_dims = {}
    for name, bc in frame_cases.items():
        rec = verify_construction_properties(bc, n_samples=4, seed=1).records[0]
        dim_n = len(bc.inc.embed_basis)
        assert rec.detail["commutant_dim"] == bc.dim_commutant == dim_n, name
        assert rec.detail["commutant_defect"] <= 1e-13, name
        assert generator_rank(bc) == rec.detail["dim_m1"] == bc.dim_m1, name
        assert rec.detail["center_dim"] == block_center_dim(bc), name
        if name != "tensor(3,2)":
            product, adjoint, trace, center_dim = full_property1_reference(bc)
            assert rec.detail["center_dim"] == center_dim, name
            assert max(product, adjoint) <= CLOSURE_TOL and trace <= SPECTRAL_TOL, name
        worst = max(rec.detail["unitary_defect"], rec.detail["generator_defect"])
        assert rec.worst_defect == worst <= 1e-13, name
        assert rec.passed, name
        center_dims[name] = rec.detail["center_dim"]
    assert center_dims["diagonal C+C in M2"] == center_dims["diagonal M2+M2 in M4"] == 2
    assert all(center_dims[name] == 1 for name in frame_cases if not name.startswith("diagonal"))


def test_commutant_of_left_m_is_right_m_by_brute_force(frame_cases):
    # on L2(M), the X with [left(b_k), X] = 0 for every k, on all D^2
    # unknowns, are exactly the right multiplications R_M: the fact the
    # commutant clause of property 1 reads M1' = R_M cap {p}' from
    for name, bc in frame_cases.items():
        d = bc.dim_l2
        if d > 16:
            continue
        # [L, X] row-major: (L (x) 1 - 1 (x) L^T) vec(X)
        eye = np.eye(d)
        a = np.concatenate([np.kron(lk, eye) - np.kron(eye, lk.T) for lk in bc.left_cache])
        null = _nullspace(a, 1e-10)
        assert null.shape[1] == d, name
        right = np.swapaxes(bc.left_cache, 0, 2).reshape(d, -1).T
        assert np.linalg.matrix_rank(right) == d, name
        assert op_norm(right - null @ (dagger(null) @ right)) <= 1e-12, name


def test_property1_checks_the_center_of_custom_inclusions(monkeypatch):
    # the center of M1 is the right action of the center of N for every
    # inclusion, whatever its tag
    cases = (diagonal_pair_construction(), diagonal_m2_pair_construction())
    for bc in cases:
        assert bc.inc.family_tag == "custom"
        rec = verify_construction_properties(bc, n_samples=4, seed=1).records[0]
        assert rec.passed
        assert rec.detail["center_dim"] == rec.detail["predicted_center_dim"] == 2
    monkeypatch.setattr(basic, "_m1_center_dim", lambda bc: 1)
    for bc in cases:
        rec = verify_construction_properties(bc, n_samples=4, seed=1).records[0]
        assert not rec.passed
        assert rec.detail["center_dim"] == 1


def test_property1_fails_loudly_on_a_truncated_basis(constructions):
    # the frame loses its last column, and the basis one direction of it
    bc = constructions["tensor(2,2)"]
    frame = bc.frame.copy()
    frame[:, -1] = 0.0
    cut = dataclasses.replace(bc, frame=frame)
    rec = verify_construction_properties(cut, n_samples=4, seed=1).records[0]
    assert not rec.passed
    assert rec.worst_defect > 1e-3
    assert rec.detail["unitary_defect"] == rec.worst_defect


def test_property_verifier_memory_stays_below_the_commutator_matrix(constructions):
    # Peak traced allocation of the verifier on tensor(2,2): 50.9 MB when
    # property 1 formed the K*D^2 x K commutator matrix (16.8 MB itself),
    # 1.0 MB with the center taken from the generators of M1.
    bc = constructions["tensor(2,2)"]
    tracemalloc.start()
    try:
        verify_construction_properties(bc, n_samples=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_wrong_lambda_fails_loudly():
    inc = make_tensor_inclusion(1, 2)
    bad = dataclasses.replace(inc, lam=0.3)
    with pytest.raises(ConstructionError) as err:
        build_basic_construction(bad)
    assert "property" in str(err.value)


def test_gate_and_verifier_share_the_property_defects():
    inc = make_tensor_inclusion(1, 2)
    bad = dataclasses.replace(inc, lam=0.3)
    with pytest.raises(ConstructionError) as err:
        build_basic_construction(bad)
    found = re.fullmatch(r"property (\d) fails: .* by (\S+)", str(err.value))
    assert found is not None
    index = int(found.group(1))
    # only the declared constant differs from the construction the gate saw
    unchecked = dataclasses.replace(build_basic_construction(inc), inc=bad, lam=0.3)
    rec = verify_construction_properties(unchecked).records[index - 1]
    assert rec.index == index and not rec.passed
    assert found.group(2) == f"{rec.worst_defect:.3e}"


# ---------------------------------------------------------------------------
# operator norms of M1 elements on one copy of each block


@pytest.fixture(scope="module")
def frame_cases(constructions):
    cases = dict(constructions)
    cases["tensor(3,2)"] = family_construction("tensor(3,2)")
    cases["diagonal C+C in M2"] = diagonal_pair_construction()
    cases["diagonal M2+M2 in M4"] = diagonal_m2_pair_construction()
    return cases


# frame width r: the sum over the blocks of M1 of their sizes
FRAME_WIDTHS = {
    "tensor(1,2)": 4,
    "tensor(1,3)": 9,
    "tensor(2,2)": 8,
    "group_flip(scalars)": 2,
    "group_flip(m2)": 4,
    "tensor(3,2)": 12,
    "diagonal C+C in M2": 4,
    "diagonal M2+M2 in M4": 8,
}


def test_frame_compression_keeps_op_norm_on_m1(frame_cases):
    rng = np.random.default_rng(31)
    for name, bc in frame_cases.items():
        v = bc.copy_frame
        assert v.shape == (bc.dim_l2, FRAME_WIDTHS[name]), name
        c = rng.standard_normal((6, bc.dim_m1)) + 1j * rng.standard_normal((6, bc.dim_m1))
        xs = np.tensordot(c, frame_basis(bc), axes=1)
        herm = (xs + dagger(xs)) / 2.0
        for stack in (xs, herm):
            exact = op_norm(stack)
            # also where r = D and the frame is a unitary
            assert np.all(np.abs(op_norm(dagger(v) @ stack @ v) - exact) <= 1e-13 * exact), name


def inclusion_with_frame(inc, frame, blocks):
    """A replaced copy of inc whose M1 frame reads (frame, blocks)."""
    bad = dataclasses.replace(inc)
    vars(bad)["m1_frame"] = (frame, blocks)
    return bad


def test_m1_frame_keeps_every_block_of_a_non_factor():
    # M1 of C+C in M2 is M2 + M2, one block per block of N; the range of
    # right multiplication by one minimal projection of N holds one block only
    bc = diagonal_pair_construction()
    assert bc.blocks == ((2, 1), (2, 1))
    _gate_frame(bc)
    # a frame missing one block is refused, alone and in the build
    missing = dataclasses.replace(bc, frame=bc.frame[:, :2], blocks=bc.blocks[:1])
    refusal = "M1 frame is not unitary (defect 1.000e+00)"
    with pytest.raises(ConstructionError, match=re.escape(refusal)):
        _gate_frame(missing)
    with pytest.raises(ConstructionError, match=re.escape(refusal)):
        build_basic_construction(inclusion_with_frame(bc.inc, bc.frame[:, :2], bc.blocks[:1]))
    # the two blocks taken as one: the frame is unitary and holds every
    # generator, but its algebra M4 is larger than M1, whose commutant R_N
    # is two-dimensional against the scalars, the commutant of M4
    merged = dataclasses.replace(bc, blocks=((4, 1),))
    assert len(bc.inc.embed_basis) == 2 and merged.dim_commutant == 1
    refusal = "M1' has dimension 2 against dim S' = 1: the frame's algebra is larger than M1"
    with pytest.raises(ConstructionError, match=re.escape(refusal)):
        _gate_frame(merged)
    # the dropped block is invisible to the compression: its central
    # projection reads norm 0 there
    v = bc.copy_frame
    blocks = [v[:, :2] @ dagger(v[:, :2]), v[:, 2:] @ dagger(v[:, 2:])]
    assert op_norm(dagger(v[:, :2]) @ blocks[1] @ v[:, :2]) < 1e-13
    assert abs(op_norm(blocks[1]) - 1.0) < 1e-13


def test_m1_frame_columns_are_the_ranges_of_the_blocks_minimal_projections(frame_cases):
    # block j's columns V_j span the range of right multiplication by the
    # first diagonal matrix unit e_j of block j of N, and distinct blocks'
    # columns are orthogonal
    for name, units, width in (
        ("diagonal C+C in M2", (0, 1), 2),
        ("diagonal M2+M2 in M4", (0, 2), 4),
    ):
        bc = frame_cases[name]
        inc = bc.inc
        v = bc.copy_frame
        blocks = [v[:, k * width:(k + 1) * width] for k in range(len(units))]
        for i, vj in zip(units, blocks):
            e = np.zeros_like(inc.identity())
            e[i, i] = 1.0
            # column s of right multiplication by e: the coordinates of b_s e
            r_e = inc.coords(inc.amb_basis @ e).T
            assert op_norm(r_e @ vj - vj) <= 1e-13, name
        for j, vj in enumerate(blocks):
            for k, vk in enumerate(blocks):
                gram = dagger(vj) @ vk
                assert op_norm(gram - (np.eye(width) if j == k else 0.0)) <= 1e-13, name


def test_m1_frame_gates_refuse_bad_frames(constructions):
    bc = constructions["tensor(2,2)"]
    _gate_frame(bc)
    # W scaled by 1.01, alone and in the build
    scaled = dataclasses.replace(bc, frame=1.01 * bc.frame)
    defect = _unitary_defect(scaled)
    assert abs(defect - (1.01**2 - 1.0)) <= 1e-12
    refusal = f"M1 frame is not unitary (defect {defect:.3e})"
    with pytest.raises(ConstructionError, match=re.escape(refusal)):
        _gate_frame(scaled)
    with pytest.raises(ConstructionError, match=re.escape(refusal)):
        build_basic_construction(inclusion_with_frame(bc.inc, 1.01 * bc.frame, bc.blocks))
    # p moved out of the frame's algebra by a generic unitary of L2(M)
    rng = np.random.default_rng(33)
    d = bc.dim_l2
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u = spectral_function(0.1 * (a - dagger(a)), "exp")
    moved = dataclasses.replace(bc, jones_p=u @ bc.jones_p @ dagger(u))
    defect = moved.membership_defects(moved.jones_p).max()
    assert defect > 1e-3
    refusal = f"p is outside the algebra of the M1 frame (defect {defect:.3e})"
    with pytest.raises(ConstructionError, match=re.escape(refusal)):
        _gate_frame(moved)
    # a generic unitary frame: left(b_1) is the first generator it loses
    q, _ = np.linalg.qr(rng.standard_normal((bc.dim_l2, bc.dim_l2)))
    with pytest.raises(ConstructionError, match=r"left\(b_\d+\) is outside the algebra"):
        _gate_frame(dataclasses.replace(bc, frame=q.astype(complex)))


def test_block_coordinates_are_the_frame_basis_coordinates(frame_cases):
    # the basis that the coordinates stand for reads as the identity, and
    # from_m1_coords inverts them on M1
    rng = np.random.default_rng(53)
    for name, bc in frame_cases.items():
        basis = frame_basis(bc)
        assert np.abs(_block_coords(bc, basis) - np.eye(bc.dim_m1)).max() <= 1e-12, name
        c = rng.standard_normal((3, bc.dim_m1)) + 1j * rng.standard_normal((3, bc.dim_m1))
        y = np.tensordot(c, basis, axes=1)
        assert op_norm(bc.from_m1_coords(_block_coords(bc, y)) - y).max() <= 1e-12, name


def test_gates_4_and_5_in_block_coordinates_match_the_d_by_d_references(frame_cases):
    for name, bc in frame_cases.items():
        for on in (bc, bc.compressed):
            assert abs(basic._corner_defect(on) - corner_defect_reference(on)) <= 1e-13, name
            assert abs(basic._module_defect(on) - module_defect_reference(on)) <= 1e-13, name


def test_p_moved_off_the_frame_below_closure_tol_is_refused_by_property_2(
    constructions, monkeypatch
):
    # gates 4 and 5 read p through its blocks, which assumes p in the
    # frame's algebra; a p moved off it by a generic unitary of L2(M), by
    # less than CLOSURE_TOL, passes the frame gate and is refused by
    # property 2, before gates 4 and 5 run
    for name in ("tensor(2,2)", "group_flip(m2)"):
        bc = constructions[name]
        d = bc.dim_l2
        rng = np.random.default_rng(59)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = spectral_function(1e-10 * (a - dagger(a)), "exp")
        moved = dataclasses.replace(bc, jones_p=u @ bc.jones_p @ dagger(u))
        assert SPECTRAL_TOL < moved.membership_defects(moved.jones_p).max() < CLOSURE_TOL, name
        _gate_frame(moved)
        defect = basic._compression_defect(moved, bc.inc.amb_basis)
        refusal = f"property 2 fails: p x p differs from E(x) p by {defect:.3e}"
        with monkeypatch.context() as patch:
            patch.setattr(
                basic,
                "BasicConstruction",
                lambda **fields: BasicConstruction(**{**fields, "jones_p": moved.jones_p}),
            )
            with pytest.raises(ConstructionError, match=re.escape(refusal)):
                build_basic_construction(bc.inc)


# ---------------------------------------------------------------------------
# the construction compressed to one copy of each block of M1


def test_compressed_is_built_on_first_use_only():
    bc = build_basic_construction(make_tensor_inclusion(2, 2))
    assert "compressed" not in vars(bc)
    small = bc.compressed
    assert bc.compressed is small
    assert small.compressed is small


def test_compressed_width_is_one_copy_of_each_block(frame_cases):
    for name, bc in frame_cases.items():
        small = bc.compressed
        r = FRAME_WIDTHS[name]
        assert small.dim_l2 == r, name
        assert (small is bc) == (r == bc.dim_l2), name
        assert small.dim_m1 == bc.dim_m1 and small.lam == bc.lam, name
    assert frame_cases["tensor(2,2)"].compressed.dim_l2 == 8
    assert frame_cases["group_flip(m2)"].compressed.dim_l2 == 4
    assert frame_cases["diagonal C+C in M2"].compressed is frame_cases["diagonal C+C in M2"]


def test_compression_commutes_with_the_operations_of_m1(frame_cases):
    # x -> V* x V is a trace-preserving *-homomorphism of M1 that carries E1
    # and the operator norm: tau1 is tr/r on r x r because every block of M1
    # has multiplicity D/r on L2(M)
    rng = np.random.default_rng(41)
    for name in ("tensor(2,2)", "group_flip(m2)", "tensor(3,2)", "diagonal M2+M2 in M4"):
        bc = frame_cases[name]
        small = bc.compressed
        v = bc.copy_frame

        def squeeze(a):
            return dagger(v) @ a @ v

        c = rng.standard_normal((2, 6, bc.dim_m1)) + 1j * rng.standard_normal((2, 6, bc.dim_m1))
        x, y = (np.tensordot(ci, frame_basis(bc), axes=1) for ci in c)
        x = x / op_norm(x)[:, None, None]
        y = y / op_norm(y)[:, None, None]
        assert op_norm(squeeze(x @ y) - squeeze(x) @ squeeze(y)).max() <= 1e-13, name
        assert op_norm(squeeze(dagger(x)) - dagger(squeeze(x))).max() <= 1e-13, name
        for a in x:
            assert abs(small.tau1(squeeze(a)) - bc.tau1(a)) <= 1e-13, name
        e1 = op_norm(squeeze(bc._e1_unchecked(x)) - small._e1_unchecked(squeeze(x)))
        assert e1.max() <= 1e-13, name
        assert np.abs(op_norm(squeeze(x)) - op_norm(x)).max() <= 1e-13, name
        # the compressed arrays are the compressions of the construction's
        assert op_norm(small.jones_p - squeeze(bc.jones_p)) == 0.0, name
        # the compressed basis is the scaled matrix units, W's first copy
        assert op_norm(frame_basis(small) - squeeze(frame_basis(bc))).max() <= 1e-13, name
        assert small.membership_defects(squeeze(x)).max() <= 1e-13, name


def test_compressed_falls_back_when_the_markov_check_fails(constructions, monkeypatch):
    # a frame on a generic half of one copy of M1 breaks tau1 = tr/r; the
    # construction then stays on L2(M)
    bc = constructions["tensor(2,2)"]
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((8, 8)))
    half = bc.copy_frame @ q[:, :4]
    monkeypatch.setattr(BasicConstruction, "copy_frame", property(lambda _: half))
    clone = dataclasses.replace(bc)
    assert clone.compressed is clone


def test_two_norm1_slices_are_the_single_matrix_call(constructions):
    rng = np.random.default_rng(43)
    for name in ("tensor(2,2)", "group_flip(scalars)"):
        for bc in (constructions[name], constructions[name].compressed):
            d = bc.dim_l2
            for n in (1, 2, 7, 257):
                a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
                stacked = bc.two_norm1(a)
                assert stacked.shape == (n,)
                for k in range(n):
                    one = bc.two_norm1(a[k])
                    assert isinstance(one, float)
                    assert stacked[k] == one, (name, d, n, k)


def test_suites_on_the_compression_keep_every_status(constructions):
    from subfactor_geo.config import SUITE_NAMES, parse_config
    from subfactor_geo.suites import _SUITE_FUNCS

    cases = dict(constructions)
    # a non-factor N whose compression is proper
    cases["diagonal M2+M2 in M4"] = diagonal_m2_pair_construction()
    for name, bc in cases.items():
        cfg = parse_config({"inclusion": {"family": name}, "seed": 9, "trials": 4, "grid": 32})
        for suite in (s for s in SUITE_NAMES if s != "construction"):
            on_l2 = _SUITE_FUNCS[suite](bc, cfg)
            on_small = _SUITE_FUNCS[suite](bc.compressed, cfg)
            assert [(r.name, r.status, r.samples) for r in on_small] == [
                (r.name, r.status, r.samples) for r in on_l2
            ], (name, suite)
            assert all(r.status == "pass" for r in on_small), (name, suite)


# ---------------------------------------------------------------------------
# M1 from the frame against the Gram-Schmidt basis it replaced


REFERENCE_CASES = [
    "tensor(1,2)",
    "tensor(1,3)",
    "tensor(2,2)",
    "group_flip(scalars)",
    "group_flip(m2)",
    "tensor(1,4)",
    "tensor(2,3)",
    "diagonal C+C in M2",
    "diagonal M2+M2 in M4",
]


@pytest.fixture(scope="module")
def reference_case(request, constructions):
    name = request.param
    if name in constructions:
        return constructions[name]
    if name == "diagonal C+C in M2":
        return diagonal_pair_construction()
    if name == "diagonal M2+M2 in M4":
        return diagonal_m2_pair_construction()
    return family_construction(name)


@pytest.mark.parametrize("reference_case", REFERENCE_CASES, indirect=True)
def test_frame_basis_spans_the_gram_schmidt_basis(reference_case):
    bc = reference_case
    d = bc.dim_l2
    old = gram_schmidt_basis(bc)
    new = frame_basis(bc)
    assert new.shape == old.shape
    gram = np.einsum("ars,brs->ab", new.conj(), new) / d
    assert op_norm(gram - np.eye(bc.dim_m1)) <= 1e-12
    assert span_residual(old, new, 1.0 / d) <= 1e-12
    assert span_residual(new, old, 1.0 / d) <= 1e-12
    # the frame's basis holds 1 and is mapped into itself by p and every
    # left(b_i), so it holds M1, the algebra they generate
    assert generated_defect(bc, new) <= CLOSURE_TOL
    # membership in M1, averaged over the copies of each block, is the
    # distance from the Gram-Schmidt span, for elements in M1 and not
    rng = np.random.default_rng(47)
    inside = np.tensordot(rng.standard_normal((4, len(old))), old, axes=1)
    generic = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    ys = np.concatenate([inside, generic, inside + 1e-6 * generic])
    assert np.abs(bc.membership_defects(ys) - span_residuals(old, ys, 1.0 / d)).max() <= 1e-12
    # an element is expanded through the blocks as over the basis
    c = rng.standard_normal((3, bc.dim_m1)) + 1j * rng.standard_normal((3, bc.dim_m1))
    assert op_norm(bc.from_m1_coords(c) - np.tensordot(c, new, axes=1)).max() <= 1e-12


def test_generated_defect_refuses_a_truncated_frame(frame_cases):
    # negative controls of the generator statement above: a frame missing
    # its last column, or the basis missing one off-diagonal unit of its
    # first block, spans less than M1, and the statement refuses it
    for name, bc in frame_cases.items():
        if bc.dim_l2 > 16:
            continue
        cut = bc.frame.copy()
        cut[:, -1] = 0.0
        truncated = frame_basis(dataclasses.replace(bc, frame=cut))
        assert generated_defect(bc, truncated) > 1e-3, name
        assert generated_defect(bc, np.delete(frame_basis(bc), 1, axis=0)) > 1e-3, name


def test_built_construction_keeps_no_basis_of_m1():
    # read before ``compressed`` is touched: the construction holds
    # left_cache and a few D x D matrices, and nothing of K D^2 entries
    bc = build_basic_construction(make_tensor_inclusion(2, 3))
    d, k = bc.dim_l2, bc.dim_m1
    assert (d, k) == (36, 324)
    held = {
        name: value
        for name, value in vars(bc).items()
        if name != "inc" and isinstance(value, np.ndarray)
    }
    assert set(held) == {"left_cache", "jones_p", "frame"}
    assert sum(a.nbytes for a in held.values()) <= bc.left_cache.nbytes + 4 * d * d * 16
    assert all(a.size < k * d * d for a in held.values())
    # and no D x D array of its own: each is the inclusion's, read-only
    inc = bc.inc
    shared = (inc.left_regular, inc.jones_projection, inc.m1_frame[0])
    assert all(any(a is b for b in shared) and not a.flags.writeable for a in held.values())


def test_inclusion_shares_one_read_only_left_regular(monkeypatch):
    # every factory fills the left regular representation, p and the M1
    # frame, read-only; the builds of one inclusion hold those arrays, and a
    # replaced inclusion computes its own, with the same bits (left_regular
    # with no LAPACK call), so the first build of an inclusion made otherwise
    # makes the LAPACK calls of any other
    incs = (
        make_tensor_inclusion(1, 2),
        make_group_flip_inclusion(AlgebraDescriptor((2,), (0.5,))),
        diagonal_pair_construction().inc,
    )
    for inc in incs:
        for name in ("left_regular", "jones_projection", "m1_frame"):
            assert name in vars(inc), (inc.family_tag, name)
        assert inc.left_regular.shape == (inc.dim,) * 3
        assert inc.jones_projection.shape == inc.m1_frame[0].shape == (inc.dim,) * 2
        for a in (inc.left_regular, inc.jones_projection, inc.m1_frame[0]):
            assert not a.flags.writeable, inc.family_tag
    inc = incs[0]
    first, second = build_basic_construction(inc), build_basic_construction(inc)
    assert first.left_cache is second.left_cache is inc.left_regular
    assert first.jones_p is second.jones_p is inc.jones_projection
    assert first.frame is second.frame is inc.m1_frame[0]
    assert first.blocks == inc.m1_frame[1]
    copy = dataclasses.replace(inc)
    for name in ("left_regular", "jones_projection", "m1_frame"):
        assert name not in vars(copy), name

    def lapack(*args, **kwargs):
        raise AssertionError("left_regular made a LAPACK call")

    for name in ("svd", "eig", "eigh", "eigvals", "eigvalsh", "qr", "solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, lapack)
    own = copy.left_regular
    monkeypatch.undo()
    assert own is not inc.left_regular and not own.flags.writeable
    assert np.array_equal(own, inc.left_regular)
    built = build_basic_construction(copy)
    assert built.left_cache is own
    for mine, theirs in ((built.jones_p, inc.jones_projection), (built.frame, inc.m1_frame[0])):
        assert mine is not theirs and not mine.flags.writeable
        assert np.array_equal(mine, theirs)
    assert built.jones_p is copy.jones_projection and built.frame is copy.m1_frame[0]
    # slice i is left multiplication by b_i: column s holds the coordinates of b_i b_s
    basis = inc.amb_basis
    for i, b in enumerate(basis):
        assert np.abs(own[i] - inc.coords(b @ basis).T).max() <= 1e-14


def test_validate_certificate_bounds_the_homomorphism_defects(frame_cases):
    # validate's certificate (unit, star, product) of left(.) against the
    # build's former checks on the D x D x D array: the product bound holds
    # the direct D^5 defect as it stands.  The unit and star bounds are
    # bounds in exact arithmetic at rounding level (0 to 1e-15), and the
    # direct readings carry the rounding of forming left(.) (up to 9.6e-16
    # on tensor(1,5) against a bound of 5.0e-16): they get one D * eps more
    for name, bc in frame_cases.items():
        inc = bc.inc
        certificate = inc.validate()
        unit, star, product = homomorphism_defects(inc)
        rounding = inc.dim * np.finfo(float).eps
        assert unit <= certificate[0] + rounding, name
        assert star <= certificate[1] + rounding, name
        assert product <= certificate[2], name
        assert max(certificate) <= 1e-13 < SPECTRAL_TOL, name


def test_validate_refuses_a_basis_of_m_the_certificate_does_not_cover():
    # M = M4 (x) 1_2 in M8 with one basis element tilted 1e-11 out of M: the
    # basis is closed under products and adjoints within SPECTRAL_TOL, but
    # the certificate's product bound, (1 + gamma)(sqrt(D) + 1) d_x / sqrt(w)
    # = 5 sqrt(8) d_x, is not; the build's former checks read 1.6e-15 on it
    sub = AlgebraDescriptor((1,), (1.0,))
    amb = AlgebraDescriptor((8,), (0.125,))
    span = [np.kron(b, np.eye(2)) for b in AlgebraDescriptor((4,), (0.25,)).canonical_basis()[1:]]
    span[4] = span[4] + 1e-11 * np.kron(np.eye(4), np.diag([1.0, -1.0]))
    basis = orthonormalize([amb.identity()] + span, amb.weight_vector)
    product, adjoint = closure_defects(basis, amb.weight_vector)
    assert product <= SPECTRAL_TOL and adjoint <= SPECTRAL_TOL
    gamma = op_norm(span_coords(basis, basis, amb.weight_vector) - np.eye(16))
    bound = (1.0 + gamma) / np.sqrt(0.125) * (np.sqrt(16) + 1.0) * product
    assert bound > SPECTRAL_TOL
    refusal = f"M's left regular representation is not certified multiplicative (bound {bound:.3e})"
    with pytest.raises(DomainError, match=re.escape(refusal)):
        make_custom_inclusion(
            sub, amb, lambda b: b[0, 0] * np.eye(8, dtype=complex), 1.0 / 16, m_span=span
        )


def test_tensor_3_4_builds_from_its_factory():
    # D = 144 and K = 2304: 26-28 s with one BLAS thread and a traced peak
    # of 241 MB (five (D, D, D) arrays) while the build checked left(.) on
    # its D x D x D array; 2.5-3.3 s and 145 MB with validate's certificate
    inc = make_tensor_inclusion(3, 4)
    assert max(inc.validate()) <= 1e-13
    tracemalloc.start()
    try:
        bc = build_basic_construction(inc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bc.dim_l2 == 144 and bc.dim_m1 == 2304
    assert bc.blocks == ((48, 3),)
    assert peak < 4 * bc.left_cache.nbytes


def test_tensor_2_4_builds_from_its_frame():
    # D = 64 and K = 1024: the build that Gram-Schmidt over its 4,160
    # generators made a matter of tens of seconds.  Its traced peak stays
    # below one (K, D, D) stack, 67.1 MB: 219 MB when gates 4 and 5 formed
    # the basis of M1, 49 MB with them in block coordinates
    inc = make_tensor_inclusion(2, 4)
    tracemalloc.start()
    try:
        bc = build_basic_construction(inc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bc.dim_l2 == 64 and bc.dim_m1 == 1024
    assert peak < bc.dim_m1 * bc.dim_l2**2 * 16
    assert bc.blocks == ((32, 2),)
    assert _unitary_defect(bc) <= FRAME_TOL
    generators = np.concatenate([bc.jones_p[None], bc.left_cache])
    assert bc.membership_defects(generators).max() <= CLOSURE_TOL
