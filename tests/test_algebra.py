"""Inclusions, conditional expectations, and the index inequality."""

import dataclasses

import numpy as np
import pytest

from subfactor_geo.algebra import (
    AlgebraDescriptor,
    expectation_E,
    horizontal_projection,
    make_custom_inclusion,
    make_group_flip_inclusion,
    make_tensor_inclusion,
    orthonormalize,
    pimsner_popa_validate,
    random_antihermitian,
    random_element,
    random_horizontal,
    random_unitary,
    span_coords,
    span_project,
    span_residual,
)
from subfactor_geo.basic import _m1_generators
from subfactor_geo.errors import DomainError
from subfactor_geo.grassmann import kernel_real_onb
from subfactor_geo.linalg import dagger, op_norm, unitary_defect
from subfactor_geo.orbit import base_point, horizontal_defect_at
from subfactor_geo.tolerances import GRAM_DROP_TOL, PP_MARGIN_TOL

# sharp feasibility threshold of E(x*x) >= lam*x*x per family, worked out
# from rank-one probes: tensor(m,k) saturates at 1/(min(m,k)*k), the flip
# families at 1/2
SHARP_LAMBDA = {
    "tensor(1,2)": 0.5,
    "tensor(1,3)": 1.0 / 3.0,
    "tensor(2,2)": 0.25,
    "group_flip(scalars)": 0.5,
    "group_flip(m2)": 0.5,
}


def test_descriptor_validation():
    with pytest.raises(DomainError):
        AlgebraDescriptor((), ())
    with pytest.raises(DomainError):
        AlgebraDescriptor((2,), (0.4,))  # weights must sum to 1 against dims
    with pytest.raises(DomainError):
        AlgebraDescriptor((2, 0), (0.25, 0.5))
    with pytest.raises(DomainError):
        AlgebraDescriptor((1, 1), (1.5, -0.5))


def test_descriptor_trace_and_basis():
    desc = AlgebraDescriptor((2, 1), (0.25, 0.5))
    assert abs(desc.trace(desc.identity()) - 1.0) < 1e-15
    basis = desc.canonical_basis()
    assert basis.shape[0] == desc.dim
    assert op_norm(basis[0] - desc.identity()) < 1e-14
    gram = np.array([[desc.inner(a, b) for b in basis] for a in basis])
    assert op_norm(gram - np.eye(len(basis))) < 1e-12


def test_weight_vector_is_built_once_and_read_only(inclusions):
    for inc in inclusions.values():
        for desc in (inc.sub, inc.amb):
            w = desc.weight_vector
            want = np.concatenate(
                [np.full(d, t) for d, t in zip(desc.block_dims, desc.trace_weights)]
            )
            assert np.array_equal(w, want)
            assert desc.weight_vector is w
            with pytest.raises(ValueError):
                w[0] = 1.0
            with pytest.raises(ValueError):
                w *= 2.0
            assert np.array_equal(desc.weight_vector, want)


def test_expectation_is_conditional(bc, rng):
    inc = bc.inc
    for _ in range(20):
        x = random_element(rng, inc.amb_basis)
        e = expectation_E(inc, x)
        # idempotent and trace preserving
        assert inc.two_norm(expectation_E(inc, e) - e) < 1e-12
        assert abs(inc.trace(e) - inc.trace(x)) < 1e-12
        # bimodular over the embedded subalgebra
        n1 = np.tensordot(rng.standard_normal(len(inc.embed_basis)), inc.embed_basis, axes=1)
        n2 = np.tensordot(rng.standard_normal(len(inc.embed_basis)), inc.embed_basis, axes=1)
        assert inc.two_norm(expectation_E(inc, n1 @ x @ n2) - n1 @ e @ n2) < 1e-10
        # positivity
        pos = expectation_E(inc, dagger(x) @ x)
        assert np.linalg.eigvalsh((pos + dagger(pos)) / 2.0).min() > -1e-10
    # fixes the subalgebra pointwise
    for b in inc.embed_basis:
        assert inc.two_norm(expectation_E(inc, b) - b) < 1e-12


def test_expectation_is_orthogonal_projection(bc, rng):
    inc = bc.inc
    for _ in range(10):
        x = random_element(rng, inc.amb_basis)
        y = x - expectation_E(inc, x)
        for b in inc.embed_basis:
            assert abs(inc.trace(dagger(b) @ y)) < 1e-12


def test_pimsner_popa_feasible_at_family_lambda(bc):
    rep = pimsner_popa_validate(bc.inc, n_samples=32, seed=3)
    assert rep.feasible
    assert rep.lam == bc.inc.lam
    assert rep.witness is None


def test_pimsner_popa_sharp_threshold(family_name, inclusions):
    inc = inclusions[family_name]
    sharp = SHARP_LAMBDA[family_name]
    below = pimsner_popa_validate(inc, n_samples=24, lam=sharp - 0.01, seed=5)
    assert below.feasible
    above = pimsner_popa_validate(inc, n_samples=24, lam=sharp + 0.01, seed=5)
    assert not above.feasible
    assert above.witness is not None
    # the witness actually violates the inequality at that lambda
    y = dagger(above.witness) @ above.witness
    d = expectation_E(inc, y) - (sharp + 0.01) * y
    assert np.linalg.eigvalsh((d + dagger(d)) / 2.0).min() < -PP_MARGIN_TOL


def _pp_reference(inc, n_samples, lam, seed):
    """The per-probe loop the stacked probe replaced: (feasible, worst
    margin, probe count, witness), the witness the first strict minimum."""
    rng = np.random.default_rng(seed)
    probes = list(inc.amb_basis)
    for _ in range(n_samples):
        x = random_element(rng, inc.amb_basis)
        probes.append(x)
        _, vecs = np.linalg.eigh((x + dagger(x)) / 2.0)
        probes.extend(np.outer(v, v.conj()) for v in vecs.T)
    worst, witness = np.inf, None
    for x in probes:
        y = dagger(x) @ x
        d = expectation_E(inc, y) - lam * y
        margin = float(np.linalg.eigvalsh((d + dagger(d)) / 2.0).min())
        if margin < worst:
            worst, witness = margin, x
    return worst >= -PP_MARGIN_TOL, worst, len(probes), witness


def test_pimsner_popa_stack_matches_per_probe_loop(family_name, inclusions):
    inc = inclusions[family_name]
    sharp = SHARP_LAMBDA[family_name]
    for lam, n_samples, seed in ((inc.lam, 32, 0), (sharp - 0.01, 24, 5), (sharp + 0.01, 24, 5)):
        rep = pimsner_popa_validate(inc, n_samples=n_samples, lam=lam, seed=seed)
        feasible, worst, n_checked, witness = _pp_reference(inc, n_samples, lam, seed)
        assert rep.n_checked == n_checked
        assert rep.feasible == feasible
        assert abs(rep.worst_margin - worst) <= 1e-14
    # the refused case of test_pimsner_popa_sharp_threshold names the same probe
    assert not rep.feasible
    assert np.array_equal(rep.witness, witness)


def test_pimsner_popa_rejects_nonpositive_lambda(inclusions):
    with pytest.raises(DomainError):
        pimsner_popa_validate(inclusions["tensor(1,2)"], lam=0.0)


def test_horizontal_projection_properties(bc, rng):
    inc = bc.inc
    for _ in range(20):
        z = horizontal_projection(inc, random_element(rng, inc.amb_basis))
        assert op_norm(z + dagger(z)) < 1e-13
        assert inc.two_norm(expectation_E(inc, z)) < 1e-12
    # projects to zero exactly on the subalgebra's anti-Hermitian part
    a = random_antihermitian(rng, inc.embed_basis)
    assert inc.two_norm(horizontal_projection(inc, a)) < 1e-12


def test_random_samplers(bc, rng):
    inc = bc.inc
    x = random_element(rng, inc.amb_basis)
    h = (x + dagger(x)) / 2.0
    assert op_norm(h - dagger(h)) < 1e-13
    a = random_antihermitian(rng, inc.amb_basis)
    assert op_norm(a + dagger(a)) < 1e-13
    u = random_unitary(rng, inc.amb_basis, scale=0.7)
    assert unitary_defect(u) < 1e-12
    assert span_residual(inc.amb_basis, u, inc.amb.weight_vector) < 1e-10
    z = random_horizontal(inc, rng, op_scale=0.3)
    assert abs(op_norm(z) - 0.3) < 1e-12
    assert horizontal_defect_at(base_point(bc), z) < 1e-12


def test_tensor_family_parameters():
    inc = make_tensor_inclusion(2, 3)
    assert inc.lam == pytest.approx(1.0 / 9.0)
    assert inc.dim == 36
    assert inc.sub_basis.shape[0] == 4
    with pytest.raises(DomainError):
        make_tensor_inclusion(0, 2)
    with pytest.raises(DomainError):
        make_tensor_inclusion(1, 1)


def test_group_flip_rejects_bad_theta():
    desc = AlgebraDescriptor((2,), (0.5,))
    with pytest.raises(DomainError):
        make_group_flip_inclusion(desc, theta=np.diag([1.0, 2.0]))  # not unitary
    with pytest.raises(DomainError):
        make_group_flip_inclusion(desc, theta=np.diag([1.0, 1.0j]))  # order four
    lopsided = AlgebraDescriptor((1, 1), (0.25, 0.75))
    with pytest.raises(DomainError):
        make_group_flip_inclusion(lopsided)  # non-uniform trace


def test_group_flip_membership_has_linked_corners():
    inc = make_group_flip_inclusion(AlgebraDescriptor((1,), (1.0,)))
    x = np.zeros((2, 2), dtype=complex)
    x[0, 1] = 1.0  # corner without its flip partner
    w = inc.amb.weight_vector
    assert span_residual(inc.amb_basis, x, w) > 0.1
    x[1, 0] = 1.0  # now both corners agree with the identity flip
    assert span_residual(inc.amb_basis, x, w) < 1e-12


def test_custom_inclusion_validates_lambda():
    sub = AlgebraDescriptor((1,), (1.0,))
    amb = AlgebraDescriptor((2,), (0.5,))

    def phi(b):
        return np.kron(b, np.eye(2, dtype=complex))

    inc = make_custom_inclusion(sub, amb, phi, lam=0.25, tag="scalars_in_m2")
    assert inc.lam == 0.25
    with pytest.raises(DomainError):
        # sharp threshold for scalars in M_2 is 1/2
        make_custom_inclusion(sub, amb, phi, lam=0.6)


def test_feasibility_probe_runs_once_per_inclusion(monkeypatch):
    # make_custom_inclusion and the build read the same cached report
    from subfactor_geo import algebra
    from subfactor_geo.basic import build_basic_construction

    calls = []
    probe = algebra.pimsner_popa_validate

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return probe(*args, **kwargs)

    monkeypatch.setattr(algebra, "pimsner_popa_validate", counted)
    sub = AlgebraDescriptor((1,), (1.0,))
    amb = AlgebraDescriptor((2,), (0.5,))
    inc = make_custom_inclusion(sub, amb, lambda b: np.kron(b, np.eye(2, dtype=complex)), 0.25)
    build_basic_construction(inc)
    assert calls == [{"n_samples": 32, "lam": 0.25, "seed": 0}]
    assert inc.pp_report.feasible and inc.pp_report.lam == 0.25


def test_inclusion_validate_catches_broken_bases(inclusions):
    inc = inclusions["tensor(1,2)"]
    bad = dataclasses.replace(inc, amb_basis=2.0 * inc.amb_basis)
    with pytest.raises(DomainError):
        bad.validate()
    bad_lam = dataclasses.replace(inc, lam=1.5)
    with pytest.raises(DomainError):
        bad_lam.validate()
    # N = C declared as C + C, and an orthonormal pair outside C + C
    two = AlgebraDescriptor((1, 1), (0.5, 0.5))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    pair = np.stack([np.eye(2), flip])
    for sub_basis, embed_basis in ((pair[:1], inc.embed_basis), (pair, pair)):
        undeclared = dataclasses.replace(
            inc, sub=two, sub_basis=sub_basis, embed_basis=embed_basis
        )
        with pytest.raises(DomainError, match="sub basis does not span"):
            undeclared.validate()


def test_validate_refuses_products_leaving_the_embedded_span(inclusions):
    # {1, h} with h Hermitian, traceless, trace-normalized in M_3, but h^2
    # outside span{1, h}; its structure constants match those of C + C
    inc = inclusions["tensor(1,3)"]
    sub = AlgebraDescriptor((1, 1), (0.5, 0.5))
    h = np.diag([np.sqrt(1.5), -np.sqrt(1.5), 0.0]).astype(complex)
    bad = dataclasses.replace(
        inc, sub=sub, sub_basis=sub.canonical_basis(), embed_basis=np.stack([np.eye(3), h])
    )
    with pytest.raises(DomainError, match="subalgebra image is not closed under products"):
        bad.validate()


def test_validate_refuses_an_embedded_span_without_adjoints(inclusions):
    inc = inclusions["tensor(1,3)"]
    sub = AlgebraDescriptor((1, 1), (0.5, 0.5))
    e12 = np.zeros((3, 3), dtype=complex)
    e12[0, 1] = np.sqrt(3.0)
    bad = dataclasses.replace(
        inc, sub=sub, sub_basis=sub.canonical_basis(), embed_basis=np.stack([np.eye(3), e12])
    )
    with pytest.raises(DomainError, match="subalgebra image is not adjoint-closed"):
        bad.validate()


def test_validate_refuses_structure_constants_other_than_n(inclusions):
    # the same span as the image of M_2, with two basis images swapped: a
    # *-algebra, but x -> x^T on those two is no homomorphism
    inc = inclusions["tensor(2,2)"]
    bad = dataclasses.replace(inc, embed_basis=inc.embed_basis[[0, 1, 3, 2]])
    with pytest.raises(DomainError, match="embedding is not multiplicative"):
        bad.validate()


def test_coords_round_trip(bc, rng):
    inc = bc.inc
    x = random_element(rng, inc.amb_basis)
    assert inc.two_norm(inc.from_coords(inc.coords(x)) - x) < 1e-12


# ---------------------------------------------------------------------------
# the batched Gram-Schmidt helper against the sequential one it replaced


def reference_gram_schmidt(candidates, inner):
    """Sequential modified Gram-Schmidt: one basis element at a time, two
    passes, the same drop rule as the batched helper."""
    basis = []
    for cand in candidates:
        v = np.array(cand, dtype=complex)
        for _ in range(2):
            for b in basis:
                v = v - inner(v, b) * b
        nrm = np.sqrt(max(inner(v, v).real, 0.0))
        if nrm > GRAM_DROP_TOL:
            basis.append(v / nrm)
    return np.stack(basis)


def assert_same_basis(new, ref):
    assert new.shape == ref.shape
    assert op_norm(new - ref).max() <= 1e-12


def matrix_units(desc):
    """The identity, then every matrix unit scaled to trace norm one."""
    units = [desc.identity()]
    off = 0
    for d, w in zip(desc.block_dims, desc.trace_weights):
        for i in range(d):
            for j in range(d):
                e = np.zeros((desc.ambient_dim, desc.ambient_dim), dtype=complex)
                e[off + i, off + j] = 1.0 / np.sqrt(w)
                units.append(e)
        off += d
    return units


def test_canonical_basis_matches_sequential_gram_schmidt(inclusions):
    descs = [AlgebraDescriptor((2, 1), (0.25, 0.5))]
    for inc in inclusions.values():
        descs += [inc.sub, inc.amb]
    for desc in descs:
        ref = reference_gram_schmidt(matrix_units(desc), desc.inner)
        assert_same_basis(desc.canonical_basis(), ref)


@pytest.mark.parametrize("name", ["tensor(2,2)", "group_flip(m2)"])
def test_extension_basis_matches_sequential_gram_schmidt(constructions, name):
    bc = constructions[name]
    d = bc.dim_l2
    lc, p = bc.left_cache, bc.jones_p
    # the generators in the order the double loop listed them
    gens = [lc[i] for i in range(d)]
    gens += [lc[i] @ p @ lc[j] for i in range(d) for j in range(d)]
    assert op_norm(np.stack(list(_m1_generators(lc, p))) - np.stack(gens)).max() <= 1e-12
    ref = reference_gram_schmidt(gens, lambda a, b: np.vdot(b, a) / d)
    assert_same_basis(orthonormalize(np.stack(gens), 1.0 / d), ref)
    assert_same_basis(bc.m1_basis, ref)


def test_kernel_real_basis_matches_sequential_gram_schmidt(inclusions):
    for inc in inclusions.values():
        ker = reference_gram_schmidt(
            [b - expectation_E(inc, b) for b in inc.amb_basis], inc.amb.inner
        )
        cands = []
        for k in ker:
            cands += [0.5 * (k - dagger(k)), 0.5 * (1j * k - dagger(1j * k))]
        ref = reference_gram_schmidt(cands, lambda a, b: inc.amb.inner(a, b).real)
        assert_same_basis(kernel_real_onb(inc), ref)


def test_orthonormalize_drops_dependent_candidates(rng):
    desc = AlgebraDescriptor((2, 1), (0.25, 0.5))
    w = desc.weight_vector
    one = desc.identity()
    a = random_element(rng, desc.canonical_basis())
    zero = np.zeros_like(one)
    basis = orthonormalize([one, zero, a, one, 3.0 * a, 2.0 * one - a, zero], w)
    assert_same_basis(basis, orthonormalize([one, a], w))
    assert len(basis) == 2
    assert len(orthonormalize([zero], w)) == 0


def test_orthonormalize_real_mode_is_real_orthonormal(rng):
    desc = AlgebraDescriptor((2, 1), (0.25, 0.5))
    w = desc.weight_vector
    xs = [random_element(rng, desc.canonical_basis()) for _ in range(3)]
    # x and ix are complex multiples but real-independent
    cands = xs + [1j * x for x in xs] + [xs[0] + 1j * xs[1], -2.0 * xs[2]]
    assert len(orthonormalize(cands, w)) == 3
    basis = orthonormalize(cands, w, real=True)
    assert len(basis) == 6
    gram = np.array([[desc.inner(a, b).real for b in basis] for a in basis])
    assert np.abs(gram - np.eye(6)).max() <= 1e-12


# ---------------------------------------------------------------------------
# the span kernel against the einsum coordinates it replaced


def reference_coords(stack, x, weights):
    """Coefficients of x, or of each slice of a stack, over ``stack``: the
    einsum every coordinate routine once repeated."""
    w = np.broadcast_to(weights, stack.shape[-1:])
    return np.einsum("bkd,...kd,d->...b", stack.conj(), x, w)


def span_cases(bc):
    inc = bc.inc
    w = inc.amb.weight_vector
    return [
        (inc.amb_basis, w),
        (inc.embed_basis, w),
        (bc.left_cache, 1.0 / bc.dim_l2),
        (bc.m1_basis, 1.0 / bc.dim_l2),
    ]


@pytest.mark.parametrize("real", [False, True])
def test_span_kernel_matches_reference(bc, rng, real):
    for stack, w in span_cases(bc):
        n = stack.shape[-1]
        xs = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        for x in (xs, xs[0]):
            ref = reference_coords(stack, x, w)
            if real:
                ref = ref.real
            proj = np.tensordot(ref, stack, axes=1)
            sq = np.einsum("...kd,d->...", np.abs(x - proj) ** 2, np.broadcast_to(w, (n,)))
            resid = np.sqrt(sq)
            assert np.abs(span_coords(stack, x, w, real) - ref).max() <= 1e-12
            assert np.abs(span_project(stack, x, w, real) - proj).max() <= 1e-12
            assert abs(span_residual(stack, x, w, real) - resid.max()) <= 1e-12


def test_left_on_a_stack_is_left_per_slice(bc, rng):
    xs = np.stack([random_element(rng, bc.inc.amb_basis) for _ in range(5)])
    per_slice = np.stack([bc.left(x) for x in xs])
    assert np.abs(bc.left(xs) - per_slice).max() <= 1e-14
