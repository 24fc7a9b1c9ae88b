"""Projection-manifold side: block geodesics, degeneracy, and the audit."""

import numpy as np
import pytest
import scipy.linalg

from subfactor_geo.algebra import expectation_E, random_element
from subfactor_geo.errors import DomainError, RadiusError
from subfactor_geo.families import FAMILY_NAMES, family_inclusion, family_record
from subfactor_geo.grassmann import (
    _kernel_bases,
    degeneracy_test,
    degenerate_geodesic_closed_form,
    grassmann_exp_block,
    kernel_real_onb,
    sample_degenerate_direction,
    sample_nondegenerate_direction,
    tangent_decompose,
    tangent_space_comparison,
    totally_geodesic_audit,
)
from subfactor_geo.linalg import dagger, op_norm, spectral_function

# family -> does every kernel direction square back into the subalgebra
AUDIT_EXPECTED = {
    "tensor(1,2)": True,
    "tensor(1,3)": False,
    "tensor(2,2)": False,
    "group_flip(scalars)": True,
    "group_flip(m2)": True,
}

# real dimension of the anti-Hermitian expectation kernel per family
KERNEL_DIMS = {
    "tensor(1,2)": 3,
    "tensor(1,3)": 8,
    "tensor(2,2)": 12,
    "group_flip(scalars)": 1,
    "group_flip(m2)": 4,
}


def expectation_free(bc, rng, op_scale=None):
    r = random_element(rng, bc.inc.amb_basis)
    x = r - expectation_E(bc.inc, r)
    if op_scale is not None:
        x = op_scale * x / op_norm(x)
    return x


def dense_projection_curve(bc, x, t):
    """Oracle: move p by the Pade exponential of the codiagonal generator."""
    lx = bc.left(x)
    gen = lx @ bc.jones_p - bc.jones_p @ dagger(lx)
    ev = scipy.linalg.expm(t * gen)
    return ev @ bc.jones_p @ np.linalg.inv(ev)


def test_block_exponential_matches_dense_oracle(bc, rng):
    for _ in range(8):
        x = expectation_free(bc, rng, op_scale=float(rng.uniform(0.1, 1.5)))
        t = float(rng.uniform(0.05, 1.0))
        q = grassmann_exp_block(bc, x, t)
        assert op_norm(q - dense_projection_curve(bc, x, t)) < 1e-10


def test_block_exponential_near_the_radius(bc, rng):
    # a witness that the block form holds right up to the breakdown scale
    x = expectation_free(bc, rng, op_scale=np.pi - 0.1)
    q = grassmann_exp_block(bc, x, 1.0)
    assert op_norm(q - dense_projection_curve(bc, x, 1.0)) < 1e-10
    assert op_norm(q @ q - q) < 1e-10


def test_block_exponential_domain_gates(bc, rng):
    x = expectation_free(bc, rng, op_scale=1.0)
    with pytest.raises(RadiusError):
        grassmann_exp_block(bc, np.pi * 1.01 * x, 1.0)
    with pytest.raises(DomainError):
        grassmann_exp_block(bc, x + 0.5 * bc.inc.identity(), 1.0)


def test_block_exponential_reports_the_expectation_it_refuses(constructions, rng):
    bc = constructions["tensor(2,2)"]
    x = expectation_free(bc, rng, op_scale=1.0) + 0.5 * bc.inc.identity()
    norm = bc.inc.two_norm(expectation_E(bc.inc, x))
    with pytest.raises(DomainError) as exc:
        grassmann_exp_block(bc, x, 1.0)
    assert str(exc.value) == (
        f"block exponential expects an expectation-free parameter (expectation norm {norm:.3e})"
    )


def test_tangent_decompose_round_trip(bc, rng):
    for _ in range(6):
        x = expectation_free(bc, rng, op_scale=0.8)
        lx = bc.left(x)
        v = lx @ bc.jones_p + bc.jones_p @ dagger(lx)
        dec = tangent_decompose(bc, v)
        assert bc.inc.two_norm(dec.x - x) < 1e-9
        assert bc.inc.two_norm(dec.orbit_part + dec.normal_part - x) < 1e-12
        recomb = dec.ambient_orbit + dec.ambient_normal
        assert bc.two_norm1(recomb - v) < 1e-9
        # the two ambient components are orthogonal in the real trace pairing
        ip = np.real(bc.tau1(dagger(dec.ambient_orbit) @ dec.ambient_normal))
        assert abs(ip) < 1e-12
        pyth = (
            bc.two_norm1(v) ** 2
            - bc.two_norm1(dec.ambient_orbit) ** 2
            - bc.two_norm1(dec.ambient_normal) ** 2
        )
        assert abs(pyth) < 1e-10


def test_tangent_decompose_rejects_bad_inputs(bc, rng):
    with pytest.raises(DomainError):
        tangent_decompose(bc, 1j * np.eye(bc.dim_l2))
    with pytest.raises(DomainError):
        # Hermitian but a diagonal corner, not codiagonal
        tangent_decompose(bc, bc.jones_p)


def test_kernel_basis_is_real_orthonormal(bc):
    inc = bc.inc
    basis = kernel_real_onb(inc)
    assert len(basis) == KERNEL_DIMS[inc.family_tag]
    for i, a in enumerate(basis):
        assert op_norm(a + dagger(a)) < 1e-10
        assert inc.two_norm(expectation_E(inc, a)) < 1e-10
        for j, b in enumerate(basis):
            ip = float(np.real(inc.amb.inner(a, b)))
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10


def test_degenerate_directions_stay_on_orbit(bc, rng):
    # forward direction: the projection-manifold geodesic equals the
    # conjugation curve, checked against the Pade exponential oracle
    for _ in range(5):
        x = sample_degenerate_direction(bc.inc, rng)
        n = op_norm(x)
        if n > 1e-12:
            x = x / n
        lx = bc.left(x)
        for t in (0.3, 0.7, 1.0):
            ex = scipy.linalg.expm(t * lx)
            conj = ex @ bc.jones_p @ np.linalg.inv(ex)
            assert op_norm(dense_projection_curve(bc, x, t) - conj) < 1e-9
            closed = degenerate_geodesic_closed_form(bc, x, t)
            assert op_norm(closed - conj) < 1e-9


def test_nondegenerate_directions_diverge(bc, rng):
    # converse: for directions whose square escapes the subalgebra the two
    # exponentials separate by a visible amount somewhere on [0, 1]
    for _ in range(5):
        x = sample_nondegenerate_direction(bc.inc, rng)
        lx = bc.left(x)
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 33):
            ex = spectral_function(t * lx, "exp")
            conj = ex @ bc.jones_p @ dagger(ex)
            worst = max(worst, op_norm(dense_projection_curve(bc, x, t) - conj))
        assert worst > 1e-8


def test_nondegenerate_sampler_certifies_its_output(bc, rng):
    # even for families whose kernel squares stay inside, a direction with a
    # component along the subalgebra can square outside it
    x = sample_nondegenerate_direction(bc.inc, rng, min_defect=0.05)
    res = degeneracy_test(bc.inc, x)
    assert not res.degenerate
    assert res.square_defect > 0.05


def test_degeneracy_test_reports_components(bc, rng):
    x = sample_degenerate_direction(bc.inc, rng)
    res = degeneracy_test(bc.inc, x)
    assert res.degenerate
    assert res.defect == max(res.skew_defect, res.square_defect)
    # a Hermitian direction always fails on the skew component
    y = 1j * x
    if op_norm(y) > 1e-9:
        res2 = degeneracy_test(bc.inc, y)
        assert not res2.degenerate
        assert res2.skew_defect > 1e-6


def test_closed_form_rejects_nondegenerate(constructions, rng):
    bc = constructions["tensor(1,3)"]
    x = sample_nondegenerate_direction(bc.inc, rng)
    with pytest.raises(DomainError):
        degenerate_geodesic_closed_form(bc, x, 0.5)


def test_totally_geodesic_audit_per_family(bc):
    inc = bc.inc
    audit = totally_geodesic_audit(inc)
    assert audit.holds == AUDIT_EXPECTED[inc.family_tag]
    assert audit.n_directions == KERNEL_DIMS[inc.family_tag]
    assert audit.degeneracy_agreement
    if audit.holds:
        assert audit.witness is None
        assert audit.max_defect <= 1e-10
    else:
        a, b = audit.witness
        anti = a @ b + b @ a
        resid = inc.two_norm(anti - expectation_E(inc, anti))
        assert abs(resid - audit.max_defect) < 1e-12
        assert resid > 1e-3
        # the witness pair certifies a non-degenerate direction
        assert any(
            not degeneracy_test(inc, c).degenerate for c in (a, b, a + b)
        )


def test_audit_matches_the_pairwise_reference(bc):
    # the audit's residuals taken one matrix at a time, pairs in i <= j order
    inc = bc.inc
    ker, basis = _kernel_bases(inc)

    def resid(y):
        return inc.two_norm(y - expectation_E(inc, y))

    pairs = [(i, j) for i in range(len(basis)) for j in range(i, len(basis))]
    anti = [resid(basis[i] @ basis[j] + basis[j] @ basis[i]) for i, j in pairs]
    audit = totally_geodesic_audit(inc)
    assert audit.max_defect == pytest.approx(max(anti), rel=1e-14, abs=1e-15)
    if audit.holds:
        assert audit.witness is None
    else:
        # the witness is the first pair that attains the maximum
        i, j = pairs[int(np.argmax(anti))]
        assert np.array_equal(audit.witness[0], basis[i])
        assert np.array_equal(audit.witness[1], basis[j])
    prod = max(resid(a @ b) for a in ker for b in ker)
    assert audit.product_max_defect == pytest.approx(prod, rel=1e-14, abs=1e-15)
    agree = all(
        degeneracy_test(inc, a).degenerate == (resid(a @ a) <= 1e-10) for a in basis
    )
    assert audit.degeneracy_agreement == agree


def test_product_closure_is_strictly_finer(constructions):
    # anticommutators can stay inside while general products escape
    fine = totally_geodesic_audit(constructions["tensor(1,2)"].inc)
    assert fine.holds and not fine.product_closure_holds
    flip = totally_geodesic_audit(constructions["group_flip(m2)"].inc)
    assert flip.holds and flip.product_closure_holds


def test_tangent_space_comparison_matches(bc):
    cmp_ = tangent_space_comparison(bc)
    assert cmp_.match
    assert cmp_.dim_expectation_free == KERNEL_DIMS[bc.inc.family_tag]
    assert cmp_.span_defect <= 1e-9


@pytest.mark.parametrize("name", [*FAMILY_NAMES, "tensor(1,4)", "tensor(3,2)"])
def test_registry_facts_agree_with_the_audit(name, rng):
    family = family_record(name)
    inc = family_inclusion(name)
    assert family.totally_geodesic is not None
    assert totally_geodesic_audit(inc).holds == family.totally_geodesic
    # the sampler takes its tensor sizes from the same record
    assert degeneracy_test(inc, sample_degenerate_direction(inc, rng)).degenerate
