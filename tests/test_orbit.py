"""Orbit geometry: tangent maps, geodesics, lifts, logs, and experiments."""

import re

import numpy as np
import pytest

from subfactor_geo.algebra import (
    expectation_E,
    random_antihermitian,
    random_element,
    random_horizontal,
    random_unitary,
)
from subfactor_geo.basic import reduce_R
from subfactor_geo.errors import (
    ConvergenceError,
    DomainError,
    MembershipError,
    RadiusError,
    RefinementError,
)
from subfactor_geo.linalg import (
    antiherm_defect,
    dagger,
    log_unitary_principal,
    op_norm,
    spectral_function,
    unitary_defect,
)
from subfactor_geo.orbit import (
    DiscreteCurve,
    OrbitLogResult,
    OrbitPoint,
    base_point,
    convexity_probe,
    covariant_derivative,
    curve_from_unitaries,
    curve_lengths,
    delta_q,
    first_variation,
    geodesic_at,
    geodesic_endpoints,
    geodesic_equation_residual,
    geodesic_with_residual,
    grassmann_section,
    horizontal_defect_at,
    horizontal_lift,
    kappa_q,
    lift_defects,
    lift_with_defects,
    minimality_experiment,
    orbit_log,
    orbit_log_batch,
    orbit_point_from_witness,
    orbit_section_theta,
    random_horizontal_at,
    random_orbit_point,
    sample_convexity_triple,
    sample_geodesic,
    shorten_to_polygonal,
    tangent_projection,
    tangent_vectors,
    translated_expectation,
)


def wiggly_unitary_path(bc, z, w, grid_n):
    """u(t) = e^{tz} e^{b(t) w} with a bump vanishing at both ends."""
    ts = np.linspace(0.0, 1.0, grid_n + 1)
    bump = np.sin(np.pi * ts) ** 2
    us = np.stack(
        [
            spectral_function(t * z, "exp") @ spectral_function(b * w, "exp")
            for t, b in zip(ts, bump)
        ]
    )
    return us


def test_base_point_and_validation(bc):
    pt = base_point(bc)
    assert op_norm(pt.q - bc.jones_p) == 0.0
    with pytest.raises(DomainError):
        # a scaled identity is not a projection, let alone on the orbit
        type(pt)(bc=bc, q=0.5 * np.eye(bc.dim_l2), witness=bc.inc.identity())


def test_random_orbit_point_carries_valid_witness(bc, rng):
    pt = random_orbit_point(bc, rng)
    lu = bc.left(pt.witness)
    assert op_norm(lu @ bc.jones_p @ dagger(lu) - pt.q) < 1e-10
    assert abs(bc.tau1(pt.q) - bc.lam) < 1e-12


def test_translated_expectation_properties(bc, rng):
    pt = random_orbit_point(bc, rng)
    for _ in range(5):
        x = random_element(rng, bc.inc.amb_basis)
        ex = translated_expectation(pt, x)
        # idempotent and trace preserving
        assert bc.inc.two_norm(translated_expectation(pt, ex) - ex) < 1e-10
        assert abs(bc.inc.trace(ex) - bc.inc.trace(x)) < 1e-12


def test_horizontal_sampler_and_defect(bc, rng):
    pt = random_orbit_point(bc, rng)
    z = random_horizontal_at(pt, rng, op_scale=0.3)
    assert abs(op_norm(z) - 0.3) < 1e-10
    assert horizontal_defect_at(pt, z) < 1e-10
    # Hermitian directions are flagged
    assert horizontal_defect_at(pt, 1j * z) > 0.1


def test_delta_isometry_constant(bc, rng):
    # pushforward scales trace norms by sqrt(2 lam), uniformly on the orbit
    c = np.sqrt(2.0 * bc.lam)
    for _ in range(10):
        pt = random_orbit_point(bc, rng)
        z = random_horizontal_at(pt, rng, op_scale=0.5)
        v = delta_q(pt, z)
        assert abs(bc.two_norm1(v) - c * bc.inc.two_norm(z)) < 1e-10


def test_delta_rejects_non_horizontal(bc, rng):
    z = 0.2 * bc.inc.identity()
    for pt in (base_point(bc), random_orbit_point(bc, rng)):
        with pytest.raises(DomainError) as refused:
            delta_q(pt, z)
        # one refusal, naming the exact defect, for every horizontality gate
        assert f"(defect {horizontal_defect_at(pt, z):.3e})" in str(refused.value)
        for gate in (lambda: geodesic_at(pt, z, 0.5), lambda: sample_geodesic(pt, z, 8)):
            with pytest.raises(DomainError) as other:
                gate()
            assert str(other.value) == str(refused.value)


def test_delta_is_tangent_vectors_on_a_stack_of_one(bc, rng):
    for pt in (base_point(bc), random_orbit_point(bc, rng)):
        z = random_horizontal_at(pt, rng, op_scale=0.5)
        stacked = tangent_vectors(bc, pt.q[None], pt.witness[None], z[None])[0]
        assert np.array_equal(delta_q(pt, z), stacked)


def test_kappa_and_projection_read_one_e1_pass(constructions, rng, monkeypatch):
    # kappas forms vq - qv once and takes the coordinates of its E1 once,
    # for the tangency residual and for kappa alike; _e1_unchecked, a second
    # E1, is not called
    bc = constructions["tensor(2,2)"]
    pt = random_orbit_point(bc, rng)
    v = delta_q(pt, random_horizontal_at(pt, rng, op_scale=0.4))
    expected = kappa_q(pt, v)
    projected = tangent_projection(pt, v)
    calls = []
    cls = type(bc)
    e1_coords = cls._e1_coords
    monkeypatch.setattr(cls, "_e1_coords", lambda self, y: calls.append(y) or e1_coords(self, y))
    monkeypatch.setattr(cls, "_e1_unchecked", None)
    assert np.array_equal(kappa_q(pt, v), expected)
    assert len(calls) == 1
    assert np.array_equal(calls[0], (v @ pt.q - pt.q @ v)[None])
    assert np.array_equal(tangent_projection(pt, v), projected)
    assert len(calls) == 2


def test_kappa_inverts_delta(bc, rng):
    for _ in range(8):
        pt = random_orbit_point(bc, rng)
        z = random_horizontal_at(pt, rng, op_scale=0.4)
        z_rec = kappa_q(pt, delta_q(pt, z))
        assert bc.inc.two_norm(z_rec - z) < 1e-9


def test_kappa_matches_closed_form_at_base(bc, rng):
    # kappa_q's closed form (1/2 lam) E1(vq - qv), at the base and at random
    # orbit points, against the compression route u R(u* v u) u* through the
    # witness u, R the reduction (1/lam) E1(y p)
    for pt in [base_point(bc)] + [random_orbit_point(bc, rng) for _ in range(7)]:
        u, lu = pt.witness, bc.left(pt.witness)
        z = random_horizontal_at(pt, rng, op_scale=0.4)
        v = delta_q(pt, z)
        z_route = u @ reduce_R(bc, dagger(lu) @ v @ lu) @ dagger(u)
        assert bc.inc.two_norm(kappa_q(pt, v) - z_route) < 1e-9
        assert bc.inc.two_norm(z_route - z) < 1e-9


def test_tangent_projection_properties(bc, rng):
    pt = random_orbit_point(bc, rng)
    flat = bc.m1_basis.reshape(bc.dim_m1, -1)

    def herm():
        # Hermitian element of the extension algebra, the projection's domain
        a = random_element(rng, flat).reshape(bc.dim_l2, bc.dim_l2)
        return 0.5 * (a + dagger(a))

    for _ in range(6):
        x = herm()
        px = tangent_projection(pt, x)
        # idempotent, Hermitian-valued, image admits a horizontal preimage
        assert bc.two_norm1(tangent_projection(pt, px) - px) < 1e-10
        assert op_norm(px - dagger(px)) < 1e-10
        kappa_q(pt, px)
        # orthogonality of the complement: Pythagoras in the trace norm
        lhs = bc.two_norm1(x) ** 2
        rhs = bc.two_norm1(px) ** 2 + bc.two_norm1(x - px) ** 2
        assert abs(lhs - rhs) < 1e-10
    # fixes genuine tangent vectors
    z = random_horizontal_at(pt, rng, op_scale=0.5)
    v = delta_q(pt, z)
    assert bc.two_norm1(tangent_projection(pt, v) - v) < 1e-10


def test_tangent_projection_rejects_non_hermitian(bc, rng):
    pt = base_point(bc)
    x = rng.standard_normal((bc.dim_l2, bc.dim_l2)) + 1j * rng.standard_normal(
        (bc.dim_l2, bc.dim_l2)
    )
    x = x - dagger(x)
    if op_norm(x) > 1e-3:
        with pytest.raises(DomainError):
            tangent_projection(pt, x)


def test_geodesic_is_conjugation(bc, rng):
    pt = random_orbit_point(bc, rng)
    z = random_horizontal_at(pt, rng, op_scale=0.4)
    t = 0.7
    end = geodesic_at(pt, z, t)
    e = bc.left(spectral_function(t * z, "exp"))
    assert op_norm(end.q - e @ pt.q @ dagger(e)) < 1e-12


def test_geodesic_equation_residual_small(bc, rng):
    for _ in range(3):
        pt = random_orbit_point(bc, rng)
        z = random_horizontal_at(pt, rng, op_scale=0.5)
        assert geodesic_equation_residual(pt, z, grid_n=128) <= 1e-8


def test_covariant_derivative_of_geodesic_velocity(bc, rng):
    pt = base_point(bc)
    z = random_horizontal_at(pt, rng, op_scale=0.4)
    curve = sample_geodesic(pt, z, 128)
    lz = bc.left(z)
    # exact velocity field [left(z), q(t)] along the conjugation geodesic
    field = np.stack([lz @ q - q @ lz for q in curve.samples])
    acc = covariant_derivative(curve, field)
    assert max(bc.two_norm1(a) for a in acc) < 1e-4


def test_covariant_derivative_refuses_a_non_hermitian_derivative(constructions, rng):
    bc = constructions["tensor(2,2)"]
    pt = base_point(bc)
    curve = sample_geodesic(pt, random_horizontal_at(pt, rng, op_scale=0.4), 32)
    lz = bc.left(random_horizontal_at(pt, rng, op_scale=0.4))
    field = lz @ curve.samples - curve.samples @ lz
    # i q at node 10 is in M1 but not Hermitian; the central differences of
    # nodes 9 and 11 read it, so node 9 is the first refused
    field[10] = field[10] + 1j * curve.samples[10]
    with pytest.raises(DomainError, match=r"^trial 9: tangent projection expects a Hermitian"):
        covariant_derivative(curve, field)


def test_curves_carry_the_witness_of_their_first_sample(constructions, rng):
    bc = constructions["tensor(2,2)"]
    pt = random_orbit_point(bc, rng)
    z = random_horizontal_at(pt, rng, op_scale=0.4)
    curve, _ = geodesic_with_residual(pt, z, grid_n=16)
    for c in (curve, sample_geodesic(pt, z, 16, t0=0.3)):
        lw = bc.left(c.witness)
        assert op_norm(lw @ bc.jones_p @ dagger(lw) - c.samples[0]) < 1e-12


def test_discrete_curve_rejects_underresolved(constructions):
    bc = constructions["group_flip(scalars)"]
    q0 = bc.jones_p
    q1 = np.eye(bc.dim_l2) - q0
    with pytest.raises(DomainError):
        DiscreteCurve(bc=bc, samples=np.stack([q0, q1]))


def test_lift_of_geodesic_recovers_exponentials(constructions, rng):
    for name in ("tensor(1,2)", "group_flip(m2)"):
        bc = constructions[name]
        pt = base_point(bc)
        z = random_horizontal(bc.inc, rng, op_scale=0.4)
        curve = sample_geodesic(pt, z, 256)
        lift = horizontal_lift(curve)
        ts = np.linspace(0.0, 1.0, 257)
        worst = max(
            op_norm(lift[i] - spectral_function(t * z, "exp"))
            for i, t in enumerate(ts)
        )
        assert worst < 1e-6


def test_lift_reconstruction_and_horizontality(constructions, rng):
    bc = constructions["tensor(1,2)"]
    pt = base_point(bc)
    z = random_horizontal(bc.inc, rng, op_scale=0.35)
    w = random_antihermitian(rng, bc.inc.amb_basis)
    w = 0.25 * w / op_norm(w)
    us = wiggly_unitary_path(bc, z, w, 256)
    curve = curve_from_unitaries(bc, us)
    lift = horizontal_lift(curve)
    recon, horiz = lift_defects(curve, lift)
    assert recon <= 1e-6
    assert horiz <= 1e-6


def test_lift_with_defects_returns_the_gates_defects(constructions, rng):
    bc = constructions["tensor(1,2)"]
    z = random_horizontal(bc.inc, rng, op_scale=0.35)
    w = random_antihermitian(rng, bc.inc.amb_basis)
    curve = curve_from_unitaries(bc, wiggly_unitary_path(bc, z, 0.25 * w / op_norm(w), 256))
    lift, recon, horiz = lift_with_defects(curve)
    assert np.array_equal(lift, horizontal_lift(curve))
    assert (recon, horiz) == lift_defects(curve, lift)


def test_lift_stays_unitary_without_reunitarization(bc):
    # RK4 steps are not projected back onto the unitaries; on the lifts
    # suite's polynomial paths the drift stays far below the 1e-10 gate
    from subfactor_geo.suites import _poly_generator

    rng = np.random.default_rng(12)
    ts = np.linspace(0.0, 1.0, 257)
    us = spectral_function(_poly_generator(bc.inc.amb_basis, rng, ts), "exp")
    curve = curve_from_unitaries(bc, us)
    lift = horizontal_lift(curve)
    assert unitary_defect(lift).max() < 1e-13


def test_length_identity_orbit_vs_lift(constructions, rng):
    # the orbit length of any curve equals sqrt(2 lam) times the length of
    # its horizontal lift
    bc = constructions["group_flip(m2)"]
    pt = base_point(bc)
    z = random_horizontal(bc.inc, rng, op_scale=0.3)
    w = random_antihermitian(rng, bc.inc.amb_basis)
    w = 0.2 * w / op_norm(w)
    us = wiggly_unitary_path(bc, z, w, 256)
    curve = curve_from_unitaries(bc, us)
    lift = horizontal_lift(curve)
    down = curve_lengths(bc, curve.samples, "two_norm", space="orbit", order=4)
    up = curve_lengths(bc, lift, "two_norm", space="lift", order=4)
    assert abs(down - np.sqrt(2.0 * bc.lam) * up) < 1e-5


def test_geodesic_length_is_speed(bc, rng):
    pt = base_point(bc)
    z = random_horizontal(bc.inc, rng, op_scale=0.4)
    curve = sample_geodesic(pt, z, 128)
    length = curve_lengths(bc, curve.samples, "two_norm", order=4)
    assert abs(length - np.sqrt(2.0 * bc.lam) * bc.inc.two_norm(z)) < 1e-9


def test_energy_dominates_squared_length(constructions, rng):
    # Cauchy-Schwarz: E >= L^2 with equality exactly at constant speed
    bc = constructions["tensor(1,2)"]
    pt = base_point(bc)
    z = random_horizontal(bc.inc, rng, op_scale=0.4)
    geo = sample_geodesic(pt, z, 128)
    lg = curve_lengths(bc, geo.samples, "two_norm", order=4)
    eg = curve_lengths(bc, geo.samples, "energy", order=4)
    assert abs(eg - lg**2) < 1e-8
    w = random_antihermitian(rng, bc.inc.amb_basis)
    w = 0.3 * w / op_norm(w)
    crooked = curve_from_unitaries(bc, wiggly_unitary_path(bc, z, w, 128))
    lc = curve_lengths(bc, crooked.samples, "two_norm", order=4)
    ec = curve_lengths(bc, crooked.samples, "energy", order=4)
    assert ec > lc**2 + 1e-6


def test_first_variation_matches_finite_difference(constructions, rng):
    bc = constructions["tensor(1,2)"]
    ts = np.linspace(0.0, 1.0, 129)
    bump = np.sin(np.pi * ts) ** 2
    for _ in range(5):
        z = random_horizontal(bc.inc, rng, op_scale=0.4)
        w2 = random_antihermitian(rng, bc.inc.amb_basis)
        w2 = 0.2 * w2 / op_norm(w2)
        w = random_antihermitian(rng, bc.inc.amb_basis)
        w = w / op_norm(w)

        def family(s):
            return np.stack(
                [
                    spectral_function(t * z, "exp")
                    @ spectral_function((t * t - t) * w2, "exp")
                    @ spectral_function(s * b * w, "exp")
                    for t, b in zip(ts, bump)
                ]
            )

        h = 1e-3
        res = first_variation(bc, family(-h), family(0.0), family(h), h)
        assert res.consistent
        assert res.defect <= max(1e-5, 10.0 * h * h)


def test_first_variation_vanishes_at_geodesics(bc, rng):
    ts = np.linspace(0.0, 1.0, 129)
    bump = 16.0 * ts**2 * (1.0 - ts) ** 2
    z = random_horizontal(bc.inc, rng, op_scale=0.4)
    w = random_antihermitian(rng, bc.inc.amb_basis)
    w = w / op_norm(w)
    geo = np.stack([spectral_function(t * z, "exp") for t in ts])

    def family(s):
        pert = np.stack([spectral_function(s * b * w, "exp") for b in bump])
        return np.einsum("tab,tbc->tac", geo, pert)

    h = 1e-3
    res = first_variation(bc, family(-h), geo, family(h), h)
    assert abs(res.value) < 1e-7
    assert res.consistent


def test_orbit_log_recovers_direction(bc, rng):
    pt = base_point(bc)
    for _ in range(6):
        z0 = random_horizontal(bc.inc, rng, op_scale=float(rng.uniform(0.05, 0.3)))
        q1 = geodesic_at(pt, z0, 1.0)
        res = orbit_log(pt, q1)
        assert bc.inc.two_norm(res.z - z0) <= 1e-7
        assert res.residual <= 1e-8


def test_orbit_log_from_moving_start(bc, rng):
    pt = random_orbit_point(bc, rng)
    z0 = random_horizontal_at(pt, rng, op_scale=0.25)
    q1 = geodesic_at(pt, z0, 1.0)
    res = orbit_log(pt, q1)
    assert bc.inc.two_norm(res.z - z0) <= 1e-7


def test_orbit_log_rejects_far_endpoints(constructions):
    bc = constructions["group_flip(scalars)"]
    pt = base_point(bc)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u = spectral_function(1.2j * sx, "exp")
    far = orbit_point_from_witness(bc, u)
    assert op_norm(far.q - pt.q) > 0.5
    for target in (far, far.q):
        with pytest.raises(RadiusError):
            orbit_log(pt, target)


def checked_orbit_log_reference(q0, q1, tol=1e-8, max_iter=100):
    """orbit_log as a loop over the checked public routines: every iterate
    is a validated OrbitPoint and every step passes the checks of
    tangent_projection, kappa_q and geodesic_at."""
    bc = q0.bc
    target = q1.q if isinstance(q1, OrbitPoint) else q1
    if op_norm(q0.q - target) > 0.5:
        raise RadiusError("endpoints too far apart")
    z = np.zeros(q0.witness.shape, dtype=complex)
    cur = q0
    res = bc.two_norm1(cur.q - target)
    iterations = backtracks = 0
    while res > tol:
        if iterations >= max_iter:
            raise ConvergenceError("no convergence", residual=res, iterations=iterations)
        v = tangent_projection(cur, target - cur.q)
        w_at_cur = kappa_q(cur, v)
        ez = spectral_function(z, "exp")
        w0 = dagger(ez) @ w_at_cur @ ez
        w0 = 0.5 * (w0 - dagger(w0))
        w0 = w0 - translated_expectation(q0, w0)
        step = 1.0
        improved = False
        while step > 2.0**-20:
            z_try = z + step * w0
            cur_try = geodesic_at(q0, z_try, 1.0)
            res_try = bc.two_norm1(cur_try.q - target)
            if res_try < res:
                z, cur, res = z_try, cur_try, res_try
                improved = True
                break
            step *= 0.5
            backtracks += 1
        if not improved:
            raise ConvergenceError(
                "stalled", residual=res, iterations=iterations, backtracks=backtracks
            )
        iterations += 1
    return OrbitLogResult(z=z, residual=res, iterations=iterations, backtracks=backtracks)


@pytest.mark.parametrize("family", ["tensor(2,2)", "group_flip(scalars)", "group_flip(m2)"])
def test_orbit_log_matches_checked_reference(constructions, family):
    bc = constructions[family]
    rng = np.random.default_rng(31)
    pt = random_orbit_point(bc, rng)
    for radius in (0.1, 0.2, 0.3, 0.4, 0.5):
        z0 = random_horizontal_at(pt, rng, op_scale=radius)
        q1 = geodesic_at(pt, z0, 1.0)
        for target in (q1, q1.q):
            got = orbit_log(pt, target)
            want = checked_orbit_log_reference(pt, target)
            assert bc.inc.two_norm(got.z - want.z) <= 1e-14
            assert got.residual == want.residual
            assert got.iterations == want.iterations
            assert got.backtracks == want.backtracks


def test_orbit_log_counts_the_backtracks_of_a_stall(constructions):
    # a Hermitian target in M1 just off the orbit: the residual cannot drop
    # below its distance from the orbit, so the last attempt halves its step
    # until it stalls
    bc = constructions["tensor(2,2)"]
    rng = np.random.default_rng(31)
    pt = random_orbit_point(bc, rng)
    q1 = geodesic_at(pt, random_horizontal_at(pt, rng, op_scale=0.3), 1.0).q
    h = np.tensordot(rng.standard_normal(bc.dim_m1), bc.m1_basis, axes=1)
    h = (h + dagger(h)) / 2.0
    target = q1 + 2e-8 * h / bc.two_norm1(h)
    with pytest.raises(ConvergenceError, match="stalled") as got:
        orbit_log(pt, target)
    with pytest.raises(ConvergenceError) as want:
        checked_orbit_log_reference(pt, target)
    assert got.value.backtracks >= 20
    assert got.value.backtracks == want.value.backtracks
    assert got.value.iterations == want.value.iterations
    assert got.value.residual == want.value.residual


def test_orbit_log_refuses_bad_array_targets(constructions, rng):
    bc = constructions["tensor(2,2)"]
    pt = base_point(bc)
    q1 = geodesic_at(pt, random_horizontal_at(pt, rng, op_scale=0.2), 1.0).q
    d = bc.dim_l2
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    # a small anti-Hermitian part: close to q1, but not Hermitian
    with pytest.raises(DomainError, match="not Hermitian"):
        orbit_log(pt, q1 + 1e-3 * (a - dagger(a)))
    # Hermitian and close to q1, but outside M1 (dim M1 = 64 < 16 * 16)
    off = 1e-3 * (a + dagger(a))
    assert bc.membership_defect(off) > 1e-6
    with pytest.raises(MembershipError):
        orbit_log(pt, q1 + off)


def _log_outcome(*args, **kwargs):
    try:
        return orbit_log(*args, **kwargs)
    except (DomainError, ConvergenceError) as exc:
        return exc


@pytest.mark.parametrize("max_iter", [100, 1])
def test_orbit_log_batch_slices_equal_single_calls(constructions, max_iter):
    bc = constructions["tensor(2,2)"]
    rng = np.random.default_rng(41)
    pt = random_orbit_point(bc, rng)
    d = bc.dim_l2
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    near = [
        geodesic_at(pt, random_horizontal_at(pt, rng, op_scale=r), 1.0).q
        for r in (0.1, 0.3, 0.45)
    ]
    far = geodesic_at(pt, random_horizontal_at(pt, rng, op_scale=1.2), 1.0).q
    assert op_norm(far - pt.q) > 0.5
    targets = np.stack(
        [
            near[0],
            far,
            near[1] + 1e-3 * (a - dagger(a)),   # not Hermitian
            pt.q,                               # converges at once
            near[1] + 1e-3 * (a + dagger(a)),   # Hermitian, outside M1
            near[1],
            near[2],
        ]
    )
    batch = orbit_log_batch(pt, targets, max_iter=max_iter)
    assert len(batch) == len(targets)
    kinds = set()
    for target, got in zip(targets, batch):
        want = _log_outcome(pt, target, max_iter=max_iter)
        kinds.add(type(want))
        if isinstance(want, Exception):
            assert type(got) is type(want)
            assert str(got) == str(want)
            if isinstance(want, ConvergenceError):
                # a slice's products may differ from the single call's in the last bits
                assert got.residual == pytest.approx(want.residual, rel=1e-12)
                assert got.iterations == want.iterations
                assert got.backtracks == want.backtracks
        else:
            assert bc.inc.two_norm(got.z - want.z) <= 1e-13
            assert got.iterations == want.iterations
            assert got.backtracks == want.backtracks
    assert {RadiusError, DomainError, MembershipError, OrbitLogResult} <= kinds
    if max_iter == 1:
        assert ConvergenceError in kinds


def test_orbit_log_batch_takes_points_and_empty_stacks(constructions):
    bc = constructions["group_flip(scalars)"]
    rng = np.random.default_rng(43)
    pt = random_orbit_point(bc, rng)
    points = [
        geodesic_at(pt, random_horizontal_at(pt, rng, op_scale=r), 1.0) for r in (0.2, 0.4)
    ]
    from_points = orbit_log_batch(pt, points)
    from_arrays = orbit_log_batch(pt, np.stack([p.q for p in points]))
    for a, b in zip(from_points, from_arrays):
        assert np.array_equal(a.z, b.z)
        assert (a.iterations, a.backtracks) == (b.iterations, b.backtracks)
    assert orbit_log_batch(pt, np.empty((0, bc.dim_l2, bc.dim_l2), dtype=complex)) == []
    assert orbit_log_batch(pt, []) == []


def test_point_gate_refuses_per_slice_as_orbit_point_does(constructions, rng):
    from subfactor_geo.orbit import _point_refusals

    bc = constructions["tensor(2,2)"]
    good = random_orbit_point(bc, rng)
    other = random_orbit_point(bc, rng)
    cases = [
        (good.q, good.witness),
        (0.5 * np.eye(bc.dim_l2), bc.inc.identity()),   # not a projection
        (np.eye(bc.dim_l2, dtype=complex), bc.inc.identity()),   # trace 1
        (good.q, 1.1 * good.witness),                   # witness not unitary
        (good.q, other.witness),                        # witness carries p elsewhere
    ]
    refusals = _point_refusals(
        bc, np.stack([q for q, _ in cases]), np.stack([w for _, w in cases])
    )
    assert refusals[0] is None
    for (q, w), refusal in zip(cases[1:], refusals[1:]):
        with pytest.raises(DomainError) as single:
            OrbitPoint(bc=bc, q=q, witness=w)
        assert type(refusal) is DomainError
        assert str(refusal) == str(single.value)
    assert len({str(r) for r in refusals[1:]}) == 4


def test_a_curve_is_refused_with_a_witness_that_is_not_its_own(constructions, rng):
    bc = constructions["tensor(2,2)"]
    pt = base_point(bc)
    curve = sample_geodesic(pt, random_horizontal_at(pt, rng, op_scale=0.3), 64)
    DiscreteCurve(bc, curve.samples, curve.witness)
    with pytest.raises(
        DomainError, match=r"^witness does not carry p to the stored projection \(defect "
    ):
        DiscreteCurve(bc, curve.samples, random_unitary(rng, bc.inc.amb_basis))
    with pytest.raises(DomainError, match=r"^witness is not unitary \(defect "):
        DiscreteCurve(bc, curve.samples, 1.1 * curve.witness)


def test_orbit_point_and_log_refusals_report_their_defect(constructions, rng):
    bc = constructions["tensor(2,2)"]
    d, lam = bc.dim_l2, bc.lam
    with pytest.raises(DomainError, match=r"^orbit point is not a projection \(defect 2\.500e-01\)"):
        OrbitPoint(bc=bc, q=0.5 * np.eye(d), witness=bc.inc.identity())
    # a coordinate projection of trace lam that E1 does not send to lam * 1
    q = np.diag((np.arange(d) < lam * d).astype(complex))
    defect = op_norm(bc._e1_unchecked(q) - lam * np.eye(d))
    with pytest.raises(DomainError, match=r"^orbit point fails E1\(q\) = lam \* 1 \(defect ") as exc:
        OrbitPoint(bc=bc, q=q, witness=bc.inc.identity())
    assert f"(defect {defect:.3e})" in str(exc.value)
    pt = base_point(bc)
    q1 = geodesic_at(pt, random_horizontal_at(pt, rng, op_scale=0.2), 1.0).q
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    bad = q1 + 1e-3 * (a - dagger(a))
    with pytest.raises(DomainError) as exc:
        orbit_log(pt, bad)
    assert str(exc.value) == (
        f"logarithm target is not Hermitian (defect {op_norm(bad - dagger(bad)):.3e})"
    )


def test_geodesic_endpoints_match_geodesic_at(constructions):
    bc = constructions["tensor(2,2)"]
    rng = np.random.default_rng(47)
    pt = random_orbit_point(bc, rng)
    zs = np.stack([random_horizontal_at(pt, rng, op_scale=r) for r in (0.1, 0.6, 1.1)])
    zs = np.concatenate([zs, 1j * zs[:1]])   # Hermitian: not a direction
    qs, refusals = geodesic_endpoints(pt, zs)
    for z, q, refusal in zip(zs[:3], qs, refusals):
        assert refusal is None
        assert op_norm(q - geodesic_at(pt, z, 1.0).q) <= 1e-14
    assert isinstance(refusals[3], DomainError)
    with pytest.raises(DomainError) as single:
        geodesic_at(pt, zs[3], 1.0)
    assert str(refusals[3]) == str(single.value)
    assert f"(defect {horizontal_defect_at(pt, zs[3]):.3e})" in str(refusals[3])
    assert not np.any(qs[3])


def test_geodesic_refuses_a_direction_its_exponential_cannot_take(constructions):
    # horizontal within WITNESS_TOL, but not anti-Hermitian within
    # SPECTRAL_TOL: every geodesic form refuses it with one text
    bc = constructions["tensor(1,2)"]
    rng = np.random.default_rng(5)
    pt = base_point(bc)
    z = random_horizontal_at(pt, rng) + 1e-9 * bc.inc.identity()
    assert horizontal_defect_at(pt, z) <= 1e-8
    expected = f"direction is not anti-Hermitian (defect {antiherm_defect(z):.3e})"
    assert expected.endswith("(defect 2.000e-09)")
    _, (refusal,) = geodesic_endpoints(pt, z[None])
    assert str(refusal) == expected
    for gate in (lambda: geodesic_at(pt, z, 1.0), lambda: sample_geodesic(pt, z, 8)):
        with pytest.raises(DomainError) as refused:
            gate()
        assert str(refused.value) == expected


def test_first_variation_names_the_exact_unitarity_defect(constructions):
    bc = constructions["tensor(2,2)"]
    ts = np.linspace(0.0, 1.0, 17)
    z = random_horizontal(bc.inc, np.random.default_rng(6))
    us = spectral_function(ts[:, None, None] * z, "exp")
    bad = 1.001 * us
    with pytest.raises(DomainError) as refused:
        first_variation(bc, us, us, bad, 1e-3)
    assert str(refused.value) == (
        f"family samples are not unitary (defect {unitary_defect(bad[::2]).max():.3e})"
    )


def test_orbit_log_validates_at_most_one_point(constructions, rng, monkeypatch):
    bc = constructions["tensor(2,2)"]
    pt = random_orbit_point(bc, rng)
    q1 = geodesic_at(pt, random_horizontal_at(pt, rng, op_scale=0.4), 1.0)
    checks = []
    validate = OrbitPoint.__post_init__

    def counted(self):
        checks.append(self)
        validate(self)

    monkeypatch.setattr(OrbitPoint, "__post_init__", counted)
    res = orbit_log(pt, q1)
    assert res.iterations > 1
    assert len(checks) <= 1


def test_section_theta_round_trip(bc, rng):
    for _ in range(6):
        z = random_horizontal(bc.inc, rng, op_scale=float(rng.uniform(0.05, 0.45)))
        q = geodesic_at(base_point(bc), z, 1.0)
        u = orbit_section_theta(bc, q)
        lu = bc.left(u)
        assert op_norm(lu @ bc.jones_p @ dagger(lu) - q.q) <= 1e-8
        assert op_norm(dagger(u) @ u - bc.inc.identity()) <= 1e-8


def test_section_rejects_antipodal_projection(constructions):
    bc = constructions["group_flip(scalars)"]
    q = np.eye(2) - bc.jones_p
    with pytest.raises(RadiusError):
        orbit_section_theta(bc, q)
    with pytest.raises(RadiusError):
        grassmann_section(bc.jones_p, q)


def test_grassmann_section_codiagonal(bc, rng):
    p = bc.jones_p
    z = random_horizontal(bc.inc, rng, op_scale=0.3)
    q = geodesic_at(base_point(bc), z, 1.0).q
    x = grassmann_section(p, q)
    d = bc.dim_l2
    assert op_norm(x + dagger(x)) < 1e-10
    assert op_norm(p @ x @ p) < 1e-9
    assert op_norm((np.eye(d) - p) @ x @ (np.eye(d) - p)) < 1e-9
    ex = spectral_function(x, "exp")
    assert op_norm(ex @ p @ dagger(ex) - q) < 1e-9


def test_shorten_geodesic_is_single_arc(constructions, rng):
    bc = constructions["tensor(1,2)"]
    pt = base_point(bc)
    z = random_horizontal(bc.inc, rng, op_scale=0.2)
    curve = sample_geodesic(pt, z, 128)
    res = shorten_to_polygonal(curve, segment_bound=0.45)
    assert res.shorter
    assert abs(res.total_length - np.sqrt(2.0 * bc.lam) * bc.inc.two_norm(z)) < 1e-7
    assert abs(res.total_length - res.curve_length) < 1e-6


def test_shorten_beats_wiggly_curve(constructions, rng):
    bc = constructions["group_flip(m2)"]
    z = random_horizontal(bc.inc, rng, op_scale=0.25)
    w = random_antihermitian(rng, bc.inc.amb_basis)
    w = 0.3 * w / op_norm(w)
    curve = curve_from_unitaries(bc, wiggly_unitary_path(bc, z, w, 192))
    res = shorten_to_polygonal(curve, segment_bound=0.3)
    assert res.shorter
    assert res.total_length < res.curve_length - 1e-3
    assert len(res.break_indices) == len(res.vectors) + 1


def test_minimality_no_violations(constructions):
    bc = constructions["tensor(1,2)"]
    pt = base_point(bc)
    rng = np.random.default_rng(7)
    z = random_horizontal(bc.inc, rng, op_scale=0.25)
    rep = minimality_experiment(
        pt, z, n_trials=5, perturbation_scale=0.1, seed=11, grid_n=96, probe_radius=1.0
    )
    assert rep.n_trials == 5
    # probe radius 1.0 keeps every perturbed curve in scope: non-vacuous
    assert rep.n_within_radius == 5
    assert rep.n_violations == 0
    assert all(t.l2_margin >= -1e-6 for t in rep.trials)
    assert all(t.fv_consistent for t in rep.trials)


def test_minimality_is_seed_deterministic(constructions):
    bc = constructions["group_flip(scalars)"]
    pt = base_point(bc)
    rng = np.random.default_rng(3)
    z = random_horizontal(bc.inc, rng, op_scale=0.2)
    a = minimality_experiment(pt, z, 3, 0.1, seed=5, grid_n=64)
    b = minimality_experiment(pt, z, 3, 0.1, seed=5, grid_n=64)
    assert [t.l2 for t in a.trials] == [t.l2 for t in b.trials]


def test_convexity_exact_quadratic_case(constructions, rng):
    # with u0 = u1 the profile is s^2 ||w||^2, an exact parabola
    bc = constructions["tensor(1,2)"]
    u0 = random_unitary(rng, bc.inc.amb_basis, scale=0.2)
    w = random_antihermitian(rng, bc.inc.amb_basis)
    w = 0.3 * w / op_norm(w)
    u2 = u0 @ spectral_function(w, "exp")
    grid_n = 32
    rep = convexity_probe(bc, u0, u0, u2, grid_n=grid_n)
    assert rep.passed
    expected = 2.0 * (bc.inc.two_norm(w) / grid_n) ** 2
    assert abs(rep.min_second_difference - expected) < 1e-10


def test_convexity_random_triples(bc, rng):
    def step():
        w = random_antihermitian(rng, bc.inc.amb_basis)
        return spectral_function(0.15 * w / op_norm(w), "exp")

    for _ in range(5):
        u0 = random_unitary(rng, bc.inc.amb_basis, scale=0.15)
        rep = convexity_probe(bc, u0, u0 @ step(), u0 @ step(), grid_n=24)
        assert rep.passed


@pytest.mark.parametrize("family", ["tensor(2,2)", "group_flip(scalars)"])
def test_convexity_probe_is_bitwise_the_per_point_loop(constructions, family):
    from subfactor_geo.linalg import exp_family

    bc = constructions[family]
    inc = bc.inc

    def ref_triple(ref_rng):
        triple = []
        for _ in range(3):
            a = random_antihermitian(ref_rng, inc.amb_basis)
            a = ref_rng.uniform(0.05, 0.25) * a / max(op_norm(a), 1e-12)
            triple.append(spectral_function(a, "exp"))
        return triple

    def ref_f(u0, u1, u2):
        # one 2-D logarithm per grid point; two_norm gives a Python float,
        # so ** 2 is CPython's float power (libm pow), which can differ by
        # an ulp from numpy's x * x: the probe must square Python floats too
        w = log_unitary_principal(dagger(u1) @ u2)
        return tuple(
            inc.two_norm(log_unitary_principal(dagger(u0) @ (u1 @ e))) ** 2
            for e in exp_family(w, np.linspace(0.0, 1.0, 33))
        )

    rng = np.random.default_rng(8)
    ref_rng = np.random.default_rng(8)
    for _ in range(4):
        u0, u1, u2 = sample_convexity_triple(inc, rng)
        ref = ref_triple(ref_rng)
        for got, want in zip((u0, u1, u2), ref):
            assert np.array_equal(got, want)
        assert convexity_probe(bc, u0, u1, u2, grid_n=32).f_values == ref_f(*ref)

    # a stack of n triples is n draws in turn, and each report is its
    # triple's, whichever stacked logarithm call its grid points fall in
    for n in (1, 5, 40):
        stacks = sample_convexity_triple(inc, rng, n)
        refs = [ref_triple(ref_rng) for _ in range(n)]
        for k, ref in enumerate(refs):
            for got, want in zip(stacks, ref):
                assert np.array_equal(got[k], want)
        reps = convexity_probe(bc, *stacks, grid_n=32)
        assert [rep.f_values for rep in reps] == [ref_f(*ref) for ref in refs]
    assert rng.random() == ref_rng.random()

    # one wide triple refuses the whole stack and is named
    u0s, u1s, u2s = (s.copy() for s in sample_convexity_triple(inc, rng, 5))
    a = random_antihermitian(rng, inc.amb_basis)
    u2s[3] = u0s[3] @ spectral_function(1.4 * a / op_norm(a), "exp")
    with pytest.raises(RadiusError, match=r"^trial 3: unitaries are op-norm"):
        convexity_probe(bc, u0s, u1s, u2s, grid_n=32)


def test_convexity_rejects_wide_triples(constructions, rng):
    bc = constructions["group_flip(scalars)"]
    u0 = bc.inc.identity()
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u2 = spectral_function(2.0j * sx, "exp")
    with pytest.raises(RadiusError):
        convexity_probe(bc, u0, u0, u2)


# ---------------------------------------------------------------------------
# stacked curve functionals against per-sample reference loops


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _reference_gaps(samples):
    return [op_norm(samples[i + 1] - samples[i]) for i in range(samples.shape[0] - 1)]


def test_curve_functionals_match_per_sample_reference(constructions):
    from subfactor_geo.orbit import _diff2, _diff4, _simpson

    bc = constructions["tensor(2,2)"]
    inc = bc.inc
    rng = np.random.default_rng(424242)
    z = random_horizontal(inc, rng, op_scale=0.4)
    w = random_antihermitian(rng, inc.amb_basis)
    w = 0.2 * w / op_norm(w)
    us = wiggly_unitary_path(bc, z, w, 96)
    curve = curve_from_unitaries(bc, us)
    lift = horizontal_lift(curve)

    # lengths: every metric, both spaces, both stencils
    for space, path, norm2 in (
        ("orbit", curve.samples, bc.two_norm1),
        ("lift", lift, inc.two_norm),
    ):
        for order, diff in ((2, _diff2), (4, _diff4)):
            dt = 1.0 / (path.shape[0] - 1)
            vel = diff(path, dt)
            two = np.array([norm2(v) for v in vel])
            ops = np.array([op_norm(v) for v in vel])
            expected = {
                "two_norm": _simpson(two, dt),
                "op_norm": _simpson(ops, dt),
                "energy": _simpson(two**2, dt),
            }
            for metric, ref in expected.items():
                got = curve_lengths(bc, path, metric, space=space, order=order)
                assert _close(got, ref), (space, order, metric, got, ref)

    # lift defects
    qs = curve.samples
    llift = bc.left(lift)
    recon_ref = max(
        op_norm(llift[i] @ qs[0] @ dagger(llift[i]) - qs[i]) for i in range(len(qs))
    )
    gdot = _diff4(lift, curve.dt)
    horiz_ref = 0.0
    for i in range(len(qs)):
        v = gdot[i] @ dagger(lift[i])
        wi = lift[i] @ curve.witness
        e = wi @ expectation_E(inc, dagger(wi) @ v @ wi) @ dagger(wi)
        horiz_ref = max(horiz_ref, inc.two_norm(e))
    recon, horiz = lift_defects(curve, lift)
    assert abs(recon - recon_ref) <= 1e-12
    assert abs(horiz - horiz_ref) <= 1e-12

    # first variation of an endpoint-fixing bump family
    ts = np.linspace(0.0, 1.0, 97)
    bump = 16.0 * ts**2 * (1.0 - ts) ** 2
    w2 = random_antihermitian(rng, inc.amb_basis)
    w2 = w2 / op_norm(w2)
    h = 1e-3

    def family(s):
        return np.stack(
            [us[i] @ spectral_function(s * bump[i] * w2, "exp") for i in range(len(ts))]
        )

    minus, plus = family(-h), family(h)
    res = first_variation(bc, minus, us, plus, h)
    dt = 1.0 / (len(ts) - 1)
    udot = _diff4(us, dt)
    x0 = np.stack([dagger(us[i]) @ udot[i] for i in range(len(ts))])
    y0 = np.stack([dagger(us[i]) @ (plus[i] - minus[i]) / (2.0 * h) for i in range(len(ts))])
    xdot = _diff4(x0, dt)
    boundary = float(
        np.real(inc.trace(dagger(x0[-1]) @ y0[-1]))
        - np.real(inc.trace(dagger(x0[0]) @ y0[0]))
    )
    integral = _simpson(
        np.array([np.real(inc.trace(dagger(xdot[i]) @ y0[i])) for i in range(len(ts))]), dt
    )

    def energy4(path):
        vel = _diff4(path, dt)
        return _simpson(np.array([inc.two_norm(v) ** 2 for v in vel]), dt)

    fd = (energy4(plus) - energy4(minus)) / (4.0 * h)
    assert _close(res.boundary_term, boundary)
    assert _close(res.integral_term, integral)
    assert _close(res.value, boundary - integral)
    assert _close(res.fd_value, fd)

    # the gap check accepts and rejects exactly where the loop's maximum
    # gap crosses 0.5, and reports that maximum; a six times faster curve
    # crosses it between strides 16 and 24
    fast = curve_from_unitaries(bc, wiggly_unitary_path(bc, 6.0 * z, w, 96)).samples
    verdicts = []
    for stride in (1, 8, 16, 24, 48):
        coarse = fast[::stride]
        gap = max(_reference_gaps(coarse))
        verdicts.append(gap < 0.5)
        if gap < 0.5:
            DiscreteCurve(bc=bc, samples=coarse)
        else:
            with pytest.raises(DomainError, match=f"gap {gap:.3f} >= 0.5"):
                DiscreteCurve(bc=bc, samples=coarse)
    assert verdicts == [True, True, True, False, False]


@pytest.mark.parametrize(
    "n_samples, kwargs, text",
    [
        (1, {"metric": "two_norm"}, "length functionals need at least two samples"),
        (5, {"metric": "sup"}, "unknown metric 'sup'"),
        (5, {"metric": "two_norm", "space": "arena"}, "unknown space 'arena'"),
        (5, {"metric": "two_norm", "order": 3}, "unknown order 3; use 2 or 4"),
        (5, {"metric": "op_norm", "order": 6}, "unknown order 6; use 2 or 4"),
    ],
)
def test_curve_lengths_refuses_unknown_arguments(constructions, n_samples, kwargs, text):
    bc = constructions["tensor(1,2)"]
    path = np.stack([bc.jones_p] * n_samples)
    with pytest.raises(DomainError, match=re.escape(text)):
        curve_lengths(bc, path, **kwargs)


def test_curve_gap_check_is_strict(constructions):
    # a gap of exactly 0.5 is refused, the largest float below it accepted;
    # the samples are multiples of the identity of L2(M), which lie in M1
    # and have exact gaps
    bc = constructions["tensor(2,2)"]
    one = np.eye(bc.dim_l2)
    for gap, ok in ((0.5, False), (np.nextafter(0.5, 0.0), True)):
        samples = np.stack([0.0 * one, gap * one, 0.0 * one])
        assert max(_reference_gaps(samples)) == gap
        if ok:
            DiscreteCurve(bc=bc, samples=samples)
        else:
            with pytest.raises(DomainError, match="gap 0.500 >= 0.5"):
                DiscreteCurve(bc=bc, samples=samples)


def test_curve_refuses_samples_outside_m1(constructions):
    # the arena matrix unit e00 of L2(M) is not in M1 on tensor(2,2), where
    # its compression to one copy of each block of M1 would under-read its
    # operator norm (0.5 against 1.0); the curve names the worst sample and
    # its defect
    bc = constructions["tensor(2,2)"]
    unit = np.zeros((bc.dim_l2, bc.dim_l2))
    unit[0, 0] = 1.0
    defect = bc.membership_defect(0.4 * unit)
    assert defect > 0.08
    samples = np.stack([0.0 * unit, 0.4 * unit, 0.0 * unit])
    with pytest.raises(
        MembershipError, match=f"curve sample 1 is outside the extension algebra .defect {defect:.3e}"
    ) as info:
        DiscreteCurve(bc=bc, samples=samples)
    assert info.value.defect == defect


def _lift_test_curves(bc, n, grid_n=256, seed=5):
    from subfactor_geo.suites import _poly_generator

    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, grid_n + 1)
    return [
        curve_from_unitaries(
            bc, spectral_function(_poly_generator(bc.inc.amb_basis, rng, ts), "exp")
        )
        for _ in range(n)
    ]


def test_stacked_lifts_equal_single_lifts_bitwise(constructions):
    for name in ("tensor(1,3)", "tensor(2,2)", "group_flip(scalars)"):
        bc = constructions[name].compressed
        curves = _lift_test_curves(bc, 3)
        stacked = lift_with_defects(curves)
        assert len(stacked) == 3
        for curve, (lift, recon, horiz) in zip(curves, stacked):
            one, one_recon, one_horiz = lift_with_defects(curve)
            assert np.array_equal(lift, one), name
            assert (recon, horiz) == (one_recon, one_horiz), name
            assert (recon, horiz) == lift_defects(curve, lift), name
    assert lift_with_defects([]) == []


def test_stacked_lift_refusal_names_its_curve(constructions):
    # a still curve lifts exactly; a moving one on 8 intervals misses LIFT_TOL
    bc = constructions["tensor(1,2)"]
    (moving,) = _lift_test_curves(bc, 1, grid_n=8)
    still = DiscreteCurve(bc=bc, samples=np.stack([bc.jones_p] * 9))
    with pytest.raises(RefinementError, match="^lift reconstruction defect"):
        lift_with_defects(moving)
    with pytest.raises(RefinementError, match="^trial 1: lift reconstruction defect"):
        lift_with_defects([still, moving, still])
    with pytest.raises(DomainError, match="stacked lifts need curves on one grid"):
        lift_with_defects([still, _lift_test_curves(bc, 1, grid_n=16)[0]])


def test_shorten_breaks_match_the_per_sample_reference(constructions, rng):
    # the breaks of one stacked norm per partition point are those of the
    # sample-by-sample walk: the last sample before the first at the bound
    bc = constructions["group_flip(m2)"]
    z = random_horizontal(bc.inc, rng, op_scale=0.25)
    w = random_antihermitian(rng, bc.inc.amb_basis)
    curve = curve_from_unitaries(bc, wiggly_unitary_path(bc, z, 0.3 * w / op_norm(w), 192))
    for bound in (0.1, 0.2, 0.3):
        qs = curve.samples
        breaks, i = [0], 0
        while i < len(qs) - 1:
            j = i + 1
            while j < len(qs) and op_norm(qs[j] - qs[i]) < bound:
                j += 1
            breaks.append(j - 1)
            i = j - 1
        assert shorten_to_polygonal(curve, segment_bound=bound).break_indices == tuple(breaks)
