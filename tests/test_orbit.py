"""Orbit geometry: tangent maps, geodesics, lifts, logs, and experiments."""

import numpy as np
import pytest

from subfactor_geo.algebra import (
    expectation_E,
    random_antihermitian,
    random_element,
    random_horizontal,
    random_unitary,
)
from subfactor_geo.basic import expectation_E1
from subfactor_geo.errors import ConvergenceError, DomainError, MembershipError, RadiusError
from subfactor_geo.linalg import (
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
    geodesic_equation_residual,
    grassmann_section,
    horizontal_defect_at,
    horizontal_lift,
    kappa_q,
    lift_defects,
    minimality_experiment,
    orbit_log,
    orbit_point_from_witness,
    orbit_section_theta,
    random_horizontal_at,
    random_orbit_point,
    sample_convexity_triple,
    sample_geodesic,
    shorten_to_polygonal,
    tangent_projection,
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
        assert abs(v.speed - c * bc.inc.two_norm(z)) < 1e-10


def test_delta_rejects_non_horizontal(bc, rng):
    pt = base_point(bc)
    with pytest.raises(DomainError):
        delta_q(pt, 0.2 * bc.inc.identity())


def test_kappa_inverts_delta(bc, rng):
    for _ in range(8):
        pt = random_orbit_point(bc, rng)
        z = random_horizontal_at(pt, rng, op_scale=0.4)
        v = delta_q(pt, z)
        z_rec = kappa_q(pt, v.ambient)
        assert bc.inc.two_norm(z_rec - z) < 1e-9


def test_kappa_matches_closed_form_at_base(bc, rng):
    # at the base, z = pullback(E1(vq - qv) / (2 lam)) is an independent route
    pt = base_point(bc)
    q = pt.q
    for _ in range(8):
        z = random_horizontal(bc.inc, rng, op_scale=0.4)
        v = delta_q(pt, z).ambient
        comm = v @ q - q @ v
        z_direct = bc.pullback(expectation_E1(bc, comm) / (2.0 * bc.lam))
        assert bc.inc.two_norm(kappa_q(pt, v) - z_direct) < 1e-9
        assert bc.inc.two_norm(z_direct - z) < 1e-9


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
    v = delta_q(pt, z).ambient
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


def test_lift_stays_unitary_without_reunitarization(bc):
    # RK4 steps are not projected back onto the unitaries; on the lifts
    # suite's polynomial paths the drift stays far below the 1e-10 gate
    from subfactor_geo.suites import _poly_unitary_path

    rng = np.random.default_rng(12)
    ts = np.linspace(0.0, 1.0, 257)
    curve = curve_from_unitaries(bc, _poly_unitary_path(bc.inc.amb_basis, rng, ts))
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
    iterations = 0
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
        if not improved:
            raise ConvergenceError("stalled", residual=res, iterations=iterations)
        iterations += 1
    return OrbitLogResult(z=z, residual=res, iterations=iterations)


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
    rng = np.random.default_rng(8)
    ref_rng = np.random.default_rng(8)
    for _ in range(4):
        u0, u1, u2 = sample_convexity_triple(inc, rng)
        ref_triple = []
        for _ in range(3):
            a = random_antihermitian(ref_rng, inc.amb_basis)
            a = ref_rng.uniform(0.05, 0.25) * a / max(op_norm(a), 1e-12)
            ref_triple.append(spectral_function(a, "exp"))
        for got, ref in zip((u0, u1, u2), ref_triple):
            assert np.array_equal(got, ref)

        rep = convexity_probe(bc, u0, u1, u2, grid_n=32)
        # one 2-D logarithm per grid point; two_norm gives a Python float,
        # so ** 2 is CPython's float power (libm pow), which can differ by
        # an ulp from numpy's x * x: the probe must square Python floats too
        w = log_unitary_principal(dagger(u1) @ u2)
        ref_f = []
        for e in exp_family(w, np.linspace(0.0, 1.0, 33)):
            lg = log_unitary_principal(dagger(u0) @ (u1 @ e))
            ref_f.append(inc.two_norm(lg) ** 2)
        assert rep.f_values == tuple(ref_f)


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
        wi = lift[i] @ curve.witnesses[0]
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


def test_curve_gap_check_is_strict(constructions):
    # a gap of exactly 0.5 is refused, the largest float below it accepted;
    # the samples are multiples of a matrix unit so that every gap is exact
    bc = constructions["tensor(2,2)"]
    unit = np.zeros((bc.dim_l2, bc.dim_l2))
    unit[0, 0] = 1.0
    for gap, ok in ((0.5, False), (np.nextafter(0.5, 0.0), True)):
        samples = np.stack([0.0 * unit, gap * unit, 0.0 * unit])
        assert max(_reference_gaps(samples)) == gap
        if ok:
            DiscreteCurve(bc=bc, samples=samples)
        else:
            with pytest.raises(DomainError, match="gap 0.500 >= 0.5"):
                DiscreteCurve(bc=bc, samples=samples)
