"""Named verification suites over one inclusion family.

Each suite draws from its own seed-derived random stream, so results do not
depend on which other suites run or in which order.  Every record names the
formula it verifies (``paper_anchor``) and carries the worst defect seen
together with the sample count.
"""

from __future__ import annotations

import time

import numpy as np

from .algebra import (
    Inclusion,
    expectation_E,
    horizontal_projection,
    random_antihermitian,
    random_horizontal,
    random_unitary,
)
from .basic import (
    BasicConstruction,
    recover_unitary,
    verify_construction_properties,
)
from .config import SUITE_NAMES, RunConfig
from .errors import RadiusError
from .families import family_record
from .grassmann import (
    degeneracy_test,
    degenerate_geodesic_closed_form,
    grassmann_exp_block,
    sample_degenerate_direction,
    sample_nondegenerate_direction,
    tangent_decompose,
    tangent_space_comparison,
    totally_geodesic_audit,
)
from .linalg import dagger, exp_family, op_norm, polar_antihermitian, spectral_function
from .orbit import (
    CONVEXITY_RADIUS,
    base_point,
    convexity_probe,
    curve_from_unitaries,
    curve_lengths,
    covariant_derivative,
    delta_q,
    first_variation,
    geodesic_at,
    geodesic_equation_residual,
    grassmann_section,
    horizontal_lift,
    kappa_q,
    lift_defects,
    minimality_experiment,
    orbit_log,
    orbit_section_theta,
    random_horizontal_at,
    random_orbit_point,
    sample_convexity_triple,
    sample_geodesic,
    shorten_to_polygonal,
    tangent_projection,
)
from .report import CheckRecord, RunReport, SuiteReport, record
from .tolerances import CONVEXITY_TOL

def _suite_rng(cfg: RunConfig, suite: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, SUITE_NAMES.index(suite)])


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _random_m1_antihermitian(
    bc: BasicConstruction, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    k = bc.dim_m1
    c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    y = np.tensordot(c, bc.m1_basis, axes=1)
    y = 0.5 * (y - dagger(y))
    nrm = op_norm(y)
    return (scale / nrm) * y if nrm > 0 else y


def _p_commuting_unitary_path(
    bc: BasicConstruction, rng: np.random.Generator, ts: np.ndarray, scale: float = 0.5
) -> np.ndarray:
    """exp of a p-block-diagonal anti-Hermitian element of the extension,
    scaled along ts; commutes with the base projection at every time."""
    p = bc.jones_p
    comp = np.eye(bc.dim_l2) - p
    a = _random_m1_antihermitian(bc, rng, scale)
    a = p @ a @ p + comp @ a @ comp
    return exp_family(a, ts)


def _subalgebra_antihermitian(
    inc: Inclusion, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    c = rng.standard_normal(len(inc.embed_basis)) + 1j * rng.standard_normal(
        len(inc.embed_basis)
    )
    a = np.tensordot(c, inc.embed_basis, axes=1)
    a = 0.5 * (a - dagger(a))
    nrm = op_norm(a)
    return (scale / nrm) * a if nrm > 0 else a


def _poly_unitary_path(
    basis: np.ndarray,
    rng: np.random.Generator,
    ts: np.ndarray,
    scales: tuple[float, ...] = (0.35, 0.25, 0.15),
) -> np.ndarray:
    """u(t) = exp(sum_k t^{k+1} a_k) with anti-Hermitian a_k; u(0) = 1."""
    gens = []
    for s in scales:
        a = random_antihermitian(rng, basis)
        gens.append((s / max(op_norm(a), 1e-12)) * a)
    acc = np.zeros((len(ts),) + gens[0].shape, dtype=complex)
    tp = ts
    for a in gens:
        acc = acc + tp[:, None, None] * a
        tp = tp * ts
    return spectral_function(acc, "exp")


# ---------------------------------------------------------------------------
# the eight suites


def _suite_construction(bc: BasicConstruction, cfg: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(cfg, "construction")
    n = max(8, min(64, cfg.trials // 2))
    rep = verify_construction_properties(bc, n_samples=n, seed=_child_seed(rng))
    recs = [
        CheckRecord(
            name=f"property {r.index}: {r.name}",
            paper_anchor=r.paper_anchor,
            status="pass" if r.passed else "fail",
            worst_defect=float(r.worst_defect),
            samples=n,
        )
        for r in rep.records
    ]

    inc = bc.inc
    ident = inc.identity()
    p = bc.jones_p
    n_rec = max(4, cfg.trials // 2)
    worst = 0.0
    for _ in range(n_rec):
        v = random_unitary(rng, inc.amb_basis)
        c = _p_commuting_unitary_path(bc, rng, np.array([1.0]))[0]
        omega = bc.left(v) @ c
        u = recover_unitary(bc, omega)
        worst = max(
            worst,
            op_norm(dagger(u) @ u - ident),
            op_norm(bc.left(u) @ p - omega @ p),
        )
    recs.append(
        record("unitary recovery from the extension", "u = (1/λ)E₁(ωp)", worst, 1e-8, n_rec)
    )
    return recs


def _suite_metric(bc: BasicConstruction, cfg: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(cfg, "metric")
    inc = bc.inc
    n = cfg.trials
    sq2lam = np.sqrt(2.0 * bc.lam)
    sqlam = np.sqrt(bc.lam)
    recs = []

    worst_iso = worst_inv = 0.0
    for _ in range(n):
        pt = random_orbit_point(bc, rng)
        z = random_horizontal_at(pt, rng)
        tv = delta_q(pt, z)
        worst_iso = max(worst_iso, abs(tv.speed - sq2lam * inc.two_norm(z)))
        worst_inv = max(worst_inv, inc.two_norm(kappa_q(pt, tv.ambient) - z))
    recs.append(
        record(
            "tangent map scales the trace norm by √(2λ)",
            "δ_q(x) = d(ℓ_q)₁(x) = xq − qx",
            worst_iso,
            1e-10,
            n,
        )
    )
    recs.append(
        record("horizontal inverse of the tangent map", "κ_q(zq − qz) = z", worst_inv, 1e-10, n)
    )

    worst_split = 0.0
    for _ in range(n):
        x = random_antihermitian(rng, inc.amb_basis)
        e = expectation_E(inc, x)
        h = horizontal_projection(inc, x)
        worst_split = max(
            worst_split,
            inc.two_norm(x - e - h),
            inc.two_norm(expectation_E(inc, h)),
            abs(inc.trace(dagger(h) @ e)),
        )
    recs.append(
        record("kernel splitting of anti-Hermitian part", "M_ah = N_ah ⊕ H", worst_split, 1e-10, n)
    )

    worst_pi = 0.0
    worst_pyth = 0.0
    for _ in range(n):
        pt = random_orbit_point(bc, rng)
        # i times an anti-Hermitian extension element is a general Hermitian one
        x = 1j * _random_m1_antihermitian(bc, rng)
        px = tangent_projection(pt, x)
        y = 1j * _random_m1_antihermitian(bc, rng)
        py = tangent_projection(pt, y)
        tv = delta_q(pt, random_horizontal_at(pt, rng))
        worst_pi = max(
            worst_pi,
            bc.two_norm1(tangent_projection(pt, px) - px),
            abs(bc.inner1(px, y) - bc.inner1(x, py)),
            bc.two_norm1(tangent_projection(pt, tv.ambient) - tv.ambient),
            bc.two_norm1(tangent_projection(pt, x - px)),
        )
        worst_pyth = max(
            worst_pyth,
            abs(
                bc.two_norm1(x - px) ** 2
                + bc.two_norm1(px) ** 2
                - bc.two_norm1(x) ** 2
            ),
        )
    recs.append(
        record(
            "tangent projection: idempotent, symmetric, fixes tangents, kills normals",
            "Π_q(x) = (1/2λ)[E₁(xq − qx), q]",
            worst_pi,
            1e-10,
            n,
        )
    )
    recs.append(
        record(
            "orthogonal splitting of the tangent projection",
            "Π_q(x) = (1/2λ)[E₁(xq − qx), q]",
            worst_pyth,
            1e-9,
            n,
        )
    )

    # operator-norm bounds for the tangent map and the exponential spread
    n42 = 2 * n
    worst_42 = 0.0
    worst_43 = 0.0
    p = bc.jones_p
    for _ in range(n42):
        z = random_horizontal(inc, rng)
        lz = bc.left(z)
        worst_42 = max(worst_42, sqlam * op_norm(z) - op_norm(lz @ p - p @ lz))
        znorm = op_norm(z)
        zs = z * (rng.uniform(0.05, 0.95) * sqlam / znorm)
        zn = op_norm(zs)
        ez = spectral_function(zs, "exp")
        lez = bc.left(ez)
        spread = op_norm(lez @ p @ dagger(lez) - p)
        worst_43 = max(worst_43, zn * (sqlam - zn) - spread)
    recs.append(
        record(
            "tangent map operator-norm lower bound",
            "(T O(p))_q = {xq − qx : x ∈ M_ah}",
            worst_42,
            1e-10,
            n42,
        )
    )
    recs.append(
        record(
            "exponential spread lower bound",
            "α(t) = e^{tz}q e^{−tz}",
            worst_43,
            1e-10,
            n42,
        )
    )

    # local logarithm round-trip and the two-norm distance bound
    n_log = max(4, n // 2)
    worst_log = 0.0
    worst_dm = 0.0
    base = base_point(bc)
    for _ in range(n_log):
        z0 = random_horizontal_at(base, rng, op_scale=rng.uniform(0.02, 0.3))
        q1 = geodesic_at(base, z0, 1.0)
        res = orbit_log(base, q1, tol=1e-10)
        worst_log = max(worst_log, inc.two_norm(res.z - z0))
        worst_dm = max(
            worst_dm,
            bc.two_norm1(q1.q - base.q) - sq2lam * inc.two_norm(res.z),
        )
    recs.append(
        record(
            "local logarithm inverts the geodesic",
            "α(t) = e^{tz}q e^{−tz}",
            worst_log,
            1e-7,
            n_log,
        )
    )
    recs.append(
        record(
            "geodesic distance dominates the trace-norm distance",
            "L₂(α) = ∫₀¹ ‖α̇(t)‖₂ dt",
            worst_dm,
            1e-9,
            n_log,
        )
    )

    n_sec = max(4, n // 5)
    worst_sec = 0.0
    for _ in range(n_sec):
        z = random_horizontal_at(base, rng, op_scale=rng.uniform(0.05, 0.4))
        q1 = geodesic_at(base, z, 1.0)
        u = orbit_section_theta(bc, q1)
        lu = bc.left(u)
        worst_sec = max(
            worst_sec,
            op_norm(dagger(u) @ u - inc.identity()),
            op_norm(lu @ p @ dagger(lu) - q1.q),
        )
    recs.append(
        record(
            "cross section lands on the prescribed projection",
            "θ_p(q) = (1/λ)E₁(s_p(q)p)",
            worst_sec,
            1e-8,
            n_sec,
        )
    )
    return recs


def _suite_lifts(bc: BasicConstruction, cfg: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(cfg, "lifts")
    inc = bc.inc
    recs = []
    sqlam = np.sqrt(bc.lam)
    sq2lam = np.sqrt(2.0 * bc.lam)

    # geodesic equation on a fine grid
    n_geo = max(2, cfg.trials // 5)
    grid_geo = max(cfg.grid, 128)
    base = base_point(bc)
    worst_res = 0.0
    worst_cov = 0.0
    worst_cs = 0.0
    for _ in range(n_geo):
        z = random_horizontal_at(base, rng, op_scale=rng.uniform(0.2, 0.8))
        worst_res = max(worst_res, geodesic_equation_residual(base, z, grid_n=grid_geo))
        curve = sample_geodesic(base, z, grid_n=grid_geo)
        lz = bc.left(z)
        field = lz @ curve.samples - curve.samples @ lz
        cov = covariant_derivative(curve, field)
        dt = 1.0 / grid_geo
        worst_cov = max(worst_cov, bc.two_norm1(cov).max() - 8.0 * dt * dt)
        l2 = curve_lengths(bc, curve.samples, "two_norm")
        f2 = curve_lengths(bc, curve.samples, "energy")
        worst_cs = max(worst_cs, abs(l2 * l2 - f2))
    recs.append(
        record(
            "vanishing covariant acceleration of geodesics",
            "DX/dt = Π_γ(Ẋ)",
            worst_res,
            1e-8,
            n_geo,
        )
    )
    recs.append(
        record(
            "covariant derivative of the velocity field",
            "DX/dt = Π_γ(Ẋ)",
            worst_cov,
            1e-8,
            n_geo,
        )
    )
    recs.append(
        record(
            "constant-speed energy equals squared length",
            "F₂(γ) = ∫₀¹ ‖γ̇‖₂² dt",
            worst_cs,
            1e-6,
            n_geo,
        )
    )

    # horizontal lifts of random smooth curves
    n_lift = max(2, cfg.trials // 2)
    grid_lift = max(cfg.grid, 256)
    ts = np.linspace(0.0, 1.0, grid_lift + 1)
    worst_recon = worst_horiz = 0.0
    worst_len = 0.0
    worst_44 = 0.0
    worst_37_l2 = worst_37_linf = 0.0
    worst_eq = 0.0
    worst_39 = 0.0
    worst_el = 0.0
    ident = inc.identity()
    for _ in range(n_lift):
        us = _poly_unitary_path(inc.amb_basis, rng, ts)
        curve = curve_from_unitaries(bc, us)
        lift = horizontal_lift(curve)
        d_recon, d_horiz = lift_defects(curve, lift)
        worst_recon = max(worst_recon, d_recon)
        worst_horiz = max(worst_horiz, d_horiz)

        l2_curve = curve_lengths(bc, curve.samples, "two_norm")
        linf_curve = curve_lengths(bc, curve.samples, "op_norm")
        l2_lift = curve_lengths(bc, lift, "two_norm", space="lift")
        linf_lift = curve_lengths(bc, lift, "op_norm", space="lift")
        worst_len = max(worst_len, abs(l2_curve - sq2lam * l2_lift))
        worst_44 = max(worst_44, op_norm(lift[-1] - ident) - linf_curve / sqlam)
        f2_curve = curve_lengths(bc, curve.samples, "energy")
        worst_el = max(worst_el, l2_curve * l2_curve - f2_curve)

        # arbitrary alternate lift: right-translate by a unitary path in N
        a1 = _subalgebra_antihermitian(inc, rng, 0.4)
        a2 = _subalgebra_antihermitian(inc, rng, 0.3)
        vs = spectral_function(
            ts[:, None, None] * a1 + (ts * ts)[:, None, None] * a2, "exp"
        )
        alt = lift @ vs
        l2_alt = curve_lengths(bc, alt, "two_norm", space="lift")
        linf_alt = curve_lengths(bc, alt, "op_norm", space="lift")
        worst_37_l2 = max(worst_37_l2, l2_lift - l2_alt)
        worst_37_linf = max(worst_37_linf, linf_lift - 2.0 * linf_alt)

        # equality case: constant right translation
        v0 = spectral_function(_subalgebra_antihermitian(inc, rng, 0.5), "exp")
        eq_lift = lift @ v0
        l2_eq = curve_lengths(bc, eq_lift, "two_norm", space="lift")
        v_rec = dagger(lift) @ eq_lift
        drift = op_norm(v_rec[:: len(ts) // 8] - v0).max()
        lv0 = bc.left(v0)
        worst_eq = max(
            worst_eq,
            abs(l2_eq - l2_lift),
            drift,
            op_norm(lv0 @ curve.samples[0] - curve.samples[0] @ lv0),
        )

        # extension-algebra lift: right-translate by a p-commuting path
        cs = _p_commuting_unitary_path(bc, rng, ts, scale=0.4)
        omega = bc.left(lift) @ cs
        l2_omega = curve_lengths(bc, omega, "two_norm", space="orbit")
        worst_39 = max(worst_39, l2_lift - l2_omega / sqlam)

    recs.append(
        record(
            "lift reconstructs the curve",
            "Γ̇ = κ_γ(γ̇)Γ, Γ(0) = 1",
            worst_recon,
            1e-6,
            n_lift,
        )
    )
    recs.append(
        record("lift velocity stays horizontal", "Γ̇ ∈ H_γ Γ", worst_horiz, 1e-6, n_lift)
    )
    recs.append(
        record(
            "curve length is √(2λ) times lift length",
            "L₂(α) = ∫₀¹ ‖α̇(t)‖₂ dt",
            worst_len,
            1e-5,
            n_lift,
        )
    )
    recs.append(
        record(
            "endpoint displacement bounded by operator-norm length",
            "L_∞(γ) = ∫₀¹ ‖γ̇(t)‖ dt",
            worst_44,
            1e-5,
            n_lift,
        )
    )
    recs.append(
        record(
            "horizontal lift minimizes trace-norm length among lifts",
            "Γ̇ ∈ H_γ Γ",
            worst_37_l2,
            1e-5,
            n_lift,
        )
    )
    recs.append(
        record(
            "horizontal lift operator-norm length within twice any lift",
            "Γ̇ ∈ H_γ Γ",
            worst_37_linf,
            1e-5,
            n_lift,
        )
    )
    recs.append(
        record(
            "equal-length lifts differ by a constant commuting unitary",
            "Γ̇ = κ_γ(γ̇)Γ, Γ(0) = 1",
            worst_eq,
            1e-6,
            n_lift,
        )
    )
    recs.append(
        record(
            "extension-algebra lifts are at most 1/√λ shorter",
            "Γ̇ ∈ H_γ Γ",
            worst_39,
            1e-5,
            n_lift,
        )
    )
    recs.append(
        record(
            "length squared below energy",
            "F₂(γ) = ∫₀¹ ‖γ̇‖₂² dt",
            worst_el,
            1e-6,
            n_lift,
        )
    )
    return recs


def _suite_variation(bc: BasicConstruction, cfg: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(cfg, "variation")
    inc = bc.inc
    recs = []
    grid_n = max(cfg.grid, 96)
    ts = np.linspace(0.0, 1.0, grid_n + 1)
    h = 1e-3

    n_var = max(4, cfg.trials // 2)
    worst_fd = 0.0
    for _ in range(n_var):
        us = _poly_unitary_path(inc.amb_basis, rng, ts)
        w1 = random_antihermitian(rng, inc.amb_basis)
        w1 = w1 / max(op_norm(w1), 1e-12)
        w2 = random_antihermitian(rng, inc.amb_basis)
        w2 = w2 / max(op_norm(w2), 1e-12)
        profiles = w1 + ts[:, None, None] * w2

        def fam(s):
            return us @ spectral_function(s * profiles, "exp")

        res = first_variation(bc, fam(-h), us, fam(h), h)
        worst_fd = max(worst_fd, res.defect)
    recs.append(
        record(
            "variation formula matches the finite difference",
            "x_s(t) = γ_s(t)* d/dt γ_s(t) and y_s(t) = γ_s(t)* d/ds γ_s(t)",
            worst_fd,
            max(1e-5, 10.0 * h * h),
            n_var,
        )
    )

    n_crit = max(4, cfg.trials // 10)
    worst_crit = 0.0
    for _ in range(n_crit):
        z = random_horizontal(inc, rng, op_scale=rng.uniform(0.2, 0.8))
        us = exp_family(z, ts)
        w = random_antihermitian(rng, inc.amb_basis)
        w = w / max(op_norm(w), 1e-12)
        bump = 16.0 * ts * ts * (1.0 - ts) ** 2

        def fam(s):
            return us @ exp_family(w, s * bump)

        res = first_variation(bc, fam(-h), us, fam(h), h)
        worst_crit = max(worst_crit, abs(res.value))
    recs.append(
        record(
            "geodesics are energy-critical for endpoint-fixing variations",
            "F₂(γ) = ∫₀¹ ‖γ̇‖₂² dt",
            worst_crit,
            max(1e-5, 10.0 * h * h),
            n_crit,
        )
    )
    return recs


def _suite_minimality(bc: BasicConstruction, cfg: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(cfg, "minimality")
    recs = []
    base = base_point(bc)
    z = random_horizontal_at(base, rng, op_scale=0.25)
    rep = minimality_experiment(
        base,
        z,
        n_trials=cfg.trials,
        perturbation_scale=0.1,
        seed=_child_seed(rng),
        grid_n=max(64, cfg.grid),
        probe_radius=0.5,
    )
    ok = rep.n_violations == 0 and rep.n_within_radius > 0
    recs.append(
        CheckRecord(
            name="no shorter endpoint-fixing perturbation inside the probe radius",
            paper_anchor="either L_∞(γ) ≥ L_∞(α), or L₂(γ) ≥ L₂(α)",
            status="pass" if ok else "fail",
            worst_defect=float(rep.n_violations),
            samples=rep.n_trials,
        )
    )

    # polygonal shortening of a perturbed geodesic
    grid_n = max(96, cfg.grid)
    ts = np.linspace(0.0, 1.0, grid_n + 1)
    z2 = random_horizontal_at(base, rng, op_scale=0.3)
    w = random_antihermitian(rng, bc.inc.amb_basis)
    w = 0.05 * w / max(op_norm(w), 1e-12)
    bump = 16.0 * ts * ts * (1.0 - ts) ** 2
    us = exp_family(z2, ts) @ exp_family(w, bump)
    curve = curve_from_unitaries(bc, us)
    poly = shorten_to_polygonal(curve, segment_bound=0.25)
    defect = max(0.0, poly.total_length - poly.curve_length)
    recs.append(
        record(
            "piecewise geodesic through partition points is no longer",
            "∑ L₂(α_i) ≤ L₂(γ)",
            defect,
            1e-6,
            len(poly.arc_lengths),
        )
    )
    return recs


def _suite_convexity(bc: BasicConstruction, cfg: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(cfg, "convexity")
    inc = bc.inc
    recs = []
    n_con = max(4, cfg.trials // 2)
    worst = 0.0
    for _ in range(n_con):
        rep = convexity_probe(bc, *sample_convexity_triple(inc, rng), grid_n=32)
        worst = max(worst, -rep.min_second_difference)
    recs.append(
        record(
            "squared-distance profile has no concave node",
            "f(s) = d_k(u₀, δ(s))^k",
            worst,
            CONVEXITY_TOL,
            n_con,
        )
    )

    a = random_antihermitian(rng, inc.amb_basis)
    a = 1.4 * a / max(op_norm(a), 1e-12)
    far = spectral_function(a, "exp")
    gap = op_norm(far - inc.identity())
    try:
        convexity_probe(bc, inc.identity(), far, inc.identity(), grid_n=8)
        rejected = False
    except RadiusError:
        rejected = True
    recs.append(
        CheckRecord(
            name="triples outside the admissible radius are rejected",
            paper_anchor="‖u_i − u_j‖ < √(2 − √2) = r",
            status="pass" if (rejected and gap >= CONVEXITY_RADIUS) else "fail",
            worst_defect=0.0 if rejected else 1.0,
            samples=1,
        )
    )
    return recs


def _suite_grassmann(bc: BasicConstruction, cfg: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(cfg, "grassmann")
    inc = bc.inc
    recs = []
    p = bc.jones_p
    n = cfg.trials

    tc = tangent_space_comparison(bc)
    recs.append(
        CheckRecord(
            name="expectation-free ambient tangents match the orbit tangent space",
            paper_anchor="(T P(M₁))_p = {xp + px* : x ∈ N^⊥}",
            status="pass" if (tc.match and tc.span_defect <= 1e-9) else "fail",
            worst_defect=float(tc.span_defect),
            samples=tc.dim_expectation_free,
        )
    )

    worst_dec = 0.0
    n_dec = max(4, n // 2)
    for _ in range(n_dec):
        # a general expectation-free parameter: skew part plus i times one
        x = random_horizontal(inc, rng) + 1j * random_horizontal(inc, rng)
        lx = bc.left(x)
        v = lx @ p + p @ dagger(lx)
        dec = tangent_decompose(bc, v)
        worst_dec = max(worst_dec, inc.two_norm(dec.x - x))
    recs.append(
        record(
            "parameter recovery from an ambient tangent",
            "v = wp − pw = R(w)p + pR(w)*",
            worst_dec,
            1e-9,
            n_dec,
        )
    )

    worst_block = 0.0
    for _ in range(n):
        x = random_horizontal(inc, rng, op_scale=rng.uniform(0.1, 2.5))
        t = rng.uniform(0.0, 1.0)
        qb = grassmann_exp_block(bc, x, t)
        lx = bc.left(x)
        gen = lx @ p - p @ dagger(lx)
        ev = spectral_function(t * gen, "exp")
        worst_block = max(worst_block, op_norm(qb - ev @ p @ dagger(ev)))
    recs.append(
        record(
            "block exponential agrees with dense conjugation",
            "cos²(√(E(|x|²)))p",
            worst_block,
            1e-10,
            n,
        )
    )

    n_eff = max(8, n // 4)
    min_comm = np.inf
    for _ in range(n_eff):
        x = random_horizontal(inc, rng, op_scale=rng.uniform(0.1, np.pi - 0.1))
        lx = bc.left(x)
        gen = lx @ p - p @ dagger(lx)
        ev = spectral_function(gen, "exp")
        min_comm = min(min_comm, bc.two_norm1(ev @ p - p @ ev))
    recs.append(
        CheckRecord(
            name="codiagonal exponentials below norm π move the base projection",
            paper_anchor="‖x‖ < π",
            status="pass" if min_comm > 1e-8 else "fail",
            worst_defect=float(max(0.0, 1e-8 - min_comm)),
            samples=n_eff,
        )
    )

    n_sec = max(4, n // 5)
    worst_sec = 0.0
    for _ in range(n_sec):
        w = random_horizontal(inc, rng, op_scale=rng.uniform(0.05, 1.2))
        lw = bc.left(w)
        gen = lw @ p - p @ dagger(lw)
        ew = spectral_function(gen, "exp")
        q2 = ew @ p @ dagger(ew)
        x = grassmann_section(p, q2)
        worst_sec = max(worst_sec, op_norm(x - gen))
    recs.append(
        record(
            "section logarithm recovers the codiagonal generator",
            "s_{p₁}(p₂) = e^x",
            worst_sec,
            1e-9,
            n_sec,
        )
    )
    return recs


def _suite_degeneracy(bc: BasicConstruction, cfg: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(cfg, "degeneracy")
    inc = bc.inc
    recs = []
    p = bc.jones_p
    t_grid = np.linspace(0.0, 1.0, 33)
    closed_ts = np.array([0.3, 0.7, 1.0])

    def curve_gap(x: np.ndarray) -> float:
        lx = bc.left(x)
        gen = lx @ p - p @ dagger(lx)
        ev = exp_family(gen, t_grid)
        eu = exp_family(lx, t_grid)
        return op_norm(ev @ p @ dagger(ev) - eu @ p @ dagger(eu)).max()

    n_deg = max(6, cfg.trials // 10)
    worst_fwd = 0.0
    worst_closed = 0.0
    for _ in range(n_deg):
        x = sample_degenerate_direction(inc, rng)
        nrm = op_norm(x)
        if nrm > 1e-12:
            x = x / nrm
        worst_fwd = max(worst_fwd, curve_gap(x))
        for t, eu in zip(closed_ts.tolist(), exp_family(bc.left(x), closed_ts)):
            closed = degenerate_geodesic_closed_form(bc, x, t)
            worst_closed = max(worst_closed, op_norm(closed - eu @ p @ dagger(eu)))
    recs.append(
        record(
            "degenerate directions: both exponentials trace one curve",
            "x* = −x and x² ∈ N",
            worst_fwd,
            1e-9,
            n_deg,
        )
    )
    recs.append(
        record(
            "closed form of the degenerate geodesic",
            "γ_x(t) = p cos²(t|x|) + upu* sin²(t|x|) + ½[u, p]sin(2t|x|)",
            worst_closed,
            1e-9,
            n_deg,
        )
    )

    n_con = cfg.trials
    min_gap = np.inf
    for _ in range(n_con):
        x = sample_nondegenerate_direction(inc, rng)
        min_gap = min(min_gap, curve_gap(x))
    recs.append(
        CheckRecord(
            name="non-degenerate directions: the two exponentials diverge",
            paper_anchor="x* = −x and x² ∈ N",
            status="pass" if min_gap > 1e-8 else "fail",
            worst_defect=float(max(0.0, 1e-8 - min_gap)),
            samples=n_con,
        )
    )

    n_pol = max(8, cfg.trials // 5)
    worst_pol = 0.0
    for _ in range(n_pol):
        x = random_antihermitian(rng, inc.amb_basis)
        u, absx = polar_antihermitian(x)
        worst_pol = max(worst_pol, op_norm(u @ absx - x))
    recs.append(record("polar factorization of skew directions", "x = u|x|", worst_pol, 1e-10, n_pol))

    audit = totally_geodesic_audit(inc)
    family = family_record(inc.family_tag)
    expected = None if family is None else family.totally_geodesic
    ok = audit.holds if expected is None else audit.holds == expected
    if not audit.holds:
        # the witness pair has an anticommutator outside the subalgebra, so
        # one of a, b, a+b must square outside it
        witness_ok = False
        if audit.witness is not None:
            a, b = audit.witness
            witness_ok = any(
                not degeneracy_test(inc, c).degenerate for c in (a, b, a + b)
            )
        ok = ok and witness_ok
    recs.append(
        CheckRecord(
            name="orbit is totally geodesic exactly when kernel squares stay inside",
            paper_anchor="(N^⊥)² ⊂ N",
            status="pass" if ok else "fail",
            worst_defect=0.0 if ok else float(audit.max_defect),
            samples=audit.n_directions,
        )
    )
    return recs


_SUITE_FUNCS = {
    "construction": _suite_construction,
    "metric": _suite_metric,
    "lifts": _suite_lifts,
    "variation": _suite_variation,
    "minimality": _suite_minimality,
    "convexity": _suite_convexity,
    "grassmann": _suite_grassmann,
    "degeneracy": _suite_degeneracy,
}


def run_suites(bc: BasicConstruction, cfg: RunConfig) -> RunReport:
    """Run the configured suites in canonical order and collect a report."""
    suite_reports = []
    for name in cfg.suites:
        start = time.perf_counter()
        records = _SUITE_FUNCS[name](bc, cfg)
        elapsed = time.perf_counter() - start
        suite_reports.append(
            SuiteReport(name=name, records=tuple(records), wall_time_s=elapsed)
        )
    return RunReport(
        family=cfg.family,
        config_hash=cfg.config_hash(),
        seed=cfg.seed,
        suites=tuple(suite_reports),
    )
