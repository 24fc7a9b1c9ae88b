"""Named verification suites over one inclusion family.

Each suite draws from its own seed-derived random stream, so results do not
depend on which other suites run or in which order.  Every record names the
formula it verifies (``paper_anchor``) and carries the worst defect seen
together with the sample count.

Each loop draws its trials' random inputs in trial order, then runs its
work as stacked calls (loops over curves in the runs of ``trial_chunks``);
every gate decides per trial, and a refusal names its trial.
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
    OrbitPoint,
    base_point,
    convexity_probe,
    curve_from_unitaries,
    curve_lengths,
    covariant_derivative,
    first_variation,
    geodesic_endpoints,
    geodesic_with_residual,
    grassmann_section,
    kappas,
    lift_with_defects,
    minimality_experiment,
    orbit_log_batch,
    orbit_points,
    orbit_section_theta,
    random_horizontal_at,
    require_each,
    sample_convexity_triple,
    shorten_to_polygonal,
    tangent_projections,
    tangent_vectors,
    trial_chunks,
)
from .report import CheckRecord, RunReport, SuiteReport, record
from .tolerances import CONVEXITY_TOL

def _suite_rng(cfg: RunConfig, suite: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, SUITE_NAMES.index(suite)])


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _m1_antihermitian(bc: BasicConstruction, rng: np.random.Generator) -> np.ndarray:
    """A Gaussian anti-Hermitian element of the extension algebra."""
    k = bc.dim_m1
    y = bc.from_m1_coords(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return 0.5 * (y - dagger(y))


def _scaled(a: np.ndarray, scale: float) -> np.ndarray:
    """Each slice of a stack scaled to operator norm ``scale``; a zero slice
    stays zero.  The draws are normalized here, once per stack, after the
    loop that drew them: a slice of the stacked norm is bitwise its norm
    alone."""
    nrm = op_norm(a)
    return np.divide(scale, nrm, out=np.ones_like(nrm), where=nrm > 0)[:, None, None] * a


def _unitaries(a: np.ndarray, scale: float) -> np.ndarray:
    """random_unitary's map from its Gaussian draws, on a stack: e^a with
    each slice of a first scaled to operator norm ``scale``."""
    return spectral_function(_scaled(a, scale), "exp")


def _p_commuting(bc: BasicConstruction, a: np.ndarray) -> np.ndarray:
    """The p-block-diagonal part of each slice of a stack of anti-Hermitian
    elements of the extension; its exponentials commute with the base
    projection."""
    p = bc.jones_p
    comp = np.eye(bc.dim_l2) - p
    return p @ a @ p + comp @ a @ comp


def _geodesic_endpoints(point: OrbitPoint, zs: np.ndarray) -> np.ndarray:
    """The endpoints of the geodesics through the point along each slice of
    zs, raising the first refusal, named by its trial."""
    qs, refusals = geodesic_endpoints(point, zs)
    require_each(refusals)
    return qs


def _worst(*values) -> float:
    """The largest of 0 and every entry of the given arrays: the running
    maximum a per-trial loop would have kept, from 0."""
    return max([0.0] + [float(np.max(v)) for v in values])


def _subalgebra_antihermitian(inc: Inclusion, rng: np.random.Generator) -> np.ndarray:
    """A Gaussian anti-Hermitian element of the subalgebra."""
    c = rng.standard_normal(len(inc.embed_basis)) + 1j * rng.standard_normal(
        len(inc.embed_basis)
    )
    a = np.tensordot(c, inc.embed_basis, axes=1)
    return 0.5 * (a - dagger(a))


def _poly_generator(
    basis: np.ndarray,
    rng: np.random.Generator,
    ts: np.ndarray,
    scales: tuple[float, ...] = (0.35, 0.25, 0.15),
) -> np.ndarray:
    """sum_k t^{k+1} a_k on the grid ts, with anti-Hermitian a_k drawn from
    rng; its exponential is a unitary path u(t) with u(0) = 1."""
    gens = np.stack([random_antihermitian(rng, basis) for _ in scales])
    gens = (np.array(scales) / np.maximum(op_norm(gens), 1e-12))[:, None, None] * gens
    acc = np.zeros((len(ts),) + gens.shape[1:], dtype=complex)
    tp = ts
    for a in gens:
        acc = acc + tp[:, None, None] * a
        tp = tp * ts
    return acc


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
    p = bc.jones_p
    n_rec = max(4, cfg.trials // 2)
    draws = [
        (random_antihermitian(rng, inc.amb_basis), _m1_antihermitian(bc, rng))
        for _ in range(n_rec)
    ]
    gens, cs = (np.stack(d) for d in zip(*draws))
    cs = _p_commuting(bc, _scaled(cs, 0.5))
    omega = bc.left(_unitaries(gens, 1.0)) @ exp_family(cs, np.array([1.0]))[:, 0]
    u = recover_unitary(bc, omega)
    worst = _worst(
        op_norm(dagger(u) @ u - inc.identity()), op_norm(bc.left(u) @ p - omega @ p)
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

    # each loop draws its trials' inputs in trial order, then runs as stacks
    draws = [
        (random_antihermitian(rng, inc.amb_basis), random_horizontal(inc, rng)) for _ in range(n)
    ]
    gens, hs = (np.stack(d) for d in zip(*draws))
    us = _unitaries(gens, 0.7)
    zs = us @ hs @ dagger(us)
    qs = orbit_points(bc, us)
    amb = tangent_vectors(bc, qs, us, zs)
    worst_iso = _worst(np.abs(bc.two_norm1(amb) - sq2lam * inc.two_norm(zs)))
    worst_inv = _worst(inc.two_norm(kappas(bc, qs, amb) - zs))
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

    xs = np.stack([random_antihermitian(rng, inc.amb_basis) for _ in range(n)])
    e = expectation_E(inc, xs)
    h = horizontal_projection(inc, xs)
    worst_split = _worst(
        inc.two_norm(xs - e - h),
        inc.two_norm(expectation_E(inc, h)),
        np.abs(inc.trace(dagger(h) @ e)),
    )
    recs.append(
        record("kernel splitting of anti-Hermitian part", "M_ah = N_ah ⊕ H", worst_split, 1e-10, n)
    )

    draws = []
    for _ in range(n):
        gen = random_antihermitian(rng, inc.amb_basis)
        x = _m1_antihermitian(bc, rng)
        y = _m1_antihermitian(bc, rng)
        draws.append((gen, x, y, random_horizontal(inc, rng)))
    gens, xs, ys, hs = (np.stack(d) for d in zip(*draws))
    us = _unitaries(gens, 0.7)
    # i times an anti-Hermitian extension element is a general Hermitian one
    xs = 1j * _scaled(xs, 1.0)
    ys = 1j * _scaled(ys, 1.0)
    qs = orbit_points(bc, us)
    px = tangent_projections(bc, qs, xs)
    py = tangent_projections(bc, qs, ys)
    amb = tangent_vectors(bc, qs, us, us @ hs @ dagger(us))
    worst_pi = _worst(
        bc.two_norm1(tangent_projections(bc, qs, px) - px),
        np.abs(bc.inner1(px, ys) - bc.inner1(xs, py)),
        bc.two_norm1(tangent_projections(bc, qs, amb) - amb),
        bc.two_norm1(tangent_projections(bc, qs, xs - px)),
    )
    worst_pyth = _worst(
        np.abs(bc.two_norm1(xs - px) ** 2 + bc.two_norm1(px) ** 2 - bc.two_norm1(xs) ** 2)
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
    p = bc.jones_p
    draws = [(random_horizontal(inc, rng), rng.uniform(0.05, 0.95)) for _ in range(n42)]
    zs = np.stack([z for z, _ in draws])
    znorm = op_norm(zs)
    lz = bc.left(zs)
    # both differences are Hermitian: lz is anti-Hermitian and p Hermitian
    worst_42 = _worst(sqlam * znorm - op_norm(lz @ p - p @ lz, hermitian=True))
    zs = zs * (np.array([c for _, c in draws]) * sqlam / znorm)[:, None, None]
    zn = op_norm(zs)
    lez = bc.left(spectral_function(zs, "exp"))
    spread = op_norm(lez @ p @ dagger(lez) - p, hermitian=True)
    worst_43 = _worst(zn * (sqlam - zn) - spread)
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
    base = base_point(bc)
    z0s = np.stack(
        [
            random_horizontal_at(base, rng, op_scale=rng.uniform(0.02, 0.3))
            for _ in range(n_log)
        ]
    )
    q1s = _geodesic_endpoints(base, z0s)
    outcomes = orbit_log_batch(base, q1s, tol=1e-10)
    require_each([res if isinstance(res, Exception) else None for res in outcomes])
    z1s = np.stack([res.z for res in outcomes])
    worst_log = _worst(inc.two_norm(z1s - z0s))
    worst_dm = _worst(bc.two_norm1(q1s - base.q) - sq2lam * inc.two_norm(z1s))
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
    zs = np.stack(
        [
            random_horizontal_at(base, rng, op_scale=rng.uniform(0.05, 0.4))
            for _ in range(n_sec)
        ]
    )
    q1s = _geodesic_endpoints(base, zs)
    u = orbit_section_theta(bc, q1s)
    lu = bc.left(u)
    worst_sec = _worst(
        op_norm(dagger(u) @ u - inc.identity()),
        op_norm(lu @ p @ dagger(lu) - q1s, hermitian=True),
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
        curve, residual = geodesic_with_residual(base, z, grid_n=grid_geo)
        worst_res = max(worst_res, residual)
        lz = bc.left(z)
        field = lz @ curve.samples - curve.samples @ lz
        cov = covariant_derivative(curve, field)
        dt = 1.0 / grid_geo
        worst_cov = max(worst_cov, bc.two_norm1(cov).max() - 8.0 * dt * dt)
        l2, f2 = curve_lengths(bc, curve.samples, ("two_norm", "energy"))
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
    # the random inputs of every lift, drawn in the order of a lift-by-lift
    # loop, then one stacked lift call; the checks run curve by curve, each
    # path's velocity taken once for all its norms (stacking them across
    # curves held several more megabytes at peak for no measurable time)
    draws = []
    for _ in range(n_lift):
        gen = _poly_generator(inc.amb_basis, rng, ts)
        a1 = _subalgebra_antihermitian(inc, rng)
        a2 = _subalgebra_antihermitian(inc, rng)
        v0 = _subalgebra_antihermitian(inc, rng)
        draws.append((gen, a1, a2, v0, _m1_antihermitian(bc, rng)))
    gens, a1s, a2s, v0s, cs = zip(*draws)
    a1s, a2s = _scaled(np.stack(a1s), 0.4), _scaled(np.stack(a2s), 0.3)
    v0s = _unitaries(np.stack(v0s), 0.5)
    cs = _p_commuting(bc, _scaled(np.stack(cs), 0.4))
    curves = [curve_from_unitaries(bc, spectral_function(g, "exp"), base=base) for g in gens]
    lifts = lift_with_defects(curves)
    for curve, (lift, d_recon, d_horiz), a1, a2, v0, c in zip(curves, lifts, a1s, a2s, v0s, cs):
        worst_recon = max(worst_recon, d_recon)
        worst_horiz = max(worst_horiz, d_horiz)

        l2_curve, linf_curve, f2_curve = curve_lengths(
            bc, curve.samples, ("two_norm", "op_norm", "energy"), hermitian=True
        )
        l2_lift, linf_lift = curve_lengths(bc, lift, ("two_norm", "op_norm"), space="lift")
        worst_len = max(worst_len, abs(l2_curve - sq2lam * l2_lift))
        worst_44 = max(worst_44, op_norm(lift[-1] - ident) - linf_curve / sqlam)
        worst_el = max(worst_el, l2_curve * l2_curve - f2_curve)

        # arbitrary alternate lift: right-translate by a unitary path in N
        vs = spectral_function(
            ts[:, None, None] * a1 + (ts * ts)[:, None, None] * a2, "exp"
        )
        l2_alt, linf_alt = curve_lengths(bc, lift @ vs, ("two_norm", "op_norm"), space="lift")
        worst_37_l2 = max(worst_37_l2, l2_lift - l2_alt)
        worst_37_linf = max(worst_37_linf, linf_lift - 2.0 * linf_alt)

        # equality case: constant right translation
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
        omega = bc.left(lift) @ exp_family(c, ts)
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
    draws = []
    for _ in range(n_var):
        gen = _poly_generator(inc.amb_basis, rng, ts)
        w1 = random_antihermitian(rng, inc.amb_basis)
        w1 = w1 / max(op_norm(w1), 1e-12)
        w2 = random_antihermitian(rng, inc.amb_basis)
        w2 = w2 / max(op_norm(w2), 1e-12)
        draws.append((gen, w1 + ts[:, None, None] * w2))
    results = []
    for run in trial_chunks(bc, n_var, len(ts)):
        gens, profiles = (np.stack(d) for d in zip(*draws[run.start : run.stop]))
        us = spectral_function(gens, "exp")
        minus, plus = (us @ spectral_function(s * profiles, "exp") for s in (-h, h))
        results += first_variation(bc, minus, us, plus, h)
    recs.append(
        record(
            "variation formula matches the finite difference",
            "x_s(t) = γ_s(t)* d/dt γ_s(t) and y_s(t) = γ_s(t)* d/ds γ_s(t)",
            _worst([res.defect for res in results]),
            results[0].tol,
            n_var,
        )
    )

    n_crit = max(4, cfg.trials // 10)
    draws = []
    for _ in range(n_crit):
        z = random_horizontal(inc, rng, op_scale=rng.uniform(0.2, 0.8))
        w = random_antihermitian(rng, inc.amb_basis)
        draws.append((z, w / max(op_norm(w), 1e-12)))
    bump = 16.0 * ts * ts * (1.0 - ts) ** 2
    results = []
    for run in trial_chunks(bc, n_crit, len(ts)):
        zs, ws = (np.stack(d) for d in zip(*draws[run.start : run.stop]))
        us = exp_family(zs, ts)
        minus, plus = (us @ exp_family(ws, s * bump) for s in (-h, h))
        results += first_variation(bc, minus, us, plus, h)
    recs.append(
        record(
            "geodesics are energy-critical for endpoint-fixing variations",
            "F₂(γ) = ∫₀¹ ‖γ̇‖₂² dt",
            _worst([abs(res.value) for res in results]),
            results[0].tol,
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
    for rep in convexity_probe(bc, *sample_convexity_triple(inc, rng, n_con), grid_n=32):
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
            status="pass" if tc.match else "fail",
            worst_defect=float(tc.span_defect),
            samples=tc.dim_expectation_free,
        )
    )

    n_dec = max(4, n // 2)
    # a general expectation-free parameter: skew part plus i times one
    xs = np.stack(
        [random_horizontal(inc, rng) + 1j * random_horizontal(inc, rng) for _ in range(n_dec)]
    )
    lx = bc.left(xs)
    dec = tangent_decompose(bc, lx @ p + p @ dagger(lx))
    worst_dec = _worst(inc.two_norm(dec.x - xs))
    recs.append(
        record(
            "parameter recovery from an ambient tangent",
            "v = wp − pw = R(w)p + pR(w)*",
            worst_dec,
            1e-9,
            n_dec,
        )
    )

    draws = [
        (random_horizontal(inc, rng, op_scale=rng.uniform(0.1, 2.5)), rng.uniform(0.0, 1.0))
        for _ in range(n)
    ]
    xs = np.stack([x for x, _ in draws])
    ts = np.array([t for _, t in draws])
    qb = grassmann_exp_block(bc, xs, ts)
    lx = bc.left(xs)
    ev = spectral_function(ts[:, None, None] * (lx @ p - p @ dagger(lx)), "exp")
    worst_block = _worst(op_norm(qb - ev @ p @ dagger(ev)))
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
    xs = np.stack(
        [
            random_horizontal(inc, rng, op_scale=rng.uniform(0.1, np.pi - 0.1))
            for _ in range(n_eff)
        ]
    )
    lx = bc.left(xs)
    ev = spectral_function(lx @ p - p @ dagger(lx), "exp")
    min_comm = float(np.min(bc.two_norm1(ev @ p - p @ ev)))
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
    ws = np.stack(
        [random_horizontal(inc, rng, op_scale=rng.uniform(0.05, 1.2)) for _ in range(n_sec)]
    )
    lw = bc.left(ws)
    gen = lw @ p - p @ dagger(lw)
    ew = spectral_function(gen, "exp")
    x = grassmann_section(p, ew @ p @ dagger(ew))
    worst_sec = _worst(op_norm(x - gen, hermitian=True))
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

    def curve_gaps(xs: np.ndarray) -> np.ndarray:
        """For each slice x: the largest op-norm gap between the two
        exponential curves of x on t_grid, run by run."""
        gaps = []
        for run in trial_chunks(bc, len(xs), len(t_grid)):
            lx = bc.left(xs[run.start : run.stop])
            ev = exp_family(lx @ p - p @ dagger(lx), t_grid)
            eu = exp_family(lx, t_grid)
            diff = ev @ p @ dagger(ev) - eu @ p @ dagger(eu)
            gaps.append(op_norm(diff, hermitian=True).max(axis=1))
        return np.concatenate(gaps)

    n_deg = max(6, cfg.trials // 10)
    xs = []
    for _ in range(n_deg):
        x = sample_degenerate_direction(inc, rng)
        nrm = op_norm(x)
        xs.append(x / nrm if nrm > 1e-12 else x)
    xs = np.stack(xs)
    worst_closed = 0.0
    for x, eus in zip(xs, exp_family(bc.left(xs), closed_ts)):
        closed = degenerate_geodesic_closed_form(bc, x, closed_ts)
        worst_closed = _worst(worst_closed, op_norm(closed - eus @ p @ dagger(eus), hermitian=True))
    recs.append(
        record(
            "degenerate directions: both exponentials trace one curve",
            "x* = −x and x² ∈ N",
            _worst(curve_gaps(xs)),
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
    xs = np.stack([sample_nondegenerate_direction(inc, rng) for _ in range(n_con)])
    min_gap = float(np.min(curve_gaps(xs)))
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
    xs = np.stack([random_antihermitian(rng, inc.amb_basis) for _ in range(n_pol)])
    u, absx = polar_antihermitian(xs)
    worst_pol = _worst(op_norm(u @ absx - xs))
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
    """Run the configured suites in canonical order and collect a report.

    The construction suite verifies the construction on L2(M) itself; every
    other suite runs on ``bc.compressed``, where each block of M1 appears
    once, since everything they compute is algebraic in M1.
    """
    suite_reports = []
    for name in cfg.suites:
        start = time.perf_counter()
        records = _SUITE_FUNCS[name](bc if name == "construction" else bc.compressed, cfg)
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
