"""The stacked verification loops against their trial-by-trial form.

Each suite draws its random inputs in the order of a per-trial loop and then
runs its exponentials, gates, tangent maps, lengths and norms as stacked
calls.  ``legacy_loops`` keeps the per-trial loops; on two families the two
forms must give the same statuses and worst defects within 1e-12.  Stacked
calls over curve-valued trials must hold at most max(n_trials, grid + 1)
matrices of the uncompressed D x D, counted in entries.
"""

import os

import numpy as np
import pytest

import subfactor_geo.cli as cli
from legacy_loops import LEGACY_SUITES, radius_probe_rows
from subfactor_geo.config import SUITE_NAMES, parse_config
from subfactor_geo.algebra import random_antihermitian, random_horizontal, random_unitary
from subfactor_geo.basic import recover_unitary, reduce_R
from subfactor_geo.errors import DomainError, RadiusError, bound_gate, refusals, require_each
from subfactor_geo.grassmann import grassmann_exp_block, tangent_decompose
from subfactor_geo.linalg import dagger, exp_family, norm_gate, op_norm, spectral_function
from subfactor_geo.orbit import (
    DiscreteCurve,
    base_point,
    convexity_probe,
    curve_from_unitaries,
    curve_lengths,
    first_variation,
    grassmann_section,
    lift_with_defects,
    minimality_experiment,
    orbit_section_theta,
    random_horizontal_at,
    random_orbit_point,
    sample_convexity_triple,
    sample_geodesic,
    trial_chunks,
)
from subfactor_geo.report import write_csv_rows
from subfactor_geo.suites import _SUITE_FUNCS

FAMILIES = ["tensor(1,3)", "group_flip(m2)"]


def _config(family, seed=777, trials=8):
    return parse_config(
        {
            "inclusion": {"family": family},
            "suites": list(SUITE_NAMES),
            "seed": seed,
            "trials": trials,
            "grid": 96,
        }
    )


@pytest.mark.parametrize("suite", sorted(LEGACY_SUITES))
@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_suite_matches_the_per_trial_loops(constructions, family, suite):
    bc = constructions[family]
    on = bc if suite == "construction" else bc.compressed
    cfg = _config(family)
    stacked = _SUITE_FUNCS[suite](on, cfg)
    legacy = LEGACY_SUITES[suite](on, cfg)
    assert [r.name for r in stacked] == [r.name for r in legacy]
    for new, old in zip(stacked, legacy):
        assert new.status == old.status, new.name
        assert new.samples == old.samples, new.name
        assert abs(new.worst_defect - old.worst_defect) <= 1e-12, new.name


@pytest.mark.parametrize("family", FAMILIES)
def test_radius_probe_in_one_solve_matches_one_solve_per_radius(
    constructions, family, tmp_path
):
    bc = constructions[family].compressed
    cli._sweep_radius(bc, _config(family, seed=5, trials=16), str(tmp_path))
    with open(os.path.join(tmp_path, "radius_probe.csv"), "rb") as fh:
        written = fh.read()
    header = written.decode().splitlines()[0].split(",")
    reference = os.path.join(tmp_path, "reference.csv")
    write_csv_rows(reference, header, radius_probe_rows(bc, 5, 16))
    with open(reference, "rb") as fh:
        assert fh.read() == written


def test_trial_chunks_respect_the_entry_bound(constructions):
    # 4 minimality trials per call on tensor(2,2) (D = 16, r = 8), 1 on
    # group_flip(scalars) (D = 2)
    for family, per_call in (("tensor(2,2)", 4), ("group_flip(scalars)", 1)):
        bc = constructions[family].compressed
        runs = trial_chunks(bc, 20, 97)
        assert max(len(r) for r in runs) == per_call
        assert [t for r in runs for t in r] == list(range(20))
    bc = constructions["tensor(2,2)"].compressed
    assert trial_chunks(bc, 0, 97) == []
    assert [len(r) for r in trial_chunks(bc, 200, 97)] == [8] * 25


def _record_lapack_sizes(monkeypatch):
    """Wrap numpy's SVD and Hermitian eigensolvers, recording the number of
    entries of every operand they receive."""
    sizes = []
    for name in ("svd", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def wrapped(a, *args, _original=original, **kwargs):
            sizes.append(np.size(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)
    return sizes


@pytest.mark.parametrize("family", ["tensor(2,2)", "group_flip(scalars)"])
def test_no_stacked_call_exceeds_the_entry_bound(constructions, family, monkeypatch):
    bc = constructions[family].compressed
    d = bc.inc.dim
    base = base_point(bc)
    z = random_horizontal_at(base, np.random.default_rng(1), op_scale=0.25)
    sizes = _record_lapack_sizes(monkeypatch)
    rep = minimality_experiment(base, z, n_trials=20, perturbation_scale=0.1, seed=3)
    assert rep.n_trials == 20
    assert max(sizes) <= max(20, 97) * d * d
    # the curve-valued loops of the variation and degeneracy suites: trials 20,
    # curves of 97 and 33 samples
    cfg = _config(family, trials=20)
    for suite, samples in (("variation", 97), ("degeneracy", 33)):
        sizes.clear()
        _SUITE_FUNCS[suite](bc, cfg)
        assert max(sizes) <= max(cfg.trials, samples) * d * d, suite


def test_stacked_curve_lengths_are_bitwise_each_path_alone(constructions):
    bc = constructions["tensor(2,2)"].compressed
    base = base_point(bc)
    rng = np.random.default_rng(4)
    paths = np.stack(
        [
            sample_geodesic(base, random_horizontal_at(base, rng, op_scale=0.3), 64).samples
            for _ in range(3)
        ]
    )
    metrics = ("two_norm", "op_norm", "energy")
    for order in (2, 4):
        stacked = curve_lengths(bc, paths, metrics, order=order, hermitian=True)
        for name, values in zip(metrics, stacked):
            for path, value in zip(paths, values):
                assert value == curve_lengths(bc, path, name, order=order, hermitian=True)
                assert abs(value - curve_lengths(bc, path, name, order=order)) <= 4e-15 * value


def test_stacked_first_variation_is_each_family_alone(constructions):
    bc = constructions["group_flip(m2)"].compressed
    rng = np.random.default_rng(6)
    ts = np.linspace(0.0, 1.0, 65)
    bump = 16.0 * ts * ts * (1.0 - ts) ** 2
    zero = exp_family(random_horizontal_at(base_point(bc), rng, op_scale=0.3), ts)
    ws = np.stack([random_horizontal_at(base_point(bc), rng, op_scale=1.0) for _ in range(3)])
    minus, plus = (zero @ exp_family(ws, s * bump) for s in (-1e-3, 1e-3))
    results = first_variation(bc, minus, zero, plus, 1e-3)
    assert len(results) == 3
    for k, res in enumerate(results):
        alone = first_variation(bc, minus[k], zero, plus[k], 1e-3)
        assert abs(res.value - alone.value) <= 1e-12
        assert abs(res.fd_value - alone.fd_value) <= 1e-12
    assert first_variation(bc, minus, np.stack([zero] * 3), plus, 1e-3)[2].value == results[2].value
    bad = plus.copy()
    bad[1] = bad[1] * 1.01
    with pytest.raises(DomainError, match="^trial 1: family samples are not unitary"):
        first_variation(bc, minus, zero, bad, 1e-3)
    with pytest.raises(DomainError, match="share one sampling grid"):
        first_variation(bc, minus, zero[:-1], plus, 1e-3)


def test_require_each_names_the_trial():
    with pytest.raises(DomainError, match="^trial 3: bad gate$"):
        require_each([None, None, DomainError("bad gate")], first=1)
    require_each([None, None])


def test_refusals_take_the_first_failing_gate_of_each_slice():
    built = []

    def gate(ok, name):
        def refuse(k):
            built.append((name, k))
            return DomainError(f"{name} {k}")

        return np.array(ok, dtype=bool), refuse

    out = refusals(
        4, gate([True, False, False, True], "a"), gate([False, True, False, True], "b")
    )
    assert [None if r is None else str(r) for r in out] == ["b 0", "a 1", "a 2", None]
    # refuse runs for the failing slices only, once each, for the first gate
    assert built == [("b", 0), ("a", 1), ("a", 2)]
    assert refusals(0, gate([], "a")) == []
    assert refusals(0, norm_gate(np.zeros((0, 2, 2)), 1.0, "{}")) == []


def test_bound_gate_refuses_with_its_defect_and_type():
    ok, refuse = bound_gate(np.array([0.5, 2.0, 1.0]), 1.0, "defect {:.1f}", RadiusError)
    assert ok.tolist() == [True, False, True]
    assert type(refuse(1)) is RadiusError
    assert str(refuse(1)) == "defect 2.0"
    assert type(bound_gate([3.0], 1.0, "{}")[1](0)) is DomainError


def test_norm_gate_decides_per_path_and_reports_the_exact_norm():
    # (n, T, m, m): a path passes only when every matrix on it does
    paths = np.zeros((3, 4, 2, 2), dtype=complex)
    paths[1, 2] = np.diag([0.0, 3.0])
    # Frobenius norm sqrt(2) > 1.2, operator norm 1 <= 1.2: decided exactly
    paths[2] = np.eye(2)
    ok, refuse = norm_gate(paths, 1.2, "norm {:.2f}")
    assert ok.tolist() == [True, False, True]
    assert type(refuse(1)) is DomainError
    assert str(refuse(1)) == "norm 3.00"
    ok, refuse = norm_gate(paths[:, 2], 1.0, "norm {:.2f}", RadiusError)
    assert ok.tolist() == [True, False, True]
    assert type(refuse(1)) is RadiusError


def _dual_mode_case(name, constructions):
    """(call, good, bad): call(*args) for one slice's arguments or for the
    stacks of them; bad fails a gate that good passes."""
    rng = np.random.default_rng(23)
    bc = constructions["tensor(2,2)"]
    inc, p = bc.inc, bc.jones_p
    if name == "reduce_R":
        y = rng.standard_normal((bc.dim_l2,) * 2) + 1j * rng.standard_normal((bc.dim_l2,) * 2)
        return (lambda a: reduce_R(bc, a)), (p,), (y,)
    if name == "recover_unitary":
        omega = bc.left(random_unitary(rng, inc.amb_basis, 0.6))
        return (lambda a: recover_unitary(bc, a)), (omega,), (1.1 * omega,)
    if name == "tangent_decompose":
        lx = bc.left(random_horizontal(inc, rng, op_scale=0.3))
        v = lx @ p + p @ dagger(lx)
        return (lambda a: tangent_decompose(bc, a)), (v,), (1j * v,)
    if name == "grassmann_exp_block":
        x = random_horizontal(inc, rng, op_scale=0.3)
        call = lambda a, t: grassmann_exp_block(bc, a, t)  # noqa: E731
        return call, (x, 0.5), (4.0 * x / op_norm(x), 0.5)
    if name in ("grassmann_section", "orbit_section_theta"):
        q = random_orbit_point(bc, rng, scale=0.2).q
        far = np.eye(bc.dim_l2) - p
        if name == "grassmann_section":
            return (lambda a: grassmann_section(p, a)), (q,), (far,)
        return (lambda a: orbit_section_theta(bc, a)), (q,), (far,)
    if name == "lift_with_defects":
        from subfactor_geo.suites import _poly_generator

        small = constructions["tensor(1,2)"]
        ts = np.linspace(0.0, 1.0, 9)
        us = spectral_function(_poly_generator(small.inc.amb_basis, rng, ts), "exp")
        still = DiscreteCurve(bc=small, samples=np.stack([small.jones_p] * 9))
        return (lambda a: lift_with_defects(a)), (still,), (curve_from_unitaries(small, us),)
    if name == "first_variation":
        ts = np.linspace(0.0, 1.0, 65)
        bump = 16.0 * ts * ts * (1.0 - ts) ** 2
        zero = exp_family(random_horizontal_at(base_point(bc), rng, op_scale=0.3), ts)
        w = random_horizontal_at(base_point(bc), rng, op_scale=1.0)
        minus, plus = (zero @ exp_family(w, s * bump) for s in (-1e-3, 1e-3))
        call = lambda *a: first_variation(bc, *a, 1e-3)  # noqa: E731
        return call, (minus, zero, plus), (minus, zero, 1.01 * plus)
    assert name == "convexity_probe"
    u0, u1, u2 = sample_convexity_triple(inc, rng)
    a = random_antihermitian(rng, inc.amb_basis)
    wide = u0 @ spectral_function(1.4 * a / op_norm(a), "exp")
    call = lambda *u: convexity_probe(bc, *u, grid_n=8)  # noqa: E731
    return call, (u0, u1, u2), (u0, u1, wide)


@pytest.mark.parametrize(
    "name",
    [
        "reduce_R",
        "recover_unitary",
        "tangent_decompose",
        "grassmann_exp_block",
        "grassmann_section",
        "orbit_section_theta",
        "lift_with_defects",
        "first_variation",
        "convexity_probe",
    ],
)
def test_a_stack_refuses_its_failing_slice_as_the_single_call_does(constructions, name):
    call, good, bad = _dual_mode_case(name, constructions)
    call(*good)
    with pytest.raises(Exception) as single:
        call(*bad)
    slices = [good, good, bad, good]
    stacks = [
        list(parts) if isinstance(parts[0], DiscreteCurve) else np.stack(parts)
        for parts in zip(*slices)
    ]
    with pytest.raises(type(single.value)) as stacked:
        call(*stacks)
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == f"trial 2: {single.value}"
