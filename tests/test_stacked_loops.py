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
from subfactor_geo.errors import DomainError, require_each
from subfactor_geo.linalg import exp_family
from subfactor_geo.orbit import (
    base_point,
    curve_lengths,
    first_variation,
    minimality_experiment,
    random_horizontal_at,
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
    with pytest.raises(DomainError, match="^family samples of family 1 are not unitary"):
        first_variation(bc, minus, zero, bad, 1e-3)
    with pytest.raises(DomainError, match="share one sampling grid"):
        first_variation(bc, minus, zero[:-1], plus, 1e-3)


def test_require_each_names_the_trial():
    with pytest.raises(DomainError, match="^trial 3: bad gate$"):
        require_each([None, None, DomainError("bad gate")], first=1)
    require_each([None, None])
