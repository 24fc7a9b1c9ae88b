"""Tests of the benchmark's own code.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_and_units(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT_RE.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_seed_derivation_is_pure_and_spread():
    assert workloads.derive_seed(7, "cycle0") == workloads.derive_seed(7, "cycle0")
    seeds = {workloads.derive_seed(s, f"cycle{c}") for s in range(5) for c in range(5)}
    assert len(seeds) == 25
    assert all(0 <= s < 2**63 for s in seeds)


def _ladder_cycle(parts, expected):
    ctx = workloads.setup(parts)
    cycle_dir = os.path.join(ROOT, ".bench_out", "test-ladder")
    return workloads.run_cycle(parts, ctx, 11, cycle_dir, expected)


def test_forced_construction_failure_counts_as_failed():
    parts = workloads.parts_for("build-ladder", workloads.SMOKE)
    broken = workloads.Part(
        parts[0].name,
        parts[0].kind,
        {**parts[0].doc, "inclusion": {**parts[0].doc["inclusion"], "lam": 0.9}},
    )
    outcomes = _ladder_cycle([broken] + parts[1:], workloads.load_expected())
    assert [o.ok for o in outcomes] == [False, True, True]
    assert outcomes[0].error.startswith("ConstructionError")
    assert sum(not o.ok for o in outcomes) / len(outcomes) == pytest.approx(1 / 3)


def test_verdict_drift_counts_as_failed():
    parts = workloads.parts_for("build-ladder", workloads.SMOKE)
    expected = workloads.load_expected()
    table = expected["records"][parts[-1].family]
    key = sorted(table)[0]
    table[key] = "fail"
    expected["m1_dim"][parts[0].family] += 1
    outcomes = _ladder_cycle(parts, expected)
    assert [o.ok for o in outcomes] == [False, True, False]
    assert any(key in p for p in outcomes[2].problems)


def test_tracer_spans_nest_and_uninstall_restores():
    from subfactor_geo import linalg, orbit

    original_svd = np.linalg.svd
    tracer = tracing.Tracer()
    tracer.run_id = "t"
    tracer.install()
    try:
        assert orbit.op_norm is linalg.op_norm is not None
        assert getattr(orbit.op_norm, "__wrapped__", None) is not None
        with tracer.span("outer"):
            orbit.op_norm(np.eye(3) * 2.0)
    finally:
        tracer.uninstall()
    assert np.linalg.svd is original_svd
    for name, module in list(sys.modules.items()):
        if name.startswith(tracing.PACKAGE) and module is not None:
            for key, value in vars(module).items():
                assert not hasattr(value, "__wrapped__"), f"{name}.{key} still wrapped"
    summary = tracer.summary(("t",))
    assert summary["linalg.op_norm"]["calls"] == 1
    assert summary["lapack.svd"]["calls"] == 1
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]
    assert tracer.note("lapack.svd.bytes", ("t",)) == np.eye(3).nbytes
    assert tracer.missing == []


def test_self_check_needs_one_other_seed_to_move_the_counts():
    base = {"orbit.orbit_log_iters": 26.0, "linalg.op_norm_calls": 1191.0}
    moved = {"orbit.orbit_log_iters": 32.0, "linalg.op_norm_calls": 1269.0}
    assert worker.self_check_problems(base, dict(base), [dict(base), moved]) == []
    assert worker.self_check_problems(base, dict(base), [dict(base)] * 3) == [
        "counts do not change with the seed"
    ]
    assert worker.self_check_problems(base, moved, [moved])[0].startswith("counts differ")


def _run_bench(*args, cwd=ROOT, **env_vars):
    env = dict(os.environ, **env_vars)
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [("verify", 0), ("build-ladder", 0), ("solve-sweep", 0), ("solve-sweep", 1)],
)
def test_smoke_output_schema(spec, workload, trace):
    done = _run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert "environment" in json.loads(lines[-2])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert set(value) == {"value", "unit"} and value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0


def test_runs_when_the_script_directory_is_not_on_the_path():
    done = _run_bench(
        "--workload", "verify", "--seed", "5", "--seconds", "1", "--smoke",
        PYTHONSAFEPATH="1",
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench("--workload", "verify", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
