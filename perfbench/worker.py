"""One benchmark process: set up a workload, then measure it.

Started by ``run.py`` with the single-threaded environment already set and
the package's ``src`` directory on ``PYTHONPATH``.  Modes:

- ``setup``: time from process start to the first checked call, then exit.
- ``timed``: set up, then run cycles of the workload with tracing off.
- ``traced``: set up under tracing, run each part of one cycle untraced and
  then traced (the ratio of the two is the tracing overhead), then run the
  count self-check; per-layer metrics come from the traced set-up and cycle.

The result is one JSON document written to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

# the script's directory is not on sys.path under PYTHONSAFEPATH
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# counts that must repeat exactly at one seed and move under another
SELF_CHECK_COUNTS = (
    "lapack.svd_calls",
    "lapack.eigh_calls",
    "lapack.eigvalsh_calls",
    "lapack.schur_calls",
    "linalg.op_norm_calls",
    "orbit.point_checks",
    "orbit.orbit_log_iters",
    "orbit.orbit_log_backtracks",
)
# The probe's counts all follow its orbit_log iterations, so two seeds give
# equal counts about one time in ten; the seed is shown to reach the program
# when any of several other seeds changes them (all equal: about 1e-5).
PROBE_OTHER_SEEDS = 5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _outcome_docs(outcomes) -> list[dict]:
    return [
        {
            "part": o.part,
            "seconds": o.seconds,
            "ok": o.ok,
            "error": o.error,
            "problems": o.problems,
            "bytes": o.bytes,
            "sha256": o.sha256,
        }
        for o in outcomes
    ]


def program_environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def layer_metrics(tracer, runs: tuple[str, ...], reports, cycle_outcomes) -> dict:
    """Per-layer metrics of one traced set-up plus cycle."""
    from subfactor_geo.tolerances import LIFT_TOL

    summary = tracer.summary(runs)

    def calls(name):
        return float(summary.get(name, {}).get("calls", 0))

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    iters = tracer.note("orbit_log_iters", runs)
    in_log = tracer.count_children("orbit.geodesic_at", "orbit.orbit_log", runs)
    m = {
        "orbit.horizontal_lift_calls": calls("orbit.horizontal_lift"),
        "orbit.horizontal_lift_s": total("orbit.horizontal_lift"),
        "orbit.lift_defects_s": total("orbit.lift_defects"),
        "orbit.lift_defect_ratio": tracer.note("lift_recon_max", runs, max) / LIFT_TOL,
        "orbit.curve_lengths_calls": calls("orbit.curve_lengths"),
        "orbit.curve_lengths_s": total("orbit.curve_lengths"),
        "orbit.first_variation_calls": calls("orbit.first_variation"),
        "orbit.first_variation_s": total("orbit.first_variation"),
        "orbit.curve_checks": calls("orbit.curve_check"),
        "orbit.minimality_s": total("orbit.minimality_experiment"),
        "orbit.orbit_log_calls": calls("orbit.orbit_log"),
        "orbit.orbit_log_s": total("orbit.orbit_log"),
        "orbit.orbit_log_iters": iters,
        "orbit.orbit_log_backtracks": in_log - iters,
        "orbit.orbit_log_failures": tracer.note("orbit_log_failures", runs),
        "orbit.point_checks": calls("orbit.point_check"),
        "orbit.point_check_s": total("orbit.point_check"),
        "orbit.convexity_probe_s": total("orbit.convexity_probe"),
        "linalg.op_norm_calls": calls("linalg.op_norm"),
        "linalg.op_norm_s": total("linalg.op_norm"),
        "linalg.spectral_function_calls": calls("linalg.spectral_function"),
        "linalg.spectral_function_s": total("linalg.spectral_function"),
        "linalg.log_unitary_calls": calls("linalg.log_unitary"),
        "linalg.log_unitary_s": total("linalg.log_unitary"),
        "linalg.nearest_unitary_calls": calls("linalg.nearest_unitary"),
        "lapack.svd_calls": calls("lapack.svd"),
        "lapack.eigh_calls": calls("lapack.eigh"),
        "lapack.eigvalsh_calls": calls("lapack.eigvalsh"),
        "lapack.schur_calls": calls("lapack.schur"),
        "lapack.svd_bytes": tracer.note("lapack.svd.bytes", runs),
        "lapack.eigh_bytes": tracer.note("lapack.eigh.bytes", runs),
        "basic.build_calls": calls("basic.build"),
        "basic.build_s": total("basic.build"),
        "basic.props_s": total("basic.props"),
        "basic.m1_dim": tracer.note("m1_dim", runs, max),
        "basic.reduce_R_calls": calls("basic.reduce_R"),
        "algebra.inclusion_s": total("algebra.inclusion"),
        "algebra.pp_probe_calls": calls("algebra.pp_probe"),
        "algebra.pp_probe_s": total("algebra.pp_probe"),
        "algebra.pp_probes": tracer.note("pp_probes", runs),
        "algebra.expectation_E_calls": calls("algebra.expectation_E"),
        "grassmann.audit_s": total("grassmann.audit"),
        "grassmann.tangent_comparison_s": total("grassmann.tangent_comparison"),
        "grassmann.exp_block_calls": calls("grassmann.exp_block"),
        "cli.write_s": total("cli.write"),
        "report.bytes": float(sum(o.bytes for o in cycle_outcomes)),
    }
    from subfactor_geo.config import SUITE_NAMES

    suite_s = dict.fromkeys(SUITE_NAMES, 0.0)
    by_dim = {2: 0.0, 16: 0.0}
    for dim, report in reports:
        for s in report.suites:
            suite_s[s.name] += s.wall_time_s
            if dim in by_dim:
                by_dim[dim] += s.wall_time_s
    for name, seconds in suite_s.items():
        m[f"suites.{name}_s"] = seconds
    m["suites.total.d2_s"] = by_dim[2]
    m["suites.total.d16_s"] = by_dim[16]
    return m


def self_check_problems(at_seed: dict, again: dict, other_seeds: list[dict]) -> list[str]:
    """Counts must repeat at one seed and change under at least one other."""
    problems = []
    if at_seed != again:
        problems.append(f"counts differ at one seed: {at_seed} vs {again}")
    if all(c == at_seed for c in other_seeds):
        problems.append("counts do not change with the seed")
    return problems


def run_traced(parts, bench_seed: int, work_root: str, expected: dict, trace_path: str) -> dict:
    tracer = Tracer()
    tracer.run_id = "setup"
    tracer.install()
    try:
        ctx = workloads.setup(parts)
    finally:
        tracer.uninstall()

    # each part runs untraced and then traced at once, so that a change of
    # machine speed during the run touches both sides of the overhead alike
    seed = workloads.derive_seed(bench_seed, "cycle0")
    untraced_dir = os.path.join(work_root, "untraced")
    traced_dir = os.path.join(work_root, "traced")
    untraced, traced = [], []
    tracer.run_id = "cycle"
    for part in parts:
        untraced.append(workloads.run_checked(part, ctx, seed, untraced_dir, expected))
        tracer.install()
        try:
            traced.append(
                workloads.run_checked(part, ctx, seed, traced_dir, expected, tracer.span)
            )
        finally:
            tracer.uninstall()
    untraced_s = sum(o.seconds for o in untraced)
    traced_s = sum(o.seconds for o in traced)

    # suite times are the program's own wall times, taken from the untraced
    # cycle so that they compare directly with run_s
    reports = [
        (workloads.algebra_dim(p, ctx), o.raw)
        for p, o in zip(parts, untraced)
        if p.kind in ("verify", "suite") and o.ok
    ]
    metrics = layer_metrics(tracer, ("setup", "cycle"), reports, traced)
    metrics["bench.cycle_s"] = untraced_s
    metrics["bench.traced_cycle_s"] = traced_s
    metrics["bench.trace_overhead_frac"] = traced_s / untraced_s - 1.0

    probe = workloads.PROBE
    probe_ctx = workloads.setup([probe])
    probe_outcomes = []
    counts = {}
    probe_runs = [("probe-a", "probe"), ("probe-a2", "probe")]
    probe_runs += [(f"probe-b{i}", f"probe-alt{i}") for i in range(PROBE_OTHER_SEEDS)]
    tracer.install()
    try:
        for run_id, label in probe_runs:
            tracer.run_id = run_id
            probe_outcomes += workloads.run_cycle(
                [probe], probe_ctx, workloads.derive_seed(bench_seed, label),
                os.path.join(work_root, run_id), expected,
            )
            counts[run_id] = {
                k: v for k, v in layer_metrics(tracer, (run_id,), [], []).items()
                if k in SELF_CHECK_COUNTS
            }
    finally:
        tracer.uninstall()
    problems = self_check_problems(
        counts["probe-a"], counts["probe-a2"], [counts[r] for r, _ in probe_runs[2:]]
    )
    tracer.write(trace_path, ("setup", "cycle"))
    return {
        "metrics": metrics,
        "outcomes": _outcome_docs(untraced + traced + probe_outcomes),
        "self_check": {"counts": counts, "problems": problems},
        "missing_targets": tracer.missing,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    expected = workloads.load_expected()
    work_root = os.path.join(args.out, f"work-{os.getpid()}")
    result: dict = {"mode": args.mode}
    try:
        parts = workloads.parts_for(args.workload, scale)
        if args.mode == "traced":
            result.update(
                run_traced(parts, args.seed, work_root, expected,
                           os.path.join(args.out, "trace.json"))
            )
        else:
            ctx = workloads.setup(parts)
            result["setup_s"] = time.monotonic() - args.spawned_at
            if args.mode == "timed":
                outcomes, cycle_s = workloads.measure(
                    parts, ctx, args.seed, args.seconds, work_root, expected
                )
                result["run_s"] = cycle_s
                result["outcomes"] = _outcome_docs(outcomes)
                if args.seed == 0:
                    first_cycle = outcomes[: len(parts)]
                    result["moved_artifacts"] = workloads.moved_artifacts(first_cycle, expected)
        result["peak_rss_mb"] = peak_rss_mb()
        result["environment"] = program_environment()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
