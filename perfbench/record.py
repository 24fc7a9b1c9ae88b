"""Record, from the current code, the verdicts the benchmark checks against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/record.py

Runs the first cycle of every workload, at full and smoke sizes, under two
benchmark seeds, plus the count self-check probe.  Every check record
status and sweep verdict must agree between the seeds; they are written to
``perfbench/expected.json``.  The artifact hashes of benchmark seed 0 at full
size are written too, for information only: they show which artifacts a
later change moved, and are never checked.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

# the script's directory is not on sys.path under PYTHONSAFEPATH
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

# A horizontal z with ‖z‖ ≤ r moves the base projection by at most r in
# operator norm (‖[z, q]‖ ≤ ‖z‖ along the geodesic), so every radius up to
# 0.5 stays inside the domain orbit_log accepts and must recover z.
RADIUS_FLOOR = 0.5
SEEDS = (0, 1)


def _merge(table: dict, key: str, value, where: str) -> None:
    if key in table and table[key] != value:
        raise SystemExit(f"{where}: {key} is {table[key]!r} at one seed, {value!r} at another")
    table[key] = value


def record_part(part, outcome, out: str, expected: dict) -> dict:
    """Merge the part's verdicts into ``expected``; return its reference facts."""
    if outcome.error is not None:
        raise SystemExit(f"{part.name} raised: {outcome.error}")
    facts: dict = {"sha256": outcome.sha256}
    if part.kind in ("verify", "suite"):
        table = expected["records"].setdefault(part.family, {})
        for key, status in workloads.record_statuses(outcome.raw).items():
            _merge(table, key, status, part.family)
    elif part.kind == "build":
        _merge(expected["m1_dim"], part.family, outcome.raw.dim_m1, "m1_dim")
    elif part.kind == "cli":
        verdict = {"exit": outcome.raw, "files": sorted(os.listdir(out))}
        if part.name == "sweep.radius_probe":
            verdict["largest_passing_radius_floor"] = RADIUS_FLOOR
            facts["largest_passing_radius"] = workloads.read_json(
                os.path.join(out, "radius_probe_summary.json")
            )["largest_passing_radius"]
        if part.name == "sweep.convexity":
            verdict["violations"] = workloads.read_json(os.path.join(out, "convexity_summary.json"))[
                "violations"
            ]
        _merge(expected["cli"], part.name, verdict, "cli")
        workloads.check(part, outcome, os.path.dirname(out), expected)
        if outcome.problems:
            raise SystemExit(f"{part.name}: {'; '.join(outcome.problems)}")
    return facts


def main() -> int:
    expected: dict = {"records": {}, "m1_dim": {}, "cli": {}, "reference": {}}
    runs = [
        (scale, workloads.parts_for(w, scale), "cycle0")
        for scale in (workloads.FULL, workloads.SMOKE)
        for w in workloads.WORKLOADS
    ]
    runs.append((None, [workloads.PROBE], "probe"))
    runs.append((None, [workloads.PROBE], "probe-alt0"))
    root = os.path.join(os.getcwd(), ".bench_out", "record")
    try:
        for scale, parts, label in runs:
            ctx = workloads.setup(parts)
            for bench_seed in SEEDS:
                seed = workloads.derive_seed(bench_seed, label)
                cycle_dir = os.path.join(root, "cycle")
                for part in parts:
                    outcome = workloads.run_part(part, ctx, seed, cycle_dir)
                    facts = record_part(
                        part, outcome, os.path.join(cycle_dir, part.name), expected
                    )
                    if scale is workloads.FULL and bench_seed == 0:
                        expected["reference"][part.name] = facts
                    print(f"{part.name} seed {bench_seed}: {outcome.seconds:.2f}s", flush=True)
                shutil.rmtree(cycle_dir)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    not_pass = [
        f"{fam}: {key}"
        for fam, table in expected["records"].items()
        for key, status in table.items()
        if status != "pass"
    ]
    for line in not_pass:
        print(f"recorded a non-pass verdict: {line}", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
