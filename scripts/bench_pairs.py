"""Run alternating parent/change pairs of the benchmark and summarise them.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload solve-sweep --workload verify --seeds 811-820 --out BENCH_N.json

DIR is a checkout (the parent commit or the change) holding
``perfbench/run.py`` and ``BENCHMARK.json``.  For every workload and seed the
script runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, T being ``run_seconds`` of the change's
``BENCHMARK.json``, the parent first on even pairs and the change first on
odd ones.  It writes, per workload and per end-to-end metric
of ``BENCHMARK.json``, each side's per-run values, median and quartiles
(``statistics.quantiles``, inclusive method), and how many pairs the change
won (ties count for neither side).  It also reads each run's
``.bench_out/<workload>/result.json`` and keeps, per part of the workload,
the lower median of the part's times in that run, summarised the same way
under ``parts``; this shows which part a change of ``run_s`` comes from.
After a workload's pairs, it runs ``perfbench/run.py --trace 1`` once in each
checkout at the first seed and keeps, under ``traced``, each side's exit
code, the ``correct`` field of its result line, its ``check failed:``
lines and the per-layer values of its result line (``layers``): a traced
run also checks every part against ``expected.json`` and runs the count
self-check, which untraced pairs do not show.  The script exits 1 when the
change's traced run of any workload fails.  ``--seeds`` must name at least
two seeds, since the quartiles need two runs a side; fewer is refused
before any run.  The output is rewritten after every workload, so an interrupted
run keeps the workloads already finished.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    """One untraced benchmark run: (environment line, result line, the lower
    median of each part's times)."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{checkout}: no result for {workload} seed {seed}:\n{out.stderr}")
    with open(os.path.join(checkout, ".bench_out", workload, "result.json")) as fh:
        outcomes = json.load(fh)["detail"]["outcomes"]
    times: dict[str, list[float]] = {}
    for o in outcomes:
        times.setdefault(o["part"], []).append(o["seconds"])
    parts = {part: statistics.median_low(t) for part, t in times.items()}
    return json.loads(lines[-2]), json.loads(lines[-1]), parts


def run_traced(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One traced benchmark run: its exit code, the ``correct`` field of its
    result line (None when it printed none), its ``check failed:`` lines and
    the per-layer values of its result line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    return {
        "seed": seed,
        "exit": out.returncode,
        "correct": result.get("correct"),
        "check_failed": [
            line for line in out.stderr.splitlines() if line.startswith("check failed:")
        ],
        "layers": {k: v["value"] for k, v in result.get("metrics", {}).items()},
    }


def side_summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="an inclusive range a-b of at least two seeds")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        # quartiles need two runs a side; refuse before any run is spent
        ap.error(f"--seeds must name at least two seeds, got {args.seeds!r}")

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "seeds": seeds,
        "order": "parent first on even pairs (0-based), change first on odd pairs",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "environment": {},
        "workloads": {},
    }
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        part_runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                env, result, parts = run_once(getattr(args, side), workload, seed, seconds)
                report["environment"].setdefault(side, env["environment"])
                runs[side].append(result)
                part_runs[side].append(parts)
                print(workload, seed, side, {m["name"]: result["metrics"][m["name"]]["value"]
                                             for m in metrics}, flush=True)
        table = {}
        for m in metrics:
            name = m["name"]
            vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
            better = (lambda c, p: c < p) if m["better"] == "lower" else (lambda c, p: c > p)
            table[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "parent": side_summary(vals["parent"]),
                "change": side_summary(vals["change"]),
                "change_wins": sum(better(c, p) for c, p in zip(vals["change"], vals["parent"])),
                "pairs": len(seeds),
            }
        table["all_correct"] = all(r["correct"] for s in runs for r in runs[s])
        table["parts"] = {
            part: {
                side: side_summary([p[part] for p in part_runs[side]]) for side in part_runs
            }
            for part in part_runs["change"][0]
        }
        table["traced"] = {
            side: run_traced(getattr(args, side), workload, seeds[0], seconds)
            for side in ("parent", "change")
        }
        print(workload, "traced", table["traced"], flush=True)
        report["workloads"][workload] = table
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    failed = [w for w, t in report["workloads"].items() if t["traced"]["change"]["exit"] != 0]
    if failed:
        print(f"the change's traced run failed on {', '.join(failed)}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
