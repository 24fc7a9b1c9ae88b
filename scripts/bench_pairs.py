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
won (ties count for neither side).  ``--seeds`` must name at least two
seeds, since the quartiles need two runs a side; fewer is refused before
any run.  The output is rewritten after every workload, so an interrupted
run keeps the workloads already finished.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One untraced benchmark run: (environment line, result line)."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{checkout}: no result for {workload} seed {seed}:\n{out.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


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
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                env, result = run_once(getattr(args, side), workload, seed, seconds)
                report["environment"].setdefault(side, env["environment"])
                runs[side].append(result)
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
        report["workloads"][workload] = table
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
