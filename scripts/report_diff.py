"""List the report records that two checkouts compute differently.

    python3 scripts/report_diff.py --parent DIR --change DIR [--cli]

DIR is a checkout holding ``src/subfactor_geo``.  In each checkout the
script runs ``run_suites`` with every suite on the five built-in families
at seeds 777 and 901 (trials 100, grid 96), in one subprocess with
``PYTHONPATH=DIR/src`` and one BLAS thread, so that each side imports its
own package and neither side's roundoff depends on the thread count.  The
two checkouts run side by side.  It prints one line per record whose
status or ``worst_defect`` (as written to ``report.json``) differs, with
|Δ worst_defect|, then a count.  It exits 1 when any status differs, or
when a record is present on one side only.

With ``--cli`` each checkout also runs, the same way, the CLI's
``geodesic``, then ``log`` on the geodesic's ``q_start.txt`` and
``q_end.txt``, then ``sweep`` of each experiment, on tensor(2,2) at seeds 3
and 777 (trials 160), into a temporary directory.  The script prints each
artifact whose bytes differ, with the largest |Δ| between the numbers the
two files hold in order, and each verdict that differs: a command's exit
code, ``largest_passing_radius`` or ``violations``.  It also exits 1 when a
verdict differs, or when an artifact is present on one side only.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

FAMILIES = ("tensor(1,2)", "tensor(1,3)", "tensor(2,2)", "group_flip(scalars)", "group_flip(m2)")
SEEDS = (777, 901)
TRIALS = 100
GRID = 96
CLI_FAMILY = "tensor(2,2)"
CLI_SEEDS = (3, 777)
CLI_TRIALS = 160
EXPERIMENTS = ("minimality", "convexity", "radius_probe")
# summary fields that carry a sweep's verdict
VERDICTS = {"radius_probe": "largest_passing_radius", "minimality": "violations",
            "convexity": "violations"}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

# runs inside a checkout; prints one report.json document per line
_RUN = """
import json, sys
from subfactor_geo import family_construction
from subfactor_geo.config import parse_config
from subfactor_geo.suites import run_suites

families, seeds, trials, grid = json.loads(sys.argv[1])
for family in families:
    bc = family_construction(family)
    for seed in seeds:
        cfg = parse_config(
            {"inclusion": {"family": family}, "seed": seed, "trials": trials, "grid": grid}
        )
        print(run_suites(bc, cfg).to_json(), flush=True)
"""

# runs inside a checkout; writes the artifacts of each seed under out/<seed>
# and prints the exit code of each command as one JSON document
_RUN_CLI = """
import contextlib, io, json, os, sys
from subfactor_geo.cli import main

out, family, seeds, trials, experiments = json.loads(sys.argv[1])
codes = {}
for seed in seeds:
    d = os.path.join(out, str(seed))
    common = ["--family", family, "--seed", str(seed), "--trials", str(trials), "--out", d]
    runs = [("geodesic", ["geodesic", *common]),
            ("log", ["log", os.path.join(d, "q_start.txt"), os.path.join(d, "q_end.txt"), *common])]
    runs += [(f"sweep {e}", ["sweep", e, *common]) for e in experiments]
    for name, argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            codes[f"{name} at {seed}"] = main(argv)
print(json.dumps(codes))
"""


def start(checkout: str, script: str, payload: list) -> subprocess.Popen:
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return subprocess.Popen(
        [sys.executable, "-c", script, json.dumps(payload)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(proc: subprocess.Popen, checkout: str) -> str:
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run failed:\n{err}")
    return out


def records(out: str) -> dict[tuple, dict]:
    """Every record of the checkout's reports, keyed by (family, seed, suite, name)."""
    found = {}
    for line in out.splitlines():
        doc = json.loads(line)
        for suite in doc["suites"]:
            for rec in suite["records"]:
                found[(doc["family"], doc["seed"], suite["name"], rec["name"])] = rec
    return found


def artifacts(root: str) -> dict[str, bytes]:
    """Every file under root, keyed by its path relative to root."""
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def largest_delta(a: bytes, b: bytes) -> str:
    """The largest |Δ| between the numbers of two texts, taken in order."""
    xs, ys = (_NUMBER.findall(t.decode()) for t in (a, b))
    if len(xs) != len(ys):
        return f"{len(xs)} -> {len(ys)} numbers"
    return f"|Δ| {max((abs(float(x) - float(y)) for x, y in zip(xs, ys)), default=0.0):.1e}"


def verdicts(codes: dict[str, int], files: dict[str, bytes]) -> dict[str, object]:
    """Exit code of each command, and the verdict field of each sweep summary."""
    found: dict[str, object] = {f"exit code of {name}": code for name, code in codes.items()}
    for path, data in files.items():
        seed, name = os.path.split(path)
        experiment = name.removesuffix("_summary.json")
        if experiment in VERDICTS:
            field = VERDICTS[experiment]
            found[f"{field} of sweep {experiment} at {seed}"] = json.loads(data).get(field)
    return found


def compare_cli(parent: tuple, change: tuple) -> int:
    """Print the artifacts and verdicts that differ; the number of verdicts
    that differ, or artifacts present on one side only."""
    (codes_a, files_a), (codes_b, files_b) = parent, change
    changed = 0
    for path in sorted(set(files_a) | set(files_b)):
        a, b = files_a.get(path), files_b.get(path)
        if a is None or b is None:
            print(f"artifact {path}: only in the {'change' if a is None else 'parent'}")
            changed += 1
        elif a != b:
            print(f"artifact {path}: bytes differ, {largest_delta(a, b)}")
    verdict_a, verdict_b = verdicts(codes_a, files_a), verdicts(codes_b, files_b)
    for key in sorted(set(verdict_a) | set(verdict_b)):
        if verdict_a.get(key) != verdict_b.get(key):
            print(f"{key}: {verdict_a.get(key)!r} -> {verdict_b.get(key)!r}")
            changed += 1
    same = sum(files_a.get(p) == files_b.get(p) for p in files_b)
    print(f"{len(files_b)} artifacts, {same} byte-identical; {changed} verdicts or presence changed")
    return changed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="DIR")
    parser.add_argument("--change", required=True, metavar="DIR")
    parser.add_argument("--cli", action="store_true", help="also compare the CLI's artifacts")
    args = parser.parse_args(argv)
    checkouts = (args.parent, args.change)

    with tempfile.TemporaryDirectory() as tmp:
        procs = [start(c, _RUN, [FAMILIES, SEEDS, TRIALS, GRID]) for c in checkouts]
        if args.cli:
            outs = [os.path.join(tmp, side) for side in ("parent", "change")]
            procs += [
                start(c, _RUN_CLI, [out, CLI_FAMILY, CLI_SEEDS, CLI_TRIALS, EXPERIMENTS])
                for c, out in zip(checkouts, outs)
            ]
        results = [finish(p, c) for p, c in zip(procs, checkouts * 2)]
        cli_changed = 0
        if args.cli:
            cli_changed = compare_cli(
                *((json.loads(r), artifacts(out)) for r, out in zip(results[2:], outs))
            )
    parent, change = (records(out) for out in results[:2])
    status_moved = 0
    moved = 0
    for key in sorted(set(parent) | set(change), key=str):
        family, seed, suite, name = key
        a, b = parent.get(key), change.get(key)
        label = f'{family} at {seed}: {suite} "{name}"'
        if a is None or b is None:
            print(f"{label}: only in the {'change' if a is None else 'parent'}")
            status_moved += 1
            continue
        if a["status"] != b["status"]:
            print(f"{label}: status {a['status']} -> {b['status']}")
            status_moved += 1
        if a["worst_defect"] != b["worst_defect"]:
            delta = abs(b["worst_defect"] - a["worst_defect"])
            print(f"{label}: worst_defect {a['worst_defect']!r} -> {b['worst_defect']!r}, |Δ| {delta:.1e}")
            moved += 1
    print(
        f"{len(change)} records; {moved} worst_defect moved; "
        f"{status_moved} status or presence changed"
    )
    return 1 if status_moved or cli_changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
