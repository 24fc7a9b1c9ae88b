"""List the report records that two checkouts compute differently.

    python3 scripts/report_diff.py --parent DIR --change DIR

DIR is a checkout holding ``src/subfactor_geo``.  In each checkout the
script runs ``run_suites`` with every suite on the five built-in families
at seeds 777 and 901 (trials 100, grid 96), in one subprocess with
``PYTHONPATH=DIR/src`` and one BLAS thread, so that each side imports its
own package and neither side's roundoff depends on the thread count.  The
two checkouts run side by side.  It prints one line per record whose
status or ``worst_defect`` (as written to ``report.json``) differs, with
|Δ worst_defect|, then a count.  It exits 1 when any status differs, or
when a record is present on one side only.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

FAMILIES = ("tensor(1,2)", "tensor(1,3)", "tensor(2,2)", "group_flip(scalars)", "group_flip(m2)")
SEEDS = (777, 901)
TRIALS = 100
GRID = 96

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


def start(checkout: str) -> subprocess.Popen:
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    args = json.dumps([FAMILIES, SEEDS, TRIALS, GRID])
    return subprocess.Popen(
        [sys.executable, "-c", _RUN, args],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def records(proc: subprocess.Popen, checkout: str) -> dict[tuple, dict]:
    """Every record of the checkout's reports, keyed by (family, seed, suite, name)."""
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run_suites failed:\n{err}")
    found = {}
    for line in out.splitlines():
        doc = json.loads(line)
        for suite in doc["suites"]:
            for rec in suite["records"]:
                found[(doc["family"], doc["seed"], suite["name"], rec["name"])] = rec
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="DIR")
    parser.add_argument("--change", required=True, metavar="DIR")
    args = parser.parse_args(argv)

    procs = [start(args.parent), start(args.change)]
    parent, change = (records(p, d) for p, d in zip(procs, (args.parent, args.change)))
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
    return 1 if status_moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
