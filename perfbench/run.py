"""Benchmark of subfactor-geo.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Each workload runs in fresh single-threaded worker processes that import the
package from ``src/`` of the working tree.  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics of one traced cycle.  The line
before it records the machine and thread settings.  Details of every checked
part, and the spans of a traced run, are written under
``.bench_out/<workload>/``.  The exit code is 0 only when every output
matched its recorded verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# the script's directory is not on sys.path under PYTHONSAFEPATH
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 9
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# a run must end within 180 s; leave room for reporting
RUN_BUDGET_S = 170.0


def _git_commit(root: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256(src: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _loadavg() -> tuple[float, ...] | None:
    try:
        return os.getloadavg()
    except OSError:  # the load average is unreadable on some systems
        return None


def host_environment(root: str, src: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_at_start": _loadavg(),
        "threads": THREAD_ENV,
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(src),
    }


def write_replacing(path: str, doc: dict) -> None:
    """Write a JSON document under a private name, then move it into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    os.replace(tmp, path)


class WorkerFailed(RuntimeError):
    pass


def run_worker(mode: str, args, root: str, env: dict, out: str, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    # named by both pids: runs that share a checkout never share a file
    result_path = os.path.join(out, f"worker-{mode}-{os.getpid()}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--out", out,
        "--result", result_path,
        "--spawned-at", repr(time.monotonic()),
    ]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"no time left for the {mode} worker")
    try:
        # the worker's own output goes to stderr: the last stdout line is ours
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded the run budget") from exc
    if done.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with code {done.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result


def end_to_end(args, root, env, out, deadline) -> tuple[dict, dict]:
    setups = [
        run_worker("setup", args, root, env, out, deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    timed = run_worker("timed", args, root, env, out, deadline)
    setups.append(timed["setup_s"])
    outcomes = timed["outcomes"]
    passed = sum(o["ok"] for o in outcomes)
    metrics = {
        "setup_s": statistics.median_low(setups),
        "run_s": timed["run_s"],
        "peak_rss_mb": timed["peak_rss_mb"],
        "pass_share": passed / len(outcomes),
    }
    timed["setup_samples_s"] = setups
    return metrics, timed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="subfactor-geo benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes: check the harness end to end in seconds, measure nothing",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "subfactor_geo", "__init__.py")):
        print(f"no package source under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print(f"missing {spec_path}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = os.path.join(root, ".bench_out", args.workload)
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    environment = host_environment(root, src)

    try:
        if args.trace:
            detail = run_worker("traced", args, root, env, out, deadline)
            metrics = detail["metrics"]
            problems = detail["self_check"]["problems"]
        else:
            metrics, detail = end_to_end(args, root, env, out, deadline)
            problems = []
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    environment.update(detail.pop("environment"))

    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        print(
            f"metrics disagree with BENCHMARK.json: missing {sorted(set(names) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(names))}",
            file=sys.stderr,
        )
        return 3
    outcomes = detail["outcomes"]
    failed = sum(not o["ok"] for o in outcomes)
    for o in outcomes:
        if not o["ok"]:
            problems.append(f"{o['part']}: {o['error'] or '; '.join(o['problems'])}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    write_replacing(
        os.path.join(out, "result.json"),
        {"environment": environment, "result": result, "detail": detail},
    )
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
