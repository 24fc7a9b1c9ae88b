"""The benchmark's workloads: what each one runs and how its outputs are checked.

A workload is a cycle of parts.  A part is one checked call into the
program.  It receives a RunConfig document (or CLI arguments) generated from
the benchmark seed, runs, writes its artifacts and is then checked against
the verdicts recorded in ``expected.json``.  A part fails when it raises,
when a check record's status differs from the recorded one, or when a
recorded sweep verdict does not hold.

Workloads (see README.md for why each was chosen):

- ``verify``: ``run_suites`` with all eight suites on a D=2 and a D=16
  family, the report written to disk; the builds happen in set-up.
- ``build-ladder``: two extension builds that stress the Gram-Schmidt loop
  (K=625) and the D^4 multiplicativity check (D=36), then the construction
  suite on tensor(1,4), whose property 1 is the memory cliff.
- ``solve-sweep``: the CLI's ``sweep radius_probe``, ``sweep convexity``,
  ``geodesic`` and ``log`` on tensor(2,2): ``orbit_log`` as a solver.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("verify", "build-ladder", "solve-sweep")
VERIFY_FAMILIES = ("group_flip(scalars)", "tensor(2,2)")
SWEEP_FAMILY = "tensor(2,2)"


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload cycle."""

    verify_trials: int
    verify_grid: int
    ladder_builds: tuple[str, ...]
    ladder_suite: str
    sweep_trials: int


# FULL is what the benchmark measures; SMOKE runs every code path of the
# harness in a few seconds and is used by its tests.
FULL = Scale(20, 96, ("tensor(1,5)", "tensor(2,3)"), "tensor(1,4)", 160)
SMOKE = Scale(2, 96, ("tensor(1,2)", "tensor(2,2)"), "tensor(1,3)", 8)


@dataclass(frozen=True)
class Part:
    """One checked call.  ``doc`` is a RunConfig document without its seed;
    ``argv`` are CLI arguments, formatted with ``{cycle}`` (the cycle's
    output directory) and completed with ``--seed`` and ``--out``."""

    name: str
    kind: str  # verify | build | suite | cli
    doc: dict = field(default_factory=dict)
    argv: tuple[str, ...] = ()

    @property
    def family(self) -> str:
        return self.doc["inclusion"]["family"]


@dataclass
class Outcome:
    part: str
    seconds: float
    raw: object = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    bytes: int = 0
    sha256: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def parts_for(workload: str, scale: Scale = FULL) -> list[Part]:
    from subfactor_geo.config import SUITE_NAMES

    if workload == "verify":
        return [
            Part(
                f"verify.{fam}",
                "verify",
                {
                    "inclusion": {"family": fam},
                    "suites": list(SUITE_NAMES),
                    "trials": scale.verify_trials,
                    "grid": scale.verify_grid,
                },
            )
            for fam in VERIFY_FAMILIES
        ]
    if workload == "build-ladder":
        builds = [
            Part(f"build.{fam}", "build", {"inclusion": {"family": fam}, "suites": []})
            for fam in scale.ladder_builds
        ]
        fam = scale.ladder_suite
        return builds + [
            Part(
                f"construction.{fam}",
                "suite",
                {
                    "inclusion": {"family": fam},
                    "suites": ["construction"],
                    "trials": scale.verify_trials,
                },
            )
        ]
    if workload == "solve-sweep":
        fam_args = ("--family", SWEEP_FAMILY)
        trials = ("--trials", str(scale.sweep_trials))
        return [
            Part("sweep.radius_probe", "cli", argv=("sweep", *fam_args, *trials, "radius_probe")),
            Part("sweep.convexity", "cli", argv=("sweep", *fam_args, *trials, "convexity")),
            Part("geodesic", "cli", argv=("geodesic", *fam_args)),
            Part(
                "log",
                "cli",
                argv=(
                    "log",
                    *fam_args,
                    os.path.join("{cycle}", "geodesic", "q_start.txt"),
                    os.path.join("{cycle}", "geodesic", "q_end.txt"),
                ),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# the count self-check probe: small, seeded, and exercises orbit_log, the
# orbit-point gate, op_norm and every LAPACK routine but schur
PROBE = Part(
    "probe.metric",
    "suite",
    {"inclusion": {"family": "tensor(2,2)"}, "suites": ["metric"], "trials": 8},
)


def derive_seed(bench_seed: int, label: str) -> int:
    """Program seed for one cycle, a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"perfbench:{bench_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _config(part: Part, seed: int, out: str | None = None):
    from subfactor_geo.config import parse_config

    doc = json.loads(json.dumps(part.doc))
    doc["seed"] = seed
    if out is not None:
        doc["output_dir"] = out
    return parse_config(doc)


def setup(parts: list[Part]) -> dict:
    """Everything that precedes the first checked call: imports, inclusion
    construction, and the builds that are not the workload's own work."""
    import subfactor_geo.cli  # noqa: F401  (imported here, not in a part)
    from subfactor_geo.basic import build_basic_construction

    ctx: dict = {"constructions": {}, "inclusions": {}}
    for part in parts:
        if part.kind == "cli":
            continue
        inc = _config(part, 0).build_inclusion()
        if part.kind == "verify":
            ctx["constructions"][part.family] = build_basic_construction(inc)
        else:
            ctx["inclusions"][part.family] = inc
    return ctx


def algebra_dim(part: Part, ctx: dict) -> int:
    """Dimension D of M for a part prepared by ``setup``."""
    if part.kind == "verify":
        return ctx["constructions"][part.family].dim_l2
    return ctx["inclusions"][part.family].dim


def _write_report(report, out: str, span) -> None:
    os.makedirs(out, exist_ok=True)
    with span("cli.write"):
        with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")


def _execute(part: Part, ctx: dict, seed: int, cycle_dir: str, span):
    from subfactor_geo.basic import build_basic_construction
    from subfactor_geo.cli import main as cli_main
    from subfactor_geo.suites import run_suites

    out = os.path.join(cycle_dir, part.name)
    if part.kind == "verify":
        cfg = _config(part, seed, out)
        report = run_suites(ctx["constructions"][part.family], cfg)
        _write_report(report, out, span)
        return report
    if part.kind == "build":
        _config(part, seed)
        return build_basic_construction(ctx["inclusions"][part.family])
    if part.kind == "suite":
        cfg = _config(part, seed, out)
        report = run_suites(build_basic_construction(ctx["inclusions"][part.family]), cfg)
        _write_report(report, out, span)
        return report
    if part.kind == "cli":
        argv = [a.format(cycle=cycle_dir) for a in part.argv]
        argv[1:1] = ["--seed", str(seed), "--out", out]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli_main(argv)
    raise ValueError(f"unknown part kind {part.kind!r}")


def run_part(part: Part, ctx: dict, seed: int, cycle_dir: str, span=None) -> Outcome:
    """Run one part; time the program call and its artifact writes only."""
    span = span or (lambda name: contextlib.nullcontext())
    start = time.perf_counter()
    try:
        raw = _execute(part, ctx, seed, cycle_dir, span)
        error = None
    except Exception as exc:  # a raising part is a failed operation
        raw, error = None, f"{type(exc).__name__}: {exc}"
    outcome = Outcome(part.name, time.perf_counter() - start, raw, error)
    out = os.path.join(cycle_dir, part.name)
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                data = fh.read()
            outcome.bytes += len(data)
            outcome.sha256[name] = hashlib.sha256(data).hexdigest()
    return outcome


# ---------------------------------------------------------------------------
# checks against the recorded verdicts


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def record_statuses(report) -> dict[str, str]:
    return {f"{s.name}/{r.name}": r.status for s in report.suites for r in s.records}


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(part: Part, outcome: Outcome, cycle_dir: str, expected: dict) -> None:
    """Fill ``outcome.problems`` with every way the part missed its verdicts."""
    if outcome.error is not None:
        return
    problems = outcome.problems
    raw = outcome.raw
    out = os.path.join(cycle_dir, part.name)
    if part.kind in ("verify", "suite"):
        want_all = expected["records"].get(part.family, {})
        suites = set(part.doc["suites"])
        want = {k: v for k, v in want_all.items() if k.split("/", 1)[0] in suites}
        got = record_statuses(raw)
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                problems.append(f"{key}: expected {want.get(key)}, got {got.get(key)}")
        on_disk = read_json(os.path.join(out, "report.json"))
        if on_disk["status"] != ("pass" if raw.passed else "fail"):
            problems.append("report.json status disagrees with the in-memory report")
    elif part.kind == "build":
        want = expected["m1_dim"].get(part.family)
        if raw.dim_m1 != want:
            problems.append(f"extension dimension {raw.dim_m1}, expected {want}")
    elif part.kind == "cli":
        want = expected["cli"][part.name]
        if raw != want["exit"]:
            problems.append(f"exit code {raw}, expected {want['exit']}")
            return
        for name in want["files"]:
            if not os.path.isfile(os.path.join(out, name)):
                problems.append(f"missing artifact {name}")
        if part.name == "sweep.radius_probe":
            # the probed radii come from linspace, so 0.5 may read 0.49999...
            floor = want["largest_passing_radius_floor"] - 1e-9
            summary = read_json(os.path.join(out, "radius_probe_summary.json"))
            if summary["largest_passing_radius"] < floor:
                problems.append(
                    f"largest passing radius {summary['largest_passing_radius']} < {floor}"
                )
            with open(os.path.join(out, "radius_probe.csv"), encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            failed = [r[0] for r in rows if float(r[0]) <= floor and r[-1] != "1"]
            if failed:
                problems.append(f"radii at or below {floor} failed: {failed}")
        if part.name == "sweep.convexity":
            summary = read_json(os.path.join(out, "convexity_summary.json"))
            if summary["violations"] != want["violations"]:
                problems.append(
                    f"{summary['violations']} convexity violations, expected {want['violations']}"
                )


def moved_artifacts(outcomes: list[Outcome], expected: dict) -> list[str]:
    """Artifacts whose bytes differ from the reference recorded for
    benchmark seed 0; meaningful only for the first cycle at that seed."""
    moved = []
    for o in outcomes:
        reference = expected["reference"].get(o.part, {}).get("sha256", {})
        for name in sorted(set(reference) | set(o.sha256)):
            if reference.get(name) != o.sha256.get(name):
                moved.append(f"{o.part}/{name}")
    return moved


# ---------------------------------------------------------------------------
# the measured loop


def run_checked(part, ctx, seed, cycle_dir, expected, span=None) -> Outcome:
    outcome = run_part(part, ctx, seed, cycle_dir, span)
    check(part, outcome, cycle_dir, expected)
    return outcome


def run_cycle(parts, ctx, seed, cycle_dir, expected, span=None) -> list[Outcome]:
    outcomes = [run_checked(p, ctx, seed, cycle_dir, expected, span) for p in parts]
    shutil.rmtree(cycle_dir, ignore_errors=True)
    return outcomes


def measure(parts, ctx, bench_seed: int, seconds: float, work_root: str, expected: dict):
    """Run cycles of parts until the next part would end past ``seconds``.

    The first cycle always completes.  Returns the outcomes and the cycle
    time: the sum over parts of each part's lower median time.  A part has
    two or three samples in a run, and the machine has slow phases of
    seconds; with two samples the lower median ignores one slow sample,
    where the mean of the two would not.
    """
    times: dict[str, list[float]] = {p.name: [] for p in parts}
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    cycle = 0
    while True:
        cycle_dir = os.path.join(work_root, f"cycle{cycle}")
        seed = derive_seed(bench_seed, f"cycle{cycle}")
        for part in parts:
            if cycle > 0:
                predicted = time.perf_counter() - start + statistics.median(times[part.name])
                if predicted > seconds:
                    shutil.rmtree(cycle_dir, ignore_errors=True)
                    cycle_s = sum(statistics.median_low(t) for t in times.values())
                    return outcomes, cycle_s
            outcome = run_checked(part, ctx, seed, cycle_dir, expected)
            times[part.name].append(outcome.seconds)
            outcomes.append(outcome)
        shutil.rmtree(cycle_dir, ignore_errors=True)
        cycle += 1
