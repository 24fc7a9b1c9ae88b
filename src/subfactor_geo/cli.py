"""Command-line interface.

Subcommands:
  verify    run the configured suites, write report.json, print a table
  geodesic  sample one seeded geodesic, export CSV plus a JSON sidecar
  log       recover the generator between two stored projections
  sweep     run a named experiment (minimality, convexity, radius_probe)
  families  list the built-in inclusion families

Exit codes: 0 all checks passed; 1 a verified property failed; 2 bad
configuration or invalid input; 3 a numerical procedure failed to converge
or left its domain of validity.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .basic import BasicConstruction, build_basic_construction
from .config import (
    SUITE_NAMES,
    RunConfig,
    apply_overrides,
    load_config,
    parse_config,
)
from .errors import (
    BranchCutError,
    ConfigError,
    ConstructionError,
    ConvergenceError,
    DomainError,
    MembershipError,
    RadiusError,
    RefinementError,
)
from .families import FAMILY_NAMES, family_summary
from .linalg import dump_matrix, load_matrix, op_norm
from .orbit import (
    base_point,
    curve_lengths,
    geodesic_endpoints,
    geodesic_equation_residual,
    minimality_experiment,
    convexity_probe,
    orbit_log,
    orbit_log_batch,
    orbit_point_from_witness,
    orbit_section_theta,
    random_horizontal_at,
    sample_convexity_triple,
    sample_geodesic,
)
from .report import SCHEMA_VERSION, render_table, write_csv_rows
from .suites import run_suites


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subfactor-geo",
        description="Trace-projection orbit geometry over finite-dimensional inclusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--seed", type=int, metavar="N", help="random seed (unsigned 64-bit)")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--trials", type=int, metavar="N", help="trial count override")
        p.add_argument("--grid", type=int, metavar="N", help="curve grid override")
        p.add_argument("--family", metavar="NAME", help="inclusion family override")

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument(
        "--suite",
        action="append",
        metavar="NAME",
        help=f"suite to run (repeatable); one of {', '.join(SUITE_NAMES)}",
    )

    p_geo = sub.add_parser("geodesic", help="export one seeded geodesic")
    common(p_geo)

    p_log = sub.add_parser("log", help="generator between two stored projections")
    common(p_log)
    p_log.add_argument("q0", help="matrix file with the starting projection")
    p_log.add_argument("q1", help="matrix file with the target projection")

    p_sweep = sub.add_parser("sweep", help="run a named experiment")
    common(p_sweep)
    p_sweep.add_argument(
        "experiment", choices=["minimality", "convexity", "radius_probe"]
    )

    sub.add_parser("families", help="list built-in families")
    return parser


def _load_base_config(args, need_suites: bool) -> RunConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        doc = {"inclusion": {"family": args.family or "tensor(1,2)"}}
        if not need_suites:
            doc["suites"] = []
        if args.seed is not None:
            doc["seed"] = args.seed
        cfg = parse_config(doc)
    cfg = apply_overrides(
        cfg,
        seed=args.seed,
        suites=getattr(args, "suite", None),
        grid=args.grid,
        trials=args.trials,
        output_dir=args.out,
    )
    if args.family and args.config:
        doc = cfg.canonical()
        doc["inclusion"]["family"] = args.family
        cfg = parse_config(doc)
    return cfg


def _out_dir(cfg: RunConfig) -> str:
    out = cfg.output_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


def _construct(cfg: RunConfig) -> BasicConstruction:
    return build_basic_construction(cfg.build_inclusion())


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                allow_nan=False,
            )
        )
        fh.write("\n")


def _require_seed(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise ConfigError("this command draws random samples; provide a seed")
    return cfg.seed


def cmd_verify(cfg: RunConfig) -> int:
    start = time.perf_counter()
    bc = _construct(cfg)
    build_s = time.perf_counter() - start
    report = run_suites(bc, cfg)
    out = _out_dir(cfg)
    path = os.path.join(out, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(render_table(report))
    print(f"construction: {build_s:.2f}s; report: {path}")
    return 0 if report.passed else 1


def cmd_geodesic(cfg: RunConfig) -> int:
    seed = _require_seed(cfg)
    bc = _construct(cfg)
    rng = np.random.default_rng([seed, 101])
    base = base_point(bc)
    # op norm 0.2 keeps the endpoint inside the radius of the local inverse,
    # so the exported pair round-trips through the log subcommand
    z = random_horizontal_at(base, rng, op_scale=0.2)
    grid = cfg.grid
    curve = sample_geodesic(base, z, grid_n=grid)
    out = _out_dir(cfg)

    d = bc.dim_l2
    header = ["t"]
    for i in range(d):
        for j in range(d):
            header += [f"q_{i}_{j}_re", f"q_{i}_{j}_im"]
    ts = np.linspace(0.0, 1.0, grid + 1)
    # (re, im) of each entry in row-major order, the order of the header
    rows = np.column_stack([ts, curve.samples.view(float).reshape(len(ts), -1)])
    csv_path = os.path.join(out, "geodesic.csv")
    write_csv_rows(csv_path, header, rows)

    sidecar = {
        "schema": SCHEMA_VERSION,
        "family": cfg.family,
        "config_hash": cfg.config_hash(),
        "lam": bc.lam,
        "grid": grid,
        "z_two_norm": float(bc.inc.two_norm(z)),
        "z_op_norm": float(op_norm(z)),
        "l2": float(curve_lengths(bc, curve.samples, "two_norm")),
        "linf": float(curve_lengths(bc, curve.samples, "op_norm")),
        "f2": float(curve_lengths(bc, curve.samples, "energy")),
        "geodesic_residual": float(
            geodesic_equation_residual(base, z, grid_n=max(grid, 128))
        ),
    }
    _write_json(os.path.join(out, "geodesic.json"), sidecar)
    with open(os.path.join(out, "z.txt"), "w", encoding="utf-8") as fh:
        fh.write(dump_matrix(z))
    with open(os.path.join(out, "q_end.txt"), "w", encoding="utf-8") as fh:
        fh.write(dump_matrix(curve.samples[-1]))
    with open(os.path.join(out, "q_start.txt"), "w", encoding="utf-8") as fh:
        fh.write(dump_matrix(curve.samples[0]))
    print(
        f"geodesic over {cfg.family}: L2 {sidecar['l2']:.6f}, "
        f"Linf {sidecar['linf']:.6f}, residual {sidecar['geodesic_residual']:.2e}"
    )
    print(f"wrote {csv_path}")
    return 0


def cmd_log(cfg: RunConfig, q0_path: str, q1_path: str) -> int:
    bc = _construct(cfg)
    try:
        with open(q0_path, encoding="utf-8") as fh:
            q0 = load_matrix(fh.read())
        with open(q1_path, encoding="utf-8") as fh:
            q1 = load_matrix(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read projection file: {exc}") from exc
    # the files hold D x D projections on L2(M); each is checked in M1 there
    # and compressed, and its section is taken on the compression
    small = bc.compressed
    pt0, pt1 = (
        orbit_point_from_witness(small, orbit_section_theta(small, bc.to_compressed(q)))
        for q in (q0, q1)
    )
    try:
        res = orbit_log(pt0, pt1)
    except ConvergenceError as exc:
        print(
            f"no convergence (residual {exc.residual:.3e} after "
            f"{exc.iterations} iterations); retry with closer endpoints",
            file=sys.stderr,
        )
        return 3
    out = _out_dir(cfg)
    with open(os.path.join(out, "z_out.txt"), "w", encoding="utf-8") as fh:
        fh.write(dump_matrix(res.z))
    _write_json(
        os.path.join(out, "log.json"),
        {
            "schema": SCHEMA_VERSION,
            "family": cfg.family,
            "config_hash": cfg.config_hash(),
            "residual": float(res.residual),
            "iterations": res.iterations,
            "z_two_norm": float(bc.inc.two_norm(res.z)),
            "z_op_norm": float(op_norm(res.z)),
        },
    )
    print(
        f"recovered generator: residual {res.residual:.3e} "
        f"after {res.iterations} iterations"
    )
    return 0


def _sweep_minimality(bc: BasicConstruction, cfg: RunConfig, out: str) -> dict:
    seed = _require_seed(cfg)
    rng = np.random.default_rng([seed, 201])
    base = base_point(bc)
    header = [
        "trial",
        "l2",
        "linf",
        "max_displacement",
        "within_radius",
        "l2_margin",
        "violation",
        "first_variation",
        "fv_consistent",
    ]
    if cfg.trials == 0:
        write_csv_rows(os.path.join(out, "minimality.csv"), header, [])
        return {"status": "no data", "n_trials": 0}
    z = random_horizontal_at(base, rng, op_scale=0.25)
    rep = minimality_experiment(
        base,
        z,
        n_trials=cfg.trials,
        perturbation_scale=0.1,
        seed=int(rng.integers(0, 2**63 - 1)),
        grid_n=max(64, cfg.grid),
        probe_radius=0.5,
    )
    rows = [
        [
            t.trial,
            t.l2,
            t.linf,
            t.max_displacement,
            int(t.within_radius),
            t.l2_margin,
            int(t.violation),
            t.first_variation,
            int(t.fv_consistent),
        ]
        for t in rep.trials
    ]
    write_csv_rows(os.path.join(out, "minimality.csv"), header, rows)
    return {
        "status": "ok",
        "n_trials": rep.n_trials,
        "n_within_radius": rep.n_within_radius,
        "violations": rep.n_violations,
        "l2_geodesic": rep.l2_geodesic,
        "linf_geodesic": rep.linf_geodesic,
    }


def _sweep_convexity(bc: BasicConstruction, cfg: RunConfig, out: str) -> dict:
    seed = _require_seed(cfg)
    rng = np.random.default_rng([seed, 202])
    header = ["trial", "min_second_difference", "passed"]
    if cfg.trials == 0:
        write_csv_rows(os.path.join(out, "convexity.csv"), header, [])
        return {"status": "no data", "n_trials": 0}
    reps = convexity_probe(bc, *sample_convexity_triple(bc.inc, rng, cfg.trials), grid_n=32)
    rows = [[k, rep.min_second_difference, int(rep.passed)] for k, rep in enumerate(reps)]
    write_csv_rows(os.path.join(out, "convexity.csv"), header, rows)
    violations = sum(not rep.passed for rep in reps)
    return {"status": "ok", "n_trials": cfg.trials, "violations": violations}


def _sweep_radius(bc: BasicConstruction, cfg: RunConfig, out: str) -> dict:
    seed = _require_seed(cfg)
    rng = np.random.default_rng([seed, 203])
    header = ["radius", "n_shots", "n_ok", "worst_recovery_error", "n_domain_error", "passed"]
    if cfg.trials == 0:
        write_csv_rows(os.path.join(out, "radius_probe.csv"), header, [])
        return {"status": "no data", "n_trials": 0}
    base = base_point(bc)
    n_shots = max(1, cfg.trials // 8)
    radii = np.linspace(0.05, 1.2, 24)
    # every shot's direction, drawn radius by radius, then one stack of
    # endpoints and one of logarithms over all of them
    z0s = np.stack(
        [random_horizontal_at(base, rng, op_scale=float(r)) for r in radii for _ in range(n_shots)]
    )
    q1s, outcomes = geodesic_endpoints(base, z0s)
    kept = [k for k, refusal in enumerate(outcomes) if refusal is None]
    for k, outcome in zip(kept, orbit_log_batch(base, q1s[kept])):
        outcomes[k] = outcome
    rows = []
    largest = 0.0
    for i, r in enumerate(radii):
        shots = slice(i * n_shots, (i + 1) * n_shots)
        ok = 0
        worst = 0.0
        # a shot past the solver's radius or out of iterations is an expected
        # miss; any other DomainError is a failed gate, counted in its column
        domain_errors = 0
        for z0, outcome in zip(z0s[shots], outcomes[shots]):
            if isinstance(outcome, (RadiusError, ConvergenceError)):
                err = float("inf")
            elif isinstance(outcome, DomainError):
                err = float("inf")
                domain_errors += 1
            else:
                err = bc.inc.two_norm(outcome.z - z0)
            if err <= 1e-7:
                ok += 1
            worst = max(worst, err)
        passed = ok == n_shots
        if passed and ok:
            largest = float(r)
        rows.append(
            [
                float(r),
                n_shots,
                ok,
                worst if np.isfinite(worst) else 9.999e99,
                domain_errors,
                int(passed),
            ]
        )
    write_csv_rows(os.path.join(out, "radius_probe.csv"), header, rows)
    return {
        "status": "ok",
        "n_shots_per_radius": n_shots,
        "largest_passing_radius": largest,
    }


def cmd_sweep(cfg: RunConfig, experiment: str) -> int:
    # the sweeps write elements of M and numbers only, so they run on one
    # copy of each block of M1
    bc = _construct(cfg).compressed
    out = _out_dir(cfg)
    fns = {
        "minimality": _sweep_minimality,
        "convexity": _sweep_convexity,
        "radius_probe": _sweep_radius,
    }
    summary = fns[experiment](bc, cfg, out)
    summary = {
        "schema": SCHEMA_VERSION,
        "experiment": experiment,
        "family": cfg.family,
        "config_hash": cfg.config_hash(),
        **summary,
    }
    _write_json(os.path.join(out, f"{experiment}_summary.json"), summary)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def cmd_families() -> int:
    print(f"{'name':<22} {'lam':>8} {'index':>7} {'dim N':>6} {'dim M':>6} {'dim M1':>7}")
    for name in FAMILY_NAMES:
        s = family_summary(name)
        print(
            f"{s['name']:<22} {s['lam']:>8.4f} {s['index']:>7.2f} "
            f"{s['dim_sub']:>6d} {s['dim_amb']:>6d} {s['dim_extension']:>7d}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "families":
            return cmd_families()
        cfg = _load_base_config(args, need_suites=args.command == "verify")
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "geodesic":
            return cmd_geodesic(cfg)
        if args.command == "log":
            return cmd_log(cfg, args.q0, args.q1)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.experiment)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, RefinementError, BranchCutError, RadiusError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, MembershipError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"construction check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
