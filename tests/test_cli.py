"""End-to-end command-line behavior: artifacts, determinism, exit codes."""

import gc
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import subfactor_geo
from subfactor_geo import cli
from subfactor_geo.cli import main
from subfactor_geo.errors import DomainError, RadiusError
from subfactor_geo.linalg import load_matrix, op_norm
from subfactor_geo.orbit import orbit_log_batch

FAST = ["--trials", "6", "--grid", "32", "--seed", "11"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_families_lists_builtins(capsys):
    code, out, _ = run(capsys, "families")
    assert code == 0
    for name in ("tensor(1,2)", "tensor(2,2)", "group_flip(m2)"):
        assert name in out


def test_verify_smoke(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--out", str(tmp_path), *FAST,
        "--suite", "construction", "--suite", "metric",
    )
    assert code == 0
    assert "overall: pass" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["status"] == "pass"
    assert [s["name"] for s in doc["suites"]] == ["construction", "metric"]
    assert doc["family"] == "tensor(1,2)"


def test_verify_requires_seed(tmp_path, capsys):
    code, _, err = run(
        capsys, "verify", "--out", str(tmp_path), "--suite", "construction"
    )
    assert code == 2
    assert "seed" in err


def test_verify_rejects_unknown_family(tmp_path, capsys):
    code, _, err = run(
        capsys, "verify", "--out", str(tmp_path), *FAST, "--family", "octonion"
    )
    assert code == 2
    assert "unknown family" in err


def test_verify_rejects_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inclusion": {"family": "tensor(1,2)"}, "sede": 1}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


def test_verify_wrong_lambda_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "inclusion": {"family": "tensor(1,2)", "lam": 0.3},
                "seed": 1,
                "trials": 4,
                "suites": ["construction"],
            }
        )
    )
    code, _, err = run(capsys, "verify", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    assert "construction check failed" in err


def test_verify_report_bytes_are_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(
            capsys, "verify", "--out", str(out), *FAST,
            "--suite", "construction", "--family", "group_flip(scalars)",
        )
        assert code == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "inclusion": {"family": "tensor(1,2)"},
                "seed": 3,
                "trials": 50,
                "suites": ["construction"],
            }
        )
    )
    code, out, _ = run(
        capsys, "verify", "--config", str(cfg), "--out", str(tmp_path),
        "--trials", "5", "--family", "group_flip(scalars)",
    )
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["family"] == "group_flip(scalars)"


def test_geodesic_exports_artifacts(tmp_path, capsys):
    code, out, _ = run(capsys, "geodesic", "--out", str(tmp_path), *FAST)
    assert code == 0
    assert "wrote" in out
    sidecar = json.loads((tmp_path / "geodesic.json").read_text())
    assert sidecar["grid"] == 32
    assert sidecar["geodesic_residual"] <= 1e-8
    assert abs(sidecar["z_op_norm"] - 0.2) < 1e-9
    csv_lines = (tmp_path / "geodesic.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 1 + 33
    header = csv_lines[0].split(",")
    d = int(np.sqrt((len(header) - 1) / 2))
    assert header[0] == "t" and header[1] == "q_0_0_re"
    q_start = load_matrix((tmp_path / "q_start.txt").read_text())
    assert q_start.shape == (d, d)


# tensor(2,2) is a family where the compression is real: the log and the
# sweeps run on 8 x 8 matrices, the geodesic export on 16 x 16 ones
COMPRESSED_TOO = ("tensor(1,2)", "tensor(2,2)")


def test_geodesic_then_log_round_trip(tmp_path, capsys):
    for family in COMPRESSED_TOO:
        out_dir = tmp_path / family
        code, _, _ = run(capsys, "geodesic", "--out", str(out_dir), *FAST, "--family", family)
        assert code == 0
        code, out, _ = run(
            capsys, "log", "--out", str(out_dir), *FAST, "--family", family,
            str(out_dir / "q_start.txt"), str(out_dir / "q_end.txt"),
        )
        assert code == 0
        assert "recovered generator" in out
        z_in = load_matrix((out_dir / "z.txt").read_text())
        z_out = load_matrix((out_dir / "z_out.txt").read_text())
        assert op_norm(z_in - z_out) < 1e-7, family
        doc = json.loads((out_dir / "log.json").read_text())
        assert doc["residual"] <= 1e-8, family


def test_log_closes_projection_files(tmp_path, capsys, monkeypatch):
    code, _, _ = run(capsys, "geodesic", "--out", str(tmp_path), *FAST)
    assert code == 0
    # a file left open warns when it is collected; as an error that lands
    # in the unraisable hook rather than propagating out of main()
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        code, _, _ = run(
            capsys, "log", "--out", str(tmp_path), *FAST,
            str(tmp_path / "q_start.txt"), str(tmp_path / "q_end.txt"),
        )
        gc.collect()
    assert code == 0
    assert [u.exc_value for u in unraisable] == []


def test_log_far_endpoints_exit_three(tmp_path, capsys):
    from subfactor_geo.families import family_construction
    from subfactor_geo.linalg import dump_matrix, spectral_function

    bc = family_construction("group_flip(scalars)")
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u = spectral_function(1.2j * sx, "exp")
    lu = bc.left(u)
    far = lu @ bc.jones_p @ lu.conj().T
    (tmp_path / "p.txt").write_text(dump_matrix(bc.jones_p))
    (tmp_path / "far.txt").write_text(dump_matrix(far))
    code, _, err = run(
        capsys, "log", "--out", str(tmp_path), "--family", "group_flip(scalars)",
        str(tmp_path / "p.txt"), str(tmp_path / "far.txt"),
    )
    assert code == 3
    assert "numerical failure" in err


def test_log_rejects_missing_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "log", "--out", str(tmp_path),
        str(tmp_path / "nope0.txt"), str(tmp_path / "nope1.txt"),
    )
    assert code == 2
    assert "cannot read" in err


def test_sweep_minimality(tmp_path, capsys):
    for family in COMPRESSED_TOO:
        out_dir = tmp_path / family
        code, out, _ = run(
            capsys, "sweep", "--out", str(out_dir), *FAST, "--family", family, "minimality"
        )
        assert code == 0
        summary = json.loads((out_dir / "minimality_summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["violations"] == 0, family
        lines = (out_dir / "minimality.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 6


def test_sweep_zero_trials_writes_header_only(tmp_path, capsys):
    code, _, _ = run(
        capsys, "sweep", "--out", str(tmp_path), "--seed", "11",
        "--trials", "0", "minimality",
    )
    assert code == 0
    summary = json.loads((tmp_path / "minimality_summary.json").read_text())
    assert summary["status"] == "no data"
    lines = (tmp_path / "minimality.csv").read_text().strip().split("\n")
    assert len(lines) == 1


def test_sweep_convexity(tmp_path, capsys):
    code, _, _ = run(capsys, "sweep", "--out", str(tmp_path), *FAST, "convexity")
    assert code == 0
    summary = json.loads((tmp_path / "convexity_summary.json").read_text())
    assert summary["violations"] == 0


def test_sweep_radius_probe(tmp_path, capsys, monkeypatch):
    argv = (
        "sweep", "--out", str(tmp_path), "--seed", "11", "--trials", "8",
        "--family", "group_flip(scalars)", "radius_probe",
    )
    code, _, _ = run(capsys, *argv)
    assert code == 0
    summary = json.loads((tmp_path / "radius_probe_summary.json").read_text())
    assert summary["largest_passing_radius"] >= 0.45
    lines = (tmp_path / "radius_probe.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 24
    # the radius stays first and the verdict last
    assert lines[0] == "radius,n_shots,n_ok,worst_recovery_error,n_domain_error,passed"
    assert all(line.split(",")[4] == "0" for line in lines[1:])

    # a domain error is its own outcome; a radius error stays a plain miss
    for error, counted in ((DomainError, "1"), (RadiusError, "0")):
        def failing_log_batch(q0, targets, *args, error=error, **kwargs):
            return [error("refused") for _ in targets]

        monkeypatch.setattr(cli, "orbit_log_batch", failing_log_batch)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "radius_probe.csv").read_text().strip().split("\n")[1:]
        ]
        assert [r[2:] for r in rows] == [["0", "9.999000000000e+99", counted, "0"]] * 24

    # on tensor(2,2) the logarithms are taken on the compression, 8 of 16
    widths = []

    def recording_log_batch(q0, targets, *args, **kwargs):
        widths.append(q0.bc.dim_l2)
        return orbit_log_batch(q0, targets, *args, **kwargs)

    monkeypatch.setattr(cli, "orbit_log_batch", recording_log_batch)
    code, _, _ = run(capsys, *argv[:-3], "--family", "tensor(2,2)", "radius_probe")
    assert code == 0
    assert widths and set(widths) == {8}


def test_sweep_requires_seed(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--out", str(tmp_path), "minimality")
    assert code == 2
    assert "seed" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# The package runs on numpy alone: importing the CLI and running the kernels
# of the local geometry must not load scipy, whose import would add to the
# start-up time and memory of every process.
_SCIPY_FREE = """
import sys
import numpy as np
import subfactor_geo.cli
from subfactor_geo import family_construction
from subfactor_geo.algebra import random_unitary
from subfactor_geo.linalg import log_unitary_principal, spectral_function
from subfactor_geo.orbit import convexity_probe, grassmann_section

rng = np.random.default_rng(3)
bc = family_construction("tensor(1,2)")
log_unitary_principal(random_unitary(rng, bc.inc.amb_basis, scale=0.5))
w = spectral_function(np.array([[0.0, -0.2], [0.2, 0.0]], dtype=complex), "exp")
p1 = np.diag([1.0, 0.0]).astype(complex)
grassmann_section(p1, w @ p1 @ w.conj().T)
u0 = random_unitary(rng, bc.inc.amb_basis, scale=0.1)
convexity_probe(bc, u0, u0, u0 @ random_unitary(rng, bc.inc.amb_basis, scale=0.1), grid_n=8)
if "scipy" in sys.modules:
    sys.exit(f"scipy was imported: {sorted(m for m in sys.modules if m.startswith('scipy'))}")
"""


def test_cli_and_local_geometry_do_not_import_scipy():
    src = os.path.dirname(os.path.dirname(subfactor_geo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE],
        env=env, capture_output=True, text=True, check=False, timeout=120,
    )
    assert done.returncode == 0, done.stderr
