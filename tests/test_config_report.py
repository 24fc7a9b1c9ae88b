"""Config parsing, hashing, and the deterministic report artifacts."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import subfactor_geo
from subfactor_geo.config import (
    SUITE_NAMES,
    apply_overrides,
    default_config,
    load_config,
    parse_config,
)
from subfactor_geo.cli import main
from subfactor_geo.errors import ConfigError, DomainError
from subfactor_geo.families import family_inclusion, family_record
from subfactor_geo.report import (
    ANCHOR_VOCABULARY,
    CheckRecord,
    RunReport,
    SuiteReport,
    record,
    render_table,
    write_csv_rows,
)
from subfactor_geo.suites import run_suites
from subfactor_geo.linalg import spectral_function
from subfactor_geo.tolerances import SPECTRAL_TOL


def minimal_doc(**extra):
    doc = {"inclusion": {"family": "tensor(1,2)"}, "seed": 7}
    doc.update(extra)
    return doc


def test_parse_defaults():
    cfg = parse_config(minimal_doc())
    assert cfg.family == "tensor(1,2)"
    assert cfg.seed == 7
    assert cfg.suites == SUITE_NAMES
    assert cfg.grid == 96
    assert cfg.trials == 100
    assert cfg.lam_override is None
    assert cfg.output_dir is None


def test_parse_rejects_unknown_keys_at_every_level():
    with pytest.raises(ConfigError):
        parse_config(minimal_doc(extra_key=1))
    with pytest.raises(ConfigError):
        parse_config({"inclusion": {"family": "tensor(1,2)", "size": 3}, "seed": 7})
    with pytest.raises(ConfigError):
        parse_config(minimal_doc(tolerances={"spectra": 1e-9}))


def test_parse_rejects_bad_values():
    bad_docs = [
        minimal_doc(seed="seven"),
        minimal_doc(seed=True),
        minimal_doc(seed=-1),
        minimal_doc(grid=1),
        minimal_doc(grid=2.5),
        minimal_doc(trials=-3),
        minimal_doc(suites=["construction", "nonsense"]),
        minimal_doc(suites="construction"),
        {"inclusion": {"family": "tensor(1,2)", "lam": 0.0}, "seed": 7},
        {"inclusion": {"family": "tensor(1,2)", "lam": 1.5}, "seed": 7},
        {"seed": 7},
        {"inclusion": {}, "seed": 7},
    ]
    for doc in bad_docs:
        with pytest.raises(ConfigError):
            parse_config(doc)


def test_seed_required_only_when_suites_run():
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"inclusion": {"family": "tensor(1,2)"}})
    cfg = parse_config({"inclusion": {"family": "tensor(1,2)"}, "suites": []})
    assert cfg.seed is None
    assert cfg.suites == ()


def test_suites_normalize_to_canonical_order():
    cfg = parse_config(minimal_doc(suites=["metric", "construction", "metric"]))
    assert cfg.suites == ("construction", "metric")


def test_arbitrary_tensor_sizes_accepted():
    cfg = parse_config({"inclusion": {"family": "tensor(1,4)"}, "seed": 1})
    inc = cfg.build_inclusion()
    assert abs(inc.lam - 1.0 / 16.0) < 1e-15
    with pytest.raises(ConfigError, match="unknown family"):
        parse_config({"inclusion": {"family": "sporadic"}, "seed": 1}).build_inclusion()


def test_tensor_names_resolve_through_the_registry():
    inc = parse_config({"inclusion": {"family": "tensor(3,2)"}, "seed": 1}).build_inclusion()
    assert inc is family_inclusion("tensor(3,2)")
    assert inc.family_tag == "tensor(3,2)"
    assert family_record("tensor(3,2)").tensor_mk == (3, 2)
    assert family_record("sporadic") is None
    with pytest.raises(ConfigError, match="unknown family"):
        family_inclusion("sporadic")


def test_lam_override_reaches_inclusion():
    cfg = parse_config({"inclusion": {"family": "tensor(1,2)", "lam": 0.3}, "seed": 7})
    assert cfg.build_inclusion().lam == 0.3


def test_hash_is_stable_and_ignores_output_dir():
    base = parse_config(minimal_doc())
    same = parse_config(minimal_doc())
    elsewhere = parse_config(minimal_doc(output_dir="/tmp/run42"))
    assert base.config_hash() == same.config_hash()
    assert base.config_hash() == elsewhere.config_hash()
    reseeded = parse_config({"inclusion": {"family": "tensor(1,2)"}, "seed": 8})
    assert base.config_hash() != reseeded.config_hash()


def test_canonical_round_trips_through_parse():
    cfg = parse_config(
        minimal_doc(
            grid=48,
            trials=10,
            suites=["metric"],
            output_dir="out",
        )
    )
    again = parse_config(cfg.canonical())
    assert again == cfg


def test_apply_overrides_wins_over_file_values():
    cfg = parse_config(minimal_doc(grid=48))
    over = apply_overrides(cfg, seed=9, suites=["metric"], grid=32, trials=5)
    assert (over.seed, over.grid, over.trials) == (9, 32, 5)
    assert over.suites == ("metric",)
    assert over.family == cfg.family
    # validation still applies to overridden values
    with pytest.raises(ConfigError):
        apply_overrides(cfg, grid=0)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_doc()))
    assert load_config(str(good)).seed == 7


def test_default_config_helper():
    cfg = default_config(seed=3)
    assert cfg.family == "tensor(1,2)"
    assert cfg.suites == SUITE_NAMES


def test_check_record_status_gate():
    with pytest.raises(ValueError):
        CheckRecord("x", "E: M → N", "maybe", 0.0, 1)
    rec = record("x", "E: M → N", defect=1e-12, tol=1e-10, samples=4)
    assert rec.passed
    rec2 = record("x", "E: M → N", defect=1e-8, tol=1e-10, samples=4)
    assert not rec2.passed


def test_report_json_is_sorted_and_compact():
    rec = record("a check", "E: M → N", 1e-12, 1e-10, 3)
    suite = SuiteReport(name="construction", records=(rec,), wall_time_s=1.23)
    rep = RunReport(family="tensor(1,2)", config_hash="ff", seed=7, suites=(suite,))
    text = rep.to_json()
    doc = json.loads(text)
    assert doc["status"] == "pass"
    assert doc["suites"][0]["records"][0]["name"] == "a check"
    # wall time never reaches the artifact; bytes are independent of it
    assert "wall" not in text
    other = RunReport(
        family="tensor(1,2)",
        config_hash="ff",
        seed=7,
        suites=(SuiteReport(name="construction", records=(rec,), wall_time_s=9.87),),
    )
    assert other.to_json() == text


def test_render_table_mentions_every_record():
    rec = record("the check name", "E: M → N", 1e-12, 1e-10, 3)
    suite = SuiteReport(name="metric", records=(rec,), wall_time_s=0.5)
    rep = RunReport(family="tensor(1,2)", config_hash="ab", seed=7, suites=(suite,))
    table = render_table(rep)
    assert "the check name" in table
    assert "[metric]" in table
    assert "overall: pass" in table


def test_failed_record_propagates_to_run_status():
    good = record("ok", "E: M → N", 0.0, 1e-10, 1)
    bad = record("broken", "E: M → N", 1.0, 1e-10, 1)
    suite = SuiteReport(name="metric", records=(good, bad))
    rep = RunReport(family="f", config_hash="h", seed=1, suites=(suite,))
    assert not suite.passed
    assert not rep.passed
    assert json.loads(rep.to_json())["status"] == "fail"


def test_write_csv_rows_formatting(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv_rows(str(path), ["a", "b"], [[1, 0.5], ["x", np.pi]])
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1,5.000000000000e-01"
    assert lines[2].startswith("x,3.14159265")
    assert "\r" not in text

    # a float array writes the bytes of the same table as Python floats
    table = [[0.0, -0.0, 1e-300], [9.999e99, -np.pi, 0.5]]
    as_lists = tmp_path / "lists.csv"
    as_array = tmp_path / "array.csv"
    write_csv_rows(str(as_lists), ["a", "b", "c"], table)
    write_csv_rows(str(as_array), ["a", "b", "c"], np.array(table))
    assert as_array.read_bytes() == as_lists.read_bytes()
    assert as_array.read_text().split("\n")[1] == (
        "0.000000000000e+00,-0.000000000000e+00,1.000000000000e-300"
    )


def test_every_suite_anchor_is_in_the_vocabulary(constructions):
    # run a tiny pass over two structurally different families and check the
    # closed vocabulary covers every emitted record
    for name in ("tensor(1,2)", "group_flip(m2)"):
        bc = constructions[name]
        cfg = parse_config(
            {"inclusion": {"family": name}, "seed": 5, "trials": 6, "grid": 32}
        )
        rep = run_suites(bc, cfg)
        assert rep.family == name
        assert rep.config_hash == cfg.config_hash()
        for suite in rep.suites:
            assert suite.name in SUITE_NAMES
            for r in suite.records:
                assert r.paper_anchor in ANCHOR_VOCABULARY, (suite.name, r.name)


@pytest.mark.parametrize("spectral", [1e-17, 1e-10, 0.5])
def test_a_tolerances_block_is_refused(tmp_path, capsys, spectral):
    # the gates' tolerances are constants, so neither run_suites nor the CLI
    # can be handed a looser (or stricter) one through the config
    doc = {
        "inclusion": {"family": "tensor(1,2)"},
        "seed": 7,
        "suites": ["construction"],
        "tolerances": {"spectral": spectral},
    }
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "tolerances" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_no_module_declares_a_global():
    # a `global` statement is how a tolerance becomes mutable module state
    src = Path(subfactor_geo.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_spectral_tolerance_is_a_constant(monkeypatch):
    # neither the environment nor any setter moves the gate: a matrix
    # 1e-9 away from Hermitian is still refused at 1e-10
    monkeypatch.setenv("SUBFACTOR_GEO_TOL", "0.5")
    assert SPECTRAL_TOL == 1e-10
    h = np.diag([1.0, 2.0]).astype(complex)
    h[0, 1] = 1e-9
    with pytest.raises(DomainError):
        spectral_function(h, "exp")
