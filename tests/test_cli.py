import json

import numpy as np
import pytest

from twistchain import cli
from twistchain.cli import main
from twistchain.reporting import RunConfig


def test_verify_twist_exit_zero(tmp_path, capsys):
    out = tmp_path / "twist.json"
    code = main(["verify", "twist", "--seed", "11", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 11
    assert all(r["pass"] for r in doc["reports"])


def test_verify_stdout_json(capsys):
    code = main(["verify", "ybe", "--samples", "3", "--seed", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["samples"] == 3
    ybe = [r for r in doc["reports"] if r["check_id"] == "ybe.yang_baxter"]
    assert len(ybe) == 3


def test_verify_csv_format(capsys):
    code = main(["verify", "twist", "--seed", "3", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "check_id,param_summary,residual,tolerance,pass"


def test_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify", "all", "--seed", "7", "--n-sites", "3",
                     "--xi", "0", "--samples", "4", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_suite_flags_known_formula_mismatch(tmp_path, capsys):
    """With xi != 0 the displayed-coefficient fit check fails (documented and
    deliberate); the process reports it and exits nonzero."""
    out = tmp_path / "spec.json"
    code = main(["verify", "spectrum", "--seed", "5", "--xi", "0.5",
                 "--n-sites", "3", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    failing = {r["check_id"] for r in doc["reports"] if not r["pass"]}
    assert failing == {"spectrum.extraction_fit"}
    err = capsys.readouterr().err
    assert "spectrum.extraction_fit" in err


def test_spectrum_suite_clean_undeformed(tmp_path):
    out = tmp_path / "spec0.json"
    code = main(["verify", "spectrum", "--seed", "5", "--xi", "0",
                 "--n-sites", "3", "--out", str(out)])
    assert code == 0


def test_env_seed_default(monkeypatch, capsys):
    monkeypatch.setenv("TWISTCHAIN_SEED", "4242")
    assert main(["verify", "twist"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 4242


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nn_sites = 3\nxi = 0.25\n")
    assert main(["verify", "twist", "--config", str(cfg), "--seed", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 9            # flag wins
    assert doc["config"]["n_sites"] == 3  # file value preserved
    assert doc["config"]["xi"] == "0.25"


def test_tol_flag(capsys):
    code = main(["verify", "ybe", "--samples", "2", "--seed", "1",
                 "--tol", "ybe.yang_baxter=1e-30"])
    assert code == 1  # impossible tolerance forces failures
    doc = json.loads(capsys.readouterr().out)
    assert any(not r["pass"] for r in doc["reports"])


def test_unread_tol_override_is_rejected(tmp_path, capsys):
    """A key that no check reads changes nothing, so the run is refused
    under the verify usage line and the key named; no report is written."""
    out = tmp_path / "cr.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "cr", "--tol", "cr.AC=1e-30", "--tol", "cr.relations=1e-3",
              "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: twistchain verify ")
    (error,) = [line for line in err.splitlines() if "error" in line]
    assert error.startswith("twistchain verify: error: ")
    assert "cr.AC" in error and "cr.relations" not in error
    assert not out.exists()

    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol.ybe.nonsense = 1e-3\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "ybe", "--config", str(cfg)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "twistchain verify: error: " in err
    assert "ybe.nonsense" in err


def test_suite_error_report_wins_over_unread_override(tmp_path, capsys, monkeypatch):
    """A suite that raises stops before its later checks read their keys: the
    error report is written and fails the run, and the unread key is named."""
    import twistchain.chain as ch

    def broken(spec, h_formula):
        raise RuntimeError("extraction broke")

    monkeypatch.setattr(ch, "extract_hamiltonian", broken)
    out = tmp_path / "spectrum.json"
    code = main(["verify", "spectrum", "--n-sites", "3",
                 "--tol", "spectrum.extraction_fit=1e-3", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert [r["check_id"] for r in doc["reports"]] == ["spectrum.error"]
    err = capsys.readouterr().err
    assert "warning" in err and "spectrum.extraction_fit" in err
    assert "FAIL spectrum.error" in err


def test_read_tol_override_turns_cr_rows_red(capsys):
    code = main(["verify", "cr", "--tol", "cr.relations=1e-30"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    rows = [r for r in doc["reports"] if not r.get("expected_failure")]
    assert rows and all(not r["pass"] for r in rows)


def test_complex_xi_sampling_flag(capsys):
    code = main(["verify", "ybe", "--samples", "4", "--seed", "6", "--complex-xi"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    samples = [r["params"]["xi"] for r in doc["reports"]
               if r["check_id"] == "ybe.yang_baxter"]
    assert any("i" in xi for xi in samples)  # drawn from the complex disk


def test_open_boundary_spectrum(capsys):
    code = main(["verify", "spectrum", "--boundary", "open", "--xi", "0.6",
                 "--seed", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["check_id"] for r in doc["reports"]] == ["spectrum.open_boundary_terms"]


def _assert_refused(capsys, out, args):
    """`twistchain verify twist --out <out> <args>` exits 2 under the verify
    usage line with one error line, no traceback and no report."""
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "twist", "--out", str(out), *args])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: twistchain verify ")
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("twistchain verify: error: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()
    return errors[0]


def test_bad_tol_flag(tmp_path, capsys):
    error = _assert_refused(capsys, tmp_path / "report.json", ["--tol", "nonsense"])
    assert "--tol expects CHECK=VALUE" in error


@pytest.mark.parametrize("item", ["=1e-3", " =1e-3"])
def test_empty_tol_check_is_refused_before_any_suite(tmp_path, capsys, monkeypatch, item):
    monkeypatch.setattr(cli, "run_suite", lambda *args: pytest.fail("a suite ran"))
    error = _assert_refused(capsys, tmp_path / "report.json", ["--tol", item])
    assert "--tol expects CHECK=VALUE" in error and repr(item) in error


def test_empty_tol_check_in_config_is_refused_before_any_suite(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda *args: pytest.fail("a suite ran"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol. = 1e-3\n")
    error = _assert_refused(capsys, tmp_path / "report.json", ["--config", str(cfg)])
    assert f"{cfg}:1:" in error and "'tol.'" in error


@pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
def test_nan_or_negative_tolerance_is_refused_before_any_suite(tmp_path, capsys,
                                                               monkeypatch, value):
    """From the flag and from a config line, naming the key; a tolerance of
    0 stays valid (``twist.anchor_f12`` uses it)."""
    monkeypatch.setattr(cli, "run_suite", lambda *args: pytest.fail("a suite ran"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tol.twist.cocycle = {value}\n")
    for args in (["--tol", f"twist.cocycle={value}"], ["--config", str(cfg)]):
        error = _assert_refused(capsys, tmp_path / "report.json", args)
        assert "tolerance twist.cocycle must be >= 0" in error and value in error
    assert RunConfig(tolerances={"twist.cocycle": 0.0}).tolerance("twist.cocycle", 1.0) == 0.0


def test_non_numeric_tol_flag_names_the_item(tmp_path, capsys):
    error = _assert_refused(capsys, tmp_path / "report.json",
                            ["--tol", "twist.cocycle=1e-9", "--tol", "x=bar"])
    assert "--tol" in error and "'x=bar'" in error and "twist.cocycle" not in error


@pytest.mark.parametrize("config_line", [
    "tol.twist.cocycle = bar", "seed = x", "n_sites = 4.5", "samples = many",
])
def test_non_numeric_config_value_names_line_and_key(tmp_path, capsys, config_line):
    """A config line whose number does not parse is refused like a bad value,
    naming the file, the line and the key."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n" + config_line + "\n")
    error = _assert_refused(capsys, tmp_path / "report.json", ["--config", str(cfg)])
    key = config_line.split("=")[0].strip()
    assert f"{cfg}:2: {key}:" in error


def test_non_numeric_seed_variable_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TWISTCHAIN_SEED", "soon")
    error = _assert_refused(capsys, tmp_path / "report.json", [])
    assert "TWISTCHAIN_SEED" in error and "'soon'" in error


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, kind):
    """A config file that cannot be read is refused like a bad value."""
    path = tmp_path / "absent.cfg" if kind == "missing" else tmp_path
    error = _assert_refused(capsys, tmp_path / "report.json", ["--config", str(path)])
    assert str(path) in error


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "everything"])


def test_overflowing_symmetry_sweep_fails_with_nan(capsys):
    """At eta = 1e200 the monodromy overflows: every sample of the E/G rows
    that read A..D is NaN, so they report nan and fail instead of reading 0,
    on the identity block (N = 3) and on the Gaussian probe (N = 5)."""
    for n, probe in ((3, "identity"), (5, "gaussian")):
        with np.errstate(all="ignore"):
            code = main(["verify", "symmetry", "--n-sites", str(n), "--eta", "1e200"])
        assert code == 1
        rows = {r["check_id"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
        assert "symmetry.error" not in rows
        for rid in ("EA", "ED", "EB", "EC_1", "EC_2", "GB", "GA", "GD", "GC", "Et"):
            assert rows[f"symmetry.{rid}"]["residual"] == "nan"
            assert not rows[f"symmetry.{rid}"]["pass"]
            assert rows[f"symmetry.{rid}"]["params"]["probe"] == probe


def test_overflowing_rtt_sweep_fails_at_its_first_nan_draw(capsys):
    with np.errstate(all="ignore"):
        code = main(["verify", "rtt", "--n-sites", "2", "--eta", "1e200"])
    assert code == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    rows = [r for r in reports if r["check_id"] in ("rtt.exchange", "rtt.commuting_transfer")]
    assert {r["check_id"] for r in rows} == {"rtt.exchange", "rtt.commuting_transfer"}
    for r in rows:
        assert r["residual"] == "nan" and not r["pass"]
        assert {"xi", "u", "v"} <= set(r["params"])


@pytest.mark.parametrize("flags, config_line", [
    (["--n-sites", "13"], "n_sites = 13"),
    (["--eta", "0"], "eta = 0"),
    (["--samples", "0"], "samples = 0"),
    (["--eta", "1e400"], "eta = 1e400"),
    (["--xi", "1e400"], "xi = 1e400"),
])
def test_refused_config_value_exits_2(tmp_path, capsys, flags, config_line):
    """A refused value, from a flag or from the config file, ends in the
    verify usage line, one error line and exit status 2, with no report;
    1e400 parses to inf."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_line + "\n")
    for args in (flags, ["--config", str(cfg)]):
        _assert_refused(capsys, tmp_path / "report.json", args)
