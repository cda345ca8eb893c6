import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from twistchain import chain as ch
from twistchain import suites
from twistchain.reporting import (
    RunConfig,
    VerificationReport,
    emit_report,
    expected_failure_report,
    format_complex,
    format_number,
    load_config_file,
    parse_complex,
    render_csv,
    render_json,
    report_from_residual,
)
from twistchain.suites import SUITES, _relation_reports, _worst, _worst_sample, run_suite
from twistchain.tensor import SM, embed_at_site, match_spectra
from twistchain.twist import TwistParams


@pytest.mark.parametrize("text,value", [
    ("1.5", 1.5),
    ("-3", -3.0),
    ("1+2i", 1 + 2j),
    ("1-2i", 1 - 2j),
    ("-0.25+0.5i", -0.25 + 0.5j),
    ("2e-3+1e-4i", 0.002 + 0.0001j),
])
def test_parse_complex(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("bad", ["", "2i", "i", "1+i", "1 + 2i", "abc"])
def test_parse_complex_rejects(bad):
    with pytest.raises(ValueError):
        parse_complex(bad)


def test_complex_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert parse_complex(format_complex(z)) == z
    assert format_complex(1.5 + 0j) == "1.5"


def test_number_roundtrip_is_lossless():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = float(rng.standard_normal() * 10.0 ** int(rng.integers(-12, 12)))
        assert float(format_number(x)) == x


def test_report_pass_semantics():
    ok = report_from_residual("x.y", {}, 1e-13, 1e-12)
    bad = report_from_residual("x.y", {}, 1e-11, 1e-12)
    assert ok.passed and not bad.passed


def test_expected_failure_semantics():
    """For expected-failure checks a large residual is the passing outcome."""
    good = expected_failure_report("x.defect", {}, 0.1, 1e-4, "must stay above floor")
    bad = expected_failure_report("x.defect", {}, 1e-6, 1e-4, "must stay above floor")
    assert good.passed and good.expected_failure
    assert not bad.passed


def test_json_shape_and_empty_reports():
    config = RunConfig(seed=1)
    doc = json.loads(render_json(config, []))
    assert list(doc) == ["version", "seed", "config", "reports"]
    assert doc["reports"] == []


def test_json_residual_roundtrip():
    config = RunConfig(seed=1)
    r = report_from_residual("a.b", {"u": 1.5 + 0.25j}, 3.0517578125e-12, 1e-11)
    doc = json.loads(render_json(config, [r]))
    assert float(doc["reports"][0]["residual"]) == 3.0517578125e-12
    assert doc["reports"][0]["pass"] is True
    assert doc["reports"][0]["params"]["u"] == "1.5+0.25i"


def test_csv_shape():
    r = report_from_residual("a.b", {"n": 3}, 0.5, 1e-2)
    text = render_csv([r])
    lines = text.strip().split("\n")
    assert lines[0] == "check_id,param_summary,residual,tolerance,pass"
    assert lines[1].startswith("a.b,n=3,") and lines[1].endswith(",false")


def test_emit_report_files(tmp_path):
    config = RunConfig(seed=7)
    reports = [report_from_residual("a.b", {}, 1e-14, 1e-12)]
    jpath = tmp_path / "out.json"
    cpath = tmp_path / "out.csv"
    emit_report(config, reports, "json", str(jpath))
    emit_report(config, reports, "csv", str(cpath))
    assert json.loads(jpath.read_text())["seed"] == 7
    assert cpath.read_text().count("\n") == 2


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(samples=0)
    with pytest.raises(ValueError):
        RunConfig(n_sites=13)
    with pytest.raises(ValueError):
        RunConfig(boundary="wrapped")


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "seed = 99\n"
        "n_sites = 5\n"
        "xi = 0.25-0.5i   # inline comment\n"
        "boundary = open\n"
        "tol.ybe.yang_baxter = 1e-10\n"
    )
    values = load_config_file(str(path))
    config = RunConfig(**values)
    assert config.seed == 99
    assert config.n_sites == 5
    assert config.xi == 0.25 - 0.5j
    assert config.boundary == "open"
    assert config.tolerances == {"ybe.yang_baxter": 1e-10}


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("volume = 11\n")
    with pytest.raises(ValueError):
        load_config_file(str(path))


def test_suite_determinism_byte_identical():
    config = RunConfig(seed=31415, n_sites=3, xi=0.4, samples=5)
    a = render_json(config, run_suite(config, "all"))
    b = render_json(config, run_suite(config, "all"))
    assert a == b


def test_different_seeds_differ():
    c1 = RunConfig(seed=1, n_sites=3, samples=5)
    c2 = RunConfig(seed=2, n_sites=3, samples=5)
    assert render_json(c1, run_suite(c1, "ybe")) != render_json(c2, run_suite(c2, "ybe"))


def test_every_check_reachable_from_exactly_one_suite():
    """Coverage audit: each emitted check id belongs to its own suite's
    namespace and to no other suite."""
    config = RunConfig(seed=5, n_sites=4, xi=0.5, samples=3)
    seen = {}
    for suite in SUITES:
        for report in run_suite(config, suite):
            prefix = report.check_id.split(".")[0]
            assert prefix == suite, report.check_id
            seen.setdefault(report.check_id, suite)
    assert all(check.startswith(suite + ".") for check, suite in seen.items())
    # 'all' is exactly the concatenation in declared order
    ids_all = [r.check_id for r in run_suite(config, "all")]
    ids_concat = [r.check_id for s in SUITES for r in run_suite(config, s)]
    assert ids_all == ids_concat


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(RunConfig(), "everything")


def test_tolerance_override_applies():
    config = RunConfig(seed=5, n_sites=3, samples=2,
                       tolerances={"ybe.yang_baxter": 1e-30})
    reports = [r for r in run_suite(config, "ybe") if r.check_id == "ybe.yang_baxter"]
    assert all(not r.passed for r in reports)  # impossible override makes them fail
    assert all(r.tolerance == 1e-30 for r in reports)


def test_one_magnon_off_shell_records_the_samples_it_ran():
    reports = run_suite(RunConfig(n_sites=2, samples=2), "bethe")
    (report,) = [r for r in reports if r.check_id == "bethe.one_magnon_off_shell"]
    assert report.params["samples"] == 2


@pytest.mark.parametrize("boundary, check_ids", [
    ("periodic", ["spectrum.transfer"] * 5),
    ("open", ["spectrum.open_boundary_terms"]),
])
def test_one_site_spectrum_skips_only_the_hamiltonian(boundary, check_ids):
    """A one-site chain has no bond: the periodic suite compares the transfer
    spectra only, the open one checks its (empty) deformation terms."""
    for complex_xi in (False, True):
        config = RunConfig(n_sites=1, boundary=boundary, complex_xi=complex_xi)
        reports = run_suite(config, "spectrum")
        assert [r.check_id for r in reports] == check_ids
        assert all(r.passed for r in reports)


def test_spectrum_suite_pairs_spectra_under_its_check_tolerances(monkeypatch):
    """A tolerance override decides the greedy-or-optimal pairing too; the
    transfer pairs are matched before the Hamiltonians are built, and the
    dense cross-check keeps its own tolerance."""
    seen = []

    def recording(s1, s2, tol):
        seen.append(tol)
        return match_spectra(s1, s2, tol)

    monkeypatch.setattr(ch, "match_spectra", recording)
    monkeypatch.setattr(suites, "match_spectra", recording)
    config = RunConfig(n_sites=3, samples=2, tolerances={
        "spectrum.hamiltonian": 3e-9, "spectrum.transfer": 4e-8})
    run_suite(config, "spectrum")
    assert seen == [4e-8, 4e-8, 3e-9, 1e-5]


def _extraction_commutes(config):
    (report,) = [r for r in run_suite(config, "spectrum")
                 if r.check_id == "spectrum.extraction_commutes"]
    return report


def _perturb_extraction(monkeypatch, eps):
    """Let the suite read H_ext + eps SM_1 as the log-derivative Hamiltonian;
    returns the perturbed extraction."""
    extract = ch.extract_hamiltonian

    def perturbed(spec, h_formula):
        pair = extract(spec, h_formula)
        return replace(pair, h_extracted=pair.h_extracted
                       + eps * embed_at_site(SM, 1, spec.n_sites))

    monkeypatch.setattr(ch, "extract_hamiltonian", perturbed)
    return perturbed


@pytest.mark.parametrize("n", [2, 3])
def test_extraction_commutes_is_the_full_residual_on_the_identity_probe(n, monkeypatch):
    """While dim <= PROBE_COLUMNS the probe is the identity, and the probe
    residual is the full-matrix commutator residual of H_ext and t(u), also
    with H_ext perturbed off the commutant."""
    config = RunConfig(n_sites=n)
    spec = ch.ChainSpec(n, TwistParams(config.xi, config.eta))
    for eps in (0.0, 1e-3):
        with monkeypatch.context() as patch:
            h = _perturb_extraction(patch, eps)(spec, ch.build_hamiltonian(spec)).h_extracted
            report = _extraction_commutes(config)
        t_u = ch.transfer_matrix(spec, report.params["u"])
        full = np.linalg.norm(h @ t_u - t_u @ h) / np.linalg.norm(h @ t_u)
        assert report.notes.endswith("probe: identity, the full-matrix residual")
        assert abs(report.residual - full) <= 1e-15


def test_extraction_commutes_probe_sees_a_perturbed_hamiltonian(monkeypatch):
    """At N = 6 the Gaussian probe reads a 1e-3 SM_1 perturbation of H_ext
    far above the 1e-10 tolerance; unperturbed it passes."""
    config = RunConfig(n_sites=6)
    clean = _extraction_commutes(config)
    assert clean.passed and "probe: gaussian" in clean.notes
    _perturb_extraction(monkeypatch, 1e-3)
    report = _extraction_commutes(config)
    assert report.params == clean.params
    assert report.residual > 1e-6 and not report.passed


@pytest.mark.parametrize("n, budget_mib", [(9, 14), (10, 52)])
def test_spectrum_suite_stays_in_budget(n, budget_mib):
    """At N = 9 one 2^N-square complex matrix is 4 MiB, at N = 10 16 MiB.
    The suite keeps at most three alive at once: it runs the transfer pairs
    before it builds H(xi) and H(0), drops H(0) before H(xi) is solved and
    H(xi) once both fits are read, and the traces stream their last two
    sites. It peaks at 14 MiB or less at N = 9 and 52 MiB or less at N = 10
    (measured 13.2 and 51.3 MiB; with the whole product over sites 1..N-1
    in every trace and H(xi) and H(0) alive through the transfer pairs they
    read 22.5 and 87.3 MiB). Only the designed red extraction_fit and the
    eigensolver-limited hamiltonian_dense fail."""
    run_suite(RunConfig(n_sites=2), "spectrum")  # imports and caches outside the trace
    tracemalloc.start()
    try:
        reports = run_suite(RunConfig(n_sites=n), "spectrum")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 13
    assert {r.check_id for r in reports if not r.passed} == {
        "spectrum.extraction_fit", "spectrum.hamiltonian_dense"}
    assert peak < budget_mib * 2**20, peak


NAN = float("nan")


@pytest.mark.parametrize("samples", [[NAN, 1e-3, 2.0], [1e-3, NAN, 2.0], [1e-3, 2.0, NAN]])
def test_worst_is_nan_wherever_the_nan_sample_sits(samples):
    assert np.isnan(_worst(samples))
    assert np.isnan(_worst(iter(samples)))


def test_worst_of_finite_samples_is_their_max():
    assert _worst([]) == 0.0
    assert _worst([0.0, 0.0]) == 0.0
    worst = _worst(x for x in [3e-16, np.float64(7e-13), 0.0, 1e-14])
    assert worst == 7e-13 and type(worst) is float


def test_worst_sample_reports_the_first_nan_draw():
    rng = np.random.default_rng(7)
    draws = [{"x": rng.uniform()} for _ in range(5)]
    worst, worst_at = _worst_sample(draws, [1e-3, NAN, 5.0, NAN, 2e-3])
    assert np.isnan(worst) and worst_at == draws[1]


def test_worst_sample_reports_the_first_draw_of_the_max():
    draws = [{"k": k} for k in range(4)]
    assert _worst_sample(draws, [1e-3, 2.0, 2.0, 0.5]) == (2.0, {"k": 1})
    assert _worst_sample(draws[:3], [0.0] * 3) == (0.0, {})


def test_relation_reports_leave_skipped_records_out_and_fail_on_nan():
    """A skipped record carries NaN by design and is left out; a NaN sample
    of a relation makes it read NaN and fail, even for a recorded misprint."""
    def record(rid, residual, **extra):
        return {"rel_id": rid, "residual": residual, "note": "", **extra}
    sweeps = [
        [record("AC", 2e-14), record("AC", NAN, skipped="alpha(u,v) ~ 0"), record("DB_2", 0.5)],
        [record("AC", 3e-14), record("DB_2", NAN)],
    ]
    ac, db2 = _relation_reports(RunConfig(), "cr", sweeps, {}, 1e-12)
    assert ac.check_id == "cr.AC" and ac.residual == 3e-14 and ac.passed
    assert db2.check_id == "cr.DB_2" and np.isnan(db2.residual)
    assert not db2.passed and not db2.expected_failure
