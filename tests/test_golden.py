"""Golden reports: `twistchain verify all --n-sites 4` at the default config,
with `--boundary open` and with `--complex-xi`, `twistchain verify
spectrum --n-sites 7`, where `spectrum.hamiltonian_dense` is red at 1.06e-5,
and `twistchain verify bethe --n-sites 6`, whose eigenvalue gaps and
completeness counts read the graded spectrum of the deformed t(u).

The files under tests/data were rendered by the CLI. A refactor must keep
every check id, parameter and verdict, and every residual to 1e-12
absolute; the `ybe.*` and `rtt.*` records and the
`bethe.one_magnon_off_shell` and `bethe.one_magnon_on_shell` records,
evaluated as stacked sweeps whose every sample must equal its own
evaluation bitwise, and the `twist.*` and `fusion.*` records, whose small
dense evaluations must equal the numpy calls they replaced bitwise
(`tensor.kron`, `tensor.frobenius`), must stay exactly as rendered,
residual strings included. A deliberate change
regenerates the file and explains each moved number in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from twistchain.reporting import RunConfig, render_json
from twistchain.suites import run_suite

DATA = Path(__file__).parent / "data"


# check-id prefixes whose records must equal the golden ones exactly
_EXACT = ("ybe.", "rtt.", "bethe.one_magnon_off_shell", "bethe.one_magnon_on_shell",
          "twist.", "fusion.")


def _assert_matches_golden(name, config, suite="all"):
    golden = json.loads((DATA / name).read_text(encoding="utf-8"))
    current = json.loads(render_json(config, run_suite(config, suite)))
    assert current["config"] == golden["config"]
    assert len(current["reports"]) == len(golden["reports"])
    for now, then in zip(current["reports"], golden["reports"]):
        if now["check_id"].startswith(_EXACT):
            assert now == then
            continue
        assert (now["check_id"], now["params"], now["pass"]) == (
            then["check_id"], then["params"], then["pass"])
        assert abs(float(now["residual"]) - float(then["residual"])) <= 1e-12, now["check_id"]


def test_verify_all_n4_matches_golden_report():
    _assert_matches_golden("golden_verify_all_n4.json", RunConfig(n_sites=4))


@pytest.mark.parametrize("name, config", [
    ("golden_verify_all_n4_open.json", RunConfig(n_sites=4, boundary="open")),
    ("golden_verify_all_n4_complex_xi.json", RunConfig(n_sites=4, complex_xi=True)),
], ids=["open", "complex_xi"])
def test_verify_all_n4_variant_matches_golden_report(name, config):
    _assert_matches_golden(name, config)


def test_verify_spectrum_n7_matches_golden_report():
    _assert_matches_golden("golden_verify_spectrum_n7.json", RunConfig(n_sites=7), "spectrum")


def test_verify_bethe_n6_matches_golden_report():
    _assert_matches_golden("golden_verify_bethe_n6.json", RunConfig(n_sites=6), "bethe")
