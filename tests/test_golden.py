"""Golden report: `twistchain verify all --n-sites 4` at the default config.

The file under tests/data was rendered by the CLI. A refactor must keep
every check id, parameter and verdict, and every residual to 1e-12
absolute; a deliberate change regenerates the file and explains each
moved number in CHANGES.md.
"""

import json
from pathlib import Path

from twistchain.reporting import RunConfig, render_json
from twistchain.suites import run_suite

GOLDEN = Path(__file__).parent / "data" / "golden_verify_all_n4.json"


def test_verify_all_n4_matches_golden_report():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    config = RunConfig(n_sites=4)
    current = json.loads(render_json(config, run_suite(config, "all")))
    assert current["config"] == golden["config"]
    assert len(current["reports"]) == len(golden["reports"])
    for now, then in zip(current["reports"], golden["reports"]):
        assert (now["check_id"], now["params"], now["pass"]) == (
            then["check_id"], then["params"], then["pass"])
        assert abs(float(now["residual"]) - float(then["residual"])) <= 1e-12, now["check_id"]
