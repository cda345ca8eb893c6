import numpy as np
import pytest

from twistchain.relations import (
    CR_RELATIONS,
    DB_2_VARIANT,
    KNOWN_MISPRINTS,
    SYMMETRY_RELATIONS,
    evaluate,
    parse,
    relation_residual,
)
from twistchain.reporting import RunConfig, unread_tolerances
from twistchain.suites import run_suite


def _env():
    rng = np.random.default_rng(0)
    mats = {name: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for name in ("A(u)", "B(u)", "A(v)", "E")}
    mats.update({"xi": 0.5 + 0.25j, "alpha(u,v)": 2.0, "beta(u,v)": 1.0})
    return mats


def test_product_order_preserved():
    env = _env()
    got = evaluate(parse("A(u)*B(u)"), env)
    assert np.allclose(got, env["A(u)"] @ env["B(u)"])
    assert not np.allclose(got, env["B(u)"] @ env["A(u)"])


def test_scalar_and_power():
    env = _env()
    got = evaluate(parse("xi^2*A(u)"), env)
    assert np.allclose(got, env["xi"] ** 2 * env["A(u)"])


def test_parenthesized_combination():
    env = _env()
    got = evaluate(parse("(alpha(u,v)*A(v) - xi*B(u))*A(u)"), env)
    expected = (2.0 * env["A(v)"] - env["xi"] * env["B(u)"]) @ env["A(u)"]
    assert np.allclose(got, expected)


def test_scalar_promotes_to_identity_in_sums():
    env = _env()
    got = evaluate(parse("xi*(1 - E^2)"), env)
    expected = env["xi"] * (np.eye(3) - env["E"] @ env["E"])
    assert np.allclose(got, expected)


def test_unary_minus():
    env = _env()
    assert np.allclose(evaluate(parse("-A(u)"), env), -env["A(u)"])


def test_residual_zero_for_identity():
    env = _env()
    assert relation_residual("A(u)*B(u) = A(u)*B(u)", env) == 0.0


def test_bad_token_rejected():
    with pytest.raises(ValueError):
        parse("A(u) @ B(u)")


def test_unbound_symbol_reported():
    with pytest.raises(KeyError, match="C\\(u\\)"):
        evaluate(parse("C(u)"), _env())


def test_all_tables_parse():
    for relation in CR_RELATIONS + SYMMETRY_RELATIONS:
        lhs, rhs = relation.text.split("=")
        parse(lhs)
        parse(rhs)
    parse(DB_2_VARIANT.split("=")[0])


def test_misprint_registry_points_at_table_entries():
    ids = {r.rel_id for r in CR_RELATIONS}
    assert set(KNOWN_MISPRINTS) <= ids


def test_known_misprint_text_carries_the_variant():
    assert KNOWN_MISPRINTS["DB_2"].endswith(DB_2_VARIANT)


def test_cr_relations_share_one_tolerance_key():
    """Every cr relation check reads the key `cr.relations`, not its own id."""
    strict = run_suite(RunConfig(n_sites=3, tolerances={"cr.relations": 1e-30}), "cr")
    unflagged = [r for r in strict if not r.expected_failure]
    assert len(unflagged) == len(CR_RELATIONS)  # 13 relations and the DB_2 variant
    assert all(r.tolerance == 1e-30 and not r.passed for r in unflagged)
    assert [r.check_id for r in strict if r.expected_failure] == ["cr.DB_2"]

    per_id_config = RunConfig(n_sites=3, tolerances={"cr.AC": 1e-30})
    per_id = run_suite(per_id_config, "cr")
    assert {r.check_id: r.tolerance for r in per_id}["cr.AC"] == 1e-12
    assert unread_tolerances(per_id_config, per_id) == ["cr.AC"]
