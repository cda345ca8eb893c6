import ast

import numpy as np
import pytest

from twistchain.relations import (
    CR_RELATIONS,
    DB_2_VARIANT,
    KNOWN_MISPRINTS,
    SYMMETRY_RELATIONS,
    Member,
    parse,
    relation_residual,
    relation_residuals,
)
from twistchain.chain import (
    ChainSpec,
    monodromy_matrix,
    relation_env,
    verify_commutation_relations,
)
from twistchain.reporting import RunConfig
from twistchain.suites import run_suite, unread_tolerances
from twistchain.symmetry import (
    _ET,
    _constant_blocks,
    _family_env,
    verify_symmetry_relations,
)
from twistchain.tensor import rel_residual
from twistchain.twist import TwistParams


def _env():
    rng = np.random.default_rng(0)
    mats = {name: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for name in ("A(u)", "B(u)", "A(v)", "E")}
    mats.update({"xi": 0.5 + 0.25j, "alpha(u,v)": 2.0, "beta(u,v)": 1.0})
    return mats


def _members(env):
    """`env` with its dense matrices bound as the members of one test family."""
    names = [name for name, value in env.items() if isinstance(value, np.ndarray)]

    def family(y):
        return tuple(env[name] @ y for name in names)

    return {name: Member(family, names.index(name)) if name in names else value
            for name, value in env.items()}


def _residual_to(side, env, want, x):
    """``relation_residual`` of 'side = Want' on the block x, with the
    expected matrix `want` bound as the one member of a test family (a
    number stays a scalar)."""
    binding = Member(lambda y: (want @ y,), 0) if isinstance(want, np.ndarray) else want
    return relation_residual(f"{side} = Want", {**env, "Want": binding}, x)


def test_product_order_preserved():
    env = _env()
    a, b = env["A(u)"], env["B(u)"]
    assert _residual_to("A(u)*B(u)", _members(env), a @ b, np.eye(3)) <= 1e-15
    assert _residual_to("A(u)*B(u)", _members(env), b @ a, np.eye(3)) > 1e-2


def test_scalar_and_power():
    env = _env()
    want = env["xi"] ** 2 * env["A(u)"]
    assert _residual_to("xi^2*A(u)", _members(env), want, np.eye(3)) <= 1e-15


def test_parenthesized_combination():
    env = _env()
    expected = (2.0 * env["A(v)"] - env["xi"] * env["B(u)"]) @ env["A(u)"]
    got = _residual_to("(alpha(u,v)*A(v) - xi*B(u))*A(u)", _members(env), expected, np.eye(3))
    assert got <= 1e-15


def test_scalar_promotes_to_identity_in_sums():
    env = _env()
    expected = env["xi"] * (np.eye(3) - env["E"] @ env["E"])
    assert _residual_to("xi*(1 - E^2)", _members(env), expected, np.eye(3)) <= 1e-15


def test_unary_minus():
    env = _env()
    assert _residual_to("-A(u)", _members(env), -env["A(u)"], np.eye(3)) == 0.0


def test_residual_zero_for_identity():
    env = _env()
    assert relation_residual("A(u)*B(u) = A(u)*B(u)", _members(env), np.eye(3)) == 0.0


@pytest.mark.parametrize("text", ["A(u) @ B(u)", "A(u)^1.5", "A(u)^-1", "1j*A(u)", "A(u).T",
                                  "A(u=v)", "A(1)", "(A(u)"])
def test_bad_token_rejected(text):
    with pytest.raises(ValueError):
        parse(text)


def test_unbound_symbol_reported():
    with pytest.raises(KeyError, match="C\\(u\\)"):
        relation_residual("C(u) = A(u)", _members(_env()), np.eye(3))


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


def _full_matrix_evaluate(node, env):
    """The full-matrix evaluator the block evaluator replaced, kept as an
    oracle over the parsed ``ast`` nodes: matrices multiplied in the
    written order, a scalar added to a matrix promoted to scalar*I."""
    if isinstance(node, ast.Constant):
        return complex(node.value)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.Call):
        return env[f"{node.func.id}({','.join(arg.id for arg in node.args)})"]
    if isinstance(node, ast.UnaryOp):
        return -_full_matrix_evaluate(node.operand, env)
    a = _full_matrix_evaluate(node.left, env)
    if isinstance(node.op, ast.Pow):
        if isinstance(a, np.ndarray):
            return np.linalg.matrix_power(a, node.right.value)
        return a ** node.right.value
    b = _full_matrix_evaluate(node.right, env)
    if isinstance(node.op, ast.Mult):
        return a @ b if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) else a * b
    if isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        b = b * np.eye(a.shape[0], dtype=complex)
    if isinstance(b, np.ndarray) and not isinstance(a, np.ndarray):
        a = a * np.eye(b.shape[0], dtype=complex)
    return a + b if isinstance(node.op, ast.Add) else a - b


def _full_matrix_residual(text, env):
    lhs, rhs = text.split("=")
    return rel_residual(_full_matrix_evaluate(parse(lhs), env),
                        _full_matrix_evaluate(parse(rhs), env))


_POINTS = ((0.6, 1.9 - 0.4j, -0.7 + 2.2j), (-0.35 + 0.2j, 2.6 + 1.1j, 0.8 - 1.5j))


def _dense_blocks(spec, u, point):
    """A(point)..D(point) sliced from the full monodromy."""
    t, d = monodromy_matrix(spec, u), spec.dim
    blocks = (t[:d, :d], t[:d, d:], t[d:, :d], t[d:, d:])
    return {f"{name}({point})": block for name, block in zip("ABCD", blocks)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_block_reproduces_the_full_matrix_cr_residuals(n):
    """At X = I the residual of each CR record, with A..D read off the
    monodromy applier, is the full-matrix one of the blocks sliced from
    ``monodromy_matrix``, up to rounding; every CR row and the DB_2 variant."""
    for xi, u, v in _POINTS:
        spec = ChainSpec(n, TwistParams(xi, 1.0))
        env = {**relation_env(spec, u, v), **_dense_blocks(spec, u, "u"),
               **_dense_blocks(spec, v, "v")}
        records = verify_commutation_relations(spec, u, v)
        assert [r["rel_id"] for r in records] == [r.rel_id for r in CR_RELATIONS]
        for record in records:
            expected = _full_matrix_residual(record["text"], env)
            assert abs(record["residual"] - expected) <= 1e-15, record["rel_id"]
            if "variant_residual" in record:
                expected = _full_matrix_residual(DB_2_VARIANT, env)
                assert abs(record["variant_residual"] - expected) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_block_reproduces_the_full_matrix_symmetry_residuals(n):
    for xi, u, _ in _POINTS:
        spec = ChainSpec(n, TwistParams(xi, 1.0))
        env = _dense_symmetry_env(spec, u)
        records = verify_symmetry_relations(spec, u, np.eye(spec.dim))
        assert len(records) == len(SYMMETRY_RELATIONS) + 1
        for record in records:
            expected = _full_matrix_residual(record["text"], env)
            assert abs(record["residual"] - expected) <= 1e-15, record["rel_id"]


def _dense_symmetry_env(spec, u):
    e, g, e_inv = _constant_blocks(spec)
    return {"E": e, "G": g, "Einv": e_inv, **_dense_blocks(spec, u, "u"), "xi": spec.params.xi}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_word_table_agrees_with_dense_products(n):
    """Every side of the E/G table and of the corollary, applied by the word
    table through the T_0 and monodromy appliers, is the side formed from
    dense A..D, E, G and E^{-1} by matrix products, applied to the block:
    at X = I and on a Gaussian probe."""
    rng = np.random.default_rng(50 + n)
    for xi, u, _ in _POINTS:
        spec = ChainSpec(n, TwistParams(xi, 0.8 + 0.3j))
        dense, applied = _dense_symmetry_env(spec, u), _family_env(spec, u)
        gaussian = rng.standard_normal((spec.dim, 8)) + 1j * rng.standard_normal((spec.dim, 8))
        for x in (np.eye(spec.dim), gaussian / 4):
            for relation in SYMMETRY_RELATIONS + (_ET,):
                for side in relation.text.split("="):
                    want = _full_matrix_evaluate(parse(side), dense)
                    got = _residual_to(side, applied, want, x)
                    assert got <= 1e-13, (relation.rel_id, side)


def test_each_distinct_word_is_applied_once_per_family_and_level():
    """A table of two-letter words over one family reaches the family once
    per level, with every distinct input of the level stacked side by side."""
    rng = np.random.default_rng(2)
    mats = [rng.standard_normal((3, 3)) for _ in range(2)]
    calls = []

    def family(y):
        calls.append(y.shape[1])
        return tuple(m @ y for m in mats)

    env = {"P": Member(family, 0), "Q": Member(family, 1), "c": 2.0}
    x = rng.standard_normal((3, 2))
    texts = ["P*Q = Q*P", "c*P*Q = P*P + c*Q", "Q*Q = Q"]
    got = relation_residuals(texts, env, x)
    p, q = mats
    want = [rel_residual(p @ q @ x, q @ p @ x),
            rel_residual(2 * p @ q @ x, p @ p @ x + 2 * q @ x),
            rel_residual(q @ q @ x, q @ x)]
    assert np.allclose(got, want, rtol=1e-13, atol=0)
    # level 1 applies the family to x; level 2 to P x and Q x side by side
    assert calls == [2, 4]


def test_block_evaluation_is_the_operator_applied_to_the_block():
    env = _env()
    x = np.random.default_rng(1).standard_normal((3, 2))
    text = "xi*(1 - E^2)*A(u) + alpha(u,v)*A(u)*B(u)"
    full = _full_matrix_evaluate(parse(text), env)
    assert _residual_to(text, _members(env), full, x) <= 1e-15


def test_a_binding_that_is_neither_member_nor_number_is_refused():
    """An operator bound as a bare matrix is named in the error instead of
    being taken for a scalar coefficient."""
    env = _members(_env())
    env["B(u)"] = _env()["B(u)"]
    with pytest.raises(TypeError, match=r"B\(u\)"):
        relation_residual("A(u)*B(u) = B(u)*A(u)", env, np.eye(3))
    with pytest.raises(TypeError, match="xi"):
        relation_residual("xi*A(u) = A(u)", {**env, "xi": "0.5"}, np.eye(3))
