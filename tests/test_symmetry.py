import tracemalloc

import numpy as np
import pytest

from twistchain import relations
from twistchain.chain import ChainSpec, _site_product, transfer_matrix
from twistchain.reporting import RunConfig, render_json
from twistchain.rmatrix import build_r_xi
from twistchain.suites import run_suite
from twistchain.symmetry import (
    PROBE_COLUMNS,
    _constant_blocks,
    extract_t0,
    order1_transcription_residual,
    probe_block,
    verify_coproducts,
    verify_symmetry_relations,
)
from twistchain.tensor import MAX_SITES, SM, embed_at_site
from twistchain.twist import TwistParams


def test_t0_trivial_without_deformation():
    e, g, _ = _constant_blocks(ChainSpec(3, TwistParams(0.0, 1.0)))
    assert np.array_equal(e, np.eye(8))
    assert not g.any()


def test_t0_single_site_blocks():
    """For one site the constant term is the constant R-matrix itself, read in
    auxiliary blocks: E = [[1,0],[-xi,1]], G = [[xi,0],[xi^2,-xi]]."""
    xi = 0.6
    e, g, e_inv = _constant_blocks(ChainSpec(1, TwistParams(xi, 1.0)))
    assert np.allclose(e, [[1, 0], [-xi, 1]])
    assert np.allclose(e_inv, [[1, 0], [xi, 1]])
    assert np.allclose(g, [[xi, 0], [xi**2, -xi]])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_t0_block_structure(n):
    """On the identity and on a Gaussian probe block: the upper-right block
    of T_0 is a structural zero, and the diagonal blocks are inverse."""
    spec = ChainSpec(n, TwistParams(0.45, 1.0))
    rng = np.random.default_rng(n)
    for x in (np.eye(spec.dim), probe_block(spec.dim, rng)[0],
              (rng.standard_normal((spec.dim, 3)) + 1j) / 3):
        data = extract_t0(spec, x)
        assert data.zero_block_residual == 0.0
        assert data.inverse_pair_residual < 1e-12


@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("xi", [0.45, 0.3 + 0.4j])
def test_constant_blocks_are_those_of_extract_t0(n, xi):
    """The blocks that ``_constant_blocks`` and ``extract_t0`` read off the
    T_0 applier on the identity are bitwise the four blocks of the grown
    constant product prod_k R_{a,k}(xi), the u^N coefficient of the
    polynomial monodromy; on a block X they are those blocks applied to X."""
    spec = ChainSpec(n, TwistParams(xi, 0.8 + 0.3j))
    d = spec.dim
    t0 = _site_product(build_r_xi(xi), n)
    want = (t0[:d, :d], t0[d:, :d], t0[d:, d:])
    data = extract_t0(spec, np.eye(d))
    for got in (_constant_blocks(spec), (data.e, data.g, data.e_inv)):
        for block, reference in zip(got, want):
            assert np.array_equal(block, reference)
    assert data.zero_block_residual == float(np.linalg.norm(t0[:d, d:]))
    x = probe_block(d, np.random.default_rng(n))[0]
    probed = extract_t0(spec, x)
    for block, reference in zip((probed.e, probed.g, probed.e_inv), want):
        assert np.allclose(block, reference @ x, rtol=0, atol=1e-13)


def test_e_is_grouplike_product():
    """E on N sites is the N-fold tensor power of the single-site E."""
    xi = 0.7
    e1 = _constant_blocks(ChainSpec(1, TwistParams(xi, 1.0)))[0]
    e2 = _constant_blocks(ChainSpec(2, TwistParams(xi, 1.0)))[0]
    assert np.allclose(e2, np.kron(e1, e1), atol=1e-14)


def test_e_is_exponential_of_global_lowering():
    """E = exp(-xi sum_n sm_n); exact because the exponent squares to few terms."""
    n, xi = 3, 0.45
    e = _constant_blocks(ChainSpec(n, TwistParams(xi, 1.0)))[0]
    lowering = sum(embed_at_site(SM, k, n) for k in range(1, n + 1))
    expo = np.eye(2**n, dtype=complex)
    term = np.eye(2**n, dtype=complex)
    for k in range(1, n + 1):
        term = term @ (-xi * lowering) / k
        expo = expo + term
    assert np.allclose(e, expo, atol=1e-13)


def test_e_unipotent():
    n = 4
    e = _constant_blocks(ChainSpec(n, TwistParams(0.8, 1.0)))[0]
    assert np.linalg.norm(np.linalg.matrix_power(e - np.eye(2**n), n + 1)) < 1e-10


@pytest.mark.parametrize("n,xi", [(1, 0.6), (2, 0.6), (3, -0.8), (4, 0.35)])
def test_displayed_relations_hold(n, xi):
    spec = ChainSpec(n, TwistParams(xi, 1.0))
    records = verify_symmetry_relations(spec, 1.9 - 0.4j, np.eye(spec.dim))
    assert len(records) == 11  # ten displayed lines plus the [E, t(u)] corollary
    for record in records:
        assert record["residual"] < 1e-11, record["rel_id"]


def test_relations_undeformed_collapse():
    spec = ChainSpec(3, TwistParams(0.0, 1.0))
    for record in verify_symmetry_relations(spec, 2.4, np.eye(spec.dim)):
        assert record["residual"] < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_e_commutes_with_transfer(n):
    rng = np.random.default_rng(n)
    xi = rng.uniform(-1, 1)
    spec = ChainSpec(n, TwistParams(xi, 1.0))
    e = _constant_blocks(spec)[0]
    u = complex(rng.uniform(1, 4), rng.uniform(-1, 1))
    t_u = transfer_matrix(spec, u)
    assert np.linalg.norm(e @ t_u - t_u @ e) / np.linalg.norm(t_u) < 1e-11


@pytest.mark.parametrize("split", [(1, 1), (2, 1), (2, 2)])
def test_coproducts(split):
    result = verify_coproducts(*split, xi=0.7, eta=1.0)
    assert result["e_residual"] < 1e-12
    assert result["g_residual"] < 1e-12
    assert result["order"] == "second_segment_left"


def test_coproduct_wrong_order_fails():
    """Only one tensor-factor order satisfies the G formula; the other is
    recorded as failing, which pins the convention empirically."""
    result = verify_coproducts(2, 1, xi=0.7, eta=1.0)
    assert result["g_residual_first_segment_left"] > 1e-2


def test_coproducts_trivial_at_zero():
    result = verify_coproducts(2, 2, xi=0.0, eta=1.0)
    assert result["e_residual"] == 0.0 and result["g_residual"] == 0.0


def test_coproduct_bounds():
    with pytest.raises(ValueError):
        verify_coproducts(0, 2, 0.1, 1.0)
    with pytest.raises(ValueError):
        verify_coproducts(7, 6, 0.1, 1.0)


@pytest.mark.parametrize("n,xi", [(1, 0.5), (2, 0.5), (3, -0.7), (5, 0.3 + 0.4j)])
def test_order1_coefficient_reading(n, xi):
    """The exact 1/u coefficient equals the ordered product transcription with
    empty boundary products, which settles the printed index ambiguity: on
    the identity of aux ⊗ chain and on a Gaussian probe block."""
    spec = ChainSpec(n, TwistParams(xi, 1.0))
    for x in (np.eye(2 * spec.dim), probe_block(2 * spec.dim, np.random.default_rng(n))[0]):
        assert order1_transcription_residual(spec, x) < 1e-12


def test_suite_reports_a_wrong_relation_as_a_failure(monkeypatch):
    """Only lines recorded in KNOWN_MISPRINTS are flagged as suspected
    misprints: a wrong E/G row that fails at every sample is a failure."""
    wrong = relations.Relation("EB_wrong", "E*B(u) = 2*B(u)*E")
    monkeypatch.setattr(relations, "SYMMETRY_RELATIONS",
                        relations.SYMMETRY_RELATIONS + (wrong,))
    reports = {r.check_id: r for r in run_suite(RunConfig(n_sites=3), "symmetry")}
    report = reports["symmetry.EB_wrong"]
    assert report.residual > 1e-6
    assert not report.passed
    assert not report.expected_failure
    assert reports["symmetry.EB"].passed


_RELATION_IDS = [r.rel_id for r in relations.SYMMETRY_RELATIONS] + ["Et"]


def test_gaussian_probe_keeps_the_frobenius_scale():
    """E||M X||_F^2 = ||M||_F^2: the mean over many draws is within a few
    standard errors (each draw has relative spread about 1/sqrt(K))."""
    rng = np.random.default_rng(3)
    m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    draws = [np.linalg.norm(m @ probe_block(32, rng)[0]) ** 2 for _ in range(400)]
    assert np.mean(draws) == pytest.approx(np.linalg.norm(m) ** 2, rel=0.05)


@pytest.mark.parametrize("n,route", [(3, "identity"), (6, "gaussian")])
def test_suite_records_the_probe_route(n, route):
    reports = {r.check_id: r for r in run_suite(RunConfig(n_sites=n), "symmetry")}
    for rel_id in _RELATION_IDS:
        params = reports[f"symmetry.{rel_id}"].params
        assert params["probe"] == route and params["probe_columns"] == PROBE_COLUMNS


def test_relations_hold_on_the_gaussian_probe():
    """N = 6 has 64 > K basis states, so every row is probed by a Gaussian block."""
    reports = {r.check_id: r for r in run_suite(RunConfig(n_sites=6), "symmetry")}
    for rel_id in _RELATION_IDS:
        assert reports[f"symmetry.{rel_id}"].residual <= 1e-13, rel_id


def test_gaussian_probe_reports_a_wrong_relation(monkeypatch):
    """E B = B E, so the row E*B(u) = 2*B(u)*E reads ||BEX|| / ||2BEX|| = 1/2."""
    wrong = relations.Relation("EB_wrong", "E*B(u) = 2*B(u)*E")
    monkeypatch.setattr(relations, "SYMMETRY_RELATIONS",
                        relations.SYMMETRY_RELATIONS + (wrong,))
    reports = {r.check_id: r for r in run_suite(RunConfig(n_sites=6), "symmetry")}
    report = reports["symmetry.EB_wrong"]
    assert report.params["probe"] == "gaussian"
    assert abs(report.residual - 0.5) < 1e-12
    assert not report.passed and not report.expected_failure


def test_probed_suite_is_deterministic():
    config = RunConfig(n_sites=6)
    first = render_json(config, run_suite(config, "symmetry"))
    assert render_json(config, run_suite(config, "symmetry")) == first


def test_unipotent_probe_residual_is_exactly_zero():
    """E - I strictly lowers total sz: N + 1 applications to the probe block
    leave structural zeros, not rounding."""
    reports = {r.check_id: r for r in run_suite(RunConfig(n_sites=6), "symmetry")}
    assert reports["symmetry.unipotent"].residual == 0.0


def test_symmetry_suite_forms_no_chain_square_matrix():
    """Every check at the requested N runs on column blocks: at N = 9 one
    2^9-square complex matrix is 4 MiB and one on aux ⊗ chain 16 MiB, and the
    full-matrix suite peaked at about 100 MiB."""
    run_suite(RunConfig(n_sites=2), "symmetry")  # imports and caches outside the trace
    tracemalloc.start()
    try:
        reports = run_suite(RunConfig(n_sites=9), "symmetry")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < 16 * 2**20, peak


def test_symmetry_suite_runs_at_the_cap():
    reports = run_suite(RunConfig(n_sites=MAX_SITES), "symmetry")
    assert len(reports) == 18
    assert not [r.check_id for r in reports if not r.passed]
    assert all(r.check_id != "symmetry.error" for r in reports)
