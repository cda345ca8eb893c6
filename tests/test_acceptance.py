"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see every line. Tolerances
and runtime caps are pinned here, not configurable.

Criterion 6a fails by design of the inputs, not of the artifact: the
displayed local Hamiltonian formula carries deformation coefficients
(xi^2, xi) while the transfer-matrix log-derivative produces the density
with both doubled, so the affine fit cannot land below 1e-9 at xi != 0
(the measured residual is percent-level and tolerance-independent, and the
doubled-coefficient fit is at machine precision). The check is kept
faithful to the stated criterion and reports the evidence instead of
bending the formula.
"""

import time

import numpy as np

from twistchain import bethe as bt
from twistchain import chain as ch
from twistchain import fusion as fu
from twistchain import rmatrix as rm
from twistchain import symmetry as sy
from twistchain import twist as tw
from twistchain.reporting import RunConfig, render_json
from twistchain.suites import run_suite
from twistchain.tensor import match_spectra


def _line(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>3} {name}: {tag}" + (f" ({detail})" if detail else ""))
    return ok


def _annulus(rng, avoid=(), gap=0.1):
    while True:
        u = rng.uniform(0.5, 5.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if all(abs(u - p) >= gap for p in avoid):
            return complex(u)


def test_criterion_1_ybe_suite():
    start = time.time()
    config = RunConfig(seed=2024, n_sites=4, xi=0.5)
    reports = [r for r in run_suite(config, "ybe") if r.check_id == "ybe.yang_baxter"]
    elapsed = time.time() - start
    worst = max(r.residual for r in reports)
    ok = len(reports) == 100 and all(r.passed for r in reports) and worst < 1e-12 \
        and elapsed < 1.0
    assert _line(1, "ybe 100 samples < 1e-12", ok,
                 f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_construction_cross_check():
    start = time.time()
    rng = np.random.default_rng(2)
    params, us = [], []
    for _ in range(50):
        params.append(tw.TwistParams(rng.uniform(-1, 1), 1.0))
        us.append(_annulus(rng))
    const, spectral = rm.verify_construction(us, params)
    worst_const, worst_spectral = max(const), max(spectral)
    elapsed = time.time() - start
    ok = worst_const < 1e-13 and worst_spectral < 1e-13 and elapsed < 1.0
    assert _line(2, "construction cross-check < 1e-13", ok,
                 f"constant {worst_const:.2e}, spectral {worst_spectral:.2e}")


def test_criterion_3_rtt_suite():
    start = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (1, 2, 3, 4):
        us, vs, params = [], [], []
        for _ in range(20):
            params.append(tw.TwistParams(rng.uniform(-1, 1), 1.0))
            us.append(_annulus(rng))
            vs.append(_annulus(rng, avoid=(us[-1],)))
        worst = max(worst, *ch.verify_rtt(n, us, vs, params))
    elapsed = time.time() - start
    ok = worst < 1e-11 and elapsed < 30.0
    assert _line(3, "rtt N in 1..4 < 1e-11", ok, f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_commuting_transfer():
    start = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            spec = ch.ChainSpec(n, tw.TwistParams(rng.uniform(-1, 1), 1.0))
            tu = ch.transfer_matrix(spec, _annulus(rng))
            tv = ch.transfer_matrix(spec, _annulus(rng))
            worst = max(worst, float(
                np.linalg.norm(tu @ tv - tv @ tu) / np.linalg.norm(tu @ tv)))
    elapsed = time.time() - start
    ok = worst < 1e-11 and elapsed < 60.0
    assert _line(4, "commuting family N in 2..6 < 1e-11", ok,
                 f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_spectrum_coincidence():
    start = time.time()
    rng = np.random.default_rng(5)
    worst_h = worst_t = 0.0
    for n in range(2, 9):
        for xi in (0.3, 0.9, 10.0):
            spec = ch.ChainSpec(n, tw.TwistParams(xi, 1.0))
            u_samples = [_annulus(rng) for _ in range(5)]
            ev_xi, ev_0, _ = ch.spectrum_pair(
                ch.build_hamiltonian(spec),
                ch.build_hamiltonian(ch.ChainSpec(n, tw.TwistParams(0.0, 1.0))), n)
            h_rep = match_spectra(ev_xi, ev_0, 1e-8)
            t_reps = ch.transfer_spectrum_coincidence(spec, u_samples, 1e-7)
            assert h_rep.matched, (n, xi)
            worst_h = max(worst_h, h_rep.max_pair_distance)
            for _, rep in t_reps:
                assert rep.matched, (n, xi)
                worst_t = max(worst_t, rep.max_pair_distance)
    elapsed = time.time() - start
    ok = worst_h < 1e-8 and worst_t < 1e-7 and elapsed < 120.0
    assert _line(5, "spectrum coincidence N in 2..8", ok,
                 f"H {worst_h:.2e}, t {worst_t:.2e}, {elapsed:.1f}s")


def test_criterion_6a_extraction_affine_fit():
    start = time.time()
    worst = 0.0
    details = []
    for n in (3, 4, 5):
        for xi in (0.0, 0.5):
            spec = ch.ChainSpec(n, tw.TwistParams(xi, 1.0))
            pair = ch.extract_hamiltonian(spec, ch.build_hamiltonian(spec))
            worst = max(worst, pair.fit_residual)
            details.append(
                f"N={n} xi={xi}: displayed {pair.fit_residual:.2e}"
                f" / doubled {pair.fit_residual_doubled:.2e}")
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 60.0
    _line("6a", "extraction affine fit to displayed formula < 1e-9", ok,
          f"worst {worst:.2e}")
    assert ok, (
        "affine fit to the displayed deformation coefficients cannot reach 1e-9 "
        "at xi != 0; the log-derivative density carries (2 xi^2, 2 xi) instead "
        "of (xi^2, xi). Evidence: " + "; ".join(details)
    )


def test_criterion_6b_extraction_commutes():
    start = time.time()
    rng = np.random.default_rng(6)
    worst = 0.0
    for n in (3, 4, 5):
        for xi in (0.0, 0.5):
            spec = ch.ChainSpec(n, tw.TwistParams(xi, 1.0))
            pair = ch.extract_hamiltonian(spec, ch.build_hamiltonian(spec))
            t_u = ch.transfer_matrix(spec, _annulus(rng))
            worst = max(worst, float(
                np.linalg.norm(pair.h_extracted @ t_u - t_u @ pair.h_extracted)
                / np.linalg.norm(pair.h_extracted @ t_u)))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 60.0
    assert _line("6b", "extracted Hamiltonian commutes with t(u) < 1e-10", ok,
                 f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_7_vacuum_and_one_magnon():
    start = time.time()
    rng = np.random.default_rng(7)
    worst_vac = worst_shell = 0.0
    for n in range(2, 7):
        spec = ch.ChainSpec(n, tw.TwistParams(rng.uniform(-1, 1), 1.0))
        u = _annulus(rng)
        omega = ch.vacuum_state(n)
        blocks = ch.monodromy_blocks_apply(spec, u, omega)
        worst_vac = max(
            worst_vac,
            float(np.linalg.norm(blocks.a - omega)),
            float(np.linalg.norm(blocks.d - ch.vacuum_d(u, spec) * omega)),
            float(np.max(np.abs(blocks.b))),
        )
    n = 5
    spec = ch.ChainSpec(n, tw.TwistParams(0.7, 1.0))
    for v in bt.one_magnon_roots(n, 1.0):
        u = _annulus(rng, avoid=(v, v + 1.0))
        psi = bt.magnon_product_state(spec, [v])
        lam = bt.eval_lambda(u, bt.BetheState(n, 1, (complex(v),), 0.0, 1.0))
        t_u = ch.transfer_matrix(spec, u)
        worst_shell = max(worst_shell, float(
            np.linalg.norm(t_u @ psi - lam * psi) / np.linalg.norm(psi)))
    us, vs = [], []
    for _ in range(20):
        us.append(_annulus(rng))
        vs.append(_annulus(rng, avoid=(us[-1],)))
    worst_off = max(bt.verify_one_magnon_action(spec, us, vs))
    elapsed = time.time() - start
    ok = worst_vac < 1e-11 and worst_shell < 1e-10 and worst_off < 1e-11 \
        and elapsed < 60.0
    assert _line(7, "vacuum triangularity and one-magnon action", ok,
                 f"vac {worst_vac:.2e}, shell {worst_shell:.2e}, off {worst_off:.2e}")


def test_criterion_8_bethe_tq():
    start = time.time()
    n, eta = 4, 1.0
    rng = np.random.default_rng(8)

    worst_m1 = 0.0
    states = [bt.BetheState(n, 0, (), 0.0, eta)]
    for root in bt.one_magnon_roots(n, eta):
        state = bt.solve_bethe(n, 1, eta, [root * 1.1 + 0.03])
        worst_m1 = max(worst_m1, state.residual, float(abs(state.roots[0] - root)))
        states.append(state)

    found = []
    for seed in bt.two_magnon_seeds(n, eta):
        try:
            state = bt.solve_bethe(n, 2, eta, seed)
        except bt.BetheSolverError:
            continue
        key = tuple(np.round(np.array(state.roots), 8))
        if all(tuple(np.round(np.array(s.roots), 8)) != key for s in found):
            found.append(state)
    states.extend(found)
    assert found, "no two-magnon solution converged"

    spec_half = ch.ChainSpec(n, tw.TwistParams(0.5, eta))
    guard = [0.0] + [r for s in found for r in
                     (*s.roots, *(z + eta for z in s.roots), *(z - eta for z in s.roots))]
    u = _annulus(rng, avoid=guard, gap=0.15)
    ev_half = ch.spectrum_of(ch.transfer_matrix(spec_half, u), n)[0]
    worst_gap = max(rec["eigenvalue_gap"]
                    for rec in bt.verify_multi_magnon_spectrum(spec_half, found, u, ev_half))

    worst_tq = 0.0
    for state in states:
        for _ in range(10):
            avoid = [0.0] + [z + d for z in state.roots for d in (0, eta, -eta)]
            worst_tq = max(worst_tq, bt.verify_tq(state, _annulus(rng, avoid=avoid)))

    defect_half = min(rec["eigenvector_defect"]
                      for rec in bt.verify_multi_magnon_spectrum(spec_half, found, u, ev_half))
    spec_zero = ch.ChainSpec(n, tw.TwistParams(0.0, eta))
    ev_zero = ch.spectrum_of(ch.transfer_matrix(spec_zero, u), n)[0]
    defect_zero = max(rec["eigenvector_defect"]
                      for rec in bt.verify_multi_magnon_spectrum(spec_zero, found, u, ev_zero))
    elapsed = time.time() - start
    ok = (worst_m1 < 1e-12 and worst_gap < 1e-8 and worst_tq < 1e-10
          and defect_half > 1e-4 and defect_zero < 1e-10 and elapsed < 60.0)
    assert _line(8, "bethe roots, TQ, expected eigenvector failure", ok,
                 f"m1 {worst_m1:.2e}, gap {worst_gap:.2e}, tq {worst_tq:.2e}, "
                 f"defect(0.5) {defect_half:.2e} > 1e-4 > defect(0) {defect_zero:.2e}")


def test_criterion_9_symmetry_algebra():
    start = time.time()
    rng = np.random.default_rng(9)
    worst_block = worst_rel = worst_comm = worst_cop = 0.0
    flagged = []
    per_relation: dict[str, list[float]] = {}
    for n in (1, 2, 3, 4):
        xi = rng.uniform(-1, 1)
        spec = ch.ChainSpec(n, tw.TwistParams(xi, 1.0))
        data = sy.extract_t0(spec, np.eye(spec.dim))
        worst_block = max(worst_block, data.zero_block_residual)
        records = sy.verify_symmetry_relations(spec, _annulus(rng), np.eye(spec.dim))
        for record in records:
            per_relation.setdefault(record["rel_id"], []).append(record["residual"])
            if record["rel_id"] == "Et":
                worst_comm = max(worst_comm, record["residual"])
    for rel_id, residuals in per_relation.items():
        if min(residuals) > 1e-6:
            flagged.append(rel_id)  # fails everywhere: flag as suspected misprint
        else:
            worst_rel = max(worst_rel, max(residuals))
    for split in ((1, 1), (2, 1), (2, 2)):
        res = sy.verify_coproducts(*split, xi=0.6, eta=1.0)
        worst_cop = max(worst_cop, res["e_residual"], res["g_residual"])
    elapsed = time.time() - start
    # flagging, not silent failure, is the pass condition for a relation that
    # fails everywhere; in this corpus none does
    ok = (worst_block < 1e-13 and worst_rel < 1e-11 and worst_comm < 1e-11
          and worst_cop < 1e-12 and elapsed < 60.0)
    assert _line(9, "symmetry algebra relations and coproducts", ok,
                 f"block {worst_block:.2e}, relations {worst_rel:.2e}, "
                 f"[E,t] {worst_comm:.2e}, coproducts {worst_cop:.2e}, "
                 f"flagged {flagged or 'none'}")


def test_criterion_10_fusion_relation():
    start = time.time()
    rng = np.random.default_rng(10)
    worst = 0.0
    for n in (1, 2, 3):
        for xi in (0.0, 0.4):
            spec = ch.ChainSpec(n, tw.TwistParams(xi, 1.0))
            for level in (1, 2):
                for _ in range(3):
                    u = _annulus(rng, avoid=(0.0, 1.0, 2.0, 3.0), gap=0.2)
                    worst = max(worst, fu.verify_fusion_relation(spec, level, u))
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 60.0
    assert _line(10, "fusion functional relation l in {1,2}", ok,
                 f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_11_twist_algebra():
    start = time.time()
    worst_anchor = max(rm.fundamental_twist_matches_universal(x)
                       for x in (0.0, 1.0, -2.0, 0.5))
    rng = np.random.default_rng(11)
    half, one = tw.make_spin_rep(0.5), tw.make_spin_rep(1.0)
    worst_coc = 0.0
    for _ in range(5):
        xi = rng.uniform(-1, 1)
        worst_coc = max(worst_coc,
                        tw.verify_cocycle(half, half, half, xi),
                        tw.verify_cocycle(half, half, one, xi))
    worst_sigma = 0.0
    for two_s in (1, 2, 3):
        rep = tw.make_spin_rep(two_s / 2)
        for _ in range(3):
            xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            lhs = tw._nilpotent_exp(-tw.sigma_element(rep, xi))
            worst_sigma = max(worst_sigma, float(
                np.linalg.norm(lhs - (np.eye(rep.dim) - 2 * xi * rep.e))))
    elapsed = time.time() - start
    ok = (worst_anchor == 0.0 and worst_coc < 1e-12 and worst_sigma < 1e-13
          and elapsed < 5.0)
    assert _line(11, "twist anchor, cocycle, sigma exponential", ok,
                 f"anchor {worst_anchor:.1e}, cocycle {worst_coc:.2e}, "
                 f"sigma {worst_sigma:.2e}")


def test_criterion_12_determinism():
    start = time.time()
    config = RunConfig(seed=99, n_sites=4, xi=0.5)
    first = render_json(config, run_suite(config, "all"))
    second = render_json(config, run_suite(config, "all"))
    elapsed = time.time() - start
    ok = first == second and elapsed < 300.0
    assert _line(12, "verify all twice is byte-identical", ok,
                 f"{len(first)} bytes, {elapsed:.1f}s")
