import numpy as np
import pytest

from twistchain.bethe import (
    BetheSolverError,
    BetheState,
    completeness_audit,
    eval_lambda,
    lambda_pole_residue,
    log_defects,
    magnon_product_state,
    one_magnon_roots,
    solve_bethe,
    two_magnon_seeds,
    verify_multi_magnon_spectrum,
    verify_one_magnon_action,
    verify_tq,
)
from twistchain import bethe, chain
from twistchain.chain import ChainSpec, spectrum_of, transfer_matrix
from twistchain.reporting import RunConfig
from twistchain.suites import run_suite
from twistchain.tensor import eigenvalues
from twistchain.twist import TwistParams


def test_one_magnon_closed_form_n2():
    """v = eta/2 solves ((v - eta)/v)^2 = 1 since alpha(eta/2) = -1."""
    assert log_defects([0.5], 2, 1.0)[0] < 1e-14


def test_one_magnon_closed_form_n4():
    """v = eta/(1 - i): alpha(v) = i and i^4 = 1."""
    v = 1.0 / (1 - 1j)
    assert log_defects([v], 4, 1.0)[0] < 1e-14


def test_one_magnon_roots_formula():
    for n in (2, 3, 4, 6):
        for v in one_magnon_roots(n, 1.0):
            alpha = 1 - 1.0 / v
            assert abs(alpha**n - 1) < 1e-12


def test_defect_rejects_pole_roots():
    with pytest.raises(ValueError):
        log_defects([0.0], 4, 1.0)
    with pytest.raises(ValueError):
        log_defects([0.5, 1.5], 4, 1.0)  # gap exactly eta


def test_solver_converges_to_half_eta():
    state = solve_bethe(2, 1, 1.0, [0.4])
    assert abs(state.roots[0] - 0.5) < 1e-12
    assert state.residual < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_solver_finds_every_one_magnon_root(n):
    for root in one_magnon_roots(n, 1.0):
        state = solve_bethe(n, 1, 1.0, [root * 1.12 + 0.05])
        assert min(abs(state.roots[0] - r) for r in one_magnon_roots(n, 1.0)) < 1e-12


def test_solver_two_magnon_string():
    """N = 4 has one finite two-magnon solution, the conjugate string
    eta/2 ± i eta/(2 sqrt(3)) (the other is the singular pair at {0, eta})."""
    state = solve_bethe(4, 2, 1.0, [0.5 + 0.3j, 0.5 - 0.3j])
    expected = {0.5 + 1j / (2 * np.sqrt(3)), 0.5 - 1j / (2 * np.sqrt(3))}
    for root in state.roots:
        assert min(abs(root - e) for e in expected) < 1e-10
    assert state.residual < 1e-12


def test_solver_idempotent_on_converged_roots():
    state = solve_bethe(4, 2, 1.0, [0.5 + 0.3j, 0.5 - 0.3j])
    again = solve_bethe(4, 2, 1.0, list(state.roots))
    assert np.max(np.abs(np.array(again.roots) - np.array(state.roots))) < 1e-12


def test_solver_rejects_escaping_roots():
    # seeds near the descendant configuration push the roots to infinity
    with pytest.raises(BetheSolverError):
        solve_bethe(4, 2, 1.0, [50.0 + 40.0j, 60.0 - 45.0j])


def test_state_validation():
    with pytest.raises(ValueError):
        BetheState(4, 5, (1,) * 5, 0.0, 1.0)
    with pytest.raises(ValueError):
        BetheState(4, 2, (0.5,), 0.0, 1.0)


def test_lambda_vacuum():
    state = BetheState(3, 0, (), 0.0, 1.0)
    u = 2.2
    assert eval_lambda(u, state) == pytest.approx(1 + (1 - 1 / u) ** 3)


def test_lambda_one_magnon_frozen_value():
    """M = 1, N = 2, v = eta/2, u = 2 eta: Lambda = 1/3 + (1/4)(5/3) = 0.75."""
    state = BetheState(2, 1, (0.5,), 0.0, 1.0)
    assert eval_lambda(2.0, state) == pytest.approx(0.75)


def test_lambda_pole_rejected():
    state = BetheState(2, 1, (0.5,), 0.0, 1.0)
    with pytest.raises(ValueError):
        eval_lambda(0.5, state)
    with pytest.raises(ValueError):
        eval_lambda(1.5, state)


def test_lambda_lands_in_exact_spectrum():
    n, eta = 4, 1.0
    state = solve_bethe(n, 2, eta, [0.5 + 0.3j, 0.5 - 0.3j])
    for xi in (0.0, 0.5):
        spec = ChainSpec(n, TwistParams(xi, eta))
        u = 2.7
        spectrum = eigenvalues(transfer_matrix(spec, u))
        lam = eval_lambda(u, state)
        assert np.min(np.abs(spectrum - lam)) < 1e-8


def test_one_magnon_action_undeformed():
    spec = ChainSpec(2, TwistParams(0.0, 1.0))
    assert verify_one_magnon_action(spec, 2.0, 0.9) < 1e-11


def test_one_magnon_action_deformed():
    rng = np.random.default_rng(9)
    spec = ChainSpec(3, TwistParams(0.6, 1.0))
    for _ in range(5):
        u = complex(rng.uniform(1, 4), rng.uniform(-1, 1))
        v = complex(rng.uniform(-4, -1), rng.uniform(-1, 1))
        assert verify_one_magnon_action(spec, u, v) < 1e-11


def test_on_shell_one_magnon_eigenvector():
    """C(v) O is an exact eigenvector whenever (alpha(v))^N = 1, any xi."""
    n, eta, xi = 4, 1.0, 0.8
    spec = ChainSpec(n, TwistParams(xi, eta))
    u = 2.1 + 0.3j
    t_u = transfer_matrix(spec, u)
    for v in one_magnon_roots(n, eta):
        psi = magnon_product_state(spec, [v])
        lam = eval_lambda(u, BetheState(n, 1, (complex(v),), 0.0, eta))
        assert np.linalg.norm(t_u @ psi - lam * psi) / np.linalg.norm(psi) < 1e-10


def test_tq_vacuum_identity():
    state = BetheState(3, 0, (), 0.0, 1.0)
    assert verify_tq(state, 1.7) == 0.0


def test_tq_one_magnon():
    state = BetheState(2, 1, (0.5,), 0.0, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = complex(rng.uniform(2, 5), rng.uniform(-1, 1))
        assert verify_tq(state, u) < 1e-12


def test_tq_two_magnon():
    state = solve_bethe(4, 2, 1.0, [0.5 + 0.3j, 0.5 - 0.3j])
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = complex(rng.uniform(2, 5), rng.uniform(-1, 1))
        assert verify_tq(state, u) < 1e-10


def test_multi_magnon_undeformed_both_subchecks_pass():
    n, eta = 4, 1.0
    state = solve_bethe(n, 2, eta, [0.5 + 0.3j, 0.5 - 0.3j])
    spec = ChainSpec(n, TwistParams(0.0, eta))
    spectrum = spectrum_of(transfer_matrix(spec, 2.7), n)[0]
    rec = verify_multi_magnon_spectrum(spec, [state], 2.7, spectrum)[0]
    assert rec["eigenvalue_gap"] < 1e-8
    assert rec["eigenvector_defect"] < 1e-10


def test_multi_magnon_deformed_eigenvector_fails():
    """Expected failure at xi != 0: the eigenvalue survives but the product
    state C(v1)C(v2) O is no longer an eigenvector (defect above 1e-4)."""
    n, eta = 4, 1.0
    state = solve_bethe(n, 2, eta, [0.5 + 0.3j, 0.5 - 0.3j])
    spec = ChainSpec(n, TwistParams(0.5, eta))
    spectrum = spectrum_of(transfer_matrix(spec, 2.7), n)[0]
    rec = verify_multi_magnon_spectrum(spec, [state], 2.7, spectrum)[0]
    assert rec["eigenvalue_gap"] < 1e-8
    assert rec["eigenvector_defect"] > 1e-4


def test_one_magnon_deformed_is_still_eigenvector():
    n, eta = 4, 1.0
    root = one_magnon_roots(n, eta)[0]
    state = BetheState(n, 1, (complex(root),), 0.0, eta)
    spec = ChainSpec(n, TwistParams(0.9, eta))
    spectrum = spectrum_of(transfer_matrix(spec, 3.1), n)[0]
    rec = verify_multi_magnon_spectrum(spec, [state], 3.1, spectrum)[0]
    assert rec["eigenvalue_gap"] < 1e-8
    assert rec["eigenvector_defect"] < 1e-10


def test_lambda_analytic_across_roots():
    """The poles of the two Lambda terms cancel on shell (contour probe)."""
    state = solve_bethe(4, 2, 1.0, [0.5 + 0.3j, 0.5 - 0.3j])
    for j in range(2):
        assert lambda_pole_residue(state, j) < 1e-9


def test_completeness_audit_n4():
    """Found states explain 15 of 16 exact eigenvalues; the missing family is
    the singular two-string (roots at 0 and eta), flagged rather than found."""
    n, eta = 4, 1.0
    states = [BetheState(n, 0, (), 0.0, eta)]
    states += [solve_bethe(n, 1, eta, [r * 1.1 + 0.04]) for r in one_magnon_roots(n, eta)]
    states += [solve_bethe(n, 2, eta, [0.5 + 0.3j, 0.5 - 0.3j])]
    spec = ChainSpec(n, TwistParams(0.5, eta))
    audit = completeness_audit(spec, 2.3, states, spectrum_of(transfer_matrix(spec, 2.3), n)[0])
    assert audit["dimension"] == 16
    assert audit["matched"] == 15
    assert audit["unmatched"] == 1


def test_two_magnon_seeds_structure():
    seeds = two_magnon_seeds(4, 1.0)
    assert all(len(s) == 2 for s in seeds)
    assert len(seeds) >= 4


def _suite_states(n, eta):
    """Vacuum, closed-form one-magnon and solved two-magnon states, as the
    bethe suite gathers them."""
    states = [BetheState(n, 0, (), 0.0, eta)]
    states += [BetheState(n, 1, (complex(r),), 0.0, eta) for r in one_magnon_roots(n, eta)]
    found = []
    for seed in two_magnon_seeds(n, eta):
        try:
            state = solve_bethe(n, 2, eta, seed)
        except BetheSolverError:
            continue
        if all(not np.allclose(s.roots, state.roots, atol=1e-8) for s in found):
            found.append(state)
    return states + found


def _list_scan_audit(spec, u, states, spectrum):
    """The audit's matching as a repeated argmin and pop over a list."""
    spectrum = list(spectrum)
    matched = 0
    details = []
    for state in states:
        lam = bethe.eval_lambda(u, state)
        mult = spec.n_sites - 2 * state.magnons + 1
        hits = 0
        for _ in range(mult):
            gaps = [abs(s - lam) for s in spectrum]
            k = int(np.argmin(gaps))
            if gaps[k] < 1e-6:
                spectrum.pop(k)
                hits += 1
        matched += hits
        details.append({"magnons": state.magnons, "expected": mult, "matched": hits})
    return {"dimension": spec.dim, "matched": matched, "unmatched": spec.dim - matched,
            "per_state": details}


@pytest.mark.parametrize("n", range(4, 9))
def test_completeness_audit_matches_the_list_scan(n):
    eta, u = 1.0, 2.3 + 1.1j
    spec = ChainSpec(n, TwistParams(0.5, eta))
    states = _suite_states(n, eta)
    spectrum = spectrum_of(transfer_matrix(spec, u), n)[0]
    audit = completeness_audit(spec, u, states, spectrum)
    assert audit == _list_scan_audit(spec, u, states, spectrum)
    assert audit["matched"] > 0


def test_completeness_audit_breaks_an_exact_tie_by_the_lower_index(monkeypatch):
    """Lambda_A = 0 sits exactly between -d and d; A must claim -d, the lower
    index, so that B, within 1e-6 of d only, can claim d."""
    d = 2.0 ** -21
    lam = {0.3: 0.0, 0.7: d + 2.0 ** -22}
    monkeypatch.setattr(bethe, "eval_lambda", lambda u, state: lam[state.roots[0]])
    spec = ChainSpec(2, TwistParams(0.5, 1.0))
    states = [BetheState(2, 1, (0.3,), 0.0, 1.0), BetheState(2, 1, (0.7,), 0.0, 1.0)]
    spectrum = np.array([-d, d, 5.0, 6.0], dtype=complex)
    audit = completeness_audit(spec, 1.5, states, spectrum)
    assert audit["matched"] == 2
    assert audit == _list_scan_audit(spec, 1.5, states, spectrum)


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("xi", [0.0, 0.5])
def test_multi_magnon_defect_equals_the_dense_product(n, xi):
    """The defect from transfer_apply agrees with ||t(u) psi - Lambda psi|| / ||psi||
    from the full t(u) to 1e-12 relative to ||t(u) psi|| / ||psi||."""
    eta, u = 1.0, 2.3 + 1.1j
    spec = ChainSpec(n, TwistParams(xi, eta))
    states = [s for s in _suite_states(n, eta) if s.magnons]
    t_u = transfer_matrix(spec, u)
    records = verify_multi_magnon_spectrum(spec, states, u, spectrum_of(t_u, n)[0])
    for state, rec in zip(states, records):
        psi = magnon_product_state(spec, state.roots)
        lam = eval_lambda(u, state)
        dense = np.linalg.norm(t_u @ psi - lam * psi) / np.linalg.norm(psi)
        scale = np.linalg.norm(t_u @ psi) / np.linalg.norm(psi)
        assert abs(rec["eigenvector_defect"] - dense) <= 1e-12 * max(scale, 1.0)
        assert rec["eigenvalue_gap"] < 1e-8


def test_bethe_suite_builds_and_solves_t_u4_once(monkeypatch):
    """One verify bethe traces one full t(u4) and solves one graded spectrum."""
    calls = {"_trace_last_site": 0, "graded_eigenvalues": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(chain, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(chain, name, counting)
    run_suite(RunConfig(n_sites=6), "bethe")
    assert calls == {"_trace_last_site": 1, "graded_eigenvalues": 1}
