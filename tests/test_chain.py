import tracemalloc
from math import comb

import numpy as np
import pytest

from twistchain import chain
from twistchain.chain import (
    MOMENTUM_TOL,
    ChainSpec,
    ExtractionError,
    _affine_fit,
    _momentum_basis,
    _scaled_permutation,
    _sector_eigenvalues,
    _site_product,
    _solve_t0,
    _transfer,
    build_hamiltonian,
    extract_hamiltonian,
    graded_eigenvalues,
    log_derivative,
    monodromy_blocks_apply,
    monodromy_matrix,
    monodromy_poly_coeffs,
    rtt_components,
    spectrum_pair,
    strictly_lowering_residual,
    transfer_matrix,
    transfer_spectrum_coincidence,
    vacuum_d,
    vacuum_state,
    verify_commutation_relations,
    verify_rtt,
)
from twistchain.rmatrix import build_r, polynomial_l
from twistchain.tensor import SM, SX, SY, SZ, eigenvalues, match_spectra, rel_residual
from twistchain.twist import TwistParams

from test_kernel import _kernel_poly_pair


def brute_monodromy(n, u, xi, eta):
    """Independent oracle: T(u) = L_N...L_1 assembled with raw np.kron only."""
    r = build_r(u, TwistParams(xi, eta))
    t = np.eye(2 * 2**n, dtype=complex)
    for k in range(n, 0, -1):
        r4 = r.reshape(2, 2, 2, 2)
        term = np.zeros((2 * 2**n, 2 * 2**n), dtype=complex)
        for a in range(2):
            for ap in range(2):
                aux = np.zeros((2, 2))
                aux[a, ap] = 1
                ops = [np.eye(2, dtype=complex)] * n
                ops[k - 1] = r4[a, :, ap, :]
                site_op = ops[0]
                for op in ops[1:]:
                    site_op = np.kron(site_op, op)
                term += np.kron(aux, site_op)
        t = t @ term
    return t


def test_monodromy_matches_brute_oracle():
    for (n, xi, u) in [(1, 0.7, 2.0), (2, -0.4, 1.3 + 0.2j), (3, 0.9, -2.1)]:
        spec = ChainSpec(n, TwistParams(xi, 1.0))
        assert np.allclose(monodromy_matrix(spec, u), brute_monodromy(n, u, xi, 1.0),
                           rtol=0, atol=1e-13)


def test_single_site_blocks_are_r_blocks():
    spec = ChainSpec(1, TwistParams(0.6, 1.0))
    u = 1.7
    blocks = monodromy_blocks_apply(spec, u, np.eye(2))
    r = build_r(u, spec.params)
    assert np.array_equal(blocks.a, r[:2, :2])
    assert np.array_equal(blocks.b, r[:2, 2:])
    assert np.array_equal(blocks.c, r[2:, :2])
    assert np.array_equal(blocks.d, r[2:, 2:])


def test_vacuum_action_undeformed_two_sites():
    """N = 2, xi = 0, u = 2, eta = 1: A O = O and D O = (1 - 1/2)^2 O = O/4."""
    spec = ChainSpec(2, TwistParams(0.0, 1.0))
    omega = vacuum_state(2)
    blocks = monodromy_blocks_apply(spec, 2.0, omega)
    assert np.allclose(blocks.a, omega)
    assert np.allclose(blocks.d, 0.25 * omega)


@pytest.mark.parametrize("xi", [0.0, 0.8, -1.1])
def test_vacuum_annihilated_by_b(xi):
    spec = ChainSpec(3, TwistParams(xi, 1.0))
    blocks = monodromy_blocks_apply(spec, 1.9 - 0.3j, vacuum_state(3))
    assert np.max(np.abs(blocks.b)) < 1e-12


def test_transfer_vacuum_eigenvalue():
    spec = ChainSpec(4, TwistParams(0.55, 1.0))
    u = 2.6
    omega = vacuum_state(4)
    expected = (1 + vacuum_d(u, spec)) * omega
    assert np.allclose(transfer_matrix(spec, u) @ omega, expected, atol=1e-12)


def test_transfer_undeformed_matches_brute():
    spec = ChainSpec(2, TwistParams(0.0, 1.0))
    u = 1.4
    brute = brute_monodromy(2, u, 0.0, 1.0)
    t_brute = brute[:4, :4] + brute[4:, 4:]
    assert np.allclose(transfer_matrix(spec, u), t_brute, atol=1e-13)


_TRACE_PARAMS = [TwistParams(0.5, 1.0), TwistParams(0.3 + 0.4j, 0.8 + 0.3j)]


# site factors of the rational and polynomial forms and their points, with
# the finite-difference points of the polynomial form
_FORMS = ((build_r, [1.7, -1.3 + 0.8j]), (polynomial_l, [2.9 + 0.4j, 0.0, 1e-5, -1e-5]))


def _whole_trace(l4, n):
    """A + D of the whole product of l4 over n sites (``_site_product``)."""
    t, d = _site_product(l4, n), 2 ** n
    return t[:d, :d] + t[d:, d:]


def _whole_log_derivatives(spec):
    """Both log-derivatives from whole products over all N sites, traced as
    A + D: the u^0 and u^1 coefficients grown site by site (the exact
    route), and the polynomial transfer matrix at 0 and +-1e-5 (central
    differences)."""
    n, params, d = spec.n_sites, spec.params, spec.dim
    coeffs = chain._poly_carry(*chain._poly_factors(spec), [np.eye(2, dtype=complex)],
                               range(1, n + 1), chain._grow_at)
    t0, t1 = (c[:d, :d] + c[d:, d:] for c in coeffs)
    fd = _whole_trace(polynomial_l(1e-5, params), n)
    fd -= _whole_trace(polynomial_l(-1e-5, params), n)
    fd /= 2e-5
    t0_fd = _whole_trace(polynomial_l(0.0, params), n)
    return _solve_t0([(t0, t1)], d), _solve_t0([(t0_fd, fd)], d)


@pytest.mark.parametrize("n", range(1, 11))
def test_streamed_traces_are_bitwise_the_whole_product(n, monkeypatch):
    """Streamed at the last two sites in bands of 3 rows of the product over
    sites 1..N-2, which split its 2^(N-2) rows unevenly from N = 4 on, t(u)
    for both forms (with the finite-difference points of the polynomial
    form) is bitwise A + D of the whole product over N sites, and so are
    both log-derivative routes; for the rational form through the public
    ``transfer_matrix`` and ``monodromy_matrix`` as well."""
    # a row of the product over sites 1..N-2 gives four output rows at N >= 2
    monkeypatch.setattr(chain, "_BAND_BYTES", 3 * 4 * 2**n * 16)
    for params in _TRACE_PARAMS:
        spec, d = ChainSpec(n, params), 2 ** n
        for local, us in _FORMS:
            for u in us:
                l4 = local(u, params)
                assert np.array_equal(_transfer(l4, n), _whole_trace(l4, n))
        for u in _FORMS[0][1]:
            t = monodromy_matrix(spec, u)
            assert np.array_equal(transfer_matrix(spec, u), t[:d, :d] + t[d:, d:])
        if n >= 2:
            poly, fd = _whole_log_derivatives(spec)
            assert np.array_equal(log_derivative(spec), poly)
            assert np.array_equal(log_derivative(spec, derivative="fd"), fd)


@pytest.mark.parametrize("n", range(1, 9))
def test_uneven_row_bands_are_bitwise_one_band(n, monkeypatch):
    """Streamed in bands of 3 rows of the product over sites 1..N-2, which
    split its 2^(N-2) rows unevenly from N = 4 on, t(u) for both forms
    (with the finite-difference points) and both log-derivative routes are
    bitwise the one-band result."""

    def results():
        out = []
        for params in _TRACE_PARAMS:
            spec = ChainSpec(n, params)
            out += [_transfer(local(u, params), n) for local, us in _FORMS for u in us]
            if n >= 2:
                out += [log_derivative(spec), log_derivative(spec, derivative="fd")]
        return out

    monkeypatch.setattr(chain, "_BAND_BYTES", 2**62)
    whole = results()
    monkeypatch.setattr(chain, "_BAND_BYTES", 3 * 4 * 2**n * 16)
    banded = results()
    assert len(banded) == len(whole)
    for got, want in zip(banded, whole):
        assert np.array_equal(got, want)


def _peak_mib(f):
    """Peak traced allocation of one call of f, in MiB, after a warm call."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_traced_transfer_and_log_derivative_stay_in_budget():
    """At N = 9 one 2^N-square matrix is 4 MiB and the product over sites
    1..N-2 1 MiB. Streamed at the last two sites, t(u) peaks at 5.5 MiB or
    less, the log-derivative at 7.5 MiB or less by the exact route and 8.5
    MiB or less by central differences (measured 5.3, 7.0 and 8.2 MiB; with
    the product over sites 1..N-1 formed whole and both derivatives held
    whole they read 9.5, 14.5 and 13.5 MiB). At N = 10 they peak at 20.5,
    25.5 and 29.5 MiB or less (measured 20.3, 25.0 and 29.2 MiB; 36, 56 and
    52 MiB with the whole product)."""
    for n, budgets in ((9, (5.5, 7.5, 8.5)), (10, (20.5, 25.5, 29.5))):
        spec = ChainSpec(n, TwistParams(0.5, 1.0))
        t_u, poly, fd = budgets
        assert _peak_mib(lambda: transfer_matrix(spec, 1.7)) <= t_u
        assert _peak_mib(lambda: log_derivative(spec)) <= poly
        assert _peak_mib(lambda: log_derivative(spec, derivative="fd")) <= fd


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_commuting_transfer_family(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        xi = rng.uniform(-1, 1)
        spec = ChainSpec(n, TwistParams(xi, 1.0))
        u = complex(rng.uniform(1, 4), rng.uniform(-1, 1))
        v = complex(rng.uniform(-4, -1), rng.uniform(-1, 1))
        tu, tv = transfer_matrix(spec, u), transfer_matrix(spec, v)
        res = np.linalg.norm(tu @ tv - tv @ tu) / np.linalg.norm(tu @ tv)
        assert res < 1e-11


def test_rtt_single_site_reduces_to_ybe():
    assert verify_rtt(1, [2.2], [0.7], [TwistParams(0.9, 1.0)])[0] < 1e-12


def test_rtt_deformed():
    rng = np.random.default_rng(4)
    us, vs = [], []
    for _ in range(3):
        us.append(complex(rng.uniform(1, 4), rng.uniform(-1, 1)))
        vs.append(complex(rng.uniform(-4, -1), rng.uniform(-1, 1)))
    residuals = verify_rtt(3, us, vs, [TwistParams(0.63, 1.0)] * 3)
    assert len(residuals) == 3
    assert max(residuals) < 1e-11


def test_rtt_undeformed_four_sites():
    assert verify_rtt(4, [2.4], [-1.2], [TwistParams(0.0, 1.0)])[0] < 1e-11


def test_rtt_sweep_validates_every_sample():
    params = [TwistParams(0.5, 1.0)] * 2
    with pytest.raises(ValueError):
        verify_rtt(2, [1.0, 2.0], [0.5, 2.0], params)  # u = v at the second sample
    with pytest.raises(ValueError):
        verify_rtt(2, [1.0, 0.0], [0.5, 1.0], params)  # the pole u = 0
    with pytest.raises(ValueError):
        verify_rtt(2, [1.0], [0.5, 0.7], params)
    with pytest.raises(ValueError):
        verify_rtt(0, [1.0], [0.5], params[:1])
    assert verify_rtt(3, [], [], []) == []


def test_rtt_all_sixteen_components():
    spec = ChainSpec(2, TwistParams(-0.8, 1.3))
    records = rtt_components(spec, 2.9, 1.1)
    assert len(records) == 16
    assert all(res < 1e-11 for _, res in records)


def test_commutation_relations_bb_always():
    rng = np.random.default_rng(6)
    for _ in range(3):
        spec = ChainSpec(2, TwistParams(rng.uniform(-1, 1), 1.0))
        u = complex(rng.uniform(1, 4), rng.uniform(-0.5, 0.5))
        v = complex(rng.uniform(-4, -1), rng.uniform(-0.5, 0.5))
        records = {r["rel_id"]: r for r in verify_commutation_relations(spec, u, v)}
        assert records["BB"]["residual"] < 1e-12


def test_commutation_relations_table():
    """All displayed lines hold at machine precision except DB_2, which fails
    even undeformed and is flagged, never corrected; the xi*B(u)*B(v) variant
    of that line does hold."""
    spec = ChainSpec(2, TwistParams(0.7, 1.0))
    records = {r["rel_id"]: r for r in verify_commutation_relations(spec, 3.0, 1.2)}
    assert len(records) == 14
    for rel_id, record in records.items():
        assert "text" in record and record["text"]
        if rel_id == "DB_2":
            assert record["residual"] > 1e-3
            assert record["note"]
            assert record["variant_residual"] < 1e-12
        else:
            assert record["residual"] < 1e-12


def test_commutation_relations_undeformed_collapse():
    spec = ChainSpec(2, TwistParams(0.0, 1.0))
    records = {r["rel_id"]: r for r in verify_commutation_relations(spec, 3.0, 1.2)}
    for rel_id, record in records.items():
        if rel_id != "DB_2":
            assert record["residual"] < 1e-12


def test_commutation_relations_pole_guard():
    spec = ChainSpec(2, TwistParams(0.5, 1.0))
    with pytest.raises(ValueError):
        verify_commutation_relations(spec, 2.0, 2.0)


def independent_hamiltonian(n, xi, periodic, c2=None, c1=None, yy_same_site=False):
    """Oracle built directly from summed np.kron strings; yy_same_site takes
    the literal reading sy_n sy_n of the displayed yy term."""
    c2 = xi**2 if c2 is None else c2
    c1 = xi if c1 is None else c1

    def site(op, k):
        ops = [np.eye(2, dtype=complex)] * n
        ops[k - 1] = op
        out = ops[0]
        for o in ops[1:]:
            out = np.kron(out, o)
        return out

    bonds = [(k, k + 1) for k in range(1, n)] + ([(n, 1)] if periodic else [])
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i, j in bonds:
        yy = site(SY, i) @ site(SY, i if yy_same_site else j)
        h += site(SX, i) @ site(SX, j) + yy + site(SZ, i) @ site(SZ, j)
        h += c2 * site(SM, i) @ site(SM, j) + c1 * (site(SM, i) - site(SM, j))
    return h


def test_hamiltonian_matches_oracle():
    for n, xi, periodic in [(3, 0.4, True), (4, -0.9, False)]:
        spec = ChainSpec(n, TwistParams(xi, 1.0), "periodic" if periodic else "open")
        assert np.array_equal(build_hamiltonian(spec), independent_hamiltonian(n, xi, periodic))


def test_hamiltonian_undeformed_is_hermitian():
    """Exactly, at N = 2..10 and both boundaries: the dense cross-check
    relies on it when it solves H(0) with the Hermitian solver, in real
    arithmetic."""
    for boundary in ("periodic", "open"):
        for n in range(2, 11):
            h = build_hamiltonian(ChainSpec(n, TwistParams(0.0, 1.0), boundary))
            assert np.array_equal(h, h.conj().T), (boundary, n)
            assert not h.imag.any(), (boundary, n)


def test_hamiltonian_deformed_not_hermitian():
    xi = 0.5
    # periodic: the linear terms telescope, the anti-Hermitian part is xi^2
    h = build_hamiltonian(ChainSpec(4, TwistParams(xi, 1.0)))
    assert np.max(np.abs(h - h.conj().T)) == pytest.approx(xi**2)
    # open: the boundary keeps the first-order terms, so the gap is O(xi)
    h_open = build_hamiltonian(ChainSpec(4, TwistParams(xi, 1.0), "open"))
    assert np.max(np.abs(h_open - h_open.conj().T)) == pytest.approx(xi)


def test_hamiltonian_periodic_linear_terms_telescope():
    """sum_n xi (sm_n - sm_{n+1}) wraps to zero, leaving only the xi^2 piece."""
    n, xi = 4, 0.8
    h = build_hamiltonian(ChainSpec(n, TwistParams(xi, 1.0)))
    no_linear = independent_hamiltonian(n, xi, True, c1=0.0)
    assert np.array_equal(h, no_linear)


def test_hamiltonian_open_boundary_leftover():
    n, xi = 4, 0.8
    h = build_hamiltonian(ChainSpec(n, TwistParams(xi, 1.0), "open"))
    no_linear = independent_hamiltonian(n, xi, False, c1=0.0)

    def site(op, k):
        ops = [np.eye(2, dtype=complex)] * n
        ops[k - 1] = op
        out = ops[0]
        for o in ops[1:]:
            out = np.kron(out, o)
        return out

    assert np.allclose(h - no_linear, xi * (site(SM, 1) - site(SM, n)))


def test_hamiltonian_literal_yy_reading_differs():
    literal = independent_hamiltonian(3, 0.0, True, yy_same_site=True)
    corrected = build_hamiltonian(ChainSpec(3, TwistParams(0.0, 1.0)))
    assert not np.array_equal(literal, corrected)
    # the literal reading breaks isotropy of the xi = 0 chain
    assert np.linalg.norm(literal - corrected) > 1.0


def test_hamiltonian_needs_two_sites():
    with pytest.raises(ValueError):
        build_hamiltonian(ChainSpec(1, TwistParams(0.1, 1.0)))


def test_open_one_site_hamiltonian_is_zero():
    h = build_hamiltonian(ChainSpec(1, TwistParams(0.1, 1.0), "open"))
    assert np.array_equal(h, np.zeros((2, 2)))


def _coincidence(spec):
    """The spectrum suite's pairings at three fixed points, under its
    default tolerances: (H(xi) against H(0), its lowering certificate, the
    transfer pairs), the first two None at N = 1, where the periodic chain
    has no Hamiltonian."""
    h_report = h_lowering = None
    if spec.n_sites >= 2:
        spec0 = ChainSpec(spec.n_sites, TwistParams(0.0, spec.params.eta))
        ev_xi, ev_0, h_lowering = spectrum_pair(build_hamiltonian(spec),
                                                build_hamiltonian(spec0), spec.n_sites)
        h_report = match_spectra(ev_xi, ev_0, 1e-8)
    return h_report, h_lowering, transfer_spectrum_coincidence(
        spec, [1.7, 2.9 + 0.4j, -1.3 + 0.8j], 1e-7)


def _extract(spec):
    """``extract_hamiltonian`` against the displayed H(xi), built here."""
    return extract_hamiltonian(spec, build_hamiltonian(spec))


def test_one_site_spectrum_coincidence_has_no_hamiltonian():
    h_report, h_lowering, t_reports = _coincidence(ChainSpec(1, TwistParams(0.4, 1.0)))
    assert h_report is None and h_lowering is None
    assert all(rep.matched for _, rep in t_reports)


def test_extraction_undeformed_standard():
    """Log-derivative at xi = 0 lands on the isotropic chain: a = -1/(2 eta),
    b = -N/(2 eta) for this convention (least-squares fit oracle)."""
    pair = _extract(ChainSpec(3, TwistParams(0.0, 1.0)))
    assert pair.fit_residual < 1e-12
    assert pair.scale == pytest.approx(-0.5, abs=1e-10)
    assert pair.shift == pytest.approx(-1.5, abs=1e-10)


def test_extraction_deformed_mismatch_is_flagged():
    """The displayed deformation coefficients do not reproduce the extracted
    density (the fit residual is percent-level and tolerance-independent);
    doubling both deformation terms fits to machine precision. Kept visible,
    not corrected."""
    pair = _extract(ChainSpec(4, TwistParams(0.5, 1.0)))
    assert pair.fit_residual > 1e-3
    assert pair.fit_residual_doubled < 1e-9
    assert pair.scale_doubled == pytest.approx(-0.5, abs=1e-9)


def test_extraction_commutes_with_transfer():
    spec = ChainSpec(3, TwistParams(0.85, 1.0))
    pair = _extract(spec)
    for u in (1.9, -2.3 + 0.7j):
        t_u = transfer_matrix(spec, u)
        res = np.linalg.norm(pair.h_extracted @ t_u - t_u @ pair.h_extracted)
        assert res / np.linalg.norm(pair.h_extracted @ t_u) < 1e-10


def test_extraction_finite_difference_route_agrees():
    spec = ChainSpec(3, TwistParams(0.5, 1.0))
    a = _extract(spec).h_extracted
    b = log_derivative(spec, derivative="fd")
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-6


def test_extraction_requires_periodic():
    with pytest.raises(ValueError):
        _extract(ChainSpec(3, TwistParams(0.5, 1.0), "open"))


def _transfer_poly_coeffs(spec):
    """Coefficients of tbar(u) = tr_aux Tbar(u), traced here from the monodromy's."""
    d = spec.dim
    return [c[:d, :d] + c[d:, d:] for c in monodromy_poly_coeffs(spec)]


def test_polynomial_transfer_agrees_with_rational():
    """tbar(u) = u^N t(u) links the polynomial and rational forms."""
    spec = ChainSpec(3, TwistParams(0.45, 1.0))
    u = 1.8 - 0.6j
    coeffs = _transfer_poly_coeffs(spec)
    tbar = sum(c * u**j for j, c in enumerate(coeffs))
    assert np.allclose(tbar, u**3 * transfer_matrix(spec, u), atol=1e-12)


def test_polynomial_transfer_at_zero_is_shift():
    """tbar(0) = (-eta)^N tr_aux(P...P), the one-site cyclic shift (xi-free)."""
    n, eta = 3, 1.3
    for xi in (0.0, 0.9):
        spec = ChainSpec(n, TwistParams(xi, eta))
        t0 = _transfer_poly_coeffs(spec)[0]
        shift = np.zeros((2**n, 2**n), dtype=complex)
        for idx in range(2**n):
            bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
            rotated = bits[1:] + bits[:1]
            tgt = sum(b << (n - 1 - k) for k, b in enumerate(rotated))
            shift[tgt, idx] = 1.0
        matched = np.allclose(t0, (-eta) ** n * shift) or np.allclose(
            t0, (-eta) ** n * shift.T)
        assert matched


def test_grading_difference_strictly_lowering():
    for xi in (0.5, 10.0):
        h_xi = build_hamiltonian(ChainSpec(4, TwistParams(xi, 1.0)))
        h_0 = build_hamiltonian(ChainSpec(4, TwistParams(0.0, 1.0)))
        assert strictly_lowering_residual(h_xi - h_0, 4) == 0.0


def test_graded_eigenvalues_match_dense_for_hermitian():
    h = build_hamiltonian(ChainSpec(4, TwistParams(0.0, 1.0)))
    graded = graded_eigenvalues(h, 4)
    assert graded is not None
    assert match_spectra(graded, eigenvalues(h), 1e-8).matched


def test_graded_eigenvalues_reject_generic_matrix():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((16, 16))
    assert graded_eigenvalues(m, 4) is None


def _sector_spectra(m, n):
    """Reference: one ``eigvals`` per graded sector block, sorted as
    ``graded_eigenvalues`` sorts."""
    # graded order: by number of down spins, binary order within a sector
    order = np.argsort(np.bitwise_count(np.arange(2**n)), kind="stable")
    g = m[np.ix_(order, order)]
    pops = np.bitwise_count(order)
    ev = np.concatenate([np.linalg.eigvals(g[np.ix_(pops == p, pops == p)])
                         for p in range(n + 1)])
    return ev[np.lexsort((ev.imag, ev.real))]


def _shift_on_sector(n, p):
    """The cyclic shift on the sector with p down spins, from bit strings."""
    states = [s for s in range(2**n) if bin(s).count("1") == p]
    shift = np.zeros((len(states), len(states)))
    for col, s in enumerate(states):
        bits = format(s, f"0{n}b")
        shift[states.index(int(bits[1:] + bits[0], 2)), col] = 1.0
    return shift


def _graded_eigenvalues_by_permutation(m, n):
    """Reference: the sector route through the whole matrix permuted into
    graded order, then sliced into sector blocks."""
    order = np.argsort(np.bitwise_count(np.arange(2**n)), kind="stable")
    g = m[np.ix_(order, order)]
    evs = []
    start = 0
    for p in range(n + 1):
        size = comb(n, p)
        if np.any(g[start:start + size, start + size:] != 0):
            return None
        evs.extend(_sector_eigenvalues(g[start:start + size, start:start + size], n, p))
        start += size
    ev = np.concatenate(evs)
    return ev[np.lexsort((ev.imag, ev.real))]


@pytest.mark.parametrize("n", range(1, 10))
def test_sector_gather_matches_the_permuted_route(n):
    """Gathering each sector from m directly gives bitwise the spectra of
    the permuted route, and the same None for an entry above the blocks."""
    matrices = [transfer_matrix(ChainSpec(n, TwistParams(0.5, 1.0)), 1.7),
                build_hamiltonian(ChainSpec(n, TwistParams(0.5, 1.0), "open"))]
    if n >= 2:
        matrices.append(build_hamiltonian(ChainSpec(n, TwistParams(0.5, 1.0))))
    for m in matrices:
        want = _graded_eigenvalues_by_permutation(m, n)
        assert want is not None
        assert np.array_equal(graded_eigenvalues(m, n), want)
    # all-up row with all-down column, and one down spin with two: each
    # entry sits above the diagonal blocks
    for row, col in [(0, 2**n - 1)] + ([(1, 3)] if n >= 2 else []):
        raised = matrices[0].copy()
        raised[row, col] = 0.1
        assert _graded_eigenvalues_by_permutation(raised, n) is None
        assert graded_eigenvalues(raised, n) is None


@pytest.mark.parametrize("n", range(1, 11))
def test_momentum_basis_is_unitary_and_diagonalizes_the_shift(n):
    for p in range(n + 1):
        v, labels = _momentum_basis(n, p)
        assert np.all(np.diff(labels) >= 0)  # columns grouped by momentum
        assert np.allclose(v.conj().T @ v, np.eye(len(labels)), rtol=0, atol=1e-13)
        rotated = v.conj().T @ _shift_on_sector(n, p) @ v
        assert np.allclose(rotated, np.diag(np.exp(-2j * np.pi * labels / n)),
                           rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", range(2, 11))
def test_momentum_spectra_equal_sector_spectra(n):
    """The certified momentum split reproduces the per-sector spectra of the
    periodic transfer matrices and of H(0) to 1e-12 relative."""
    matrices = [
        transfer_matrix(ChainSpec(n, TwistParams(0.0, 1.0)), 1.7),
        transfer_matrix(ChainSpec(n, TwistParams(0.5, 1.0)), 1.7),
        transfer_matrix(ChainSpec(n, TwistParams(0.0, 0.8 + 0.3j)), -1.3 + 0.8j),
        transfer_matrix(ChainSpec(n, TwistParams(0.3 + 0.4j, 0.8 + 0.3j)), -1.3 + 0.8j),
        build_hamiltonian(ChainSpec(n, TwistParams(0.0, 1.0))),
    ]
    order = np.argsort(np.bitwise_count(np.arange(2**n)), kind="stable")
    pops = np.bitwise_count(order)
    for m in matrices:
        ref = _sector_spectra(m, n)
        got = graded_eigenvalues(m, n)
        assert match_spectra(got, ref, 0.0).max_pair_distance <= 1e-12 * np.max(np.abs(ref))
        g = m[np.ix_(order, order)]
        for p in range(n + 1):
            split = _sector_eigenvalues(g[np.ix_(pops == p, pops == p)], n, p)
            assert len(split) == len(np.unique(_momentum_basis(n, p)[1]))


def test_open_hamiltonian_fails_the_momentum_certificate():
    """The open chain is graded but not shift-invariant: every sector with
    more than one momentum is solved whole, bitwise as per-sector eigvals."""
    n = 5
    h = build_hamiltonian(ChainSpec(n, TwistParams(0.5, 1.0), "open"))
    order = np.argsort(np.bitwise_count(np.arange(2**n)), kind="stable")
    pops = np.bitwise_count(order)
    g = h[np.ix_(order, order)]
    for p in range(1, n):
        block = g[np.ix_(pops == p, pops == p)]
        v, labels = _momentum_basis(n, p)
        w = v.conj().T @ block @ v
        assert np.linalg.norm(w[labels[:, None] != labels]) > MOMENTUM_TOL * np.linalg.norm(block)
        assert len(_sector_eigenvalues(block, n, p)) == 1
        # the certificate is relative at every scale, also below norm 1
        assert len(_sector_eigenvalues(1e-13 * block, n, p)) == 1
    assert np.array_equal(graded_eigenvalues(h, n), _sector_spectra(h, n))
    small = 1e-13 * h
    assert np.array_equal(graded_eigenvalues(small, n), _sector_spectra(small, n))


def _poly_t0_t1(spec):
    """tbar(0) and tbar'(0), traced from the two lowest coefficients of the
    monodromy that the kernel expands on the identity."""
    d = spec.dim
    return [c[:d, :d] + c[d:, d:] for c in _kernel_poly_pair(spec, "low")]


@pytest.mark.parametrize("n", range(2, 10))
def test_log_derivative_inverts_the_shift_exactly(n):
    """t(0) is bitwise (-eta)^N times the cyclic shift, so the log-derivative
    is read off without a factorization: bitwise the LU solve at eta = 1,
    within 1e-14 of it at complex eta."""
    for params, bitwise in ((TwistParams(0.5, 1.0), True),
                            (TwistParams(0.3 + 0.4j, 0.8 + 0.3j), False)):
        spec = ChainSpec(n, params)
        t0, t1 = _poly_t0_t1(spec)
        c, _ = _scaled_permutation(t0)
        assert abs(c - (-params.eta) ** n) <= 1e-14 * abs(c)
        expected = np.linalg.solve(t0, t1)
        got = log_derivative(spec)
        if bitwise:
            assert np.array_equal(got, expected)
        else:
            assert rel_residual(got, expected) <= 1e-14
        assert _scaled_permutation(_transfer(polynomial_l(0.0, params), n)) is not None


@pytest.mark.parametrize("n", range(2, 11))
def test_log_derivative_equals_the_untraced_trace(n):
    """Traced at the last site, the log-derivative is bitwise that of the
    trace of the full coefficients that the kernel expands on the
    identity."""
    for params in _TRACE_PARAMS:
        spec = ChainSpec(n, params)
        assert np.array_equal(log_derivative(spec), _solve_t0([_poly_t0_t1(spec)], spec.dim))


@pytest.mark.parametrize("n", range(2, 9))
def test_affine_fit_matches_lstsq(n):
    """The closed-form Gram solve of the affine fit against a least-squares
    oracle on the 4^N x 2 design, for both densities."""
    for params in _TRACE_PARAMS:
        spec = ChainSpec(n, params)
        h_ext = log_derivative(spec)
        eye = np.eye(spec.dim, dtype=complex)
        for doubled in (False, True):
            base = build_hamiltonian(spec, deformation_doubled=doubled)
            design = np.stack([base.ravel(), eye.ravel()], axis=1)
            (a, b), *_ = np.linalg.lstsq(design, h_ext.ravel(), rcond=None)
            res = np.linalg.norm(h_ext - a * base - b * eye) / np.linalg.norm(h_ext)
            got_a, got_b, got_res = _affine_fit(h_ext, base)
            assert abs(got_a - a) <= 1e-12 and abs(got_b - b) <= 1e-12
            assert abs(got_res - res) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 6])
def test_extract_hamiltonian_reuses_a_given_formula_bitwise(n):
    """The given H(xi) is the pair's formula, and the two fits are bitwise
    the closed-form fits of the log-derivative to it and to the doubled
    variant."""
    for params in _TRACE_PARAMS:
        spec = ChainSpec(n, params)
        h = build_hamiltonian(spec)
        pair = extract_hamiltonian(spec, h)
        h_ext = log_derivative(spec)
        assert pair.h_formula is h and np.array_equal(pair.h_extracted, h_ext)
        assert (pair.scale, pair.shift, pair.fit_residual) == _affine_fit(h_ext, h)
        doubled = build_hamiltonian(spec, deformation_doubled=True)
        assert ((pair.scale_doubled, pair.shift_doubled, pair.fit_residual_doubled)
                == _affine_fit(h_ext, doubled))


def test_perturbed_t0_raises_extraction_error():
    """An invertible t0 that is not a scaled permutation is refused, not
    solved: the transfer matrix never produces one."""
    spec = ChainSpec(4, TwistParams(0.5, 1.0))
    t0, t1 = _poly_t0_t1(spec)
    t0[3, 5] += 1e-3
    assert _scaled_permutation(t0) is None
    with pytest.raises(ExtractionError):
        _solve_t0([(t0, t1)], spec.dim)


@pytest.mark.parametrize("t0", [
    np.zeros((4, 4)),
    np.array([[2.0, 0, 0, 0], [2.0, 0, 0, 0], [0, 0, 2.0, 0], [0, 0, 0, 2.0]]),
], ids=["zero", "repeated_column"])
def test_singular_t0_raises_extraction_error(t0):
    assert _scaled_permutation(t0) is None
    with pytest.raises(ExtractionError):
        _solve_t0([(t0, np.eye(4))], 4)


@pytest.mark.parametrize("n", [3, 6])
def test_banded_t0_is_checked_across_its_bands(n):
    """Each band of a scaled permutation passes on its own; a band scaled
    by another c, or repeating a column of an earlier band, is refused
    although it passes alone. Streamed t(0) gives bitwise the whole
    solve."""
    spec = ChainSpec(n, TwistParams(0.5, 1.0))
    t0, t1 = _poly_t0_t1(spec)
    d, half = spec.dim, spec.dim // 2
    want = _solve_t0([(t0, t1)], d)
    assert np.array_equal(_solve_t0([(t0[:half], t1[:half]), (t0[half:], t1[half:])], d), want)
    rescaled = t0[half:] * 2
    assert _scaled_permutation(rescaled) is not None
    with pytest.raises(ExtractionError):
        _solve_t0([(t0[:half], t1[:half]), (rescaled, t1[half:])], d)
    repeated = t0[:half]
    with pytest.raises(ExtractionError):
        _solve_t0([(t0[:half], t1[:half]), (repeated, t1[half:])], d)


def _transfer_pair(n=4, u=1.7 + 0.3j):
    return (transfer_matrix(ChainSpec(n, TwistParams(0.6, 1.0)), u),
            transfer_matrix(ChainSpec(n, TwistParams(0.0, 1.0)), u))


def test_spectrum_pair_certifies_a_strictly_lowering_deformation():
    t_xi, t_0 = _transfer_pair()
    ev_xi, ev_0, lowering = spectrum_pair(t_xi, t_0, 4)
    assert lowering == 0.0
    assert ev_xi is ev_0  # reused, not solved again
    assert np.array_equal(ev_0, graded_eigenvalues(t_xi, 4))


def test_spectrum_pair_solves_a_perturbed_sector_block_on_its_own():
    """A deformation that touches a diagonal sector block is not certified:
    the deformed side is solved independently and the spectra part."""
    t_xi, t_0 = _transfer_pair()
    t_xi[0, 0] += 0.1  # the 1 x 1 all-up sector block
    ev_xi, ev_0, lowering = spectrum_pair(t_xi, t_0, 4)
    assert lowering == pytest.approx(0.1)
    assert ev_xi is not ev_0
    assert np.array_equal(ev_xi, graded_eigenvalues(t_xi, 4))
    assert not match_spectra(ev_xi, ev_0, 1e-7).matched


def test_spectrum_pair_solves_a_raising_deformation_densely():
    t_xi, t_0 = _transfer_pair()
    t_xi[0, -1] += 0.1  # all-up row, all-down column: raises total sz
    ev_xi, _, lowering = spectrum_pair(t_xi, t_0, 4)
    assert lowering == pytest.approx(0.1)
    assert np.array_equal(ev_xi, eigenvalues(t_xi))


def _full_difference_certificate(m_xi, m_0, n):
    """The certificate over the whole difference and one boolean mask."""
    popcount = np.bitwise_count(np.arange(2**n))
    upper = np.asarray(m_xi - m_0, dtype=complex)[popcount[:, None] <= popcount[None, :]]
    return float(np.max(np.hypot(upper.real, upper.imag), initial=0.0))


def _certificate_cases(n):
    """(m_xi, m_0) pairs at N = n: random, an exactly strictly lowering
    difference, and that difference with one entry planted in or above
    the blocks of each sector."""
    rng = np.random.default_rng(70 + n)
    dim = 2**n
    popcount = np.bitwise_count(np.arange(dim))

    def gaussian():
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    m_0 = gaussian()
    lowering = np.where(popcount[:, None] > popcount[None, :], gaussian(), 0)
    cases = [(gaussian(), m_0), (m_0 + lowering, m_0)]
    for p in range(n + 1):
        row = np.flatnonzero(popcount == p)[-1]
        for col in (row, np.flatnonzero(popcount >= p)[0]):
            planted = m_0 + lowering
            planted[row, col] += 1e-3 * (3 - 4j) * (1 + p)
            cases.append((planted, m_0))
    return cases


@pytest.mark.parametrize("n", range(1, 9))
def test_sector_wise_certificate_is_the_full_difference_value(n, monkeypatch):
    """Gathered sector by sector, the certificate of ``spectrum_pair`` and
    ``strictly_lowering_residual`` are bitwise the value over the whole
    difference: on random, exactly strictly lowering and planted input."""
    monkeypatch.setattr(chain, "spectrum_of", lambda m, n_sites: (np.zeros(len(m)), "graded"))
    for i, (m_xi, m_0) in enumerate(_certificate_cases(n)):
        want = _full_difference_certificate(m_xi, m_0, n)
        assert (want == 0.0) == (i == 1)
        assert spectrum_pair(m_xi, m_0, n)[2] == want
        assert strictly_lowering_residual(m_xi - m_0, n) == want


@pytest.mark.parametrize("n", range(1, 9))
def test_certificate_keeps_a_nan_in_every_sector(n, monkeypatch):
    """A NaN in or above the blocks of any sector makes the certificate NaN,
    whichever sector holds the largest entry, and ``spectrum_pair`` then
    solves both sides; a NaN strictly below the blocks is not read."""
    solved = []

    def spectrum_of(m, n_sites):
        solved.append(m)
        return np.zeros(len(m)), "graded"

    monkeypatch.setattr(chain, "spectrum_of", spectrum_of)
    dim = 2**n
    popcount = np.bitwise_count(np.arange(dim))
    m_xi, m_0 = _certificate_cases(n)[0]
    for p in range(n + 1):
        for row in np.flatnonzero(popcount == p)[[0, -1]]:
            for col in np.flatnonzero(popcount >= p)[[0, -1]]:
                nan_xi = m_xi.copy()
                nan_xi[row, col] = np.nan
                solved.clear()
                ev_xi, ev_0, lowering = spectrum_pair(nan_xi, m_0, n)
                assert np.isnan(lowering)
                assert np.isnan(strictly_lowering_residual(nan_xi - m_0, n))
                assert [id(m) for m in solved] == [id(m_0), id(nan_xi)]
                assert ev_xi is not ev_0
    below = m_0.copy()
    below[dim - 1, 0] = np.nan  # all-down row, all-up column: strictly lowers
    assert spectrum_pair(below, m_0, n)[2] == 0.0
    assert strictly_lowering_residual(below - m_0, n) == 0.0


@pytest.mark.parametrize("n,xi", [(6, 0.9), (4, 10.0)])
def test_spectrum_coincidence(n, xi):
    """Deformed spectra equal the undeformed ones, even far from perturbative."""
    spec = ChainSpec(n, TwistParams(xi, 1.0))
    h_report, h_lowering, t_reports = _coincidence(spec)
    assert h_lowering == 0.0
    assert h_report.matched and h_report.max_pair_distance < 1e-8
    for _, rep in t_reports:
        assert rep.matched and rep.max_pair_distance < 1e-7


def test_spectrum_trivial_at_zero():
    h_report, _, _ = _coincidence(ChainSpec(3, TwistParams(0.0, 1.0)))
    assert h_report.matched and h_report.max_pair_distance == 0.0


def test_deformed_spectrum_real():
    spec = ChainSpec(4, TwistParams(0.7, 1.0))
    ev = graded_eigenvalues(build_hamiltonian(spec), 4)
    assert np.max(np.abs(ev.imag)) < 1e-8


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(0, TwistParams(0.1, 1.0))
    with pytest.raises(ValueError):
        ChainSpec(13, TwistParams(0.1, 1.0))
    with pytest.raises(ValueError):
        ChainSpec(3, TwistParams(0.1, 1.0), "twisted")


def test_monodromy_pole_rejected():
    with pytest.raises(ValueError):
        monodromy_matrix(ChainSpec(2, TwistParams(0.3, 1.0)), 0.0)
