import numpy as np
import pytest

from twistchain.tensor import SM, SZ, rel_residual
from twistchain.twist import (
    TwistParams,
    coproduct,
    make_spin_rep,
    nilpotent_log,
    sigma_element,
    twist_series,
    twisted_coproduct,
    universal_twist,
    verify_cocycle,
    _neg_log_one_minus,
    _nilpotent_exp,
)

F12_HALF = np.array(
    [[1, 0, 0, 0], [0.5, 1, 0, 0], [0, 0, 1, 0], [0, 0, -0.5, 1]], dtype=complex
)


@pytest.mark.parametrize("spin", [0.5, 1.0, 1.5, 2.0])
def test_generator_relations(spin):
    """[h,e] = -2e, [h,f] = 2f, [e,f] = -h, with e nilpotent."""
    rep = make_spin_rep(spin)
    assert np.linalg.norm(rep.h @ rep.e - rep.e @ rep.h + 2 * rep.e) < 1e-13
    assert np.linalg.norm(rep.h @ rep.f - rep.f @ rep.h - 2 * rep.f) < 1e-13
    assert np.linalg.norm(rep.e @ rep.f - rep.f @ rep.e + rep.h) < 1e-13
    assert not np.linalg.matrix_power(rep.e, rep.dim).any()


def test_fundamental_rep_is_pauli():
    rep = make_spin_rep(0.5)
    assert np.array_equal(rep.h, SZ)
    assert np.array_equal(rep.e, SM)


def test_invalid_spin_rejected():
    with pytest.raises(ValueError):
        make_spin_rep(0.7)
    with pytest.raises(ValueError):
        make_spin_rep(-0.5)


def test_spin_rep_is_shared_per_spin_and_read_only():
    rep = make_spin_rep(1.0)
    assert make_spin_rep(1.0) is rep
    for name in ("h", "e", "f"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(rep, name)[0, 0] = 5.0
    assert rep.h[0, 0] == 2.0


def test_sigma_vanishes_without_deformation():
    rep = make_spin_rep(1.0)
    assert not sigma_element(rep, 0.0).any()


def test_sigma_fundamental_truncates():
    rep = make_spin_rep(0.5)
    xi = 0.73
    assert np.array_equal(sigma_element(rep, xi), 2 * xi * rep.e)


@pytest.mark.parametrize("spin", [1.0, 1.5])
def test_sigma_exponentiates_back(spin):
    """exp(-sigma) = 1 - 2 xi e, checked by exponentiating the computed series."""
    rep = make_spin_rep(spin)
    rng = np.random.default_rng(5)
    for _ in range(4):
        xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = _nilpotent_exp(-sigma_element(rep, xi))
        assert np.linalg.norm(lhs - (np.eye(rep.dim) - 2 * xi * rep.e)) < 1e-13


@pytest.mark.parametrize("xi", [0.0, 1.0, -2.0, 0.5])
def test_fundamental_twist_entries_exact(xi):
    half = make_spin_rep(0.5)
    expected = np.array(
        [[1, 0, 0, 0], [xi, 1, 0, 0], [0, 0, 1, 0], [0, 0, -xi, 1]], dtype=complex
    )
    assert np.array_equal(universal_twist(half, half, xi), expected)


def test_twist_is_identity_without_deformation():
    one = make_spin_rep(1.0)
    half = make_spin_rep(0.5)
    assert np.array_equal(universal_twist(half, one, 0.0), np.eye(6))


def test_series_agrees_with_exponential_fundamental():
    half = make_spin_rep(0.5)
    xi = -1.37
    assert np.array_equal(universal_twist(half, half, xi), twist_series(half, half, xi))


@pytest.mark.parametrize("pair", [(0.5, 1.0), (1.0, 1.0), (1.5, 1.0), (1.0, 1.5)])
def test_series_agrees_with_exponential_higher_spins(pair):
    """The extrapolated series coefficient x^k/k! h(h+2)...(h+2k-2) ⊗ e^k is
    validated against the closed exponential, not trusted."""
    r1, r2 = make_spin_rep(pair[0]), make_spin_rep(pair[1])
    rng = np.random.default_rng(17)
    for _ in range(3):
        xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        a = universal_twist(r1, r2, xi)
        b = twist_series(r1, r2, xi)
        assert np.linalg.norm(a - b) < 1e-12 * max(1.0, np.linalg.norm(a))


def test_twist_invertible():
    r1, r2 = make_spin_rep(1.0), make_spin_rep(1.5)
    f = universal_twist(r1, r2, 0.81)
    assert np.linalg.norm(f @ np.linalg.inv(f) - np.eye(f.shape[0])) < 1e-13


def test_log_recovers_exponent():
    r1, r2 = make_spin_rep(0.5), make_spin_rep(1.0)
    xi = 0.43
    f = universal_twist(r1, r2, xi)
    exponent = np.kron(r1.h, sigma_element(r2, xi)) / 2
    assert np.linalg.norm(nilpotent_log(f) - exponent) < 1e-12


def test_cocycle_trivial_without_deformation():
    half = make_spin_rep(0.5)
    assert verify_cocycle(half, half, half, 0.0) == 0.0


@pytest.mark.parametrize("spins", [(0.5, 0.5, 0.5), (0.5, 0.5, 1.0)])
def test_cocycle_holds(spins):
    reps = tuple(make_spin_rep(s) for s in spins)
    rng = np.random.default_rng(23)
    for _ in range(4):
        xi = rng.uniform(-1, 1)
        assert verify_cocycle(*reps, xi) < 1e-12


def test_twisted_coproduct_trivial_at_zero():
    half, one = make_spin_rep(0.5), make_spin_rep(1.0)
    for gen in ("h", "e", "f"):
        assert np.allclose(
            twisted_coproduct(half, one, gen, 0.0), coproduct(half, one, gen)
        )


def test_twisted_coproduct_preserves_spectrum():
    from twistchain.tensor import eigenvalues, match_spectra

    half = make_spin_rep(0.5)
    xi = 0.67
    tw = twisted_coproduct(half, half, "h", xi)
    assert match_spectra(eigenvalues(tw), eigenvalues(coproduct(half, half, "h")), 1e-8).matched


def test_lowering_generator_not_twist_invariant():
    """Delta_xi(e) differs from Delta(e): the deviation is exactly -2 xi e⊗e
    at spin (1/2, 1/2). Flagged as measured behaviour, not an error."""
    half = make_spin_rep(0.5)
    xi = 0.31
    deviation = twisted_coproduct(half, half, "e", xi) - coproduct(half, half, "e")
    assert np.linalg.norm(deviation) > 0.1 * abs(xi)
    assert np.linalg.norm(deviation + 2 * xi * np.kron(half.e, half.e)) < 1e-13


def test_unknown_generator_rejected():
    half = make_spin_rep(0.5)
    with pytest.raises(ValueError):
        twisted_coproduct(half, half, "x", 0.3)


def test_params_validation():
    with pytest.raises(ValueError):
        TwistParams(0.1, 0.0)
    with pytest.raises(ValueError):
        TwistParams(np.nan, 1.0)


SPINS = (0.5, 1.0, 1.5)


def _kron_coproduct(rep1, rep2, generator):
    x1, x2 = getattr(rep1, generator), getattr(rep2, generator)
    return np.kron(x1, np.eye(rep2.dim)) + np.kron(np.eye(rep1.dim), x2)


@pytest.mark.parametrize("s1", SPINS)
@pytest.mark.parametrize("s2", SPINS)
def test_coproduct_matches_kronecker_reference(s1, s2):
    r1, r2 = make_spin_rep(s1), make_spin_rep(s2)
    for gen in ("h", "e", "f"):
        assert np.array_equal(coproduct(r1, r2, gen), _kron_coproduct(r1, r2, gen))


@pytest.mark.parametrize("spins", [(0.5, 0.5, 0.5), (0.5, 0.5, 1.0), (1.0, 0.5, 1.5)])
def test_cocycle_matches_kronecker_reference(spins):
    """The residual is bitwise that of F12 ⊗ 1 and 1 ⊗ F23 padded by np.kron."""
    r1, r2, r3 = (make_spin_rep(s) for s in spins)
    rng = np.random.default_rng(8)
    for xi in [0.0, 0.5, 0.3 + 0.4j, *rng.uniform(-1, 1, 5)]:
        f12 = np.kron(universal_twist(r1, r2, xi), np.eye(r3.dim))
        f23 = np.kron(np.eye(r1.dim), universal_twist(r2, r3, xi))
        dh = _kron_coproduct(r1, r2, "h")
        lhs = f12 @ _nilpotent_exp(np.kron(dh, sigma_element(r3, xi)) / 2)
        sig_de = _neg_log_one_minus(2 * xi * _kron_coproduct(r2, r3, "e"))
        rhs = f23 @ _nilpotent_exp(np.kron(r1.h, sig_de) / 2)
        assert verify_cocycle(r1, r2, r3, xi) == rel_residual(lhs, rhs)
