import numpy as np
import pytest

from twistchain.rmatrix import (
    build_f12,
    build_r,
    build_r_xi,
    fundamental_twist_matches_universal,
    measure_unitarity,
    polynomial_l,
    spectral_projectors,
    verify_construction,
    verify_regularity,
    verify_ybe,
)
from twistchain.tensor import permutation_op
from twistchain.twist import TwistParams

P = permutation_op()


def test_f12_no_deformation():
    assert np.array_equal(build_f12(0.0), np.eye(4))


def test_f12_unit_entries():
    f = build_f12(1.0)
    assert f[1, 0] == 1 and f[3, 2] == -1
    off = f - np.eye(4)
    off[1, 0] = off[3, 2] = 0
    assert not off.any()


@pytest.mark.parametrize("xi", [0.0, 1.0, -2.3, 0.5 + 0.25j])
def test_f12_unimodular(xi):
    assert np.linalg.det(build_f12(xi)) == pytest.approx(1.0)


def test_r_xi_no_deformation():
    assert np.array_equal(build_r_xi(0.0), np.eye(4))


def test_r_xi_unit_entries():
    r = build_r_xi(1.0)
    assert r[3, 0] == 1 and r[3, 1] == -1 and r[3, 2] == 1


@pytest.mark.parametrize("xi", [0.4, -1.7, 0.3 - 0.6j])
def test_r_xi_two_routes_agree(xi):
    r_xi_res, _ = verify_construction([1.0], [TwistParams(xi)])
    assert r_xi_res[0] < 1e-13


def test_r_undeformed_is_yang():
    params = TwistParams(0.0, 1.0)
    u = 2.5
    assert np.allclose(build_r(u, params), np.eye(4) - (1.0 / u) * P)


def test_r_large_u_tends_to_constant():
    params = TwistParams(0.8, 1.0)
    assert np.linalg.norm(build_r(1e9, params) - build_r_xi(0.8)) < 1e-8


def test_r_at_eta_is_antisymmetrizer_scale():
    """R(eta) at xi = 0 equals I - P, twice the rank-one antisymmetrizer."""
    params = TwistParams(0.0, 1.0)
    r = build_r(1.0, params)
    assert np.allclose(r, np.eye(4) - P)
    antisym = (np.eye(4) - P) / 2
    assert np.allclose(r, 2 * antisym)
    assert np.linalg.matrix_rank(r) == 1


def test_r_pole_rejected():
    with pytest.raises(ValueError):
        build_r(0.0, TwistParams(0.3))


@pytest.mark.parametrize("xi", [0.0, 0.8, -0.4 + 0.2j])
def test_r_conjugated_route_agrees(xi):
    params = TwistParams(xi, 1.3)
    us = [2.1, -0.7 + 0.9j]
    _, r_u_res = verify_construction(us, [params] * 2)
    for u, res in zip(us, r_u_res, strict=True):
        assert res < 1e-13 * max(1.0, np.linalg.norm(build_r(u, params)))


def test_construction_sweep_bitwise_equal_to_one_sample_routes():
    """The stacked construction sweep against the two product routes
    formed per sample, F21 F12^{-1} and F21 (I - (eta/u) P) F12^{-1}, with
    ==; 50 samples, as the ybe suite draws them."""
    rng = np.random.default_rng(12)
    params = [TwistParams(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(0.5, 1, 2)))
              for _ in range(50)]
    us = [complex(*rng.uniform(-3, 3, 2)) for _ in range(50)]
    r_xi_res, r_u_res = verify_construction(us, params)
    for i, (u, p) in enumerate(zip(us, params, strict=True)):
        f12 = build_f12(p.xi)
        f21 = P @ f12 @ P
        inner = np.eye(4, dtype=complex) - (p.eta / u) * P
        assert r_xi_res[i] == float(np.linalg.norm(build_r_xi(p.xi) - f21 @ np.linalg.inv(f12)))
        assert r_u_res[i] == float(np.linalg.norm(
            build_r(u, p) - f21 @ inner @ np.linalg.inv(f12)))
        assert r_xi_res[i] < 1e-13 and r_u_res[i] < 1e-13 * max(1.0, abs(p.eta / u))
    with pytest.raises(ValueError):
        verify_construction([1.0, 0.0], params[:2])
    with pytest.raises(ValueError):
        verify_construction([1.0], params[:2])


def test_ybe_yang_solution():
    rng = np.random.default_rng(1)
    us, vs = [], []
    for _ in range(5):
        us.append(complex(rng.uniform(1, 3), rng.uniform(-1, 1)))
        vs.append(complex(rng.uniform(-3, -1), rng.uniform(-1, 1)))
    residuals = verify_ybe(us, vs, [TwistParams(0.0, 1.0)] * 5)
    assert len(residuals) == 5
    assert max(residuals) < 1e-12


def test_ybe_deformed():
    rng = np.random.default_rng(2)
    us, vs, params = [], [], []
    for _ in range(10):
        params.append(TwistParams(rng.uniform(-1, 1), 1.0))
        us.append(complex(rng.uniform(1, 4), rng.uniform(-1, 1)))
        vs.append(complex(rng.uniform(-4, -1), rng.uniform(-1, 1)))
    residuals = verify_ybe(us, vs, params)
    assert len(residuals) == 10
    assert max(residuals) < 1e-12


def test_ybe_large_deformation():
    assert verify_ybe([3.0], [1.0], [TwistParams(2.0, 1.0)])[0] < 1e-12


def test_ybe_pole_rejected():
    params = [TwistParams(0.3)] * 2
    for u, v in (([2.0, 1.0], [1.0, 1.0]), ([2.0, 0.0], [1.0, 1.0]), ([2.0, 1.0], [1.0, 0.0])):
        with pytest.raises(ValueError):
            verify_ybe(u, v, params)
    with pytest.raises(ValueError):
        verify_ybe([2.0], [1.0], params)
    assert verify_ybe([], [], []) == []


@pytest.mark.parametrize("xi", [0.0, 1.0, -0.6])
def test_regularity(xi):
    assert verify_regularity(TwistParams(xi, 1.4)) == 0.0
    l0 = polynomial_l(0.0, TwistParams(xi, 1.4))
    assert np.array_equal(l0, -1.4 * P)


def test_projectors_undeformed_ranks():
    p_plus, p_minus = spectral_projectors(TwistParams(0.0))
    assert np.allclose(p_plus, (np.eye(4) + P) / 2)
    assert np.allclose(p_minus, (np.eye(4) - P) / 2)
    assert np.linalg.matrix_rank(p_plus) == 3
    assert np.linalg.matrix_rank(p_minus) == 1


@pytest.mark.parametrize("xi", [0.9, -1.2, 0.4 + 0.3j])
def test_projector_algebra(xi):
    p_plus, p_minus = spectral_projectors(TwistParams(xi))
    assert np.linalg.norm(p_plus @ p_plus - p_plus) < 1e-13
    assert np.linalg.norm(p_minus @ p_minus - p_minus) < 1e-13
    assert np.linalg.norm(p_plus @ p_minus) < 1e-13
    assert np.linalg.norm(p_plus + p_minus - np.eye(4)) < 1e-13
    assert np.trace(p_plus) == pytest.approx(3.0)
    assert np.trace(p_minus) == pytest.approx(1.0)
    conj = P @ build_r_xi(xi)
    assert np.linalg.norm(conj - (p_plus - p_minus)) < 1e-13
    f12 = build_f12(xi)
    assert np.linalg.norm(f12 @ P @ np.linalg.inv(f12) - conj) < 1e-13


def test_unitarity_product_is_scalar():
    """Measured, then frozen: R12(u) R21(-u) = (1 - eta^2/u^2) I, any xi."""
    for xi in (0.0, 0.7):
        params = TwistParams(xi, 1.0)
        off, scalar = measure_unitarity(1.9, params)
        assert off < 1e-13
        assert scalar == pytest.approx(1 - 1.0 / 1.9**2)


def test_r_xi_inverse_is_sign_flip():
    xi = 0.77
    assert np.linalg.norm(build_r_xi(xi) @ build_r_xi(-xi) - np.eye(4)) < 1e-14


def test_f21_is_permuted_f12():
    xi = 0.35
    f21 = P @ build_f12(xi) @ P
    assert f21[2, 0] == xi and f21[3, 1] == -xi


@pytest.mark.parametrize("xi", [0.0, 1.0, -2.0, 0.5])
def test_twist_anchor(xi):
    assert fundamental_twist_matches_universal(xi) == 0.0
