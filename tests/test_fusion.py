from itertools import permutations

import numpy as np
import pytest

import twistchain.fusion as fu
from twistchain import suites
from twistchain.chain import ChainSpec, spectrum_of, transfer_matrix, vacuum_d
from twistchain.fusion import (
    _slot_twist,
    fused_projector,
    fused_transfer,
    fusion_invariance_residual,
    multi_twist,
    quantum_determinant,
    symmetrizer,
    verify_fusion_relation,
)
from twistchain.reporting import RunConfig
from twistchain.rmatrix import build_f12, spectral_projectors
from twistchain.tensor import SZ, kron_all, match_spectra
from twistchain.twist import TwistParams

FIXED_XI = [0.5, 0.3 + 0.4j, 0.0, -1.0, 2.0, 1e3, 1e-7j, 1e20]
SEEDED_XI = list(np.random.default_rng(25).normal(size=(200, 2)) @ [1, 1j])


def _kron_multi_twist(xi, level):
    """Reference: W_j = (W_{j-1} ⊗ 1)(1 + xi (sum_{k<j} h_k) ⊗ e) by Kronecker
    products, with the running sum of h carried along."""
    w = np.eye(2 ** min(level, 1), dtype=complex)
    w_inv = w.copy()
    h_sum = np.diag([1.0, -1.0]).astype(complex)
    e2 = np.array([[0, 0], [1, 0]], dtype=complex)
    for j in range(2, level + 1):
        dim_prev = 2 ** (j - 1)
        factor = np.eye(2 * dim_prev, dtype=complex) + xi * np.kron(h_sum, e2)
        factor_inv = np.eye(2 * dim_prev, dtype=complex) - xi * np.kron(h_sum, e2)
        w = np.kron(w, np.eye(2, dtype=complex)) @ factor
        w_inv = factor_inv @ np.kron(w_inv, np.eye(2, dtype=complex))
        h_sum = np.kron(h_sum, np.eye(2, dtype=complex)) \
            + np.kron(np.eye(dim_prev, dtype=complex), np.diag([1.0, -1.0]))
    return w, w_inv


def _bit_loop_symmetrizer(level):
    """Reference: the mean of the slot permutation matrices, each filled
    state by state from the bits of its index."""
    dim = 2 ** level
    s = np.zeros((dim, dim), dtype=complex)
    count = 0
    for perm in permutations(range(level)):
        p = np.zeros((dim, dim), dtype=complex)
        for idx in range(dim):
            bits = [(idx >> (level - 1 - k)) & 1 for k in range(level)]
            target = sum(bits[perm[k]] << (level - 1 - k) for k in range(level))
            p[target, idx] = 1.0
        s += p
        count += 1
    return s / count


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_twist_hierarchy_bitwise_kronecker_reference(level):
    """W, W^{-1}, S and W S W^{-1} from F12 on slot pairs are bitwise the
    Kronecker recursion and the bit-loop symmetrizer."""
    sym = _bit_loop_symmetrizer(level)
    assert _same_bytes(symmetrizer(level), sym)
    for xi in FIXED_XI + SEEDED_XI:
        w_ref, w_inv_ref = _kron_multi_twist(xi, level)
        w, w_inv = multi_twist(xi, level)
        assert _same_bytes(w, w_ref) and _same_bytes(w_inv, w_inv_ref)
        assert _same_bytes(fused_projector(xi, level), w_ref @ sym @ w_inv_ref)


@pytest.mark.parametrize("j", [2, 3, 4])
def test_slot_twist_is_exact_first_order(j):
    """F_j = prod_{k<j} F12_{kj} is exactly 1 + xi (sum_{k<j} h_k) ⊗ e_j."""
    e = np.array([[0, 0], [1, 0]], dtype=complex)
    h_sum = sum(kron_all([np.eye(2)] * k + [SZ] + [np.eye(2)] * (j - 2 - k))
                for k in range(j - 1))
    for xi in FIXED_XI + SEEDED_XI[:20]:
        want = np.eye(2 ** j) + xi * np.kron(h_sum, e)
        assert np.array_equal(_slot_twist(xi, j), want)
        assert np.array_equal(_slot_twist(xi, j) @ _slot_twist(-xi, j), np.eye(2 ** j))


def test_fused_projector_cached_read_only():
    a = fused_projector(0.25 - 0.5j, 3)
    assert fused_projector(0.25 - 0.5j, 3) is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


def test_fusion_suite_builds_each_fused_transfer_once(monkeypatch):
    """Outside the relation sweeps the suite builds levels 0..3 at u and
    levels 1, 2 at v once each, plus the undeformed level 2 at u."""
    build, relation = fu.fused_transfer, fu.verify_fusion_relation
    calls, depth = [], [0]

    def counted_build(spec, level, u):
        calls.append((depth[0] > 0, spec.params.xi != 0))
        return build(spec, level, u)

    def counted_relation(spec, level, u):
        depth[0] += 1
        try:
            return relation(spec, level, u)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(fu, "fused_transfer", counted_build)
    monkeypatch.setattr(fu, "verify_fusion_relation", counted_relation)
    reports = suites.run_suite(RunConfig(n_sites=3, xi=0.5), "fusion")
    assert all(r.passed for r in reports)
    assert calls.count((False, True)) == 6
    assert calls.count((False, False)) == 1
    assert len(calls) == 37


def test_level0_is_identity_scalar():
    spec = ChainSpec(2, TwistParams(0.4, 1.0))
    assert np.array_equal(fused_transfer(spec, 0, 1.7), np.eye(4))


def test_level1_equals_fundamental():
    spec = ChainSpec(2, TwistParams(0.4, 1.0))
    u = 2.3
    assert np.array_equal(fused_transfer(spec, 1, u), transfer_matrix(spec, u))


@pytest.mark.parametrize("level", [0, 1])
def test_low_level_projectors_are_identities(level):
    """Levels 0 and 1 take the general route W S W^{-1}; the 0-fold twist
    acts on the 1-dimensional 0-fold product."""
    eye = np.eye(2 ** level, dtype=complex)
    for m in multi_twist(0.3, level):
        assert m.dtype == eye.dtype and m.tobytes() == eye.tobytes()
    projector = fused_projector(0.3 - 0.2j, level)
    assert projector.dtype == eye.dtype and projector.tobytes() == eye.tobytes()


def test_multi_twist_level2_is_fundamental_twist():
    xi = 0.37
    w, w_inv = multi_twist(xi, 2)
    assert np.array_equal(w, build_f12(xi))
    assert np.linalg.norm(w @ w_inv - np.eye(4)) < 1e-15


def test_symmetrizer_ranks():
    assert np.trace(symmetrizer(2)) == pytest.approx(3.0)
    assert np.trace(symmetrizer(3)) == pytest.approx(4.0)
    s3 = symmetrizer(3)
    assert np.linalg.norm(s3 @ s3 - s3) < 1e-15


def test_fused_projector_level2_matches_spectral():
    xi = 0.6
    p_plus, _ = spectral_projectors(TwistParams(xi, 1.0))
    assert np.linalg.norm(fused_projector(xi, 2) - p_plus) == 0.0


def test_fused_projector_level3_idempotent():
    pi = fused_projector(0.8, 3)
    assert np.linalg.norm(pi @ pi - pi) < 1e-14
    assert np.trace(pi) == pytest.approx(4.0)


@pytest.mark.parametrize("level", [2, 3])
def test_staggered_product_preserves_fused_space(level):
    spec = ChainSpec(2, TwistParams(0.7, 1.0))
    assert fusion_invariance_residual(spec, level, 2.9) < 1e-11


def test_quantum_determinant_scalar():
    spec = ChainSpec(3, TwistParams(0.5, 1.0))
    u = 2.4
    scalar, off = quantum_determinant(spec, u)
    assert off < 1e-11
    assert scalar == pytest.approx(vacuum_d(u - 1.0, spec))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("xi", [0.0, 0.4])
@pytest.mark.parametrize("level", [1, 2])
def test_fusion_relation(n, xi, level):
    """t^(l+1)(u) = t^(l)(u) t^(1)(u - l eta) - d(u - l eta) t^(l-1)(u)."""
    spec = ChainSpec(n, TwistParams(xi, 1.0))
    rng = np.random.default_rng(10 * n + level)
    for _ in range(3):
        u = complex(rng.uniform(3.2, 5.0), rng.uniform(0.5, 1.5))
        assert verify_fusion_relation(spec, level, u) < 1e-9


def test_fusion_relation_level_bounds():
    spec = ChainSpec(2, TwistParams(0.4, 1.0))
    with pytest.raises(ValueError):
        verify_fusion_relation(spec, 0, 2.0)
    with pytest.raises(ValueError):
        verify_fusion_relation(spec, 3, 2.0)


def test_fused_pole_rejected():
    spec = ChainSpec(2, TwistParams(0.4, 1.0))
    with pytest.raises(ValueError):
        fused_transfer(spec, 2, 1.0)  # u - eta = 0


def test_fused_level_out_of_range():
    spec = ChainSpec(2, TwistParams(0.4, 1.0))
    with pytest.raises(ValueError):
        fused_transfer(spec, 4, 2.0)


def test_fused_family_commutes():
    spec = ChainSpec(2, TwistParams(0.5, 1.0))
    u, v = 2.3, -1.4
    mats = [fused_transfer(spec, lvl, w) for lvl in (1, 2, 3) for w in (u, v)]
    for a in mats:
        for b in mats:
            rel = np.linalg.norm(a @ b - b @ a) / max(np.linalg.norm(a @ b), 1e-300)
            assert rel < 1e-9


def test_fused_undeformed_level2_commutes_with_level1():
    spec = ChainSpec(2, TwistParams(0.0, 1.0))
    a = fused_transfer(spec, 2, 2.6)
    b = transfer_matrix(spec, -1.9)
    assert np.linalg.norm(a @ b - b @ a) / np.linalg.norm(a @ b) < 1e-11


@pytest.mark.parametrize("level", [2, 3])
def test_fused_spectra_coincide_with_undeformed(level):
    n = 2
    u = 3.4
    t_xi = fused_transfer(ChainSpec(n, TwistParams(0.9, 1.0)), level, u)
    t_0 = fused_transfer(ChainSpec(n, TwistParams(0.0, 1.0)), level, u)
    report = match_spectra(spectrum_of(t_xi, n)[0], spectrum_of(t_0, n)[0], 1e-7)
    assert report.matched
