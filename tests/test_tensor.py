import numpy as np
import pytest

from twistchain.tensor import (
    I2,
    SM,
    SX,
    SY,
    SZ,
    as_matrix,
    eigenvalues,
    embed_at_site,
    hermitian_eigenvalues,
    kron_all,
    lift,
    match_spectra,
    permutation_op,
)

UP = np.array([1, 0], dtype=complex)
DOWN = np.array([0, 1], dtype=complex)


def test_kron_identity():
    assert np.array_equal(kron_all([I2, I2]), np.eye(4))


def test_kron_lowers_both_factors():
    up_up = np.kron(UP, UP)
    down_down = np.kron(DOWN, DOWN)
    assert np.allclose(kron_all([SM, SM]) @ up_up, down_down)


def test_kron_block_layout_against_hand_expansion():
    """(a ⊗ b) equals the a_ij * b block layout, expanded by hand."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    expected = np.block([[a[0, 0] * b, a[0, 1] * b], [a[1, 0] * b, a[1, 1] * b]])
    assert np.array_equal(kron_all([a, b]), expected)


def test_kron_associative_exactly_on_dyadic_entries():
    """Entry products are exact for dyadic rationals, so association is too."""
    rng = np.random.default_rng(8)
    mats = [(rng.integers(-8, 8, (2, 2)) + 1j * rng.integers(-8, 8, (2, 2))) / 16
            for _ in range(3)]
    left = kron_all([kron_all(mats[:2]), mats[2]])
    right = kron_all([mats[0], kron_all(mats[1:])])
    assert np.array_equal(left, right)


def test_kron_associative_generic():
    rng = np.random.default_rng(9)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    left = kron_all([kron_all(mats[:2]), mats[2]])
    right = kron_all([mats[0], kron_all(mats[1:])])
    assert np.allclose(left, right, rtol=0, atol=1e-14)


def test_embed_single_site():
    assert np.array_equal(embed_at_site(SZ, 1, 1), SZ)


def test_embed_second_site_eigenvector():
    up_down = np.kron(UP, DOWN)
    assert np.allclose(embed_at_site(SZ, 2, 2) @ up_down, -up_down)


def test_embed_product_lowers_both_sites():
    """sm_1 sm_2 on |up,up> gives |down,down>; oracle is the direct 4x4 product."""
    op = embed_at_site(SM, 1, 2) @ embed_at_site(SM, 2, 2)
    assert np.allclose(op @ np.kron(UP, UP), np.kron(DOWN, DOWN))
    assert np.array_equal(op, np.kron(SM, SM))


def test_embed_site_out_of_range():
    with pytest.raises(ValueError):
        embed_at_site(SZ, 3, 2)
    with pytest.raises(ValueError):
        embed_at_site(SZ, 0, 2)


def test_embedded_operators_commute_on_distinct_sites():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = embed_at_site(a, 1, 4)
    y = embed_at_site(b, 3, 4)
    assert np.linalg.norm(x @ y - y @ x) < 1e-13


def test_permutation_swaps_factors():
    p = permutation_op()
    assert np.allclose(p @ np.kron(UP, DOWN), np.kron(DOWN, UP))
    assert np.array_equal(p @ p, np.eye(4))
    assert np.trace(p) == 2


def test_permutation_equals_unit_matrix_sum():
    units = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e_ij = np.zeros((2, 2))
            e_ji = np.zeros((2, 2))
            e_ij[i, j] = 1
            e_ji[j, i] = 1
            units += np.kron(e_ij, e_ji)
    assert np.array_equal(permutation_op(), units)


def test_eigenvalues_diagonal():
    assert np.allclose(eigenvalues(np.diag([1.0, 2.0, 3.0])), [1, 2, 3])


def test_eigenvalues_heisenberg_bond():
    """sigma.sigma = 2P - 1 has eigenvalues {-3, 1, 1, 1} (direct 4x4 oracle),
    in (Re, Im) order from the general and the Hermitian solver alike."""
    bond = np.kron(SX, SX) + np.kron(SY, SY) + np.kron(SZ, SZ)
    for solver in (eigenvalues, hermitian_eigenvalues):
        ev = solver(bond)
        assert ev.dtype == complex
        assert np.allclose(ev, [-3, 1, 1, 1], atol=1e-12)


def test_eigenvalues_nilpotent():
    m = np.zeros((3, 3))
    m[1, 0] = 2.0
    m[2, 1] = -1.5
    assert np.allclose(eigenvalues(m), [0, 0, 0], atol=1e-12)


def test_eigenvalues_requires_square():
    for solver in (eigenvalues, hermitian_eigenvalues):
        with pytest.raises(ValueError):
            solver(np.ones((2, 3)))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_match_spectra_permutation():
    report = match_spectra([1, 2], [2, 1], 1e-8)
    assert report.matched and report.max_pair_distance == 0


def test_match_spectra_within_tolerance():
    assert match_spectra([1], [1 + 1e-12], 1e-8).matched


def test_match_spectra_separated():
    report = match_spectra([0], [1], 1e-8)
    assert not report.matched
    assert report.max_pair_distance == pytest.approx(1.0)


def test_match_spectra_cardinality_mismatch():
    with pytest.raises(ValueError):
        match_spectra([1, 2], [1], 1e-8)


def test_match_spectra_near_degenerate_uses_assignment():
    """Sort-greedy can mispair a tight cluster; the assignment fallback fixes it."""
    a = np.array([1.0 + 1e-10j, 1.0 - 1e-10j, 2.0])
    b = np.array([1.0 - 1e-10j, 1.0 + 1e-10j, 2.0])
    assert match_spectra(a, b, 1e-8).matched


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_similarity_preserves_spectrum(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    s = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
    sim = s @ m @ np.linalg.inv(s)
    assert match_spectra(eigenvalues(m), eigenvalues(sim), 1e-8).matched


def test_lift_matches_kron_layout():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    dims = [2, 4, 3]
    got = lift(np.kron(a, b), dims, [0, 2])
    expected = np.einsum("ac,bd,ef->abecdf", a, np.eye(4), b).reshape(24, 24)
    assert np.allclose(got, expected)


def test_kron_all_empty_rejected():
    with pytest.raises(ValueError):
        kron_all([])


def test_import_leaves_scipy_optimize_unloaded():
    """The assignment solver is only imported by the fallback of match_spectra."""
    import subprocess
    import sys

    code = "import sys, twistchain; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
