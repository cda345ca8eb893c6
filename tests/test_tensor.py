import numpy as np
import pytest

from twistchain import tensor
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
    rel_residual,
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


def test_hermitian_eigenvalues_solves_real_input_in_real_arithmetic(monkeypatch):
    """Exactly real symmetric input (H(0) of the XXX chain, a random one)
    goes to the real eigvalsh and agrees with the complex solve within
    1e-12 max|lambda|; complex Hermitian input keeps the complex solve."""
    from twistchain.chain import ChainSpec, build_hamiltonian
    from twistchain.twist import TwistParams

    rng = np.random.default_rng(5)
    g = rng.standard_normal((40, 40))
    real_inputs = [build_hamiltonian(ChainSpec(7, TwistParams(0.0, 1.0))),
                   (g + g.T).astype(complex)]
    c = g + 1j * rng.standard_normal((40, 40))
    complex_input = c + c.conj().T
    solve = np.linalg.eigvalsh
    seen = []

    def recording(m):
        seen.append(m.dtype)
        return solve(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    for m in real_inputs:
        assert not m.imag.any()
        want = solve(m)
        got = hermitian_eigenvalues(m)
        assert seen.pop() == np.float64
        assert got.dtype == complex
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    hermitian_eigenvalues(complex_input)
    assert seen == [np.complex128]


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
    # a complex entry is rejected when either part is non-finite
    for bad in (complex(np.nan, 1.0), complex(1.0, np.inf), complex(0.0, -np.inf)):
        with pytest.raises(ValueError):
            as_matrix(np.array([[1.0, 0.0], [bad, 1.0]], dtype=complex))
    as_matrix(np.array([[1e308 + 1e308j, 0.0], [0.0, 1.0]]))


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


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, np.inf)])
def test_match_spectra_non_finite_input_is_unmatched_without_the_solver(bad, monkeypatch):
    """A non-finite eigenvalue gives a non-finite greedy distance, reported
    unmatched as it is; the assignment is never entered."""

    def refuse(cost):
        raise AssertionError("the assignment was entered")

    monkeypatch.setattr(tensor, "_min_sum_assignment", refuse)
    for s1, s2 in (([bad, 1], [1, 2]), ([1, 2], [2, bad])):
        report = match_spectra(s1, s2, 1e-8)
        assert not report.matched
        dist = report.max_pair_distance
        assert np.isnan(dist) if np.isnan(bad) else dist == np.inf


def _assignment_cases():
    """Cost matrices of sizes 1..40: distances of random complex points,
    small integer costs full of ties, and distances between permuted
    clusters of near-degenerate points split by 1e-9."""
    rng = np.random.default_rng(20)
    for n in range(1, 41):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        yield np.abs(a[:, None] - b[None, :])
        yield rng.integers(0, 4, (n, n)).astype(float)
        centres = 3 * rng.standard_normal(max(1, n // 4))
        a = centres[rng.integers(0, centres.size, n)] + 1e-9 * rng.standard_normal(n)
        b = rng.permutation(a) + 1e-9 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        yield np.abs(a[:, None] - b[None, :])


def test_min_sum_assignment_matches_scipy():
    """Differential test: the permutation's total cost is scipy's minimum."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    for cost in _assignment_cases():
        n = cost.shape[0]
        cols = tensor._min_sum_assignment(cost)
        assert np.array_equal(np.sort(cols), np.arange(n))
        rows, ref_cols = linear_sum_assignment(cost)
        best = cost[rows, ref_cols].sum()
        assert abs(cost[np.arange(n), cols].sum() - best) <= 1e-9 * best


def test_min_sum_assignment_ends_without_a_finite_matching():
    """With no finite perfect matching every augmenting path is infinite;
    each step still labels a new column, so a permutation comes back."""
    import threading

    cost = np.array([[0.0, np.inf], [0.0, np.inf]])
    out = []
    # a solver that spins fails the test instead of hanging the session
    worker = threading.Thread(target=lambda: out.append(tensor._min_sum_assignment(cost)),
                              daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert np.array_equal(np.sort(out[0]), [0, 1])


@pytest.mark.parametrize("n_sites", [7, 8, 9])
@pytest.mark.parametrize("xi,eta", [(0.5, 1.0), (complex(0.3, 0.4), complex(0.8, 0.3))])
def test_hamiltonian_dense_pairing_equals_scipy(n_sites, xi, eta):
    """The red spectrum.hamiltonian_dense reaches the assignment at N >= 7;
    its max_pair_distance is bitwise the one of scipy's assignment."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    from twistchain.chain import ChainSpec, build_hamiltonian
    from twistchain.twist import TwistParams

    ev_xi = eigenvalues(build_hamiltonian(ChainSpec(n_sites, TwistParams(xi, eta))))
    ev_0 = hermitian_eigenvalues(build_hamiltonian(ChainSpec(n_sites, TwistParams(0.0, eta))))
    a, b = np.sort_complex(ev_xi), np.sort_complex(ev_0)
    assert np.max(np.abs(a - b)) > 1e-5  # the greedy pairing is above tolerance
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert match_spectra(ev_xi, ev_0, 1e-5).max_pair_distance == np.max(cost[rows, cols])


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


def _run_python(code):
    """Run `code` in a fresh interpreter that imports the twistchain under
    test, also when pytest found it through its own `pythonpath` setting."""
    import os
    import subprocess
    import sys

    import twistchain

    src = os.path.dirname(os.path.dirname(twistchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env)


def test_import_leaves_scipy_optimize_unloaded():
    """Importing the package loads no scipy.optimize: the assignment that
    match_spectra falls back to is the package's own."""
    out = _run_python("import sys, twistchain; print('scipy.optimize' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_suites_reaching_the_assignment_load_no_scipy():
    """`verify bethe` at N = 5 with real eta (conjugation closure) and
    `verify spectrum` at N = 7 (hamiltonian_dense) pair spectra through
    the assignment, and no scipy module is loaded on the way."""
    code = (
        "import sys\n"
        "from twistchain import RunConfig, tensor\n"
        "from twistchain.suites import run_suite\n"
        "sizes = []\n"
        "solve = tensor._min_sum_assignment\n"
        "tensor._min_sum_assignment = lambda cost: sizes.append(len(cost)) or solve(cost)\n"
        "run_suite(RunConfig(n_sites=5), 'bethe')\n"
        "run_suite(RunConfig(n_sites=7, boundary='periodic'), 'spectrum')\n"
        "print(sorted(set(sizes)))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = _run_python(code)
    sizes, loaded = out.stdout.strip().splitlines()
    assert sizes == "[2, 128]"
    assert loaded == "[]"


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_rel_residual_survives_overflowing_norms():
    """Entries of 1e160 overflow the squared norms; the relative error of
    1e-7 must still read as it does on the same pair scaled by 1e-150."""
    a = np.full((4, 4), 1e160)
    b = a + 1e153
    small = rel_residual(a * 1e-150, b * 1e-150)
    assert small == pytest.approx(1e-7, rel=1e-6)
    assert rel_residual(a, b) == pytest.approx(small, rel=1e-12)


def test_rel_residual_keeps_nan_for_non_finite_entries():
    a = np.full((4, 4), 1e160)
    b = a.copy()
    b[1, 2] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(rel_residual(a, b))
        assert np.isnan(rel_residual(b, a))
