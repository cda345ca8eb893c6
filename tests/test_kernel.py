"""The local-contraction kernel, the in-place embedding, and every chain
operator built from local structure.

Each route is compared with the construction it replaced: products of full
`lift` matrices for the monodromy, its polynomial coefficients, site-grown
products on wider auxiliary spaces, RTT and the fused product; products of
site-embedded Pauli matrices for the Hamiltonian and the open-chain
deformation terms (bitwise); Kronecker and einsum embeddings for the
Yang-Baxter check (bitwise). The site-grown products and the scattered
embedding are also compared bitwise with the kernel applied to the identity,
and so are the T_0 applier and the order-1 reading of the symmetry layer,
on the identity, with the grown full matrices they replaced. The lean
kernels (`kron`, `frobenius`, `build_r_stack`, the cached embedding plan
and the relation word plan) are compared bitwise with the numpy calls or
per-sample constructions they replace.
"""

import math
import tracemalloc
from functools import lru_cache, partial

import numpy as np
import pytest

from twistchain.bethe import (
    BetheState,
    eval_lambda,
    magnon_product_state,
    one_magnon_defects,
    one_magnon_roots,
    verify_one_magnon_action,
)
from twistchain.chain import (
    ChainSpec,
    MonodromyBlocks,
    _aux_blocks_apply,
    _factors_apply,
    _grow_at,
    _grow_site,
    _poly_carry,
    _poly_factors,
    _row_bands,
    _site_product,
    _transfer,
    bond_pairs,
    build_hamiltonian,
    monodromy_blocks_apply,
    monodromy_matrix,
    monodromy_poly_coeffs,
    strictly_lowering_residual,
    transfer_apply,
    transfer_matrix,
    vacuum_d,
    vacuum_state,
    verify_commuting_transfer,
    verify_rtt,
)
from twistchain.fusion import _staggered_product
from twistchain.reporting import RunConfig
from twistchain.relations import Member, _word_plan, relation_residuals
from twistchain.rmatrix import build_r, build_r_stack, build_r_xi, polynomial_l, verify_ybe
from twistchain.suites import run_suite
from twistchain.symmetry import _constant_blocks, order1_transcription_residual
from twistchain.tensor import (
    SM,
    SX,
    SY,
    STACK_BYTES,
    SZ,
    _embedding_index,
    add_local,
    apply_local,
    embed_at_site,
    frobenius,
    kron,
    lift,
    permutation_op,
    rel_residual,
    sample_chunks,
)
from twistchain.twist import TwistParams

XIS = (0.5, 0.3 + 0.4j)


def _specs(max_sites):
    for n in range(1, max_sites + 1):
        for xi in XIS:
            for boundary in ("periodic", "open"):
                yield ChainSpec(n, TwistParams(xi, 0.8 + 0.3j), boundary)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _dense_monodromy(spec, u):
    dims = [2] * (spec.n_sites + 1)
    out = np.eye(2 * spec.dim, dtype=complex)
    for k in range(spec.n_sites, 0, -1):
        out = out @ lift(build_r(u, spec.params), dims, [0, k])
    return out


def _dense_blocks(spec, u):
    """A(u)..D(u) sliced from the full monodromy."""
    t, d = monodromy_matrix(spec, u), spec.dim
    return MonodromyBlocks(a=t[:d, :d], b=t[:d, d:], c=t[d:, :d], d=t[d:, d:])


def _dense_poly_coeffs(spec):
    dims = [2] * (spec.n_sites + 1)
    full = 2 * spec.dim
    coeffs = [np.eye(full, dtype=complex)]
    for k in range(spec.n_sites, 0, -1):
        const = lift(-spec.params.eta * permutation_op(), dims, [0, k])
        lin = lift(build_r_xi(spec.params.xi), dims, [0, k])
        new = [np.zeros((full, full), dtype=complex) for _ in range(len(coeffs) + 1)]
        for deg, c in enumerate(coeffs):
            new[deg] += c @ const
            new[deg + 1] += c @ lin
        coeffs = new
    return coeffs


@lru_cache(maxsize=None)
def _embedded_bond(n, i, j):
    """Site-embedded products of one bond, shared by every variant below."""
    e = {name: (embed_at_site(op, i, n), embed_at_site(op, j, n))
         for name, op in (("x", SX), ("y", SY), ("z", SZ), ("m", SM))}
    return {
        "xx": e["x"][0] @ e["x"][1],
        "yy": e["y"][0] @ e["y"][1],
        "zz": e["z"][0] @ e["z"][1],
        "mm": e["m"][0] @ e["m"][1],
        "m_diff": e["m"][0] - e["m"][1],
    }


def _embedded_hamiltonian(spec, deformation_doubled=False):
    """The site-embedded product construction the kernel route replaced,
    accumulated term by term in its order."""
    xi = spec.params.xi
    c2, c1 = (2 * xi**2, 2 * xi) if deformation_doubled else (xi**2, xi)
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for (i, j) in bond_pairs(spec):
        terms = _embedded_bond(spec.n_sites, i, j)
        h += terms["xx"]
        h += terms["yy"]
        h += terms["zz"]
        h += c2 * terms["mm"]
        h += c1 * terms["m_diff"]
    return h


def test_apply_local_equals_lift_product():
    rng = np.random.default_rng(5)
    dims = [2, 3, 2, 2]
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = rng.standard_normal((24, 5)) + 1j * rng.standard_normal((24, 5))
    for slots in ([0, 2], [3, 0], [2, 3]):
        expected = lift(op, dims, slots) @ x
        assert np.allclose(apply_local(op, x, dims, slots), expected, atol=1e-13)
        assert np.allclose(apply_local(op, x[:, 1], dims, slots), expected[:, 1], atol=1e-13)


def test_apply_local_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        apply_local(np.eye(4), np.zeros((8, 2)), [2, 2, 2], [0])
    with pytest.raises(ValueError):
        apply_local(np.eye(2), np.zeros((6, 2)), [2, 2, 2], [0])


@pytest.mark.parametrize("spec", list(_specs(6)), ids=str)
def test_monodromy_matches_dense_lift_product(spec):
    u = 1.3 - 0.7j
    dense = _dense_monodromy(spec, u)
    assert _rel(monodromy_matrix(spec, u), dense) < 1e-14
    rng = np.random.default_rng(spec.n_sites)
    x = rng.standard_normal((2 * spec.dim, 3)) + 1j * rng.standard_normal((2 * spec.dim, 3))
    r_u = build_r(u, spec.params)
    assert _rel(_factors_apply(r_u, spec.n_sites, x), dense @ x) < 1e-14
    assert _rel(_factors_apply(r_u, spec.n_sites, x[:, 0]), dense @ x[:, 0]) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("xi", XIS)
def test_poly_coeffs_match_dense_and_truncated_pairs(n, xi):
    spec = ChainSpec(n, TwistParams(xi, 1.1))
    coeffs = monodromy_poly_coeffs(spec)
    assert len(coeffs) == n + 1
    dense = _dense_poly_coeffs(spec)
    for got, want in zip(coeffs, dense):
        assert np.allclose(got, want, rtol=0, atol=1e-13 * np.linalg.norm(want))
    low0, low1 = _kernel_poly_pair(spec, "low")
    high_n, high_n1 = _kernel_poly_pair(spec, "high")
    scale = max(np.linalg.norm(c) for c in coeffs)
    for got, want in ((low0, coeffs[0]), (low1, coeffs[1]),
                      (high_n, coeffs[n]), (high_n1, coeffs[n - 1])):
        assert np.linalg.norm(got - want) <= 1e-14 * scale


@pytest.mark.parametrize("spec", list(_specs(6)), ids=str)
def test_matrix_free_bethe_vectors_match_dense_blocks(spec):
    u, v, w = 1.9 + 0.2j, -0.6 + 1.1j, 2.4 - 0.9j
    bv, bw = _dense_blocks(spec, v), _dense_blocks(spec, w)
    omega = vacuum_state(spec.n_sites)
    dense_state = bv.c @ (bw.c @ omega)
    state = magnon_product_state(spec, [v, w])
    assert np.linalg.norm(state - dense_state) <= 1e-14 * max(np.linalg.norm(dense_state), 1)
    t_u = transfer_matrix(spec, u)
    assert _rel(transfer_apply(spec, u, state), t_u @ state) < 1e-14
    block = np.stack([state, omega, bv.c @ omega], axis=1)
    assert _rel(transfer_apply(spec, u, block), t_u @ block) < 1e-14
    bu, on_block = _dense_blocks(spec, u), monodromy_blocks_apply(spec, u, block)
    for name in "abcd":
        want = getattr(bu, name) @ block
        assert np.linalg.norm(getattr(on_block, name) - want) <= 1e-14 * max(
            np.linalg.norm(want), 1)


def test_one_magnon_action_matches_dense_blocks():
    spec = ChainSpec(4, TwistParams(0.3 + 0.4j, 0.8 + 0.3j))
    u, v = 1.7 + 0.3j, -0.9 + 0.5j
    bu, bv = _dense_blocks(spec, u), _dense_blocks(spec, v)
    omega = vacuum_state(4)
    eta = spec.params.eta
    du, dv = (1 - eta / u) ** 4, (1 - eta / v) ** 4
    lhs = (bu.a + bu.d) @ (bv.c @ omega)
    rhs = ((1 - eta / (u - v) + du * (1 - eta / (v - u))) * (bv.c @ omega)
           - (-eta / (u - v) - eta / (v - u) * dv) * (bu.c @ omega)
           + spec.params.xi * (1 - du) * (1 - dv) * omega)
    dense = float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1.0))
    (residual,) = verify_one_magnon_action(spec, [u], [v])
    assert abs(residual - dense) < 1e-14


@pytest.mark.parametrize("aux", [4, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_site_product_on_wide_aux_matches_dense_lift_products(aux, n):
    rng = np.random.default_rng(10 * aux + n)
    factor = rng.standard_normal((2 * aux, 2 * aux)) + 1j * rng.standard_normal((2 * aux, 2 * aux))
    dims = [aux] + [2] * n
    dense = np.eye(aux * 2 ** n, dtype=complex)
    for k in range(1, n + 1):
        dense = lift(factor, dims, [0, k]) @ dense
    assert _rel(_site_product(factor, n), dense) < 1e-14


def _kron_ybe(u, v, params):
    """The Kronecker and einsum embeddings the lifted Yang-Baxter check replaced."""
    i2 = np.eye(2, dtype=complex)
    r12 = np.kron(build_r(u - v, params), i2)
    r23 = np.kron(i2, build_r(v, params))
    r13 = np.einsum("ikjl,mn->imkjnl", build_r(u, params).reshape(2, 2, 2, 2),
                    i2).reshape(8, 8)
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))


def test_ybe_bitwise_equal_to_kron_embedding():
    """Every residual of one stacked sweep equals the Kronecker route on
    its sample alone."""
    rng = np.random.default_rng(17)
    us, vs, params = [], [], []
    for _ in range(20):
        u, v, xi, eta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        us.append(u)
        vs.append(v)
        params.append(TwistParams(xi, eta))
    residuals = verify_ybe(us, vs, params)
    assert len(residuals) == 20
    for got, u, v, p in zip(residuals, us, vs, params, strict=True):
        assert got == _kron_ybe(u, v, p)


def _one_sample_rtt(spec, u, v):
    """The RTT residual of one sample as it was evaluated before the sweep
    was stacked: one factor on aux ⊗ aux ⊗ site per point order, lifted
    and multiplied from the identity, grown site by site."""
    def product(points, slots):
        dims = [2, 2, 2]
        factor = np.eye(8, dtype=complex)
        for p, s in zip(points, slots):
            factor = factor @ lift(build_r(p, spec.params), dims, [s, 2])
        t = np.eye(4, dtype=complex)
        for _ in range(spec.n_sites):
            grown = (factor.reshape(4, 2, 4, 2).transpose(0, 1, 3, 2).reshape(16, 4)
                     @ t.reshape(4, -1)).reshape(4, 2, 2, t.shape[0] // 4, t.shape[1])
            t = grown.transpose(0, 3, 1, 4, 2).reshape(2 * t.shape[0], 2 * t.shape[1])
        return t

    r12 = build_r(u - v, spec.params)
    t1t2, t2t1 = product([u, v], [0, 1]), product([v, u], [1, 0])
    rows = t1t2.shape[0]
    lhs = (r12 @ t1t2.reshape(4, -1)).reshape(rows, rows)
    rhs = (t2t1.reshape(rows, 4, -1).swapaxes(1, 2) @ r12).swapaxes(1, 2).reshape(rows, rows)
    return rel_residual(lhs, rhs)


@pytest.mark.parametrize("n, samples", [(1, 5), (2, 12), (3, 20), (4, 40)])
def test_rtt_sweep_bitwise_equal_to_one_sample_route(n, samples):
    """The stacked RTT sweep against the per-sample route, residual by
    residual with ==; at n = 4 the 40 samples span several chunks."""
    rng = np.random.default_rng(30 + n)
    us = list(rng.uniform(0.5, 4, samples) * np.exp(1j * rng.uniform(0, 6.3, samples)))
    vs = [u + complex(rng.uniform(-2, 2), rng.uniform(0.2, 2)) for u in us]
    params = [TwistParams(complex(x, y), 0.8 + 0.3j) for x, y in rng.uniform(-1, 1, (samples, 2))]
    if n == 4:
        rows = 4 * 2 ** n
        assert len(list(sample_chunks(samples, rows * rows * 16))) >= 2
    got = verify_rtt(n, us, vs, params)
    want = [_one_sample_rtt(ChainSpec(n, p), u, v) for u, v, p in zip(us, vs, params)]
    assert got == want


@pytest.mark.parametrize("aux, n", [(2, 3), (4, 2), (8, 1)])
def test_site_product_on_a_stack_is_each_product_alone(aux, n):
    """``_site_product`` and ``_grow_site`` on a stack of k factors give,
    ``tobytes``-equal, the k products made one factor at a time."""
    rng = np.random.default_rng(aux + n)
    k = 5
    factors = (rng.standard_normal((k, 2 * aux, 2 * aux))
               + 1j * rng.standard_normal((k, 2 * aux, 2 * aux)))
    stacked = _site_product(factors, n)
    assert stacked.shape == (k, aux * 2 ** n, aux * 2 ** n)
    for got, factor in zip(stacked, factors, strict=True):
        assert got.tobytes() == _site_product(factor, n).tobytes()
    t = rng.standard_normal((k, aux * 4, aux * 4)) + 1j * rng.standard_normal((k, aux * 4, aux * 4))
    for got, factor, part in zip(_grow_site(factors, t), factors, t, strict=True):
        assert got.tobytes() == _grow_site(factor, part).tobytes()


def _random_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", range(1, 9))
def test_transfer_on_a_stack_is_each_trace_alone(n):
    """``_transfer`` on a stack of k factors fills, ``tobytes``-equal, the
    k traces of each factor alone; from N = 7 on the trace is streamed in
    more than one row band."""
    assert (len(list(_row_bands(n))) > 1) == (n >= 7)
    rng = np.random.default_rng(50 + n)
    factors = _random_stack(rng, (3, 4, 4))
    stacked = _transfer(factors, n)
    assert stacked.shape == (3, 2 ** n, 2 ** n)
    for got, factor in zip(stacked, factors, strict=True):
        assert got.tobytes() == _transfer(factor, n).tobytes()


@pytest.mark.parametrize("dims, slots", [([2, 2, 2, 2], [0, 3]), ([2, 3, 2], [2, 1]), ([3, 2], [1])])
def test_apply_local_on_a_stack_is_each_operator_alone(dims, slots):
    """A stack of operators on the matching stack of vectors or blocks,
    over one and over two leading axes, gives ``tobytes``-equal each
    operator applied alone."""
    rng = np.random.default_rng(len(dims) + sum(slots))
    d_slots, full = int(np.prod([dims[s] for s in slots])), int(np.prod(dims))
    for lead in ((4,), (2, 3)):
        ops = _random_stack(rng, lead + (d_slots, d_slots))
        for x in (_random_stack(rng, lead + (full, 3)), _random_stack(rng, lead + (full,))):
            got = apply_local(ops, x, dims, slots)
            assert got.shape == x.shape
            for i in np.ndindex(lead):
                assert got[i].tobytes() == apply_local(ops[i], x[i], dims, slots).tobytes()
    with pytest.raises(ValueError):
        apply_local(ops, _random_stack(rng, (3, 2, full)), dims, slots)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_factor_applies_on_a_stack_are_each_factor_alone(n):
    """``_factors_apply`` and ``_aux_blocks_apply`` on a stack of site
    factors and chain blocks or vectors give, ``tobytes``-equal, each
    factor applied alone."""
    rng = np.random.default_rng(60 + n)
    k, d = 4, 2 ** n
    factors = _random_stack(rng, (k, 4, 4))
    for x in (_random_stack(rng, (k, 2 * d, 3)), _random_stack(rng, (k, 2 * d))):
        for got, factor, part in zip(_factors_apply(factors, n, x), factors, x, strict=True):
            assert got.tobytes() == _factors_apply(factor, n, part).tobytes()
    for x in (_random_stack(rng, (k, d, 2)), _random_stack(rng, (k, d))):
        blocks = _aux_blocks_apply(factors, n, x)
        for i in range(k):
            alone = _aux_blocks_apply(factors[i], n, x[i])
            assert [b[i].tobytes() for b in blocks] == [b.tobytes() for b in alone]


def _one_sample_commutator(spec, u, v):
    """The commuting-transfer residual of one sample as it was evaluated
    before the sweep was stacked: two ``transfer_matrix`` and two products."""
    a, b = transfer_matrix(spec, u), transfer_matrix(spec, v)
    ab = a @ b
    return float(np.linalg.norm(ab - b @ a) / max(np.linalg.norm(ab), 1e-300))


def _one_sample_action(spec, u, v):
    """The off-shell residual of one sample as it was evaluated before the
    sweep was stacked: C(v) O and C(u) O by ``magnon_product_state``,
    t(u) C(v) O by ``transfer_apply``."""
    eta = spec.params.eta
    omega = vacuum_state(spec.n_sites)
    c_v, c_u = magnon_product_state(spec, [v]), magnon_product_state(spec, [u])
    du, dv = vacuum_d(u, spec), vacuum_d(v, spec)
    lhs = transfer_apply(spec, u, c_v)
    rhs = ((1 - eta / (u - v) + du * (1 - eta / (v - u))) * c_v
           - (-eta / (u - v) + -eta / (v - u) * dv) * c_u
           + spec.params.xi * (1 - du) * (1 - dv) * omega)
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1.0))


def _one_sample_defect(spec, root, u):
    """The on-shell defect of one closed-form root as it was evaluated
    before the sweep was stacked."""
    lam = eval_lambda(u, BetheState(spec.n_sites, 1, (complex(root),), 0.0, spec.params.eta))
    psi = magnon_product_state(spec, [root])
    return np.linalg.norm(transfer_apply(spec, u, psi) - lam * psi) / np.linalg.norm(psi)


def _points(rng, samples):
    us = list(rng.uniform(0.5, 4, samples) * np.exp(1j * rng.uniform(0, 6.3, samples)))
    vs = [u + complex(rng.uniform(-2, 2), rng.uniform(0.2, 2)) for u in us]
    return us, vs


@pytest.mark.parametrize("n, samples", [(2, 1), (2, 12), (4, 20), (6, 7)])
def test_commuting_sweep_bitwise_equal_to_one_sample_route(n, samples):
    """The stacked commuting-transfer sweep against the per-sample route,
    residual by residual with ==; at n = 6 the samples span several chunks."""
    rng = np.random.default_rng(70 + n + samples)
    us, vs = _points(rng, samples)
    params = [TwistParams(complex(x, y), 0.8 + 0.3j) for x, y in rng.uniform(-1, 1, (samples, 2))]
    if n == 6:
        assert len(list(sample_chunks(samples, 16 * 4 ** n))) >= 2
    got = verify_commuting_transfer(n, us, vs, params)
    assert got == [_one_sample_commutator(ChainSpec(n, p), u, v)
                   for u, v, p in zip(us, vs, params)]
    with pytest.raises(ValueError):
        verify_commuting_transfer(n, us, vs[:-1], params)


@pytest.mark.parametrize("n, samples", [(1, 1), (3, 9), (8, 20)])
@pytest.mark.parametrize("xi", XIS)
def test_one_magnon_sweeps_bitwise_equal_to_one_sample_routes(n, samples, xi):
    """The stacked off-shell and on-shell sweeps against their per-sample
    routes, residual by residual with ==; at n = 8 the off-shell samples
    span several chunks. A sample with u = v or a zero point is refused
    wherever it stands in the sweep."""
    spec = ChainSpec(n, TwistParams(xi, 0.8 + 0.3j))
    rng = np.random.default_rng(80 + n + samples)
    us, vs = _points(rng, samples)
    if n == 8:
        assert len(list(sample_chunks(samples, 4 * 16 * spec.dim))) >= 2
    assert verify_one_magnon_action(spec, us, vs) == [
        _one_sample_action(spec, u, v) for u, v in zip(us, vs)]
    roots = one_magnon_roots(n, spec.params.eta)
    assert one_magnon_defects(spec, roots, us[:len(roots)]) == [
        _one_sample_defect(spec, root, u) for root, u in zip(roots, us)]
    for bad in ((us[-1], us[-1]), (0, vs[-1]), (us[-1], 0)):
        with pytest.raises(ValueError):
            verify_one_magnon_action(spec, us[:-1] + [bad[0]], vs[:-1] + [bad[1]])


def _sweep_peak(sweep, samples):
    """tracemalloc peak, in bytes, of one sweep call over `samples` draws
    made before tracing starts."""
    rng = np.random.default_rng(samples)
    us = list(rng.uniform(0.5, 4, samples) + 1j * rng.uniform(-1, 1, samples))
    vs = [u + 0.7 - 0.4j for u in us]
    params = [TwistParams(xi, 1.0) for xi in rng.uniform(-1, 1, samples)]
    tracemalloc.start()
    try:
        sweep(us, vs, params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _off_shell_n8(us, vs, params):
    return verify_one_magnon_action(ChainSpec(8, params[0]), us, vs)


@pytest.mark.parametrize("sweep", [
    verify_ybe, partial(verify_rtt, 2), partial(verify_commuting_transfer, 6), _off_shell_n8,
], ids=["ybe", "rtt_n2", "commuting_n6", "off_shell_n8"])
def test_sweep_memory_does_not_grow_with_samples(sweep):
    """Chunked, a sweep of 2000 samples peaks within a small slack of one
    of 100: three stack budgets, for the working set of a full chunk (128
    samples of the 8 x 8 YBE stacks against 100) and the residual list.
    One unchunked stack of 2000 samples would hold 2 MiB (ybe), 8 MiB (rtt
    at n = 2), 128 MiB (each t(u) stack of the commuting sweep at n = 6)
    or 32 MiB (the doubled blocks of the off-shell sweep at n = 8) per
    array."""
    assert _sweep_peak(sweep, 2000) <= _sweep_peak(sweep, 100) + 3 * STACK_BYTES


def test_lift_and_add_local_on_a_stack_are_each_matrix_alone():
    rng = np.random.default_rng(8)
    ops = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    dims = [2, 3, 2]
    stacked = lift(ops, dims, [2, 0])
    assert stacked.shape == (3, 12, 12)
    for got, op in zip(stacked, ops, strict=True):
        assert got.tobytes() == lift(op, dims, [2, 0]).tobytes()
    # one operator into every matrix of a stack
    h = rng.standard_normal((3, 12, 12)) + 1j * rng.standard_normal((3, 12, 12))
    want = [m + lift(ops[0], dims, [2, 0]) for m in h]
    add_local(h, ops[0], dims, [2, 0])
    assert all(np.array_equal(got, w) for got, w in zip(h, want))
    with pytest.raises(ValueError):
        lift(np.full((2, 4, 4), np.nan), dims, [2, 0])
    with pytest.raises(ValueError):
        apply_local(ops, np.eye(12), dims, [2, 0])


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("xi", XIS)
def test_open_boundary_terms_bitwise_equal_to_embedded_products(n, xi):
    """The open-chain spectrum check against its site-embedded construction."""
    config = RunConfig(n_sites=n, xi=xi, boundary="open")
    (report,) = run_suite(config, "spectrum")
    h = [build_hamiltonian(ChainSpec(n, TwistParams(x, config.eta), "open")) for x in (xi, 0.0)]
    diff = h[0] - h[1]
    quad = sum(embed_at_site(SM, k, n) @ embed_at_site(SM, k + 1, n) for k in range(1, n))
    boundary = embed_at_site(SM, 1, n) - embed_at_site(SM, n, n)
    residual = float(np.linalg.norm(diff - xi**2 * quad - xi * boundary))
    assert report.check_id == "spectrum.open_boundary_terms"
    assert report.residual == max(residual, strictly_lowering_residual(diff, n))


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("xi", XIS)
def test_open_boundary_terms_in_place_bitwise_equal_to_zero_matrix_sum(n, xi):
    """Subtracted from H(xi) - H(0) in place, the expected terms give the
    residual of the expression that first built them into two zero
    matrices, bitwise: no two terms share an entry."""
    config = RunConfig(n_sites=n, xi=xi, boundary="open")
    (report,) = run_suite(config, "spectrum")
    h = [build_hamiltonian(ChainSpec(n, TwistParams(x, config.eta), "open"))
         for x in (config.xi, 0.0)]
    diff = h[0] - h[1]
    dims = [2] * n
    quad = np.zeros_like(diff)
    for k in range(n - 1):
        add_local(quad, np.kron(SM, SM), dims, [k, k + 1])
    boundary = np.zeros_like(diff)
    add_local(boundary, SM, dims, [0])
    add_local(boundary, -SM, dims, [n - 1])
    residual = float(np.linalg.norm(diff - config.xi**2 * quad - config.xi * boundary))
    assert report.residual == max(residual, strictly_lowering_residual(diff, n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rtt_matches_dense_lift_products(n):
    spec = ChainSpec(n, TwistParams(0.3 + 0.4j, 1.0))
    u, v = 1.2 + 0.5j, -0.7 + 0.9j
    dims = [2, 2, spec.dim]
    t1 = lift(_dense_monodromy(spec, u), dims, [0, 2])
    t2 = lift(_dense_monodromy(spec, v), dims, [1, 2])
    r12 = lift(build_r(u - v, spec.params), dims, [0, 1])
    lhs, rhs = r12 @ t1 @ t2, t2 @ t1 @ r12
    dense = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1)
    (residual,) = verify_rtt(n, [u], [v], [spec.params])
    assert residual < 1e-14
    assert abs(residual - dense) < 1e-14


@pytest.mark.parametrize("level", [2, 3])
def test_staggered_product_matches_dense_lift_products(level):
    spec = ChainSpec(2, TwistParams(0.5, 1.0))
    u = 2.1 + 0.4j
    dims = [2] * level + [spec.dim]
    dense = np.eye(2 ** level * spec.dim, dtype=complex)
    for i in range(level):
        dense = dense @ lift(_dense_monodromy(spec, u - i), dims, [i, level])
    assert _rel(_staggered_product(spec, level, u), dense) < 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_hamiltonian_bitwise_equal_to_embedded_products(n):
    variants = ({}, {"deformation_doubled": True})
    for boundary in ("periodic", "open"):
        for xi in XIS:
            spec = ChainSpec(n, TwistParams(xi, 1.0), boundary)
            for variant in variants:
                assert np.array_equal(build_hamiltonian(spec, **variant),
                                      _embedded_hamiltonian(spec, **variant)), variant
    _embedded_bond.cache_clear()


def _kernel_poly_pair(spec, end):
    """Two-degree expansion by the kernel on the identity of aux ⊗ chain."""
    const, lin = _poly_factors(spec)
    if end == "high":
        const, lin = lin, const
    dims = [2] * (spec.n_sites + 1)
    c0, c1 = np.eye(2 * spec.dim, dtype=complex), None
    for k in range(1, spec.n_sites + 1):
        step = apply_local(lin, c0, dims, [0, k])
        c1 = step if c1 is None else apply_local(const, c1, dims, [0, k]) + step
        c0 = apply_local(const, c0, dims, [0, k])
    return c0, c1


def _kernel_poly_coeffs(spec):
    const, lin = _poly_factors(spec)
    dims = [2] * (spec.n_sites + 1)
    coeffs = [np.eye(2 * spec.dim, dtype=complex)]
    for k in range(1, spec.n_sites + 1):
        new = [apply_local(const, c, dims, [0, k]) for c in coeffs]
        new.append(np.zeros_like(coeffs[0]))
        for deg, c in enumerate(coeffs):
            new[deg + 1] += apply_local(lin, c, dims, [0, k])
        coeffs = new
    return coeffs


def _grown_order1_residual(spec):
    """The order-1 reading on full matrices: each displayed term the product
    of the site factors R_xi, with P at site k, grown site by site with
    ``_grow_site``, and the exact side the kernel's two-degree expansion on
    the identity. (A product of full ``lift`` matrices sums in another
    order and moves the residual in its last bits from N = 7 on.)"""
    n = spec.n_sites
    r_c, p = build_r_xi(spec.params.xi), permutation_op()
    total = np.zeros((2 * spec.dim, 2 * spec.dim), dtype=complex)
    for k in range(1, n + 1):
        term = np.eye(2, dtype=complex)
        for j in range(1, n + 1):
            term = _grow_site(p if j == k else r_c, term)
        total += term
    exact = _kernel_poly_pair(spec, "high")[1]
    return rel_residual(exact, -spec.params.eta * total)


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("xi", XIS)
def test_grown_products_bitwise_equal_to_kernel_on_identity(n, xi):
    spec = ChainSpec(n, TwistParams(xi, 0.8 + 0.3j))
    eye = np.eye(2 * spec.dim, dtype=complex)
    u = 1.3 - 0.7j
    assert np.array_equal(monodromy_matrix(spec, u),
                          _factors_apply(build_r(u, spec.params), n, eye))
    assert np.array_equal(_site_product(polynomial_l(u, spec.params), n),
                          _factors_apply(polynomial_l(u, spec.params), n, eye))
    const, lin = _poly_factors(spec)
    for end, pair in (("low", (const, lin)), ("high", (lin, const))):
        grown = _poly_carry(*pair, [np.eye(2, dtype=complex)], range(1, n + 1), _grow_at)
        for got, want in zip(grown, _kernel_poly_pair(spec, end), strict=True):
            assert np.array_equal(got, want), end
    # the T_0 applier and the order-1 reading on the identity against the
    # grown full matrices; the grown order-1 oracle and the kernel oracle of
    # the coefficient list cost O(N^2) full-width products, so smaller N
    # keep the suite quick
    t0 = _site_product(build_r_xi(xi), n)
    d = spec.dim
    for got, want in zip(_constant_blocks(spec), (t0[:d, :d], t0[d:, :d], t0[d:, d:])):
        assert np.array_equal(got, want)
    if n <= 8:
        assert (order1_transcription_residual(spec, np.eye(2 * spec.dim))
                == _grown_order1_residual(spec))
    if n <= 6:
        for got, want in zip(monodromy_poly_coeffs(spec), _kernel_poly_coeffs(spec),
                             strict=True):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("xi", XIS)
def test_poly_carry_through_the_kernel_on_identity_is_the_grown_carry(n, xi):
    """One carry, two ways to apply a site factor: through ``apply_local``
    on X = I it is ``tobytes``-equal to the carry grown from the auxiliary
    identity, for (const, lin) and for the swapped pair, at top degree 1
    and N."""
    spec = ChainSpec(n, TwistParams(xi, 0.8 + 0.3j))
    dims = [2] * (n + 1)

    def kernel_at(op, c, k):
        return apply_local(op, c, dims, [0, k])

    const, lin = _poly_factors(spec)
    for pair in ((const, lin), (lin, const)):
        for top in (1, n):
            on_identity = _poly_carry(*pair, [np.eye(2 * spec.dim, dtype=complex)],
                                      range(1, n + 1), kernel_at, top)
            grown = _poly_carry(*pair, [np.eye(2, dtype=complex)], range(1, n + 1), _grow_at,
                                top)
            assert len(grown) == top + 1
            for got, want in zip(on_identity, grown, strict=True):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dims, slots", [
    ([2, 2, 2, 2], [1, 2]),
    ([2, 2, 2, 2], [3, 0]),
    ([2, 2, 2], [2, 0]),
    ([2, 3, 2], [0, 1]),
    ([2, 3, 2], [2, 1]),
    ([2, 3, 2], [1]),
    ([3, 2], [0, 1]),
])
def test_add_local_and_lift_bitwise_equal_to_kernel_on_identity(dims, slots):
    rng = np.random.default_rng(len(dims) + sum(slots))
    d_slots = int(np.prod([dims[s] for s in slots]))
    full = int(np.prod(dims))
    op = rng.standard_normal((d_slots, d_slots)) + 1j * rng.standard_normal((d_slots, d_slots))
    eye = np.eye(full, dtype=complex)
    want = apply_local(op, eye, dims, slots)
    assert np.array_equal(lift(op, dims, slots), want)
    h = rng.standard_normal((full, full)) + 1j * rng.standard_normal((full, full))
    expected = h + want
    add_local(h, op, dims, slots)
    assert np.array_equal(h, expected)


def test_add_local_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        add_local(np.zeros((8, 8), dtype=complex), np.eye(2), [2, 2, 2], [0, 1])
    with pytest.raises(ValueError):
        add_local(np.zeros((6, 6), dtype=complex), np.eye(4), [2, 2, 2], [0, 1])


def _loop_lowering_residual(m, n_sites):
    """The double loop over the graded basis that the popcount mask replaced."""
    order = np.array(sorted(range(2 ** n_sites), key=lambda i: (bin(i).count("1"), i)))
    g = m[np.ix_(order, order)]
    popcount = np.sort([bin(i).count("1") for i in range(2 ** n_sites)])
    worst = 0.0
    for r in range(g.shape[0]):
        for c in range(g.shape[1]):
            if popcount[r] <= popcount[c]:
                worst = max(worst, abs(g[r, c]))
    return worst


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_strictly_lowering_residual_equals_loop(n):
    rng = np.random.default_rng(40 + n)
    dim = 2 ** n
    popcount = np.array([bin(i).count("1") for i in range(dim)])
    lowering = popcount[:, None] > popcount[None, :]
    m = np.where(lowering, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), 0)
    assert strictly_lowering_residual(m, n) == _loop_lowering_residual(m, n) == 0.0
    for row, col in ((0, 0), (dim - 1, dim - 1), (0, dim - 1), (dim // 2, dim // 2 - 1)):
        planted = m.copy()
        planted[row, col] += 1e-3 * (3 - 4j) * (1 + row + col)
        want = _loop_lowering_residual(planted, n)
        assert want == (0.0 if lowering[row, col] else abs(planted[row, col]))
        assert strictly_lowering_residual(planted, n) == want
    noisy = m + 1e-9 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    assert strictly_lowering_residual(noisy, n) == _loop_lowering_residual(noisy, n) > 0


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _norm_operands():
    rng = np.random.default_rng(31)
    for shape in ((7,), (5, 6), (3, 4, 5), (2 ** 7, 2 ** 7)):
        for make in (rng.standard_normal, partial(_complex, rng)):
            x = make(shape)
            yield x
            yield np.asfortranarray(x)
            yield x[..., ::2]
            yield x.T
    yield np.zeros((0,))
    yield np.zeros((3, 0), dtype=complex)
    yield np.arange(12).reshape(3, 4)  # integers go through float, as in norm
    yield 1e200 * _complex(rng, (4, 4))  # overflows to inf in both


@np.errstate(over="ignore")
def test_frobenius_bitwise_equal_to_linalg_norm():
    for x in _norm_operands():
        got, want = frobenius(x), np.linalg.norm(x)
        assert type(got) is type(want)
        assert got.tobytes() == want.tobytes(), x.shape


@pytest.mark.parametrize("shapes", [((2, 2), (2, 2)), ((1, 3), (4, 1)), ((3, 1), (1, 4)),
                                    ((1, 1), (3, 2)), ((4, 4), (2, 3)), ((2, 3), (0, 2))])
def test_kron_bitwise_equal_to_np_kron(shapes):
    rng = np.random.default_rng(sum(map(sum, shapes)))
    real = [rng.standard_normal(s) for s in shapes]
    cplx = [_complex(rng, s) for s in shapes]
    for a, b in ((cplx[0], cplx[1]), (real[0], cplx[1]), (cplx[0], real[1]), (real[0], real[1]),
                 (cplx[0].T.T[::-1], cplx[1])):
        got, want = kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_kron_refuses_non_matrices():
    with pytest.raises(ValueError):
        kron(np.ones(2), np.eye(2))


# real xi: -xi taken in numpy would read -0.5-0j, not build_r's -0.5+0j
_R_SAMPLES = [(u, TwistParams(xi, eta))
              for xi in (0.5, -0.25, 0.0, 0.3 + 0.4j, complex(0.3, -0.0))
              for eta in (1.0, 0.8 + 0.3j, -2)
              for u in (1.3, -0.7, 1.2 - 0.5j, np.complex128(0.4 + 0.1j), np.float64(-2.5), 3)]


def test_build_r_stack_bitwise_equal_to_build_r():
    stack = build_r_stack([u for u, _ in _R_SAMPLES], [p for _, p in _R_SAMPLES])
    assert stack.shape == (len(_R_SAMPLES), 4, 4)
    for r, (u, p) in zip(stack, _R_SAMPLES):
        assert r.tobytes() == build_r(u, p).tobytes()
    assert build_r_stack([], []).shape == (0, 4, 4)


@pytest.mark.parametrize("at", [0, 1, 2])
def test_build_r_stack_refuses_a_pole_in_any_sample(at):
    us = [1.0, 2.0, 3.0]
    us[at] = 0
    with pytest.raises(ValueError, match="pole"):
        build_r_stack(us, [TwistParams(0.5)] * 3)
    with pytest.raises(ValueError):
        build_r_stack([1.0], [])


def _loop_embedding(op, dims, slots):
    """op[i, j] at each row/column pair whose `slots` indices are i and j
    and whose other indices agree, entry by entry."""
    full = math.prod(dims)
    states = list(np.ndindex(*dims))
    out = np.zeros((full, full), dtype=complex)
    for r, row in enumerate(states):
        for c, col in enumerate(states):
            if all(row[k] == col[k] for k in range(len(dims)) if k not in slots):
                i = np.ravel_multi_index([row[s] for s in slots], [dims[s] for s in slots])
                j = np.ravel_multi_index([col[s] for s in slots], [dims[s] for s in slots])
                out[r, c] = op[i, j]
    return out


@pytest.mark.parametrize("dims, slots", [([2, 2, 2], [0, 2]), ([2, 3, 2], [2, 1]),
                                         ([3, 2], [1]), ([2, 2, 2, 2], [3, 0])])
def test_cached_embedding_plan_equals_loop_embedding(dims, slots):
    rng = np.random.default_rng(len(dims) + 7 * sum(slots))
    d_slots = math.prod(dims[s] for s in slots)
    for _ in range(2):  # the second pass reads the cached plan
        op = _complex(rng, (d_slots, d_slots))
        want = _loop_embedding(op, dims, slots)
        assert lift(op, dims, slots).tobytes() == want.tobytes()
        h = np.zeros_like(want)
        add_local(h, op, dims, slots)
        assert h.tobytes() == want.tobytes()
    rows, cols = _embedding_index(tuple(dims), tuple(slots))
    assert not rows.flags.writeable and not cols.flags.writeable


def _family(mats):
    return lambda y: [m @ y for m in mats]


_PLAN_TEXTS = ("A*B = xi*B*A + A", "A*A*B + beta*B = B*A*A - xi^2*A")


def _dense_residuals(a, b, xi, beta, x):
    """Both relations of _PLAN_TEXTS with dense A and B, by hand."""
    sides = ((a @ b @ x, xi * (b @ a @ x) + a @ x),
             (a @ a @ b @ x + beta * (b @ x), b @ a @ a @ x - xi**2 * (a @ x)))
    return [rel_residual(lhs, rhs) for lhs, rhs in sides]


def test_relation_plan_reused_with_new_scalars_equals_fresh_evaluation():
    rng = np.random.default_rng(5)
    mats = [_complex(rng, (4, 4)) for _ in range(2)]
    family = _family(mats)
    x = _complex(rng, (4, 3))
    _word_plan.cache_clear()
    runs = []
    for xi, beta in ((0.5, 1.5 - 0.25j), (0.3 + 0.4j, -2.0), (1, 0.0)):
        env = {"A": Member(family, 0), "B": Member(family, 1), "xi": xi, "beta": beta}
        runs.append((env, relation_residuals(_PLAN_TEXTS, env, x)))
    assert _word_plan.cache_info().misses == 1  # one plan, read by all three
    for env, got in runs:
        _word_plan.cache_clear()
        assert relation_residuals(_PLAN_TEXTS, env, x) == got
        assert got == pytest.approx(_dense_residuals(*mats, env["xi"], env["beta"], x),
                                    rel=1e-12, abs=1e-15)


def test_relation_plan_rebuilt_when_a_binding_kind_changes():
    rng = np.random.default_rng(6)
    mats = [_complex(rng, (4, 4)) for _ in range(2)]
    x = _complex(rng, (4, 2))
    family = _family(mats)
    as_member = {"A": Member(family, 0), "B": Member(family, 1), "xi": 0.5, "beta": 0.25}
    _word_plan.cache_clear()
    first = relation_residuals(_PLAN_TEXTS, as_member, x)
    assert first == pytest.approx(_dense_residuals(*mats, 0.5, 0.25, x), rel=1e-12)
    # A bound to a number: its words fold into the coefficients
    as_number = {**as_member, "A": 0.7 - 0.1j}
    got = relation_residuals(_PLAN_TEXTS, as_number, x)
    assert got == pytest.approx(
        _dense_residuals((0.7 - 0.1j) * np.eye(4), mats[1], 0.5, 0.25, x), rel=1e-12)
    assert _word_plan.cache_info().misses == 2
    # A and B in two families: no longer stacked into one call
    split = {**as_member, "B": Member(_family(mats[1:]), 0)}
    assert relation_residuals(_PLAN_TEXTS, split, x) == pytest.approx(first, rel=1e-12)
    assert _word_plan.cache_info().misses == 3
    assert relation_residuals(_PLAN_TEXTS, as_member, x) == first
