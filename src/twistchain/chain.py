"""Monodromy and transfer matrices of the deformed chain, and the chain-level
verifications: RTT, the displayed exchange relations, Hamiltonian construction
and extraction, and spectrum coincidence with the undeformed model.

The monodromy is the ordered product over sites

    T(u) = L_N(u) ... L_2(u) L_1(u),    L_{a,k}(u) = R(u) on aux ⊗ site k,

acting on aux ⊗ (C^2)^{⊗N} with the auxiliary space as the leftmost tensor
factor. Its auxiliary-space blocks are written

    T(u) = [[A(u), B(u)], [C(u), D(u)]].

On the all-down product vacuum these act triangularly,

    A(u) O = O,   D(u) O = d(u) O,   B(u) O = 0,   d(u) = (1 - eta/u)^N,

which is the starting point of the algebraic Bethe ansatz layer in
``twistchain.bethe``. For evaluations at u = 0 (regularity, Hamiltonian
extraction) the polynomial form Lbar(u) = u R_xi - eta P is used; it differs
from the rational form by the overall scalar u^N in t(u).

Every chain object is one product of a local site factor over the sites,
and every evaluator takes that factor: R(u), Lbar(u), R_xi, or the lifted
factor on aux^m ⊗ site of ``_monodromy_product`` (RTT and fusion). One
route serves each job. ``_site_product`` grows the dense product one site
at a time, T_k = L_{a,k} (T_{k-1} ⊗ 1) from the auxiliary identity, as a
matrix product operator is contracted (``_grow_site``; Murg, Korepin and
Verstraete, arXiv:1201.5627); a stack of factors grows the stack of their
products, which is how ``verify_rtt`` evaluates each chunk of its sweep
(``tensor.sweep``). A trace over the auxiliary space never forms the whole
product over sites 1..N-1: the product is grown over sites 1..N-2 only,
and ``_stream_trace`` makes site N-1 one row band at a time with the same
matmul and traces each band at site N straight into the 2^N-square output
(t(u) in ``_transfer``, t(0) and t'(0) in ``log_derivative``). ``_transfer`` takes a stack of factors
and fills the stack of their traces, which is how
``verify_commuting_transfer`` evaluates each chunk of its sweep.
``_poly_carry`` carries the coefficients of prod_k (const + u lin)_{a,k},
densely or on a column block. ``_factors_apply`` applies the product to a
column block with ``tensor.apply_local``, O(N 4^N) per block, a stack of
factors to a stack of blocks (the one-magnon sweeps of
``twistchain.bethe``); every reader
of A..D goes through ``monodromy_blocks_apply``, whose one application to
[[X, 0], [0, X]] gives all four blocks (on X = I for the displayed table,
bound by ``monodromy_members``, and for ``rtt_components``), and
``monodromy_matrix`` stays as the dense reference. The Hamiltonian, a sum
of local terms, is scattered into its matrix term by term with
``tensor.add_local``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import NamedTuple

import numpy as np

from . import relations as rel
from .rmatrix import build_r, build_r_stack, build_r_xi, polynomial_l
from .tensor import (
    I2,
    MAX_SITES,
    SM,
    SX,
    SY,
    SZ,
    add_local,
    apply_local,
    commutator_residuals,
    eigenvalues,
    frobenius,
    kron,
    lift,
    match_spectra,
    permutation_op,
    rel_residual,
    SpectrumReport,
    sweep,
)
from .twist import TwistParams

_P = permutation_op()

# The last two sites of a trace over the auxiliary space are streamed in
# row bands of about this many bytes of output, one row of the product over
# sites 1..N-2 at least (``_row_bands``).
_BAND_BYTES = 2**17

# A sector block is split into momentum blocks only when the mass its
# momentum basis leaves outside them is at most MOMENTUM_TOL times the
# block's Frobenius norm; otherwise it is solved whole.
MOMENTUM_TOL = 1e-12


class ExtractionError(RuntimeError):
    """Raised when t(0) is not the invertible scaled shift it should be, so
    the log-derivative cannot be formed."""


@dataclass(frozen=True)
class ChainSpec:
    """Chain of n_sites spin-1/2 sites with twist parameters and boundary."""

    n_sites: int
    params: TwistParams
    boundary: str = "periodic"

    def __post_init__(self):
        if not 1 <= self.n_sites <= MAX_SITES:
            raise ValueError(f"n_sites must be in 1..{MAX_SITES}")
        if self.boundary not in ("periodic", "open"):
            raise ValueError(f"boundary must be 'periodic' or 'open', got {self.boundary!r}")

    @property
    def dim(self) -> int:
        return 2 ** self.n_sites


class MonodromyBlocks(NamedTuple):
    """Auxiliary-space blocks A, B, C, D of T(u) applied to a chain vector
    or block (``monodromy_blocks_apply``); on the identity, the 2^N x 2^N
    blocks themselves."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class HamiltonianPair:
    """Log-derivative Hamiltonian with its affine fits to the local formula.

    ``fit_residual`` refers to the displayed deformation coefficients
    (xi^2, xi); ``fit_residual_doubled`` to the variant with both doubled
    (2 xi^2, 2 xi), which is the density the extraction actually produces.
    """

    h_formula: np.ndarray
    h_extracted: np.ndarray
    scale: complex
    shift: complex
    fit_residual: float
    scale_doubled: complex
    shift_doubled: complex
    fit_residual_doubled: float


def vacuum_state(n_sites: int) -> np.ndarray:
    """All-down product state (the last basis vector)."""
    v = np.zeros(2 ** n_sites, dtype=complex)
    v[-1] = 1.0
    return v


def vacuum_d(u: complex, spec: ChainSpec) -> complex:
    """Vacuum eigenvalue d(u) = (1 - eta/u)^N of D(u)."""
    return (1 - spec.params.eta / u) ** spec.n_sites


def _factors_apply(op: np.ndarray, n_sites: int, x: np.ndarray) -> np.ndarray:
    """op_{a,N} ... op_{a,1} x on aux ⊗ chain, one ``apply_local`` per site;
    a stack of factors applies to the stack of vectors or blocks x over the
    same leading axes."""
    dims = [2] * (n_sites + 1)
    for k in range(1, n_sites + 1):
        x = apply_local(op, x, dims, [0, k])
    return x


def _aux_blocks_apply(op: np.ndarray, n_sites: int, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four auxiliary blocks of op_{a,N} ... op_{a,1} applied to a chain
    vector or block x: top left, top right, bottom left, bottom right.

    One application to [[x, 0], [0, x]]: the first column half comes out as
    the two left blocks applied to x, the second as the two right ones. A
    stack of factors takes a stack of x over the same leading axes.
    """
    x = np.asarray(x, dtype=complex)
    lead, d = op.shape[:-2], 2 ** n_sites
    block = x.reshape(lead + (d, -1))
    k = block.shape[-1]
    doubled = np.zeros(lead + (2 * d, 2 * k), dtype=complex)
    doubled[..., :d, :k] = block
    doubled[..., d:, k:] = block
    y = _factors_apply(op, n_sites, doubled)
    return tuple(part.reshape(x.shape) for part in (y[..., :d, :k], y[..., :d, k:],
                                                    y[..., d:, :k], y[..., d:, k:]))


def _site_op(op: np.ndarray) -> np.ndarray:
    """A 2A x 2A factor on aux ⊗ site, the auxiliary space of dimension A
    leftmost, reshaped to (a'' s'' s, a'): the left operand of every site
    step, against a product read as (a', rest). Leading stack axes are
    kept."""
    aux = op.shape[-1] // 2
    return (op.reshape(-1, aux, 2, aux, 2).transpose(0, 1, 2, 4, 3)
            .reshape(op.shape[:-2] + (4 * aux, aux)))


def _grow_site(op: np.ndarray, t: np.ndarray) -> np.ndarray:
    """op_{a,k} (t ⊗ 1_k): extend t on aux ⊗ sites 1..k-1 by site k.

    `op` is a 2A x 2A factor on aux ⊗ site k. Since t ⊗ 1 keeps the site
    index (s' = s), only the auxiliary index a' is summed: one matmul of
    op, reshaped to (a'' s'' s, a') (``_site_op``), against t read as (a',
    rows cols), and one transpose to (a'', rows, s'', cols, s). The
    identity t ⊗ 1 is never formed. Leading stack axes of op and t
    broadcast: one matmul per stacked pair, each as the pair alone takes it.
    """
    aux = op.shape[-1] // 2
    rows, cols = t.shape[-2:]
    grown = _site_op(op) @ t.reshape(t.shape[:-2] + (aux, -1))
    lead = grown.shape[:-2]
    grown = grown.reshape(-1, aux, 2, 2, rows // aux, cols)
    return grown.transpose(0, 1, 4, 2, 5, 3).reshape(lead + (2 * rows, 2 * cols))


def _site_product(factor: np.ndarray, n_sites: int) -> np.ndarray:
    """factor_{a,n_sites} ... factor_{a,1} on aux ⊗ sites 1..n_sites, grown
    site by site from the identity of the auxiliary space (its dimension
    read from the factor's shape); the identity itself at n_sites = 0. A
    stack of factors gives the stack of their products (one identity at
    n_sites = 0)."""
    t = np.eye(factor.shape[-1] // 2, dtype=complex)
    for _ in range(n_sites):
        t = _grow_site(factor, t)
    return t


def _monodromy_product(ops: list[np.ndarray], n_sites: int,
                       slots: list[int] | None = None) -> np.ndarray:
    """T_{a_{s_1}}(p_1) ... T_{a_{s_m}}(p_m) on aux^m ⊗ chain, auxiliary
    factors leftmost, from the m local operators ops[i] = R(p_i) on aux ⊗
    site (or stacks of them over the same leading axes, giving the stack of
    products); `slots` (default 0..m-1) places each monodromy.

    Factors of different sites on different auxiliary spaces commute, so the
    product is grown site by site from one factor on aux^m ⊗ site, the
    product of the lifted local operators L_{a_{s_i}}(p_i) in the same order.
    """
    m = len(ops)
    slots = range(m) if slots is None else slots
    dims = [2] * (m + 1)
    factor = reduce(np.matmul, (lift(op, dims, [s, m]) for op, s in zip(ops, slots)),
                    np.eye(2 ** (m + 1), dtype=complex))
    return _site_product(factor, n_sites)


def monodromy_matrix(spec: ChainSpec, u: complex) -> np.ndarray:
    """T(u) = L_N(u)...L_1(u) as a matrix on aux ⊗ chain."""
    return _site_product(build_r(u, spec.params), spec.n_sites)


def _row_bands(n_sites: int) -> Iterator[tuple[slice, slice]]:
    """Row bands of a trace over N sites streamed at the last two sites:
    (rows per auxiliary index of the product over sites 1..N-2, the rows of
    the 2^N-square output they give), about _BAND_BYTES of output each. At
    N <= 2 that product is the auxiliary identity, one row per index."""
    dim = 2 ** n_sites
    g_rows = 2 ** max(n_sites - 2, 0)
    per_row = dim // g_rows
    step = max(1, _BAND_BYTES // (per_row * dim * 16))
    for r in range(0, g_rows, step):
        stop = min(r + step, g_rows)
        yield slice(r, stop), slice(per_row * r, per_row * stop)


def _aux_block(g: np.ndarray, rows: slice, a: int) -> np.ndarray:
    """Rows `rows` of every auxiliary row block of a product g on aux ⊗
    sites, in auxiliary column block a, as a product on aux ⊗ those rows
    and columns: (a' rows, cols), the layout ``_grow_site`` extends. Leading
    stack axes are kept."""
    lead, (n_rows, n_cols) = g.shape[:-2], g.shape[-2:]
    part = g.reshape(lead + (2, n_rows // 2, 2, -1))[..., :, rows, a, :]
    return part.reshape(lead + (-1, n_cols // 2))


def _trace_block(band: np.ndarray, a: int,
                 terms: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Auxiliary-diagonal block a of tr_aux sum_terms op_{a,N} (t ⊗ 1_N)
    on a band of output rows: written at a = 0, added in place at a = 1,
    bitwise A + D.

    In each (op_t, t_a) term op_t is the site-N factor read by ``_site_op``
    and t_a the auxiliary column block a of a product over sites 1..N-1 on
    the band's rows, read (a', rows cols). The block reads only those
    columns: one matmul of op_t's rows with a'' = a, (s'' s, a'), against
    t_a. The terms are summed in order before the block enters the band,
    which is viewed in the output layout (rows, s'', cols, s). Leading stack
    axes of op_t and t_a broadcast to those of the band.
    """
    products = (op_t[..., 4 * a:4 * a + 4, :] @ t_a.reshape(t_a.shape[:-2] + (2, -1))
                for op_t, t_a in terms)
    total = next(products)
    for prod in products:
        total += prod
    lead, rows = total.shape[:-2], band.shape[-2] // 2
    block = (total.reshape(-1, 2, 2, rows, band.shape[-1] // 2).transpose(0, 3, 1, 4, 2)
             .reshape(lead + (rows, 2, -1, 2)))
    view = band.reshape(lead + (rows, 2, -1, 2))
    if a == 0:
        view[...] = block
    else:
        view += block


def _stream_trace(n_sites: int,
                  traced: Callable[[slice, int], list[list[tuple[np.ndarray, np.ndarray]]]],
                  out: np.ndarray | None = None) -> Iterator[tuple[slice, list[np.ndarray]]]:
    """Traces over the auxiliary space of products over N sites, row band
    by row band (``_row_bands``); yields (output rows, bands).

    ``traced(rows, a)`` gives, on the rows `rows` per auxiliary index of
    the products over sites 1..N-2 and their auxiliary column block a, one
    list of (op_t, t_a) terms per output (``_trace_block``): t_a is site
    N-1 grown on that part (``_grow_site``) and op_t the site-N factor. So
    neither a product over sites 1..N-1 nor a whole auxiliary block is ever
    formed. The bands are the rows of `out` when it is given (one output,
    or a stack of them), else new arrays, one per list that ``traced``
    gives; the terms of block a = 0 are dropped before those of a = 1 are
    grown.
    """
    dim = 2 ** n_sites
    for rows, out_rows in _row_bands(n_sites):
        bands = None if out is None else [out[..., out_rows, :]]
        for a in (0, 1):
            terms = traced(rows, a)
            if bands is None:
                bands = [np.empty((out_rows.stop - out_rows.start, dim), dtype=complex)
                         for _ in terms]
            for band, band_terms in zip(bands, terms):
                _trace_block(band, a, band_terms)
            del terms, band_terms
        yield out_rows, bands


def _transfer_terms(l4: np.ndarray, n_sites: int) -> Callable:
    """The trace terms (``_stream_trace``) of tr_aux l4_{a,N} ... l4_{a,1}
    for a 4 x 4 site factor l4, or a stack of them; the product is grown
    over sites 1..N-2 here, and site N-1 on each part as it is asked for."""
    g = _site_product(l4, max(n_sites - 2, 0))
    l4_t = _site_op(l4)

    def traced(rows, a):
        part = _aux_block(g, rows, a)
        # at N = 1 the auxiliary identity g is the product over no site
        return [[(l4_t, _grow_site(l4, part) if n_sites > 1 else part)]]

    return traced


def _transfer(l4: np.ndarray, n_sites: int) -> np.ndarray:
    """tr_aux l4_{a,N} ... l4_{a,1} as one 2^N-square array, streamed at the
    last two sites with every band written in place; the output is
    allocated once the product over sites 1..N-2 is grown. A stack of
    factors fills the stack of their traces, each bitwise the trace of its
    factor alone."""
    traced = _transfer_terms(l4, n_sites)
    out = np.empty(l4.shape[:-2] + (2 ** n_sites, 2 ** n_sites), dtype=complex)
    for _ in _stream_trace(n_sites, traced, out=out):
        pass
    return out


def transfer_matrix(spec: ChainSpec, u: complex) -> np.ndarray:
    """t(u) = tr_aux T(u) = A(u) + D(u), streamed at the last two sites
    (``_transfer``)."""
    return _transfer(build_r(u, spec.params), spec.n_sites)


def monodromy_blocks_apply(spec: ChainSpec, u: complex, x: np.ndarray) -> MonodromyBlocks:
    """A(u) x, B(u) x, C(u) x and D(u) x for a chain vector or block x:
    one application of T(u) to [[x, 0], [0, x]] (``_aux_blocks_apply``)."""
    return MonodromyBlocks(*_aux_blocks_apply(build_r(u, spec.params), spec.n_sites, x))


def monodromy_members(spec: ChainSpec, u: complex, point: str = "u") -> dict:
    """Bindings of A(point)..D(point) in the relation grammar: the blocks of
    T(u) as members of one ``monodromy_blocks_apply`` family
    (``relations.Member``), so a table reads all four off one application."""
    blocks = partial(monodromy_blocks_apply, spec, u)
    return {f"{name}({point})": rel.Member(blocks, i) for i, name in enumerate("ABCD")}


def transfer_apply(spec: ChainSpec, u: complex, x: np.ndarray) -> np.ndarray:
    """t(u) x = A(u) x + D(u) x without forming t(u)."""
    blocks = monodromy_blocks_apply(spec, u, x)
    return blocks.a + blocks.d


def _poly_factors(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """(constant, linear) parts of the local factor Lbar(u) = u R_xi - eta P."""
    return -spec.params.eta * _P, build_r_xi(spec.params.xi)


def monodromy_poly_coeffs(spec: ChainSpec) -> list[np.ndarray]:
    """Coefficient matrices of the degree-N matrix polynomial Tbar(u).

    Tbar(u) = prod_k (u R_xi - eta P)_{a,k}; the list entry j is the
    coefficient of u^j on aux ⊗ chain. Exact bookkeeping, no limits taken.
    """
    const, lin = _poly_factors(spec)
    return _poly_carry(const, lin, [np.eye(2, dtype=complex)], range(1, spec.n_sites + 1),
                       _grow_at, top=spec.n_sites)


def _grow_at(op: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """op_{a,k} (t ⊗ 1_k) for ``_poly_carry``: t spans sites 1..k-1."""
    return _grow_site(op, t)


def _poly_carry(const: np.ndarray, lin: np.ndarray, coeffs: Iterable[np.ndarray],
                sites: Iterable[int], at: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
                top: int = 1) -> list[np.ndarray]:
    """Coefficients of u^0..u^top of prod_{k in sites} (const + u lin)_{a,k}
    applied to the polynomial whose coefficients are `coeffs` (lowest
    degree first, at most top + 1; [c0] starts a product at c0), carried
    site by site in the order of `sites`; ``at(op, c, k)`` applies op_{a,k}
    to c (``_grow_at``, or ``tensor.apply_local`` at slots [0, k]).

    Site k runs top degree down, so each old c_d is read before it is
    replaced: c_d becomes lin c_{d-1}, with const c_d added in place. With
    `const` and `lin` swapped it carries u^N Tbar(1/u), whose lowest
    coefficients are the highest of Tbar(u).
    """
    coeffs = list(coeffs)
    for k in sites:
        for d in range(min(len(coeffs), top), 0, -1):
            step = at(lin, coeffs[d - 1], k)
            if d < len(coeffs):
                step += at(const, coeffs[d], k)
                coeffs[d] = step
            else:
                coeffs.append(step)
        coeffs[0] = at(const, coeffs[0], k)
    return coeffs


def verify_rtt(n_sites: int, us: Sequence[complex], vs: Sequence[complex],
               params: Sequence[TwistParams]) -> list[float]:
    """Relative residual of R(u-v) T1(u) T2(v) = T2(v) T1(u) R(u-v) on
    n_sites sites, one per sample of the sweep (us[i], vs[i], params[i]).

    T1 acts on auxiliary factor 0 and T2 on factor 1 of aux1 ⊗ aux2 ⊗ chain;
    both products are grown site by site, and R12 ⊗ 1 multiplies the joint
    4-dim auxiliary index from the left of one and the right of the other.
    The samples are evaluated as stacks (``tensor.sweep``, sized by one
    product per sample), each residual bitwise that of its sample alone.
    """
    if not 1 <= n_sites <= MAX_SITES:
        raise ValueError(f"n_sites must be in 1..{MAX_SITES}")
    rows = 4 * 2 ** n_sites
    return sweep(partial(_rtt_stack, n_sites), rows * rows * 16, us, vs, params)


def _rtt_stack(n_sites: int, us: Sequence[complex], vs: Sequence[complex],
               params: Sequence[TwistParams]) -> list[float]:
    """``verify_rtt`` on one stack: the R stacks built by ``build_r_stack``,
    both monodromy products grown and multiplied by R12 on the stack."""
    if any(u == v for u, v in zip(us, vs)):
        raise ValueError("RTT check requires u != v")
    r12 = build_r_stack([u - v for u, v in zip(us, vs)], params)
    ru, rv = build_r_stack(us, params), build_r_stack(vs, params)
    k, rows = len(r12), 4 * 2 ** n_sites
    t1t2 = _monodromy_product([ru, rv], n_sites)
    t2t1 = _monodromy_product([rv, ru], n_sites, [1, 0])
    lhs = (r12 @ t1t2.reshape(k, 4, -1)).reshape(k, rows, rows)
    rhs = (t2t1.reshape(k, rows, 4, -1).swapaxes(-1, -2)
           @ r12[:, None]).swapaxes(-1, -2).reshape(k, rows, rows)
    return [rel_residual(left, right) for left, right in zip(lhs, rhs)]


def verify_commuting_transfer(n_sites: int, us: Sequence[complex], vs: Sequence[complex],
                              params: Sequence[TwistParams]) -> list[float]:
    """||t(u) t(v) - t(v) t(u)|| / ||t(u) t(v)|| on n_sites sites, one per
    sample of the sweep (us[i], vs[i], params[i]) (``commutator_residuals``).

    The R stacks are built by ``build_r_stack``; the stacks of t(u) and
    t(v) are traced by ``_transfer`` and multiplied on the stack. The
    samples are evaluated as stacks (``tensor.sweep``, sized by one
    2^N-square array per sample), each residual bitwise that of its
    sample's two ``transfer_matrix`` alone.
    """
    if not 1 <= n_sites <= MAX_SITES:
        raise ValueError(f"n_sites must be in 1..{MAX_SITES}")

    def residuals(us, vs, params):
        return commutator_residuals(_transfer(build_r_stack(us, params), n_sites),
                                    _transfer(build_r_stack(vs, params), n_sites))

    return sweep(residuals, 16 * 4 ** n_sites, us, vs, params)


def rtt_components(spec: ChainSpec, u: complex, v: complex) -> list[tuple[str, float]]:
    """All 16 component identities of RTT, derived rather than transcribed.

    Component ((i,j),(m,n)) reads
        sum_kl R_{(ij),(kl)} T(u)_{km} T(v)_{ln}
          = sum_kl T(v)_{jl} T(u)_{ik} R_{(kl),(mn)},
    one matrix identity on the chain space per choice of indices. These are
    the complete set of exchange relations, free of transcription error, and
    complement the displayed-table check in verify_commutation_relations.
    """
    r = build_r(u - v, spec.params).reshape(2, 2, 2, 2)
    # T(w)_{km}, the auxiliary block (k, m), is entry 2k + m of (A, B, C, D)
    # read off the applier on X = I
    tu, tv = (monodromy_blocks_apply(spec, w, np.eye(spec.dim)) for w in (u, v))
    out = []
    for i in range(2):
        for j in range(2):
            for m in range(2):
                for n in range(2):
                    lhs = sum(
                        r[i, j, k, l] * (tu[2 * k + m] @ tv[2 * l + n])
                        for k in range(2)
                        for l in range(2)
                    )
                    rhs = sum(
                        (tv[2 * j + l] @ tu[2 * i + k]) * r[k, l, m, n]
                        for k in range(2)
                        for l in range(2)
                    )
                    out.append((f"rtt[{i}{j},{m}{n}]", rel_residual(lhs, rhs)))
    return out


def relation_env(spec: ChainSpec, u: complex, v: complex) -> dict:
    """Symbol bindings for the exchange-relation grammar at points u, v:
    A..D at each point as members of its monodromy family
    (``monodromy_members``), alpha, beta and xi as numbers."""
    eta = spec.params.eta

    def alpha(x, y):
        return 1 - eta / (x - y)

    def beta(x, y):
        return -eta / (x - y)

    return {
        **monodromy_members(spec, u, "u"), **monodromy_members(spec, v, "v"),
        "alpha(u,v)": alpha(u, v), "alpha(v,u)": alpha(v, u),
        "beta(u,v)": beta(u, v), "beta(v,u)": beta(v, u),
        "xi": spec.params.xi,
    }


def verify_commutation_relations(spec: ChainSpec, u: complex, v: complex) -> list[dict]:
    """Evaluate every displayed exchange relation at one parameter point.

    Returns one record per relation with its transcription, the relative
    residual of the full matrices (A..D read off ``monodromy_blocks_apply``
    and both sides applied to the identity; the table runs at N <= 3), and
    the note attached to lines known to fail everywhere
    (suspected misprints). Degenerate points with alpha(u,v) = 0 are skipped
    with a notice since several lines carry alpha as an overall coefficient.
    """
    if u == v or u == 0 or v == 0:
        raise ValueError("u, v must be nonzero and distinct")
    env = relation_env(spec, u, v)
    out = []
    degenerate = abs(env["alpha(u,v)"]) < 1e-12 or abs(env["alpha(v,u)"]) < 1e-12
    if not degenerate:
        # the whole table and the DB_2 variant over one set of operator words
        texts = [relation.text for relation in rel.CR_RELATIONS] + [rel.DB_2_VARIANT]
        *residuals, variant = rel.relation_residuals(texts, env, np.eye(spec.dim))
    for i, relation in enumerate(rel.CR_RELATIONS):
        record = {
            "rel_id": relation.rel_id,
            "text": relation.text,
            "note": relation.note,
        }
        if degenerate:
            record["skipped"] = "alpha(u,v) ~ 0 at this sample"
            record["residual"] = float("nan")
        else:
            record["residual"] = residuals[i]
            if relation.rel_id == "DB_2":
                record["variant_residual"] = variant
        out.append(record)
    return out


def bond_pairs(spec: ChainSpec) -> list[tuple[int, int]]:
    pairs = [(k, k + 1) for k in range(1, spec.n_sites)]
    if spec.boundary == "periodic":
        pairs.append((spec.n_sites, 1))
    return pairs


def build_hamiltonian(spec: ChainSpec, deformation_doubled: bool = False) -> np.ndarray:
    """Deformed Heisenberg Hamiltonian from the displayed local formula,

        H = sum_n [ sx_n sx_{n+1} + sy_n sy_{n+1} + sz_n sz_{n+1}
                    + xi^2 sm_n sm_{n+1} + xi (sm_n - sm_{n+1}) ],

    periodic boundary wrapping n = N to 1 (where the linear terms telescope
    to zero), open boundary summing n = 1..N-1 (no bond, H = 0, at N = 1).

    deformation_doubled replaces the deformation coefficients by (2 xi^2,
    2 xi). That variant is exactly the density produced by the transfer
    matrix log-derivative (see extract_hamiltonian), while the displayed
    coefficients are not; both are kept so the discrepancy stays visible.
    """
    n = spec.n_sites
    if n < 2 and spec.boundary == "periodic":
        raise ValueError("a periodic chain needs at least 2 sites: the wrap bond "
                         "would join site 1 to itself")
    xi = spec.params.xi
    c2, c1 = (2 * xi**2, 2 * xi) if deformation_doubled else (xi**2, xi)
    dims = [2] * n
    xx, yy, zz, mm = (kron(s, s) for s in (SX, SY, SZ, SM))
    linear = kron(SM, I2) - kron(I2, SM)
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    # term by term, in the order of the displayed sum, so that every entry
    # is accumulated exactly as from the site-embedded products
    for (i, j) in bond_pairs(spec):
        slots = [i - 1, j - 1]
        add_local(h, xx, dims, slots)
        add_local(h, yy, dims, slots)
        add_local(h, zz, dims, slots)
        add_local(h, c2 * mm, dims, slots)
        add_local(h, c1 * linear, dims, slots)
    return h


def _affine_fit(target: np.ndarray, base: np.ndarray) -> tuple[complex, complex, float]:
    """Least-squares fit target ~ a*base + b*I; returns (a, b, relative residual).

    The normal equations are the 2 x 2 Gram system of the Frobenius inner
    products <x, y> = vdot(x, y), with <I, y> = tr y and <I, I> = dim, solved
    in closed form; the residual target - a*base - b*I is formed in place in
    `base`, which the fit consumes.
    """
    dim = base.shape[0]
    bb = np.vdot(base, base).real
    bt = np.vdot(base, target)
    tr_b, tr_t = np.trace(base), np.trace(target)
    det = dim * bb - abs(tr_b) ** 2
    a = complex((dim * bt - tr_b.conjugate() * tr_t) / det)
    b = complex((bb * tr_t - tr_b * bt) / det)
    res = base
    res *= -a
    res += target
    res.flat[::dim + 1] -= b
    return a, b, float(frobenius(res) / frobenius(target))


def _scaled_permutation(m: np.ndarray) -> tuple[complex, np.ndarray] | None:
    """(c, cols) when every row i of m has exactly one nonzero, m[i, cols[i]]
    = c, the same c != 0 in every row, in distinct columns; None otherwise.

    The test is bitwise. On a square m it says m == c * Pi entry by entry
    for a permutation matrix Pi; on a band of rows, that the band is one of
    such a matrix.
    """
    rows, cols = np.nonzero(m)
    if not (np.array_equal(rows, np.arange(m.shape[0]))
            and np.unique(cols).size == cols.size):
        return None
    values = m[rows, cols]
    if not np.all(values == values[0]):
        return None
    return values[0], cols


def _solve_t0(bands: Iterable[tuple[np.ndarray, np.ndarray]], dim: int) -> np.ndarray:
    """t0^{-1} t1 for t0 a scaled permutation c Pi, read off with no
    factorization from (t0, t1) row bands given in order.

    The polynomial transfer matrix at u = 0 is tbar(0) = (-eta)^N U with U
    the cyclic shift, bitwise. Each band of t0 is checked on its own
    (``_scaled_permutation``), against the c of the first band and the
    columns of the bands before it, and its t1 rows go straight to their
    rows of the solution, c x[cols[i]] = t1[i]; t0 is never held whole. Any
    other t0 raises ExtractionError.
    """
    x = np.empty((dim, dim), dtype=complex)
    taken = np.zeros(dim, dtype=bool)
    c = None
    for t0, t1 in bands:
        scaled = _scaled_permutation(t0)
        if scaled is None or (c is not None and scaled[0] != c) or taken[scaled[1]].any():
            raise ExtractionError("t(0) is not a scaled permutation (singular or unexpected)")
        c, cols = scaled
        taken[cols] = True
        x[cols] = t1 / c
    return x


def log_derivative(spec: ChainSpec, derivative: str = "poly") -> np.ndarray:
    """Log-derivative Hamiltonian t(0)^{-1} t'(0) from the polynomial form.

    The derivative is taken from the exact polynomial coefficients by
    default; derivative="fd" uses central differences with step 1e-5 on the
    polynomial transfer matrix as a cross-check. Both routes stream t(0)
    and t'(0) band by band (``_stream_trace``) into the exact inverse of the
    scaled cyclic shift (``_solve_t0``), so neither is ever held whole.
    """
    if spec.boundary != "periodic":
        raise ValueError("extraction requires periodic boundary")
    if spec.n_sites < 2:
        raise ValueError("need at least 2 sites")
    n = spec.n_sites
    if derivative == "poly":
        const, lin = _poly_factors(spec)
        carried = _poly_carry(const, lin, [np.eye(2, dtype=complex)], range(1, n - 1), _grow_at)
        const_t, lin_t = _site_op(const), _site_op(lin)

        def traced(rows, a):
            # site N-1 carried on this part (at N = 2 no c1 is carried
            # yet); then t(0) is tr const_{a,N} c0 and t'(0) is
            # tr [const_{a,N} c1 + lin_{a,N} c0]
            c0, c1 = _poly_carry(const, lin, (_aux_block(c, rows, a) for c in carried),
                                 (n - 1,), _grow_at)
            return [[(const_t, c0)], [(const_t, c1), (lin_t, c0)]]

        bands = (pair for _, pair in _stream_trace(n, traced))
    elif derivative == "fd":
        # the bands of t(step), t(-step) and t(0) are streamed side by side:
        # each t(-step) band is subtracted in place from its t(step) band
        step = 1e-5
        plus, minus, zero = (_stream_trace(n, _transfer_terms(polynomial_l(p, spec.params), n))
                             for p in (step, -step, 0.0))

        def central_differences():
            for (_, (t1,)), (_, (t1_minus,)), (_, (t0,)) in zip(plus, minus, zero):
                t1 -= t1_minus
                t1 /= 2 * step
                yield t0, t1

        bands = central_differences()
    else:
        raise ValueError(f"unknown derivative method {derivative!r}")
    return _solve_t0(bands, spec.dim)


def extract_hamiltonian(spec: ChainSpec, h_formula: np.ndarray) -> HamiltonianPair:
    """The exact log-derivative Hamiltonian (``log_derivative``), affinely
    fitted to the displayed local formula `h_formula` (H(xi) of
    ``build_hamiltonian``, built by the caller) and to its doubled-coefficient
    variant; both fits are reported. The doubled variant is built for its
    fit alone, which forms its residual in it.
    """
    h_ext = log_derivative(spec)
    # the fit consumes its base: the formula's residual is formed in a copy,
    # the doubled variant's in the variant itself
    a, b, res = _affine_fit(h_ext, h_formula.copy())
    a2, b2, res2 = _affine_fit(h_ext, build_hamiltonian(spec, deformation_doubled=True))
    return HamiltonianPair(
        h_formula=h_formula, h_extracted=h_ext,
        scale=a, shift=b, fit_residual=res,
        scale_doubled=a2, shift_doubled=b2, fit_residual_doubled=res2,
    )


@lru_cache(maxsize=None)
def _in_or_above_blocks(n_sites: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Index pairs of the entries in or above the total-sz diagonal blocks,
    one per sector p: the states with p down spins (rows, as a column) and
    those with p or more (columns).

    The grading permutes rows and columns alike, so the entries in or above
    the diagonal blocks are those whose row has no more down spins than
    their column, in any basis order.
    """
    popcount = np.bitwise_count(np.arange(2 ** n_sites))
    pairs = tuple((np.flatnonzero(popcount == p)[:, None], np.flatnonzero(popcount >= p))
                  for p in range(n_sites + 1))
    # the cache hands these arrays to every caller
    for rows, cols in pairs:
        rows.flags.writeable = cols.flags.writeable = False
    return pairs


def _lowering_certificate(m: np.ndarray, n_sites: int, m_0: np.ndarray | None = None) -> float:
    """Largest |entry| of m, or of m - m_0, in or above the total-sz diagonal
    blocks, NaN when any of those entries is NaN. The entries are gathered
    sector by sector (``_in_or_above_blocks``), so neither the full
    difference nor a full mask is formed."""
    sector_max = []
    for rows, cols in _in_or_above_blocks(n_sites):
        upper = np.asarray(m[rows, cols], dtype=complex)
        if m_0 is not None:
            upper -= m_0[rows, cols]
        # hypot is the scalar complex abs to the bit; np.abs on complex
        # arrays takes a vectorised route that can differ in the last place
        sector_max.append(np.hypot(upper.real, upper.imag).max())
    # np.max keeps a NaN wherever it stands; max() drops one that comes second
    return float(np.max(sector_max))


def strictly_lowering_residual(m: np.ndarray, n_sites: int) -> float:
    """Largest |entry| of m in or above the total-sz diagonal blocks, NaN
    when any of them is NaN.

    Zero means m strictly lowers total sz (block sub-triangular in the
    graded basis ordering).
    """
    return _lowering_certificate(np.asarray(m), n_sites)


@lru_cache(maxsize=None)
def _momentum_basis(n_sites: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbit basis of the sector with p down spins under the cyclic shift.

    Returns (V, labels). V is unitary; its rows follow the sector's states
    (down spins are set bits) in ascending binary order and its columns are

        |r, k> = R^{-1/2} sum_{j < R} exp(2 pi i k j / N) S^j |r>,

    one for each orbit representative r (the smallest state of its orbit),
    of period R, and each momentum k with k R = 0 mod N, grouped by k;
    labels[c] is the momentum of column c. S moves every site label
    cyclically by one, so each column is an eigenvector of S and a matrix
    that commutes with S is block diagonal in this basis (Sandvik,
    arXiv:1101.3281, section 4).
    """
    idx = np.arange(2 ** n_sites)
    states = idx[np.bitwise_count(idx) == p]
    # images[j] is S^j applied to every state of the sector
    images = [states]
    for _ in range(n_sites - 1):
        s = images[-1]
        images.append(((s << 1) | (s >> (n_sites - 1))) & (2 ** n_sites - 1))
    images = np.array(images)
    columns = []
    for col, r in enumerate(states):
        if r != images[:, col].min():
            continue
        returns = np.flatnonzero(images[1:, col] == r)
        period = int(returns[0]) + 1 if returns.size else n_sites
        rows = np.searchsorted(states, images[:period, col])
        for k in range(0, n_sites, n_sites // period):
            phase = np.exp(2j * np.pi * (k * np.arange(period) % n_sites) / n_sites)
            columns.append((k, rows, phase / np.sqrt(period)))
    columns.sort(key=lambda c: c[0])
    v = np.zeros((len(states), len(states)), dtype=complex)
    for c, (_, rows, values) in enumerate(columns):
        v[rows, c] = values
    labels = np.array([k for k, _, _ in columns])
    # the cache hands these arrays to every caller
    v.flags.writeable = labels.flags.writeable = False
    return v, labels


def _sector_eigenvalues(block: np.ndarray, n_sites: int, p: int) -> list[np.ndarray]:
    """Eigenvalues of the sector block with p down spins, one array per
    momentum block when the split is certified, one array otherwise.

    The block is rotated into ``_momentum_basis`` and its momentum blocks
    are solved with ``eigvals``. The split is accepted only if the mass
    outside them is at most MOMENTUM_TOL ||block||_F; a block that
    does not commute with the cyclic shift (an open chain) is solved whole.
    """
    v, labels = _momentum_basis(n_sites, p)
    w = v.conj().T @ block @ v
    same = labels[:, None] == labels[None, :]
    if frobenius(w[~same]) > MOMENTUM_TOL * frobenius(block):
        return [np.linalg.eigvals(block)]
    return [np.linalg.eigvals(w[np.ix_(labels == k, labels == k)])
            for k in np.unique(labels)]


def graded_eigenvalues(m: np.ndarray, n_sites: int) -> np.ndarray | None:
    """Eigenvalues via the total-sz block structure, when it is exact.

    If every entry strictly above the diagonal blocks of the graded ordering
    vanishes exactly (true in floating point for the transfer matrices and
    Hamiltonians here: the deformation only ever lowers total sz), the
    spectrum is exactly the union of the diagonal-block spectra, which
    sidesteps the accuracy loss of dense eigensolvers on the defective full
    matrix. Each diagonal block is split further by momentum when it
    commutes with the cyclic shift (``_sector_eigenvalues``). Returns None
    when the structure is not exact, so callers can fall back to a dense
    computation.
    """
    blocks = _in_or_above_blocks(n_sites)
    # the entries strictly above sector p's block: its rows, sector p + 1's columns
    if any(m[rows, above].any() for (rows, _), (_, above) in zip(blocks, blocks[1:])):
        return None
    evs = []
    for p, (rows, _) in enumerate(blocks):
        # the sector's states in ascending binary order, the row order of
        # _momentum_basis, gathered from m directly: m is never copied whole
        evs.extend(_sector_eigenvalues(m[rows, rows.T], n_sites, p))
    ev = np.concatenate(evs)
    return ev[np.lexsort((ev.imag, ev.real))]


def spectrum_of(m: np.ndarray, n_sites: int) -> tuple[np.ndarray, str]:
    """Eigenvalue multiset plus the route used ('graded' or 'dense')."""
    ev = graded_eigenvalues(m, n_sites)
    if ev is not None:
        return ev, "graded"
    return eigenvalues(m), "dense"


def spectrum_pair(m_xi: np.ndarray, m_0: np.ndarray,
                  n_sites: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalue multisets of a deformed matrix and of its undeformed
    reference, and the certificate ``strictly_lowering_residual(m_xi - m_0)``.

    The reference is solved first (``spectrum_of``). If it is block lower
    triangular in the graded basis and m_xi - m_0 strictly lowers total sz
    exactly (``strictly_lowering_residual`` reads 0.0), every graded sector
    block of m_xi is bitwise that of m_0, and so is every entry above them:
    m_xi's spectrum is m_0's, returned as the same array without a second
    solve. Otherwise m_xi is solved on its own (``spectrum_of``), so a
    deformation that touches a sector block still shows; so is a NaN
    certificate. The certificate is returned either way, so a caller that
    reports it computes it only here. The difference is gathered sector by
    sector on the entries in or above the blocks, never formed whole.
    """
    ev_0, route_0 = spectrum_of(m_0, n_sites)
    lowering = _lowering_certificate(m_xi, n_sites, m_0)
    if route_0 == "graded" and lowering == 0.0:
        return ev_0, ev_0, lowering
    return spectrum_of(m_xi, n_sites)[0], ev_0, lowering


def transfer_spectrum_coincidence(spec: ChainSpec, u_samples: list[complex],
                                  tol: float) -> list[tuple[complex, SpectrumReport]]:
    """Match the spectrum of t_xi(u) against that of t_0(u) within `tol`,
    for each sampled u.

    The twist terms strictly lower total sz, so both matrices are block
    triangular in the graded basis with the same diagonal blocks: the
    undeformed spectrum is computed blockwise (exact, see graded_eigenvalues)
    and certified for the deformed matrix (``spectrum_pair``), making the
    coincidence exact rather than perturbative; a pair that fails the
    certificate is solved on both sides. The Hamiltonians are paired the
    same way by ``spectrum_pair`` on (H(xi), H(0)).
    """
    if spec.boundary != "periodic":
        raise ValueError("spectrum coincidence is a periodic-chain statement")
    spec0 = ChainSpec(spec.n_sites, TwistParams(0.0, spec.params.eta), spec.boundary)
    t_reports = []
    for u in u_samples:
        ev_xi, ev_0, _ = spectrum_pair(transfer_matrix(spec, u), transfer_matrix(spec0, u),
                                       spec.n_sites)
        t_reports.append((u, match_spectra(ev_xi, ev_0, tol)))
    return t_reports
