"""Asymptotic scattering data of the monodromy matrix and its algebra.

Expanding T(u) = L_N(u)...L_1(u) in 1/u gives

    T(u) = T_0 + (1/u) T_1 + O(1/u^2),
    T_0  = prod_k R_{a,k}(xi),
    T_1  = -eta sum_k [prod_{j>k} R_{a,j}(xi)] P_{a,k} [prod_{j<k} R_{a,j}(xi)].

Both coefficients are computed exactly as finite products and sums (they
are the top two coefficients of the polynomial monodromy divided by u^N),
never by numerical limiting. Reading T_0 in auxiliary-space blocks,

    T_0 = [[E, 0], [G, E^{-1}]],

defines the generators E (group-like, commutes with t(u); concretely
E = exp(-xi sum_n sm_n), the exponential of the global lowering operator)
and G. Their displayed relations with A, B, C, D live in
``relations.SYMMETRY_RELATIONS``.

Every check at the requested N is matrix-free, on column blocks X that
``probe_block`` gives: X = I while the space has at most PROBE_COLUMNS
states, which gives the Frobenius residual of the full matrices, and a
seeded complex Gaussian block of PROBE_COLUMNS columns above, which gives
an unbiased estimate of its square and detects any failing relation with
probability 1 (see ``relations``). One operator applier serves each family:

* ``t0_apply`` applies the constant factors R_{a,k}(xi) to [[X, 0], [0, X]]
  with ``tensor.apply_local`` and reads E X, G X, E^{-1} X and the
  upper-right block applied to X off one application;
* ``chain.monodromy_blocks_apply`` gives A(u) X .. D(u) X the same way.

``verify_symmetry_relations`` binds E, G, Einv and A..D to these families
and evaluates the whole table over one set of operator words
(``relations.relation_residuals``); ``extract_t0`` reads the zero block
and the inverse pair on a block, and ``order1_transcription_residual``
compares the exact 1/u coefficient with its displayed sum on a block of
aux ⊗ chain. Only the coproducts, at fixed small segment lengths, read
dense blocks (``_constant_blocks``, the applier on the identity):

    E on a split chain:  E_{n1+n2} = E_{n1} ⊗ E_{n2},
    G on a split chain:  G_{n1+n2} = E_{n1} ⊗ G_{n2} + G_{n1} ⊗ E_{n2}^{-1},

i.e. the displayed abstract formulas Delta(E) = E ⊗ E and
Delta(G) = G ⊗ E + E^{-1} ⊗ G hold with the abstract left factor carried by
the second (later-site) segment; both readings are checked and the one that
holds is recorded in the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import relations as rel
from .chain import ChainSpec, _aux_blocks_apply, _poly_carry, monodromy_members
from .rmatrix import build_r_xi
from .tensor import MAX_SITES, apply_local, frobenius, kron, permutation_op, rel_residual
from .twist import TwistParams

# columns of the Gaussian probe block; spaces with at most PROBE_COLUMNS
# states are probed with the identity
PROBE_COLUMNS = 8

# the corollary of EA and ED, evaluated with the displayed table
_ET = rel.Relation("Et", "E*(A(u) + D(u)) = (A(u) + D(u))*E",
                   note="group-like element commutes with the transfer matrix")


@dataclass(frozen=True)
class AsymptoticData:
    """Blocks of the constant term T_0 applied to a column block X, and the
    residuals of its block form on X."""

    e: np.ndarray
    g: np.ndarray
    e_inv: np.ndarray
    zero_block_residual: float
    inverse_pair_residual: float


def t0_apply(spec: ChainSpec, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """E x, U x, G x and E^{-1} x for a chain vector or block x, where
    T_0 = prod_k R_{a,k}(xi) = [[E, U], [G, E^{-1}]] (U = 0).

    One application of the constant site factors to [[x, 0], [0, x]]
    (``chain._aux_blocks_apply``), O(N 2^N) per column; no 2^N-square
    matrix is formed.
    """
    return _aux_blocks_apply(build_r_xi(spec.params.xi), spec.n_sites, x)


def _constant_blocks(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E, G and E^{-1} as matrices: ``t0_apply`` on the identity, bitwise the
    blocks of the grown constant product ``chain._site_product(R_xi, N)``,
    the u^N coefficient of the polynomial monodromy. Read only by the
    coproducts, at fixed small N."""
    e, _, g, e_inv = t0_apply(spec, np.eye(spec.dim))
    return e, g, e_inv


def extract_t0(spec: ChainSpec, x: np.ndarray) -> AsymptoticData:
    """Constant term of T(u) on the column block `x`, with block and
    invertibility checks.

    ``zero_block_residual`` is ||U x||_F and ``inverse_pair_residual`` is
    ||E E^{-1} x - x||_F; with x = I they are the Frobenius norms of U and
    E E^{-1} - I, with a Gaussian ``probe_block`` unbiased estimates of
    their squares.
    """
    e, upper, g, e_inv = t0_apply(spec, x)
    return AsymptoticData(
        e=e, g=g, e_inv=e_inv,
        zero_block_residual=float(frobenius(upper)),
        inverse_pair_residual=float(frobenius(t0_apply(spec, e_inv)[0] - x)),
    )


def probe_block(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, str]:
    """Column block a check is applied to, and its route.

    ``"identity"``: X = I when dim <= PROBE_COLUMNS, so the residual is that
    of the full matrices and nothing is drawn. ``"gaussian"``:
    X = (G_re + i G_im) / sqrt(2K) with K = PROBE_COLUMNS columns of
    independent standard normals drawn from `rng`, so E||M X||_F^2 =
    ||M||_F^2 for every M and the floor of 1 in ``tensor.rel_residual``
    keeps the scale it has at X = I.
    """
    if dim <= PROBE_COLUMNS:
        return np.eye(dim), "identity"
    re = rng.standard_normal((dim, PROBE_COLUMNS))
    im = rng.standard_normal((dim, PROBE_COLUMNS))
    return (re + 1j * im) / np.sqrt(2 * PROBE_COLUMNS), "gaussian"


def _family_env(spec: ChainSpec, u: complex) -> dict:
    """Bindings of the E/G table: E, G and Einv as members of the
    ``t0_apply`` family, A(u)..D(u) of the ``monodromy_blocks_apply`` one
    (``chain.monodromy_members``)."""
    t0 = partial(t0_apply, spec)
    return {"E": rel.Member(t0, 0), "G": rel.Member(t0, 2), "Einv": rel.Member(t0, 3),
            **monodromy_members(spec, u), "xi": spec.params.xi}


def verify_symmetry_relations(spec: ChainSpec, u: complex, x: np.ndarray) -> list[dict]:
    """Evaluate every displayed E/G relation on the column block `x`.

    E, G and Einv are members of the ``t0_apply`` family and A(u)..D(u) of
    the ``monodromy_blocks_apply`` family (``_family_env``); the table and
    the corollary [E, t(u)] = 0 are evaluated over one set of operator
    words (``relations.relation_residuals``), so no 2^N-square matrix is
    formed; ``probe_block`` gives `x`. One record per relation with transcription
    and relative residual. The suite reports a failing relation as a
    failure: it flags a suspected misprint only for lines recorded in
    ``relations.KNOWN_MISPRINTS``, none of which is an E/G relation.
    """
    if u == 0:
        raise ValueError("u = 0 is a pole of the rational monodromy")
    env = _family_env(spec, u)
    table = rel.SYMMETRY_RELATIONS + (_ET,)
    residuals = rel.relation_residuals([relation.text for relation in table], env, x)
    return [{"rel_id": relation.rel_id, "text": relation.text, "residual": residual,
             "note": relation.note}
            for relation, residual in zip(table, residuals)]


def verify_coproducts(n1: int, n2: int, xi: complex, eta: complex) -> dict:
    """Split-chain coproduct check for E and G.

    Builds E, G at (xi, eta) on chains of length n1, n2 and n1+n2 (sites
    1..n1 form the first segment) and evaluates the displayed formulas in
    both tensor-factor orders. Returns the residuals plus which order
    satisfies them.
    """
    if n1 < 1 or n2 < 1 or n1 + n2 > MAX_SITES:
        raise ValueError(f"segment lengths must be >= 1 with n1 + n2 <= {MAX_SITES}")
    params = TwistParams(xi, eta)
    e1, g1, e1_inv = _constant_blocks(ChainSpec(n1, params))
    e2, g2, e2_inv = _constant_blocks(ChainSpec(n2, params))
    en, gn, _ = _constant_blocks(ChainSpec(n1 + n2, params))

    e_res = rel_residual(en, kron(e1, e2))
    # abstract left factor = first segment
    g_first = kron(g1, e2) + kron(e1_inv, g2)
    # abstract left factor = second segment
    g_second = kron(e1, g2) + kron(g1, e2_inv)
    res_first = rel_residual(gn, g_first)
    res_second = rel_residual(gn, g_second)
    return {
        "e_residual": e_res,
        "g_residual": min(res_first, res_second),
        "g_residual_first_segment_left": res_first,
        "g_residual_second_segment_left": res_second,
        "order": "second_segment_left" if res_second <= res_first else "first_segment_left",
    }


def order1_transcription_residual(spec: ChainSpec, x: np.ndarray) -> float:
    """Compare the exact 1/u coefficient against its displayed product form,
    both applied to the block `x` on aux ⊗ chain (2^(N+1) rows).

    The displayed form is sum_k M^>_k P_{a,k} M^<_k with M^> the product of
    constant R factors above site k and M^< the product below (boundary
    products empty); the index bookkeeping in print is ambiguous, so the
    exact expansion is authoritative and this comparison documents the
    reading that matches it. The exact side is the coefficient of u in
    prod_k (R_xi - u eta P)_{a,k} (that of u^{N-1} in Tbar(u)) applied to
    `x`, carried through ``apply_local`` by ``chain._poly_carry``. The
    displayed sum is formed in its own loop, term by term from M^<_k x.
    With x = I this is the relative Frobenius residual of the full
    matrices.
    """
    n = spec.n_sites
    dims = [2] * (n + 1)
    r_c = build_r_xi(spec.params.xi)
    p = permutation_op()

    def at(op, c, k):
        return apply_local(op, c, dims, [0, k])

    exact = _poly_carry(r_c, -spec.params.eta * p, [x], range(1, n + 1), at)[1]
    below, total = x, None
    for k in range(1, n + 1):
        term = at(p, below, k)  # P_{a,k} M^<_k x
        for j in range(k + 1, n + 1):
            term = at(r_c, term, j)
        total = term if total is None else total + term
        below = at(r_c, below, k)
    return rel_residual(exact, -spec.params.eta * total)
