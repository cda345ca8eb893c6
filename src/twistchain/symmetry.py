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
``relations.SYMMETRY_RELATIONS`` and are evaluated here, both sides applied
right to left to one probe block X (``probe_block``): X = I while
2^N <= PROBE_COLUMNS, which gives the Frobenius residual of the full
matrices, and a seeded complex Gaussian block of PROBE_COLUMNS columns
above, which gives an unbiased estimate of its square and detects any
failing relation with probability 1 (see ``relations``). The coproducts are

    E on a split chain:  E_{n1+n2} = E_{n1} ⊗ E_{n2},
    G on a split chain:  G_{n1+n2} = E_{n1} ⊗ G_{n2} + G_{n1} ⊗ E_{n2}^{-1},

i.e. the displayed abstract formulas Delta(E) = E ⊗ E and
Delta(G) = G ⊗ E + E^{-1} ⊗ G hold with the abstract left factor carried by
the second (later-site) segment; both readings are checked and the one that
holds is recorded in the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import relations as rel
from .chain import ChainSpec, _site_product, build_monodromy, monodromy_poly_pair
from .rmatrix import build_r_xi
from .tensor import MAX_SITES, permutation_op, rel_residual
from .twist import TwistParams

# columns of the Gaussian probe block; chains with 2^N <= PROBE_COLUMNS are
# probed with the identity
PROBE_COLUMNS = 8


@dataclass(frozen=True)
class AsymptoticData:
    """Blocks of the constant term T_0 and the residuals of its block form."""

    e: np.ndarray
    g: np.ndarray
    e_inv: np.ndarray
    zero_block_residual: float
    inverse_pair_residual: float


def _constant_blocks(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E, G and E^{-1}, the blocks of T_0 = prod_k R_{a,k}(xi).

    The product is grown site by site from the constant R-matrix alone:
    bitwise the u^N coefficient of ``monodromy_poly_pair(spec, "high")``,
    without carrying the 1/u coefficient.
    """
    d = spec.dim
    t0 = _site_product([build_r_xi(spec.params.xi)] * spec.n_sites)
    return t0[:d, :d], t0[d:, :d], t0[d:, d:]


def extract_t0(spec: ChainSpec) -> AsymptoticData:
    """Constant term of T(u), with block and invertibility checks.

    T_0 is the product that ``_constant_blocks`` reads, here with its
    upper-right block as well.
    """
    d = spec.dim
    t0 = _site_product([build_r_xi(spec.params.xi)] * spec.n_sites)
    e, e_inv = t0[:d, :d], t0[d:, d:]
    return AsymptoticData(
        e=e, g=t0[d:, :d], e_inv=e_inv,
        zero_block_residual=float(np.linalg.norm(t0[:d, d:])),
        inverse_pair_residual=float(np.linalg.norm(e @ e_inv - np.eye(d))),
    )


def probe_block(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, str]:
    """Column block the E/G relations are applied to, and its route.

    ``"identity"``: X = I when dim <= PROBE_COLUMNS, so the relation residual
    is that of the full matrices and nothing is drawn. ``"gaussian"``:
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


def verify_symmetry_relations(spec: ChainSpec, u: complex, x: np.ndarray) -> list[dict]:
    """Evaluate every displayed E/G relation on the column block `x`.

    Both sides are applied to `x` right to left (``relations.evaluate``), so
    no product of two 2^N x 2^N matrices is formed; ``probe_block`` gives
    `x`. One record per relation with transcription and relative residual
    ``relations.relation_residual``, plus the corollary [E, t(u)] = 0 on the
    same block. The suite reports a failing relation as a failure: it flags
    a suspected misprint only for lines recorded in
    ``relations.KNOWN_MISPRINTS``, none of which is an E/G relation.
    """
    if u == 0:
        raise ValueError("u = 0 is a pole of the rational monodromy")
    e, g, e_inv = _constant_blocks(spec)
    blocks = build_monodromy(spec, u)
    env = {
        "E": e, "G": g, "Einv": e_inv,
        "A(u)": blocks.a, "B(u)": blocks.b, "C(u)": blocks.c, "D(u)": blocks.d,
        "xi": spec.params.xi,
    }
    out = []
    for relation in rel.SYMMETRY_RELATIONS:
        out.append({
            "rel_id": relation.rel_id,
            "text": relation.text,
            "residual": rel.relation_residual(relation.text, env, x),
            "note": relation.note,
        })
    t_u = blocks.a + blocks.d
    out.append({
        "rel_id": "Et",
        "text": "E*(A(u) + D(u)) = (A(u) + D(u))*E",
        "residual": rel_residual(e @ (t_u @ x), t_u @ (e @ x)),
        "note": "group-like element commutes with the transfer matrix",
    })
    return out


def verify_coproducts(n1: int, n2: int, xi: complex, eta: complex = 1.0) -> dict:
    """Split-chain coproduct check for E and G.

    Builds E, G on chains of length n1, n2 and n1+n2 (sites 1..n1 form the
    first segment) and evaluates the displayed formulas in both tensor-factor
    orders. Returns the residuals plus which order satisfies them.
    """
    if n1 < 1 or n2 < 1 or n1 + n2 > MAX_SITES:
        raise ValueError(f"segment lengths must be >= 1 with n1 + n2 <= {MAX_SITES}")
    params = TwistParams(xi, eta)
    e1, g1, _ = _constant_blocks(ChainSpec(n1, params))
    e2, g2, _ = _constant_blocks(ChainSpec(n2, params))
    en, gn, _ = _constant_blocks(ChainSpec(n1 + n2, params))

    e_res = rel_residual(en, np.kron(e1, e2))
    # abstract left factor = first segment
    g_first = np.kron(g1, e2) + np.kron(np.linalg.inv(e1), g2)
    # abstract left factor = second segment
    g_second = np.kron(e1, g2) + np.kron(g1, np.linalg.inv(e2))
    res_first = rel_residual(gn, g_first)
    res_second = rel_residual(gn, g_second)
    return {
        "e_residual": e_res,
        "g_residual": min(res_first, res_second),
        "g_residual_first_segment_left": res_first,
        "g_residual_second_segment_left": res_second,
        "order": "second_segment_left" if res_second <= res_first else "first_segment_left",
    }


def order1_transcription_residual(spec: ChainSpec) -> float:
    """Compare the exact 1/u coefficient against its displayed product form.

    The displayed form is sum_k M^>_k P_{a,k} M^<_k with M^> the product of
    constant R factors above site k and M^< the product below (boundary
    products empty); the index bookkeeping in print is ambiguous, so the
    exact polynomial expansion is authoritative and this comparison documents
    the reading that matches it.
    """
    n = spec.n_sites
    r_c = build_r_xi(spec.params.xi)
    p = permutation_op()
    total = np.zeros((2 * spec.dim, 2 * spec.dim), dtype=complex)
    for k in range(1, n + 1):
        # M^>_k P_{a,k} M^<_k, grown site by site from site 1
        total += _site_product([r_c] * (k - 1) + [p] + [r_c] * (n - k))
    exact = monodromy_poly_pair(spec, "high")[1]
    return rel_residual(exact, -spec.params.eta * total)
