"""Fused transfer matrices with higher-spin auxiliary space.

Level l carries auxiliary spin l/2. The level-l fused transfer is built
from l fundamental monodromies at the staggered points

    u, u - eta, ..., u - (l-1) eta,

restricted to the invariant subspace V_l of the l-fold auxiliary product:
R(eta) is proportional to P times the deformed rank-one projector P-(xi),
so T_a(u) T_b(u - eta) preserves the image of P+(xi), and V_l (dimension
l + 1) is the joint image of the adjacent-pair P+(xi). The transfer matrix
is the trace of the restriction,

    t^(l)(u) = tr_{V_l} [ Pi_l T_{a_1}(u) ... T_{a_l}(u - (l-1) eta) ],

with Pi_l = W S_l W^{-1} the twist conjugate of the symmetrizer (exact
construction; any idempotent with image V_l gives the same trace once
invariance holds, which is checked). Levels 0 and 1 (Pi_l = 1) take the
same route. W is the paper's twist on l slots: F12 lifted onto the slot
pairs (``tensor.lift`` for every embedding); each Pi_l is built once.

In this normalization the hierarchy satisfies, exactly,

    t^(l+1)(u) = t^(l)(u) t^(1)(u - l eta) - d(u - l eta) t^(l-1)(u),

with t^(0) = 1 and d(u) = (1 - eta/u)^N. The level-0 coefficient in the
displayed fixed-shift form of the relation corresponds to the recorded
scalar t^(0)(u) = -d(u - eta)/(u - eta)^N at l = 1; for l >= 2 only the
l-dependent shift above closes the recursion (calibrated once at xi = 0,
N = 1, then frozen; see verify_fusion_relation notes). The complementary
rank-one projection of the two-fold product is scalar, the quantum
determinant; it equals d(u - eta) and is exposed for testing.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import permutations

import numpy as np

from .chain import ChainSpec, _monodromy_product, transfer_matrix, vacuum_d
from .rmatrix import build_f12, build_r, spectral_projectors
from .tensor import frobenius, lift, rel_residual

MAX_LEVEL = 3


def _slot_twist(xi: complex, j: int) -> np.ndarray:
    """F_j = prod_{k<j} F12_{kj}(xi) on j slots (1-based pairs), exactly
    1 + xi (sum_{k<j} h_k) ⊗ e_j since e_j^2 = 0; F_j(-xi) is its inverse."""
    f12 = build_f12(xi)
    return reduce(np.matmul, (lift(f12, [2] * j, [k, j - 1]) for k in range(j - 1)))


def multi_twist(xi: complex, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-fold twist W on (C^2)^{⊗level} and its inverse, both exact.

    W_j = (W_{j-1} ⊗ 1) F_j and W_j^{-1} = F_j(-xi) (W_{j-1}^{-1} ⊗ 1), each
    ⊗ 1 a ``lift`` (F_j: ``_slot_twist``). W_2 is F12; W_0 and W_1 are the
    identities of the 0-fold (1 x 1) and 1-fold (2 x 2) products.
    """
    w = np.eye(2 ** min(level, 1), dtype=complex)
    w_inv = w.copy()
    for j in range(2, level + 1):
        dims, earlier = [2] * j, list(range(j - 1))
        w = lift(w, dims, earlier) @ _slot_twist(xi, j)
        w_inv = _slot_twist(-xi, j) @ lift(w_inv, dims, earlier)
    return w, w_inv


def symmetrizer(level: int) -> np.ndarray:
    """Orthogonal projector onto the fully symmetric subspace of (C^2)^{⊗level}:
    the mean of the slot permutations, read off the identity's tensor axes."""
    dim = 2 ** level
    eye = np.eye(dim, dtype=complex).reshape([2] * level + [dim])
    return np.mean([eye.transpose(perm + (level,)).reshape(dim, dim)
                    for perm in permutations(range(level))], axis=0)


@lru_cache(maxsize=1024)
def fused_projector(xi: complex, level: int) -> np.ndarray:
    """Idempotent W S W^{-1} projecting onto the fused auxiliary space.

    Its image is the joint image of the adjacent-pair projectors P+(xi),
    dimension level + 1; being a twist conjugate of the symmetrizer it is
    built from exactly terminating series, so the construction introduces
    no rounding beyond the symmetrizer weights. At level 2 it equals the
    P+(xi) returned by the R-matrix module; at levels 0 and 1 it is the
    identity. Built once per (xi, level) and returned read-only.
    """
    w, w_inv = multi_twist(xi, level)
    projector = w @ symmetrizer(level) @ w_inv
    projector.flags.writeable = False  # the cache hands it to every caller
    return projector


def _staggered_product(spec: ChainSpec, level: int, u: complex) -> np.ndarray:
    """T_{a_1}(u) ... T_{a_level}(u - (level-1) eta) on aux^level ⊗ chain."""
    points = [u - i * spec.params.eta for i in range(level)]
    if 0 in points:
        raise ValueError(f"fusion point u - {points.index(0)} eta = 0 hits the rational pole")
    return _monodromy_product([build_r(p, spec.params) for p in points], spec.n_sites)


def fused_transfer(spec: ChainSpec, level: int, u: complex) -> np.ndarray:
    """Fused transfer matrix with auxiliary spin level/2.

    One route for every level: level 0 gives the chain identity (recorded
    scalar 1), level 1 the fundamental transfer matrix.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in 0..{MAX_LEVEL}")
    aux = 2 ** level
    product = _staggered_product(spec, level, u).reshape(aux, spec.dim, aux, spec.dim)
    projector = fused_projector(spec.params.xi, level)
    return np.einsum("ab,bicj,ca->ij", projector, product, projector)


def fusion_invariance_residual(spec: ChainSpec, level: int, u: complex) -> float:
    """How well the staggered product preserves the fused auxiliary subspace.

    Measures ||(1 - Pi) T...T Pi|| / ||T...T|| with Pi the fused projector
    acting on the auxiliary factors of aux^level ⊗ chain; zero is the fusion
    degeneration at work.
    """
    aux = 2 ** level
    projector = fused_projector(spec.params.xi, level)
    product = _staggered_product(spec, level, u).reshape(aux, spec.dim, aux, spec.dim)
    kept = np.einsum("aicj,cb->aibj", product, projector)
    leak = kept - np.einsum("ac,cibj->aibj", projector, kept)
    return float(frobenius(leak) / frobenius(product))


def quantum_determinant(spec: ChainSpec, u: complex) -> tuple[complex, float]:
    """Rank-one (antisymmetric) projection of T_a(u) T_b(u - eta).

    Returns the scalar and its off-scalar residual; the scalar equals
    d(u - eta) in this normalization.
    """
    _, p_minus = spectral_projectors(spec.params)
    product = _staggered_product(spec, 2, u).reshape(4, spec.dim, 4, spec.dim)
    block = np.einsum("ab,bicj,ca->ij", p_minus, product, p_minus)
    scalar = complex(np.trace(block) / spec.dim)
    off = float(frobenius(block - scalar * np.eye(spec.dim)))
    return scalar, off


def verify_fusion_relation(spec: ChainSpec, level: int, u: complex) -> float:
    """Relative residual of the fusion functional relation at the given level.

        t^(level+1)(u) = t^(level)(u) t^(1)(u - level*eta)
                         - d(u - level*eta) t^(level-1)(u)

    The shift of the fundamental factor grows with the level (calibrated at
    xi = 0, N = 1 and frozen); with the recorded level-0 scalar the level-1
    case is the displayed fixed-shift relation.
    """
    if not 1 <= level <= MAX_LEVEL - 1:
        raise ValueError(f"level must be in 1..{MAX_LEVEL - 1} for the relation")
    eta = spec.params.eta
    lhs = fused_transfer(spec, level + 1, u)
    rhs = (
        fused_transfer(spec, level, u) @ transfer_matrix(spec, u - level * eta)
        - vacuum_d(u - level * eta, spec) * fused_transfer(spec, level - 1, u)
    )
    return rel_residual(lhs, rhs)
