"""The twisted rational R-matrix on C^2 ⊗ C^2 and its structural checks.

Building blocks (xi the twist parameter, eta the spectral scale):

    F12      = [[1,0,0,0],[xi,1,0,0],[0,0,1,0],[0,0,-xi,1]]
    F21      = P F12 P
    R_xi     = F21 F12^{-1} = [[1,0,0,0],[-xi,1,0,0],[xi,0,1,0],[xi^2,-xi,xi,1]]
    R(u)     = R_xi - (eta/u) P          (rational form, pole at u = 0)
    Lbar(u)  = u R_xi - eta P            (polynomial form, Lbar(0) = -eta P)

R_xi and R(u) are built along two independent routes (displayed entries
vs. the twist products F21 F12^{-1} and F21 (1 - (eta/u) P) F12^{-1}) and
cross-validated by ``verify_construction``, which guards against
transcription slips on either side. The Yang-Baxter check embeds R12, R13
and R23 into C^2 ⊗ C^2 ⊗ C^2 with ``tensor.lift``. Both checks are sweeps:
they take sequences of samples and evaluate them as stacks over a leading
sample axis, in chunks of ``tensor.sample_chunks``, each residual bitwise
that of its sample evaluated alone. Every sweep of the package builds its
R(u) samples as one stack with ``build_r_stack``, each matrix bitwise
``build_r`` of its sample.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .tensor import frobenius, lift, permutation_op, rel_residual, sample_chunks
from .twist import TwistParams, make_spin_rep, universal_twist

_P = permutation_op()
# the entries of R_xi as ``build_r_xi`` displays them, each an index into
# (0, 1, -xi, xi, xi^2)
_R_XI_ENTRIES = np.array([[1, 0, 0, 0],
                          [2, 1, 0, 0],
                          [3, 0, 1, 0],
                          [4, 2, 3, 1]])


def build_f12(xi: complex) -> np.ndarray:
    """Fundamental twist matrix, unit lower triangular in the product basis."""
    return np.array(
        [[1, 0, 0, 0],
         [xi, 1, 0, 0],
         [0, 0, 1, 0],
         [0, 0, -xi, 1]],
        dtype=complex,
    )


def build_r_xi(xi: complex) -> np.ndarray:
    """Constant twisted R-matrix (displayed-entry route)."""
    return np.array(
        [[1, 0, 0, 0],
         [-xi, 1, 0, 0],
         [xi, 0, 1, 0],
         [xi**2, -xi, xi, 1]],
        dtype=complex,
    )


def build_r(u: complex, params: TwistParams) -> np.ndarray:
    """Spectral R-matrix R(u) = R_xi - (eta/u) P. Rejects the pole u = 0."""
    if u == 0:
        raise ValueError("R(u) has a pole at u = 0; use the polynomial form instead")
    return build_r_xi(params.xi) - (params.eta / u) * _P


def build_r_stack(us: Sequence[complex], params: Sequence[TwistParams]) -> np.ndarray:
    """R(us[i]) at params[i] for each sample, as a (K, 4, 4) stack, each
    matrix bitwise ``build_r(us[i], params[i])``. Rejects the pole u = 0
    in any sample.

    -xi, xi^2 and eta/u are taken in Python per sample, as ``build_r``
    takes them (-xi in numpy would turn the +0 imaginary part of a real xi
    into -0), then placed by one gather; the product with P's 0/1 entries
    and the difference are exact entry by entry.
    """
    if len(us) != len(params):
        raise ValueError("a stack takes as many u as params")
    values = []
    for u, p in zip(us, params):
        if u == 0:
            raise ValueError("R(u) has a pole at u = 0; use the polynomial form instead")
        values.append((0, 1, -p.xi, p.xi, p.xi**2, p.eta / u))
    values = np.array(values, dtype=complex).reshape(-1, 6)
    return values[:, _R_XI_ENTRIES] - values[:, 5, None, None] * _P


def polynomial_l(u: complex, params: TwistParams) -> np.ndarray:
    """Polynomial local operator Lbar(u) = u R_xi - eta P (regular at u = 0)."""
    return u * build_r_xi(params.xi) - params.eta * _P


def verify_ybe(us: Sequence[complex], vs: Sequence[complex],
               params: Sequence[TwistParams]) -> list[float]:
    """Relative Yang-Baxter residual on C^2⊗C^2⊗C^2, one per sample of the
    sweep (us[i], vs[i], params[i]):

    ||R12(u-v) R13(u) R23(v) - R23(v) R13(u) R12(u-v)|| / ||lhs||.

    The samples are evaluated as stacks (``tensor.sample_chunks``, sized by
    one 8 x 8 matrix per sample), each residual bitwise that of its sample
    alone.
    """
    if not len(us) == len(vs) == len(params):
        raise ValueError("a sweep takes as many u as v and params")
    return [res for chunk in sample_chunks(len(us), 8 * 8 * 16)
            for res in _ybe_stack(us[chunk], vs[chunk], params[chunk])]


def _ybe_stack(us: Sequence[complex], vs: Sequence[complex],
               params: Sequence[TwistParams]) -> list[float]:
    """``verify_ybe`` on one stack: the R stacks built by ``build_r_stack``
    (u - v taken as the sample gives it: as numpy scalars eta / (u - v)
    rounds differently), then lifted and multiplied on the stack. One call
    per chunk, so that a chunk's arrays are freed before the next chunk's
    are built."""
    dims = [2, 2, 2]
    r12 = lift(build_r_stack([u - v for u, v in zip(us, vs)], params), dims, [0, 1])
    r13 = lift(build_r_stack(us, params), dims, [0, 2])
    r23 = lift(build_r_stack(vs, params), dims, [1, 2])
    lhs = r12 @ r13 @ r23
    diff = lhs - r23 @ r13 @ r12
    return [float(frobenius(d) / frobenius(left)) for d, left in zip(diff, lhs)]


def verify_construction(us: Sequence[complex],
                        params: Sequence[TwistParams]) -> tuple[list[float], list[float]]:
    """Entry norms of the two construction cross-checks, one per sample of
    the sweep (us[i], params[i]): the displayed R_xi against the twist
    product F21 F12^{-1} (F21 = P F12 P), and R(u) against F21 (I - (eta/u)
    P) F12^{-1}.

    F12, R_xi, R(u) and I - (eta/u) P are built per sample; F21, the
    inverse and the products are formed on stacks of samples
    (``tensor.sample_chunks``, sized by one 4 x 4 matrix per sample), each
    norm bitwise that of its sample alone: ``np.linalg.inv`` and ``@`` take
    each matrix of a stack as they take it alone.
    """
    if len(us) != len(params):
        raise ValueError("a sweep takes as many u as params")
    r_xi_res, r_u_res = [], []
    for chunk in sample_chunks(len(us), 4 * 4 * 16):
        r_xi, r_u = _construction_stack(us[chunk], params[chunk])
        r_xi_res.extend(r_xi)
        r_u_res.extend(r_u)
    return r_xi_res, r_u_res


def _construction_stack(us: Sequence[complex],
                        params: Sequence[TwistParams]) -> tuple[list[float], list[float]]:
    """``verify_construction`` on one stack of samples, one call per
    chunk as ``_ybe_stack``."""
    r_u = build_r_stack(us, params)  # rejects the pole u = 0
    f12, inner, r_xi = [], [], []
    for u, p in zip(us, params):
        f12.append(build_f12(p.xi))
        inner.append(np.eye(4, dtype=complex) - (p.eta / u) * _P)
        r_xi.append(build_r_xi(p.xi))
    f12 = np.array(f12)
    f21 = _P @ f12 @ _P
    f12_inv = np.linalg.inv(f12)
    r_xi = np.array(r_xi) - f21 @ f12_inv
    r_u = r_u - f21 @ np.array(inner) @ f12_inv
    return [float(frobenius(d)) for d in r_xi], [float(frobenius(d)) for d in r_u]


def verify_regularity(params: TwistParams) -> float:
    """Residual of Lbar(0) = -eta P, i.e. the normalized R(0) equals P."""
    l0 = polynomial_l(0.0, params)
    return float(frobenius(l0 / (-params.eta) - _P))


def spectral_projectors(params: TwistParams) -> tuple[np.ndarray, np.ndarray]:
    """Deformed projector pair P±(xi) = F12 P±(0) F12^{-1}.

    Satisfies P+ + P- = I, P±^2 = P±, P+P- = 0 and
    P R_xi = F12 P F12^{-1} = P+(xi) - P-(xi).
    """
    f12 = build_f12(params.xi)
    f12_inv = np.linalg.inv(f12)
    p_plus = f12 @ ((np.eye(4) + _P) / 2) @ f12_inv
    p_minus = f12 @ ((np.eye(4) - _P) / 2) @ f12_inv
    return p_plus, p_minus


def measure_unitarity(u: complex, params: TwistParams) -> tuple[float, complex]:
    """Measure whether R12(u) R21(-u) is scalar; returns (off-scalar residual, scalar).

    Not asserted anywhere, only reported: empirically the product equals
    (1 - eta^2/u^2) I for every xi, exactly as in the undeformed case.
    """
    r12 = build_r(u, params)
    r21 = _P @ build_r(-u, params) @ _P
    prod = r12 @ r21
    scalar = complex(np.trace(prod) / 4.0)
    off = rel_residual(prod, scalar * np.eye(4))
    return off, scalar


def fundamental_twist_matches_universal(xi: complex) -> float:
    """Entry norm of F12 minus the universal twist at spin (1/2, 1/2)."""
    half = make_spin_rep(0.5)
    return float(frobenius(universal_twist(half, half, xi) - build_f12(xi)))
