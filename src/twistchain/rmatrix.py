"""The twisted rational R-matrix on C^2 ⊗ C^2 and its structural checks.

Building blocks (xi the twist parameter, eta the spectral scale):

    F12      = [[1,0,0,0],[xi,1,0,0],[0,0,1,0],[0,0,-xi,1]]
    F21      = P F12 P
    R_xi     = F21 F12^{-1} = [[1,0,0,0],[-xi,1,0,0],[xi,0,1,0],[xi^2,-xi,xi,1]]
    R(u)     = R_xi - (eta/u) P          (rational form, pole at u = 0)
    Lbar(u)  = u R_xi - eta P            (polynomial form, Lbar(0) = -eta P)

Every constant matrix is built along two independent routes (displayed
entries vs. algebraic product) and cross-validated, which guards against
transcription slips on either side. The Yang-Baxter check embeds R12, R13
and R23 into C^2 ⊗ C^2 ⊗ C^2 with ``tensor.lift``.
"""

from __future__ import annotations

import numpy as np

from .tensor import lift, permutation_op, rel_residual
from .twist import TwistParams, make_spin_rep, universal_twist

_P = permutation_op()


def build_f12(xi: complex) -> np.ndarray:
    """Fundamental twist matrix, unit lower triangular in the product basis."""
    return np.array(
        [[1, 0, 0, 0],
         [xi, 1, 0, 0],
         [0, 0, 1, 0],
         [0, 0, -xi, 1]],
        dtype=complex,
    )


def build_f21(xi: complex) -> np.ndarray:
    """P F12 P, the twist with tensor factors swapped."""
    return _P @ build_f12(xi) @ _P


def build_r_xi(xi: complex) -> np.ndarray:
    """Constant twisted R-matrix (displayed-entry route)."""
    return np.array(
        [[1, 0, 0, 0],
         [-xi, 1, 0, 0],
         [xi, 0, 1, 0],
         [xi**2, -xi, xi, 1]],
        dtype=complex,
    )


def r_xi_from_twist(xi: complex) -> np.ndarray:
    """Constant twisted R-matrix via the product route F21 F12^{-1}."""
    return build_f21(xi) @ np.linalg.inv(build_f12(xi))


def build_r(u: complex, params: TwistParams) -> np.ndarray:
    """Spectral R-matrix R(u) = R_xi - (eta/u) P. Rejects the pole u = 0."""
    if u == 0:
        raise ValueError("R(u) has a pole at u = 0; use the polynomial form instead")
    return build_r_xi(params.xi) - (params.eta / u) * _P


def build_r_conjugated(u: complex, params: TwistParams) -> np.ndarray:
    """Second route for R(u): F21 (I - (eta/u) P) F12^{-1}."""
    if u == 0:
        raise ValueError("R(u) has a pole at u = 0")
    f12 = build_f12(params.xi)
    inner = np.eye(4, dtype=complex) - (params.eta / u) * _P
    return build_f21(params.xi) @ inner @ np.linalg.inv(f12)


def polynomial_l(u: complex, params: TwistParams) -> np.ndarray:
    """Polynomial local operator Lbar(u) = u R_xi - eta P (regular at u = 0)."""
    return u * build_r_xi(params.xi) - params.eta * _P


def verify_ybe(u: complex, v: complex, params: TwistParams) -> float:
    """Relative Yang-Baxter residual on C^2⊗C^2⊗C^2.

    ||R12(u-v) R13(u) R23(v) - R23(v) R13(u) R12(u-v)|| / ||lhs||.
    """
    for w in (u, v, u - v):
        if w == 0:
            raise ValueError("pole argument in YBE check")
    dims = [2, 2, 2]
    r12 = lift(build_r(u - v, params), dims, [0, 1])
    r13 = lift(build_r(u, params), dims, [0, 2])
    r23 = lift(build_r(v, params), dims, [1, 2])
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))


def verify_regularity(params: TwistParams) -> float:
    """Residual of Lbar(0) = -eta P, i.e. the normalized R(0) equals P."""
    l0 = polynomial_l(0.0, params)
    return float(np.linalg.norm(l0 / (-params.eta) - _P))


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
    return float(np.linalg.norm(universal_twist(half, half, xi) - build_f12(xi)))
