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
transcription slips on either side. Each displayed matrix is transcribed
once, as a table of indices into the row (0, 1, -xi, xi, xi^2) of a
sample (``_F12_ENTRIES``, ``_R_XI_ENTRIES``), so one gather builds it for
one sample or a stack of them. The Yang-Baxter check embeds R12, R13 and
R23 into C^2 ⊗ C^2 ⊗ C^2 with ``tensor.lift``. Both checks are sweeps
driven by ``tensor.sweep``: they take sequences of samples and evaluate
them as chunked stacks over a leading sample axis, each residual bitwise
that of its sample evaluated alone. Every R(u) of the package, one or a
stack, is built by ``build_r_stack``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .tensor import frobenius, lift, permutation_op, rel_residual, sweep
from .twist import TwistParams, make_spin_rep, universal_twist

_P = permutation_op()
# the displayed entries of F12 and R_xi, each an index into (0, 1, -xi, xi, xi^2)
_F12_ENTRIES = np.array([[1, 0, 0, 0],
                         [3, 1, 0, 0],
                         [0, 0, 1, 0],
                         [0, 0, 2, 1]])
_R_XI_ENTRIES = np.array([[1, 0, 0, 0],
                          [2, 1, 0, 0],
                          [3, 0, 1, 0],
                          [4, 2, 3, 1]])


def _xi_rows(xis: Iterable[complex]) -> np.ndarray:
    """The rows (0, 1, -xi, xi, xi^2) that the entry tables index, one per
    xi, as a (K, 5) stack. -xi and xi^2 are taken in Python, as a displayed
    literal takes them (-xi in numpy would turn the +0 imaginary part of a
    real xi into -0)."""
    return np.array([(0, 1, -xi, xi, xi**2) for xi in xis], dtype=complex).reshape(-1, 5)


def _eta_over_u(us: Sequence[complex], params: Sequence[TwistParams]) -> np.ndarray:
    """eta/u of each sample, taken in Python, as a (K, 1, 1) stack. Rejects
    the pole u = 0 in any sample."""
    if len(us) != len(params):
        raise ValueError("a stack takes as many u as params")
    if 0 in us:
        raise ValueError("R(u) has a pole at u = 0; use the polynomial form instead")
    return np.array([p.eta / u for u, p in zip(us, params)], dtype=complex).reshape(-1, 1, 1)


def build_f12(xi: complex) -> np.ndarray:
    """Fundamental twist matrix, unit lower triangular in the product basis."""
    return _xi_rows([xi])[0, _F12_ENTRIES]


def build_r_xi(xi: complex) -> np.ndarray:
    """Constant twisted R-matrix (displayed-entry route)."""
    return _xi_rows([xi])[0, _R_XI_ENTRIES]


def build_r(u: complex, params: TwistParams) -> np.ndarray:
    """Spectral R-matrix R(u) = R_xi - (eta/u) P. Rejects the pole u = 0."""
    return build_r_stack([u], [params])[0]


def build_r_stack(us: Sequence[complex], params: Sequence[TwistParams]) -> np.ndarray:
    """R(us[i]) at params[i] for each sample, as a (K, 4, 4) stack: the
    gathered R_xi less eta/u times P, exact entry by entry against P's 0/1
    entries. Rejects the pole u = 0 in any sample."""
    c = _eta_over_u(us, params)
    return _xi_rows(p.xi for p in params)[:, _R_XI_ENTRIES] - c * _P


def polynomial_l(u: complex, params: TwistParams) -> np.ndarray:
    """Polynomial local operator Lbar(u) = u R_xi - eta P (regular at u = 0)."""
    return u * build_r_xi(params.xi) - params.eta * _P


def verify_ybe(us: Sequence[complex], vs: Sequence[complex],
               params: Sequence[TwistParams]) -> list[float]:
    """Relative Yang-Baxter residual on C^2⊗C^2⊗C^2, one per sample of the
    sweep (us[i], vs[i], params[i]):

    ||R12(u-v) R13(u) R23(v) - R23(v) R13(u) R12(u-v)|| / ||lhs||.

    The samples are evaluated as stacks (``tensor.sweep``, sized by one
    8 x 8 matrix per sample), each residual bitwise that of its sample
    alone.
    """
    return sweep(_ybe_stack, 8 * 8 * 16, us, vs, params)


def _ybe_stack(us: Sequence[complex], vs: Sequence[complex],
               params: Sequence[TwistParams]) -> list[float]:
    """``verify_ybe`` on one stack: the R stacks built by ``build_r_stack``
    (u - v taken as the sample gives it: as numpy scalars eta / (u - v)
    rounds differently), then lifted and multiplied on the stack."""
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

    The samples are evaluated as stacks (``tensor.sweep``, sized by one
    4 x 4 matrix per sample), each norm bitwise that of its sample alone:
    ``np.linalg.inv`` and ``@`` take each matrix of a stack as they take it
    alone.
    """
    pairs = sweep(_construction_stack, 4 * 4 * 16, us, params)
    return [r_xi for r_xi, _ in pairs], [r_u for _, r_u in pairs]


def _construction_stack(us: Sequence[complex],
                        params: Sequence[TwistParams]) -> list[tuple[float, float]]:
    """``verify_construction`` on one stack: F12 and R_xi gathered from
    their tables, I - (eta/u) P and R(u) formed on the stack; the pair of
    norms of each sample."""
    scaled_p = _eta_over_u(us, params) * _P  # rejects the pole u = 0
    rows = _xi_rows(p.xi for p in params)
    f12, r_xi = rows[:, _F12_ENTRIES], rows[:, _R_XI_ENTRIES]
    f21 = _P @ f12 @ _P
    f12_inv = np.linalg.inv(f12)
    d_xi = r_xi - f21 @ f12_inv
    d_u = (r_xi - scaled_p) - f21 @ (np.eye(4, dtype=complex) - scaled_p) @ f12_inv
    return [(float(frobenius(a)), float(frobenius(b))) for a, b in zip(d_xi, d_u)]


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
