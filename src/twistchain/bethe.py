"""Bethe equations, transfer-matrix eigenvalues, and the TQ relation.

The equations are identical to the undeformed chain,

    ((v_j - eta)/v_j)^N = prod_{k != j} (v_k - v_j + eta)/(v_k - v_j - eta),

solved here in logarithmic form with damped Newton iteration. The
transfer-matrix eigenvalue on a root set {v_j} is

    Lambda(u) = prod_j alpha(u, v_j) + d(u) prod_j alpha(v_j, u),
    alpha(u, v) = 1 - eta/(u - v),     d(u) = (1 - eta/u)^N,

equivalently Lambda(u) Q(u) = Q(u - eta) + d(u) Q(u + eta) with
Q(u) = prod_j (u - v_j) (the Baxter difference equation).

One-magnon states C(v) Omega are genuine eigenvectors whenever
(alpha(v))^N = 1, deformed or not; the closed-form roots are
v = eta/(1 - w) over the N-th roots of unity w != 1. For two or more
magnons the eigenvalues still coincide with the undeformed ones but the
product states C(v_1)...C(v_M) Omega stop being eigenvectors once xi != 0;
that failure is probed numerically, not repaired.

The one-magnon checks are sweeps over sampled points, on shell
(``one_magnon_defects``) and off shell (``verify_one_magnon_action``),
driven by ``tensor.sweep``: each chunk of samples takes its R stacks from
``build_r_stack``, C(v) Omega and t(u) C(v) Omega formed by one stacked
application per site (``chain._factors_apply``,
``chain._aux_blocks_apply``), each residual bitwise that of its sample
alone. Every state C(v_1)...C(v_M) Omega goes through the same lowering
step (``_lowered``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .chain import (
    ChainSpec,
    _aux_blocks_apply,
    _factors_apply,
    transfer_apply,
    vacuum_d,
    vacuum_state,
)
from .rmatrix import build_r, build_r_stack
from .tensor import frobenius, sweep

MAX_ROOT_MAGNITUDE = 1e8  # beyond this a root is treated as escaped to infinity
NEWTON_MAX_ITER = 200  # Newton steps per attempt of solve_bethe
NEWTON_TOL = 1e-12  # largest |defect| at which solve_bethe accepts a root set
POLE_PROBE_RADIUS = 1e-4  # circle radius of lambda_pole_residue


class BetheSolverError(RuntimeError):
    """Nonconvergence or root collision; carries the final iterate."""

    def __init__(self, message: str, iterate=None):
        super().__init__(message)
        self.iterate = iterate


@dataclass(frozen=True)
class BetheState:
    """Converged root set for an M-magnon sector."""

    n_sites: int
    magnons: int
    roots: tuple[complex, ...]
    residual: float
    eta: complex

    def __post_init__(self):
        if not 0 <= self.magnons <= self.n_sites:
            raise ValueError("magnon number out of range")
        if len(self.roots) != self.magnons:
            raise ValueError("root count must equal magnon number")


def log_defects(roots, n_sites: int, eta: complex) -> list[float]:
    """Per-root absolute defect of the logarithmic Bethe equations.

    Each defect is minimized over the integer branch, i.e. the distance of
    N log((v_j - eta)/v_j) - sum_k' log((v_k - v_j + eta)/(v_k - v_j - eta))
    to the nearest point of 2 pi i Z.
    """
    roots = [complex(v) for v in roots]
    eta = complex(eta)
    for j, vj in enumerate(roots):
        if vj == 0 or vj == eta:
            raise ValueError(f"root {vj} sits on a pole of the equations")
        for k, vk in enumerate(roots):
            if k != j and (vk - vj == eta or vk - vj == -eta):
                raise ValueError("root pair at distance eta (pole configuration)")
    return np.abs(_defect_vector(roots, n_sites, eta)).tolist()


def one_magnon_roots(n_sites: int, eta: complex) -> list[complex]:
    """Closed-form one-magnon roots v = eta/(1 - w), w^N = 1, w != 1."""
    return [eta / (1 - np.exp(2j * np.pi * k / n_sites)) for k in range(1, n_sites)]


def two_magnon_seeds(n_sites: int, eta: complex) -> list[list[complex]]:
    """Seed pairs: distinct one-magnon roots, plus string-like perturbations."""
    singles = one_magnon_roots(n_sites, eta)
    seeds = []
    for a in range(len(singles)):
        for b in range(a + 1, len(singles)):
            seeds.append([singles[a] * 1.05 + 0.017, singles[b] * 0.95 - 0.013])
    center = eta / 2
    for gap in (0.3, 0.5, 0.9):
        seeds.append([center + 1j * gap * eta, center - 1j * gap * eta])
    return seeds


def _defect_vector(v: np.ndarray, n_sites: int, eta: complex) -> np.ndarray:
    """The logarithmic Bethe equations at the roots v, each on the branch
    nearest to 0 (``log_defects`` without its pole checks)."""
    v = np.asarray(v, dtype=complex)
    eta = complex(eta)
    m = len(v)
    out = np.zeros(m, dtype=complex)
    for j in range(m):
        w = n_sites * np.log((v[j] - eta) / v[j])
        for k in range(m):
            if k != j:
                w -= np.log((v[k] - v[j] + eta) / (v[k] - v[j] - eta))
        out[j] = w - 2j * np.pi * np.round(w.imag / (2 * np.pi))
    return out


def _jacobian(v: np.ndarray, n_sites: int, eta: complex) -> np.ndarray:
    m = len(v)
    jac = np.zeros((m, m), dtype=complex)
    for j in range(m):
        jac[j, j] = n_sites * eta / (v[j] * (v[j] - eta))
        for k in range(m):
            if k != j:
                pair = 1 / (v[k] - v[j] + eta) - 1 / (v[k] - v[j] - eta)
                jac[j, j] += pair
                jac[j, k] = -pair
    return jac


def solve_bethe(n_sites: int, magnons: int, eta: complex, seeds) -> BetheState:
    """Damped Newton iteration on the logarithmic equations from given seeds.

    Steps are halved (up to 8 times) until the defect norm decreases. Root
    collisions trigger one restart from slightly perturbed seeds before
    failing; roots escaping past MAX_ROOT_MAGNITUDE are rejected (they
    correspond to solutions at infinity, not to this sector).
    """
    if magnons == 0:
        return BetheState(n_sites, 0, (), 0.0, eta)
    seeds = np.asarray(seeds, dtype=complex)
    if len(seeds) != magnons:
        raise ValueError("seed count must equal magnon number")

    def attempt(v0):
        v = v0.copy()
        for _ in range(NEWTON_MAX_ITER):
            bad = (
                np.any(np.abs(v) < 1e-13)
                or np.any(np.abs(v - eta) < 1e-13)
                or np.any(np.abs(v) > MAX_ROOT_MAGNITUDE)
            )
            if not bad:
                for a in range(magnons):
                    for b in range(a + 1, magnons):
                        gap = v[a] - v[b]
                        if abs(gap) < 1e-10 or abs(gap - eta) < 1e-13 or abs(gap + eta) < 1e-13:
                            bad = True
            if bad:
                return None, v
            defect = _defect_vector(v, n_sites, eta)
            if np.max(np.abs(defect)) < NEWTON_TOL:
                return v, v
            try:
                step = np.linalg.solve(_jacobian(v, n_sites, eta), -defect)
            except np.linalg.LinAlgError:
                return None, v
            scale = 1.0
            base = np.max(np.abs(defect))
            for _ in range(8):
                trial = v + scale * step
                if (
                    np.all(np.abs(trial) > 1e-13)
                    and np.all(np.abs(trial - eta) > 1e-13)
                    and np.max(np.abs(_defect_vector(trial, n_sites, eta))) < base
                ):
                    break
                scale /= 2
            v = v + scale * step
        return None, v

    roots, last = attempt(seeds)
    if roots is None:
        rng = np.random.default_rng(12)
        jitter = 0.05 * (rng.standard_normal(magnons) + 1j * rng.standard_normal(magnons))
        roots, last = attempt(seeds * (1 + jitter))
    if roots is None:
        raise BetheSolverError("Newton iteration did not converge", iterate=last)
    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]
    residual = max(log_defects(roots, n_sites, eta))
    return BetheState(n_sites, magnons, tuple(roots), residual, eta)


def eval_lambda(u: complex, state: BetheState) -> complex:
    """Transfer-matrix eigenvalue Lambda(u) on the state's root set."""
    eta = state.eta
    for vj in state.roots:
        if u == vj or u == vj + eta:
            raise ValueError("u collides with a pole of Lambda")
    if u == 0:
        raise ValueError("u = 0 is a pole of d(u)")
    d = (1 - eta / u) ** state.n_sites
    p_direct = np.prod([1 - eta / (u - vj) for vj in state.roots]) if state.magnons else 1.0
    p_cross = np.prod([1 - eta / (vj - u) for vj in state.roots]) if state.magnons else 1.0
    return complex(p_direct + d * p_cross)


def q_polynomial(u: complex, state: BetheState) -> complex:
    """Q(u) = prod_j (u - v_j); identically 1 for the vacuum."""
    if state.magnons == 0:
        return 1.0
    return complex(np.prod([u - vj for vj in state.roots]))


def verify_tq(state: BetheState, u: complex) -> float:
    """Residual of Lambda(u) Q(u) = Q(u - eta) + d(u) Q(u + eta)."""
    eta = state.eta
    lam = eval_lambda(u, state)
    lhs = lam * q_polynomial(u, state)
    d = (1 - eta / u) ** state.n_sites
    rhs = q_polynomial(u - eta, state) + d * q_polynomial(u + eta, state)
    return float(abs(lhs - rhs) / max(abs(lhs), 1.0))


def verify_one_magnon_action(spec: ChainSpec, us: Sequence[complex],
                             vs: Sequence[complex]) -> list[float]:
    """Off-shell action of t(u) on the one-magnon vector C(v) Omega, one
    residual per sample of the sweep (us[i], vs[i]).

    Checks the three-term identity

        t(u) C(v) O = (alpha(u,v) + d(u) alpha(v,u)) C(v) O
                      - (beta(u,v) + beta(v,u) d(v)) C(u) O
                      + xi (1 - d(u)) (1 - d(v)) O

    as a vector identity on the chain space; the residual is relative to
    the left-hand side. The C(u) O and O coefficients vanish exactly on
    shell ((alpha(v))^N = 1), which is the one-magnon Bethe equation.
    C(v) O, C(u) O and t(u) C(v) O are formed on stacks of samples
    (``tensor.sweep``, sized by one aux ⊗ chain block of
    ``_aux_blocks_apply`` per sample), each residual bitwise that of its
    sample alone.
    """
    for u, v in zip(us, vs):
        if u == v or u == 0 or v == 0:
            raise ValueError("u, v must be nonzero and distinct")
    eta, xi = spec.params.eta, spec.params.xi
    omega = vacuum_state(spec.n_sites)

    def alpha(x, y):
        return 1 - eta / (x - y)

    def beta(x, y):
        return -eta / (x - y)

    def residuals(us, vs):
        ps = [spec.params] * len(us)
        r_u, r_v = build_r_stack(us, ps), build_r_stack(vs, ps)
        c_v, c_u = _lowered(spec, r_v, omega), _lowered(spec, r_u, omega)
        a, _, _, d = _aux_blocks_apply(r_u, spec.n_sites, c_v)
        out = []
        for u, v, left, cv, cu in zip(us, vs, a + d, c_v, c_u):
            du, dv = vacuum_d(u, spec), vacuum_d(v, spec)
            rhs = ((alpha(u, v) + du * alpha(v, u)) * cv
                   - (beta(u, v) + beta(v, u) * dv) * cu
                   + xi * (1 - du) * (1 - dv) * omega)
            out.append(float(frobenius(left - rhs) / max(frobenius(left), 1.0)))
        return out

    return sweep(residuals, 4 * 16 * spec.dim, us, vs)


def one_magnon_defects(spec: ChainSpec, roots: Sequence[complex],
                       us: Sequence[complex]) -> list[float]:
    """Eigenvector defect ||t(u) psi - Lambda(u) psi|| / ||psi|| of the
    one-magnon state psi = C(v) Omega, one per sample of the sweep
    (roots[i], us[i]), Lambda that of ``eval_lambda`` on the root v alone.
    It vanishes on shell, where v is a root of the Bethe equations. The
    states and t(u) psi are formed on stacks of samples (``tensor.sweep``,
    sized as in ``verify_one_magnon_action``), each defect bitwise that of
    its sample alone."""
    omega = vacuum_state(spec.n_sites)

    def defects(vs, us):
        ps = [spec.params] * len(us)
        psi = _lowered(spec, build_r_stack(vs, ps), omega)
        a, _, _, d = _aux_blocks_apply(build_r_stack(us, ps), spec.n_sites, psi)
        out = []
        for u, v, t_psi, state in zip(us, vs, a + d, psi):
            lam = eval_lambda(u, BetheState(spec.n_sites, 1, (complex(v),), 0.0, spec.params.eta))
            out.append(frobenius(t_psi - lam * state) / frobenius(state))
        return out

    return sweep(defects, 4 * 16 * spec.dim, roots, us)


def _lowered(spec: ChainSpec, r: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """C psi, the lower half of T [psi; 0] for the monodromy T of the site
    factor r: R(v), or a stack of them, applied to one chain vector or to a
    stack of them over the same leading axes."""
    d = spec.dim
    x = np.zeros(r.shape[:-2] + (2 * d,), dtype=complex)
    x[..., :d] = psi
    return _factors_apply(r, spec.n_sites, x)[..., d:]


def magnon_product_state(spec: ChainSpec, roots) -> np.ndarray:
    """C(v_1)...C(v_M) Omega as a vector on the chain space.

    C(v) psi is the lower half of T(v)[psi; 0] (``_lowered``), so no matrix
    is formed.
    """
    psi = vacuum_state(spec.n_sites)
    for v in reversed(list(roots)):
        psi = _lowered(spec, build_r(v, spec.params), psi)
    return psi


def verify_multi_magnon_spectrum(spec: ChainSpec, states: list[BetheState],
                                 u: complex, spectrum: np.ndarray) -> list[dict]:
    """Two sub-checks per converged state at the point u.

    (i)  the gap of Lambda(u, {v_j}) to `spectrum`, the exact eigenvalue
         multiset of t(u) that the caller solved (eigenvalues coincide with
         the undeformed chain, so this is expected to vanish for every xi);
    (ii) the eigenvector defect ||t(u) psi - Lambda psi|| / ||psi|| of the
         product state psi = C(v_1)...C(v_M) Omega, with t(u) psi from
         ``transfer_apply``; expected to vanish at xi = 0 and to stay finite
         for M >= 2 once xi != 0 (the equations constrain the eigenvalue,
         not the vector).
    """
    out = []
    for state in states:
        lam = eval_lambda(u, state)
        gap = float(np.min(np.abs(spectrum - lam)))
        psi = magnon_product_state(spec, state.roots)
        defect = float(
            frobenius(transfer_apply(spec, u, psi) - lam * psi)
            / max(frobenius(psi), 1e-30)
        )
        out.append({
            "magnons": state.magnons,
            "roots": state.roots,
            "eigenvalue_gap": gap,
            "eigenvector_defect": defect,
        })
    return out


def lambda_pole_residue(state: BetheState, j: int) -> float:
    """Estimate of the residue of Lambda(u) at u = v_j by a contour probe.

    The two terms of Lambda have simple poles at u = v_j that cancel exactly
    when the Bethe equations hold; the residue estimate is the mean of
    Lambda over a small circle times the radius (zero for an analytic point).
    """
    vj = state.roots[j]
    samples = [
        eval_lambda(vj + POLE_PROBE_RADIUS * np.exp(2j * np.pi * k / 8), state)
        * POLE_PROBE_RADIUS * np.exp(2j * np.pi * k / 8)
        for k in range(8)
    ]
    return float(abs(np.mean(samples)))


def completeness_audit(spec: ChainSpec, u: complex, states: list[BetheState],
                       spectrum: np.ndarray) -> dict:
    """Count how much of `spectrum`, the exact t(u) spectrum the caller
    solved, the found states explain.

    Each state of S = N/2 - M carries multiplicity 2S + 1 (descendants add
    roots at infinity without changing Lambda). In order, each state claims
    up to that many unclaimed eigenvalues within 1e-6 of its Lambda, nearest
    first and the lower index on a tie. Unmatched eigenvalues are counted
    and reported, never asserted absent; at N = 4 exactly one eigenvalue
    family (the singular two-string with paired roots at 0 and eta) is
    invisible to the logarithmic solver.
    """
    free = np.ones(len(spectrum), dtype=bool)
    matched = 0
    details = []
    for state in states:
        gaps = np.abs(spectrum - eval_lambda(u, state))
        mult = spec.n_sites - 2 * state.magnons + 1
        near = np.flatnonzero(free & (gaps < 1e-6))
        claimed = near[np.argsort(gaps[near], kind="stable")[:mult]]
        free[claimed] = False
        matched += claimed.size
        details.append({"magnons": state.magnons, "expected": mult, "matched": claimed.size})
    return {
        "dimension": spec.dim,
        "matched": matched,
        "unmatched": spec.dim - matched,
        "per_state": details,
    }
