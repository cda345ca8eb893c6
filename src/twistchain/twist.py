"""sl(2) representations and the triangular (Jordanian-type) twist.

Generator conventions, fixed once for the whole package:

    [h, e] = -2e,   [h, f] = 2f,   [e, f] = -h,

so for spin 1/2 one has h = sigma^z, e = sigma^-, f = sigma^+ (e lowers).
With the nilpotent variable sigma defined by  1 - 2*xi*e = exp(-sigma),
the twist evaluated in a representation pair (pi, rho) is

    F = exp(h_pi ⊗ sigma_rho / 2)
      = 1 + xi h⊗e + (xi^2/2!) h(h+2) ⊗ e^2 + ...

Both the closed exponential and the truncated series are implemented; the
exponential is canonical, the series is a cross-check. All series terminate
exactly because e (hence sigma) is nilpotent, so no cutoffs are involved.
Each spin's representation is built once and shared, its generators
read-only; Kronecker products go through ``tensor.kron``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import as_matrix, kron, lift, rel_residual


@dataclass(frozen=True)
class SpinRep:
    """Irreducible sl(2) representation of spin s (dimension 2s+1).

    ``make_spin_rep`` returns one shared instance per spin, so `h`, `e` and
    `f` are read-only arrays; derive new arrays from them.
    """

    spin: float
    dim: int
    h: np.ndarray
    e: np.ndarray
    f: np.ndarray


@dataclass(frozen=True)
class TwistParams:
    """Deformation parameter xi and spectral-parameter scale eta (eta != 0)."""

    xi: complex
    eta: complex = 1.0

    def __post_init__(self):
        if not np.isfinite(complex(self.xi)) or not np.isfinite(complex(self.eta)):
            raise ValueError("xi and eta must be finite")
        if self.eta == 0:
            raise ValueError("eta must be nonzero")


@lru_cache
def make_spin_rep(s: float) -> SpinRep:
    """Spin-s generators with [h,e] = -2e and the spin-1/2 anchor e = sigma^-.

    h = 2 J_z and e, f are the standard lowering/raising matrices
    J-|m> = sqrt((s+m)(s-m+1)) |m-1>, which at s = 1/2 gives exactly
    (h, e, f) = (sigma^z, sigma^-, sigma^+). Built once per spin and
    shared, its arrays read-only.
    """
    two_s = round(2 * s)
    if two_s < 0 or abs(2 * s - two_s) > 1e-12:
        raise ValueError(f"spin must be a nonnegative half-integer, got {s}")
    dim = two_s + 1
    m = np.array([two_s / 2 - k for k in range(dim)])
    h = np.diag(2 * m).astype(complex)
    e = np.zeros((dim, dim), dtype=complex)
    f = np.zeros((dim, dim), dtype=complex)
    s_val = two_s / 2
    for k in range(dim - 1):
        amp = np.sqrt((s_val + m[k]) * (s_val - m[k] + 1))
        e[k + 1, k] = amp  # lowering
        f[k, k + 1] = amp  # raising
    for a in (h, e, f):
        a.flags.writeable = False
    return SpinRep(spin=s_val, dim=dim, h=h, e=e, f=f)


def _nilpotent_series(y: np.ndarray, exponential: bool) -> np.ndarray:
    """exp(y) = sum_{k >= 0} y^k / k! (term_k = term_{k-1} y / k) or
    -log(1 - y) = sum_{k >= 1} y^k / k (term_k = y^k, added over k) for
    nilpotent y, up to the first vanishing term (exact)."""
    dim = y.shape[0]
    out = np.eye(dim, dtype=complex) if exponential else np.zeros((dim, dim), dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, dim + 1):
        term = term @ y / k if exponential else term @ y
        if not term.any():
            break
        out = out + (term if exponential else term / k)
    return out


def _nilpotent_exp(x: np.ndarray) -> np.ndarray:
    """exp of a nilpotent matrix via the terminating power series (exact)."""
    return _nilpotent_series(as_matrix(x), exponential=True)


def _neg_log_one_minus(y: np.ndarray) -> np.ndarray:
    """-log(1 - y) = sum_k y^k / k for nilpotent y (the series terminates)."""
    return _nilpotent_series(y, exponential=False)


def nilpotent_log(m: np.ndarray) -> np.ndarray:
    """log(m) for unipotent m = I + X with X nilpotent: -(-log(1 - y)) at y = -X."""
    m = as_matrix(m)
    return -_neg_log_one_minus(np.eye(m.shape[0]) - m)


def sigma_element(rep: SpinRep, xi: complex) -> np.ndarray:
    """sigma = -log(1 - 2 xi e), computed by the terminating log series."""
    return _neg_log_one_minus(2 * xi * rep.e)


def universal_twist(rep1: SpinRep, rep2: SpinRep, xi: complex) -> np.ndarray:
    """Twist in rep1 ⊗ rep2: exp(h_1 ⊗ sigma_2 / 2), evaluated exactly."""
    sig = sigma_element(rep2, xi)
    return _nilpotent_exp(kron(rep1.h, sig) / 2)


def twist_series(rep1: SpinRep, rep2: SpinRep, xi: complex) -> np.ndarray:
    """Truncated-series form of the twist (the displayed expansion).

    The k-th coefficient is taken as xi^k/k! * h(h+2)...(h+2k-2) ⊗ e^k,
    which extrapolates the displayed k = 1, 2 terms; it is validated against
    the exponential form rather than trusted.
    """
    d1, d2 = rep1.dim, rep2.dim
    out = np.eye(d1 * d2, dtype=complex)
    hprod = np.eye(d1, dtype=complex)
    ek = np.eye(d2, dtype=complex)
    fact = 1.0
    for k in range(1, d2 + 1):
        hprod = hprod @ (rep1.h + 2 * (k - 1) * np.eye(d1))
        ek = ek @ rep2.e
        fact *= k
        if not ek.any():
            break
        out = out + (xi**k / fact) * kron(hprod, ek)
    return out


def coproduct(rep1: SpinRep, rep2: SpinRep, generator: str) -> np.ndarray:
    """Undeformed coproduct x -> x⊗1 + 1⊗x represented on rep1 ⊗ rep2."""
    dims = [rep1.dim, rep2.dim]
    return lift(getattr(rep1, generator), dims, [0]) + lift(getattr(rep2, generator), dims, [1])


def twisted_coproduct(rep1: SpinRep, rep2: SpinRep, generator: str, xi: complex) -> np.ndarray:
    """F (Delta generator) F^{-1} on rep1 ⊗ rep2."""
    if generator not in ("h", "e", "f"):
        raise ValueError(f"unknown generator {generator!r}")
    fm = universal_twist(rep1, rep2, xi)
    return fm @ coproduct(rep1, rep2, generator) @ np.linalg.inv(fm)


def verify_cocycle(rep1: SpinRep, rep2: SpinRep, rep3: SpinRep, xi: complex) -> float:
    """Relative residual of (F_12 ⊗ 1)(Delta⊗id)F = (1 ⊗ F_23)(id⊗Delta)F.

    Delta is the undeformed coproduct, applied before representing, so
    (Delta⊗id)F = exp(Delta(h) ⊗ sigma_3 / 2) and (id⊗Delta)F uses
    sigma(Delta(e)) = -log(1 - 2 xi (e⊗1 + 1⊗e)) on rep2 ⊗ rep3.
    """
    dims = [rep1.dim, rep2.dim, rep3.dim]
    f12 = lift(universal_twist(rep1, rep2, xi), dims, [0, 1])
    f23 = lift(universal_twist(rep2, rep3, xi), dims, [1, 2])

    dh = coproduct(rep1, rep2, "h")
    lhs = f12 @ _nilpotent_exp(kron(dh, sigma_element(rep3, xi)) / 2)

    sig_de = _neg_log_one_minus(2 * xi * coproduct(rep2, rep3, "e"))
    rhs = f23 @ _nilpotent_exp(kron(rep1.h, sig_de) / 2)
    return rel_residual(lhs, rhs)
