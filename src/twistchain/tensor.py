"""Dense complex linear algebra primitives for small spin chains.

Conventions used throughout the package:

* basis of C^2: |0> = (1,0)^T is spin-up, |1> = (0,1)^T is spin-down,
* tensor factor 1 is the leftmost Kronecker factor,
* everything is a dense ``complex128`` ndarray; chains are capped at
  N = 12 sites (4096-dimensional), which keeps every check desk-scale,
* a local operator reaches the product space in one of two ways:
  ``apply_local`` contracts it into its tensor slots of a vector or column
  block (O(d_slots * size) work), and ``add_local`` adds its embedding into
  a full matrix in place, touching only the d_slots * dim entries it fills;
  ``lift`` is that embedding added to zeros, for small spaces such as one
  site with several auxiliary spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_SITES = 12

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SM = 0.5 * (SX - 1j * SY)  # lowers |up> -> |down>, annihilates |down>
SP = 0.5 * (SX + 1j * SY)


def as_matrix(m, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and return a dense complex matrix.

    Rejects non-2d input, shape mismatches against ``rows``/``cols`` and
    non-finite entries.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if rows is not None and a.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ValueError(f"expected {cols} columns, got {a.shape[1]}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def kron_all(ops: list[np.ndarray]) -> np.ndarray:
    if not ops:
        raise ValueError("empty operator list")
    out = as_matrix(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_matrix(op))
    return out


def embed_at_site(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """I x ... x op x ... x I with `op` at tensor factor `site` (1-based)."""
    if not 1 <= n_sites <= MAX_SITES:
        raise ValueError(f"n_sites must be in 1..{MAX_SITES}, got {n_sites}")
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} out of range 1..{n_sites}")
    op = as_matrix(op, 2, 2)
    ops = [I2] * n_sites
    ops[site - 1] = op
    return kron_all(ops)


def _local_operator(op, dims: list[int], slots: list[int]) -> np.ndarray:
    """Validate `op` as a square matrix on the tensor factors `slots` of `dims`."""
    op = as_matrix(op)
    d_slots = math.prod(dims[s] for s in slots)
    if op.shape != (d_slots, d_slots):
        raise ValueError(f"operator dim {op.shape} does not match slots {slots} of {dims}")
    return op


@lru_cache(maxsize=1024)
def _axis_orders(n: int, slots: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order bringing `slots` to the front of n factors plus a column
    axis (index n), and its inverse."""
    order = slots + tuple(k for k in range(n + 1) if k not in slots)
    return order, tuple(int(k) for k in np.argsort(order))


def apply_local(op: np.ndarray, x: np.ndarray, dims: list[int], slots: list[int]) -> np.ndarray:
    """Apply `op`, acting on the tensor factors `slots` (0-based, in order),
    to the rows of `x` on the product space with factor dimensions `dims`.

    `x` is a vector or a block of columns with prod(dims) rows; the result
    has the shape of `x` and equals lift(op, dims, slots) @ x. The factors
    named in `slots` need not be adjacent; `op` must be square with dimension
    prod(dims[s] for s in slots). One reshape, one transpose and one matmul
    of `op` against a (d_slots, size / d_slots) matrix: O(d_slots * size).
    """
    op = _local_operator(op, dims, slots)
    full = math.prod(dims)
    x = np.asarray(x)
    if x.shape[0] != full:
        raise ValueError(f"block has {x.shape[0]} rows, the product space {full}")
    # the column axis (index n) travels with the untouched factors
    order, inverse = _axis_orders(len(dims), tuple(slots))
    t = x.reshape(list(dims) + [-1]).transpose(order)
    shape = t.shape
    t = (op @ t.reshape(op.shape[0], -1)).reshape(shape)
    return t.transpose(inverse).reshape(x.shape)


def add_local(h: np.ndarray, op: np.ndarray, dims: list[int], slots: list[int]) -> None:
    """Add the embedding of `op`, acting on the tensor factors `slots`
    (0-based, in order), into the square matrix `h` on the product space
    with factor dimensions `dims`, in place.

    The embedding has op[i, j] at each row/column pair whose `slots`
    indices are i and j and whose other indices agree, and zeros elsewhere;
    only those d_slots * prod(dims) entries of `h` are touched.
    """
    op = _local_operator(op, dims, slots)
    full = math.prod(dims)
    if h.shape != (full, full):
        raise ValueError(f"matrix has shape {h.shape}, the product space {full}")
    # the slots first, then the other factors (the column axis, last, dropped);
    # row k of idx lists the basis states whose `slots` indices read k
    order = _axis_orders(len(dims), tuple(slots))[0][:-1]
    idx = np.arange(full).reshape(dims).transpose(order).reshape(op.shape[0], -1)
    h[idx[:, None, :], idx[None, :, :]] += op[:, :, None]


def lift(op: np.ndarray, dims: list[int], slots: list[int]) -> np.ndarray:
    """Embed `op`, acting on the tensor factors `slots` (0-based, in order),
    into the product space with factor dimensions `dims`: ``add_local``
    into zeros.
    """
    full = math.prod(dims)
    out = np.zeros((full, full), dtype=complex)
    add_local(out, op, dims, slots)
    return out


def permutation_op() -> np.ndarray:
    """4x4 permutation P with P(x ⊗ y) = y ⊗ x; equals sum_ij e_ij ⊗ e_ji."""
    p = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            p[2 * i + j, 2 * j + i] = 1.0
    return p


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Full eigenvalue multiset of a general complex matrix.

    Sorted lexicographically by (Re, Im) so that identical input yields an
    identical array. Non-normal input is fine; failures of the QR iteration
    surface as numpy's LinAlgError.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    ev = np.linalg.eigvals(m)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalue multiset of a Hermitian matrix, as complex, ascending.

    ``numpy.linalg.eigvalsh`` reads one triangle of `m` only, so the caller
    vouches that `m` is Hermitian; the spectrum is then real to rounding
    and costs a fraction of the general solve in ``eigenvalues``. Ascending
    real values are already in that function's (Re, Im) order.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    return np.linalg.eigvalsh(m).astype(complex)


@dataclass(frozen=True)
class SpectrumReport:
    """Outcome of a multiset eigenvalue comparison."""

    eigenvalues: np.ndarray
    matched: bool
    max_pair_distance: float


def match_spectra(s1, s2, tol: float) -> SpectrumReport:
    """Pair two eigenvalue multisets and test whether they coincide.

    Both multisets are sorted lexicographically by (Re, Im) and paired
    greedily; if the greedy pairing exceeds `tol` the comparison is retried
    with an optimal bipartite assignment before declaring a mismatch (this
    protects near-degenerate clusters from unlucky sort order).
    """
    a = np.sort_complex(np.asarray(s1, dtype=complex))
    b = np.sort_complex(np.asarray(s2, dtype=complex))
    if a.shape != b.shape:
        raise ValueError(f"cardinality mismatch: {a.shape} vs {b.shape}")
    dist = float(np.max(np.abs(a - b))) if a.size else 0.0
    if dist > tol and a.size:
        from scipy.optimize import linear_sum_assignment

        cost = np.abs(a[:, None] - b[None, :])
        rows, cols = linear_sum_assignment(cost)
        dist = float(np.max(cost[rows, cols]))
    return SpectrumReport(eigenvalues=a, matched=bool(dist <= tol), max_pair_distance=dist)


def rel_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Frobenius distance of lhs and rhs relative to their scale (floored at 1).

    ``np.linalg.norm`` squares the entries, so operands of size about 1e154
    and above overflow it; when a norm is inf although every entry is
    finite, the three norms are taken of the operands divided by their
    largest |entry| instead. Non-finite entries give NaN.
    """
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    floor = 1.0
    norms = np.linalg.norm(lhs), np.linalg.norm(rhs), np.linalg.norm(lhs - rhs)
    if math.inf in norms and np.isfinite(lhs).all() and np.isfinite(rhs).all():
        big = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        lhs, rhs, floor = lhs / big, rhs / big, 1.0 / big
        norms = np.linalg.norm(lhs), np.linalg.norm(rhs), np.linalg.norm(lhs - rhs)
    return float(norms[2] / max(norms[0], norms[1], floor))
