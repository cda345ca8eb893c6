"""Dense complex linear algebra primitives for small spin chains.

Conventions used throughout the package:

* basis of C^2: |0> = (1,0)^T is spin-up, |1> = (0,1)^T is spin-down,
* tensor factor 1 is the leftmost Kronecker factor,
* everything is a dense ``complex128`` ndarray; chains are capped at
  N = 12 sites (4096-dimensional), which keeps every check desk-scale,
* a local operator reaches the product space in one of two ways:
  ``apply_local`` contracts it into its tensor slots of a vector or column
  block (O(d_slots * size) work), and ``add_local`` adds its embedding into
  a full matrix in place, touching only the d_slots * dim entries it fills,
  its scatter indices planned once per (dims, slots) (``_embedding_index``,
  read-only); ``lift`` is that embedding added to zeros, for small spaces
  such as one site with several auxiliary spaces,
* Kronecker products are ``kron`` and residual norms ``frobenius``, each
  bitwise the numpy call it stands for (``np.kron``, ``np.linalg.norm``)
  without its per-call bookkeeping; no other module calls those two,
* ``apply_local``, ``add_local`` and ``lift`` take leading stack axes (a
  stack of operators applies to a stack of vectors or blocks over the same
  axes), and ``commutator_residuals`` reads one residual per pair of a stack
  of matrices, so a sampled sweep is evaluated as stacks of samples by
  ``sweep``, in chunks of ``sample_chunks`` whose largest array holds about
  STACK_BYTES, each result bitwise that of its sample alone; no other
  module sizes a chunk.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_SITES = 12

# A sampled sweep is evaluated as stacks of samples whose largest stacked
# array holds about this many bytes (``sample_chunks``).
STACK_BYTES = 2**17

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SM = 0.5 * (SX - 1j * SY)  # lowers |up> -> |down>, annihilates |down>


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
    # one pass: a complex entry is finite iff both of its parts are
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices: the elementwise products that
    ``np.kron`` forms, laid out by one reshape, so bitwise its result
    without its shape bookkeeping."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron takes two matrices, got ndim {a.ndim} and {b.ndim}")
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def frobenius(x) -> np.float64:
    """Frobenius norm of all entries of `x` (the 2-norm of a vector): the
    calls ``np.linalg.norm`` makes for it, the square root of the real dot
    products of the raveled real and imaginary parts, so bitwise its value.
    Every residual norm of the package is taken here."""
    x = np.asarray(x)
    if not issubclass(x.dtype.type, np.inexact):
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return np.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(x.dot(x))


def kron_all(ops: list[np.ndarray]) -> np.ndarray:
    if not ops:
        raise ValueError("empty operator list")
    out = as_matrix(ops[0])
    for op in ops[1:]:
        out = kron(out, as_matrix(op))
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


def sample_chunks(count: int, sample_bytes: int) -> Iterator[slice]:
    """Consecutive slices of `count` samples, each as long as keeps a stack
    of arrays of `sample_bytes` bytes per sample within STACK_BYTES (one
    sample at least), so that the number of samples never sets the memory
    a sweep holds."""
    step = max(1, STACK_BYTES // sample_bytes)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def sweep(evaluate: Callable[..., Sequence], sample_bytes: int, *columns: Sequence) -> list:
    """evaluate(*chunk) over consecutive chunks of the sweep whose samples
    are the rows of the equal-length `columns`, chunked by
    ``sample_chunks``, the results concatenated in order. One call per
    chunk, so that a chunk's arrays are freed before the next chunk's are
    built. Refuses columns of unequal length."""
    count = len(columns[0])
    if any(len(column) != count for column in columns):
        raise ValueError("a sweep takes columns of equal length, got lengths "
                         + ", ".join(str(len(column)) for column in columns))
    return [out for chunk in sample_chunks(count, sample_bytes)
            for out in evaluate(*(column[chunk] for column in columns))]


def _local_operator(op, dims: list[int], slots: list[int]) -> np.ndarray:
    """Validate `op` as a square matrix on the tensor factors `slots` of
    `dims`, or a stack of them over leading axes: the shape and the
    finiteness of the last two axes are checked."""
    op = np.asarray(op, dtype=complex)
    d_slots = math.prod(dims[s] for s in slots)
    if op.shape[-2:] != (d_slots, d_slots):
        raise ValueError(f"operator dim {op.shape} does not match slots {slots} of {dims}")
    if not np.isfinite(op).all():
        raise ValueError("matrix entries must be finite")
    return op


@lru_cache(maxsize=1024)
def _axis_orders(n: int, slots: tuple[int, ...],
                 lead: int = 0) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order bringing `slots` to the front of n factors plus a column
    axis (index n), behind `lead` stack axes that stay in place, and its
    inverse."""
    order = slots + tuple(k for k in range(n + 1) if k not in slots)
    stack = tuple(range(lead))
    return (stack + tuple(lead + k for k in order),
            stack + tuple(lead + int(k) for k in np.argsort(order)))


def apply_local(op: np.ndarray, x: np.ndarray, dims: list[int], slots: list[int]) -> np.ndarray:
    """Apply `op`, acting on the tensor factors `slots` (0-based, in order),
    to the rows of `x` on the product space with factor dimensions `dims`.

    `x` is a vector or a block of columns with prod(dims) rows; the result
    has the shape of `x` and equals lift(op, dims, slots) @ x. The factors
    named in `slots` need not be adjacent; `op` must be square with dimension
    prod(dims[s] for s in slots). One reshape, one transpose and one matmul
    of `op` against a (d_slots, size / d_slots) matrix: O(d_slots * size).
    A stack of operators takes a stack of vectors or blocks over the same
    leading axes, one matmul per stacked pair, each as the pair alone takes
    it.
    """
    op = _local_operator(op, dims, slots)
    lead = op.shape[:-2]
    full = math.prod(dims)
    x = np.asarray(x)
    if x.shape[:len(lead)] != lead or x.shape[len(lead):len(lead) + 1] != (full,):
        raise ValueError(f"block of shape {x.shape} does not carry the stack {lead} "
                         f"of operators over the product space {full}")
    # the column axis (index n) travels with the untouched factors
    order, inverse = _axis_orders(len(dims), tuple(slots), len(lead))
    t = x.reshape(lead + tuple(dims) + (-1,)).transpose(order)
    shape = t.shape
    t = (op @ t.reshape(lead + (op.shape[-1], -1))).reshape(shape)
    return t.transpose(inverse).reshape(x.shape)


@lru_cache(maxsize=256)
def _embedding_index(dims: tuple[int, ...],
                     slots: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of ``add_local``'s scatter, read-only:
    row k of the plan lists the basis states whose `slots` indices read k
    (the slots first, then the other factors; the column axis of
    ``_axis_orders``, last, dropped)."""
    order = _axis_orders(len(dims), slots)[0][:-1]
    idx = np.arange(math.prod(dims)).reshape(dims).transpose(order)
    idx = idx.reshape(math.prod(dims[s] for s in slots), -1)
    idx.flags.writeable = False
    return idx[:, None, :], idx[None, :, :]


def add_local(h: np.ndarray, op: np.ndarray, dims: list[int], slots: list[int]) -> None:
    """Add the embedding of `op`, acting on the tensor factors `slots`
    (0-based, in order), into the square matrix `h` on the product space
    with factor dimensions `dims`, in place.

    The embedding has op[i, j] at each row/column pair whose `slots`
    indices are i and j and whose other indices agree, and zeros elsewhere;
    only those d_slots * prod(dims) entries of `h` are touched. Both may
    carry leading stack axes, the matrices being their last two: a stack of
    operators is added into the matching stack of matrices, one operator
    into each matrix of a stack.
    """
    op = _local_operator(op, dims, slots)
    full = math.prod(dims)
    if h.shape[-2:] != (full, full):
        raise ValueError(f"matrix has shape {h.shape}, the product space {full}")
    rows, cols = _embedding_index(tuple(dims), tuple(slots))
    h[..., rows, cols] += op[..., None]


def lift(op: np.ndarray, dims: list[int], slots: list[int]) -> np.ndarray:
    """Embed `op`, acting on the tensor factors `slots` (0-based, in order),
    into the product space with factor dimensions `dims`: ``add_local``
    into zeros, with the leading stack axes of `op`.
    """
    full = math.prod(dims)
    out = np.zeros(np.shape(op)[:-2] + (full, full), dtype=complex)
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
    and costs a fraction of the general solve in ``eigenvalues``. Input with
    an exactly zero imaginary part, a real symmetric matrix, is solved in
    real arithmetic. Ascending real values are already in that function's
    (Re, Im) order.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    if not m.imag.any():
        m = m.real
    return np.linalg.eigvalsh(m).astype(complex)


@dataclass(frozen=True)
class SpectrumReport:
    """Outcome of a multiset eigenvalue comparison."""

    eigenvalues: np.ndarray
    matched: bool
    max_pair_distance: float


def _min_sum_assignment(cost: np.ndarray) -> np.ndarray:
    """Column matched to each row by a minimum-sum perfect matching of the
    square real matrix `cost`: the Hungarian method (Kuhn 1955) with
    shortest augmenting paths (Jonker and Volgenant 1987).

    Row potentials u and column potentials v keep every reduced cost
    cost[i, j] - u[i] - v[j] at or above 0 and every matched one at 0, so
    the matching is optimal once it is perfect. Each row starts on its
    cheapest column (u the row minima, v = 0) unless an earlier row took
    that column. Each row left over is matched along one shortest path of
    reduced costs from it to a free column (Dijkstra). Every step labels a
    new column, so each path takes at most n steps, even on costs too
    large for their sums to stay finite.
    """
    n = cost.shape[0]
    first = cost.argmin(axis=1)
    u = cost[np.arange(n), first]
    v = np.zeros(n)
    col_of = np.full(n, -1)
    row_of = np.full(n, -1)
    cols, rows = np.unique(first, return_index=True)
    col_of[rows], row_of[cols] = cols, rows
    new = np.empty(n)
    better = np.empty(n, dtype=bool)
    for r in np.flatnonzero(col_of < 0):
        dist = cost[r] - u[r] - v  # tentative distances; inf once final
        final = np.zeros(n)
        pred = np.full(n, r)
        todo = np.ones(n, dtype=bool)
        while True:
            j = int(dist.argmin())
            if not todo[j]:  # every distance left is inf
                j = int(todo.argmax())
            dj = final[j] = dist[j]
            dist[j] = np.inf
            todo[j] = False
            i = row_of[j]
            if i < 0:
                break
            np.subtract(cost[i], v, out=new)
            new += dj - u[i]
            np.less(new, dist, out=better)
            better &= todo
            np.copyto(dist, new, where=better)
            np.copyto(pred, i, where=better)
        # shift the potentials of the labelled columns but the sink j (whose
        # shift is 0) and of their rows: the path is tight, no cost negative
        todo[j] = True
        labelled = ~todo
        shift = dj - final[labelled]
        v[labelled] -= shift
        u[row_of[labelled]] += shift
        u[r] += dj
        while True:
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == r:
                break
    return col_of


def match_spectra(s1, s2, tol: float) -> SpectrumReport:
    """Pair two eigenvalue multisets and test whether they coincide.

    Both multisets are sorted lexicographically by (Re, Im) and paired
    greedily; if the greedy pairing exceeds `tol` they are paired again by
    the in-package exact minimum-sum assignment (``_min_sum_assignment``)
    of the distances |a_i - b_j| before a mismatch is declared (this
    protects near-degenerate clusters from unlucky sort order). The report
    carries the largest distance of the pairing used. A non-finite entry
    gives a non-finite greedy distance, reported unmatched as it is.
    """
    a = np.sort_complex(np.asarray(s1, dtype=complex))
    b = np.sort_complex(np.asarray(s2, dtype=complex))
    if a.shape != b.shape:
        raise ValueError(f"cardinality mismatch: {a.shape} vs {b.shape}")
    dist = float(np.max(np.abs(a - b))) if a.size else 0.0
    if a.size and tol < dist < math.inf:
        cost = np.abs(a[:, None] - b[None, :])
        dist = float(np.max(cost[np.arange(a.size), _min_sum_assignment(cost)]))
    return SpectrumReport(eigenvalues=a, matched=bool(dist <= tol), max_pair_distance=dist)


def commutator_residuals(a: np.ndarray, b: np.ndarray) -> list[float]:
    """||AB - BA|| / ||AB||, the denominator floored at 1e-300, for each
    pair of a stack of square matrices over the same leading axes (one for
    two matrices). The products are taken on the stack, the norms matrix
    by matrix, so each residual is bitwise that of its pair alone."""
    ab = a @ b
    diff = b @ a
    np.subtract(ab, diff, out=diff)
    shape = (-1,) + ab.shape[-2:]
    return [float(frobenius(d) / max(frobenius(p), 1e-300))
            for d, p in zip(diff.reshape(shape), ab.reshape(shape))]


def rel_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Frobenius distance of lhs and rhs relative to their scale (floored at 1).

    ``frobenius`` squares the entries, so operands of size about 1e154
    and above overflow it; when a norm is inf although every entry is
    finite, the three norms are taken of the operands divided by their
    largest |entry| instead. Non-finite entries give NaN.
    """
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    floor = 1.0
    norms = frobenius(lhs), frobenius(rhs), frobenius(lhs - rhs)
    if math.inf in norms and np.isfinite(lhs).all() and np.isfinite(rhs).all():
        big = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        lhs, rhs, floor = lhs / big, rhs / big, 1.0 / big
        norms = frobenius(lhs), frobenius(rhs), frobenius(lhs - rhs)
    return float(norms[2] / max(norms[0], norms[1], floor))
