"""Dense brute-force reference implementations.

Ground truth for the test suite: every routine here is written as the
naive textbook loop over full arrays and shares no code with the CSR
kernels. Inputs are capped at 128x128; performance is a non-goal.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from graphmat.errors import DimensionError, GraphMatError
from graphmat.matrix import SparseMatrix

_MAX_DIM = 128


class DenseMatrix:
    """Row-major full array including explicit 0-elements."""

    def __init__(self, nrows, ncols, fill):
        if nrows > _MAX_DIM or ncols > _MAX_DIM:
            raise GraphMatError(
                f"oracle matrices are capped at {_MAX_DIM}x{_MAX_DIM}")
        self.nrows = nrows
        self.ncols = ncols
        self.data = [[fill for _ in range(ncols)] for _ in range(nrows)]

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __setitem__(self, ij, value):
        i, j = ij
        self.data[i][j] = value

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix)
                and self.nrows == other.nrows
                and self.ncols == other.ncols
                and self.data == other.data)


def densify(a: SparseMatrix, zero) -> DenseMatrix:
    d = DenseMatrix(a.nrows, a.ncols, zero)
    for i in range(a.nrows):
        lo, hi = int(a.indptr[i]), int(a.indptr[i + 1])
        for k in range(lo, hi):
            d[i, int(a.indices[k])] = a.values[k]
    return d


def sparsify(d: DenseMatrix, zero, domain) -> SparseMatrix:
    """Strip 0-elements from a dense array into canonical CSR.

    Deliberately bypasses build(): a plain row scan keeps the oracle
    path independent of the library's construction code.
    """
    indptr = [0]
    indices = []
    values = []
    for i in range(d.nrows):
        for j in range(d.ncols):
            if d[i, j] != zero:
                indices.append(j)
                values.append(d[i, j])
        indptr.append(len(indices))
    return SparseMatrix(
        d.nrows, d.ncols,
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
        np.asarray(values, dtype=domain.dtype),
        domain,
    )


def dense_accumulate(nrows, ncols, rows, cols, vals, dup, zero) -> DenseMatrix:
    """Fold triples into a dense array left-to-right; duplicate-combine
    oracle for build()."""
    d = DenseMatrix(nrows, ncols, zero)
    for r, c, v in zip(rows, cols, vals):
        d[r, c] = v if d[r, c] == zero else dup(d[r, c], v)
    return d


def dense_mxm(sr, a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.ncols != b.nrows:
        raise DimensionError("oracle mxm inner dimensions differ")
    c = DenseMatrix(a.nrows, b.ncols, sr.zero)
    for i in range(a.nrows):
        for j in range(b.ncols):
            acc = sr.zero
            started = False
            for k in range(a.ncols):
                if a[i, k] == sr.zero or b[k, j] == sr.zero:
                    continue  # as in mxm, 0 * inf must not give NaN
                term = sr.mul(a[i, k], b[k, j])
                if started:
                    acc = sr.add(acc, term)
                else:
                    acc, started = term, True
            c[i, j] = acc
    return c


def dense_ewise_add(op, zero, a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    c = DenseMatrix(a.nrows, a.ncols, zero)
    for i in range(a.nrows):
        for j in range(a.ncols):
            x, y = a[i, j], b[i, j]
            if x == zero:
                c[i, j] = y
            elif y == zero:
                c[i, j] = x
            else:
                c[i, j] = op(x, y)
    return c


def dense_ewise_mult(op, zero, a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    c = DenseMatrix(a.nrows, a.ncols, zero)
    for i in range(a.nrows):
        for j in range(a.ncols):
            x, y = a[i, j], b[i, j]
            if x != zero and y != zero:
                c[i, j] = op(x, y)
    return c


def dense_extract(a: DenseMatrix, i_idx, j_idx, zero) -> DenseMatrix:
    c = DenseMatrix(len(i_idx), len(j_idx), zero)
    for p, i in enumerate(i_idx):
        for q, j in enumerate(j_idx):
            c[p, q] = a[i, j]
    return c


def dense_assign(c: DenseMatrix, i_idx, j_idx, a: DenseMatrix,
                 zero) -> DenseMatrix:
    out = DenseMatrix(c.nrows, c.ncols, zero)
    for i in range(c.nrows):
        for j in range(c.ncols):
            out[i, j] = c[i, j]
    for p, i in enumerate(i_idx):
        for q, j in enumerate(j_idx):
            out[i, j] = a[p, q]
    return out


def dense_bfs(a: DenseMatrix, sources, zero, max_hops=None):
    """Classical queue-based BFS over out-edges; returns hop counts
    with None for unreached vertices."""
    n = a.nrows
    levels = [None] * n
    queue = []
    for s in sources:
        if levels[s] is None:
            levels[s] = 0
            queue.append(s)
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        if max_hops is not None and levels[u] >= max_hops:
            continue
        for v in range(n):
            if a[u, v] != zero and levels[v] is None:
                levels[v] = levels[u] + 1
                queue.append(v)
    return levels


def dense_sssp(a: DenseMatrix, source, zero):
    """Dijkstra over non-negative weights; `zero` marks no-edge."""
    n = a.nrows
    dist = [math.inf] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = [False] * n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v in range(n):
            w = a[u, v]
            if w != zero and d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist
