"""Independent references and the checks against them.

References come from numpy and scipy only, never from graphmat, and
are computed before the timed loop. Every weight is an integer, so each
comparison is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.sparse import csgraph

from .inputs import Triples


def coalesced(t: Triples, how="sum") -> sp.csr_array:
    """Canonical CSR of `t`, duplicates folded by sum or min."""
    order = np.lexsort((t.cols, t.rows))
    r, c, v = t.rows[order], t.cols[order], t.vals[order]
    if len(r):
        first = np.ones(len(r), dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        starts = np.flatnonzero(first)
        fold = np.minimum if how == "min" else np.add
        r, c, v = r[starts], c[starts], fold.reduceat(v, starts)
    m = sp.csr_array((v, (r, c)), shape=(t.nrows, t.ncols))
    m.sum_duplicates()
    return m


@dataclass
class BfsRef:
    levels: np.ndarray       # -1 = unreached
    parents: np.ndarray      # -1 = none; smallest id one level up
    reached_entries: int     # stored entries in rows of reached vertices


def bfs_ref(a: sp.csr_array, root) -> BfsRef:
    hops = csgraph.shortest_path(a, method="D", unweighted=True,
                                 indices=root)
    levels = np.where(np.isinf(hops), -1, hops).astype(np.int64)
    coo = a.tocoo()
    u, v = coo.row.astype(np.int64), coo.col.astype(np.int64)
    lu = levels[u]
    up = (lu >= 0) & (levels[v] == lu + 1)
    n = a.shape[0]
    parents = np.full(n, n, dtype=np.int64)
    np.minimum.at(parents, v[up], u[up])
    parents[parents == n] = -1
    reached = int(np.diff(a.indptr)[levels >= 0].sum())
    return BfsRef(levels, parents, reached)


def sssp_ref(a: sp.csr_array, root) -> np.ndarray:
    return csgraph.dijkstra(a, directed=True, indices=root)


def giant_component(a: sp.csr_array) -> np.ndarray:
    """Vertices of the largest connected component, ascending."""
    _, label = csgraph.connected_components(a, directed=False)
    return np.flatnonzero(label == np.bincount(label).argmax())


def minplus_rows(a: sp.csr_array, b: sp.csr_array, rows):
    """{i: (cols, vals)} of rows i of the min-plus product a (x) b."""
    out = {}
    b_len = np.diff(b.indptr)
    for i in rows:
        lo, hi = a.indptr[i], a.indptr[i + 1]
        ks, aw = a.indices[lo:hi], a.data[lo:hi]
        counts = b_len[ks]
        ends = np.cumsum(counts)
        pos = (np.arange(ends[-1] if len(ends) else 0)
               - np.repeat(ends - counts, counts)
               + np.repeat(b.indptr[ks], counts))
        dense = np.full(b.shape[1], math.inf)
        np.minimum.at(dense, b.indices[pos], np.repeat(aw, counts)
                      + b.data[pos])
        nz = np.flatnonzero(dense < math.inf)
        out[int(i)] = (nz, dense[nz])
    return out


# ---------------------------------------------------------------------------
# checks: each returns True when the graphmat result matches


def _opt_ints(xs):
    return np.array([-1 if x is None else x for x in xs], dtype=np.int64)


def check_bfs(result, ref: BfsRef) -> bool:
    return (np.array_equal(_opt_ints(result.levels), ref.levels)
            and np.array_equal(_opt_ints(result.parents), ref.parents))


def check_sssp(dist, ref: np.ndarray) -> bool:
    return np.array_equal(np.asarray(dist, dtype=np.float64), ref)


def same_pattern(m, ref: sp.csr_array) -> bool:
    return ((m.nrows, m.ncols) == ref.shape
            and np.array_equal(m.indptr, ref.indptr)
            and np.array_equal(m.indices, ref.indices))


def check_matrix(m, ref: sp.csr_array) -> bool:
    """Same shape, pattern and values (object values compared as ints)."""
    if not same_pattern(m, ref):
        return False
    vals = m.values
    if vals.dtype == object:
        vals = vals.astype(np.int64)
    return np.array_equal(vals, ref.data)


def check_rows(m, rows: dict) -> bool:
    for i, (cols, vals) in rows.items():
        lo, hi = m.indptr[i], m.indptr[i + 1]
        if not (np.array_equal(m.indices[lo:hi], cols)
                and np.array_equal(m.values[lo:hi], vals)):
            return False
    return True


def check_mm_file(path, ref: sp.csr_array) -> bool:
    """Re-read a written Matrix Market file with scipy and compare."""
    m = sp.csr_array(scipy.io.mmread(path))
    m.sum_duplicates()
    return (m.shape == ref.shape and np.array_equal(m.indptr, ref.indptr)
            and np.array_equal(m.indices, ref.indices)
            and np.array_equal(m.data, ref.data))


def check_shape_line(stdout: str, ref: sp.csr_array) -> bool:
    """First line of a matrix-emitting command: 'm x n, k entries'."""
    m, n = ref.shape
    return stdout.splitlines()[0] == f"{m} x {n}, {ref.nnz} entries"


def check_bfs_stdout(stdout: str, ref: BfsRef) -> bool:
    lines = stdout.splitlines()
    if lines[0] != "vertex\tlevel\tparent" or len(lines) != len(ref.levels) + 1:
        return False
    fields = [line.split("\t") for line in lines[1:]]
    levels = [None if f[1] == "-" else int(f[1]) for f in fields]
    parents = [None if f[2] == "-" else int(f[2]) for f in fields]
    return (np.array_equal(_opt_ints(levels), ref.levels)
            and np.array_equal(_opt_ints(parents), ref.parents))


def check_sssp_stdout(stdout: str, ref: np.ndarray) -> bool:
    lines = stdout.splitlines()
    if lines[0] != "vertex\tdistance" or len(lines) != len(ref) + 1:
        return False
    dist = [math.inf if f == "-" else float(f)
            for f in (line.split("\t")[1] for line in lines[1:])]
    return check_sssp(dist, ref)
