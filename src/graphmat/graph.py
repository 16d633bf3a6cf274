"""Graph algorithms composed from the semiring kernels.

Adjacency rows are out-vertices: A(i, j) stored means an edge i -> j.
Frontier expansion is therefore the row-vector product f A (`_vxm`, on
the frontier's arrays), which lands on the in-vertices. A masked hop
reads the frontier's out-edges or, when fewer, the in-edges of the
vertices the mask keeps; `_vxm` chooses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (BOOL, OP_MIN, OP_XOR, REAL, BinaryOp, Semiring,
                      semiring_by_name)
from .errors import DimensionError, DomainError, GraphMatError
from .kernels import (_VXM_CHUNK_PRODUCTS, _check_domains,
                      _check_index_vector, _vxm, ewise_add, ewise_mult, mxm)
from .matrix import SparseMatrix, transpose

_MINPLUS = semiring_by_name("min-plus")
_ARITH = semiring_by_name("arith-real")
# parent product: each frontier entry holds its own vertex id, "first"
# carries it along every edge, never reading A's values, and min keeps
# the smallest id per reached vertex (SuiteSparse's ANY_SECONDI with a
# deterministic add)
_FIRST = BinaryOp("first", lambda x, y: x, lambda x, y: x)
_MIN_FIRST = Semiring("min-first", REAL, OP_MIN, _FIRST, math.inf, None)
# reachability over GF(2): the parity of the frontier edges leading in
_XOR_FIRST = Semiring("xor-first", BOOL, OP_XOR, _FIRST, 0, None)
# an SSSP round's budget: nnz(A) // _ROUND_SHARE out-edges, at least one
# accumulator chunk, and none on graphs of at most twice that, where it
# defers too few. Against no budget, with weights 1-255 (2-vCPU AVX-512
# host): R-MAT scale 13 x0.70, 11 x0.82, 10 x0.88, 9 x1.01 (x1.08 capped
# at one chunk); 1/6 and 1/8 read the same within noise
_ROUND_SHARE = 4


@dataclass
class GraphHandle:
    """Adjacency and/or incidence-pair view of one graph."""

    adjacency: SparseMatrix | None = None
    incidence_out: SparseMatrix | None = None
    incidence_in: SparseMatrix | None = None
    directed: bool = True

    def __post_init__(self):
        if (self.incidence_out is None) != (self.incidence_in is None) or (
                self.adjacency is None and self.incidence_out is None):
            raise GraphMatError("a graph handle holds an adjacency matrix, "
                                "an incidence pair, or both")

    @property
    def vertex_count(self):
        if self.adjacency is not None:
            return self.adjacency.nrows
        return self.incidence_out.ncols

    @property
    def edge_count(self):
        if self.incidence_out is not None:
            return self.incidence_out.nrows
        return self.adjacency.nnz

    def check_consistent(self, sr: Semiring) -> bool:
        """If both views are present, the adjacency must equal the
        incidence projection E_out^T E_in."""
        if self.adjacency is None or self.incidence_out is None:
            return True
        if self.incidence_out.nrows != self.incidence_in.nrows:
            return False
        return adjacency_from_incidence(
            sr, self.incidence_out, self.incidence_in) == self.adjacency


@dataclass
class BfsResult:
    """Hop counts (None = unreached) and optional predecessor tree."""

    levels: list
    parents: list | None = None


def adjacency_from_incidence(sr: Semiring, e_out: SparseMatrix,
                             e_in: SparseMatrix) -> SparseMatrix:
    """Project an incidence pair to an adjacency matrix: E_out^T E_in.

    Multi-edges combine through the semiring's add; a hyper-edge with h
    in-vertices contributes h adjacency entries per out-vertex.
    """
    if e_out.nrows != e_in.nrows:
        raise DimensionError("incidence matrices disagree on edge count",
                             expected=f"{e_out.nrows} edges",
                             actual=f"{e_in.nrows} edges")
    return mxm(sr, transpose(e_out), e_in)


def laplacian_from_incidence(e_signed: SparseMatrix) -> SparseMatrix:
    """Graph Laplacian E^T E from a signed incidence matrix.

    Each row must hold exactly one -1 (out-vertex) and one +1
    (in-vertex); the product has vertex degrees on the diagonal and
    negative edge multiplicities off it.
    """
    if e_signed.domain.name != "real":
        raise DomainError("signed incidence must be over the real domain")
    ok = np.diff(e_signed.indptr) == 2
    first = e_signed.indptr[:-1][ok]
    x, y = e_signed.values[first], e_signed.values[first + 1]
    ok[ok] = (np.abs(x) == 1) & (x + y == 0)
    if not ok.all():
        k = int(np.argmin(ok))
        raise GraphMatError(f"incidence row {k} is not one -1 and one +1")
    return mxm(_ARITH, transpose(e_signed), e_signed)


def bfs_levels(a: SparseMatrix, sources, max_hops=None,
               with_parents=True, gf2=False) -> BfsResult:
    """Multi-source BFS, one masked product per hop over the complement
    of a visited bitmap.

    Each hop is f <- f A by `_vxm`, which pushes over the frontier's
    out-edges or pulls over the unvisited vertices' in-edges in A's
    cached transpose (direction-optimizing: Beamer, Asanovic &
    Patterson, SC'12). Each frontier entry carries its own vertex id
    through a (min, first) product, so every reached vertex gets its
    smallest-id predecessor one level up as parent from the hop that
    reaches it, in either direction. gf2=True decides reachability with
    xor instead, where even edge multiplicities cancel; parents then
    take a second product per hop, masked by the vertices reached.
    """
    level, parent = _bfs(a, sources, max_hops, gf2)
    return BfsResult(levels=_unset_to_none(level),
                     parents=_unset_to_none(parent) if with_parents else None)


def _bfs(a, sources, max_hops, gf2):
    """bfs_levels' levels and parents as int64 arrays, -1 where unset."""
    if a.nrows != a.ncols:
        raise DimensionError("BFS needs a square adjacency matrix",
                             expected=f"{a.nrows}x{a.nrows}",
                             actual=f"{a.nrows}x{a.ncols}")
    n = a.nrows
    frontier = np.unique(_check_index_vector(list(sources), n, "source"))
    if not len(frontier):
        raise GraphMatError("no source vertex given")
    if max_hops is None:
        max_hops = n
    elif max_hops < 0:
        raise GraphMatError(f"max_hops {max_hops} is below 0")
    level = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    level[frontier] = 0
    visited = np.zeros(n, dtype=bool)
    visited[frontier] = True
    hop = 0
    while len(frontier) and hop < max_hops:
        hop += 1
        mask, complement = visited, True
        if gf2:  # reached: an odd number of frontier edges lead in
            ones = np.broadcast_to(BOOL.dtype(1), len(frontier))  # a view
            odd, _ = _vxm(_XOR_FIRST, frontier, ones, a, visited, True)
            mask, complement = np.zeros(n, dtype=bool), False
            mask[odd] = True
        frontier, ids = _vxm(_MIN_FIRST, frontier, frontier.astype(
            np.float64), a, mask, complement)
        visited[frontier] = True
        level[frontier] = hop
        parent[frontier] = ids
    return level, parent


def _unset_to_none(arr):
    out = arr.astype(object)
    out[arr < 0] = None
    return out.tolist()


def sssp_minplus(a: SparseMatrix, source) -> list:
    """Single-source shortest paths over min-plus.

    Relaxation d<min>= d A, folded into d in place by `_vxm`, over the
    pending vertices: those whose distance changed and whose out-edges
    were not yet relaxed at it. A round relaxes them all if their
    out-edges fit a budget, else the nearest first up to it, and the
    rest wait (near before far, as in delta-stepping: Sridhar et al.,
    IPDPSW'19). The nearest pending distance is final, so each round
    settles a vertex: at most as many rounds as reachable vertices.
    Float addition is monotone, so every order gives the same
    distances, bit for bit. Weights must be non-negative; the implicit
    zero is +inf.
    """
    return _sssp(a, source).tolist()


def _sssp(a, source):
    """sssp_minplus' distances as a float64 array."""
    if a.nrows != a.ncols:
        raise DimensionError("SSSP needs a square adjacency matrix",
                             expected=f"{a.nrows}x{a.nrows}",
                             actual=f"{a.nrows}x{a.ncols}")
    source = int(_check_index_vector([source], a.nrows, "source")[0])
    if a.nnz and float(a.values.min()) < 0:
        raise DomainError("negative edge weight in min-plus SSSP")
    _check_domains(_MINPLUS.domain, a)
    n = a.nrows
    dist = np.full(n, math.inf)
    dist[source] = 0.0
    budget = max(a.nnz // _ROUND_SHARE, _VXM_CHUNK_PRODUCTS)
    degree = np.diff(a.indptr)
    # a round passes the budget only if its out-degrees can (0: never)
    top = int(degree.max()) if a.nnz > 2 * budget else 0
    pending, waiting = np.array([source]), ()
    while len(pending):
        if len(pending) * top > budget and degree[pending].sum() > budget:
            near = pending[dist[pending].argsort()]  # nearest first
            k = max(1, int((degree[near].cumsum() <= budget).sum()))
            pending, waiting = np.sort(near[:k]), near[k:]
        pending = _vxm(_MINPLUS, pending, dist[pending], a, into=dist)[0]
        if len(waiting):  # merged as one ascending set
            merged = np.zeros(n, dtype=bool)
            merged[waiting] = merged[pending] = True
            pending, waiting = merged.nonzero()[0], ()
    return dist


def graph_union(sr: Semiring, a: SparseMatrix,
                b: SparseMatrix) -> SparseMatrix:
    """Edge union with weights combined by the semiring's add."""
    return ewise_add(sr.add, sr.zero, a, b)


def graph_intersection(sr: Semiring, a: SparseMatrix,
                       b: SparseMatrix) -> SparseMatrix:
    """Edge intersection with weights scaled by the semiring's mul."""
    return ewise_mult(sr.mul, sr.zero, a, b)
