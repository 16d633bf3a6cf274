"""Graph algorithms composed from the semiring kernels.

Adjacency rows are out-vertices: A(i, j) stored means an edge i -> j.
Frontier expansion is therefore the row-vector product f A (`_vxm`, on
the frontier's arrays), which reads only the out-edges of the frontier
and lands on the in-vertices, or, for a BFS hop with a large frontier,
the same product pulled as A^T f (`mxv`) over the unvisited in-edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import BOOL, OP_MIN, REAL, BinaryOp, Semiring, semiring_by_name
from .errors import DimensionError, DomainError, GraphMatError, IndexBoundsError
from .kernels import (_check_domains, _positions, _vxm, ewise_add,
                      ewise_mult, mxm, mxv)
from .matrix import SparseMatrix, transpose

_GF2_SR = semiring_by_name("xor-and")
_MINPLUS = semiring_by_name("min-plus")
_ARITH = semiring_by_name("arith-real")
# parent product: each frontier entry holds its own vertex id, "first"
# carries it along every out-edge, and min keeps the smallest id per
# reached vertex (SuiteSparse's ANY_SECONDI with a deterministic add)
_FIRST = BinaryOp("first", lambda x, y: x, lambda x, y: x,
                  commutative=False)
_MIN_FIRST = Semiring("min-first", REAL, OP_MIN, _FIRST, math.inf, None)
# the same for a pull, where the frontier is the right operand
_SECOND = BinaryOp("second", lambda x, y: y, lambda x, y: y,
                   commutative=False)
_MIN_SECOND = Semiring("min-second", REAL, OP_MIN, _SECOND, math.inf, None)
# a BFS hop pulls once the frontier's out-edges, what a push reads,
# exceed 1/_PULL_ALPHA of what a pull reads: the unvisited vertices'
# in-edges, plus n for its passes over bitmaps, plus _PULL_CALLS for
# its fixed numpy calls (about 150 us at 15-25 ns a read, timed at
# scale 13); a push product and a pull read cost about the same
_PULL_ALPHA = 1
_PULL_CALLS = 1 << 13


@dataclass
class GraphHandle:
    """Adjacency and/or incidence-pair view of one graph."""

    adjacency: SparseMatrix | None = None
    incidence_out: SparseMatrix | None = None
    incidence_in: SparseMatrix | None = None
    directed: bool = True

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


def _ones(domain, k):
    """k ones of `domain` as a broadcast view, not a k-sized array."""
    return np.broadcast_to(domain.dtype(1), k)


def _pattern(a, domain):
    """The structure of `a` over `domain`: every stored entry reads 1."""
    return SparseMatrix(a.nrows, a.ncols, a.indptr, a.indices,
                        _ones(domain, a.nnz), domain)


def _col(n, idx, vals, domain):
    """n x 1 column vector storing `vals` at the sorted positions `idx`."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[idx + 1] = 1
    return SparseMatrix(n, 1, indptr.cumsum(),
                        np.zeros(len(idx), dtype=np.int64), vals, domain)


def bfs_levels(a: SparseMatrix, sources, max_hops=None,
               with_parents=True, gf2=False) -> BfsResult:
    """Multi-source BFS, one masked product per hop over the complement
    of a visited bitmap (direction-optimizing: Beamer, Asanovic &
    Patterson, SC'12).

    A hop pushes, f <- f A with `_vxm` over the frontier's out-edges,
    while those number at most 1/_PULL_ALPHA of what a pull would read;
    otherwise it pulls, f <- A^T f with `mxv` over the in-edges of the
    unvisited vertices only. A pull reads A's cached
    transpose, built on the first pull (A itself when A is symmetric).
    Each frontier entry carries its own vertex id through a (min, first)
    push or (min, second) pull, so every reached vertex gets its
    smallest-id predecessor one level up as parent from the hop that
    reaches it, in either direction. gf2=True decides reachability with
    xor-and instead, where even edge multiplicities cancel; parents then
    take a second product per hop, masked by the vertices reached.
    """
    if a.nrows != a.ncols:
        raise DimensionError("BFS needs a square adjacency matrix",
                             expected=f"{a.nrows}x{a.nrows}",
                             actual=f"{a.nrows}x{a.ncols}")
    n = a.nrows
    sources = list(sources)
    for s in sources:
        if not 0 <= s < n:
            raise IndexBoundsError(f"source {s} outside [0, {n})")
    if max_hops is None:
        max_hops = n
    level = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    level[frontier] = 0
    visited = np.zeros(n, dtype=bool)
    visited[frontier] = True
    out_deg = np.diff(a.indptr)
    # in-degrees, estimated by the out-degrees until A^T is cached
    at = a._transposed(build=False)
    in_deg = out_deg if at is None else np.diff(at.indptr)
    unvisited_edges = int(in_deg.sum() - in_deg[frontier].sum())
    push = (_vxm, _MIN_FIRST, _pattern(a, REAL), _pattern(a, BOOL))
    pull = None
    hop = 0
    while len(frontier) and hop < max_hops:
        hop += 1
        pull_reads = unvisited_edges + n + _PULL_CALLS
        if _PULL_ALPHA * int(out_deg[frontier].sum()) <= pull_reads:
            product, by_id, ids_a, bits_a = push
        else:
            if pull is None:
                at = a._transposed()
                pull = (_pull, _MIN_SECOND, _pattern(at, REAL),
                        _pattern(at, BOOL))
                in_deg = np.diff(at.indptr)
                unvisited_edges = int(in_deg[~visited].sum())
            product, by_id, ids_a, bits_a = pull
        mask, complement = visited, True
        if gf2:  # reached: an odd number of frontier edges lead in
            odd, _ = product(_GF2_SR, frontier, _ones(BOOL, len(frontier)),
                             bits_a, visited, True)
            mask, complement = np.zeros(n, dtype=bool), False
            mask[odd] = True
        frontier, ids = product(by_id, frontier, frontier.astype(np.float64),
                                ids_a, mask, complement)
        visited[frontier] = True
        unvisited_edges -= int(in_deg[frontier].sum())
        level[frontier] = hop
        parent[frontier] = ids
    return BfsResult(levels=_unset_to_none(level),
                     parents=_unset_to_none(parent) if with_parents else None)


def _pull(sr, ids, x, at, mask=None, complement=False):
    """`_vxm` as (A^T f)^T with `mxv`, read over the rows of A^T that the
    mask keeps: f stores `x` at `ids`."""
    up = mxv(sr, at, _col(at.ncols, ids, x, sr.domain), mask, complement)
    return _positions(up), up.values


def _unset_to_none(arr):
    out = arr.astype(object)
    out[arr < 0] = None
    return out.tolist()


def sssp_minplus(a: SparseMatrix, source) -> list:
    """Single-source shortest paths over min-plus.

    Bellman-Ford style relaxation d <- min(d, d A) until fixpoint or
    n - 1 rounds. Each round relaxes only the out-edges of the vertices
    whose distance changed in the round before; every other vertex was
    relaxed at its present distance already, so the rounds and the
    distances are those of relaxing every vertex each time. Weights must
    be non-negative; the implicit zero is +inf.
    """
    if a.nrows != a.ncols:
        raise DimensionError("SSSP needs a square adjacency matrix",
                             expected=f"{a.nrows}x{a.nrows}",
                             actual=f"{a.nrows}x{a.ncols}")
    if not 0 <= source < a.nrows:
        raise IndexBoundsError(f"source {source} outside [0, {a.nrows})")
    if a.nnz and float(a.values.min()) < 0:
        raise DomainError("negative edge weight in min-plus SSSP")
    _check_domains(_MINPLUS.domain, a)
    n = a.nrows
    dist = np.full(n, math.inf)
    dist[source] = 0.0
    changed = np.array([source], dtype=np.int64)
    for _ in range(max(n - 1, 1)):
        cols, vals = _vxm(_MINPLUS, changed, dist[changed], a)
        better = vals < dist[cols]
        changed = cols[better]
        if not len(changed):
            break
        dist[changed] = vals[better]
    return dist.tolist()


def graph_union(sr: Semiring, a: SparseMatrix,
                b: SparseMatrix) -> SparseMatrix:
    """Edge union with weights combined by the semiring's add."""
    return ewise_add(sr.add, sr.zero, a, b)


def graph_intersection(sr: Semiring, a: SparseMatrix,
                       b: SparseMatrix) -> SparseMatrix:
    """Edge intersection with weights scaled by the semiring's mul."""
    return ewise_mult(sr.mul, sr.zero, a, b)
