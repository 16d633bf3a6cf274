"""Seeded benchmark inputs, generated and written without graphmat.

Nothing here imports graphmat, so a change to the library (its R-MAT
generator in ``graphmat.bench`` or its file writers in
``graphmat.fileio`` included) cannot change what a workload runs on.
Every generator takes a ``numpy.random.Generator`` made from the
benchmark's ``--seed``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Graph500 R-MAT quadrant probabilities (d = 1 - a - b - c)
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19
MAX_WEIGHT = 255


@dataclass
class Triples:
    """COO entries of an n x m matrix; duplicates allowed."""

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(np.array([self.nrows, self.ncols], dtype=np.int64).tobytes())
        for arr in (self.rows, self.cols, self.vals):
            h.update(np.ascontiguousarray(arr).tobytes())
        return (f"vertices={self.nrows} entries={len(self.rows)} "
                f"sha256={h.hexdigest()[:16]}")


def rmat_edges(rng, scale, edge_factor):
    """Directed R-MAT edge endpoints (with self-loops and repeats)."""
    m = edge_factor << scale
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(m)
        down = r >= RMAT_A + RMAT_B
        right = ((r >= RMAT_A) & (r < RMAT_A + RMAT_B)) | (
            r >= RMAT_A + RMAT_B + RMAT_C)
        u = (u << 1) | down
        v = (v << 1) | right
    return u, v


def weights(rng, count):
    """Integer weights 1..255 stored as float, so every reference
    comparison is exact."""
    return rng.integers(1, MAX_WEIGHT + 1, count).astype(np.float64)


def symmetrised_rmat(rng, scale, edge_factor) -> Triples:
    """Undirected R-MAT multigraph without self-loops: each generated
    edge {u, v} with weight w appears as (u, v, w) and (v, u, w)."""
    u, v = rmat_edges(rng, scale, edge_factor)
    w = weights(rng, len(u))
    keep = u != v
    u, v, w = u[keep], v[keep], w[keep]
    n = 1 << scale
    return Triples(n, n, np.concatenate([u, v]), np.concatenate([v, u]),
                   np.concatenate([w, w]))


def directed_rmat(rng, scale, edge_factor) -> Triples:
    """Directed R-MAT multigraph without self-loops."""
    u, v = rmat_edges(rng, scale, edge_factor)
    w = weights(rng, len(u))
    keep = u != v
    n = 1 << scale
    return Triples(n, n, u[keep], v[keep], w[keep])


def grid(rng, side) -> Triples:
    """side x side 4-neighbour grid, vertex r * side + c, one weight
    per undirected edge."""
    idx = np.arange(side * side, dtype=np.int64).reshape(side, side)
    u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    w = weights(rng, len(u))
    n = side * side
    return Triples(n, n, np.concatenate([u, v]), np.concatenate([v, u]),
                   np.concatenate([w, w]))


def grid_eccentricity(side):
    """Hop eccentricity of every grid vertex (the farthest corner)."""
    r = np.arange(side)
    far = np.maximum(r, side - 1 - r)
    return (far[:, None] + far[None, :]).ravel()


def partition(rng, n, groups) -> Triples:
    """n x groups matrix with one 1.0 per row: vertex -> its group."""
    return Triples(n, groups, np.arange(n, dtype=np.int64),
                   rng.integers(0, groups, n).astype(np.int64),
                   np.ones(n, dtype=np.float64))


@dataclass
class HyperEdge:
    out: list
    inn: list
    weight: int


def hyper_edges(rng, n_vertices, count):
    """A third each of plain, comma-group and labeled edge records.

    Vertex groups hold distinct vertices, so no incidence entry is
    written twice.
    """
    edges = []
    for k in range(count):
        kind = k % 3
        if kind == 0:
            outs = inns = 1
        else:
            outs, inns = (int(x) for x in rng.integers(1, 4, 2))
        group = rng.choice(n_vertices, outs + inns, replace=False)
        edges.append(HyperEdge([int(x) for x in group[:outs]],
                               [int(x) for x in group[outs:]],
                               int(rng.integers(1, MAX_WEIGHT + 1))))
    return edges


def hyper_text(edges) -> str:
    lines = ["# plain, comma-group and labeled hyper-edges"]
    for k, e in enumerate(edges):
        outs = ",".join(map(str, e.out))
        inns = ",".join(map(str, e.inn))
        if k % 3 == 2:
            lines.append(f"e{k}: out={outs} in={inns} w={e.weight}")
        else:
            lines.append(f"{outs}\t{inns}\t{e.weight}")
    return "\n".join(lines) + "\n"


def tsv_text(t: Triples, with_weights=True) -> str:
    """One line per triple, 0-based, duplicates kept as repeated lines."""
    cols = [t.rows.astype(str), t.cols.astype(str)]
    if with_weights:
        cols.append(t.vals.astype(np.int64).astype(str))
    return "".join("\t".join(f) + "\n" for f in zip(*cols))


def mm_text(nrows, ncols, rows, cols, vals) -> str:
    """Matrix Market coordinate real general, 1-based, integer values."""
    body = "".join(
        f"{r} {c} {v}\n" for r, c, v in zip((rows + 1).tolist(), (cols + 1).tolist(),
                           vals.astype(np.int64).tolist()))
    return ("%%MatrixMarket matrix coordinate real general\n"
            f"{nrows} {ncols} {len(rows)}\n" + body)


def text_fingerprint(text: str) -> str:
    return (f"bytes={len(text)} lines={text.count(chr(10))} "
            f"sha256={hashlib.sha256(text.encode()).hexdigest()[:16]}")
