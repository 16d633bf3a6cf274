"""The four workloads.

Every workload runs the same four families of timed operation, so every
end-to-end metric exists on every workload: library BFS and SSSP, an
``mxm``, and a CLI run from file to answer. The input's shape and the
mix of operations decide which layer does most of the work:

* ``traverse-rmat``: BFS with parents and SSSP from seeded roots of a
  scale-13 R-MAT graph. A few hops with large frontiers; kernel- and
  parents-loop-bound.
* ``traverse-grid``: the same calls on a 48 x 48 grid, a road-like graph
  of high diameter. Many hops with tiny frontiers; hop-bound, so a
  per-hop cost in O(nnz(A)) shows.
* ``multiply``: ``mxm`` A.A in arith-real, min-plus and arith-natural,
  then ``ewise_add``/``ewise_mult``/``transpose``/``extract``/``assign``
  on a directed scale-13 graph and a Laplacian from a signed incidence.
  Expand/sort/fold- and memory-bound.
* ``ingest``: the CLI on a raw scale-11 multi-edge TSV (``bfs``, ``build``
  to ``.mtx``, ``sssp`` from that ``.mtx``) and ``adjacency`` on a
  hyper-edge file of plain, comma-group and labeled lines. Parse-bound.

Outside its main family a workload runs a small probe of each other
family (a few BFS/SSSP roots, an A.P coarsening product, a CLI call),
so that a change aimed at one layer shows what it costs elsewhere.

Operations go through module attributes at call time
(``self.gm.bfs_levels``, ``self.cli.main``) so the tracer's wrappers see
them. Checks read only result attributes and call no graphmat function.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import inputs, reference as ref
from .inputs import Triples

EDGE_FACTOR = 16
# A probe mxm takes a few milliseconds and a CLI probe about a hundred; each
# runs more than once per pass, so that its median over the run rests on
# more samples than one per pass.
PROBE_REPEATS = 5
CLI_PROBE_REPEATS = 2


@dataclass(frozen=True)
class Sizes:
    traverse_scale: int = 13
    traverse_roots: int = 3
    small_scale: int = 9       # CLI probe graph and the natural mxm input
    grid_side: int = 48
    grid_roots: int = 3
    mxm_scale: int = 11
    struct_scale: int = 13
    ingest_scale: int = 11
    hyper_records: int = 4096
    probe_roots: int = 3
    groups: int = 64
    sample_rows: int = 32


FULL = Sizes()
TOY = Sizes(traverse_scale=8, traverse_roots=3, small_scale=6, grid_side=16,
            grid_roots=3, mxm_scale=8, struct_scale=9, ingest_scale=8,
            hyper_records=64, probe_roots=2, groups=8, sample_rows=8)


@dataclass
class Op:
    """One timed operation of a workload's fixed list."""

    kind: str                       # bfs, sssp, mxm, cli or op
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    work: int = 0  # entries reached (bfs, sssp), products (mxm), entries read (cli)


def products(a, b) -> int:
    """Expanded products of a.b: over a's entries, b's row lengths."""
    return int(np.diff(b.indptr)[a.indices].sum())


def canonical(m):
    m = m.tocsr()
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def file_vertices(t: Triples) -> int:
    """Vertex count the CLI infers from an edge file: largest id + 1."""
    return int(max(t.rows.max(), t.cols.max())) + 1


def hub(a) -> int:
    """Vertex of largest degree, smallest id on ties."""
    return int(np.argmax(np.diff(a.indptr)))


class Workload:
    name = ""

    def __init__(self, gm, sizes: Sizes, seed: int, workdir: Path):
        self.gm = gm
        self.cli = gm.cli
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.fingerprints = []
        self.arith = gm.semiring_by_name("arith-real")
        self.minplus = gm.semiring_by_name("min-plus")

    def rng(self, stream):
        return np.random.default_rng([self.seed, stream])

    def setup(self):
        """Generate inputs, build matrices, write files (timed)."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        """Compute references (untimed) and return the fixed op list."""
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------

    def note(self, label, fingerprint):
        self.fingerprints.append(f"{label}: {fingerprint}")

    def write(self, name, text) -> str:
        path = self.workdir / name
        path.write_text(text)
        self.note(name, inputs.text_fingerprint(text))
        return str(path)

    def build(self, sr, t: Triples):
        vals = t.vals
        if sr.domain.dtype is object:  # arith-natural holds Python ints
            vals = vals.astype(np.int64).tolist()
        return self.gm.build(sr, (t.nrows, t.ncols), (t.rows, t.cols, vals))

    def traversal_ops(self, a, a_ref, roots) -> list[Op]:
        """BFS with parents and SSSP from each root, checked against
        scipy BFS and Dijkstra."""
        out = []
        for r in roots:
            bref, dref = ref.bfs_ref(a_ref, r), ref.sssp_ref(a_ref, r)
            out.append(Op("bfs", f"bfs {r}",
                          lambda r=r: self.gm.bfs_levels(a, [r],
                                                         with_parents=True),
                          lambda res, b=bref: ref.check_bfs(res, b),
                          bref.reached_entries))
            out.append(Op("sssp", f"sssp {r}",
                          lambda r=r: self.gm.sssp_minplus(a, r),
                          lambda res, d=dref: ref.check_sssp(res, d),
                          bref.reached_entries))
        return out

    def mxm_op(self, label, sr, a, b, expect: Callable[[object], bool],
               work) -> Op:
        return Op("mxm", label, lambda: self.gm.mxm(sr, a, b), expect, work)

    def cli_op(self, argv, check, entries_read) -> Op:
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                status = self.cli.main(argv)
            if status != 0:
                raise RuntimeError(f"exit {status}: {err.getvalue().strip()}")
            return out.getvalue()
        return Op("cli", "graphmat " + " ".join(
            Path(a).name if "/" in a else a for a in argv),
            run, check, entries_read)

    def seeded_roots(self, a_ref, count, rng):
        giant = ref.giant_component(a_ref)
        return [int(r) for r in rng.choice(giant, min(count, len(giant)),
                                           replace=False)]

    def coarsen(self, n, rng):
        """Partition matrix P (n x groups) for the A.P probe product."""
        t = inputs.partition(rng, n, self.sizes.groups)
        self.note("partition", t.fingerprint())
        return t, self.build(self.arith, t)


class TraverseRmat(Workload):
    name = "traverse-rmat"

    def setup(self):
        s = self.sizes
        rng = self.rng(1)
        self.t = inputs.symmetrised_rmat(rng, s.traverse_scale, EDGE_FACTOR)
        self.note("rmat", self.t.fingerprint())
        self.a = self.build(self.minplus, self.t)
        self.a_ref = ref.coalesced(self.t, "min")
        self.roots = self.seeded_roots(self.a_ref, s.traverse_roots, rng)
        self.p_t, self.p = self.coarsen(self.t.nrows, rng)
        self.small = inputs.symmetrised_rmat(rng, s.small_scale, EDGE_FACTOR)
        self.small_path = self.write(
            "small.tsv", inputs.tsv_text(self.small, with_weights=False))

    def ops(self):
        ops = self.traversal_ops(self.a, self.a_ref, self.roots)
        p_ref = ref.coalesced(self.p_t)
        ap = canonical(self.a_ref @ p_ref)
        ops += [self.mxm_op("mxm A.P", self.arith, self.a, self.p,
                            lambda m: ref.check_matrix(m, ap),
                            products(self.a_ref, p_ref))] * PROBE_REPEATS
        n = file_vertices(self.small)
        small_ref = ref.coalesced(Triples(n, n, self.small.rows,
                                          self.small.cols, self.small.vals))
        src = hub(small_ref)
        bref = ref.bfs_ref(small_ref, src)
        ops += [self.cli_op(["bfs", self.small_path, "--source", str(src)],
                            lambda out: ref.check_bfs_stdout(out, bref),
                            len(self.small.rows))] * CLI_PROBE_REPEATS
        return ops


class TraverseGrid(Workload):
    name = "traverse-grid"

    def setup(self):
        s = self.sizes
        rng = self.rng(2)
        self.t = inputs.grid(rng, s.grid_side)
        self.note("grid", self.t.fingerprint())
        self.a = self.build(self.minplus, self.t)
        self.a_ref = ref.coalesced(self.t, "min")
        # the corner, plus interior roots that all sit the same number of
        # hops from their farthest vertex, so every seed does equal work
        ecc = inputs.grid_eccentricity(s.grid_side)
        ring = np.flatnonzero(ecc == (s.grid_side - 1) + (s.grid_side - 1) // 2)
        self.roots = [0] + [int(r) for r in
                            rng.choice(ring, s.grid_roots - 1, replace=False)]
        self.p_t, self.p = self.coarsen(self.t.nrows, rng)
        coo = self.a_ref.tocoo()
        self.mtx_path = self.write("grid.mtx", inputs.mm_text(
            self.t.nrows, self.t.ncols, coo.row.astype(np.int64),
            coo.col.astype(np.int64), coo.data))

    def ops(self):
        ops = self.traversal_ops(self.a, self.a_ref, self.roots)
        p_ref = ref.coalesced(self.p_t)
        ap = canonical(self.a_ref @ p_ref)
        ops += [self.mxm_op("mxm A.P", self.arith, self.a, self.p,
                            lambda m: ref.check_matrix(m, ap),
                            products(self.a_ref, p_ref))] * PROBE_REPEATS
        dref = ref.sssp_ref(self.a_ref, 0)
        ops += [self.cli_op(["sssp", self.mtx_path, "--source", "0"],
                            lambda out: ref.check_sssp_stdout(out, dref),
                            self.a_ref.nnz)] * CLI_PROBE_REPEATS
        return ops


class Multiply(Workload):
    name = "multiply"

    def setup(self):
        s = self.sizes
        rng = self.rng(3)
        natural = self.gm.semiring_by_name("arith-natural")
        self.t = inputs.symmetrised_rmat(rng, s.mxm_scale, EDGE_FACTOR)
        self.note("rmat", self.t.fingerprint())
        self.a = self.build(self.arith, self.t)
        self.a_ref = ref.coalesced(self.t)
        self.roots = self.seeded_roots(self.a_ref, s.probe_roots, rng)

        self.nat_t = inputs.symmetrised_rmat(rng, s.small_scale, EDGE_FACTOR)
        self.note("natural", self.nat_t.fingerprint())
        self.nat = self.build(natural, self.nat_t)
        self.natural = natural

        d = inputs.directed_rmat(rng, s.struct_scale, EDGE_FACTOR)
        self.note("directed", d.fingerprint())
        self.d_t = d
        self.dt_t = Triples(d.ncols, d.nrows, d.cols, d.rows, d.vals)
        self.d = self.build(self.arith, d)
        self.dt = self.build(self.arith, self.dt_t)
        self.even = np.arange(0, d.nrows, 2, dtype=np.int64)
        both = (self.dt_t.rows % 2 == 0) & (self.dt_t.cols % 2 == 0)
        half = len(self.even)
        self.sub_t = Triples(half, half, self.dt_t.rows[both] // 2,
                             self.dt_t.cols[both] // 2, self.dt_t.vals[both])
        self.sub = self.build(self.arith, self.sub_t)

        # signed incidence of the undirected edges (the first half of t)
        m = len(self.t.rows) // 2
        k = np.arange(m, dtype=np.int64)
        self.e_t = Triples(m, self.t.ncols, np.concatenate([k, k]),
                           np.concatenate([self.t.rows[:m], self.t.cols[:m]]),
                           np.concatenate([-np.ones(m), np.ones(m)]))
        self.e = self.build(self.arith, self.e_t)

        nat_ref = ref.coalesced(self.nat_t).tocoo()
        self.mtx_path = self.write("small.mtx", inputs.mm_text(
            self.nat_t.nrows, self.nat_t.ncols, nat_ref.row.astype(np.int64),
            nat_ref.col.astype(np.int64), nat_ref.data))

    def ops(self):
        s = self.sizes
        a_ref = self.a_ref
        aa = canonical(a_ref @ a_ref)
        rows = self.rng(30).choice(a_ref.shape[0], s.sample_rows,
                                   replace=False).tolist() + [hub(a_ref)]
        mp_rows = ref.minplus_rows(a_ref, a_ref, rows)
        nat_ref = ref.coalesced(self.nat_t).astype(np.int64)
        nn = canonical(nat_ref @ nat_ref)
        d_ref = ref.coalesced(self.d_t)
        dt_ref = ref.coalesced(self.dt_t)
        sub_ref = ref.coalesced(self.sub_t)
        ev = self.even
        # assign: D with its even x even block replaced by the sub-matrix
        dcoo, sub = d_ref.tocoo(), sub_ref.tocoo()
        outside = (dcoo.row % 2 == 1) | (dcoo.col % 2 == 1)
        assigned = ref.coalesced(Triples(
            self.d_t.nrows, self.d_t.ncols,
            np.concatenate([dcoo.row[outside], 2 * sub.row]).astype(np.int64),
            np.concatenate([dcoo.col[outside], 2 * sub.col]).astype(np.int64),
            np.concatenate([dcoo.data[outside], sub.data])))
        e_ref = ref.coalesced(self.e_t)
        lap = canonical(e_ref.T @ e_ref)
        gm, ar = self.gm, self.arith
        exp = {
            "add": canonical(d_ref + dt_ref),
            "mult": canonical(d_ref.multiply(dt_ref)),
            "transpose": canonical(d_ref.T),
            "extract": canonical(d_ref[ev][:, ev]),
        }
        ops = [
            self.mxm_op("mxm arith-real A.A", ar, self.a, self.a,
                        lambda m: ref.check_matrix(m, aa),
                        products(a_ref, a_ref)),
            self.mxm_op("mxm min-plus A.A", self.minplus, self.a, self.a,
                        lambda m: (ref.same_pattern(m, aa)
                                   and ref.check_rows(m, mp_rows)),
                        products(a_ref, a_ref)),
            self.mxm_op("mxm arith-natural A.A", self.natural, self.nat,
                        self.nat, lambda m: ref.check_matrix(m, nn),
                        products(nat_ref, nat_ref)),
            Op("op", "transpose", lambda: gm.transpose(self.d),
               lambda m: ref.check_matrix(m, exp["transpose"])),
            Op("op", "ewise_add", lambda: gm.ewise_add(ar.add, ar.zero,
                                                      self.d, self.dt),
               lambda m: ref.check_matrix(m, exp["add"])),
            Op("op", "ewise_mult", lambda: gm.ewise_mult(ar.mul, ar.zero,
                                                        self.d, self.dt),
               lambda m: ref.check_matrix(m, exp["mult"])),
            Op("op", "extract", lambda: gm.extract(self.d, ev, ev),
               lambda m: ref.check_matrix(m, exp["extract"])),
            Op("op", "assign", lambda: gm.assign(self.d, ev, ev, self.sub),
               lambda m: ref.check_matrix(m, assigned)),
            Op("op", "laplacian", lambda: gm.laplacian_from_incidence(self.e),
               lambda m: ref.check_matrix(m, lap)),
        ]
        ops += self.traversal_ops(self.a, a_ref, self.roots)
        ops += [self.cli_op(["mxm", self.mtx_path, self.mtx_path],
                            lambda out: ref.check_shape_line(out, nn),
                            2 * nat_ref.nnz)] * CLI_PROBE_REPEATS
        return ops


class Ingest(Workload):
    name = "ingest"

    def setup(self):
        s = self.sizes
        rng = self.rng(4)
        self.t = inputs.symmetrised_rmat(rng, s.ingest_scale, EDGE_FACTOR)
        self.n = file_vertices(self.t)
        self.tsv = self.write("raw.tsv", inputs.tsv_text(self.t))
        self.mtx = str(self.workdir / "raw.mtx")
        self.g_t = Triples(self.n, self.n, self.t.rows, self.t.cols,
                           self.t.vals)
        self.g = self.build(self.arith, self.g_t)
        self.g_ref = ref.coalesced(self.g_t)
        self.hub = hub(self.g_ref)
        self.roots = [self.hub] + self.seeded_roots(
            self.g_ref, s.probe_roots - 1, rng)

        self.edges = inputs.hyper_edges(rng, 1 << s.ingest_scale,
                                        s.hyper_records)
        self.hyper = self.write("hyper.tsv", inputs.hyper_text(self.edges))
        self.adj = str(self.workdir / "adj.mtx")
        outs, ins = [], []
        for k, e in enumerate(self.edges):
            outs += [(u, k, 1.0) for u in e.out]
            ins += [(k, v, float(e.weight)) for v in e.inn]
        nh = 1 + max(max(max(e.out), max(e.inn)) for e in self.edges)
        m = len(self.edges)
        self.eo_t = Triples(nh, m, *(np.array(x) for x in zip(*outs)))
        self.ei_t = Triples(m, nh, *(np.array(x) for x in zip(*ins)))
        self.eo = self.build(self.arith, self.eo_t)
        self.ei = self.build(self.arith, self.ei_t)

    def ops(self):
        g_ref = self.g_ref
        bref = ref.bfs_ref(g_ref, self.hub)
        dref = ref.sssp_ref(g_ref, self.hub)
        eo_ref, ei_ref = ref.coalesced(self.eo_t), ref.coalesced(self.ei_t)
        adj = canonical(eo_ref @ ei_ref)
        lines = len(self.t.rows)
        ops = [
            self.cli_op(["bfs", self.tsv, "--source", str(self.hub)],
                        lambda out: ref.check_bfs_stdout(out, bref), lines),
            self.cli_op(["build", self.tsv, "--output", self.mtx],
                        lambda out: (ref.check_shape_line(out, g_ref)
                                     and ref.check_mm_file(self.mtx, g_ref)),
                        lines),
            self.cli_op(["sssp", self.mtx, "--source", str(self.hub)],
                        lambda out: ref.check_sssp_stdout(out, dref),
                        g_ref.nnz),
            self.cli_op(["adjacency", "--edges", self.hyper,
                         "--output", self.adj],
                        lambda out: (ref.check_shape_line(out, adj)
                                     and ref.check_mm_file(self.adj, adj)),
                        len(self.edges)),
        ]
        ops += self.traversal_ops(self.g, g_ref, self.roots)
        ops += [self.mxm_op("mxm Eout'.Ein", self.arith, self.eo, self.ei,
                            lambda m: ref.check_matrix(m, adj),
                            products(eo_ref, ei_ref))] * PROBE_REPEATS
        return ops


WORKLOADS = {w.name: w for w in (TraverseRmat, TraverseGrid, Multiply, Ingest)}
