"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. Each criterion states its own tolerance and runtime budget.
"""

import math
import random
import statistics
import sys
import time
from contextlib import contextmanager

import graphmat as gm
from graphmat import bench, fileio, graph, kernels
from graphmat.algebra import (INTEGER, OP_PLUS, OP_TIMES, make_semiring,
                              verify_semiring_laws)
from graphmat.matrix import transpose

import oracle
from conftest import (DATA_DIR, NAMED_SEMIRINGS, assert_matches_dense,
                      get_semiring, load_fixture_adjacency, matrices_allclose,
                      random_matrix)

ARITH = gm.semiring_by_name("arith-real")
MINPLUS = gm.semiring_by_name("min-plus")


@contextmanager
def report(number, description):
    """Emit exactly one pass/fail line per criterion."""
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{description}]: FAIL",
              file=sys.stderr, flush=True)
        raise
    print(f"criterion {number:2d} [{description}]: PASS", flush=True)


def test_01_scalar_law_suite():
    with report(1, "scalar laws, 8 semirings x 10^4 triples, <10s"):
        start = time.perf_counter()
        for name in NAMED_SEMIRINGS:
            sr = get_semiring(name)
            rng = random.Random(sum(map(ord, name)) + 1)
            rel = 1e-12 if name == "arith-real" else None
            verify_semiring_laws(sr, rng, samples=10_000, rel_tol=rel)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"law suite took {elapsed:.1f}s"


def test_02_matrix_law_suite():
    with report(2, "7 matrix identities, 500 instances/semiring, <60s"):
        start = time.perf_counter()
        for name in NAMED_SEMIRINGS:
            sr = get_semiring(name)
            rng = random.Random(sum(map(ord, name)) + 2)
            # float addition reassociates under these semirings' reductions
            rel = (1e-10 if name in ("arith-real", "max-plus", "min-plus")
                   else 0.0)
            zero = sr.zero
            for case in range(500):
                n = rng.randint(2, 16)
                a = random_matrix(sr, rng, n, n)
                b = random_matrix(sr, rng, n, n)
                c = random_matrix(sr, rng, n, n)
                ab = kernels.mxm(sr, a, b)
                add_ab = kernels.ewise_add(sr.add, zero, a, b)
                mul_ab = kernels.ewise_mult(sr.mul, zero, a, b)
                # kernels agree with the independent dense oracle
                if case % 10 == 0:
                    da, db = oracle.densify(a, zero), oracle.densify(b, zero)
                    assert_matches_dense(ab, oracle.dense_mxm(sr, da, db),
                                         zero, rel_tol=rel)
                    assert_matches_dense(
                        add_ab, oracle.dense_ewise_add(sr.add, zero, da, db),
                        zero, rel_tol=rel)
                    assert_matches_dense(
                        mul_ab, oracle.dense_ewise_mult(sr.mul, zero, da, db),
                        zero, rel_tol=rel)
                # 1-2: element-wise commutativity
                assert add_ab == kernels.ewise_add(sr.add, zero, b, a)
                assert mul_ab == kernels.ewise_mult(sr.mul, zero, b, a)
                # 3-4: associativity (element-wise add and matrix product)
                assert matrices_allclose(
                    kernels.ewise_add(sr.add, zero, add_ab, c),
                    kernels.ewise_add(sr.add, zero, a,
                                      kernels.ewise_add(sr.add, zero, b, c)),
                    zero, rel)
                assert matrices_allclose(
                    kernels.mxm(sr, ab, c),
                    kernels.mxm(sr, a, kernels.mxm(sr, b, c)), zero, rel)
                # 5-6: distributivity on both sides
                bc = kernels.ewise_add(sr.add, zero, b, c)
                assert matrices_allclose(
                    kernels.mxm(sr, a, bc),
                    kernels.ewise_add(sr.add, zero, ab,
                                      kernels.mxm(sr, a, c)), zero, rel)
                assert matrices_allclose(
                    kernels.mxm(sr, bc, a),
                    kernels.ewise_add(sr.add, zero, kernels.mxm(sr, b, a),
                                      kernels.mxm(sr, c, a)), zero, rel)
                # 7: transpose of a product
                assert matrices_allclose(
                    transpose(ab),
                    kernels.mxm(sr, transpose(b), transpose(a)), zero, rel)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"matrix law suite took {elapsed:.1f}s"


def test_03_incidence_adjacency_reproduction():
    with report(3, "incidence->adjacency fixture, dup edge folds to 2"):
        edges = fileio.read_edge_list(DATA_DIR / "seven_vertex_edges.tsv")
        e_out, e_in = fileio.incidence_from_edges(ARITH, edges, 7)
        adj = graph.adjacency_from_incidence(ARITH, e_out, e_in)
        golden = fileio.read_matrix_market(
            DATA_DIR / "seven_vertex_adjacency.mtx", ARITH)
        assert adj == golden
        assert adj.nnz == 12
        # variant with a hyper-edge and a duplicated edge
        hyper = fileio.read_edge_list(
            DATA_DIR / "seven_vertex_multi_hyper_edges.tsv")
        h_out, h_in = fileio.incidence_from_edges(ARITH, hyper, 7)
        h_adj = graph.adjacency_from_incidence(ARITH, h_out, h_in)
        assert h_adj.get(4, 5) == 2.0


def test_04_bfs_reproduction():
    with report(4, "BFS fixture level-1 set + 200 digraphs vs queue oracle"):
        adj = load_fixture_adjacency()
        res = graph.bfs_levels(adj, [3])
        level_one = {v for v, l in enumerate(res.levels) if l == 1}
        assert res.levels[3] == 0
        assert level_one == {0, 2}
        rng = random.Random(404)
        for _ in range(200):
            n = rng.randint(1, 64)
            a = random_matrix(ARITH, rng, n, n,
                              density=rng.uniform(0.02, 0.2))
            sources = rng.sample(range(n), rng.randint(1, min(2, n)))
            got = graph.bfs_levels(a, sources).levels
            want = oracle.dense_bfs(oracle.densify(a, 0.0), sources, 0.0)
            assert got == want


def test_05_sssp_vs_dijkstra():
    with report(5, "min-plus SSSP vs Dijkstra on 100 digraphs"):
        rng = random.Random(505)
        for case in range(100):
            n = rng.randint(1, 32)
            integer_weights = case < 50
            rows, cols, vals = [], [], []
            for i in range(n):
                for j in range(n):
                    if rng.random() < 0.15:
                        rows.append(i)
                        cols.append(j)
                        vals.append(float(rng.randint(1, 9))
                                    if integer_weights
                                    else rng.uniform(0.1, 10.0))
            a = gm.build(MINPLUS, (n, n), (rows, cols, vals))
            source = rng.randrange(n)
            got = graph.sssp_minplus(a, source)
            want = oracle.dense_sssp(oracle.densify(a, math.inf),
                                     source, math.inf)
            for g, w in zip(got, want):
                if integer_weights:
                    assert g == w
                else:
                    assert g == w or math.isclose(g, w, rel_tol=1e-10)


def test_06_extract_equals_selection_product():
    with report(6, "extract = S(i).A.S(j)^T on 200 instances + 4x4 case"):
        sub = kernels.extract(load_fixture_adjacency(), [0, 1, 3, 6],
                              [0, 1, 3, 6])
        assert sub.dims == (4, 4)
        rng = random.Random(606)
        for _ in range(200):
            n, m = rng.randint(1, 12), rng.randint(1, 12)
            a = random_matrix(ARITH, rng, n, m)
            i = [rng.randrange(n) for _ in range(rng.randint(1, n + 2))]
            j = [rng.randrange(m) for _ in range(rng.randint(1, m + 2))]
            s_i = kernels.selection_matrix(ARITH, i, n)
            s_j = kernels.selection_matrix(ARITH, j, m)
            via_product = kernels.mxm(ARITH, kernels.mxm(ARITH, s_i, a),
                                      transpose(s_j))
            assert kernels.extract(a, i, j) == via_product


def test_07_assign_extract_roundtrip():
    with report(7, "extract(assign(C,i,j,A), i, j) = A on 200 instances"):
        rng = random.Random(707)
        for _ in range(200):
            n, m = rng.randint(1, 12), rng.randint(1, 12)
            c = random_matrix(ARITH, rng, n, m)
            i = rng.sample(range(n), rng.randint(1, n))
            j = rng.sample(range(m), rng.randint(1, m))
            a = random_matrix(ARITH, rng, len(i), len(j))
            assert kernels.extract(kernels.assign(c, i, j, a), i, j) == a


def test_08_laplacian_properties():
    with report(8, "Laplacian row sums, symmetry, degree diagonal"):
        rng = random.Random(808)
        for _ in range(50):
            n = rng.randint(2, 20)
            pairs = sorted({(rng.randrange(n), rng.randrange(n))
                            for _ in range(rng.randint(1, 3 * n))})
            pairs = [(u, v) for u, v in pairs if u != v and u < v]
            if not pairs:
                continue
            rows, cols, vals = [], [], []
            for k, (u, v) in enumerate(pairs):
                rows += [k, k]
                cols += [u, v]
                vals += [-1.0, 1.0]
            e = gm.build(ARITH, (len(pairs), n), (rows, cols, vals))
            lap = graph.laplacian_from_incidence(e)
            degree = [0] * n
            for u, v in pairs:
                degree[u] += 1
                degree[v] += 1
            assert lap == transpose(lap)
            for i in range(n):
                js, vs = lap.row(i)
                assert sum(vs.tolist()) == 0.0
                assert lap.get(i, i, 0.0) == float(degree[i])


def test_09_io_roundtrips(tmp_path):
    with report(9, "MM + TSV roundtrips per domain, goldens byte-stable"):
        arith_integer = make_semiring("arith-integer", INTEGER,
                                      OP_PLUS, OP_TIMES, 0, 1)
        domain_semirings = [get_semiring("arith-real"),
                            get_semiring("arith-natural"),
                            arith_integer,
                            get_semiring("xor-and"),
                            get_semiring("union-intersect")]
        for sr in domain_semirings:
            rng = random.Random(sum(map(ord, sr.domain.name)) + 9)
            for k in range(100):
                n, m = rng.randint(1, 10), rng.randint(1, 10)
                a = random_matrix(sr, rng, n, m)
                mm = tmp_path / f"{sr.domain.name}_{k}.mtx"
                fileio.write_matrix_market(mm, a)
                assert fileio.read_matrix_market(mm, sr) == a
                tsv = tmp_path / f"{sr.domain.name}_{k}.tsv"
                fileio.write_edge_list(tsv, a)
                edges = fileio.read_edge_list(
                    tsv, value_parser=sr.domain.parse_text)
                back = gm.build(sr, (n, m),
                                fileio.triples_from_edges(edges, sr.one))
                assert back == a
        for name in ("seven_vertex_adjacency.mtx",
                     "seven_vertex_e_out.mtx",
                     "seven_vertex_e_in.mtx"):
            golden = DATA_DIR / name
            a = fileio.read_matrix_market(golden, ARITH)
            rewritten = tmp_path / name
            fileio.write_matrix_market(rewritten, a)
            assert rewritten.read_bytes() == golden.read_bytes()


def test_10_bench_harness():
    with report(10, "R-MAT bench 10-14 + <5% median overhead gate, <5min"):
        start = time.perf_counter()
        # full scale sweep on the matrix-vector kernel
        sweep = bench.run_bench("mxv", list(range(10, 15)),
                                edge_factor=32, trials=10, seed=1)
        assert [r.scale for r in sweep] == [10, 11, 12, 13, 14]
        for r in sweep:
            fields = r.machine_line().split(",")
            assert len(fields) == 6
            assert fields[0] == "mxv"
            float(fields[4])  # numeric timing columns
            float(fields[5])
        # per-operation overhead gate at one mid-range scale
        gate_reports = []
        for op in bench.BENCH_OPERATIONS:
            gate_reports += bench.run_bench(op, [12], edge_factor=32,
                                            trials=10, seed=1)
        for r in gate_reports:
            print(r.machine_line(), flush=True)
        median = statistics.median(r.overhead_percent for r in gate_reports)
        print(f"median overhead at scale 12: {median:.2f}%", flush=True)
        assert bench.overhead_gate(gate_reports, threshold_percent=5.0), \
            f"median overhead {median:.2f}% breaches the 5% gate"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"bench run took {elapsed:.0f}s"
