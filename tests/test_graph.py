import heapq
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphmat as gm
from graphmat import bench, fileio, graph, kernels
from graphmat.errors import DomainError, GraphMatError, IndexBoundsError

import oracle
from conftest import (
    DATA_DIR,
    assert_matches_dense,
    load_fixture_adjacency,
    random_matrix,
)

ARITH = gm.semiring_by_name("arith-real")
MINPLUS = gm.semiring_by_name("min-plus")


def fixture_incidence(sr=ARITH, hyper=False):
    name = ("seven_vertex_multi_hyper_edges.tsv" if hyper
            else "seven_vertex_edges.tsv")
    edges = fileio.read_edge_list(DATA_DIR / name,
                                  value_parser=sr.domain.parse_text)
    return fileio.incidence_from_edges(sr, edges, 7)


def random_digraph(rng, n, density=0.15, weights=False, sr=None):
    sr = sr or (MINPLUS if weights else ARITH)
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                rows.append(i)
                cols.append(j)
                vals.append(round(rng.uniform(0.5, 9.5), 3)
                            if weights else sr.one)
    return gm.build(sr, (n, n), (rows, cols, vals))


def grid(side):
    """side x side 4-neighbour grid, every edge both ways, weights 1-9."""
    v = np.arange(side * side).reshape(side, side)
    r = np.concatenate([v[:, :-1].ravel(), v[:-1, :].ravel()])
    c = np.concatenate([v[:, 1:].ravel(), v[1:, :].ravel()])
    rows, cols = np.concatenate([r, c]), np.concatenate([c, r])
    return gm.build(MINPLUS, (side * side,) * 2,
                    (rows, cols, (rows + cols) % 9 + 1.0))


# ties, zero weights and weights near 1e-9 next to ordinary ones
WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0, 1e-9, 2e-9, 3e-9]),
                    st.floats(0.0, 100.0))


@st.composite
def weighted_digraphs(draw):
    """(a min-plus digraph of 1-24 vertices with WEIGHTS, a source); sparse
    enough that some vertices are unreachable, repeats folded by min."""
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, WEIGHTS), max_size=3 * n))
    rows, cols, vals = zip(*edges) if edges else ((), (), ())
    return gm.build(MINPLUS, (n, n), (rows, cols, vals)), draw(vertex)


def heap_dijkstra(a, source):
    """Dijkstra over a's CSR arrays with a binary heap: the distances as
    floats, each the smallest left-to-right sum over paths."""
    dist = [math.inf] * a.nrows
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for k in range(a.indptr[u], a.indptr[u + 1]):
            v, w = int(a.indices[k]), float(a.values[k])
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def parents_oracle(d, levels):
    """Smallest u with an edge u -> v and levels[u] == levels[v] - 1, for
    every vertex reached at level one or more, by a plain loop."""
    n = len(levels)
    want = [None] * n
    for v in range(n):
        if levels[v]:
            want[v] = min(u for u in range(n) if d[u, v] != 0.0
                          and levels[u] == levels[v] - 1)
    return want


class TestAdjacencyFromIncidence:
    def test_fixture_projection(self):
        e_out, e_in = fixture_incidence()
        assert e_out.dims == (12, 7) and e_in.dims == (12, 7)
        a = gm.adjacency_from_incidence(ARITH, e_out, e_in)
        assert a == load_fixture_adjacency()
        assert a.nnz == 12

    def test_duplicate_edge_sums_to_two(self):
        e_out, e_in = fixture_incidence(hyper=True)
        a = gm.adjacency_from_incidence(ARITH, e_out, e_in)
        # edge 13 duplicates edge 8 (4 -> 5)
        assert a.get(4, 5) == 2.0
        want = oracle.dense_mxm(
            ARITH,
            oracle.densify(gm.transpose(e_out), 0.0),
            oracle.densify(e_in, 0.0))
        assert_matches_dense(a, want, 0.0)

    def test_hyper_edge_fans_out(self):
        e_out, e_in = fixture_incidence(hyper=True)
        a = gm.adjacency_from_incidence(ARITH, e_out, e_in)
        # edge 12 has in-vertices {1, 3} from out-vertex 5
        assert a.get(5, 1) == 1.0
        assert a.get(5, 3) == 1.0

    def test_empty_incidence(self):
        e = gm.empty_matrix(ARITH, 1, 5)
        assert gm.adjacency_from_incidence(ARITH, e, e).nnz == 0

    def test_edge_count_mismatch(self):
        e_out = gm.empty_matrix(ARITH, 2, 5)
        e_in = gm.empty_matrix(ARITH, 3, 5)
        with pytest.raises(gm.DimensionError):
            gm.adjacency_from_incidence(ARITH, e_out, e_in)

    def test_roundtrip_matches_direct_build(self, rng):
        for _ in range(10):
            n = rng.randint(2, 12)
            a = random_digraph(rng, n)
            tri = gm.extract_tuples(a)
            records = fileio.EdgeColumns.from_groups(
                [[int(r)] for r in tri.rows], [[int(c)] for c in tri.cols],
                list(tri.vals))
            if not len(records):
                continue
            e_out, e_in = fileio.incidence_from_edges(ARITH, records, n)
            assert gm.adjacency_from_incidence(ARITH, e_out, e_in) == a


class TestLaplacian:
    def test_single_edge(self):
        e = gm.build(ARITH, (1, 2), ([0, 0], [0, 1], [-1.0, 1.0]))
        lap = gm.laplacian_from_incidence(e)
        d = oracle.densify(lap, 0.0)
        assert d.data == [[1.0, -1.0], [-1.0, 1.0]]

    def test_path_graph(self):
        e = gm.build(ARITH, (2, 3),
                     ([0, 0, 1, 1], [0, 1, 1, 2], [-1.0, 1.0, -1.0, 1.0]))
        lap = gm.laplacian_from_incidence(e)
        d = oracle.densify(lap, 0.0)
        assert d.data == [[1.0, -1.0, 0.0],
                          [-1.0, 2.0, -1.0],
                          [0.0, -1.0, 1.0]]

    def test_row_sums_zero_and_degrees(self, rng):
        for _ in range(10):
            n = rng.randint(2, 10)
            seen = set()
            rows, cols, vals = [], [], []
            k = 0
            for _ in range(rng.randint(1, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or (u, v) in seen:
                    continue
                seen.add((u, v))
                rows += [k, k]
                cols += [u, v]
                vals += [-1.0, 1.0]
                k += 1
            if k == 0:
                continue
            e = gm.build(ARITH, (k, n), (rows, cols, vals))
            lap = gm.laplacian_from_incidence(e)
            d = oracle.densify(lap, 0.0)
            degree = [0] * n
            for u, v in seen:
                degree[u] += 1
                degree[v] += 1
            for i in range(n):
                assert sum(d.data[i]) == 0.0
                assert d[i, i] == degree[i]

    def test_symmetric_for_symmetrized_edges(self):
        pairs = [(0, 1), (1, 0), (1, 2), (2, 1)]
        rows, cols, vals = [], [], []
        for k, (u, v) in enumerate(pairs):
            rows += [k, k]
            cols += [u, v]
            vals += [-1.0, 1.0]
        lap = gm.laplacian_from_incidence(
            gm.build(ARITH, (len(pairs), 3), (rows, cols, vals)))
        assert gm.transpose(lap) == lap

    def test_bad_row_rejected(self):
        e = gm.build(ARITH, (1, 3), ([0, 0], [0, 1], [1.0, 1.0]))
        with pytest.raises(GraphMatError):
            gm.laplacian_from_incidence(e)

    @pytest.mark.parametrize("bad", [
        [],                    # no entries
        [(0, -1.0)],           # one entry
        [(0, 1.0), (2, 1.0)],  # two +1
        [(0, -2.0), (2, 2.0)],  # magnitude 2
        [(0, -1.0), (1, 0.5)],  # does not sum to 0
        [(0, -1.0), (1, 1.0), (2, 1.0)],  # three entries
    ])
    def test_error_names_first_bad_row(self, bad):
        rng = random.Random(len(bad))
        for _ in range(5):
            k = rng.randrange(6)
            rows, cols, vals = [], [], []
            for r in range(6):
                entries = bad if r in (k, 5) else [(0, 1.0), (2, -1.0)]
                rows += [r] * len(entries)
                cols += [c for c, _ in entries]
                vals += [v for _, v in entries]
            e = gm.build(ARITH, (6, 3), (rows, cols, vals))
            with pytest.raises(GraphMatError,
                               match=f"incidence row {k} is not"):
                gm.laplacian_from_incidence(e)


class TestBfs:
    def test_fixture_level_one(self):
        a = load_fixture_adjacency()
        res = gm.bfs_levels(a, [3])
        assert res.levels[3] == 0
        assert {v for v, l in enumerate(res.levels) if l == 1} == {0, 2}

    def test_source_without_out_edges(self):
        a = gm.build(ARITH, (3, 3), ([0], [1], [1.0]))
        res = gm.bfs_levels(a, [2])
        assert res.levels == [None, None, 0]

    def test_random_vs_queue_oracle(self, sr=ARITH):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(2, 40)
            a = random_digraph(rng, n, sr=sr)
            src = rng.randrange(n)
            got = gm.bfs_levels(a, [src]).levels
            want = oracle.dense_bfs(oracle.densify(a, 0.0), [src], 0.0)
            assert got == want

    def test_multisource(self, sr=ARITH):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(3, 30)
            a = random_digraph(rng, n, sr=sr)
            sources = rng.sample(range(n), rng.randint(1, 3))
            got = gm.bfs_levels(a, sources).levels
            want = oracle.dense_bfs(oracle.densify(a, 0.0), sources, 0.0)
            assert got == want

    def test_max_hops_truncates(self):
        a = load_fixture_adjacency()
        res = gm.bfs_levels(a, [3], max_hops=1)
        reached = {v for v, l in enumerate(res.levels) if l is not None}
        assert reached == {3, 0, 2}

    def test_negative_max_hops_rejected(self):
        with pytest.raises(GraphMatError, match="max_hops -1"):
            gm.bfs_levels(load_fixture_adjacency(), [3], max_hops=-1)

    @pytest.mark.parametrize("sources", [[], (), np.empty(0, np.int64)])
    def test_empty_source_list_rejected(self, sources):
        with pytest.raises(GraphMatError, match="no source vertex"):
            gm.bfs_levels(load_fixture_adjacency(), sources)

    def test_levels_monotone(self, rng):
        for _ in range(15):
            n = rng.randint(2, 30)
            a = random_digraph(rng, n)
            res = gm.bfs_levels(a, [0])
            tri = gm.extract_tuples(a)
            in_edges = {}
            for u, v, _ in tri:
                in_edges.setdefault(v, []).append(u)
            for v, lvl in enumerate(res.levels):
                if lvl and lvl > 0:
                    assert any(res.levels[u] == lvl - 1
                               for u in in_edges.get(v, []))

    def test_parents_point_one_level_up(self):
        a = load_fixture_adjacency()
        res = gm.bfs_levels(a, [3])
        for v, p in enumerate(res.parents):
            if p is not None:
                assert res.levels[v] == res.levels[p] + 1
                assert a.get(p, v) is not None

    @pytest.mark.parametrize("case", ["one-source", "sources", "max-hops",
                                      "gf2"])
    def test_parents_are_smallest_predecessor_one_level_up(self, case,
                                                           sr=ARITH):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(2, 40)
            a = random_digraph(rng, n, sr=sr)
            k = 1 if case == "one-source" else rng.randint(2, min(n, 4))
            sources = rng.sample(range(n), k)
            hops = rng.randint(1, 3) if case == "max-hops" else None
            res = gm.bfs_levels(a, sources, max_hops=hops,
                                gf2=case == "gf2")
            d = oracle.densify(a, 0.0)
            if case != "gf2":
                assert res.levels == oracle.dense_bfs(d, sources, 0.0,
                                                      max_hops=hops)
            assert res.parents == parents_oracle(d, res.levels)

    def test_traversals_transpose_a_at_most_once(self, monkeypatch):
        # a pull hop on a digraph reads A^T, which A builds once and keeps;
        # every hop pulls here, as the default pulls on larger graphs only
        monkeypatch.setattr(kernels, "_PULL_CALLS", -math.inf)
        a = random_digraph(random.Random(5), 30, weights=True)
        calls = []
        real_transpose = gm.matrix._transpose

        def spy(m):
            calls.append(m)
            return real_transpose(m)

        def walk(*args):
            raise AssertionError("O(nnz) pass over the adjacency")

        monkeypatch.setattr(gm.matrix, "_transpose", spy)
        first = {gf2: gm.bfs_levels(a, [0, 3], gf2=gf2)
                 for gf2 in (False, True)}
        assert len(calls) == 1
        monkeypatch.setattr(gm.SparseMatrix, "row_arrays", walk)
        monkeypatch.setattr(gm.matrix, "_transpose", walk)
        for gf2 in (False, True):
            assert gm.bfs_levels(a, [0, 3], gf2=gf2) == first[gf2]
        d = oracle.densify(a, math.inf)
        assert gm.sssp_minplus(a, 0) == oracle.dense_sssp(d, 0, math.inf)

    @pytest.mark.parametrize("calls", [math.inf, -math.inf],
                             ids=["push", "pull"])
    def test_one_direction_against_oracles(self, calls, monkeypatch):
        # a pull's fixed cost of +inf pushes every hop, of -inf pulls
        # every hop over A^T; a hop gathers A's own values: floats,
        # Python ints in an object array and uint8 booleans
        monkeypatch.setattr(kernels, "_PULL_CALLS", calls)
        for name in ("arith-real", "arith-natural", "or-and"):
            sr = gm.semiring_by_name(name)
            self.test_random_vs_queue_oracle(sr)
            self.test_multisource(sr)
            for case in ("one-source", "sources", "max-hops", "gf2"):
                self.test_parents_are_smallest_predecessor_one_level_up(
                    case, sr)

    def test_pull_reads_the_transpose(self, monkeypatch):
        monkeypatch.setattr(kernels, "_PULL_CALLS", -math.inf)
        a = gm.build(ARITH, (3, 3), ([0, 1], [1, 2], [1.0, 1.0]))
        assert gm.bfs_levels(a, [0]).parents == [None, 0, 1]
        at = a._transposed(build=False)
        assert at is not a and at == gm.transpose(a)

    def test_symmetric_matrix_is_its_own_transpose(self):
        a = gm.build(ARITH, (3, 3), ([0, 1, 1, 2], [1, 0, 2, 1], [1.0] * 4))
        assert a._transposed(build=False) is None
        assert a._transposed() is a
        b = gm.build(ARITH, (2, 2), ([0, 1], [1, 0], [1.0, 2.0]))
        assert b._transposed() is not b  # same pattern, other values

    def test_out_of_bounds_source(self):
        a = load_fixture_adjacency()
        with pytest.raises(IndexBoundsError):
            gm.bfs_levels(a, [7])

    @pytest.mark.parametrize("sources", [[1.5], [0, 2.5], [math.nan], ["1"],
                                         [[0, 1]]])
    def test_non_integer_source(self, sources):
        with pytest.raises(IndexBoundsError):
            gm.bfs_levels(load_fixture_adjacency(), sources)

    def test_gf2_mode_cancels_even_multiplicity(self):
        # two distinct length-1 walks 0->2 (via the multi-structure of
        # xor counting): with or-and the vertex is reached, with
        # xor-and paths of even count cancel at the 2-hop frontier
        a = gm.build(ARITH, (4, 4),
                     (([0, 0, 1, 2]), ([1, 2, 3, 3]), [1.0] * 4))
        default = gm.bfs_levels(a, [0]).levels
        gf2 = gm.bfs_levels(a, [0], gf2=True).levels
        assert default == [0, 1, 1, 2]
        assert gf2[3] is None  # two 2-hop walks cancel under xor


class TestSssp:
    def test_single_edge(self):
        a = gm.build(MINPLUS, (2, 2), ([0], [1], [3.5]))
        assert gm.sssp_minplus(a, 0) == [0.0, 3.5]

    def test_random_vs_dijkstra(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(2, 24)
            a = random_digraph(rng, n, weights=True)
            src = rng.randrange(n)
            got = gm.sssp_minplus(a, src)
            want = oracle.dense_sssp(oracle.densify(a, math.inf), src,
                                     math.inf)
            assert got == pytest.approx(want, rel=1e-10)

    def test_unit_weights_match_bfs(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(2, 24)
            a = random_digraph(rng, n)
            w = gm.build(MINPLUS, a.dims,
                         (a.row_arrays(), a.indices, [1.0] * a.nnz))
            src = rng.randrange(n)
            dist = gm.sssp_minplus(w, src)
            levels = gm.bfs_levels(a, [src]).levels
            for v in range(n):
                if levels[v] is None:
                    assert math.isinf(dist[v])
                else:
                    assert dist[v] == levels[v]

    def test_triangle_relaxation(self, rng):
        for _ in range(10):
            n = rng.randint(2, 20)
            a = random_digraph(rng, n, weights=True)
            dist = gm.sssp_minplus(a, 0)
            for u, v, w in gm.extract_tuples(a):
                assert dist[v] <= dist[u] + w + 1e-12

    @pytest.mark.parametrize("budget", ["default", "one product",
                                        "filtered fold"])
    def test_equals_dijkstra_exactly(self, budget, monkeypatch):
        # any order of relaxations reaches the same floats: capped rounds
        # relax the nearest pending vertex first, one at a time if the
        # budget is one product. These graphs have at most 24 vertices,
        # so a round folds by the whole-row compare unless the chunk cap
        # is one product: then rounds with fewer products than vertices
        # take the filtered fold, a product a chunk
        if budget == "one product":
            monkeypatch.setattr(graph, "_ROUND_SHARE", 2**62)
            monkeypatch.setattr(graph, "_VXM_CHUNK_PRODUCTS", 1)
        if budget == "filtered fold":
            monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 1)
            monkeypatch.setattr(graph, "_VXM_CHUNK_PRODUCTS", 1)

        @settings(max_examples=200, deadline=None)
        @given(case=weighted_digraphs())
        def check(case):
            a, source = case
            assert gm.sssp_minplus(a, source) == oracle.dense_sssp(
                oracle.densify(a, math.inf), source, math.inf)

        check()

    @staticmethod
    def _weighted_grid(side):
        """A side x side grid with one weight 1-255 per undirected edge."""
        v = np.arange(side * side).reshape(side, side)
        r = np.concatenate([v[:, :-1].ravel(), v[:-1, :].ravel()])
        c = np.concatenate([v[:, 1:].ravel(), v[1:, :].ravel()])
        w = np.random.default_rng(side).integers(1, 256, len(r)) * 1.0
        return gm.build(MINPLUS, (side * side,) * 2, (
            np.concatenate([r, c]), np.concatenate([c, r]), np.tile(w, 2)))

    # as built, a round folds into d through the whole-row compare on
    # graphs of at most 8,192 vertices and the filtered fold above; with
    # the thresholds lowered, 48^2 and 128^2 also take the filtered fold
    # in chunks of 64 products
    @pytest.mark.parametrize("thresholds", ["as built", "lowered"])
    @pytest.mark.parametrize("side", [8, 48, 128])
    def test_weighted_grids_equal_heap_dijkstra(self, side, thresholds,
                                                monkeypatch):
        if thresholds == "lowered":
            monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 64)
            monkeypatch.setattr(kernels, "_DENSE_MIN_SLOTS", 64)
        a = self._weighted_grid(side)
        for source in (0, side * side // 2 + side // 3):
            assert gm.sssp_minplus(a, source) == heap_dijkstra(a, source)

    def test_rmat_equals_heap_dijkstra(self):
        rows, cols = bench.rmat_edge_arrays(10, 16, 1)
        w = np.random.default_rng(10).integers(1, 256, len(rows) // 2) * 1.0
        a = gm.build(MINPLUS, (1024, 1024), (rows, cols, np.tile(w, 2)))
        degree = np.diff(a.indptr)
        for source in (int(np.argmax(degree)), int(np.argmin(degree)), 7):
            assert gm.sssp_minplus(a, source) == heap_dijkstra(a, source)

    def test_rounds_fold_into_the_distances(self, monkeypatch):
        # no round builds a fresh accumulator or sorts its products
        def refused(*args):
            raise AssertionError("a fresh fold in an SSSP round")

        monkeypatch.setattr(kernels, "_accumulate", refused)
        monkeypatch.setattr(kernels, "_sort_fold", refused)
        rows, cols = bench.rmat_edge_arrays(10, 16, 1)
        rmat = gm.build(MINPLUS, (1024, 1024), (rows, cols,
                                                np.ones(len(rows))))
        for a in (self._weighted_grid(48), self._weighted_grid(128), rmat):
            gm.sssp_minplus(a, 0)
        monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 64)
        monkeypatch.setattr(kernels, "_DENSE_MIN_SLOTS", 64)
        gm.sssp_minplus(self._weighted_grid(48), 0)

    @pytest.mark.parametrize("name, mask", [
        ("arith-real", None), ("max-plus", None),
        ("min-plus", np.ones(4, dtype=bool))])
    def test_into_only_for_an_unmasked_min(self, name, mask):
        sr = gm.semiring_by_name(name)
        a = gm.build(sr, (4, 4), ([0, 1], [1, 2], [2.0, 3.0]))
        w = np.full(4, math.inf)
        with pytest.raises(ValueError):
            kernels._vxm(sr, np.array([0]), np.array([0.0]), a, mask,
                         into=w)
        assert np.isinf(w).all()

    @staticmethod
    def _relaxed(monkeypatch, a, source):
        """(distances, the out-edges relaxed in each `_vxm` round)."""
        degree, rounds, vxm = np.diff(a.indptr), [], graph._vxm
        monkeypatch.setattr(graph, "_vxm", lambda sr, ids, *rest, **kw: (
            rounds.append(int(degree[ids].sum()))
            or vxm(sr, ids, *rest, **kw)))
        return gm.sssp_minplus(a, source), rounds

    def test_rmat_relaxes_each_edge_about_once(self, monkeypatch):
        # bench.rmat_graph(MINPLUS, 12, 16, 1) with one weight 1-255 per
        # generated edge, both ways. Relaxing every pending vertex each
        # round relaxed 2.34 x nnz(A) edges; the nearest first, a quarter
        # of nnz(A) a round at most, 1.21 x in as many rounds
        rows, cols = bench.rmat_edge_arrays(12, 16, 1)
        w = np.random.default_rng(1).integers(1, 256, len(rows) // 2) * 1.0
        a = gm.build(MINPLUS, (4096, 4096), (rows, cols, np.tile(w, 2)))
        pattern = bench.rmat_graph(MINPLUS, 12, 16, 1)
        assert np.array_equal(a.indptr, pattern.indptr)
        assert np.array_equal(a.indices, pattern.indices)
        hub = int(np.argmax(np.diff(a.indptr)))
        dist, rounds = self._relaxed(monkeypatch, a, hub)
        assert dist == heap_dijkstra(a, hub)
        assert max(rounds) <= a.nnz // 4 < sum(rounds) <= 1.6 * a.nnz
        assert len(rounds) <= sum(d < math.inf for d in dist)

    def test_star_hub_above_the_budget(self, monkeypatch):
        # the hub's 20,000 out-edges pass the budget of 10,000 alone, so it
        # is relaxed alone; then its leaves, nearest first, in two rounds
        leaves = np.arange(1, 20_001)
        w = (leaves * 7919 % 1000) * 0.5
        a = gm.build(MINPLUS, (20_001, 20_001), (
            np.concatenate([leaves * 0, leaves]),
            np.concatenate([leaves, leaves * 0]), np.concatenate([w, w])))
        dist, rounds = self._relaxed(monkeypatch, a, 0)
        assert dist == [0.0, *w.tolist()]
        assert rounds == [20_000, 10_000, 10_000]

    def test_small_and_degenerate_graphs(self):
        one = gm.build(MINPLUS, (1, 1), ([], [], []))
        assert gm.sssp_minplus(one, 0) == [0.0]
        loop = gm.build(MINPLUS, (1, 1), ([0], [0], [0.0]))
        assert gm.sssp_minplus(loop, 0) == [0.0]
        empty = gm.build(MINPLUS, (4, 4), ([], [], []))
        assert gm.sssp_minplus(empty, 2) == [math.inf, math.inf, 0.0,
                                             math.inf]
        # vertex 3 has no edges at all; 0 -> 1 -> 2 -> 0 weighs nothing
        a = gm.build(MINPLUS, (5, 5), ([0, 1, 2, 2, 4], [1, 2, 0, 4, 0],
                                       [0.0, 0.0, 0.0, 2.5, 1.0]))
        assert gm.sssp_minplus(a, 3) == [math.inf] * 3 + [0.0, math.inf]
        assert gm.sssp_minplus(a, 1) == [0.0, 0.0, 0.0, math.inf, 2.5]
        assert gm.sssp_minplus(a, 4) == [1.0, 1.0, 1.0, math.inf, 0.0]

    @pytest.mark.parametrize("source", [1.5, math.nan, -1, 2, "1", [0]])
    def test_source_outside_or_not_integer(self, source):
        a = gm.build(MINPLUS, (2, 2), ([0], [1], [3.5]))
        with pytest.raises(IndexBoundsError):
            gm.sssp_minplus(a, source)

    def test_negative_weight_rejected(self):
        a = gm.build(MINPLUS, (2, 2), ([0], [1], [-1.0]))
        with pytest.raises(DomainError):
            gm.sssp_minplus(a, 0)


class TestHopsOnArrays:
    """BFS hops and SSSP rounds multiply the frontier's ids and values
    with `_vxm`, which pushes or pulls on arrays: a traversal constructs
    the same number of SparseMatrix objects however many hops it takes."""

    @staticmethod
    def _count(monkeypatch, traversal):
        """(SparseMatrix constructions, `_vxm` calls) of one traversal."""
        made, hops = [], []
        init, vxm = gm.SparseMatrix.__init__, graph._vxm
        with monkeypatch.context() as m:
            m.setattr(gm.SparseMatrix, "__init__",
                      lambda self, *a: made.append(1) or init(self, *a))
            m.setattr(graph, "_vxm",
                      lambda *a, **kw: hops.append(1) or vxm(*a, **kw))
            traversal()
        return len(made), len(hops)

    @pytest.mark.parametrize("gf2", [False, True])
    def test_bfs_on_a_grid(self, gf2, monkeypatch):
        a = grid(48)
        counts = [self._count(monkeypatch, lambda: gm.bfs_levels(
            a, [0], max_hops=hops, gf2=gf2)) for hops in (1, 8, None)]
        made, products = zip(*counts)
        assert products[0] < products[1] < products[2]
        assert len(set(made)) == 1
        if not gf2:  # corner to corner, every hop a push
            assert products[2] == 2 * 47 + 1

    @pytest.mark.parametrize("gf2", [False, True])
    def test_bfs_pulling_from_an_rmat_hub(self, gf2, monkeypatch):
        a = bench.rmat_graph(ARITH, 10, 16, 1)
        hub = int(np.argmax(np.diff(a.indptr)))
        a._transposed()  # the first pull builds A^T once; count after it
        pulls = []
        pull = kernels._pull
        monkeypatch.setattr(kernels, "_pull",
                            lambda *p: pulls.append(1) or pull(*p))
        made = [self._count(monkeypatch, lambda: gm.bfs_levels(
            a, [hub], max_hops=hops, gf2=gf2))[0] for hops in (1, 2, None)]
        assert pulls
        assert len(set(made)) == 1

    def test_sssp_on_grids(self, monkeypatch):
        grids = [grid(8), grid(48)]
        (small, rounds_small), (large, rounds_large) = [self._count(
            monkeypatch, lambda: gm.sssp_minplus(a, 0)) for a in grids]
        assert rounds_small < rounds_large
        assert small == large
        # a grid's pending out-edges never reach the round budget, so it
        # takes the rounds of relaxing every pending vertex each time
        assert rounds_large == 95


class TestUnionIntersection:
    def test_union_with_empty(self, rng):
        a = random_matrix(ARITH, rng, 5, 5)
        assert gm.graph_union(ARITH, a, gm.empty_matrix(ARITH, 5, 5)) == a

    def test_intersection_structure(self, rng):
        a = random_matrix(ARITH, rng, 6, 6)
        b = random_matrix(ARITH, rng, 6, 6)
        got = gm.graph_intersection(ARITH, a, b)
        sa = set(zip(a.row_arrays().tolist(), a.indices.tolist()))
        sb = set(zip(b.row_arrays().tolist(), b.indices.tolist()))
        assert set(zip(got.row_arrays().tolist(),
                       got.indices.tolist())) == sa & sb

    def test_union_max_plus_keeps_max_weight(self):
        sr = gm.semiring_by_name("max-plus")
        rng = random.Random(4)
        for _ in range(10):
            a = random_matrix(sr, rng, 6, 6)
            b = random_matrix(sr, rng, 6, 6)
            got = gm.graph_union(sr, a, b)
            want = oracle.dense_ewise_add(sr.add, sr.zero,
                                          oracle.densify(a, sr.zero),
                                          oracle.densify(b, sr.zero))
            assert_matches_dense(got, want, sr.zero)


class TestGraphHandle:
    def test_consistency_of_dual_views(self):
        e_out, e_in = fixture_incidence()
        h = gm.GraphHandle(adjacency=load_fixture_adjacency(),
                           incidence_out=e_out, incidence_in=e_in)
        assert h.vertex_count == 7
        assert h.edge_count == 12
        assert h.check_consistent(ARITH)

    def test_inconsistent_views_detected(self):
        e_out, e_in = fixture_incidence(hyper=True)
        h = gm.GraphHandle(adjacency=load_fixture_adjacency(),
                           incidence_out=e_out, incidence_in=e_in)
        assert not h.check_consistent(ARITH)

    def test_either_view_alone(self):
        e_out, e_in = fixture_incidence()
        for h in (gm.GraphHandle(adjacency=load_fixture_adjacency()),
                  gm.GraphHandle(incidence_out=e_out, incidence_in=e_in)):
            assert (h.vertex_count, h.edge_count) == (7, 12)
            assert h.check_consistent(ARITH)

    @pytest.mark.parametrize("views", [
        (), ("incidence_out",), ("incidence_in",),
        ("adjacency", "incidence_out"), ("adjacency", "incidence_in")],
        ids=["none", "out", "in", "adjacency-out", "adjacency-in"])
    def test_half_an_incidence_pair_rejected(self, views):
        # no view, or one incidence matrix of the pair: vertex_count,
        # edge_count and check_consistent would read the missing one
        e_out, e_in = fixture_incidence()
        every = {"adjacency": load_fixture_adjacency(),
                 "incidence_out": e_out, "incidence_in": e_in}
        with pytest.raises(GraphMatError, match="incidence"):
            gm.GraphHandle(**{k: every[k] for k in views})
