import math
import operator
import random

import numpy as np
import pytest

import graphmat as gm
from graphmat import kernels, oracle
from graphmat.algebra import INTEGER, OP_PLUS, OP_TIMES
from graphmat.errors import (
    DimensionError,
    DomainError,
    GraphMatError,
    IndexBoundsError,
)
from graphmat.matrix import SparseMatrix, check_no_stored_zero

from conftest import (
    NAMED_SEMIRINGS,
    assert_matches_dense,
    get_semiring,
    load_fixture_adjacency,
    random_matrix,
)

ARITH = gm.semiring_by_name("arith-real")
NAT = gm.semiring_by_name("arith-natural")
MINPLUS = gm.semiring_by_name("min-plus")
XOR = gm.semiring_by_name("xor-and")
# non-commutative, so a fold in the wrong order gives a different value
SUB = gm.BinaryOp("minus", operator.sub, commutative=False,
                  associative=False)


def identity_matrix(sr, n):
    return gm.build(sr, (n, n), (range(n), range(n), [sr.one] * n))


class TestMxm:
    def test_multiply_by_identity(self, rng):
        a = random_matrix(ARITH, rng, 6, 6)
        assert gm.mxm(ARITH, a, identity_matrix(ARITH, 6)) == a
        assert gm.mxm(ARITH, identity_matrix(ARITH, 6), a) == a

    def test_against_dense_oracle_natural(self):
        rng = random.Random(3)
        for _ in range(15):
            a = random_matrix(NAT, rng, 8, 6)
            b = random_matrix(NAT, rng, 6, 7)
            c = gm.mxm(NAT, a, b)
            dc = oracle.dense_mxm(NAT, oracle.densify(a, 0),
                                  oracle.densify(b, 0))
            assert_matches_dense(c, dc, 0)

    def test_min_plus_two_hop_distances(self):
        # 5-vertex weighted digraph with explicit 0-weight self-loops,
        # so the product covers paths of up to two edges
        edges = [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 5.0), (0, 2, 7.0),
                 (3, 4, 1.0), (1, 4, 9.0)]
        rows = [e[0] for e in edges] + list(range(5))
        cols = [e[1] for e in edges] + list(range(5))
        vals = [e[2] for e in edges] + [0.0] * 5
        a = gm.build(MINPLUS, (5, 5), (rows, cols, vals))
        two_hop = gm.mxm(MINPLUS, a, a)

        w = [[math.inf] * 5 for _ in range(5)]
        for i in range(5):
            w[i][i] = 0.0
        for u, v, x in edges:
            w[u][v] = min(w[u][v], x)
        for i in range(5):
            for j in range(5):
                best = w[i][j]
                for k in range(5):
                    best = min(best, w[i][k] + w[k][j])
                got = two_hop.get(i, j, math.inf)
                assert got == best

    def test_inner_dimension_mismatch(self, rng):
        a = random_matrix(ARITH, rng, 3, 4)
        b = random_matrix(ARITH, rng, 5, 3)
        with pytest.raises(DimensionError):
            gm.mxm(ARITH, a, b)

    def test_domain_mismatch(self, rng):
        a = random_matrix(ARITH, rng, 3, 3)
        b = random_matrix(XOR, rng, 3, 3)
        with pytest.raises(DomainError):
            gm.mxm(ARITH, a, b)


class TestMxmChunks:
    # B's row k holds k entries, so A(i, k) expands to k products
    A_ENTRIES = {1: [1], 2: [1, 2], 4: [5, 4, 3], 5: [2], 7: [3, 1]}

    def _operands(self, sr, rng):
        b_rows = [k for k in range(6) for _ in range(k)]
        b_cols = [j for k in range(6) for j in rng.sample(range(7), k)]
        # values never equal the 0-element, so no entry is dropped
        b = gm.build(sr, (6, 7), (b_rows, b_cols,
                                  [rng.randrange(1, 100) for _ in b_rows]))
        a_rows = [i for i, ks in self.A_ENTRIES.items() for _ in ks]
        a_cols = [k for ks in self.A_ENTRIES.values() for k in ks]
        a = gm.build(sr, (8, 6), (a_rows, a_cols,
                                  [rng.randrange(1, 100) for _ in a_rows]))
        return a, b

    @pytest.mark.parametrize("name", ["arith-natural", "min-plus"])
    def test_several_chunks_against_oracle(self, name, monkeypatch):
        # rows 0, 3, 6 are empty and row 4 (12 products) is above the cap
        sr = get_semiring(name)
        monkeypatch.setattr(kernels, "_MXM_CHUNK_PRODUCTS", 4)
        # every block takes the sort path, which folds once per block
        monkeypatch.setattr(kernels, "_dense", lambda slots, products: False)
        folds = []
        real_fold = kernels._fold

        def counting_fold(*args, **kwargs):
            folds.append(len(args[0]))
            return real_fold(*args, **kwargs)

        monkeypatch.setattr(kernels, "_fold", counting_fold)
        rng = random.Random(17)
        for _ in range(10):
            folds.clear()
            a, b = self._operands(sr, rng)
            got = gm.mxm(sr, a, b)
            want = oracle.dense_mxm(sr, oracle.densify(a, sr.zero),
                                    oracle.densify(b, sr.zero))
            assert_matches_dense(got, want, sr.zero)
            # chunks [0, 4), [4, 5), [5, 7), [7, 8): all within the cap
            # of 4 products except row 4's chunk of its own
            assert sorted(folds) == [2, 4, 4, 12]

    def test_chunking_does_not_change_result(self, monkeypatch):
        rng = random.Random(23)
        a = random_matrix(NAT, rng, 9, 8, density=0.5)
        b = random_matrix(NAT, rng, 8, 7, density=0.5)
        whole = gm.mxm(NAT, a, b)
        monkeypatch.setattr(kernels, "_MXM_CHUNK_PRODUCTS", 3)
        assert gm.mxm(NAT, a, b) == whole


class TestMxmAccumulator:
    """The row-block accumulator path of mxm and its sort-and-fold
    fallback."""

    @staticmethod
    def _spy(monkeypatch, name):
        calls = []
        real = getattr(kernels, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
        return calls

    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_blocks_against_oracle(self, name, monkeypatch):
        # a cap of 3 products makes many blocks, and rows with more than
        # 3 products make blocks of their own above the cap
        sr = get_semiring(name)
        monkeypatch.setattr(kernels, "_MXM_CHUNK_PRODUCTS", 3)
        blocks = self._spy(monkeypatch, "_accumulate")
        folds = self._spy(monkeypatch, "_fold")
        rng = random.Random(41)
        for _ in range(15):
            a = random_matrix(sr, rng, 9, 8, density=0.5)
            b = random_matrix(sr, rng, 8, 7, density=0.5)
            per_row = [int(np.diff(b.indptr)[a.row(i)[0]].sum())
                       for i in range(a.nrows)]
            assert max(per_row) > 3
            blocks.clear()
            got = gm.mxm(sr, a, b)
            assert len(blocks) >= sum(p > 0 for p in per_row) // 3
            want = oracle.dense_mxm(sr, oracle.densify(a, sr.zero),
                                    oracle.densify(b, sr.zero))
            # both fold left to right in k order, so even arith-real is
            # exact
            assert_matches_dense(got, want, sr.zero)
        assert folds == []

    @pytest.mark.parametrize("cap", [3, 1 << 16])
    def test_paths_bit_identical_on_mixed_magnitudes(self, cap, monkeypatch):
        # about 25 products per entry of magnitudes 1e-8..1e8, where any
        # other fold order rounds differently
        monkeypatch.setattr(kernels, "_MXM_CHUNK_PRODUCTS", cap)
        rng = np.random.default_rng(43)

        def mixed(nrows, ncols):
            vals = (rng.uniform(-1, 1, (nrows, ncols))
                    * 10.0 ** rng.integers(-8, 9, (nrows, ncols)))
            rows, cols = np.nonzero(rng.random((nrows, ncols)) < 0.7)
            return gm.build(ARITH, (nrows, ncols),
                            (rows, cols, vals[rows, cols]))

        a, b = mixed(6, 50), mixed(50, 5)
        dense = gm.mxm(ARITH, a, b)
        monkeypatch.setattr(kernels, "_dense", lambda slots, products: False)
        sorted_ = gm.mxm(ARITH, a, b)
        assert np.array_equal(dense.indptr, sorted_.indptr)
        assert np.array_equal(dense.indices, sorted_.indices)
        assert dense.values.tobytes() == sorted_.values.tobytes()
        want = oracle.dense_mxm(ARITH, oracle.densify(a, 0.0),
                                oracle.densify(b, 0.0))
        assert_matches_dense(dense, want, 0.0)

    @pytest.mark.parametrize("dense", [True, False])
    def test_int64_overflow_raises_on_both_paths(self, dense, monkeypatch):
        monkeypatch.setattr(kernels, "_dense",
                            lambda slots, products: dense)
        sr = TestInt64Closed.INT

        def m(dims, rows, cols, vals):
            return gm.build(sr, dims, (rows, cols, vals))

        with pytest.raises(DomainError):  # product
            gm.mxm(sr, m((1, 1), [0], [0], [2**62]), m((1, 1), [0], [0], [4]))
        row = m((2, 2), [0, 0, 1], [0, 1, 1], [2**62, 2**62, 3])
        col = m((2, 1), [0, 1], [0, 0], [1, 1])
        with pytest.raises(DomainError):  # sum
            gm.mxm(sr, row, col)
        row = m((1, 2), [0, 0], [0, 1], [2**62 - 1, 2**62])
        got = gm.mxm(sr, row, col)
        assert got.values.dtype == np.int64
        assert got.values.tolist() == [2**63 - 1]

    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_wide_result_takes_sort_path(self, name, monkeypatch):
        # the same products on 2**40 columns: far more slots than
        # products, so every block sorts and folds; column k of the narrow
        # result is column wide[k] of the wide one
        sr = get_semiring(name)
        rng = random.Random(47)
        wide = np.array(sorted(rng.sample(range(2**40), 7)), dtype=np.int64)
        for _ in range(10):
            a = random_matrix(sr, rng, 6, 8, density=0.5)
            b = random_matrix(sr, rng, 8, 7, density=0.5)
            b_wide = gm.build(sr, (8, 2**40), (b.row_arrays(),
                                               wide[b.indices], b.values))
            want = gm.mxm(sr, a, b)
            blocks = self._spy(monkeypatch, "_accumulate")
            got = gm.mxm(sr, a, b_wide)
            monkeypatch.undo()
            assert blocks == []
            assert got.dims == (6, 2**40)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, wide[want.indices])
            assert got.values.tolist() == want.values.tolist()


class TestMxv:
    def test_frontier_from_vertex_four(self):
        # one-hot frontier at vertex 3 advances to its out-neighbors
        a = load_fixture_adjacency()
        v = gm.build(ARITH, (7, 1), ([3], [0], [1.0]))
        reached = gm.mxv(ARITH, gm.transpose(a), v)
        assert set(reached.row_arrays().tolist()) == {0, 2}

    def test_zero_vector_annihilates(self, rng):
        a = random_matrix(ARITH, rng, 5, 5)
        z = gm.empty_matrix(ARITH, 5, 1)
        assert gm.mxv(ARITH, a, z).nnz == 0

    def test_against_dense_oracle_xor(self):
        rng = random.Random(11)
        for _ in range(20):
            a = random_matrix(XOR, rng, 7, 7, density=0.4)
            v = random_matrix(XOR, rng, 7, 1, density=0.6)
            got = gm.mxv(XOR, a, v)
            want = oracle.dense_mxm(XOR, oracle.densify(a, 0),
                                    oracle.densify(v, 0))
            assert_matches_dense(got, want, 0)

    def test_shape_check(self, rng):
        a = random_matrix(ARITH, rng, 4, 4)
        with pytest.raises(DimensionError):
            gm.mxv(ARITH, a, random_matrix(ARITH, rng, 4, 2))


    MASKS = ["none", "mask", "complement", "bitmap", "bitmap-complement"]

    @staticmethod
    def _mask(rng, masked, n, column):
        """A random mask of n positions, structural (read by pattern, so
        its domain does not matter) or a bool bitmap, and the complement
        flag of the case."""
        complement = masked.endswith("complement")
        if masked == "none":
            return None, complement
        dims = (n, 1) if column else (1, n)
        if masked.startswith("bitmap"):
            return np.array([rng.random() < 0.5 for _ in range(n)],
                            dtype=bool), complement
        return random_matrix(XOR, rng, *dims, density=0.5), complement

    @staticmethod
    def _kept(mask, complement, k):
        if mask is None:
            return True
        if isinstance(mask, np.ndarray):
            return bool(mask[k]) != complement
        stored = mask.get(k, 0) if mask.ncols == 1 else mask.get(0, k)
        return (stored is not None) != complement

    @pytest.mark.parametrize("masked", MASKS)
    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_masked_against_dense_oracle(self, name, masked):
        sr = get_semiring(name)
        rng = random.Random(41)
        for _ in range(15):
            n, m = rng.randint(1, 9), rng.randint(1, 9)
            a = random_matrix(sr, rng, n, m, density=0.4)
            v = random_matrix(sr, rng, m, 1, density=0.5)
            mask, complement = self._mask(rng, masked, n, column=True)
            got = gm.mxv(sr, a, v, mask=mask, complement=complement)
            d = oracle.dense_mxm(sr, oracle.densify(a, sr.zero),
                                 oracle.densify(v, sr.zero))
            want = oracle.DenseMatrix(n, 1, sr.zero)
            for i in range(n):
                if self._kept(mask, complement, i):
                    want[i, 0] = d[i, 0]
            assert_matches_dense(got, want, sr.zero,
                                 rel_tol=1e-12 if name == "arith-real" else 0)

    @pytest.mark.parametrize("masked", MASKS)
    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_several_chunks_against_oracle(self, name, masked, monkeypatch):
        monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 2)
        self.test_masked_against_dense_oracle(name, masked)

    @pytest.mark.parametrize("cap", [2, 1 << 13])
    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_unmasked_bit_identical_to_row_wise_product(self, name, cap,
                                                         monkeypatch):
        # mxv was the row-wise mxm of A and v; the dot-product form folds
        # each row's products in the same column order, so the same bits
        monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", cap)
        sr = get_semiring(name)
        rng = random.Random(43)
        for _ in range(15):
            n, m = rng.randint(1, 12), rng.randint(1, 12)
            a = random_matrix(sr, rng, n, m, density=0.6)
            v = random_matrix(sr, rng, m, 1, density=0.7)
            if name == "arith-real":  # magnitudes that expose fold order
                a = gm.build(sr, a.dims, (a.row_arrays(), a.indices, [
                    rng.choice((-1, 1)) * 10.0 ** rng.randint(-8, 8)
                    * rng.random() for _ in range(a.nnz)]))
            got = gm.mxv(sr, a, v)
            want = kernels._mxm(sr, a, v)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert got.values.tolist() == want.values.tolist()

    def test_reads_only_kept_rows(self, monkeypatch):
        # a pull over the rows the mask keeps: no row_arrays, and the
        # masked-out rows' entries are never multiplied
        a = gm.build(ARITH, (3, 3), ([0, 1, 2], [0, 0, 0], [1.0, 2.0, 3.0]))
        v = gm.build(ARITH, (3, 1), ([0], [0], [1.0]))
        products = []

        def walk(self):
            raise AssertionError("row_arrays walks every stored entry")

        def times(x, y):
            products.append(len(x))
            return x * y

        spy = gm.make_semiring("spy", ARITH.domain, ARITH.add,
                               gm.BinaryOp("times", operator.mul, times),
                               0.0, 1.0)
        monkeypatch.setattr(SparseMatrix, "row_arrays", walk)
        got = gm.mxv(spy, a, v, mask=np.array([False, True, False]))
        assert got.indptr.tolist() == [0, 0, 1, 1]
        assert got.values.tolist() == [2.0]
        assert products == [1]

    def test_mask_checks(self, rng):
        a = random_matrix(ARITH, rng, 4, 5)
        v = random_matrix(ARITH, rng, 5, 1)
        for bad in (np.ones(5, dtype=bool), np.ones(4, dtype=np.int8),
                    np.ones((4, 1), dtype=bool), [True] * 4,
                    random_matrix(ARITH, rng, 1, 4),
                    random_matrix(ARITH, rng, 5, 1)):
            with pytest.raises(DimensionError):
                gm.mxv(ARITH, a, v, mask=bad)
        f = random_matrix(ARITH, rng, 1, 4)
        for bad in (np.ones(4, dtype=bool), np.ones(5, dtype=float),
                    random_matrix(ARITH, rng, 5, 1)):
            with pytest.raises(DimensionError):
                gm.vxm(ARITH, f, a, mask=bad)


class TestVxm:
    @staticmethod
    def _want(sr, f, a, mask, complement):
        """(A^T f^T)^T by the dense oracle, then the mask by structure."""
        d = oracle.dense_mxm(sr, oracle.densify(gm.transpose(a), sr.zero),
                             oracle.densify(gm.transpose(f), sr.zero))
        want = oracle.DenseMatrix(1, a.ncols, sr.zero)
        for j in range(a.ncols):
            if mask is None or (mask.get(0, j) is not None) != complement:
                want[0, j] = d[j, 0]
        return want

    @pytest.mark.parametrize("masked", ["none", "mask", "complement"])
    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_against_dense_oracle(self, name, masked):
        sr = get_semiring(name)
        rng = random.Random(31)
        complement = masked == "complement"
        for _ in range(15):
            n, m = rng.randint(1, 9), rng.randint(1, 9)
            a = random_matrix(sr, rng, n, m, density=0.4)
            f = random_matrix(sr, rng, 1, n, density=0.5)
            # the mask is read by structure, so its domain does not matter
            mask = (None if masked == "none"
                    else random_matrix(XOR, rng, 1, m, density=0.5))
            got = gm.vxm(sr, f, a, mask=mask, complement=complement)
            assert_matches_dense(got, self._want(sr, f, a, mask, complement),
                                 sr.zero,
                                 rel_tol=1e-12 if name == "arith-real" else 0)

    @pytest.mark.parametrize("masked", ["none", "mask", "complement"])
    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_several_chunks_against_oracle(self, name, masked, monkeypatch):
        # a cap of 2 products splits most frontiers, and rows with more
        # than 2 entries make chunks of their own above the cap
        monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 2)
        self.test_against_dense_oracle(name, masked)

    @pytest.mark.parametrize("masked", ["none", "mask", "complement"])
    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_wide_result_matches_narrow(self, name, masked):
        # the same products on 2**40 columns take the sort-and-fold path;
        # column k of the narrow result is column wide[k] of the wide one
        sr = get_semiring(name)
        rng = random.Random(37)
        complement = masked == "complement"
        wide = np.array(sorted(rng.sample(range(2**40), 9)), dtype=np.int64)
        for _ in range(15):
            n = rng.randint(1, 9)
            a = random_matrix(sr, rng, n, 9, density=0.4)
            f = random_matrix(sr, rng, 1, n, density=0.5)
            mask = (None if masked == "none"
                    else random_matrix(XOR, rng, 1, 9, density=0.5))
            a_wide = gm.build(sr, (n, 2**40), (a.row_arrays(),
                                               wide[a.indices], a.values))
            mask_wide = None if mask is None else gm.build(
                XOR, (1, 2**40), ([0] * mask.nnz, wide[mask.indices],
                                  mask.values))
            want = gm.vxm(sr, f, a, mask=mask, complement=complement)
            got = gm.vxm(sr, f, a_wide, mask=mask_wide,
                         complement=complement)
            assert got.dims == (1, 2**40)
            assert got.indices.tolist() == wide[want.indices].tolist()
            assert got.values.tolist() == pytest.approx(
                want.values.tolist(), rel=1e-12)

    @pytest.mark.parametrize("masked", TestMxv.MASKS)
    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_mask_forms_against_dense_oracle(self, name, masked):
        # a structural mask and a bitmap of the same pattern act alike
        sr = get_semiring(name)
        rng = random.Random(47)
        for _ in range(15):
            n, m = rng.randint(1, 9), rng.randint(1, 9)
            a = random_matrix(sr, rng, n, m, density=0.4)
            f = random_matrix(sr, rng, 1, n, density=0.5)
            mask, complement = TestMxv._mask(rng, masked, m, column=False)
            structural = mask
            if isinstance(mask, np.ndarray):
                k = np.flatnonzero(mask)
                structural = gm.build(XOR, (1, m), ([0] * len(k), k,
                                                    [1] * len(k)))
            got = gm.vxm(sr, f, a, mask=mask, complement=complement)
            assert_matches_dense(
                got, self._want(sr, f, a, structural, complement), sr.zero,
                rel_tol=1e-12 if name == "arith-real" else 0)

    @pytest.mark.parametrize("masked", ["bitmap", "bitmap-complement"])
    def test_bitmap_on_the_sort_path(self, masked):
        # 2**17 columns and few products take the sort-and-fold path,
        # which reads a bitmap at the product columns
        rng = random.Random(53)
        wide = 2**17
        cols = np.array(sorted(rng.sample(range(wide), 9)), dtype=np.int64)
        for _ in range(15):
            n = rng.randint(1, 9)
            a = random_matrix(ARITH, rng, n, 9, density=0.4)
            f = random_matrix(ARITH, rng, 1, n, density=0.5)
            narrow, complement = TestMxv._mask(rng, masked, 9, column=False)
            bitmap = np.zeros(wide, dtype=bool)
            bitmap[cols[narrow]] = True
            a_wide = gm.build(ARITH, (n, wide), (a.row_arrays(),
                                                 cols[a.indices], a.values))
            want = gm.vxm(ARITH, f, a, mask=narrow, complement=complement)
            got = gm.vxm(ARITH, f, a_wide, mask=bitmap,
                         complement=complement)
            assert got.indices.tolist() == cols[want.indices].tolist()
            assert got.values.tolist() == pytest.approx(
                want.values.tolist(), rel=1e-12)

    def test_empty_frontier(self, rng):
        a = random_matrix(ARITH, rng, 5, 4, density=0.6)
        got = gm.vxm(ARITH, gm.empty_matrix(ARITH, 1, 5), a)
        assert got.dims == (1, 4) and got.nnz == 0

    def test_frontier_on_empty_rows(self):
        a = gm.build(ARITH, (4, 4), ([0, 0, 3], [1, 2, 0], [1.0, 2.0, 3.0]))
        f = gm.build(ARITH, (1, 4), ([0, 0], [1, 2], [5.0, 6.0]))
        got = gm.vxm(ARITH, f, a)
        assert got.dims == (1, 4) and got.nnz == 0

    def test_all_columns_masked_out(self, rng):
        a = random_matrix(ARITH, rng, 4, 4, density=0.8)
        f = gm.build(ARITH, (1, 4), ([0] * 4, range(4), [1.0] * 4))
        full = gm.build(XOR, (1, 4), ([0] * 4, range(4), [1] * 4))
        assert gm.vxm(ARITH, f, a, mask=full, complement=True).nnz == 0

    def test_shape_checks_match_mxv(self, rng):
        a = random_matrix(ARITH, rng, 4, 5)
        with pytest.raises(DimensionError):
            gm.vxm(ARITH, random_matrix(ARITH, rng, 2, 4), a)
        with pytest.raises(DimensionError):
            gm.vxm(ARITH, random_matrix(ARITH, rng, 1, 5), a)
        with pytest.raises(DimensionError):
            gm.vxm(ARITH, random_matrix(ARITH, rng, 1, 4), a,
                   mask=random_matrix(ARITH, rng, 1, 4))

    def test_domain_mismatch_matches_mxv(self, rng):
        a = random_matrix(ARITH, rng, 3, 3)
        f = random_matrix(XOR, rng, 1, 3)
        with pytest.raises(DomainError):
            gm.vxm(ARITH, f, a)
        with pytest.raises(DomainError):
            gm.vxm(XOR, f, a)

    def test_one_hot_does_not_walk_the_matrix(self, monkeypatch):
        a = load_fixture_adjacency()
        f = gm.build(ARITH, (1, 7), ([0], [3], [1.0]))

        def walk(self):
            raise AssertionError("row_arrays walks every stored entry")

        monkeypatch.setattr(SparseMatrix, "row_arrays", walk)
        reached = gm.vxm(ARITH, f, a)
        assert reached.indices.tolist() == [0, 2]


class TestInt64Closed:
    """Products and folded sums that leave int64 raise, never wrap."""

    INT = gm.make_semiring("int-arith", INTEGER, OP_PLUS, OP_TIMES, 0, 1)

    def _m(self, dims, rows, cols, vals):
        return gm.build(self.INT, dims, (rows, cols, vals))

    def test_product_overflow_raises(self):
        a = self._m((1, 1), [0], [0], [2**62])
        b = self._m((1, 1), [0], [0], [4])
        for product in (gm.mxm, gm.mxv, gm.vxm):
            with pytest.raises(DomainError):
                product(self.INT, a, b)

    def test_sum_overflow_raises(self):
        row = self._m((1, 2), [0, 0], [0, 1], [2**62, 2**62])
        col = self._m((2, 1), [0, 1], [0, 0], [1, 1])
        with pytest.raises(DomainError):
            gm.mxm(self.INT, row, col)
        with pytest.raises(DomainError):
            gm.vxm(self.INT, row, col)
        x = self._m((1, 1), [0], [0], [2**62])
        with pytest.raises(DomainError):
            gm.ewise_add(OP_PLUS, 0, x, x)
        with pytest.raises(DomainError):
            self._m((1, 1), [0, 0], [0, 0], [2**62, 2**62])

    def test_results_at_the_bounds_are_kept(self):
        low = gm.mxm(self.INT, self._m((1, 1), [0], [0], [-(2**62)]),
                     self._m((1, 1), [0], [0], [2]))
        assert low.values.tolist() == [-(2**63)]
        row = self._m((1, 2), [0, 0], [0, 1], [2**62 - 1, 2**62])
        col = self._m((2, 1), [0, 1], [0, 0], [1, 1])
        for got in (gm.mxm(self.INT, row, col), gm.vxm(self.INT, row, col)):
            assert got.values.dtype == np.int64
            assert got.values.tolist() == [2**63 - 1]


class TestEwise:
    def test_add_identity_with_empty(self, rng):
        a = random_matrix(ARITH, rng, 6, 4)
        e = gm.empty_matrix(ARITH, 6, 4)
        assert gm.ewise_add(ARITH.add, 0.0, a, e) == a

    def test_add_against_oracle(self, rng):
        for _ in range(20):
            a = random_matrix(ARITH, rng, 6, 6)
            b = random_matrix(ARITH, rng, 6, 6)
            got = gm.ewise_add(ARITH.add, 0.0, a, b)
            want = oracle.dense_ewise_add(ARITH.add, 0.0,
                                          oracle.densify(a, 0.0),
                                          oracle.densify(b, 0.0))
            assert_matches_dense(got, want, 0.0, rel_tol=1e-12)

    def test_xor_self_cancellation(self, rng):
        a = random_matrix(XOR, rng, 8, 8, density=0.4)
        got = gm.ewise_add(XOR.add, 0, a, a)
        want = oracle.dense_ewise_add(XOR.add, 0, oracle.densify(a, 0),
                                      oracle.densify(a, 0))
        assert got.nnz == 0
        assert_matches_dense(got, want, 0)

    def test_mult_with_empty_is_empty(self, rng):
        a = random_matrix(ARITH, rng, 5, 5)
        e = gm.empty_matrix(ARITH, 5, 5)
        assert gm.ewise_mult(ARITH.mul, 0.0, a, e).nnz == 0

    def test_mult_structure_is_intersection(self, rng):
        for _ in range(20):
            a = random_matrix(ARITH, rng, 7, 5)
            b = random_matrix(ARITH, rng, 7, 5)
            got = gm.ewise_mult(ARITH.mul, 0.0, a, b)
            sa = set(zip(a.row_arrays().tolist(), a.indices.tolist()))
            sb = set(zip(b.row_arrays().tolist(), b.indices.tolist()))
            sg = set(zip(got.row_arrays().tolist(), got.indices.tolist()))
            assert sg == (sa & sb)

    def test_mult_sets_against_oracle(self):
        sr = get_semiring("union-intersect")
        rng = random.Random(5)
        for _ in range(10):
            a = random_matrix(sr, rng, 6, 6, density=0.4)
            b = random_matrix(sr, rng, 6, 6, density=0.4)
            got = gm.ewise_mult(sr.mul, sr.zero, a, b)
            want = oracle.dense_ewise_mult(sr.mul, sr.zero,
                                           oracle.densify(a, sr.zero),
                                           oracle.densify(b, sr.zero))
            assert_matches_dense(got, want, sr.zero)

    def test_dimension_mismatch(self, rng):
        a = random_matrix(ARITH, rng, 3, 3)
        b = random_matrix(ARITH, rng, 3, 4)
        with pytest.raises(DimensionError):
            gm.ewise_add(ARITH.add, 0.0, a, b)

    def test_non_commutative_op_takes_a_first(self):
        a = gm.build(ARITH, (2, 2), ([0, 1], [0, 1], [5.0, 7.0]))
        b = gm.build(ARITH, (2, 2), ([0, 1], [0, 0], [2.0, 4.0]))
        added = gm.ewise_add(SUB, 0.0, a, b)
        assert (added.get(0, 0), added.get(1, 0), added.get(1, 1)) == \
            (3.0, 4.0, 7.0)
        assert gm.ewise_add(SUB, 0.0, b, a).get(0, 0) == -3.0
        multiplied = gm.ewise_mult(SUB, 0.0, a, b)
        assert multiplied.nnz == 1
        assert multiplied.get(0, 0) == 3.0
        assert gm.ewise_mult(SUB, 0.0, b, a).get(0, 0) == -3.0

    def test_natural_overflow_raises(self):
        big = 2**64 - 2
        a = gm.build(NAT, (1, 2), ([0], [1], [big]))
        with pytest.raises(DomainError):
            gm.ewise_add(NAT.add, 0, a, a)
        with pytest.raises(DomainError):
            gm.ewise_mult(NAT.mul, 0, a, a)


class TestExtract:
    def test_fixture_subgraph(self):
        a = load_fixture_adjacency()
        idx = [0, 1, 3, 6]  # 1-based {1, 2, 4, 7}
        sub = gm.extract(a, idx, idx)
        assert sub.dims == (4, 4)
        want = oracle.dense_extract(oracle.densify(a, 0.0), idx, idx, 0.0)
        assert_matches_dense(sub, want, 0.0)

    def test_identity_selection(self, rng):
        a = random_matrix(ARITH, rng, 6, 9)
        assert gm.extract(a, range(6), range(9)) == a

    def test_repeats_and_permutation_against_oracle(self, rng):
        for _ in range(25):
            m, n = rng.randint(2, 9), rng.randint(2, 9)
            a = random_matrix(ARITH, rng, m, n)
            i = [rng.randrange(m) for _ in range(rng.randint(1, 12))]
            j = [rng.randrange(n) for _ in range(rng.randint(1, 12))]
            got = gm.extract(a, i, j)
            want = oracle.dense_extract(oracle.densify(a, 0.0), i, j, 0.0)
            assert_matches_dense(got, want, 0.0)

    def test_out_of_bounds(self, rng):
        a = random_matrix(ARITH, rng, 4, 4)
        with pytest.raises(IndexBoundsError):
            gm.extract(a, [0, 4], [0])


class TestIndexVectors:
    @pytest.mark.parametrize("bad", [[0.9, 1.7], [0, 1.5], [float("nan")],
                                     [float("inf")], ["0"], [True, False]])
    def test_non_integral_rejected(self, bad, rng):
        a = random_matrix(ARITH, rng, 4, 4)
        with pytest.raises(IndexBoundsError):
            gm.extract(a, bad, [0])
        with pytest.raises(IndexBoundsError):
            gm.assign(a, bad, [0], gm.empty_matrix(ARITH, len(bad), 1))
        with pytest.raises(IndexBoundsError):
            gm.selection_matrix(ARITH, bad, 4)

    def test_not_one_dimensional_rejected(self, rng):
        a = random_matrix(ARITH, rng, 4, 4)
        with pytest.raises(IndexBoundsError):
            gm.extract(a, [[0, 1]], [0])
        with pytest.raises(IndexBoundsError):
            gm.extract(a, [0], 1)
        with pytest.raises(IndexBoundsError):
            gm.assign(a, [[0]], [0], gm.empty_matrix(ARITH, 1, 1))
        with pytest.raises(IndexBoundsError):
            gm.selection_matrix(ARITH, np.zeros((2, 2), dtype=int), 4)

    def test_integral_floats_and_unsigned_accepted(self, rng):
        a = random_matrix(ARITH, rng, 4, 4)
        want = gm.extract(a, [2, 0], [3, 1])
        assert gm.extract(a, [2.0, 0.0], [3, 1]) == want
        assert gm.extract(a, np.array([2, 0], dtype=np.uint64),
                          [3, 1]) == want


class TestHugeDimensions:
    # nrows * ncols >= 2**62 overflows the fused row-major sort key
    BIG = 2**62

    def test_lexsort_fallback(self, monkeypatch):
        calls = []
        real_lexsort = np.lexsort

        def spy(keys, *args, **kwargs):
            calls.append(len(keys))
            return real_lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", spy)
        big = self.BIG
        a = gm.build(ARITH, (2, big), ([1, 0, 1, 0], [big - 1, 5, 3, 5],
                                       [1.0, 2.0, 3.0, 4.0]))
        assert calls
        assert list(gm.extract_tuples(a)) == [
            (0, 5, 6.0), (1, 3, 3.0), (1, big - 1, 1.0)]
        b = gm.build(ARITH, (2, big), ([1, 0], [big - 1, 7], [10.0, 1.0]))
        calls.clear()
        product = gm.ewise_mult(ARITH.mul, 0.0, a, b)
        assert calls
        assert list(gm.extract_tuples(product)) == [(1, big - 1, 10.0)]
        total = gm.ewise_add(ARITH.add, 0.0, a, b)
        assert list(gm.extract_tuples(total)) == [
            (0, 5, 6.0), (0, 7, 1.0), (1, 3, 3.0), (1, big - 1, 11.0)]
        sub = gm.extract(a, [1, 0], [big - 1, 5, 3])
        assert list(gm.extract_tuples(sub)) == [
            (0, 0, 1.0), (0, 2, 3.0), (1, 1, 6.0)]


class TestSelectionMatrix:
    def test_extract_equivalence(self, rng):
        for _ in range(25):
            m, n = rng.randint(2, 9), rng.randint(2, 9)
            a = random_matrix(ARITH, rng, m, n)
            i = [rng.randrange(m) for _ in range(rng.randint(1, 8))]
            j = [rng.randrange(n) for _ in range(rng.randint(1, 8))]
            si = gm.selection_matrix(ARITH, i, m)
            sj = gm.selection_matrix(ARITH, j, n)
            via_mxm = gm.mxm(ARITH, si, gm.mxm(ARITH, a, gm.transpose(sj)))
            assert via_mxm == gm.extract(a, i, j)

    def test_identity_permutation(self):
        s = gm.selection_matrix(ARITH, range(5), 5)
        assert s == identity_matrix(ARITH, 5)

    def test_reversal_applied_twice_restores(self, rng):
        a = random_matrix(ARITH, rng, 6, 6)
        rev = list(reversed(range(6)))
        once = gm.extract(a, rev, rev)
        assert gm.extract(once, rev, rev) == a


class TestAssign:
    def test_total_overwrite(self, rng):
        c = random_matrix(ARITH, rng, 5, 6)
        a = random_matrix(ARITH, rng, 5, 6)
        assert gm.assign(c, range(5), range(6), a) == a

    def test_assign_extract_roundtrip(self, rng):
        for _ in range(25):
            m, n = rng.randint(2, 10), rng.randint(2, 10)
            c = random_matrix(ARITH, rng, m, n)
            i = rng.sample(range(m), rng.randint(1, m))
            j = rng.sample(range(n), rng.randint(1, n))
            a = random_matrix(ARITH, rng, len(i), len(j))
            assert gm.extract(gm.assign(c, i, j, a), i, j) == a

    def test_empty_source_clears_cross_product(self, rng):
        for _ in range(10):
            c = random_matrix(ARITH, rng, 6, 6, density=0.5)
            i = rng.sample(range(6), 3)
            j = rng.sample(range(6), 2)
            a = gm.empty_matrix(ARITH, 3, 2)
            got = gm.assign(c, i, j, a)
            want = oracle.dense_assign(oracle.densify(c, 0.0), i, j,
                                       oracle.densify(a, 0.0), 0.0)
            assert_matches_dense(got, want, 0.0)

    def test_repeated_indices_rejected(self, rng):
        c = random_matrix(ARITH, rng, 4, 4)
        a = random_matrix(ARITH, rng, 2, 2)
        with pytest.raises(GraphMatError):
            gm.assign(c, [1, 1], [0, 2], a)

    def test_shape_mismatch(self, rng):
        c = random_matrix(ARITH, rng, 4, 4)
        a = random_matrix(ARITH, rng, 3, 3)
        with pytest.raises(DimensionError):
            gm.assign(c, [0, 1], [0, 1], a)


class TestKernelOutputsAudit:
    @pytest.mark.parametrize("name", ["arith-real", "min-plus", "xor-and",
                                      "union-intersect"])
    def test_no_kernel_output_stores_zero(self, name):
        sr = get_semiring(name)
        rng = random.Random(99)
        for _ in range(10):
            a = random_matrix(sr, rng, 6, 6, density=0.4)
            b = random_matrix(sr, rng, 6, 6, density=0.4)
            for out in (gm.mxm(sr, a, b),
                        gm.ewise_add(sr.add, sr.zero, a, b),
                        gm.ewise_mult(sr.mul, sr.zero, a, b),
                        gm.transpose(a)):
                assert check_no_stored_zero(out, sr.zero)


def widen(sr, m, wide):
    """m with column k moved to column wide[k] of 2**60 columns."""
    return gm.build(sr, (m.nrows, 2**60),
                    (m.row_arrays(), wide[m.indices], m.values))


class TestSortPathPairs:
    """Results whose rows times columns reach 2**63: the sort path keeps
    (row, column) pairs and never packs them into one int64 key."""

    WIDE = 2**60

    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_mxm_matches_narrow(self, name):
        sr = get_semiring(name)
        rng = random.Random(59)
        wide = np.array(sorted(rng.sample(range(self.WIDE), 7)))
        last_row_stored = False
        for _ in range(10):
            a = random_matrix(sr, rng, 9, 8, density=0.5)
            b = random_matrix(sr, rng, 8, 7, density=0.5)
            want = gm.mxm(sr, a, b)
            got = gm.mxm(sr, a, widen(sr, b, wide))
            assert got.dims == (9, self.WIDE) and 8 * self.WIDE >= 2**63
            assert np.array_equal(got.indptr, want.indptr)
            assert got.indices.tolist() == wide[want.indices].tolist()
            assert got.values.tolist() == want.values.tolist()
            last_row_stored |= bool(got.indptr[9] > got.indptr[8])
        assert last_row_stored

    @pytest.mark.parametrize("complement", [False, True])
    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_vxm_structural_mask_matches_narrow(self, name, complement):
        sr = get_semiring(name)
        rng = random.Random(61)
        wide = np.array(sorted(rng.sample(range(self.WIDE), 9)))
        for _ in range(15):
            n = rng.randint(1, 9)
            a = random_matrix(sr, rng, n, 9, density=0.4)
            f = random_matrix(sr, rng, 1, n, density=0.5)
            mask = random_matrix(XOR, rng, 1, 9, density=0.5)
            want = gm.vxm(sr, f, a, mask=mask, complement=complement)
            got = gm.vxm(sr, f, widen(sr, a, wide),
                         mask=widen(XOR, mask, wide),
                         complement=complement)
            assert got.dims == (1, self.WIDE)
            assert got.indices.tolist() == wide[want.indices].tolist()
            assert got.values.tolist() == want.values.tolist()


class TestMaskedMxmBlocks:
    """The mask of `_mxm` (which vxm passes) on results of many rows:
    C<M> = A B against the oracle, per slot on the accumulator path and
    per (row, column) pair on the sort path, with blocks of 3 products."""

    @pytest.mark.parametrize("path", ["accumulate", "sort"])
    @pytest.mark.parametrize("masked", TestMxv.MASKS[1:])
    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_against_dense_oracle(self, name, masked, path, monkeypatch):
        monkeypatch.setattr(kernels, "_MXM_CHUNK_PRODUCTS", 3)
        monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 2)
        if path == "sort":
            monkeypatch.setattr(kernels, "_dense", lambda slots, products:
                                False)
        sr = get_semiring(name)
        rng = random.Random(67)
        complement = masked.endswith("complement")
        for _ in range(10):
            m, k, n = (rng.randint(1, 6) for _ in range(3))
            a = random_matrix(sr, rng, m, k, density=0.5)
            b = random_matrix(sr, rng, k, n, density=0.5)
            pattern = random_matrix(XOR, rng, m, n, density=0.5)
            mask = pattern
            if masked.startswith("bitmap"):
                mask = np.zeros(m * n, dtype=bool)
                mask[pattern.row_arrays() * n + pattern.indices] = True
            got = kernels._mxm(sr, a, b, mask, complement)
            d = oracle.dense_mxm(sr, oracle.densify(a, sr.zero),
                                 oracle.densify(b, sr.zero))
            want = oracle.DenseMatrix(m, n, sr.zero)
            for i in range(m):
                for j in range(n):
                    if (pattern.get(i, j) is not None) != complement:
                        want[i, j] = d[i, j]
            assert_matches_dense(got, want, sr.zero,
                                 rel_tol=1e-12 if name == "arith-real" else 0)

    def test_wide_mask_rows_past_the_first(self):
        # 6 rows of 2**60 columns, rows 1.. of the mask included
        rng = random.Random(71)
        wide = np.array(sorted(rng.sample(range(2**60), 7)))
        for _ in range(10):
            a = random_matrix(ARITH, rng, 6, 8, density=0.5)
            b = random_matrix(ARITH, rng, 8, 7, density=0.5)
            mask = random_matrix(XOR, rng, 6, 7, density=0.5)
            want = kernels._mxm(ARITH, a, b, mask)
            got = kernels._mxm(ARITH, a, widen(ARITH, b, wide),
                               widen(XOR, mask, wide))
            assert np.array_equal(got.indptr, want.indptr)
            assert got.indices.tolist() == wide[want.indices].tolist()
            assert got.values.tolist() == want.values.tolist()


class TestChunkedFold:
    """Every block of `_mxm`, vxm's one row included, feeds the
    accumulator its products a chunk of `_VXM_CHUNK_PRODUCTS` at a time."""

    @staticmethod
    def _chunk_sizes(monkeypatch):
        sizes = []
        real = kernels._accumulate

        def spy(sr, nslots, chunks, keep=None):
            chunks = list(chunks)
            sizes.append([len(slots) for slots, _ in chunks])
            return real(sr, nslots, chunks, keep)

        monkeypatch.setattr(kernels, "_accumulate", spy)
        return sizes

    def test_one_heavy_row(self, monkeypatch):
        # f stores 5 vertices of 2 out-edges each: 10 products in one
        # row, folded 4, 4 and 2 at a time
        a = gm.build(ARITH, (5, 6), ([k // 2 for k in range(10)],
                                     [k % 6 for k in range(10)],
                                     [float(k + 1) for k in range(10)]))
        f = gm.build(ARITH, (1, 5), ([0] * 5, range(5), [1.0, 2, 3, 4, 5]))
        whole = gm.vxm(ARITH, f, a)
        monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 4)
        sizes = self._chunk_sizes(monkeypatch)
        assert gm.vxm(ARITH, f, a) == whole
        assert sizes == [[4, 4, 2]]

    def test_blocks_of_many_rows(self, monkeypatch):
        rng = random.Random(73)
        a = random_matrix(ARITH, rng, 9, 8, density=0.5)
        b = random_matrix(ARITH, rng, 8, 7, density=0.5)
        whole = gm.mxm(ARITH, a, b)
        monkeypatch.setattr(kernels, "_MXM_CHUNK_PRODUCTS", 12)
        monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 3)
        sizes = self._chunk_sizes(monkeypatch)
        got = gm.mxm(ARITH, a, b)
        assert np.array_equal(got.indptr, whole.indptr)
        assert np.array_equal(got.indices, whole.indices)
        assert got.values.tobytes() == whole.values.tobytes()
        assert len(sizes) > 1 and any(len(block) > 1 for block in sizes)
        # a chunk ends at the first entry that reaches the cap, so it
        # exceeds the cap by less than one entry's products (at most 7)
        assert all(s <= 3 + 7 for block in sizes for s in block)
