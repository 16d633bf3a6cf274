import math
import operator
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphmat as gm
from graphmat import kernels, matrix
from graphmat.algebra import (INTEGER, OP_INTERSECT, OP_MAX, OP_MIN,
                              OP_PLUS, OP_TIMES, set_domain)
from graphmat.errors import (
    DimensionError,
    DomainError,
    GraphMatError,
    IndexBoundsError,
)
from graphmat.matrix import SparseMatrix, _find, _key, check_no_stored_zero

import oracle
from conftest import (
    NAMED_SEMIRINGS,
    OBJECT_TIMSORT,
    TIMSORT,
    assert_matches_dense,
    get_semiring,
    load_fixture_adjacency,
    random_matrix,
    spy_sorts,
)

ARITH = gm.semiring_by_name("arith-real")
NAT = gm.semiring_by_name("arith-natural")
MINPLUS = gm.semiring_by_name("min-plus")
XOR = gm.semiring_by_name("xor-and")
# non-commutative, so a fold in the wrong order gives a different value
SUB = gm.BinaryOp("minus", operator.sub)


INT64, OBJECT = np.dtype(np.int64), np.dtype(object)


def spy_keys(monkeypatch):
    """(length, dtype) of each array `matrix._key` returns to the code of
    matrix.py and kernels.py."""
    calls, real = [], matrix._key

    def spy(*args):
        keys = real(*args)
        calls.append((len(keys), keys.dtype))
        return keys

    for module in (matrix, kernels):
        monkeypatch.setattr(module, "_key", spy)
    return calls


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

    @pytest.mark.parametrize("pull", [False, True])
    def test_python_add_steps_beyond_an_unsigned_dtype(self, pull,
                                                       monkeypatch):
        # y - x as add over products 5, 3, 10 steps from the 0-element
        # through 3 - 5 = -2, outside uint64, and ends at 10 - (-2) = 12;
        # a fold that ends outside raises DomainError, not OverflowError
        if pull:  # every masked one-row product pulls
            monkeypatch.setattr(kernels, "_PULL_CALLS", -math.inf)
        mask = np.ones(1, dtype=bool) if pull else None
        back = gm.BinaryOp("minus-from", lambda x, y: y - x)
        sr = gm.make_semiring("sets-minus-from", set_domain(64), back,
                              OP_INTERSECT, 0, 2**64 - 1)
        b = gm.build(sr, (3, 1), ([0, 1, 2], [0] * 3, [2**64 - 1] * 3))

        def m(dims, rows, cols, vals):
            return gm.build(sr, dims, (rows, cols, vals))

        row = m((1, 3), [0] * 3, [0, 1, 2], [5, 3, 10])
        assert gm.vxm(sr, row, b, mask=mask).values.tolist() == [12]
        assert gm.mxm(sr, row, b).values.tolist() == [12]
        rows = m((2, 3), [0, 0, 0, 1, 1, 1], [0, 1, 2] * 2, [5, 3, 10] * 2)
        assert gm.mxm(sr, rows, b).values.tolist() == [12, 12]
        short = m((1, 3), [0, 0], [0, 1], [5, 3])
        with pytest.raises(DomainError):
            gm.vxm(sr, short, b, mask=mask)
        with pytest.raises(DomainError):
            gm.mxm(sr, short, b)
        with pytest.raises(DomainError):
            gm.mxm(sr, m((2, 3), [0, 1, 1], [0, 0, 1], [1, 5, 3]), b)
        # x - y from 0 over products 1 and 0: 0 - 1 leaves uint64
        sub = gm.make_semiring("s", set_domain(64),
                               gm.BinaryOp("minus", operator.sub),
                               OP_INTERSECT, 0, 2**64 - 1)
        a = gm.build(sub, (1, 2), ([0, 0], [0, 1], [1, 1]))
        col = gm.build(sub, (2, 1), ([0, 1], [0, 0], [1, 2]))
        with pytest.raises(DomainError):
            gm.mxm(sub, a, col)
        with pytest.raises(DomainError):
            gm.vxm(sub, a, col, mask=mask)

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

    # plus-minus: x on mul's right in the pull, where a - v != v - a
    SEMIRINGS = NAMED_SEMIRINGS + ["plus-minus"]

    @pytest.mark.parametrize("masked", MASKS)
    @pytest.mark.parametrize("name", SEMIRINGS)
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
    @pytest.mark.parametrize("name", SEMIRINGS)
    def test_several_chunks_against_oracle(self, name, masked, monkeypatch):
        monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 2)
        self.test_masked_against_dense_oracle(name, masked)

    @pytest.mark.parametrize("cap", [2, 1 << 13])
    @pytest.mark.parametrize("name", SEMIRINGS)
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

    @pytest.mark.parametrize("name, want", [
        ("natural", [3 * 7 + 4 * 9, 5 * 2**30, 2**20 * 7]),
        ("integer", [3 * 7 + 4 * 9, 5 * 2**30, 2**20 * 7]),
        ("natural max-min", [4, 5, 7])],
        ids=["natural", "integer", "natural max-min"])
    def test_words_reach_the_fold(self, name, want, monkeypatch):
        # mxv hands `_pull` mul itself, with v's values on its right, so
        # `_wide` sees np.multiply or np.minimum: below the bound the
        # products reach ufunc.at as int64 words, with the object path's
        # results
        sr = (TestWordPath.SEMIRINGS[name][0] if name != "natural max-min"
              else gm.make_semiring(name, NAT.domain, OP_MAX, OP_MIN, 0,
                                    2**64 - 1))
        folded, real = [], kernels._accumulate

        def spy(sr, dtype, nslots, chunks, keep=None):
            def seen():
                for slots, prod in chunks:
                    folded.append(prod.dtype)
                    yield slots, prod
            return real(sr, dtype, nslots, seen(), keep)

        monkeypatch.setattr(kernels, "_accumulate", spy)
        a = gm.build(sr, (3, 3), ([0, 0, 1, 2], [0, 2, 1, 0],
                                  [3, 4, 5, 2**20]))
        v = gm.build(sr, (3, 1), ([0, 1, 2], [0, 0, 0], [7, 2**30, 9]))
        got = outcome(lambda: gm.mxv(sr, a, v))
        assert folded == [INT64]
        assert got[-1] == [(int, w) for w in want]
        folded.clear()
        monkeypatch.setattr(matrix, "_WORD_OPS", ())
        assert outcome(lambda: gm.mxv(sr, a, v)) == got
        assert folded == [OBJECT]

    def test_mul_keeps_its_operand_order(self):
        # w(i) folds mul(a(i, k), v(k)), a(i, k) on mul's left: x - y
        # is not y - x, and np.minimum returns an operand by its position
        # on -0.0 and 0.0
        sr = get_semiring("plus-minus")
        a = gm.build(sr, (2, 2), ([0, 0, 1], [0, 1, 1], [5.0, 2.0, 7.0]))
        v = gm.build(sr, (2, 1), ([0, 1], [0, 0], [1.5, 4.0]))
        got = gm.mxv(sr, a, v)
        assert got.values.tolist() == [(5.0 - 1.5) + (2.0 - 4.0), 7.0 - 4.0]
        assert_matches_dense(got, oracle.dense_mxm(
            sr, oracle.densify(a, 0.0), oracle.densify(v, 0.0)), 0.0)
        sr = gm.make_semiring("max-min", ARITH.domain, OP_MAX, OP_MIN,
                              -math.inf, math.inf)
        a = gm.build(sr, (1, 1), ([0], [0], [-0.0]))
        v = gm.build(sr, (1, 1), ([0], [0], [0.0]))
        want = np.minimum(np.array([-0.0]), np.array([0.0]))[0]
        assert want == 0.0 and math.copysign(1.0, want) == 1.0
        assert math.copysign(1.0, gm.mxv(sr, a, v).get(0, 0)) == 1.0

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

    def test_rectangular_mask_pulls_against_oracle(self, monkeypatch):
        # a full frontier over 3,000 x 500 pushes 60,000 products, so the
        # masked product pulls over A^T; A's 3,000 out-degrees say
        # nothing of its 500 columns' in-degrees
        pulls, a = self._rectangular_against_oracle(monkeypatch, 3)
        assert pulls == [1]
        assert a._transposed(build=False) is not None

    def test_rectangular_mask_pushes_without_transpose(self, monkeypatch):
        # with one column masked out the kept columns' in-edges outweigh
        # the push; counting them must not build and keep A^T
        pulls, a = self._rectangular_against_oracle(monkeypatch, 500)
        assert pulls == []
        assert a._transposed(build=False) is None

    @staticmethod
    def _rectangular_against_oracle(monkeypatch, every):
        """A full frontier times a 3,000 x 500 matrix, masked by the
        complement of every `every`-th column, against the dense oracle;
        (one entry per pull, the matrix)."""
        pulls = []
        pull = kernels._pull
        monkeypatch.setattr(kernels, "_pull",
                            lambda *a: pulls.append(1) or pull(*a))
        rng = np.random.default_rng(59)
        m, n = 3000, 500
        keys = rng.choice(m * n, 60000, replace=False)
        a = gm.build(ARITH, (m, n), (keys // n, keys % n,
                                     rng.integers(1, 9, 60000) * 1.0))
        f = gm.build(ARITH, (1, m), ([0] * m, range(m),
                                     rng.integers(1, 9, m) * 1.0))
        masked = np.arange(n) % every == 0
        got = gm.vxm(ARITH, f, a, mask=masked, complement=True)
        # the oracle takes at most 128 x 128: sum its products over
        # blocks of 125 rows, exact on these small integers
        for c in range(0, n, 125):
            cols = list(range(c, c + 125))
            want = oracle.DenseMatrix(1, 125, 0.0)
            for r in range(0, m, 125):
                rows = list(range(r, r + 125))
                part = oracle.dense_mxm(
                    ARITH, oracle.densify(gm.extract(f, [0], rows), 0.0),
                    oracle.densify(gm.extract(a, rows, cols), 0.0))
                for j in range(125):
                    want[0, j] += part[0, j] * (not masked[c + j])
            assert_matches_dense(gm.extract(got, [0], cols), want, 0.0)
        return pulls, a

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

    def test_fold_leaving_the_domain_as_a_float_raises(self):
        # 7 / 2 is 3.5, which the cast to int64 would truncate to 3
        divide = gm.BinaryOp("divide", operator.truediv, np.true_divide)
        a = self._m((1, 1), [0], [0], [7])
        b = self._m((1, 1), [0], [0], [2])
        for ewise in (gm.ewise_mult, gm.ewise_add):
            with pytest.raises(DomainError, match="outside domain integer"):
                ewise(divide, 0, a, b)
        # an exact quotient stays in the domain
        assert gm.ewise_mult(divide, 0, a, a).values.tolist() == [1]

    def test_results_at_the_bounds_are_kept(self):
        low = gm.mxm(self.INT, self._m((1, 1), [0], [0], [-(2**62)]),
                     self._m((1, 1), [0], [0], [2]))
        assert low.values.tolist() == [-(2**63)]
        row = self._m((1, 2), [0, 0], [0, 1], [2**62 - 1, 2**62])
        col = self._m((2, 1), [0, 1], [0, 0], [1, 1])
        for got in (gm.mxm(self.INT, row, col), gm.vxm(self.INT, row, col)):
            assert got.values.dtype == np.int64
            assert got.values.tolist() == [2**63 - 1]


def spy_wide(monkeypatch):
    """The dtype of x as each `_wide` call hands it back: the dtype that
    the products, the accumulator and the fold take."""
    calls, real = [], matrix._wide

    def spy(*args):
        vals = real(*args)
        calls.append(vals[0].dtype)
        return vals

    for module in (matrix, kernels):
        monkeypatch.setattr(module, "_wide", spy)
    return calls


def outcome(fn):
    """A kernel's result as lists, each value with its Python type, or
    DomainError if it raises that."""
    try:
        m = fn()
    except DomainError:
        return DomainError
    return (m.dims, m.indptr.tolist(), m.indices.tolist(), m.values.dtype,
            [(type(v), v) for v in m.values.tolist()])


class TestWordPath:
    """Exact NATURAL and int64 semirings run on int64 words when a bound
    on their operands rules out overflow, with the results of Python
    ints."""

    INT = TestInt64Closed.INT
    SEMIRINGS = {"natural": (NAT, 0, 2**64 - 1),
                 "integer": (INT, -(2**63), 2**63 - 1)}

    @staticmethod
    def _matrix(sr, rng, m, n, value, density=0.5):
        cells = [(i, j) for i in range(m) for j in range(n)
                 if rng.random() < density]
        return gm.build(sr, (m, n), ([i for i, _ in cells],
                                     [j for _, j in cells],
                                     [value() for _ in cells]))

    @staticmethod
    def _kernels(sr, a, b, f, v, bitmap, dups):
        return {
            "mxm": lambda: gm.mxm(sr, a, b),
            "vxm": lambda: gm.vxm(sr, f, a),
            "vxm bitmap": lambda: gm.vxm(sr, f, a, mask=bitmap),
            "vxm complement": lambda: gm.vxm(sr, f, a, mask=bitmap,
                                             complement=True),
            "mxv": lambda: gm.mxv(sr, a, v),
            "ewise_add": lambda: gm.ewise_add(sr.add, sr.zero, a, a),
            "ewise_mult": lambda: gm.ewise_mult(sr.mul, sr.zero, a, a),
            "build": lambda: gm.build(sr, (3, 3), dups),
        }

    @pytest.mark.parametrize("name", ["natural", "integer"])
    def test_equals_object_path(self, name, monkeypatch):
        sr, lo, hi = self.SEMIRINGS[name]
        # per configuration: mxm's accumulator and vxm's push, then
        # both on the sort path, then a masked vxm that pulls
        configs = [{}, {"_dense": lambda slots, products: False},
                   {"_PULL_CALLS": -(10**9)}]

        @settings(max_examples=40, deadline=None)
        @given(seed=st.integers(0, 2**32),
               top=st.sampled_from([9, 2**20, 2**30, 2**31 + 5, 2**61,
                                    2**62, 2**64]))
        def check(seed, top):
            rng = random.Random(seed)

            def value():
                return rng.randint(max(lo, -top), min(hi, top))

            a = self._matrix(sr, rng, 7, 6, value)
            b = self._matrix(sr, rng, 6, 5, value)
            f = self._matrix(sr, rng, 1, 7, value, density=0.7)
            v = self._matrix(sr, rng, 6, 1, value, density=0.7)
            bitmap = np.array([rng.random() < 0.5 for _ in range(6)])
            cells = [rng.randrange(3) for _ in range(12)]
            dups = (cells, [c * 7 % 3 for c in cells],
                    [value() for _ in cells])
            for config in configs:
                with pytest.MonkeyPatch.context() as mp:
                    for attr, setting in config.items():
                        mp.setattr(kernels, attr, setting)
                    ops = self._kernels(sr, a, b, f, v, bitmap, dups)
                    word = {k: outcome(op) for k, op in ops.items()}
                    mp.setattr(matrix, "_WORD_OPS", ())
                    assert word == {k: outcome(op) for k, op in ops.items()}

        check()

    @pytest.mark.parametrize("name", ["natural", "integer"])
    def test_words_below_the_bound_objects_above(self, name, monkeypatch):
        sr = self.SEMIRINGS[name][0]
        calls = spy_wide(monkeypatch)

        def m(dims, rows, cols, vals):
            return gm.build(sr, dims, (rows, cols, vals))

        ones = m((2, 1), [0, 1], [0, 0], [1, 1])
        # the largest x below the bound: two products x * 1 fold into a
        # result, one product x * x is one, two values x fold into one
        cases = [
            (2**61 - 2, lambda x: gm.mxm(sr, m((2, 2), [0, 0, 1], [0, 1, 0],
                                                [x] * 3), ones), [2, 1]),
            (2**61 - 2, lambda x: gm.vxm(sr, m((1, 2), [0, 0], [0, 1],
                                                [x] * 2), ones), [2]),
            (3037000498, lambda x: gm.ewise_mult(
                sr.mul, sr.zero, *[m((1, 1), [0], [0], [x])] * 2), None),
            (2**62 - 2, lambda x: gm.ewise_add(
                sr.add, sr.zero, *[m((1, 1), [0], [0], [x])] * 2), [2]),
            (2**62 - 2, lambda x: m((1, 1), [0, 0], [0, 0], [x, x]), [2]),
        ]
        for top, run, times in cases:
            for x, dtype in ((top, INT64), (top + 1, OBJECT)):
                calls.clear()
                got = run(x)
                # the kernel's own call is the last, after its operands'
                assert calls[-1] == dtype
                assert all(c == INT64 for c in calls[:-1])
                assert [(type(v), v) for v in got.values.tolist()] == [
                    (int, x * x if times is None else k * x)
                    for k in times or [1]]

    def test_a_matrix_keeps_its_words(self, monkeypatch):
        # a hop converts the frontier's values, and b's only once
        converted, real = [], matrix._words

        def spy(v):
            if isinstance(v, np.ndarray):
                converted.append(len(v))
            return real(v)

        monkeypatch.setattr(matrix, "_words", spy)
        b = gm.build(NAT, (3, 3), ([0, 0, 1, 2], [1, 2, 2, 0], [5, 6, 7, 8]))
        f = gm.build(NAT, (1, 3), ([0, 0], [0, 1], [2, 3]))
        for want in ([2, 4], [2]):
            converted.clear()
            assert gm.vxm(NAT, f, b).values.tolist() == [10, 12 + 21]
            assert converted == want
        assert b._w[0].tolist() == [5, 6, 7, 8] and b._w[1] == 8

    def test_overflow_raises_on_either_path(self):
        # (2**32 - 1)**2 is a 64-bit natural, 2**32 * 2**32 is not
        for x in (2**32 - 1, 2**32):
            a = gm.build(NAT, (2, 2), ([0, 1], [1, 0], [x, x]))
            for product in (lambda: gm.mxm(NAT, a, a),
                            lambda: gm.ewise_mult(NAT.mul, 0, a, a)):
                if x * x < 2**64:
                    assert product().values.tolist() == [x * x, x * x]
                else:
                    with pytest.raises(DomainError,
                                       match="is not a 64-bit natural"):
                        product()
        big = gm.build(NAT, (1, 1), ([0], [0], [2**63]))
        with pytest.raises(DomainError, match="is not a 64-bit natural"):
            gm.ewise_add(NAT.add, 0, big, big)
        # 2**32 * 2**31 leaves int64 by one, below the bound or not
        for x, y in ((2**32, 2**31), (2**32, 2**31 - 1)):
            a = gm.build(self.INT, (1, 1), ([0], [0], [x]))
            b = gm.build(self.INT, (1, 1), ([0], [0], [y]))
            if x * y < 2**63:
                assert gm.ewise_mult(OP_TIMES, 0, a, b).get(0, 0) == x * y
            else:
                with pytest.raises(DomainError):
                    gm.ewise_mult(OP_TIMES, 0, a, b)

    @pytest.mark.parametrize("name", ["natural", "integer"])
    @pytest.mark.parametrize("python", ["add", "mul"])
    def test_python_ops_stay_on_objects(self, name, python, monkeypatch):
        sr = self.SEMIRINGS[name][0]
        py = replace(sr, **{python: gm.BinaryOp(
            getattr(sr, python).name, getattr(sr, python).fn)})
        a = gm.build(sr, (2, 2), ([0, 0, 1], [0, 1, 1], [3, 4, 5]))
        f = gm.build(sr, (1, 2), ([0, 0], [0, 1], [1, 2]))
        want = gm.mxm(sr, a, a), gm.vxm(sr, f, a)
        calls = spy_wide(monkeypatch)
        assert (gm.mxm(py, a, a), gm.vxm(py, f, a)) == want
        assert calls == [OBJECT] * 2
        for op in (py.add, py.mul):
            if op.ufunc.types == ["OO->O"]:
                calls.clear()
                gm.ewise_mult(op, 0, a, a)
                gm.ewise_add(op, 0, a, a)
                assert calls == [OBJECT] * 2


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

    def test_add_merges_two_sorted_runs_by_timsort(self, monkeypatch):
        # a's entries then b's are two ascending runs of row-major keys,
        # which timsort merges in linear time; the packed sort took 1.7x
        # as long on them, and a radix sort slowed ewise_add 1.4-1.6x
        rng = np.random.default_rng(5)
        a, b = (gm.build(ARITH, (120, 120), (
            rng.integers(0, 120, 3000), rng.integers(0, 120, 3000),
            rng.uniform(1, 2, 3000))) for _ in range(2))
        calls = spy_sorts(monkeypatch)
        got = gm.ewise_add(ARITH.add, 0.0, a, b)
        monkeypatch.undo()
        assert calls == TIMSORT
        want = oracle.dense_ewise_add(ARITH.add, 0.0, oracle.densify(a, 0.0),
                                      oracle.densify(b, 0.0))
        assert_matches_dense(got, want, 0.0, rel_tol=1e-12)

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

    @pytest.mark.parametrize("ncols", [2**16 + 1, 10**6])
    def test_wide_permuted_and_repeated_against_oracle(self, rng, ncols):
        # a's 90 columns spread over ncols in order; j permuted, then
        # 2,000 draws with repeats, both in many runs (the packed sort),
        # checked 125 result columns at a time
        n = 90
        wide = np.array(sorted(rng.sample(range(ncols), n)))
        for _ in range(3):
            m = rng.randint(1, 20)
            a = random_matrix(ARITH, rng, m, n, density=0.3)
            a_wide = gm.build(ARITH, (m, ncols), (
                a.row_arrays(), wide[a.indices], a.values))
            i = [rng.randrange(m) for _ in range(rng.randint(1, 12))]
            for j in (rng.sample(range(n), n),
                      [rng.randrange(n) for _ in range(2000)]):
                got = gm.extract(a_wide, i, wide[j])
                assert got.dims == (len(i), len(j))
                for q in range(0, len(j), 125):
                    block = list(range(q, min(q + 125, len(j))))
                    want = oracle.dense_extract(
                        oracle.densify(a, 0.0), i, [j[k] for k in block],
                        0.0)
                    assert_matches_dense(
                        gm.extract(got, range(len(i)), block), want, 0.0)


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
    # from nrows * ncols = 2**62 the row-major keys are Python ints
    BIG = 2**62

    def test_lexsort_fallback(self, monkeypatch):
        # named for the lexsort these dimensions once took: now build sorts
        # object keys in one stable argsort, and ewise_mult searches them
        calls = spy_sorts(monkeypatch)
        keys = spy_keys(monkeypatch)
        big = self.BIG
        a = gm.build(ARITH, (2, big), ([1, 0, 1, 0], [big - 1, 5, 3, 5],
                                       [1.0, 2.0, 3.0, 4.0]))
        assert calls == OBJECT_TIMSORT and keys == [(4, OBJECT)]
        assert list(gm.extract_tuples(a)) == [
            (0, 5, 6.0), (1, 3, 3.0), (1, big - 1, 1.0)]
        b = gm.build(ARITH, (2, big), ([1, 0], [big - 1, 7], [10.0, 1.0]))
        calls.clear()
        keys.clear()
        product = gm.ewise_mult(ARITH.mul, 0.0, a, b)
        assert not calls and keys == [(2, OBJECT), (3, OBJECT)]  # b's, a's
        assert list(gm.extract_tuples(product)) == [(1, big - 1, 10.0)]
        assert product.indices.dtype == INT64
        total = gm.ewise_add(ARITH.add, 0.0, a, b)
        assert list(gm.extract_tuples(total)) == [
            (0, 5, 6.0), (0, 7, 1.0), (1, 3, 3.0), (1, big - 1, 11.0)]
        sub = gm.extract(a, [1, 0], [big - 1, 5, 3])
        assert list(gm.extract_tuples(sub)) == [
            (0, 0, 1.0), (0, 2, 3.0), (1, 1, 6.0)]

    @pytest.mark.parametrize("masked", [False, True])
    def test_products_sort_object_keys(self, masked, monkeypatch):
        # a right operand of 2**62 columns sends mxm's block and vxm's row
        # down the sort path, on object keys; the columns come back int64
        big = self.BIG
        b = gm.build(ARITH, (2, big), ([0, 1, 1, 0], [big - 1, 5, big - 1, 0],
                                       [1.0, 2.0, 3.0, 4.0]))
        a = gm.build(ARITH, (2, 2), ([0, 0, 1], [0, 1, 1], [1.0, 2.0, 5.0]))
        f = gm.extract(a, [0], [0, 1])
        want = [(0, 0, 4.0), (0, 5, 4.0), (0, big - 1, 7.0), (1, 5, 10.0),
                (1, big - 1, 15.0)]
        mask = row_mask = None
        if masked:
            mask = gm.build(XOR, (2, big), ([0, 1], [big - 1, 5], [1, 1]))
            row_mask = gm.build(XOR, (1, big), ([0], [big - 1], [1]))
            want = [t for t in want if t[:2] in {(0, big - 1), (1, 5)}]
        calls = spy_sorts(monkeypatch)
        got = kernels._mxm(ARITH, a, b, mask)
        row = gm.vxm(ARITH, f, b, row_mask)
        monkeypatch.undo()
        assert calls == OBJECT_TIMSORT * 2
        assert list(gm.extract_tuples(got)) == want
        assert list(gm.extract_tuples(row)) == [t for t in want if t[0] == 0]
        assert got.indices.dtype == row.indices.dtype == INT64


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
        # a repeated row, a repeated column, and repeats that are not
        # adjacent in an unsorted index vector
        for i, j, what in [([1, 1], [0, 2], "row"), ([0, 2], [3, 3], "column"),
                           ([2, 0, 2], [0, 1, 3], "row"),
                           ([0, 1, 3], [2, 0, 2], "column")]:
            a = random_matrix(ARITH, rng, len(i), len(j))
            with pytest.raises(GraphMatError,
                               match=f"^repeated {what} index in assign$"):
                gm.assign(c, i, j, a)

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
    per (row, column) pair on the sort path, with blocks of 3 products,
    and by the pull of every row that forms a block of its own."""

    @pytest.mark.parametrize("path", ["accumulate", "sort", "pull"])
    @pytest.mark.parametrize("masked", TestMxv.MASKS[1:])
    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_against_dense_oracle(self, name, masked, path, monkeypatch):
        monkeypatch.setattr(kernels, "_MXM_CHUNK_PRODUCTS", 3)
        monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 2)
        if path == "sort":
            monkeypatch.setattr(kernels, "_dense", lambda slots, products:
                                False)
        # the first rows of the blocks that pulled, each row with
        # products a block of its own
        block, pulled = [0], []
        if path == "pull":
            monkeypatch.setattr(kernels, "_MXM_CHUNK_PRODUCTS", 0)
            monkeypatch.setattr(kernels, "_PULL_CALLS", -math.inf)
            vxm, pull = kernels._vxm, kernels._pull

            def spy_vxm(*args, r0=0, **kw):
                block[0] = r0
                return vxm(*args, r0=r0, **kw)

            def spy_pull(*args):
                pulled.append(block[0])
                return pull(*args)

            monkeypatch.setattr(kernels, "_vxm", spy_vxm)
            monkeypatch.setattr(kernels, "_pull", spy_pull)
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
        if path == "pull":  # _keep took the mask's rows past the first
            assert any(r0 > 0 for r0 in pulled)

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


class TestHits:
    """`matrix._find`'s answer for a structural mask's block: one row
    searched alone by its int64 keys, and the same row among three rows,
    by int64 keys and, with the columns widened to 2**61, by Python int
    keys (the cases keep the name of the (row, column) records those
    replaced); all agree with np.isin."""

    @pytest.mark.parametrize("ncols,stored", [(2**60, 50), (1000, 0),
                                              (1000, 1000), (7, 3)])
    def test_one_row_matches_records_and_isin(self, ncols, stored,
                                              monkeypatch):
        rng = np.random.default_rng(73)
        rows = [np.unique(rng.integers(0, ncols, 40)),
                np.unique(rng.integers(0, ncols, stored)) if stored < ncols
                else np.arange(ncols), np.unique(rng.integers(0, ncols, 9))]
        indptr = np.cumsum([0] + list(map(len, rows)))
        cols, ones = np.concatenate(rows), np.ones(indptr[-1], np.uint8)
        mask, wide = (SparseMatrix(3, n, indptr, cols, ones, XOR.domain)
                      for n in (ncols, 2**61))
        j = np.concatenate((rng.integers(0, ncols, 200), rows[1][:20],
                            rows[0][:20]))
        keys = spy_keys(monkeypatch)
        k1, one = _find(mask, 1, 2, _key(np.zeros_like(j), j, 1, ncols))
        k3, fused = _find(mask, 0, 3, _key(np.ones_like(j), j, 3, ncols))
        assert keys == [(len(rows[1]), INT64), (len(cols), INT64)]
        keys.clear()
        wide_keys = _key(np.ones_like(j), j, 3, 2**61)
        kw, by_records = _find(wide, 0, 3, wide_keys)
        assert keys == [(len(cols), OBJECT)] and wide_keys.dtype == OBJECT
        assert one.tolist() == fused.tolist() == by_records.tolist() == \
            np.isin(j, rows[1]).tolist()
        assert (k1 + indptr[1]).tolist() == k3.tolist() == kw.tolist()


class TestFind:
    """`matrix._find` against the dense oracle on either side of the
    key's limit: rows r0..r1-1 times ncols below 2**62 search int64 keys
    ("fused"), from 2**62 Python int keys ("records", named for the
    (row, column) records they replaced)."""

    @pytest.mark.parametrize("nrows,ncols,r0,r1,branch", [
        (3, (2**62 - 1) // 3, 0, 3, "fused"),   # 2**62 - 1
        (4, 2**60, 0, 4, "records"),            # 2**62
        (4, 2**60, 1, 4, "fused"),              # 3 * 2**60 of 4 rows
        (2, 2**61, 0, 2, "records"),            # 2**62
        (6, 2**60, 2, 6, "records"),            # 2**62 past row 0
        (3, 2**62, 0, 3, "records"),            # int64 keys would wrap
        (5, 9, 0, 5, "fused"),
    ])
    def test_positions_and_hits_against_dense(self, nrows, ncols, r0, r1,
                                              branch, monkeypatch):
        rng = np.random.default_rng(nrows * 7 + r0)
        # columns: both ends, their neighbours and up to 8 between
        pool = np.unique(np.concatenate(([0, 1, ncols - 2, ncols - 1],
                                         rng.integers(0, ncols, 8))))
        dense = rng.random((nrows, len(pool))) < 0.5
        rows, at = np.nonzero(dense)
        m = SparseMatrix(nrows, ncols, np.searchsorted(
            rows, np.arange(nrows + 1)), pool[at], np.ones(len(at), np.uint8),
            XOR.domain)
        i, p = (a.ravel() for a in np.meshgrid(np.arange(r1 - r0),
                                                np.arange(len(pool)),
                                                indexing="ij"))
        keys = spy_keys(monkeypatch)
        k, hit = _find(m, r0, r1, _key(i, pool[p], r1 - r0, ncols))
        assert keys == [(m.indptr[r1] - m.indptr[r0],
                         OBJECT if branch == "records" else INT64)]
        assert hit.tolist() == dense[r0 + i, p].tolist()
        # k counts the block's entries before the position, row-major
        lo = m.indptr[r0]
        before = [int(np.sum(dense[r0:r0 + a]) + np.sum(dense[r0 + a, :b]))
                  for a, b in zip(i, p)]
        assert k.tolist() == before
        assert (m.indices[lo + k[hit]] == pool[p[hit]]).all()

    def test_empty_block_and_query(self):
        m = SparseMatrix(3, 5, np.array([0, 2, 2, 3]), np.array([1, 4, 0]),
                         np.ones(3, np.uint8), XOR.domain)
        k, hit = _find(m, 1, 2, np.array([1, 4]))
        assert k.tolist() == [0, 0] and hit.tolist() == [False, False]
        k, hit = _find(m, 0, 3, np.empty(0, np.int64))
        assert len(k) == len(hit) == 0


class TestChunkedFold:
    """Every block of `_mxm`, vxm's one row included, feeds the
    accumulator its products a chunk of `_VXM_CHUNK_PRODUCTS` at a time."""

    @staticmethod
    def _chunk_sizes(monkeypatch):
        sizes = []
        real = kernels._accumulate

        def spy(sr, dtype, nslots, chunks, keep=None):
            chunks = list(chunks)
            sizes.append([len(slots) for slots, _ in chunks])
            return real(sr, dtype, nslots, chunks, keep)

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


class TestPrivateVxm:
    """`_vxm`, the one-row product the traversals call on arrays: the
    row vector storing x at ascending ids, times b, as (columns, values),
    bit-identical to the dense oracle and to vxm on the accumulator path,
    the sort path and chunks of 2 products, under every mask form."""

    WIDE = 2**17  # more slots than _DENSE_MIN_SLOTS: the sort path

    @staticmethod
    def _same(got, want):
        if got.dtype == object:
            return got.tolist() == want.tolist()
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("path", ["accumulate", "sort", "chunks"])
    @pytest.mark.parametrize("masked", TestMxv.MASKS)
    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_against_oracle_and_vxm(self, name, masked, path, monkeypatch):
        if path == "chunks":
            monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 2)
        chunks = TestChunkedFold._chunk_sizes(monkeypatch)
        sr = get_semiring(name)
        rng = random.Random(79)
        for _ in range(12):
            n, m = rng.randint(1, 9), rng.randint(1, 9)
            a = random_matrix(sr, rng, n, m, density=0.5)
            f = random_matrix(sr, rng, 1, n, density=0.6)
            mask, complement = TestMxv._mask(rng, masked, m, column=False)
            d = oracle.dense_mxm(sr, oracle.densify(f, sr.zero),
                                 oracle.densify(a, sr.zero))
            want = [j for j in range(m) if d[0, j] != sr.zero
                    and TestMxv._kept(mask, complement, j)]
            cols = np.arange(m)
            if path == "sort":  # column k of a moves to column cols[k]
                cols = np.array(sorted(rng.sample(range(self.WIDE), m)))
                a = gm.build(sr, (n, self.WIDE), (a.row_arrays(),
                                                  cols[a.indices], a.values))
                if isinstance(mask, np.ndarray):
                    wide = np.zeros(self.WIDE, dtype=bool)
                    wide[cols[mask]] = True
                    mask = wide
                elif mask is not None:
                    mask = gm.build(XOR, (1, self.WIDE), (
                        [0] * mask.nnz, cols[mask.indices], mask.values))
            got_cols, got_vals = kernels._vxm(sr, f.indices, f.values, a,
                                              mask, complement)
            assert got_cols.tolist() == cols[want].tolist()
            assert got_vals.tolist() == [d[0, j] for j in want]
            ref = gm.vxm(sr, f, a, mask=mask, complement=complement)
            assert np.array_equal(got_cols, ref.indices)
            assert self._same(got_vals, ref.values)
        # the sort path never folds into the accumulator; a cap of 2
        # splits some row of more than 2 products into several chunks
        assert (not chunks) == (path == "sort")
        if path == "chunks":
            assert any(len(sizes) > 1 for sizes in chunks)

    @pytest.mark.parametrize("path", ["compare", "bitmap", "sort",
                                      "chunks"])
    def test_into_lowers_w_as_the_fresh_fold_would(self, path, monkeypatch):
        # w<min>= x a in place gives w, and the columns it lowered with
        # their values, as a fresh min fold compared against w does
        wide = path in ("bitmap", "sort")
        if path == "bitmap":  # every lowered set against a wide w
            monkeypatch.setattr(kernels, "_DENSE_MIN_SLOTS", self.WIDE)
        if path == "chunks":
            monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 2)
        rng = random.Random(83)
        for _ in range(40):
            n, m = rng.randint(1, 9), rng.randint(1, 9)
            a = random_matrix(MINPLUS, rng, n, m, density=0.6)
            f = random_matrix(MINPLUS, rng, 1, n, density=0.6)
            cols = (np.array(sorted(rng.sample(range(self.WIDE), m)))
                    if wide else np.arange(m))
            a = gm.build(MINPLUS, (n, cols[-1] + 1 if wide else m), (
                a.row_arrays(), cols[a.indices], a.values))
            w = np.array([rng.choice([math.inf, 0.0, 1.5, 4.0, 9.0])
                          for _ in range(a.ncols)])
            fresh_cols, fresh_vals = kernels._vxm(MINPLUS, f.indices,
                                                  f.values, a)
            lower = fresh_vals < w[fresh_cols]
            want = w.copy()
            want[fresh_cols[lower]] = fresh_vals[lower]
            got_cols, got_vals = kernels._vxm(MINPLUS, f.indices, f.values,
                                              a, into=w)
            assert got_cols.tolist() == fresh_cols[lower].tolist()
            assert got_vals.tobytes() == fresh_vals[lower].tobytes()
            assert w.tobytes() == want.tobytes()

    def test_positions_built_once_in_one_chunk(self, monkeypatch):
        # products within the cap: _ranges gives all positions and no
        # chunk loop runs; above it, _chunks splits them
        a = gm.build(ARITH, (5, 6), ([k // 2 for k in range(10)],
                                     [k % 6 for k in range(10)],
                                     [float(k + 1) for k in range(10)]))
        ids, x = np.arange(5), np.array([1.0, 2, 3, 4, 5])
        loops = []
        real = kernels._chunks
        monkeypatch.setattr(kernels, "_chunks",
                            lambda *args: loops.append(1) or real(*args))
        whole = kernels._vxm(ARITH, ids, x, a)
        assert loops == []
        monkeypatch.setattr(kernels, "_VXM_CHUNK_PRODUCTS", 4)
        split = kernels._vxm(ARITH, ids, x, a)
        assert loops == [1]
        assert all(np.array_equal(p, q) for p, q in zip(whole, split))

    def test_broadcast_values_and_empty_row(self):
        # a frontier's ones come as a broadcast view, not an array
        a = load_fixture_adjacency(XOR)
        ones = np.broadcast_to(XOR.domain.dtype(1), 2)
        cols, vals = kernels._vxm(XOR, np.array([0, 3]), ones, a)
        want = gm.vxm(XOR, gm.build(XOR, (1, 7), ([0, 0], [0, 3], [1, 1])),
                      a)
        assert cols.tolist() == want.indices.tolist()
        assert vals.tolist() == want.values.tolist()
        cols, vals = kernels._vxm(ARITH, np.empty(0, dtype=np.int64),
                                  np.empty(0), load_fixture_adjacency())
        assert len(cols) == len(vals) == 0
