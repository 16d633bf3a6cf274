import math
import operator
import random

import numpy as np
import pytest

import graphmat as gm
from graphmat import oracle
from graphmat.algebra import INTEGER, OP_PLUS, OP_TIMES
from graphmat.errors import DomainError, GraphMatError, IndexBoundsError
from graphmat.matrix import check_no_stored_zero, coalesce

from conftest import (
    NAMED_SEMIRINGS,
    assert_matches_dense,
    get_semiring,
    load_fixture_adjacency,
    random_matrix,
)

ARITH = gm.semiring_by_name("arith-real")


class TestBuild:
    def test_fixture_has_twelve_entries(self):
        a = load_fixture_adjacency()
        assert a.dims == (7, 7)
        assert a.nnz == 12

    def test_duplicates_fold_with_dup_op(self):
        a = gm.build(ARITH, (2, 2), ([0, 0], [0, 0], [5.0, 3.0]))
        assert a.nnz == 1
        assert a.get(0, 0) == 8.0

    def test_empty_triples(self):
        a = gm.build(ARITH, (3, 3), ([], [], []))
        assert a.nnz == 0
        assert len(gm.extract_tuples(a)) == 0

    def test_index_out_of_bounds(self):
        with pytest.raises(IndexBoundsError):
            gm.build(ARITH, (2, 2), ([0, 2], [0, 0], [1.0, 1.0]))
        with pytest.raises(IndexBoundsError):
            gm.build(ARITH, (2, 2), ([0], [-1], [1.0]))

    def test_index_beyond_int64_raises_index_bounds_error(self):
        for rows, cols in (([0], [10**20]), ([2**63], [0]),
                           ([0], [-(2**63) - 1])):
            with pytest.raises(IndexBoundsError):
                gm.build(ARITH, (10**20 + 1, 10**20 + 1),
                         (rows, cols, [1.0]))

    def test_length_mismatch(self):
        with pytest.raises(GraphMatError):
            gm.build(ARITH, (2, 2), ([0, 1], [0], [1.0]))

    def test_strict_mode_rejects_duplicates(self):
        with pytest.raises(GraphMatError):
            gm.build(ARITH, (2, 2), ([0, 0], [0, 0], [5.0, 3.0]),
                     strict_dup=True)

    def test_non_commutative_dup_folds_in_input_order(self):
        sub = gm.BinaryOp("minus", operator.sub, commutative=False,
                          associative=False)
        a = gm.build(ARITH, (2, 2), ([0, 1, 0, 0], [1, 0, 1, 1],
                                     [10.0, 4.0, 3.0, 2.0]), dup=sub)
        assert a.get(0, 1) == 5.0  # (10 - 3) - 2
        assert a.get(1, 0) == 4.0

    def test_float_duplicates_fold_left_to_right(self):
        # (1e16 + 1) + 1 rounds to 1e16 twice; 1e16 + (1 + 1) does not
        a = gm.build(ARITH, (1, 1), ([0, 0, 0], [0, 0, 0], [1e16, 1.0, 1.0]))
        assert a.get(0, 0) == (1e16 + 1.0) + 1.0

    def test_values_the_cast_would_change_raise_domain_error(self):
        # out of range, wrapped or truncated by the cast to the dtype
        sr = gm.make_semiring("int-arith", INTEGER, OP_PLUS, OP_TIMES, 0, 1)
        xor = gm.semiring_by_name("xor-and")
        for s, bad in ((sr, [2**63]), (sr, [-(2**63) - 1]),
                       (sr, np.array([2**63], dtype=np.uint64)),
                       (sr, np.array([1e19])), (sr, np.array([2.5])),
                       (xor, np.array([256])), (xor, np.array([0.5]))):
            with pytest.raises(DomainError):
                gm.build(s, (1, 1), ([0], [0], bad))
        top = gm.build(sr, (1, 1), ([0], [0], [2**63 - 1]))
        assert top.values.tolist() == [2**63 - 1]
        assert gm.build(sr, (1, 1), ([0], [0], np.array([3.0]))).get(0, 0) == 3

    def test_folded_duplicates_stay_in_natural_domain(self):
        nat = gm.semiring_by_name("arith-natural")
        big = 2**64 - 2
        assert gm.build(nat, (1, 1), ([0], [0], [big])).get(0, 0) == big
        with pytest.raises(DomainError):
            gm.build(nat, (1, 1), ([0, 0], [0, 0], [big, big]))

    def test_zero_valued_results_dropped(self):
        a = gm.build(ARITH, (2, 2), ([0, 0, 1], [0, 0, 1], [5.0, -5.0, 2.0]))
        assert a.nnz == 1
        assert check_no_stored_zero(a, 0.0)

    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_build_matches_dense_accumulation(self, name):
        sr = get_semiring(name)
        rng = random.Random(sum(map(ord, name)))
        for _ in range(20):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            k = rng.randint(0, 30)
            rows = [rng.randrange(m) for _ in range(k)]
            cols = [rng.randrange(n) for _ in range(k)]
            vals = [sr.domain.sample(rng) for _ in range(k)]
            a = gm.build(sr, (m, n), (rows, cols, vals))
            d = oracle.dense_accumulate(m, n, rows, cols, vals,
                                        sr.add, sr.zero)
            rel = 1e-12 if name == "arith-real" else 0.0
            assert_matches_dense(a, d, sr.zero, rel_tol=rel)
            assert a.nnz <= k


class TestCoalesce:
    def test_values_the_cast_would_change_raise_domain_error(self):
        for bad in ([2**63], np.array([2**63], dtype=np.uint64),
                    np.array([2.5])):
            with pytest.raises(DomainError):
                coalesce(1, 1, [0], [0], bad, OP_PLUS, 0, INTEGER)
        kept = coalesce(1, 1, [0, 0], [0, 0], [2**62, 2**62 - 1], OP_PLUS,
                        0, INTEGER)
        assert kept.values.tolist() == [2**63 - 1]


class TestExtractTuples:
    def test_row_major_order_and_roundtrip(self, rng):
        for _ in range(20):
            a = random_matrix(ARITH, rng, rng.randint(1, 10),
                              rng.randint(1, 10))
            t = gm.extract_tuples(a)
            assert len(t) == a.nnz
            keys = list(zip(t.rows.tolist(), t.cols.tolist()))
            assert keys == sorted(keys)
            assert gm.build(ARITH, a.dims, t) == a

    def test_empty_matrix(self):
        t = gm.extract_tuples(gm.empty_matrix(ARITH, 3, 4))
        assert len(t.rows) == len(t.cols) == len(t.vals) == 0

    def test_fixture_tuples(self):
        t = gm.extract_tuples(load_fixture_adjacency())
        assert len(t) == 12


class TestTranspose:
    def test_involution(self, rng):
        for _ in range(20):
            a = random_matrix(ARITH, rng, rng.randint(1, 9),
                              rng.randint(1, 9))
            assert gm.transpose(gm.transpose(a)) == a

    def test_entries_swapped(self, rng):
        a = random_matrix(ARITH, rng, 5, 7)
        at = gm.transpose(a)
        assert at.dims == (7, 5)
        for i, j, v in gm.extract_tuples(a):
            assert at.get(j, i) == v

    def test_agrees_with_triple_rebuild(self, rng):
        for _ in range(10):
            a = random_matrix(ARITH, rng, 6, 8)
            t = gm.extract_tuples(a)
            rebuilt = gm.build(ARITH, (8, 6), (t.cols, t.rows, t.vals))
            assert gm.transpose(a) == rebuilt

    def test_row_vector_becomes_column(self):
        v = gm.build(ARITH, (1, 3), ([0, 0], [0, 2], [1.5, 2.5]))
        vt = gm.transpose(v)
        assert vt.dims == (3, 1)
        assert vt.get(0, 0) == 1.5
        assert vt.get(2, 0) == 2.5


    @pytest.mark.parametrize("ncols", [1, 9, 2**16, 2**16 + 1, 10**6])
    def test_column_order_equals_row_major_sort(self, rng, ncols):
        # the old transpose: a stable row-major sort of (col, row) keys;
        # the column order alone must give the same arrays, uint16 keys
        # up to 2**16 columns and int64 above
        for _ in range(20):
            nrows = rng.randint(1, 30)
            k = rng.randint(0, 60)
            rows = [rng.randrange(nrows) for _ in range(k)]
            # few distinct columns, so most columns and some rows are empty
            pool = rng.sample(range(ncols), min(ncols, 5))
            cols = [rng.choice(pool) for _ in range(k)]
            a = gm.build(ARITH, (nrows, ncols),
                         (rows, cols, [rng.uniform(1, 9) for _ in rows]))
            r = a.row_arrays()
            order = np.lexsort((r, a.indices))
            at = gm.transpose(a)
            assert at.dims == (ncols, nrows)
            assert np.array_equal(
                at.indptr, np.concatenate(([0], np.cumsum(
                    np.bincount(a.indices, minlength=ncols)))))
            assert np.array_equal(at.indices, r[order])
            assert np.array_equal(at.values, a.values[order])

    def test_public_transpose_is_not_cached(self, rng):
        a = random_matrix(ARITH, rng, 4, 6)
        assert gm.transpose(a) is not gm.transpose(a)
        assert a._transposed(build=False) is None
        assert a._transposed() is a._transposed() == gm.transpose(a)


class TestCanonicalInvariants:
    @pytest.mark.parametrize("name", ["arith-real", "min-plus", "xor-and"])
    def test_canonical_form(self, name, rng):
        sr = get_semiring(name)
        for _ in range(10):
            a = random_matrix(sr, rng, 8, 8)
            assert check_no_stored_zero(a, sr.zero)
            # strictly increasing column indices per row
            for i in range(a.nrows):
                cols, _ = a.row(i)
                assert np.all(np.diff(cols) > 0)


class TestNaNRejected:
    def test_build_rejects_nan(self):
        sr = gm.semiring_by_name("min-plus")
        with pytest.raises(DomainError):
            gm.build(sr, (2, 2), ([0], [1], [float("nan")]))

    def test_fold_rejects_nan(self):
        # inf + -inf is NaN: caught at the fold of ewise_add and mxm
        sr = gm.semiring_by_name("arith-real")
        pos = gm.build(sr, (1, 1), ([0], [0], [float("inf")]))
        neg = gm.build(sr, (1, 1), ([0], [0], [float("-inf")]))
        with pytest.raises(DomainError), np.errstate(invalid="ignore"):
            gm.ewise_add(sr.add, sr.zero, pos, neg)
        row = gm.build(sr, (1, 2), ([0, 0], [0, 1],
                                    [float("inf"), float("-inf")]))
        col = gm.build(sr, (2, 1), ([0, 1], [0, 0], [1.0, 1.0]))
        with pytest.raises(DomainError), np.errstate(invalid="ignore"):
            gm.mxm(sr, row, col)
        with pytest.raises(DomainError), np.errstate(invalid="ignore"):
            gm.vxm(sr, row, col)


class TestOrder:
    @pytest.mark.parametrize("dims", [(16, 4096), (17, 4096)])
    def test_stable_row_major_on_either_side_of_16_bit_keys(self, dims):
        # 16 x 4096 keys fit 16 bits and take numpy's radix sort; one
        # more row takes the int64 sort; both must keep input order
        from graphmat.matrix import _order

        rng = np.random.default_rng(3)
        rows = rng.integers(0, dims[0], 5000)
        cols = rng.integers(0, dims[1], 5000)
        assert np.array_equal(_order(rows, cols, *dims),
                              np.lexsort((cols, rows)))


class TestConvertMixedPythonInts:
    """numpy reads a list holding 2**63 beside a small int as float64,
    which rounds 2**63 + 1 and cannot hold 2**64 - 1."""

    SET64 = gm.semiring_by_name("union-intersect", universe_size=64)

    def test_set_values_above_int64_kept_exactly(self):
        vals = [2**63 | 1, 1, 2**64 - 1, 0xF0F0]
        a = gm.build(self.SET64, (1, 4), ([0] * 4, range(4), vals))
        assert a.values.dtype == np.uint64
        assert a.values.tolist() == vals

    def test_mixed_list_still_checked(self):
        for bad in ([2**63, -1], [2**63, 2.5], [2**64, 1], [2**63, math.nan]):
            with pytest.raises(DomainError):
                gm.build(self.SET64, (1, 2), ([0, 0], [0, 1], bad))
        ints = gm.build(self.SET64, (1, 2), ([0, 0], [0, 1], [2.0, 2**63]))
        assert ints.values.tolist() == [2, 2**63]
