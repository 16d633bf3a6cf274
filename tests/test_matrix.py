import dataclasses
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphmat as gm
from graphmat.algebra import INTEGER, NATURAL, OP_PLUS, OP_TIMES, set_domain
from graphmat.errors import DomainError, GraphMatError, IndexBoundsError
from graphmat.matrix import (
    _TIMSORT_MAX_RUNS,
    _key,
    _narrow,
    _sort,
    check_no_stored_zero,
    coalesce,
)

import oracle
from conftest import (
    NAMED_SEMIRINGS,
    OBJECT_TIMSORT,
    PACKED,
    TIMSORT,
    assert_matches_dense,
    get_semiring,
    load_fixture_adjacency,
    random_matrix,
    spy_sorts,
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
        with pytest.raises(GraphMatError, match=r"^duplicate entry at "
                           r"\(0, 0\) in strict mode$"):
            gm.build(ARITH, (2, 2), ([0, 0], [0, 0], [5.0, 3.0]),
                     strict_dup=True)

    @pytest.mark.parametrize("ncols", [3, 2**61 - 1, 2**61])
    def test_strict_mode_names_the_duplicate_about_2_62(self, ncols):
        # 2 x 2**61 keys reach 2**62 and are Python ints; the message names
        # (row, col) on either side
        with pytest.raises(GraphMatError, match=r"^duplicate entry at "
                           rf"\(1, {ncols - 1}\) in strict mode$"):
            gm.build(ARITH, (2, ncols), ([1, 0, 1], [ncols - 1, 0, ncols - 1],
                                         [5.0, 3.0, 1.0]), strict_dup=True)

    def test_non_commutative_dup_folds_in_input_order(self):
        sub = gm.BinaryOp("minus", operator.sub)
        a = gm.build(ARITH, (2, 2), ([0, 1, 0, 0], [1, 0, 1, 1],
                                     [10.0, 4.0, 3.0, 2.0]), dup=sub)
        assert a.get(0, 1) == 5.0  # (10 - 3) - 2
        assert a.get(1, 0) == 4.0

    def test_python_dup_steps_beyond_an_unsigned_dtype(self):
        # y - x over 5, 3, 10 steps through 3 - 5 = -2, outside uint64,
        # and ends at 10 - (-2) = 12; a fold that ends outside raises
        sets = gm.semiring_by_name("union-intersect", universe_size=64)
        back = gm.BinaryOp("minus-from", lambda x, y: y - x)
        a = gm.build(sets, (1, 1), ([0, 0, 0], [0, 0, 0], [5, 3, 10]),
                     dup=back)
        assert a.values.tolist() == [12]
        with pytest.raises(DomainError):
            gm.build(sets, (1, 1), ([0, 0], [0, 0], [5, 3]), dup=back)

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


class TestPythonScalarsOut:
    """`get` and TripleList iteration hand back Python scalars, which
    `scalar_add` and `scalar_mul` take, in every built-in domain."""

    @pytest.mark.parametrize("sr,v", [
        (gm.semiring_by_name("arith-real"), 2.5),
        (gm.semiring_by_name("max-min"), 2.5),
        (gm.semiring_by_name("max-min", variant="nonpos"), -2.5),
        (gm.semiring_by_name("arith-natural"), 3),
        (gm.make_semiring("int-arith", INTEGER, OP_PLUS, OP_TIMES, 0, 1), -3),
        (gm.semiring_by_name("xor-and"), 1),
        (gm.semiring_by_name("union-intersect", universe_size=8), 0b101),
        (gm.semiring_by_name("union-intersect", universe_size=64), 2**63 | 1),
        # a user domain on an object array, of Python objects already
        (gm.make_semiring("fraction", gm.Domain(
            name="fraction", dtype=object,
            contains=lambda v: isinstance(v, Fraction), sample=None,
            parse_text=Fraction, render=str, mm_field="real"),
            OP_PLUS, OP_TIMES, Fraction(0), Fraction(1)), Fraction(1, 3)),
    ], ids=["real", "real-nonneg", "real-nonpos", "natural", "integer",
            "bool", "set8", "set64", "object"])
    def test_values_read_back_pass_the_scalar_ops(self, sr, v):
        a = gm.build(sr, (1, 2), ([0], [1], [v]))
        got = a.get(0, 1)
        (r, c, x), = gm.extract_tuples(a)
        assert [(type(y), y) for y in (got, r, c, x)] == [
            (type(v), v), (int, 0), (int, 1), (type(v), v)]
        assert gm.scalar_add(sr, got, x) == sr.add(v, v)
        assert gm.scalar_mul(sr, got, x) == sr.mul(v, v)
        assert a.get(0, 0) is None

    def test_natural_read_back_still_overflows(self):
        nat = gm.semiring_by_name("arith-natural")
        top = gm.build(nat, (1, 1), ([0], [0], [2**64 - 1])).get(0, 0)
        assert top == 2**64 - 1 and type(top) is int
        with pytest.raises(DomainError, match="natural addition overflow"):
            gm.scalar_add(nat, top, 1)
        with pytest.raises(DomainError,
                           match="natural multiplication overflow"):
            gm.scalar_mul(nat, top, 2)


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
        # the column order alone must give the same arrays
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

    @pytest.mark.parametrize("ncols", [2**16 + 1, 10**6])
    def test_wide_against_dense_oracle(self, rng, ncols):
        # a's 90 columns spread over ncols in order; CSR keys run one per
        # row, so up to 4 rows take timsort and 80-120 rows the packed sort
        n = 90
        wide = np.array(sorted(rng.sample(range(ncols), n)))
        for m in [rng.randint(1, 20) for _ in range(5)] + [
                rng.randint(80, 120) for _ in range(5)]:
            a = random_matrix(ARITH, rng, m, n, density=0.5)
            d = oracle.densify(a, 0.0)
            at = gm.transpose(gm.build(ARITH, (m, ncols), (
                a.row_arrays(), wide[a.indices], a.values)))
            assert at.dims == (ncols, m) and at.nnz == a.nnz
            assert np.all(np.diff(at.indptr)[np.setdiff1d(
                np.arange(ncols), wide)] == 0)
            for q in range(n):
                for p in range(m):
                    assert at.get(wide[q], p, 0.0) == d[p, q]

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


def sort_keys(rows, cols, nrows, ncols):
    """Row-major (order, sorted keys) of (rows, cols), as coalesce sorts."""
    return _sort(_key(rows, cols, nrows, ncols), nrows * ncols)


def assert_row_major(got, rows, cols, ncols):
    """`sort_keys`'s (order, keys) against lexsort's order: the keys split
    into the rows and columns that order sorts."""
    want = np.lexsort((cols, rows))
    order, keys = got
    sorted_rows, sorted_cols = (np.array(p, dtype=np.int64)
                                for p in (keys // ncols, keys % ncols))
    assert np.array_equal(order, want)
    assert np.array_equal(sorted_rows, rows[want])
    assert np.array_equal(sorted_cols, cols[want])


class TestOrder:
    # 5,000 keys take 13 position bits: rows x columns below 2**50 leave
    # key and position bits at 63, the packed sort's budget; one more
    # column makes them 64 (timsort); from 2**62 the keys are Python ints,
    # which timsort orders as objects
    @pytest.mark.parametrize("dims, sorts", [
        ((2**25, 2**25), PACKED), ((2**25, 2**25 + 1), TIMSORT),
        ((2**31, 2**31), OBJECT_TIMSORT)],
        ids=["packed", "timsort", "object"])
    def test_stable_row_major_on_either_side_of_the_packed_budget(
            self, dims, sorts, monkeypatch):
        rng = np.random.default_rng(3)
        # few distinct rows and columns, so most keys have ties
        rows = rng.choice([0, 1, dims[0] - 1], 5000)
        cols = rng.choice([0, dims[1] // 2, dims[1] - 1], 5000)
        calls = spy_sorts(monkeypatch)
        got = sort_keys(rows, cols, *dims)
        monkeypatch.undo()
        assert calls == sorts
        assert got[1].dtype == (object if sorts == OBJECT_TIMSORT
                                else np.int64)
        assert_row_major(got, rows, cols, dims[1])


class TestKey:
    """`_key` is int64 while rows x columns stay below 2**62 and Python
    ints from there; coalesce then sorts them in one stable argsort."""

    @pytest.mark.parametrize("dims, dtype", [
        ((1, 2**62 - 1), np.int64), ((3, (2**62 - 1) // 3), np.int64),
        ((1, 2**62), object), ((2, 2**61), object), ((2**31, 2**31), object),
        ((2**40, 2**40), object)])
    def test_dtype_on_either_side_of_2_62(self, dims, dtype):
        nrows, ncols = dims
        rows, cols = np.array([0, nrows - 1]), np.array([ncols - 1, 0])
        keys = _key(rows, cols, nrows, ncols)
        assert keys.dtype == dtype
        assert keys.tolist() == [ncols - 1, (nrows - 1) * ncols]

    def test_coalesce_past_2_62_takes_one_object_argsort(self, monkeypatch):
        big = 2**62
        calls = spy_sorts(monkeypatch)
        a = coalesce(3, big, [2, 0, 2, 1, 0], [big - 1, 9, 0, big - 1, 9],
                     np.array([1.0, 2.0, 3.0, 4.0, 5.0]), OP_PLUS, 0.0,
                     ARITH.domain)
        monkeypatch.undo()
        assert calls == OBJECT_TIMSORT
        assert a.indptr.tolist() == [0, 1, 2, 4]
        assert a.indices.dtype == np.int64
        assert a.indices.tolist() == [9, big - 1, 0, big - 1]
        assert a.values.tolist() == [7.0, 4.0, 3.0, 1.0]


def _keys_in(rng, span, runs, n):
    """n keys in [0, span) from a pool of about 30, most of them ties:
    the pool holds 0, span - 1 and the keys beside each 16-bit digit
    boundary below span. `runs` is a count of ascending runs, each led
    by 8 of the pool's least key and ended by 8 of its greatest, so that
    each run's end shows as 8 descents 8 places apart; "random"; or
    "local", keys drawn from all of [0, span), sorted and then shuffled
    within each 4 places."""
    pool = np.unique(np.r_[[0, span - 1], [
        b + d for b in (2**16, 2**32, 2**48) for d in (-1, 0)
        if b + d < span], rng.integers(0, span, 20)])
    keys = rng.choice(pool, n)
    if runs == "random":
        return keys
    if runs == "local":
        keys = np.sort(rng.integers(0, span, n - n % 4)).reshape(-1, 4)
        return rng.permuted(keys, axis=1).ravel()
    return np.concatenate([np.r_[[pool[0]] * 8, np.sort(part),
                                 [pool[-1]] * 8]
                           for part in np.array_split(keys, runs)])


class TestArgsort:
    """`_sort` of `_key`s against lexsort, on keys in few runs and in many,
    at key spans around 16-bit boundaries and up to the largest below
    2**62, where the keys turn to Python ints; `_sort` against numpy's
    stable argsort."""

    # row x column splits of 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**48,
    # 2**48 + 1 and 2**62 - 1
    DIMS = [(2**8, 2**8), (1, 2**16 + 1), (2**16, 2**16), (641, 6700417),
            (2**16, 2**32), (193, (2**48 + 1) // 193),
            (3, (2**62 - 1) // 3)]

    @pytest.mark.parametrize("runs", sorted(
        {1, 2, _TIMSORT_MAX_RUNS - 1, _TIMSORT_MAX_RUNS, 63, 64})
        + ["random", "local"])
    @pytest.mark.parametrize("dims", DIMS)
    def test_order_equals_lexsort(self, dims, runs, monkeypatch):
        # "local" keys descend about every 3 places, but only within 4
        # places: timsort sorts them. Keys in many runs take the packed
        # sort when their bits and the 12 position bits of 3,000 keys fit
        # in 63, which the 62 bits of 2**62 - 1 do not
        nrows, ncols = dims
        span = nrows * ncols
        keys = _keys_in(np.random.default_rng(span % 1009), span, runs, 3000)
        rows, cols = keys // ncols, keys % ncols
        calls = spy_sorts(monkeypatch)
        got = sort_keys(rows, cols, nrows, ncols)
        monkeypatch.undo()
        assert_row_major(got, rows, cols, ncols)
        many = runs == "random" or (runs != "local"
                                    and runs >= _TIMSORT_MAX_RUNS)
        fits = int(span - 1).bit_length() + 12 <= 63
        assert calls == (PACKED if many and fits else TIMSORT)

    @settings(max_examples=150, deadline=None)
    @given(span=st.integers(2, 2**62 - 1), seed=st.integers(0, 2**32 - 1),
           runs=st.one_of(st.sampled_from(["random", "local"]),
                          st.integers(1, 128)),
           n=st.integers(0, 3000),
           dtype=st.sampled_from(["int64", "uint16", "uint32", "float64"]))
    def test_argsort_equals_stable_argsort(self, span, seed, runs, n, dtype):
        # keys in any dtype that holds the span: below 2**16 `_keys_in`
        # itself returns float64 keys
        keys = _keys_in(np.random.default_rng(seed), span, runs, n)
        if span <= {"int64": 2**62, "uint16": 2**16, "uint32": 2**32,
                    "float64": 2**53}[dtype]:
            keys = keys.astype(dtype)
        order, sorted_keys = _sort(keys, span)
        want = np.argsort(keys, kind="stable")
        assert np.array_equal(order, want)
        assert np.array_equal(sorted_keys, keys[want])


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


def cast_and_compare(vals, domain):
    """How values entered a matrix before int64 words took a sign test
    and a view into uint64: the cast, then a compare of the whole array."""
    raw = cast = np.asarray(vals)
    if raw.dtype != domain.dtype:
        if raw.dtype.kind == "f" and np.dtype(domain.dtype).kind in "iu":
            raw = np.asarray(vals, dtype=object)
        try:
            cast = raw.astype(domain.dtype)
        except (OverflowError, ValueError, TypeError):
            cast = None
        if cast is None or not np.array_equal(cast, raw):
            if domain is NATURAL:
                domain.check_array(raw)
            raise DomainError(f"value outside domain {domain.name}")
    domain.check_array(cast)
    return cast


def narrowed(narrow, vals, domain):
    """The dtype and values `narrow` gives, or what it raises."""
    try:
        out = narrow(vals, domain)
    except Exception as exc:
        return type(exc), str(exc)
    return out.dtype, out.tolist()


class TestNarrowWords:
    """int64 words enter a uint64 domain by a sign test and a view."""

    DOMAINS = [NATURAL, set_domain(64), set_domain(16),
               dataclasses.replace(NATURAL, name="my-natural")]
    WORD = st.one_of(st.integers(-2**63, 2**63 - 1),
                     st.sampled_from([-1, 0, 1, 2**16, 2**63 - 1, -2**63]))

    @settings(max_examples=300, deadline=None)
    @given(words=st.lists(WORD, max_size=12), k=st.integers(0, 3))
    def test_matches_cast_and_compare(self, words, k):
        domain = self.DOMAINS[k]
        vals = np.array(words, dtype=np.int64)
        assert narrowed(_narrow, vals, domain) == \
            narrowed(cast_and_compare, vals, domain)

    def test_negative_word_named(self):
        vals = np.array([3, -7, 2**62, -1], dtype=np.int64)
        with pytest.raises(DomainError, match="^-7 is not a 64-bit natural$"):
            _narrow(vals, NATURAL)

    def test_a_view_not_a_copy(self):
        vals = np.array([5, 2**63 - 1], dtype=np.int64)
        out = _narrow(vals, NATURAL)
        assert out.dtype == np.uint64 and np.shares_memory(out, vals)
        assert out.tolist() == [5, 2**63 - 1]
