"""The multiply, element-wise, extract and assign paths against the dense
oracle on each domain's edge values: results are equal, or both sides
raise DomainError.

Block and chunk caps of 3 and 2 products split blocks, chunks and heavy
rows; the sort-and-fold path is forced by making `_dense` refuse every
accumulator.
"""

import contextlib
import dataclasses
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphmat as gm
from graphmat import kernels, matrix
from graphmat.algebra import INTEGER, OP_PLUS, OP_TIMES
from graphmat.errors import DomainError

import oracle
from conftest import assert_matches_dense

TINY = 5e-324  # the least subnormal
FLOATS = [math.inf, -math.inf, -0.0, TINY, -TINY, 2.2250738585072014e-308,
          1e308, -1e308, 1.0, -1.5]
# semiring, then the values drawn for its entries: the domain's edges
# and a few ordinary values, so that some products stay in the domain
CASES = {
    "arith-natural": (gm.semiring_by_name("arith-natural"),
                      [0, 1, 2, 3, 2**32, 2**63, 2**64 - 1]),
    "integer": (gm.make_semiring("int-arith", INTEGER, OP_PLUS, OP_TIMES,
                                 0, 1),
                [0, 1, -1, 2, 2**63 - 1, -(2**63 - 1), -(2**63)]),
    "arith-real": (gm.semiring_by_name("arith-real"), FLOATS),
    "min-plus": (gm.semiring_by_name("min-plus"), FLOATS),
    "union-intersect": (gm.semiring_by_name("union-intersect",
                                            universe_size=64),
                        [0, 1, 2**63, 2**63 | 1, 2**64 - 1, 0xF0F0]),
}
MASKS = ["none", "structural", "structural-complement", "bitmap",
         "bitmap-complement"]
XOR = gm.semiring_by_name("xor-and")
MINUS = gm.BinaryOp("minus", operator.sub)
# 1e308 * 1e308 and inf - inf are the point here, not a fault
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")


def _matrix(draw, name, nrows, ncols):
    """An nrows x ncols matrix over CASES[name], each cell empty or one
    of its edge values."""
    sr, pool = CASES[name]
    cells = draw(st.lists(st.one_of(st.none(), st.sampled_from(pool)),
                          min_size=nrows * ncols, max_size=nrows * ncols))
    at = [p for p, v in enumerate(cells) if v is not None]
    return gm.build(sr, (nrows, ncols), ([p // ncols for p in at],
                                         [p % ncols for p in at],
                                         [cells[p] for p in at]))


@st.composite
def operands(draw):
    """A semiring name, then A (m x k), B (k x n) and a row vector u
    (1 x k) over it, their entries drawn from its edge values."""
    name = draw(st.sampled_from(sorted(CASES)))
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    return (name, _matrix(draw, name, m, k), _matrix(draw, name, k, n),
            _matrix(draw, name, 1, k))


@st.composite
def pairs(draw):
    """A semiring name, then A and B of one shape m x n over it."""
    name = draw(st.sampled_from(sorted(CASES)))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return name, _matrix(draw, name, m, n), _matrix(draw, name, m, n)


def _dense(a, zero):
    """The oracle's dense form with Python scalars, so that an int64
    product grows instead of wrapping."""
    d = oracle.densify(a, zero)
    d.data = [[v.item() if isinstance(v, np.generic) else v for v in row]
              for row in d.data]
    return d


def _reference(sr, a, b, keep):
    """oracle.dense_mxm of row i of a and column j of b at each kept
    (i, j), each on its own, so that a masked-out position cannot raise;
    DomainError if a kept value leaves the domain. Only the k where both
    store a value take part: the sparse product never multiplies an
    implicit 0-element, and with inf stored, 0 * inf would be NaN."""
    da, db = _dense(a, sr.zero), _dense(b, sr.zero)
    want = oracle.DenseMatrix(a.nrows, b.ncols, sr.zero)
    for i in range(a.nrows):
        for j in range(b.ncols):
            both = [k for k in range(a.ncols)
                    if da[i, k] != sr.zero and db[k, j] != sr.zero]
            if not keep(i, j) or not both:
                continue
            row = oracle.DenseMatrix(1, len(both), sr.zero)
            row.data = [[da[i, k] for k in both]]
            col = oracle.DenseMatrix(len(both), 1, sr.zero)
            col.data = [[db[k, j]] for k in both]
            v = oracle.dense_mxm(sr, row, col)[0, 0]
            if v != sr.zero and not sr.domain.contains(v):
                raise DomainError(f"{v!r} is not in domain {sr.domain.name}")
            want[i, j] = v
    return want


def _in_domain(sr, want):
    """`want`, or DomainError if a value it stores left the domain."""
    for row in want.data:
        for v in row:
            if v != sr.zero and not sr.domain.contains(v):
                raise DomainError(f"{v!r} is not in domain {sr.domain.name}")
    return want


def _agree(sr, run, reference):
    try:
        want = reference()
    except DomainError:
        with pytest.raises(DomainError):
            run()
        return
    assert_matches_dense(run(), want, sr.zero)


def _mask(data, kind, n, column):
    """A mask of n positions as `kind` names it, its complement flag, and
    whether it keeps position p."""
    bits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    complement = kind.endswith("complement")
    if kind == "none":
        return None, False, lambda p: True
    mask = np.array(bits, dtype=bool)
    if kind.startswith("structural"):
        on = np.flatnonzero(mask)
        zeros = np.zeros(len(on), dtype=np.int64)
        mask = gm.build(XOR, (n, 1) if column else (1, n),
                        (on, zeros, [1] * len(on)) if column
                        else (zeros, on, [1] * len(on)))
    return mask, complement, lambda p: bits[p] != complement


@contextlib.contextmanager
def small_caps(path):
    """Caps that split blocks, chunks and heavy rows; with path "sort",
    every block sorts and folds instead of accumulating."""
    with mock.patch.object(kernels, "_MXM_CHUNK_PRODUCTS", 3), \
            mock.patch.object(kernels, "_VXM_CHUNK_PRODUCTS", 2), \
            mock.patch.object(kernels, "_dense", {
                "accumulate": kernels._dense,
                "sort": lambda slots, products: False}[path]):
        yield


@pytest.mark.parametrize("path", ["accumulate", "sort"])
class TestMultiplyAtDomainEdges:
    @settings(max_examples=100, deadline=None)
    @given(ops=operands())
    def test_mxm(self, path, ops):
        name, a, b, _ = ops
        sr = CASES[name][0]
        with small_caps(path):
            _agree(sr, lambda: gm.mxm(sr, a, b),
                   lambda: _reference(sr, a, b, lambda i, j: True))

    @pytest.mark.parametrize("kind", MASKS)
    @settings(max_examples=30, deadline=None)
    @given(ops=operands(), data=st.data())
    def test_vxm(self, path, kind, ops, data):
        name, _, b, f = ops
        sr = CASES[name][0]
        mask, complement, keep = _mask(data, kind, b.ncols, column=False)
        with small_caps(path):
            _agree(sr, lambda: gm.vxm(sr, f, b, mask=mask,
                                      complement=complement),
                   lambda: _reference(sr, f, b, lambda i, j: keep(j)))

    @pytest.mark.parametrize("kind", MASKS)
    @settings(max_examples=30, deadline=None)
    @given(ops=operands(), data=st.data())
    def test_mxv(self, path, kind, ops, data):
        name, a, _, u = ops
        sr = CASES[name][0]
        v = gm.transpose(u)
        mask, complement, keep = _mask(data, kind, a.nrows, column=True)
        with small_caps(path):
            _agree(sr, lambda: gm.mxv(sr, a, v, mask=mask,
                                      complement=complement),
                   lambda: _reference(sr, a, v, lambda i, j: keep(i)))


class TestElementwiseAtDomainEdges:
    # minus takes a's value on the left and is closed in no domain here:
    # int64 differences pass 2**63, naturals go negative, inf - inf is
    # NaN; about one operand in eight is empty
    @pytest.mark.parametrize("kernel", ["ewise_add", "ewise_mult"])
    @pytest.mark.parametrize("op", ["add", "mul", "minus"])
    @settings(max_examples=100, deadline=None)
    @given(ops=pairs())
    def test_ewise(self, kernel, op, ops):
        name, a, b = ops
        sr = CASES[name][0]
        fn = MINUS if op == "minus" else getattr(sr, op)
        dense = getattr(oracle, f"dense_{kernel}")
        _agree(sr, lambda: getattr(gm, kernel)(fn, sr.zero, a, b),
               lambda: _in_domain(sr, dense(fn, sr.zero, _dense(a, sr.zero),
                                            _dense(b, sr.zero))))


class TestExtractAssignAtDomainEdges:
    @settings(max_examples=100, deadline=None)
    @given(ops=pairs(), data=st.data())
    def test_extract(self, ops, data):
        name, a, _ = ops
        sr = CASES[name][0]
        i = data.draw(st.lists(st.integers(0, a.nrows - 1), min_size=1,
                               max_size=6))
        j = data.draw(st.lists(st.integers(0, a.ncols - 1), min_size=1,
                               max_size=6))
        _agree(sr, lambda: gm.extract(a, i, j),
               lambda: oracle.dense_extract(_dense(a, sr.zero), i, j,
                                            sr.zero))

    @settings(max_examples=100, deadline=None)
    @given(ops=pairs(), data=st.data())
    def test_assign(self, ops, data):
        name, c, _ = ops
        sr = CASES[name][0]
        i = data.draw(st.lists(st.integers(0, c.nrows - 1), min_size=1,
                               max_size=c.nrows, unique=True))
        j = data.draw(st.lists(st.integers(0, c.ncols - 1), min_size=1,
                               max_size=c.ncols, unique=True))
        a = _matrix(data.draw, name, len(i), len(j))
        _agree(sr, lambda: gm.assign(c, i, j, a),
               lambda: oracle.dense_assign(_dense(c, sr.zero), i, j,
                                           _dense(a, sr.zero), sr.zero))


NAT = CASES["arith-natural"][0]
NAT_EDGES = [2**63 - 1, 2**63, 2**64 - 1]


def _nat(dims, rows, cols, vals):
    return gm.build(NAT, dims, (rows, cols, vals))


class TestNaturalAt64BitEdges:
    """Naturals at 2**63 - 1, 2**63 and 2**64 - 1, stored and folded,
    kept exactly in uint64 storage. With int64 words allowed the bound
    sends these values to Python ints, as it does when words are off;
    either way a natural below 0 or past 2**64 - 1 is named."""

    @pytest.fixture(params=["words-allowed", "python-ints"])
    def path(self, request, monkeypatch):
        if request.param == "python-ints":
            monkeypatch.setattr(matrix, "_WORD_OPS", ())

    def test_words_view_values_below_2_63_only(self):
        for e in NAT_EDGES:
            w, top = matrix._words(np.array([1, e], dtype=np.uint64))
            if e < 2**63:
                assert (w.dtype, w.tolist(), top) == (np.int64, [1, e], e)
            else:  # a view would wrap them negative
                assert (w, top) == (None, 2**63)

    @pytest.mark.parametrize("e", NAT_EDGES)
    def test_stored_and_folded_exactly(self, e, path):
        one, below = _nat((1, 1), [0], [0], [1]), _nat((1, 1), [0], [0],
                                                        [e - 1])
        row = _nat((1, 2), [0, 0], [0, 1], [1, 1])
        col = _nat((2, 1), [0, 1], [0, 0], [e - 1, 1])
        results = {
            "stored": (_nat((1, 2), [0, 0], [1, 0], [e, 1]), [1, e]),
            "build fold": (_nat((1, 1), [0, 0], [0, 0], [e - 1, 1]), [e]),
            "ewise_add": (gm.ewise_add(NAT.add, 0, below, one), [e]),
            # [1 1; 1 0] [e-1 1; 1 0] = [e 1; e-1 1]
            "mxm": (gm.mxm(NAT, _nat((2, 2), [0, 0, 1], [0, 1, 0], [1] * 3),
                           _nat((2, 2), [0, 0, 1], [0, 1, 0], [e - 1, 1, 1])),
                    [e, 1, e - 1, 1]),
            "vxm": (gm.vxm(NAT, row, col), [e]),
            "mxv": (gm.mxv(NAT, row, col), [e]),
            # rows (1, 0) and columns (1, 0) of [0 e; 1 0]
            "extract": (gm.extract(_nat((2, 2), [0, 1], [1, 0], [e, 1]),
                                   [1, 0], [1, 0]), [1, e]),
            "transpose": (gm.transpose(_nat((1, 2), [0, 0], [0, 1], [e, 1])),
                          [e, 1]),
        }
        for name, (got, want) in results.items():
            assert (got.values.dtype, got.values.tolist()) == (
                np.uint64, want), name

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_input_outside_is_named(self, bad, path):
        for vals in ([bad], [2**63, bad], [bad, 2**64 - 1]):
            with pytest.raises(DomainError,
                               match=f"^{bad} is not a 64-bit natural$"):
                _nat((1, 2), [0] * len(vals), [0, 1][:len(vals)], vals)

    def test_an_integral_float_enters_as_its_natural(self, path):
        # arrays are cast exactly, as INTEGER's are: 2.0 enters as 2 in
        # any container, or as a fold's result, and 2.5 is named; the
        # scalar entry points take Python ints only
        for vals in ([2.0], np.array([2.0]), np.array([2.0], dtype=object),
                     [2**63, 2.0]):
            a = _nat((1, 2), [0] * len(vals), [0, 1][-len(vals):], vals)
            assert (a.values.dtype, a.get(0, 1)) == (np.uint64, 2)
        with pytest.raises(DomainError,
                           match=r"^2\.5 is not a 64-bit natural$"):
            _nat((1, 2), [0, 0], [0, 1], [2**63, 2.5])
        with pytest.raises(DomainError, match="not in domain natural"):
            gm.scalar_add(NAT, 2.0, 1)
        divide = gm.BinaryOp("divide", operator.truediv, np.true_divide)
        six, two, four = (_nat((1, 1), [0], [0], [v]) for v in (6, 2, 4))
        assert gm.ewise_mult(divide, 0, six, two).values.tolist() == [3]
        with pytest.raises(DomainError,
                           match=r"^1\.5 is not a 64-bit natural$"):
            gm.ewise_mult(divide, 0, six, four)

    MINE = gm.make_semiring("my-arith", dataclasses.replace(
        NAT.domain, name="my-natural"), NAT.add, NAT.mul, 0, 1)

    def test_a_domain_derived_from_natural_is_as_exact(self, path):
        # a user domain made from NATURAL has no array rule, so its
        # `contains` decides; it is stored as uint64 and its sums and
        # products past 2**64 - 1 raise instead of wrapping
        def m(*vals):
            return gm.build(self.MINE, (1, 1),
                            ([0] * len(vals), [0] * len(vals), vals))

        top, one, x = m(2**64 - 1), m(1), m(2**32)
        assert (top.values.dtype, top.get(0, 0)) == (np.uint64, 2**64 - 1)
        got = [m(2**64 - 2, 1), gm.ewise_add(NAT.add, 0, m(2**64 - 2), one),
               gm.mxm(self.MINE, m(2**32 - 1), m(2**32 + 1))]
        assert [g.values.tolist() for g in got] == [[2**64 - 1]] * 3
        for fold in (lambda: m(2**64 - 1, 1),
                     lambda: gm.ewise_add(NAT.add, 0, top, one),
                     lambda: gm.ewise_mult(NAT.mul, 0, x, x),
                     lambda: gm.mxm(self.MINE, x, x),
                     lambda: gm.vxm(self.MINE, x, x),
                     lambda: gm.mxv(self.MINE, x, x)):
            with pytest.raises(DomainError, match="outside domain my-natural"):
                fold()
        for bad in (-1, 2**64):
            with pytest.raises(DomainError, match="outside domain my-natural"):
                m(bad)

    def test_fold_outside_is_named(self, path):
        x = _nat((1, 1), [0], [0], [2**32])
        top, one = _nat((1, 1), [0], [0], [2**64 - 1]), _nat((1, 1), [0],
                                                              [0], [1])
        for fold in (lambda: gm.mxm(NAT, x, x), lambda: gm.vxm(NAT, x, x),
                     lambda: gm.mxv(NAT, x, x),
                     lambda: gm.ewise_mult(NAT.mul, 0, x, x),
                     lambda: gm.ewise_add(NAT.add, 0, top, one),
                     lambda: _nat((1, 1), [0, 0], [0, 0], [2**64 - 1, 1])):
            with pytest.raises(DomainError, match=f"^{2**64} is not a "
                                                  "64-bit natural$"):
                fold()
