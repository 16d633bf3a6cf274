"""The multiply paths against the dense oracle on each domain's edge
values: results are equal, or both sides raise DomainError.

Block and chunk caps of 3 and 2 products split blocks, chunks and heavy
rows; the sort-and-fold path is forced by making `_dense` refuse every
accumulator.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphmat as gm
from graphmat import kernels, oracle
from graphmat.algebra import INTEGER, OP_PLUS, OP_TIMES
from graphmat.errors import DomainError

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
# 1e308 * 1e308 and inf - inf are the point here, not a fault
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")


@st.composite
def operands(draw):
    """A semiring name, then A (m x k), B (k x n) and a row vector u
    (1 x k) over it, their entries drawn from its edge values."""
    name = draw(st.sampled_from(sorted(CASES)))
    sr, pool = CASES[name]
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))

    def matrix(nrows, ncols):
        cells = draw(st.lists(st.one_of(st.none(), st.sampled_from(pool)),
                              min_size=nrows * ncols,
                              max_size=nrows * ncols))
        at = [p for p, v in enumerate(cells) if v is not None]
        return gm.build(sr, (nrows, ncols), ([p // ncols for p in at],
                                             [p % ncols for p in at],
                                             [cells[p] for p in at]))

    return name, matrix(m, k), matrix(k, n), matrix(1, k)


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
