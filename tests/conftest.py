import math
import operator
import random
from pathlib import Path

import numpy as np
import pytest

import graphmat as gm
from graphmat.matrix import check_no_stored_zero

import oracle

DATA_DIR = Path(__file__).parent / "data"

NAMED_SEMIRINGS = [
    "arith-real",
    "arith-natural",
    "max-plus",
    "min-plus",
    "max-min",
    "min-max",
    "xor-and",
    "union-intersect",
]

SET_UNIVERSE = 16


_ARITH = gm.semiring_by_name("arith-real")
# reals under + and a mul that does not commute, x - y
PLUS_MINUS = gm.make_semiring(
    "plus-minus", _ARITH.domain, _ARITH.add,
    gm.BinaryOp("minus", operator.sub, np.subtract), 0.0, 0.0)


def get_semiring(name):
    if name == "union-intersect":
        return gm.semiring_by_name(name, universe_size=SET_UNIVERSE)
    if name == "plus-minus":
        return PLUS_MINUS
    return gm.semiring_by_name(name)


def random_matrix(sr, rng, nrows, ncols, density=0.3):
    rows, cols, vals = [], [], []
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                rows.append(i)
                cols.append(j)
                vals.append(sr.domain.sample(rng))
    return gm.build(sr, (nrows, ncols), (rows, cols, vals))


def assert_matches_dense(a, d, zero, rel_tol=0.0):
    """Kernel output vs dense-oracle output, entry by entry."""
    assert (a.nrows, a.ncols) == (d.nrows, d.ncols)
    assert check_no_stored_zero(a, zero)
    for i in range(a.nrows):
        for j in range(a.ncols):
            got = a.get(i, j, zero)
            want = d[i, j]
            if rel_tol and isinstance(want, float):
                assert math.isclose(got, want, rel_tol=rel_tol,
                                    abs_tol=rel_tol) or got == want, \
                    f"({i},{j}): {got} != {want}"
            else:
                assert got == want, f"({i},{j}): {got} != {want}"


def matrices_allclose(a, b, zero, rel_tol=0.0):
    """Value-level closeness through densification; tolerates pattern
    differences from float results that round to near zero."""
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        return False
    da = oracle.densify(a, zero)
    db = oracle.densify(b, zero)
    if rel_tol == 0.0:
        return da == db
    scale = 1.0
    for d in (da, db):
        for row in d.data:
            for v in row:
                if isinstance(v, float) and math.isfinite(v):
                    scale = max(scale, abs(v))
    tol = rel_tol * scale
    for i in range(a.nrows):
        for j in range(a.ncols):
            x, y = da[i, j], db[i, j]
            if x == y:
                continue
            if not math.isclose(x, y, rel_tol=rel_tol, abs_tol=tol):
                return False
    return True


def load_fixture_adjacency(sr=None):
    from graphmat import fileio

    sr = sr or gm.semiring_by_name("arith-real")
    edges = fileio.read_edge_list(DATA_DIR / "seven_vertex_edges.tsv",
                                  value_parser=sr.domain.parse_text)
    triples = fileio.triples_from_edges(edges, sr.one)
    return gm.build(sr, (7, 7), triples)


def spy_sorts(monkeypatch):
    """The sorts that np.sort and np.argsort are asked for, as (name,
    dtype, kind): `matrix._sort` packs keys into one int64 array that it
    sorts in place, which calls neither, or leaves them to numpy's stable
    argsort (timsort), which takes Python int keys as objects."""
    calls = []
    for name in ("sort", "argsort"):
        def spy(a, *args, _name=name, _real=getattr(np, name), **kw):
            calls.append((_name, a.dtype, kw.get("kind")))
            return _real(a, *args, **kw)
        monkeypatch.setattr(np, name, spy)
    return calls


PACKED = []
TIMSORT = [("argsort", np.dtype(np.int64), "stable")]
OBJECT_TIMSORT = [("argsort", np.dtype(object), "stable")]


@pytest.fixture
def rng():
    return random.Random(20240817)
