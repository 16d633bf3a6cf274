"""Sparse matrix storage and structural operations.

The canonical layout is compressed sparse row (CSR): a row-pointer
array, column indices strictly increasing within each row, and a value
array that never contains the semiring's 0-element. All indices are
0-based internally; file formats shift at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import NATURAL, BinaryOp, Domain, Semiring
from .errors import DimensionError, DomainError, GraphMatError, IndexBoundsError


class Dimensions(NamedTuple):
    nrows: int
    ncols: int


@dataclass
class TripleList:
    """Parallel (rows, cols, vals) vectors, the interchange form."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __len__(self):
        return len(self.rows)

    def __iter__(self):  # Python scalars, as a domain's `contains` takes
        return zip(*(np.asarray(p).tolist()
                     for p in (self.rows, self.cols, self.vals)))


class SparseMatrix:
    """Immutable CSR matrix over a scalar domain.

    Construct through build(), not directly; the constructor trusts its
    arguments to already be canonical.

    A matrix keeps one slot for its transpose, filled on first use by
    the kernels that read columns (a pull hop of BFS). A directed graph
    that has been pulled over thus holds one transpose as well, twice
    its memory; a matrix equal to its transpose holds itself there.
    Another keeps `_words` of its values, for exact integer kernels.
    """

    __slots__ = ("nrows", "ncols", "indptr", "indices", "values", "domain",
                 "_t", "_w")

    def __init__(self, nrows, ncols, indptr, indices, values, domain: Domain):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = indptr
        self.indices = indices
        self.values = values
        self.domain = domain
        self._t = self._w = None

    def _transposed(self, build=True):
        """The cached transpose, built and kept on first use; with
        build=False, None until then."""
        if self._t is None and build:
            t = _transpose(self)
            self._t = self if t == self else t
        return self._t

    @property
    def dims(self) -> Dimensions:
        return Dimensions(self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row(self, i):
        """(column indices, values) of stored entries in row i."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def get(self, i, j, default=None):
        """Stored value at (i, j), a Python scalar; `default` if implicit."""
        cols, vals = self.row(i)
        k = np.searchsorted(cols, j)
        if k < len(cols) and cols[k] == j:
            return vals[k:k + 1].tolist()[0]  # any dtype, object too
        return default

    def row_arrays(self):
        """Expanded row index per stored entry (CSR -> COO rows)."""
        return np.repeat(np.arange(self.nrows, dtype=np.int64),
                         np.diff(self.indptr))

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.domain.name == other.domain.name
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and bool(np.all(self.values == other.values))
        )

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return (f"SparseMatrix({self.nrows}x{self.ncols}, "
                f"nnz={self.nnz}, domain={self.domain.name})")


def _ranges(starts, counts):
    """Concatenate ranges(starts[k], starts[k] + counts[k]) into one
    flat index array; ndarray methods, as it runs on every hop."""
    flat = (starts - counts.cumsum() + counts).repeat(counts)
    flat += np.arange(len(flat))
    return flat


def empty_matrix(sr: Semiring, nrows, ncols) -> SparseMatrix:
    _check_dims(nrows, ncols)
    return SparseMatrix(nrows, ncols, _indptr(nrows, ()), np.empty(
        0, dtype=np.int64), np.empty(0, dtype=sr.domain.dtype), sr.domain)


def _check_dims(nrows, ncols):
    if nrows < 1 or ncols < 1:
        raise DimensionError("matrix dimensions must be at least 1x1",
                             expected="m >= 1, n >= 1",
                             actual=f"{nrows}x{ncols}")


# keys in fewer ascending runs than this take timsort, which merges runs,
# the rest the packed sort: on 9k-851k keys (2-vCPU AVX-512 host)
# timsort won 1.05-1.8x on 2 random runs and 1.7-2.4x on a grid's 4
# edge runs, tied on 3-5 random runs and lost 1.4-2.1x from 6. A run
# ends in 8 descents 8 apart; closer disorder costs timsort little
_TIMSORT_MAX_RUNS = 5


def _key(rows, cols, nrows, ncols):
    """Row-major keys rows * ncols + cols of an nrows x ncols matrix: int64
    while they stay below 2**62, else Python ints in an object array."""
    if nrows * ncols < 2**62:
        return rows * ncols + cols
    return rows.astype(object) * ncols + cols


def _sort(keys, span):
    """(order, keys[order]) for keys in [0, span), order stable: one sort
    of key << position bits | position, or timsort (few runs, > 63 bits)."""
    shift = (len(keys) - 1).bit_length()
    if (1 + np.count_nonzero(keys[8:] < keys[:-8]) // 8 < _TIMSORT_MAX_RUNS
            or int(span - 1).bit_length() + shift > 63):
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = keys.astype(np.int64, copy=False) << shift | np.arange(len(keys))
    packed.sort()
    return packed & ((1 << shift) - 1), packed >> shift


def _find(m, r0, r1, keys):
    """(k, hit): where each `_key` of a position in m's rows r0..r1-1 (row r0
    as 0) falls among m's entries there, and whether m stores it there."""
    lo, hi = m.indptr[r0], m.indptr[r1]
    rows = np.repeat(np.arange(r1 - r0), np.diff(m.indptr[r0:r1 + 1]))
    # a key -1 past the last, which no position matches
    have = np.append(_key(rows, m.indices[lo:hi], r1 - r0, m.ncols), -1)
    k = have[:-1].searchsorted(keys)
    return k, have[k] == keys


# ufuncs `_wide` bounds; no fold by np.multiply, which grows as a power
_WORD_OPS = (np.add, np.minimum, np.maximum, np.multiply)


def _words(v):
    """(values as int64, their largest magnitude) of an array or matrix
    `v`, (None, 2**63) if one is beyond int64; a matrix keeps its pair."""
    if isinstance(v, SparseMatrix):
        if v._w is None:
            v._w = _words(v.values)
        return v._w
    if v.dtype == np.uint64:  # as int64 the values from 2**63 would wrap
        if v.max(initial=0) >= 2**63:
            return None, 2**63
        v = v.view(np.int64)
    try:
        w = np.asarray(v, dtype=np.int64)
    except OverflowError:
        return None, 2**63
    return w, max(-int(w.min(initial=0)), int(w.max(initial=0)))


def _wide(domain: Domain, add, mul, zero, terms, *operands):
    """The values of `operands`, arrays or matrices x (and y), ready for
    a fold by ufunc `add`, from `zero`, of at most `terms` (a matrix:
    its longest row) values mul(x, y) (x alone if `mul` is None; no fold
    if `add` is None). In int64 and uint64 domains (not sets') they are
    int64 when that is exact: `add` is np.add, np.minimum or np.maximum,
    `mul` one of those or np.multiply, and terms * (Z + 1) * (X + 1) *
    (Y + 1) < 2**63 for Z, X, Y the largest magnitudes of `zero`, x, y.
    Else x is Python ints, as under a Python `add` (its one loop OO->O;
    `ntypes` is read first, as `types` builds a list), so no step wraps
    or is cast back to the dtype; `_narrow` turns the results back."""
    vals = [v.values if isinstance(v, SparseMatrix) else v for v in operands]
    wide = np.dtype(domain.dtype) in (np.int64, np.uint64)
    if wide and domain.universe_size is None:  # a set's bits take no words
        if add in (None, *_WORD_OPS[:3]) and mul in (None, *_WORD_OPS):
            words = [_words(v) for v in operands]
            if isinstance(terms, SparseMatrix):
                terms = int(np.diff(terms.indptr).max())
            bound = max(terms, 1) * (int(min(abs(zero), 2**63)) + 1)
            for _, magnitude in words:
                bound *= magnitude + 1
            if bound < 2**63:
                return [w for w, _ in words]
    elif add is None or add.ntypes != 1 or add.types != ["OO->O"]:
        return vals
    return [vals[0].astype(object, copy=False), *vals[1:]]


def _narrow(vals, domain: Domain):
    """`vals`, entering a matrix or folded, in `domain`'s dtype and checked:
    DomainError for a value out of range, truncated by the cast, or NaN."""
    raw = cast = np.asarray(vals)
    if raw.dtype != domain.dtype:
        if raw.dtype.kind == "f" and np.dtype(domain.dtype).kind in "iu":
            # Python ints that no one integer dtype holds (2**63 beside 1)
            # come out as rounded floats; as objects they cast exactly
            raw = np.asarray(vals, dtype=object)
        words = raw.dtype == np.int64 and np.dtype(domain.dtype) == np.uint64
        try:  # int64 words enter uint64 by a sign test and a view
            cast = raw.view(np.uint64) if words else raw.astype(domain.dtype)
        except (OverflowError, ValueError, TypeError):  # too big, NaN, None
            cast = None
        if cast is None or not (raw.min(initial=0) >= 0 if words
                                else np.array_equal(cast, raw)):
            # named: "-1 is not a 64-bit natural", a NaN that came as object
            if domain is NATURAL or cast is not None and cast.dtype == float:
                domain.check_array(raw if domain is NATURAL else cast)
            raise DomainError(f"value outside domain {domain.name}")
    domain.check_array(cast)
    return cast


def _fold(keys, vals, ncols, dup: BinaryOp, zero, domain: Domain,
          strict_dup=False):
    """Fold each run of equal sorted keys left to right, in input order,
    with `dup`; drop `zero`, check the rest: the (keys, values) kept."""
    boundary = np.empty(len(keys), dtype=bool)
    boundary[:1] = True
    boundary[1:] = keys[1:] != keys[:-1]
    if strict_dup and not boundary.all():
        k = int(np.flatnonzero(~boundary)[0])
        raise GraphMatError(f"duplicate entry at {divmod(int(keys[k]), ncols)}"
                            " in strict mode")
    starts, rest = np.flatnonzero(boundary), np.flatnonzero(~boundary)
    # no run holds more than one value beyond the duplicates
    vals, = _wide(domain, dup.ufunc, None, zero, len(rest) + 1, vals)
    folded = vals[starts]  # each run seeded with its first value
    # rest[k] follows rest[k] - k run starts, so it is in run rest[k] - k - 1
    dup.ufunc.at(folded, rest - np.arange(1, len(rest) + 1), vals[rest])
    keep = folded != zero
    return keys[starts][keep], _narrow(folded[keep], domain)


def _indptr(nrows, rows):
    """Row pointers of a matrix with one entry per element of sorted `rows`;
    DimensionError when numpy cannot address them (ValueError) or memory
    cannot hold them."""
    if len(rows) > 32 * nrows:  # 2 against 74 us for 20 rows of 1,000
        return rows.searchsorted(np.arange(nrows + 1))
    try:
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        if len(rows):
            np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
    except (MemoryError, ValueError):
        raise DimensionError("row dimension too large for the row pointers",
                             expected="row pointers that fit in memory",
                             actual=f"{nrows} rows") from None
    return indptr


def _csr(nrows, ncols, keys, vals, domain: Domain) -> SparseMatrix:
    """CSR from ascending, distinct row-major keys and their values."""
    rows = keys // ncols  # divmod has no loop for object keys
    cols = rows * ncols
    np.subtract(keys, cols, out=cols)  # one array fewer than keys - cols
    rows, cols = (np.asarray(p, np.int64) for p in (rows, cols))
    return SparseMatrix(nrows, ncols, _indptr(nrows, rows), cols, vals, domain)


def coalesce(nrows, ncols, rows, cols, vals, dup: BinaryOp, zero,
             domain: Domain, strict_dup=False) -> SparseMatrix:
    """Sort COO triples row-major, fold duplicates left-to-right with
    `dup`, strip values equal to `zero`, and emit canonical CSR.

    The stable sort preserves input order within a duplicate group, so
    the fold order is the input order even for non-commutative ops.
    `vals` are cast to `domain` and checked, as are the folded values.
    """
    rows, cols = (np.asarray(p, dtype=np.int64) for p in (rows, cols))
    order, keys = _sort(_key(rows, cols, nrows, ncols), nrows * ncols)
    keys, vals = _fold(keys, _narrow(vals, domain)[order], ncols, dup,
                       zero, domain, strict_dup)
    return _csr(nrows, ncols, keys, vals, domain)


def build(sr: Semiring, dims, triples, dup: BinaryOp | None = None,
          strict_dup=False) -> SparseMatrix:
    """Construct a sparse matrix from (rows, cols, vals) triples.

    Duplicate (row, col) entries are combined left-to-right with `dup`
    (the semiring's add by default); combined values equal to the
    0-element are dropped. strict_dup=True errors on any duplicate
    instead.
    """
    nrows, ncols = dims
    _check_dims(nrows, ncols)
    if isinstance(triples, TripleList):
        rows, cols, vals = triples.rows, triples.cols, triples.vals
    else:
        rows, cols, vals = triples
    try:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
    except OverflowError:  # Python ints beyond int64
        raise IndexBoundsError("index outside the int64 range") from None
    if not (len(rows) == len(cols) == len(vals)):
        raise GraphMatError(
            f"triple vectors disagree in length: "
            f"{len(rows)}, {len(cols)}, {len(vals)}")
    if len(rows):
        if rows.min() < 0 or rows.max() >= nrows:
            raise IndexBoundsError(f"row index outside [0, {nrows})")
        if cols.min() < 0 or cols.max() >= ncols:
            raise IndexBoundsError(f"column index outside [0, {ncols})")
    return coalesce(nrows, ncols, rows, cols, vals,
                    dup or sr.add, sr.zero, sr.domain, strict_dup)


def extract_tuples(a: SparseMatrix) -> TripleList:
    """All stored entries in row-major order."""
    return TripleList(a.row_arrays(), a.indices.copy(), a.values.copy())


def transpose(a: SparseMatrix) -> SparseMatrix:
    """Swap rows and columns: result(j, i) = a(i, j). Not cached."""
    return _transpose(a)


def _transpose(a: SparseMatrix) -> SparseMatrix:
    """Gustavson's permuted transposition (1978): CSR rows ascend, so a
    stable order of the column indices alone lists each column's
    entries by ascending row."""
    order, cols = _sort(a.indices, a.ncols)
    return SparseMatrix(a.ncols, a.nrows, _indptr(a.ncols, cols),
                        a.row_arrays()[order], a.values[order], a.domain)


def check_no_stored_zero(a: SparseMatrix, zero) -> bool:
    """Structural audit: no stored value equals the 0-element."""
    return not np.any(a.values == zero)
