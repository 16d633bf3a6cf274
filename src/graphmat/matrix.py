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

from .algebra import BinaryOp, Domain, Semiring
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

    def __iter__(self):
        for r, c, v in zip(self.rows, self.cols, self.vals):
            yield int(r), int(c), v


class SparseMatrix:
    """Immutable CSR matrix over a scalar domain.

    Construct through build(), not directly; the constructor trusts its
    arguments to already be canonical.

    A matrix keeps one slot for its transpose, filled on first use by
    the kernels that read columns (a pull hop of BFS). A directed graph
    that has been pulled over thus holds one transpose as well, twice
    its memory; a matrix equal to its transpose holds itself there.
    """

    __slots__ = ("nrows", "ncols", "indptr", "indices", "values", "domain",
                 "_t")

    def __init__(self, nrows, ncols, indptr, indices, values, domain: Domain):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = indptr
        self.indices = indices
        self.values = values
        self.domain = domain
        self._t = None

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
        """Stored value at (i, j), or `default` if implicit."""
        cols, vals = self.row(i)
        k = np.searchsorted(cols, j)
        if k < len(cols) and cols[k] == j:
            return vals[k]
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


def empty_matrix(sr: Semiring, nrows, ncols) -> SparseMatrix:
    _check_dims(nrows, ncols)
    empty = np.empty(0, dtype=np.int64)
    return _csr(nrows, ncols, empty, empty,
                np.empty(0, dtype=sr.domain.dtype), sr.domain)


def _check_dims(nrows, ncols):
    if nrows < 1 or ncols < 1:
        raise DimensionError("matrix dimensions must be at least 1x1",
                             expected="m >= 1, n >= 1",
                             actual=f"{nrows}x{ncols}")


def _order(rows, cols, nrows, ncols):
    """Stable row-major order of (rows, cols): equal keys keep input order."""
    if nrows * ncols <= 2**16:  # numpy radix-sorts 16-bit keys
        return np.argsort((rows * ncols + cols).astype(np.uint16),
                          kind="stable")
    if nrows * ncols < 2**62:
        return np.argsort(rows * ncols + cols, kind="stable")
    return np.lexsort((cols, rows))


def _wide(vals, domain: Domain):
    """`vals` ready for arithmetic in `domain`: int64 values become Python
    ints, so products and sums cannot wrap; `_narrow` turns them back and
    raises DomainError for any that no longer fit."""
    if np.dtype(domain.dtype) == np.int64:
        return vals.astype(object)
    return vals


def _narrow(vals, domain: Domain):
    """Folded `vals` in `domain`'s dtype; DomainError for any that no
    longer fit."""
    if vals.dtype != domain.dtype:
        try:
            vals = vals.astype(domain.dtype)
        except OverflowError:
            raise DomainError(
                f"folded value outside domain {domain.name}") from None
    return vals


def _fold(rows, cols, vals, dup: BinaryOp, zero, domain: Domain,
          strict_dup=False):
    """Fold each run of equal (row, col) in ordered triples left to right,
    in input order, with `dup`; drop `zero` and check what is left."""
    boundary = np.empty(len(rows), dtype=bool)
    boundary[:1] = True
    boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    if strict_dup and not boundary.all():
        k = int(np.flatnonzero(~boundary)[0])
        raise GraphMatError(
            f"duplicate entry at ({rows[k]}, {cols[k]}) in strict mode")
    starts = np.flatnonzero(boundary)
    vals = _wide(vals, domain)
    if dup.ufunc is np.add and vals.dtype.kind == "f":
        # numpy's reduceat adds a float run as a0 + (a1 + ... + an), the
        # rest summed pairwise; ufunc.at folds it left to right
        rest = np.flatnonzero(~boundary)
        folded = vals[starts]
        # rest[k] follows rest[k] - k run starts, so it is in run
        # rest[k] - k - 1
        np.add.at(folded, rest - np.arange(1, len(rest) + 1), vals[rest])
        vals = folded
    elif len(starts):
        vals = dup.ufunc.reduceat(vals, starts)
    vals = _narrow(vals, domain)
    keep = vals != zero
    vals = vals[keep]
    domain.check_array(vals)
    return rows[starts][keep], cols[starts][keep], vals


def _indptr(nrows, rows):
    """Row pointers of a matrix with one entry per element of `rows`;
    DimensionError when numpy cannot address them (ValueError) or memory
    cannot hold them."""
    try:
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        if len(rows):
            np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
    except (MemoryError, ValueError):
        raise DimensionError("row dimension too large for the row pointers",
                             expected="row pointers that fit in memory",
                             actual=f"{nrows} rows") from None
    return indptr


def _csr(nrows, ncols, rows, cols, vals, domain: Domain) -> SparseMatrix:
    """CSR from row-major ordered triples with no repeated (row, col)."""
    return SparseMatrix(nrows, ncols, _indptr(nrows, rows), cols, vals,
                        domain)


def coalesce(nrows, ncols, rows, cols, vals, dup: BinaryOp, zero,
             domain: Domain, strict_dup=False) -> SparseMatrix:
    """Sort COO triples row-major, fold duplicates left-to-right with
    `dup`, strip values equal to `zero`, and emit canonical CSR.

    The stable sort preserves input order within a duplicate group, so
    the fold order is the input order even for non-commutative ops.
    Folded values are checked against `domain`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = _convert(vals, domain)
    order = _order(rows, cols, nrows, ncols)
    rows, cols, vals = _fold(rows[order], cols[order], vals[order],
                             dup, zero, domain, strict_dup)
    return _csr(nrows, ncols, rows, cols, vals, domain)


def _convert(vals, domain: Domain):
    """`vals` in `domain`'s dtype; DomainError for any value the cast
    would change (wrapped, truncated or out of range)."""
    if domain.dtype is object:
        return np.asarray(vals, dtype=object)
    raw = np.asarray(vals)
    if raw.dtype.kind == "f" and np.dtype(domain.dtype).kind in "iu":
        # Python ints that no one integer dtype holds (2**63 beside 1)
        # come out as rounded floats; as objects they cast exactly
        raw = np.asarray(vals, dtype=object)
    try:
        with np.errstate(invalid="ignore"):
            cast = raw.astype(domain.dtype, copy=False)
    except (OverflowError, ValueError):  # beyond the dtype, or NaN
        raise DomainError(f"value outside domain {domain.name}") from None
    if cast.dtype != raw.dtype and not np.array_equal(cast, raw):
        raise DomainError(f"value outside domain {domain.name}")
    return cast


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
            raise IndexBoundsError(
                f"row index outside [0, {nrows})")
        if cols.min() < 0 or cols.max() >= ncols:
            raise IndexBoundsError(
                f"column index outside [0, {ncols})")
    vals = _convert(vals, sr.domain)
    sr.domain.check_array(vals)
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
    keys = a.indices.astype(np.uint16) if a.ncols <= 2**16 else a.indices
    order = np.argsort(keys, kind="stable")  # a radix sort for uint16
    return SparseMatrix(a.ncols, a.nrows, _indptr(a.ncols, a.indices),
                        a.row_arrays()[order], a.values[order], a.domain)


def check_no_stored_zero(a: SparseMatrix, zero) -> bool:
    """Structural audit: no stored value equals the 0-element."""
    return not np.any(a.values == zero)
