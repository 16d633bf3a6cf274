"""Semiring compute kernels over CSR matrices.

Every public function validates its arguments and then delegates to a
private ``_``-prefixed implementation. The benchmark harness times both
layers to measure the overhead the public surface adds on top of the
raw kernels.

All kernels are pure: inputs are never mutated and outputs never store
a value equal to the semiring's 0-element.
"""

from __future__ import annotations

import numpy as np

from .algebra import BinaryOp, Semiring
from .errors import DimensionError, DomainError, GraphMatError, IndexBoundsError
from .matrix import (SparseMatrix, _csr, _fold, _narrow, _order, _wide,
                     coalesce)

# the block cap: expanded products per multiply block. Blocks end on
# row boundaries (a row above the cap is a block of its own), and a
# block's accumulator holds at most 4x its products or 2**16 slots
_MXM_CHUNK_PRODUCTS = 1 << 16
# the chunk cap: products per accumulator chunk, entries per mxv chunk.
# A block folds a chunk at a time, so a heavy row splits too, and a
# chunk's 8-byte temporaries stay at 64 KiB, below the C allocator's
# mmap threshold, so chunks and hops reuse the same heap memory
_VXM_CHUNK_PRODUCTS = 1 << 13
# a product folds into one slot per output position unless the slots
# outnumber both this and four times the products
_DENSE_MIN_SLOTS = 1 << 16


def _ranges(starts, counts):
    """Concatenate ranges(starts[k], starts[k] + counts[k]) into one
    flat index array."""
    flat = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    flat += np.arange(len(flat))
    return flat


def _check_domains(domain, *mats):
    for m in mats:
        if m.domain.name != domain.name:
            raise DomainError(
                f"domain mismatch: matrix holds {m.domain.name}, "
                f"operation expects {domain.name}")


def _check_index_vector(idx, bound, what):
    raw = np.asarray(idx)
    if raw.ndim != 1:
        raise IndexBoundsError(
            f"{what} indices must form a 1-D vector, got shape {raw.shape}")
    if len(raw):
        integral = raw.dtype.kind in "iu" or (
            raw.dtype.kind == "f"
            and np.all(np.isfinite(raw) & (raw == np.trunc(raw))))
        if not integral:
            raise IndexBoundsError(f"{what} indices must be integers")
        if raw.min() < 0 or raw.max() >= bound:
            raise IndexBoundsError(f"{what} index outside [0, {bound})")
    return raw.astype(np.int64, copy=False)


def _dense(slots, products):
    """Whether `products` fold into `slots` accumulator slots, one per
    output position, rather than by sort and fold: the accumulator pays
    unless the slots far outnumber the products."""
    return slots <= max(4 * products, _DENSE_MIN_SLOTS)


def _accumulate(sr, nslots, chunks, keep=None):
    """Fold (slots, products) chunks into a sparse accumulator of `nslots`
    slots (Gilbert, Moler & Schreiber 1992) and return the positions and
    values of the slots that end nonzero, in slot order.

    Every slot starts at the 0-element and ufunc.at folds each product
    into its slot in input order, left to right as _fold does. `keep`,
    a bool per slot, drops slots before the domain check.
    """
    acc = _wide(np.full(nslots, sr.zero, dtype=sr.domain.dtype), sr.domain)
    for slots, prod in chunks:
        sr.add.ufunc.at(acc, slots, prod)
    nonzero = acc != sr.zero
    if keep is not None:
        nonzero &= keep
    pos = np.flatnonzero(nonzero)
    vals = _narrow(acc[pos], sr.domain)
    sr.domain.check_array(vals)
    return pos, vals


# ---------------------------------------------------------------------------
# matrix multiply


def mxm(sr: Semiring, a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """C(i,j) = add-reduction over k of a(i,k) mul b(k,j)."""
    if a.ncols != b.nrows:
        raise DimensionError("inner dimensions do not match",
                             expected=f"l x * with l={a.ncols}",
                             actual=f"{b.nrows}x{b.ncols}")
    _check_domains(sr.domain, a, b)
    return _mxm(sr, a, b)


def _mxm(sr: Semiring, a: SparseMatrix, b: SparseMatrix, mask=None,
         complement=False) -> SparseMatrix:
    """Gustavson's row-wise product (1978), one block of rows at a time;
    `mask` and `complement` select result positions as in vxm."""
    starts = b.indptr[a.indices]
    counts = b.indptr[1:][a.indices] - starts  # products per entry of a
    total = int(counts.sum())
    blocks = [(0, a.nrows, total)]  # first row, row past the end, products
    if total > _MXM_CHUNK_PRODUCTS:
        # rows in blocks whose products stay below the block cap
        row_cum = np.concatenate(([0], np.cumsum(counts)))[a.indptr]
        blocks, r0 = [], 0
        while r0 < a.nrows:
            r1 = max(r0 + 1, int(np.searchsorted(
                row_cum, row_cum[r0] + _MXM_CHUNK_PRODUCTS, side="right")) - 1)
            blocks.append((r0, r1, int(row_cum[r1] - row_cum[r0])))
            r0 = r1
    indptr, parts = np.zeros(a.nrows + 1, dtype=np.int64), []
    for r0, r1, products in blocks:
        ends, cols, vals = _mxm_block(sr, a, b, r0, r1, products, starts,
                                      counts, mask, complement)
        indptr[r0 + 1:r1 + 1] = ends + indptr[r0]
        parts.append((cols, vals))
    if len(parts) > 1:  # one block's columns and values are the result's
        cols, vals = (np.concatenate(p) for p in zip(*parts))
    return SparseMatrix(a.nrows, b.ncols, indptr, cols, vals, sr.domain)


def _mxm_block(sr, a, b, r0, r1, products, starts, counts, mask,
               complement):
    """Rows r0..r1-1 of a b as (entries up to the end of each row, or of
    the one row; columns; values), folded in one accumulator slot per
    position a chunk at a time, or sorted and folded if that is too wide."""
    nb, ncols, lo, hi = r1 - r0, b.ncols, a.indptr[r0], a.indptr[r1]
    starts, counts, x = starts[lo:hi], counts[lo:hi], a.values[lo:hi]
    # block row of each entry of a; a one-row block needs none
    rows = (None if nb == 1 else
            np.repeat(np.arange(nb), np.diff(a.indptr[r0:r1 + 1])))
    if _dense(nb * ncols, products):
        def chunks():
            for clo, chi, pos in _chunks(starts, counts):
                slots = b.indices[pos]  # slot (i - r0) * ncols + j
                if rows is not None:
                    slots += rows[clo:chi].repeat(counts[clo:chi]) * ncols
                yield slots, sr.mul.ufunc(_wide(x[clo:chi].repeat(
                    counts[clo:chi]), sr.domain), b.values[pos])

        j, vals = _accumulate(sr, nb * ncols, chunks(),
                              _keep(mask, complement, r0, r1, ncols))
        if rows is not None:
            i = j // ncols
            j -= i * ncols
    else:
        pos = _ranges(starts, counts)
        i = np.zeros_like(pos) if rows is None else np.repeat(rows, counts)
        j, x = b.indices[pos], np.repeat(x, counts)
        if mask is not None:  # masked positions go before the sort
            hit = np.flatnonzero(_hits(mask, r0, r1, ncols, i, j)
                                 != complement)
            pos, i, j, x = pos[hit], i[hit], j[hit], x[hit]
        prod = sr.mul.ufunc(_wide(x, sr.domain), b.values[pos])
        order = _order(i, j, nb, ncols)
        i, j, vals = _fold(i[order], j[order], prod[order], sr.add, sr.zero,
                           sr.domain)
    ends = len(j) if rows is None else np.searchsorted(i, np.arange(1, nb + 1))
    return ends, j, vals


def _check_mask(mask, nrows, ncols):
    """A mask is a structural nrows x ncols matrix or a bool bitmap with
    one entry per result position."""
    if isinstance(mask, SparseMatrix):
        if mask.dims != (nrows, ncols):
            raise DimensionError("mask shape does not match the result",
                                 expected=f"{nrows}x{ncols}",
                                 actual=f"{mask.nrows}x{mask.ncols}")
    elif mask is not None and not (isinstance(mask, np.ndarray)
                                   and mask.dtype == bool
                                   and mask.shape == (nrows * ncols,)):
        raise DimensionError(
            "a bitmap mask must be a bool array of the result's length",
            expected=f"bool array of shape ({nrows * ncols},)",
            actual=f"{getattr(mask, 'dtype', type(mask).__name__)} array "
                   f"of shape {np.shape(mask)}")


def _positions(v):
    """The positions a 1 x n or n x 1 vector stores, ascending."""
    return v.indices if v.nrows == 1 else np.flatnonzero(np.diff(v.indptr))


def _keep(mask, complement, r0, r1, ncols):
    """`_accumulate`'s keep for rows r0..r1-1 of an ncols-column result,
    slot (i - r0) * ncols + j: the positions the mask stores or sets, or
    with complement=True those it does not."""
    if mask is None:
        return None
    if isinstance(mask, SparseMatrix):
        bitmap = np.zeros((r1 - r0) * ncols, dtype=bool)
        lo, hi = mask.indptr[r0], mask.indptr[r1]
        rows = np.repeat(np.arange(r1 - r0), np.diff(mask.indptr[r0:r1 + 1]))
        bitmap[rows * ncols + mask.indices[lo:hi]] = True
    else:
        bitmap = mask[r0 * ncols:r1 * ncols]
    return ~bitmap if complement else bitmap


def _hits(mask, r0, r1, ncols, i, j):
    """Whether the mask stores or sets each position (r0 + i[k], j[k]);
    a structural mask is binary-searched as (row, column) records, which
    compare in its row-major order and which no column count overflows."""
    if not isinstance(mask, SparseMatrix):
        return mask[(i + r0) * ncols + j]
    lo, hi = mask.indptr[r0], mask.indptr[r1]
    rows = np.repeat(np.arange(r1 - r0), np.diff(mask.indptr[r0:r1 + 1]))
    have, want = (np.rec.fromarrays(p, names="i,j") for p in (
        (np.append(rows, -1), np.append(mask.indices[lo:hi], -1)), (i, j)))
    return have[np.searchsorted(have[:-1], want)] == want  # -1: no match


def _chunks(starts, counts):
    """Split the ranges (starts[k], starts[k] + counts[k]) into chunks of
    about _VXM_CHUNK_PRODUCTS positions, a range above it alone: yield
    (lo, hi, positions of ranges lo..hi-1). This runs on every hop, so it
    calls ndarray methods, which skip the numpy functions' wrappers."""
    before = counts.cumsum() - counts  # positions of earlier ranges
    lo = 0
    while lo < len(counts):
        hi = max(lo + 1, int(before.searchsorted(
            before[lo] + _VXM_CHUNK_PRODUCTS)))
        pos = (starts[lo:hi] - before[lo:hi]).repeat(counts[lo:hi])
        pos += np.arange(before[lo], before[lo] + len(pos))
        yield lo, hi, pos
        lo = hi


def mxv(sr: Semiring, a: SparseMatrix, v: SparseMatrix, mask=None,
        complement=False) -> SparseMatrix:
    """Matrix times column vector: w(i) = add-reduction over k of
    a(i,k) mul v(k); v must be n x 1.

    Pull-style (dot products): only the rows of `a` that the mask keeps
    are read, every row without a mask. `mask` is an nrows x 1 matrix
    read by structure or a bool array of nrows entries (a bitmap): the
    result keeps the rows it stores or sets, or with complement=True
    the rows it does not.
    """
    if v.ncols != 1:
        raise DimensionError("mxv expects a column vector",
                             expected=f"{a.ncols}x1",
                             actual=f"{v.nrows}x{v.ncols}")
    if a.ncols != v.nrows:
        raise DimensionError("vector length does not match matrix columns",
                             expected=f"{a.ncols}x1",
                             actual=f"{v.nrows}x1")
    _check_mask(mask, a.nrows, 1)
    _check_domains(sr.domain, a, v)
    return _mxv(sr, a, v, mask, complement)


def _mxv(sr, a, v, mask=None, complement=False):
    keep = _keep(mask, complement, 0, a.nrows, 1)
    rows = np.arange(a.nrows) if keep is None else np.flatnonzero(keep)
    # v as one slot per position plus a presence bitmap
    k = _positions(v)
    present = np.zeros(a.ncols, dtype=bool)
    present[k] = True
    dense = np.zeros(a.ncols, dtype=v.values.dtype)
    dense[k] = v.values
    starts = a.indptr[rows]
    counts = a.indptr[1:][rows] - starts

    def chunks():
        # slot s is row rows[s]; a row's products go in column order
        for lo, hi, pos in _chunks(starts, counts):
            cols = a.indices[pos]
            hit = np.flatnonzero(present[cols])  # faster than a bool index
            slots = np.repeat(np.arange(lo, hi), counts[lo:hi])
            yield slots[hit], sr.mul.ufunc(
                _wide(a.values[pos[hit]], sr.domain), dense[cols[hit]])

    kept, vals = _accumulate(sr, len(rows), chunks())
    return _csr(a.nrows, 1, rows[kept], np.zeros(len(kept), dtype=np.int64),
                vals, sr.domain)


def vxm(sr: Semiring, f: SparseMatrix, a: SparseMatrix, mask=None,
        complement=False) -> SparseMatrix:
    """Row vector times matrix: w(j) = add-reduction over k of
    f(k) mul a(k,j); f must be 1 x n.

    Push-style, as `mxm` on the one-row matrix f: only the rows of `a`
    that f stores are read, so the cost follows the out-edges of the
    frontier, never nnz(a). `mask` is a 1 x ncols matrix read by
    structure or a bool array of ncols entries (a bitmap): the result
    keeps the columns it stores or sets, or with complement=True the
    columns it does not.
    """
    if f.nrows != 1:
        raise DimensionError("vxm expects a row vector",
                             expected=f"1x{a.nrows}",
                             actual=f"{f.nrows}x{f.ncols}")
    if f.ncols != a.nrows:
        raise DimensionError("vector length does not match matrix rows",
                             expected=f"1x{a.nrows}",
                             actual=f"1x{f.ncols}")
    _check_mask(mask, 1, a.ncols)
    _check_domains(sr.domain, f, a)
    return _mxm(sr, f, a, mask, complement)


# ---------------------------------------------------------------------------
# element-wise


def _check_ewise(a, b):
    if a.dims != b.dims:
        raise DimensionError("element-wise operands differ in shape",
                             expected=f"{a.nrows}x{a.ncols}",
                             actual=f"{b.nrows}x{b.ncols}")
    _check_domains(a.domain, b)


def ewise_add(op: BinaryOp, zero, a: SparseMatrix,
              b: SparseMatrix) -> SparseMatrix:
    """Structural union; op applied where both matrices store a value."""
    _check_ewise(a, b)
    return _ewise_add(op, zero, a, b)


def _ewise_add(op, zero, a, b):
    rows = np.concatenate([a.row_arrays(), b.row_arrays()])
    cols = np.concatenate([a.indices, b.indices])
    vals = np.concatenate([a.values, b.values])
    return coalesce(a.nrows, a.ncols, rows, cols, vals, op, zero, a.domain)


def ewise_mult(op: BinaryOp, zero, a: SparseMatrix,
               b: SparseMatrix) -> SparseMatrix:
    """Structural intersection; op applied to each co-located pair."""
    _check_ewise(a, b)
    return _ewise_mult(op, zero, a, b)


def _ewise_mult(op, zero, a, b):
    rows = np.concatenate([a.row_arrays(), b.row_arrays()])
    cols = np.concatenate([a.indices, b.indices])
    vals = np.concatenate([a.values, b.values])
    order = _order(rows, cols, a.nrows, a.ncols)  # a's entry precedes b's
    rows, cols, vals = rows[order], cols[order], vals[order]
    # keep only keys stored in both: each is a run of two, folded as op(a, b)
    same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    both = np.zeros(len(rows), dtype=bool)
    both[1:] = same
    both[:-1] |= same
    rows, cols, vals = _fold(rows[both], cols[both], vals[both], op, zero,
                             a.domain)
    return _csr(a.nrows, a.ncols, rows, cols, vals, a.domain)


# ---------------------------------------------------------------------------
# extract / assign / selection


def extract(a: SparseMatrix, i, j) -> SparseMatrix:
    """C(p,q) = a(i[p], j[q]). Repeats replicate, order permutes."""
    i = _check_index_vector(i, a.nrows, "row")
    j = _check_index_vector(j, a.ncols, "column")
    if len(i) == 0 or len(j) == 0:
        raise DimensionError("extract needs nonempty index vectors",
                             expected="|i| >= 1 and |j| >= 1",
                             actual=f"|i|={len(i)}, |j|={len(j)}")
    return _extract(a, i, j)


def _extract(a, i, j):
    # gather selected source rows
    counts = np.diff(a.indptr)[i]
    pos = _ranges(a.indptr[i], counts)
    p_exp = np.repeat(np.arange(len(i), dtype=np.int64), counts)
    cols_exp = a.indices[pos]
    vals_exp = a.values[pos]
    # fan each source column out to every output column that selects it
    j_order = np.argsort(j, kind="stable")
    j_sorted = j[j_order]
    left = np.searchsorted(j_sorted, cols_exp, side="left")
    right = np.searchsorted(j_sorted, cols_exp, side="right")
    fan = right - left
    q_exp = j_order[_ranges(left, fan)]
    rows = np.repeat(p_exp, fan)
    vals = np.repeat(vals_exp, fan)
    order = _order(rows, q_exp, len(i), len(j))
    return _csr(len(i), len(j), rows[order], q_exp[order], vals[order],
                a.domain)


def selection_matrix(sr: Semiring, idx, n_source) -> SparseMatrix:
    """|idx| x n_source matrix with the multiplicative identity at
    (p, idx[p]); extract(a, i, j) == S(i) a S(j)^T."""
    idx = _check_index_vector(idx, n_source, "selection")
    m = len(idx)
    return SparseMatrix(
        m, n_source,
        np.arange(m + 1, dtype=np.int64),
        idx.copy(),
        np.full(m, sr.one, dtype=sr.domain.dtype),
        sr.domain,
    )


def assign(c: SparseMatrix, i, j, a: SparseMatrix) -> SparseMatrix:
    """Write a into c at the row/column image of (i, j).

    Total assignment over the selected rectangle: positions where `a`
    has no stored entry are cleared in the result. Repeated indices are
    rejected (the write would be ambiguous).
    """
    i = _check_index_vector(i, c.nrows, "row")
    j = _check_index_vector(j, c.ncols, "column")
    if a.dims != (len(i), len(j)):
        raise DimensionError("assign source shape must match index vectors",
                             expected=f"{len(i)}x{len(j)}",
                             actual=f"{a.nrows}x{a.ncols}")
    if len(np.unique(i)) != len(i):
        raise GraphMatError("repeated row index in assign")
    if len(np.unique(j)) != len(j):
        raise GraphMatError("repeated column index in assign")
    _check_domains(c.domain, a)
    return _assign(c, i, j, a)


def _assign(c, i, j, a):
    row_sel = np.zeros(c.nrows, dtype=bool)
    row_sel[i] = True
    col_sel = np.zeros(c.ncols, dtype=bool)
    col_sel[j] = True
    c_rows = c.row_arrays()
    keep = ~(row_sel[c_rows] & col_sel[c.indices])
    rows = np.concatenate([c_rows[keep], i[a.row_arrays()]])
    cols = np.concatenate([c.indices[keep], j[a.indices]])
    vals = np.concatenate([c.values[keep], a.values])
    order = _order(rows, cols, c.nrows, c.ncols)
    return _csr(c.nrows, c.ncols, rows[order], cols[order], vals[order],
                c.domain)
