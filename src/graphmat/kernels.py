"""Semiring compute kernels over CSR matrices.

Every public function validates its arguments and then delegates to a
private ``_``-prefixed implementation. The benchmark harness times both
layers to measure the overhead the public surface adds on top of the
raw kernels.

All kernels are pure: inputs are never mutated (but the `into` array
that a traversal's `_vxm` folds into) and outputs never store a value
equal to the semiring's 0-element.
"""

from __future__ import annotations

import numpy as np

from .algebra import BinaryOp, Semiring
from .errors import DimensionError, DomainError, GraphMatError, IndexBoundsError
from .matrix import (SparseMatrix, _csr, _find, _fold, _key, _narrow,
                     _ranges, _sort, _wide)

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
# a masked one-row product pulls once its push products exceed what a
# pull reads: the kept columns' in-edges, plus ncols for its passes over
# bitmaps, plus _PULL_CALLS for its fixed numpy calls (about 150 us at
# 15-25 ns a read, timed at scale 13); a push product and a pull read
# cost about the same
_PULL_CALLS = 1 << 13


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


def _accumulate(sr, dtype, nslots, chunks, keep=None):
    """Fold (slots, products) chunks into a sparse accumulator of `nslots`
    `dtype` slots (Gilbert, Moler & Schreiber 1992) and return the
    positions and values of the slots that end nonzero, in slot order.

    Every slot starts at the 0-element and ufunc.at folds each product
    into its slot in input order, left to right as _fold does. `keep`,
    a bool per slot, drops slots before the domain check.
    """
    # ndarray methods: np.full's and np.flatnonzero's wrappers cost µs
    acc = np.empty(nslots, dtype=dtype)
    acc.fill(sr.zero)
    for slots, prod in chunks:
        sr.add.ufunc.at(acc, slots, prod)
    nonzero = acc != sr.zero
    if keep is not None:
        nonzero &= keep
    pos = nonzero.nonzero()[0]
    return pos, _narrow(acc[pos], sr.domain)


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
    """Gustavson's row-wise product (1978), a block of rows at a time, each
    by `_vxm`; `mask` and `complement` select result positions as in vxm."""
    if a.nrows == 1:  # the one row's keys are its columns
        return _csr(1, b.ncols, *_vxm(sr, a.indices, a.values, b, mask,
                                      complement), sr.domain)
    # products per entry of a, by b's row lengths unless b has more rows
    counts = (np.diff(b.indptr)[a.indices] if b.nrows < len(a.indices)
              else b.indptr[1:][a.indices] - b.indptr[a.indices])
    bounds = [0, a.nrows]  # the blocks' first rows, then the row past
    if counts.sum() > _MXM_CHUNK_PRODUCTS:
        # rows in blocks whose products stay below the block cap
        row_cum = np.concatenate(([0], counts.cumsum()))[a.indptr]
        bounds = [0]
        while bounds[-1] < a.nrows:
            bounds.append(max(bounds[-1] + 1, int(row_cum.searchsorted(
                row_cum[bounds[-1]] + _MXM_CHUNK_PRODUCTS, "right")) - 1))
    parts = []
    for r0, r1 in zip(bounds, bounds[1:]):
        lo, hi = a.indptr[r0], a.indptr[r1]
        parts.append(_csr(r1 - r0, b.ncols, *_vxm(
            sr, a.indices[lo:hi], a.values[lo:hi], b, mask, complement,
            lens=np.diff(a.indptr[r0:r1 + 1]), r0=r0), sr.domain))
    if len(parts) == 1:  # the one block's matrix is the result
        return parts[0]
    indptr = np.concatenate([[0]] + [np.diff(p.indptr) for p in parts])
    return SparseMatrix(a.nrows, b.ncols, indptr.cumsum(), np.concatenate(
        [p.indices for p in parts]), np.concatenate([p.values for p in parts]),
        sr.domain)


def _sort_fold(sr, b, y, pos, rows, x, counts, r0, r1, mask, complement):
    """x[k], in block row rows[k], times its counts[k] entries of b, y
    at `pos`, masked, sorted and folded: (`_key`s in the block, values)."""
    keys = _key(rows.repeat(counts), b.indices[pos], r1 - r0, b.ncols)
    x = x.repeat(counts)
    if mask is not None:
        hit = (_find(mask, r0, r1, keys)[1] if isinstance(mask, SparseMatrix)
               else mask[r0 * b.ncols + keys])
        hit = np.flatnonzero(hit != complement)
        pos, keys, x = pos[hit], keys[hit], x[hit]
    prod = sr.mul.ufunc(x, y[pos])
    order, keys = _sort(keys, (r1 - r0) * b.ncols)
    return _fold(keys, prod[order], b.ncols, sr.add, sr.zero, sr.domain)


def _vxm(sr, ids, x, b, mask=None, complement=False, into=None, lens=None,
         r0=0):
    """Gustavson's row-wise product on arrays and unchecked, for `_mxm`'s
    blocks and the traversals' hops: the row storing x at the ascending
    ids, times b, as (columns, values); with `lens`, result rows r0.. of
    lens[i] entries each, as (`_key`s in the block, values). Masked, one
    row pulls over b's cached transpose when that reads fewer entries.
    With `into` a w of b.ncols slots, unmasked under add np.minimum, w<min>=
    x b in place: the columns lowered, as `_lower` gives them."""
    if into is not None and (sr.add.ufunc is not np.minimum
                             or mask is not None):
        raise ValueError("only an unmasked min product folds into w")
    nb = 1 if lens is None else len(lens)
    starts = b.indptr[ids]
    counts = b.indptr[1:][ids] - starts  # products per entry of the rows
    total, ncols = int(counts.sum()), b.ncols
    dense = _dense(nb * ncols, total)  # if not, too few products to pull
    keep = _keep(mask, complement, r0, r0 + nb, ncols) if dense else None
    if nb == 1 and keep is not None and total > ncols + _PULL_CALLS:
        # the kept columns' in-edges, from b^T once built; until then a
        # square b's out-degrees stand in and a rectangular b counts them
        bt = b._transposed(build=False)
        reads = (np.diff(b.indptr if bt is None else bt.indptr)[keep].sum()
                 if bt is not None or b.nrows == ncols
                 else np.count_nonzero(keep[b.indices]))
        if total > reads + ncols + _PULL_CALLS:
            return _pull(sr, ids, x, b._transposed(), keep)
    x, y = _wide(sr.domain, sr.add.ufunc, sr.mul.ufunc, sr.zero,
                 len(ids) if lens is None else int(lens.max()), x, b)
    rows = None if nb == 1 else np.arange(nb).repeat(lens)  # entries' rows
    if not dense and into is None:
        return _sort_fold(sr, b, y, _ranges(starts, counts), np.zeros(
            len(ids), dtype=np.int64) if rows is None else rows, x, counts,
            r0, r0 + nb, mask, complement)
    # positions in one go when one chunk holds them all
    parts = (_chunks(starts, counts) if total > _VXM_CHUNK_PRODUCTS
             else [(0, len(ids), _ranges(starts, counts))])
    # a product's slot: its row in the block times ncols, plus its column
    chunks = ((b.indices[p] if rows is None else b.indices[p] + ncols
               * rows[lo:hi].repeat(counts[lo:hi]),
               sr.mul.ufunc(x[lo:hi].repeat(counts[lo:hi]), y[p]))
              for lo, hi, p in parts)
    if into is None:
        return _accumulate(sr, x.dtype, nb * ncols, chunks, keep)
    return _lower(into, chunks, total)


def _lower(w, chunks, products):
    """w<min>= the (slots, products) chunks, in place: the slots lowered.
    With as many products as slots, or few slots, every product folds and
    one compare after finds them, ascending and once each; else only the
    products below their slot fold, and slots may repeat, in any order."""
    # no _narrow: the values are sums of weights already checked
    # non-negative, which cannot become NaN, and no matrix stores them
    if len(w) <= max(products, _VXM_CHUNK_PRODUCTS):
        before = w.copy()
        for slots, prod in chunks:
            np.minimum.at(w, slots, prod)
        return (w < before).nonzero()[0]
    lowered = []
    for slots, prod in chunks:
        low = (prod < w[slots]).nonzero()[0]  # faster than a bool index
        np.minimum.at(w, slots[low], prod[low])
        lowered.append(slots[low])
    return np.concatenate(lowered)


def _pull(sr, ids, x, bt, keep, x_left=True):
    """Dot products: x, stored at the ascending ids, times each row of
    bt that `keep` sets (every row if None), x as mul's left operand or,
    x_left=False, its right; (rows, values) of those that end nonzero."""
    rows = np.arange(bt.nrows) if keep is None else np.flatnonzero(keep)
    x, y = _wide(sr.domain, sr.add.ufunc, sr.mul.ufunc, sr.zero, len(ids),
                 x, bt)
    # x as one slot per position plus a presence bitmap
    present = np.zeros(bt.ncols, dtype=bool)
    present[ids] = True
    dense = np.zeros(bt.ncols, dtype=x.dtype)
    dense[ids] = x
    starts = bt.indptr[rows]
    counts = bt.indptr[1:][rows] - starts

    def chunks():
        # slot s is row rows[s]; a row's products go in column order
        for lo, hi, pos in _chunks(starts, counts):
            cols = bt.indices[pos]
            hit = np.flatnonzero(present[cols])  # faster than a bool index
            slots = np.repeat(np.arange(lo, hi), counts[lo:hi])
            pair = dense[cols[hit]], y[pos[hit]]
            yield slots[hit], sr.mul.ufunc(*(pair if x_left else pair[::-1]))

    kept, vals = _accumulate(sr, x.dtype, len(rows), chunks())
    return rows[kept], vals


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


def _chunks(starts, counts):
    """Split the ranges (starts[k], starts[k] + counts[k]) into chunks of
    about _VXM_CHUNK_PRODUCTS positions, a range above it alone: yield
    (lo, hi, positions of ranges lo..hi-1), with ndarray methods, which
    skip the numpy functions' wrappers."""
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

    Pull-style, by the dot products a masked vxm pulls with: only the
    rows of `a` that the mask keeps are read, every row without a mask.
    `mask` is an nrows x 1 matrix read by structure or a bool array of
    nrows entries (a bitmap): the result keeps the rows it stores or
    sets, or with complement=True the rows it does not.
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
    rows, vals = _pull(sr, np.flatnonzero(np.diff(v.indptr)), v.values, a,
                       _keep(mask, complement, 0, a.nrows, 1), x_left=False)
    return _csr(a.nrows, 1, rows, vals, sr.domain)  # one column: keys = rows


def vxm(sr: Semiring, f: SparseMatrix, a: SparseMatrix, mask=None,
        complement=False) -> SparseMatrix:
    """Row vector times matrix: w(j) = add-reduction over k of
    f(k) mul a(k,j); f must be 1 x n.

    As `mxm` on the one-row matrix f. Unmasked it pushes: only the rows
    of `a` that f stores are read, so the cost follows the out-edges of
    the frontier. Masked, it pulls over the in-edges of the kept
    columns when those are fewer, through a's transpose, which a builds
    once, at O(nnz(a)), and keeps. `mask` is a 1 x ncols matrix read by
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
    # coalesce's fold; values stored in a matrix need no entry check
    rows = np.concatenate([a.row_arrays(), b.row_arrays()])
    cols = np.concatenate([a.indices, b.indices])
    vals = np.concatenate([a.values, b.values])
    order, keys = _sort(_key(rows, cols, a.nrows, a.ncols),
                        a.nrows * a.ncols)
    return _csr(a.nrows, a.ncols, *_fold(keys, vals[order], a.ncols, op,
                                          zero, a.domain), a.domain)


def ewise_mult(op: BinaryOp, zero, a: SparseMatrix,
               b: SparseMatrix) -> SparseMatrix:
    """Structural intersection; op applied to each co-located pair."""
    _check_ewise(a, b)
    return _ewise_mult(op, zero, a, b)


def _ewise_mult(op, zero, a, b):
    """b's entries that a stores too, op applied as op(a's, b's) to each
    pair only; the zeros dropped and op's results checked."""
    keys = _key(b.row_arrays(), b.indices, b.nrows, b.ncols)
    k, hit = _find(a, 0, a.nrows, keys)
    vals = op.ufunc(*_wide(a.domain, None, op.ufunc, zero, 1,
                           a.values[k[hit]], b.values[hit]))
    keep = vals != zero
    return _csr(a.nrows, a.ncols, keys[hit][keep],
                _narrow(vals[keep], a.domain), a.domain)


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
    cols = a.indices[pos]
    # fan each source column out to every output column that selects it
    j_order, j_sorted = _sort(j, a.ncols)
    left = j_sorted.searchsorted(cols, side="left")
    fan = j_sorted.searchsorted(cols, side="right") - left
    keys = _key(np.arange(len(i)).repeat(counts).repeat(fan),
                j_order[_ranges(left, fan)], len(i), len(j))
    order, keys = _sort(keys, len(i) * len(j))
    return _csr(len(i), len(j), keys, a.values[pos].repeat(fan)[order],
                a.domain)


def selection_matrix(sr: Semiring, idx, n_source) -> SparseMatrix:
    """|idx| x n_source matrix with the multiplicative identity at
    (p, idx[p]); extract(a, i, j) == S(i) a S(j)^T."""
    idx = _check_index_vector(idx, n_source, "selection")
    m = len(idx)
    return SparseMatrix(m, n_source, np.arange(m + 1, dtype=np.int64),
                        idx.copy(), _narrow(np.full(m, sr.one), sr.domain),
                        sr.domain)


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
    for idx, what in (i, "row"), (j, "column"):
        if (np.diff(np.sort(idx)) == 0).any():
            raise GraphMatError(f"repeated {what} index in assign")
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
    order, keys = _sort(_key(rows, cols, c.nrows, c.ncols),
                        c.nrows * c.ncols)
    return _csr(c.nrows, c.ncols, keys, vals[order], c.domain)
