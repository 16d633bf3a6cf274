"""Edge-list and Matrix Market file ingestion and emission.

TSV edge lists are 0-based by default (a flag shifts them); Matrix
Market coordinate files are 1-based on disk, as the format requires.
Files are UTF-8 text. Files of lines of one width (comma groups and
labeled lines of digits included) are parsed a column at a time, bodies
of digits by Horner's rule a digit place at a time, any other file by
the line parser, whose errors give file and line. Entries, and the CLI's
tables, whose values render as digits are written from one byte buffer.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .algebra import Semiring
from .errors import FormatError, IndexBoundsError
from .matrix import SparseMatrix, _ranges, build, extract_tuples


@dataclass(eq=False)
class EdgeColumns:
    """Edge records as incidence columns: for each side, the edge id and
    vertex of every (edge, vertex) pair as int64 arrays in file order,
    and each edge's weight in one array, None where a line gives none
    (the multiplicative identity). len() is the number of edges."""

    out_edges: np.ndarray
    out_vertices: np.ndarray
    in_edges: np.ndarray
    in_vertices: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_groups(cls, outs, ins, weights):
        """Columns of per-edge vertex groups, each vertex within int64."""
        try:
            sides = [(np.repeat(np.arange(len(g)), list(map(len, g))),
                      np.array(list(chain.from_iterable(g)), dtype=np.int64))
                     for g in (outs, ins)]
        except OverflowError:
            raise IndexBoundsError("index outside the int64 range") from None
        return cls(*sides[0], *sides[1], np.array(weights, dtype=object))

    def __len__(self):
        return len(self.weights)

    @property
    def n_vertices(self):
        """One more than the largest vertex; 1 for no edges."""
        return int(max(self.out_vertices.max(initial=0),
                       self.in_vertices.max(initial=0))) + 1

    def weight_array(self, default):
        """Each edge's weight, `default` where none: a numeric array as is."""
        w = self.weights
        return w if w.dtype != object else np.where(np.equal(w, None),
                                                    default, w)


@contextmanager
def _text(path):
    """`path` open as UTF-8 text; FormatError if it is not."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text ({exc.reason})", path) from None


_PARSE_LINES = 1 << 11  # lines parsed at once; keeps the temporaries small

# a labeled line in the one form the column path reads as plain: label
# (not a `#` comment's first word), out- and in-group, weight, each
# token as the line parser splits it; an out-group never opens with `#`,
# or its plain form would read as a comment
_LABELED = re.compile(r"^[^\S\n]*(?:(?!#)\S*:[^\S\n]+)?out=(?!#)(\S+)"
                      r"[^\S\n]+in=(\S+)(?:[^\S\n]+w(?:eight)?=(\S+))?"
                      r"[^\S\n]*$", re.M)


def _plain_columns(text, sep, widths, shift, parse, default, edge_list=False):
    """EdgeColumns of a text whose lines all hold as many `sep`-separated
    fields, widths[0] to widths[-1]: out- and in-vertex, less `shift`,
    then a weight through `parse`, or `default` if none. Bodies of ASCII
    digits (`.0` weights too, under float) are parsed in one call,
    others a column at a time, as int() and `parse` read them. In an
    `edge_list`, blank and `#` lines are dropped, labeled lines read in
    plain form, and digit vertex fields may be comma groups. ValueError,
    TypeError or OverflowError on any other text or a negative vertex."""
    if edge_list and "=" in text:
        text = _LABELED.sub(lambda m: "\t".join(filter(None, m.groups())),
                            text)
    raw = text.rstrip("\n").encode() + b"\n"  # every line ends in one
    buf, ends, last = _layout(raw, sep, edge_list)
    if edge_list and len(raw) > len(raw := _drop_skipped(raw, buf,
                                                          ends[last])):
        buf, ends, last = _layout(raw, sep, edge_list)
    grouped = edge_list and b"," in raw
    width = np.diff(last, prepend=-1)  # tokens a line: fields, ungrouped
    if grouped:  # a field's tokens are the members of its group
        is_sep = buf[ends] == ord(sep)
        seps = np.cumsum(is_sep) - is_sep  # before each token
        line = np.repeat(np.arange(len(last)), width)
        field = seps - np.r_[0, seps[last[:-1] + 1]][line]
        width = field[last] + 1
    w = width.max(initial=widths[0])
    if ((width != w).any() or not widths[0] <= w <= widths[-1]
            or grouped and (field[buf[ends] == ord(",")] > 1).any()):
        raise ValueError("lines of unequal or other widths, or a group weight")
    at = [field == f if grouped else slice(f, None, w) for f in range(w)]
    table = _digit_table(buf, ends, last, parse is float and w == 3)
    if table is not None and (parse in _EXACT or w == 2):
        cols = [table[k] for k in at]
        vals = cols[2].astype(_EXACT[parse]) if w == 3 else []
    elif not grouped and not (edge_list and b"out=" in raw):
        tokens = raw[:-1].decode().replace("\n", sep).split(sep)
        cols = [tokens[k] for k in at]
        vals = np.array([parse(t) for t in cols[2]] if w == 3 else [],
                        float if parse is float else object)  # ints stay exact
    else:
        raise ValueError("groups or labeled lines with other fields")
    out_v, in_v = (np.asarray(c, dtype=np.int64) - shift for c in cols[:2])
    if (out_v < 0).any() or (in_v < 0).any():
        raise ValueError("negative vertex index")
    ids = [line[at[0]], line[at[1]]] if grouped else [np.arange(len(last))] * 2
    return EdgeColumns(ids[0], out_v, ids[1], in_v,
                       vals if w == 3 else np.full(len(last), default))


def _layout(raw, sep, edge_list):
    """(buf, ends, last) of bytes ending in a newline: them as uint8,
    the offsets of the `sep`s, newlines and (in an edge list) commas
    ending each token, and the indices in `ends` of the newlines."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    is_end = (buf == ord(sep)) | (buf == 10)
    if edge_list and b"," in raw:
        is_end |= buf == ord(",")
    ends = np.flatnonzero(is_end)
    return buf, ends, np.flatnonzero(buf[ends] == 10)


def _drop_skipped(raw, buf, newlines):
    """`raw`, whose lines end at the `newlines` offsets, without its
    blank and `#` lines, spaces and tabs before them aside."""
    starts = np.concatenate(([0], newlines[:-1] + 1))
    odd = buf[starts] - ord("0") > 9  # lines that open otherwise
    cut = [(s, e + 1) for s, e in zip(starts[odd].tolist(),
                                      newlines[odd].tolist())
           if raw[s:e].lstrip(b" \t")[:1] in (b"", b"#")]
    bounds = [0, *chain.from_iterable(cut), len(raw)]
    return b"".join(raw[i:j] for i, j in zip(bounds[::2], bounds[1::2]))


def _digit_table(buf, ends, last, point_zero=False):
    """The tokens of a body of _layout (buf, ends, last) whose every
    token is 1 to 18 ASCII digits, parsed by Horner's rule a digit place
    at a time, a chunk of lines at once: int32 while no token has more
    than 9 digits, int64 up to 18. None for any other body. With
    `point_zero`, every line's last token may end in `.0`, if all do,
    read without it: the token ends two bytes early."""
    dots = bool(point_zero and buf[ends[last[0]] - 2] == ord(".") and (
        (buf[ends[last] - 2] == ord(".")) & (buf[ends[last] - 1] == ord("0"))
    ).all())  # a first line without it settles the question at once
    parts, t0, b0 = [], 0, 0
    for lo in range(0, len(last), _PARSE_LINES):
        newlines = last[lo:lo + _PARSE_LINES]
        t1, b1 = int(newlines[-1]) + 1, int(ends[newlines[-1]]) + 1
        digit = buf[b0:b1] - np.uint8(ord("0"))
        ok = digit < 10
        if np.count_nonzero(ok) + t1 - t0 + dots * len(newlines) != b1 - b0:
            return None
        digit *= ok
        stop = ends[t0:t1] - b0
        # a place left of a token reads the byte ending the one before: 0
        before = np.concatenate(([-1], stop[:-1]))  # -1: the last newline
        stop[newlines - t0] -= 2 * dots
        pos = stop - before
        width = int(pos.max()) - 1
        if width > 18 or pos.min() < 2:  # a token of 19 digits, or none
            return None
        table = np.zeros(t1 - t0, dtype=np.int32 if width <= 9 else np.int64)
        for place in range(width, 0, -1):
            np.maximum(np.subtract(stop, place, out=pos), before, out=pos)
            table *= 10
            table += digit[pos]
        parts.append(table)
        t0, b0 = t1, b1
    return np.concatenate(parts)  # int64 if any chunk is


def _parse_vertex_group(text, path, lineno, shift):
    out = []
    for tok in text.split(","):  # never empty: "".split(",") == [""]
        try:
            v = int(tok) - shift
        except ValueError:
            raise FormatError(f"bad vertex index {tok!r}", path, lineno)
        if v < 0:  # named as the file wrote it
            raise FormatError("vertex index 0 in a 1-based file" if v >= -shift
                              else f"negative vertex index {v + shift}",
                              path, lineno)
        out.append(v)
    return out


def _parse_weight(text, path, lineno, value_parser):
    try:
        return value_parser(text)
    except (ValueError, TypeError):
        raise FormatError(f"non-numeric weight {text!r}", path, lineno)


def _default_value_parser(text):
    try:
        return int(text)
    except ValueError:
        return float(text)


# value parsers whose result on a field of ASCII digits is the field's
# integer cast to this dtype, exactly
_EXACT = {int: np.int64, _default_value_parser: np.int64, float: np.float64}


def read_edge_list(path, one_based=False, value_parser=None):
    """Parse a TSV edge-list file into EdgeColumns: plain
    ``out<TAB>in[<TAB>weight]`` lines, whose out/in may be comma-joined
    vertex groups (hyper-edges), and labeled ``e12: out=4 in=3,5
    [w=0.5]`` lines. Blank lines and ``#`` comments are skipped."""
    return _read_edges(path, one_based, value_parser, None)


def read_triples(path, one_based=False, value_parser=None, default=1):
    """(rows, cols, vals, n) of a TSV edge list, as read_edge_list,
    triples_from_edges(edges, default) and edges.n_vertices give them,
    errors included; rows and cols are int64 arrays, vals an array."""
    edges = _read_edges(path, one_based, value_parser, default)
    n = edges.n_vertices
    if len(edges.out_vertices) == len(edges.in_vertices) == len(edges):
        return edges.out_vertices, edges.in_vertices, edges.weights, n
    return (*triples_from_edges(edges, default), n)


def _read_edges(path, one_based, value_parser, default):
    """read_edge_list, with `default` for an edge without a weight."""
    parse = value_parser or _default_value_parser
    shift = 1 if one_based else 0
    with _text(path) as fh:
        text = fh.read()
    try:
        return _plain_columns(text, "\t", (2, 3), shift, parse, default, True)
    except (ValueError, TypeError, OverflowError):
        return _parse_lines(text, path, shift, parse, default)


def _parse_lines(text, path, shift, value_parser, default):
    """The line parser: EdgeColumns of an edge list, record by record;
    FormatError naming the first bad line."""
    outs, ins, weights = [], [], []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parse = _parse_labeled if "out=" in line else _parse_plain
        record = parse(line, path, lineno, shift, value_parser, default)
        for column, item in zip((outs, ins, weights), record):
            column.append(item)
    return EdgeColumns.from_groups(outs, ins, weights)


def _parse_plain(line, path, lineno, shift, value_parser, default):
    """(outs, ins, weight or default) of ``out<TAB>in[<TAB>weight]``."""
    parts = line.split("\t")
    if len(parts) not in (2, 3):
        raise FormatError(
            f"expected 2 or 3 tab-separated fields, got {len(parts)}",
            path, lineno)
    return (_parse_vertex_group(parts[0], path, lineno, shift),
            _parse_vertex_group(parts[1], path, lineno, shift),
            _parse_weight(parts[2], path, lineno, value_parser)
            if len(parts) == 3 else default)


def _parse_labeled(line, path, lineno, shift, value_parser, default):
    """(outs, ins, weight or default) of ``[label:] out=.. in=.. [w=..]``."""
    tokens = line.split()
    if tokens and tokens[0].endswith(":"):
        tokens.pop(0)  # the edge's label, a name only
    found = {}
    for tok in tokens:
        if "=" not in tok:
            raise FormatError(f"bad token {tok!r} in labeled edge",
                              path, lineno)
        key, _, val = tok.partition("=")
        if key in ("out", "in"):
            found[key] = _parse_vertex_group(val, path, lineno, shift)
        elif key in ("w", "weight"):
            found["w"] = _parse_weight(val, path, lineno, value_parser)
        else:
            raise FormatError(f"unknown key {key!r} in labeled edge",
                              path, lineno)
    if "out" not in found or "in" not in found:
        raise FormatError("labeled edge needs both out= and in=",
                          path, lineno)
    return found["out"], found["in"], found.get("w", default)


def incidence_from_edges(sr: Semiring, edges, n_vertices,
                         use_weights=False):
    """The (e_out, e_in) incidence pair, one row per edge. Entries are
    the multiplicative identity; with use_weights=True the in-incidence
    carries each edge's weight instead."""
    ids = np.concatenate((edges.out_edges, edges.in_edges))
    vertices = np.concatenate((edges.out_vertices, edges.in_vertices))
    bad = np.flatnonzero(vertices >= n_vertices)
    if len(bad):  # the first such edge's, out-vertices before in-vertices
        k = bad[np.argmin(ids[bad])]
        side = "out" if k < len(edges.out_edges) else "in"
        raise IndexBoundsError(f"edge {ids[k]}: {side}-vertex {vertices[k]} "
                               f"outside [0, {n_vertices})")
    in_vals = (edges.weight_array(sr.one)[edges.in_edges]
               if use_weights else np.full(len(edges.in_edges), sr.one))
    dims = (max(len(edges), 1), n_vertices)
    return (build(sr, dims, (edges.out_edges, edges.out_vertices,
                             np.full(len(edges.out_edges), sr.one))),
            build(sr, dims, (edges.in_edges, edges.in_vertices, in_vals)))


def triples_from_edges(edges, default_weight):
    """Flatten edge columns to pairwise (row, col, val) triples, edge by
    edge in file order; a hyper-edge contributes its full out x in cross
    product, out-vertex major, in arrays (rows and cols int64)."""
    in_counts = np.bincount(edges.in_edges, minlength=len(edges))
    in_starts = np.cumsum(in_counts) - in_counts
    per_out = in_counts[edges.out_edges]  # products of each out-vertex
    rows = np.repeat(edges.out_vertices, per_out)
    cols = edges.in_vertices[_ranges(in_starts[edges.out_edges], per_out)]
    vals = edges.weight_array(default_weight)[
        np.repeat(edges.out_edges, per_out)]
    return rows, cols, vals


# ---------------------------------------------------------------------------
# Matrix Market coordinate format


_WRITE_CHUNK = 1 << 16  # entries formatted at once; bounds the buffers


def _write_entries(fh, a: SparseMatrix, sep, shift, values=True):
    """One line per stored entry: row and column plus `shift`, then
    (with `values`) the value as its domain renders it, joined by
    `sep`. A chunk whose values render as digits is written from one
    byte buffer, any other entry by entry."""
    tri = extract_tuples(a)
    for lo in range(0, len(tri), _WRITE_CHUNK):
        part = slice(lo, lo + _WRITE_CHUNK)
        rows, cols = tri.rows[part] + shift, tri.cols[part] + shift
        if not values:
            fh.write(_digit_lines((rows, cols), sep))
        elif (digits := a.domain.digits(tri.vals[part])) is not None:
            fh.write(_digit_lines((rows, cols, digits[0]), sep, digits[1]))
        else:
            vals = map(a.domain.render, tri.vals[part].tolist())
            fh.write("".join([f"{r}{sep}{c}{sep}{v}\n" for r, c, v
                              in zip(rows.tolist(), cols.tolist(), vals)]))


def _digit_lines(columns, sep, suffix=""):
    """Lines of the integral columns joined by `sep`, the last column's
    fields followed by `suffix`, as text laid out in one byte buffer:
    each field a block of rows of digits, right-aligned after 0 bytes,
    which are then dropped. A float column marks a missing field by nan
    or inf, written `-` with no suffix."""
    n = len(columns[0])
    blocks = []
    for x in columns:
        gone = ~np.isfinite(x) if x.dtype.kind == "f" else np.zeros(n, bool)
        x = np.where(gone, 0, x)
        neg = x < 0
        mag = np.abs(x).astype(np.uint64)  # int64's minimum wraps to 2**63
        width = len(str(int(mag.max(initial=0))))
        q = np.zeros((width + 1, n), dtype=np.uint64)  # mag // 10**(width-k)
        for k in range(width):
            q[width - k] = mag // np.uint64(10 ** k)
        q8 = q.astype(np.uint8)  # a digit is its row less 10x the one above
        digits = q8[1:] - np.uint8(10) * q8[:-1] + np.uint8(ord("0"))
        digits[:-1] *= q[1:-1] > 0  # no leading zeros
        digits[-1, gone] = ord("-")  # a missing field's value is 0
        if neg.any():
            blocks.append(neg[None] * np.uint8(ord("-")))
        blocks += [digits, np.full((1, n), ord(sep), dtype=np.uint8)]
    blocks[-1:] = [np.frombuffer(suffix.encode(), np.uint8)[:, None] * ~gone,
                   np.full((1, n), ord("\n"), dtype=np.uint8)]
    return np.vstack(blocks).T.tobytes().replace(b"\0", b"").decode()


def write_matrix_market(path, a: SparseMatrix):
    """Write a sparse matrix as a coordinate-format Matrix Market file.

    Indices are 1-based on disk. The field follows the domain: real
    domains write `real`, integer-backed domains write `integer`, and
    boolean matrices write `pattern` (structure only).
    """
    field = "pattern" if a.domain.name == "bool" else a.domain.mm_field
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        fh.write(f"% {a.domain.name} domain, written by graphmat\n")
        fh.write(f"{a.nrows} {a.ncols} {a.nnz}\n")
        _write_entries(fh, a, " ", 1, values=field != "pattern")


def read_matrix_market(path, sr: Semiring, default=None) -> SparseMatrix:
    """Read a coordinate-format Matrix Market file into a matrix over
    the given semiring's domain. Banner keywords are case-insensitive;
    a `pattern` entry holds `default`, sr.one if None."""
    default = sr.one if default is None else default
    with _text(path) as fh:
        parts = fh.readline().split()
        lineno = 1
        if (len(parts) != 5 or parts[0] != "%%MatrixMarket"
                or parts[1].lower() != "matrix"):
            raise FormatError("not a Matrix Market matrix header",
                              path, lineno)
        layout, field, symmetry = (p.lower() for p in parts[2:])
        if layout != "coordinate":
            raise FormatError(f"unsupported layout {layout!r} "
                              "(only coordinate)", path, lineno)
        if field not in ("real", "integer", "pattern"):
            raise FormatError(f"unsupported field {field!r}", path, lineno)
        if symmetry != "general":
            raise FormatError(f"unsupported symmetry {symmetry!r} "
                              "(only general)", path, lineno)
        for lineno, size_line in enumerate(fh, start=2):
            if size_line.strip() and not size_line.startswith("%"):
                break
        else:
            raise FormatError("missing size line", path, lineno)
        try:
            m, n, nnz = (int(t) for t in size_line.split())
        except ValueError:
            raise FormatError(f"bad size line {size_line.strip()!r}",
                              path, lineno)
        body = fh.read()
    expected = 2 if field == "pattern" else 3
    try:
        # fields split on single spaces: one that int() or parse_text
        # accepts is a token of the line's split() padded with whitespace
        # they strip, so both parsers read the same entries
        e = _plain_columns(body, " ", (expected,), 1, sr.domain.parse_text,
                           default)
        rows, cols, vals = e.out_vertices, e.in_vertices, e.weights
        if not ((rows < m) & (cols < n)).all():
            raise ValueError("entry outside declared bounds")
    except (ValueError, OverflowError):
        rows, cols, vals = [], [], []
        for lineno, raw in enumerate(body.split("\n"), start=lineno + 1):
            if raw.startswith("%") or not raw.strip():
                continue
            toks = raw.split()
            if len(toks) != expected:
                raise FormatError(
                    f"expected {expected} fields, got {len(toks)}",
                    path, lineno)
            try:
                r, c = int(toks[0]) - 1, int(toks[1]) - 1
            except ValueError:
                raise FormatError(f"bad index in {raw.strip()!r}",
                                  path, lineno)
            if not (0 <= r < m and 0 <= c < n):
                raise FormatError(
                    f"entry ({r + 1}, {c + 1}) outside declared "
                    f"{m} x {n} bounds", path, lineno)
            try:
                v = sr.domain.parse_text(toks[2]) if toks[2:] else default
            except ValueError:
                raise FormatError(f"bad value {toks[2]!r}", path, lineno)
            rows.append(r)
            cols.append(c)
            vals.append(v)
    if len(rows) != nnz:
        raise FormatError(
            f"file declares {nnz} entries but contains {len(rows)}", path)
    return build(sr, (m, n), (rows, cols, vals))


def write_edge_list(path, a: SparseMatrix, one_based=False):
    """Emit a matrix's stored entries as a plain TSV edge list."""
    with open(path, "w") as fh:
        _write_entries(fh, a, "\t", 1 if one_based else 0)
