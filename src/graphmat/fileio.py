"""Edge-list and Matrix Market file ingestion and emission.

TSV edge lists are 0-based by default (a flag shifts them); Matrix
Market coordinate files are 1-based on disk, as the format requires.
Files are UTF-8 text. Plain numeric files are parsed a column at a
time, any other by the line parser, whose errors give file and line.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .algebra import Semiring
from .errors import FormatError, IndexBoundsError
from .kernels import _ranges
from .matrix import SparseMatrix, build, extract_tuples


@dataclass(eq=False)
class EdgeColumns:
    """Edge records as incidence columns: for each side, the edge id and
    vertex of every (edge, vertex) pair as int64 arrays in file order,
    and one weight per edge, None where the line gives none (the
    multiplicative identity). len() is the number of edges."""

    out_edges: np.ndarray
    out_vertices: np.ndarray
    in_edges: np.ndarray
    in_vertices: np.ndarray
    weights: list

    @classmethod
    def from_groups(cls, outs, ins, weights):
        """Columns of per-edge vertex groups, each vertex within int64."""
        try:
            sides = [(np.repeat(np.arange(len(g)), list(map(len, g))),
                      np.array(list(chain.from_iterable(g)), dtype=np.int64))
                     for g in (outs, ins)]
        except OverflowError:
            raise IndexBoundsError("index outside the int64 range") from None
        return cls(*sides[0], *sides[1], weights)

    def __len__(self):
        return len(self.weights)

    @property
    def n_vertices(self):
        """One more than the largest vertex; 1 for no edges."""
        return int(max(self.out_vertices.max(initial=0),
                       self.in_vertices.max(initial=0))) + 1

    def weight_array(self, default):
        """Each edge's weight in an object array, `default` where none."""
        w = np.array(self.weights, dtype=object)
        return np.where(np.equal(w, None), default, w)


@contextmanager
def _text(path):
    """`path` open as UTF-8 text; FormatError if it is not."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text ({exc.reason})", path) from None


_SKIPPED = re.compile(r"^[ \t]*(?:#.*)?(?:\n|\Z)", re.M)  # blank, comment


def _plain_columns(text, sep, widths, shift, parse, default, skipped=None):
    """(rows, cols, vals) of a text whose every line holds the same
    number (one of `widths`) of `sep`-separated fields, the first two of
    them integers: rows and cols less `shift` as int64 arrays, converted
    as int() would, and vals a list of each line's third field through
    `parse` (cast from the digit table when `parse` is in _EXACT), or of
    `default` for two fields. ValueError, or OverflowError for an
    integer beyond int64, on any other text. A text of unequal lines is
    tried once more without the lines the `skipped` pattern matches."""
    body = text.rstrip("\n")  # blank lines at the end are skipped
    raw = body.encode()
    buf = np.frombuffer(raw, dtype=np.uint8)
    # offsets of the separators and newlines that end each field
    ends = np.flatnonzero((buf == ord(sep)) | (buf == ord("\n")))
    newlines = np.flatnonzero(buf[ends] == ord("\n"))
    per_line = np.diff(newlines, prepend=-1, append=len(ends)) - 1  # seps
    width = int(per_line[0]) + 1
    if width not in widths or (per_line != per_line[0]).any():
        if skipped is None:
            raise ValueError("lines of another or unequal width")
        return _plain_columns(skipped.sub("", text), sep, widths, shift,
                              parse, default)
    table = _digit_table(raw, buf, ends, len(per_line), width)
    exact = table is not None and (width == 2 or parse in _EXACT)
    fields = None if exact else body.replace("\n", sep).split(sep)
    if table is None:
        rows, cols = (np.array(fields[k::width], dtype=np.int64) - shift
                      for k in (0, 1))
    else:
        rows, cols = table[:, 0] - shift, table[:, 1] - shift
    if width == 2:
        vals = [default] * len(rows)
    elif exact:
        vals = table[:, 2].astype(_EXACT[parse]).tolist()
    else:
        vals = list(map(parse, fields[2::3]))
    return rows, cols, vals


def _digit_table(raw, buf, ends, lines, width):
    """The lines x width int64 table of a body whose every field is 1 to
    18 ASCII digits, each ending at one of the `ends` offsets (the
    separators and newlines) or at the end, parsed in one call; None
    for any other body. np.fromstring alone would read a 20-digit field
    as 2**63 - 1 and take a trailing separator and any whitespace."""
    sizes = np.diff(ends, prepend=-1, append=len(buf)) - 1
    if (np.count_nonzero(buf - ord("0") < 10) + len(ends) != len(buf)
            or sizes.min() < 1 or sizes.max() > 18):
        return None
    table = np.fromstring(raw, dtype=np.int64, sep=" ")
    return table.reshape(lines, width) if len(table) == lines * width else None


def _parse_vertex_group(text, path, lineno, shift):
    out = []
    for tok in text.split(","):  # never empty: "".split(",") == [""]
        try:
            v = int(tok) - shift
        except ValueError:
            raise FormatError(f"bad vertex index {tok!r}", path, lineno)
        if v < 0:
            raise FormatError(f"negative vertex index {v}", path, lineno)
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
    """Parse a TSV edge-list file into EdgeColumns, line by line: plain
    ``out<TAB>in[<TAB>weight]`` lines, whose out/in may be comma-joined
    vertex groups (hyper-edges), and labeled ``e12: out=4 in=3,5
    [w=0.5]`` lines. Blank lines and ``#`` comments are skipped."""
    value_parser = value_parser or _default_value_parser
    shift = 1 if one_based else 0
    outs, ins, weights = [], [], []
    with _text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parse = _parse_labeled if "out=" in line else _parse_plain
            record = parse(line, path, lineno, shift, value_parser)
            for column, item in zip((outs, ins, weights), record):
                column.append(item)
    return EdgeColumns.from_groups(outs, ins, weights)


def read_triples(path, one_based=False, value_parser=None, default=1):
    """(rows, cols, vals, n) of a TSV edge list, as read_edge_list,
    triples_from_edges(edges, default) and edges.n_vertices give them,
    errors included. Plain lines of equal width, blank and `#` comment
    lines aside, are parsed a column at a time, rows and cols as int64
    arrays; any other file goes through read_edge_list."""
    parse = value_parser or _default_value_parser
    with _text(path) as fh:
        text = fh.read()
    try:
        if "out=" in text:
            raise ValueError("labeled line")
        rows, cols, vals = _plain_columns(
            text, "\t", (2, 3), 1 if one_based else 0, parse, default,
            _SKIPPED)
        if (rows < 0).any() or (cols < 0).any():
            raise ValueError("negative vertex index")
        return rows, cols, vals, int(max(rows.max(), cols.max())) + 1
    except (ValueError, TypeError, OverflowError):
        edges = read_edge_list(path, one_based, value_parser)
        return (*triples_from_edges(edges, default), edges.n_vertices)


def _parse_plain(line, path, lineno, shift, value_parser):
    """(outs, ins, weight or None) of ``out<TAB>in[<TAB>weight]``."""
    parts = line.split("\t")
    if len(parts) not in (2, 3):
        raise FormatError(
            f"expected 2 or 3 tab-separated fields, got {len(parts)}",
            path, lineno)
    return (_parse_vertex_group(parts[0], path, lineno, shift),
            _parse_vertex_group(parts[1], path, lineno, shift),
            _parse_weight(parts[2], path, lineno, value_parser)
            if len(parts) == 3 else None)


def _parse_labeled(line, path, lineno, shift, value_parser):
    """(outs, ins, weight or None) of ``[label:] out=.. in=.. [w=..]``."""
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
    return found["out"], found["in"], found.get("w")


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
    in_vals = (edges.weight_array(sr.one)[edges.in_edges].tolist()
               if use_weights else [sr.one] * len(edges.in_edges))
    dims = (max(len(edges), 1), n_vertices)
    return (build(sr, dims, (edges.out_edges, edges.out_vertices,
                             [sr.one] * len(edges.out_edges))),
            build(sr, dims, (edges.in_edges, edges.in_vertices, in_vals)))


def triples_from_edges(edges, default_weight):
    """Flatten edge columns to pairwise (row, col, val) triples, edge by
    edge in file order; a hyper-edge contributes its full out x in cross
    product, out-vertex major. Rows and cols are int64 arrays."""
    in_counts = np.bincount(edges.in_edges, minlength=len(edges))
    in_starts = np.cumsum(in_counts) - in_counts
    per_out = in_counts[edges.out_edges]  # products of each out-vertex
    rows = np.repeat(edges.out_vertices, per_out)
    cols = edges.in_vertices[_ranges(in_starts[edges.out_edges], per_out)]
    vals = edges.weight_array(default_weight)[
        np.repeat(edges.out_edges, per_out)]
    return rows, cols, vals.tolist()


# ---------------------------------------------------------------------------
# Matrix Market coordinate format


_WRITE_CHUNK = 1 << 16  # entries formatted at once; bounds the lists


def _write_entries(fh, a: SparseMatrix, sep, shift, values=True):
    """One line per stored entry: row and column plus `shift`, then
    (with `values`) the value as its domain renders it, joined by
    `sep`. Whole columns are formatted a chunk at a time."""
    tri = extract_tuples(a)
    for lo in range(0, len(tri), _WRITE_CHUNK):
        part = slice(lo, lo + _WRITE_CHUNK)
        rows = (tri.rows[part] + shift).tolist()
        cols = (tri.cols[part] + shift).tolist()
        if values:
            vals = map(a.domain.render, tri.vals[part].tolist())
            lines = [f"{r}{sep}{c}{sep}{v}\n"
                     for r, c, v in zip(rows, cols, vals)]
        else:
            lines = [f"{r}{sep}{c}\n" for r, c in zip(rows, cols)]
        fh.write("".join(lines))


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
        rows, cols, vals = _plain_columns(body, " ", (expected,), 1,
                                          sr.domain.parse_text, default)
        if not ((rows >= 0) & (rows < m) & (cols >= 0) & (cols < n)).all():
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
