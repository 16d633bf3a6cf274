"""Edge-list and Matrix Market file ingestion and emission.

TSV edge lists are 0-based by default (a flag shifts them); Matrix
Market coordinate files are 1-based on disk, as the format requires.
Files are UTF-8 text. Plain numeric files are parsed a column at a
time; any other goes through the line parser, whose errors carry file
and line context.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .algebra import Semiring
from .errors import FormatError, IndexBoundsError
from .matrix import SparseMatrix, build, extract_tuples


@dataclass
class EdgeRecord:
    """One logical edge: simple, multi-, or hyper-."""

    out_vertices: list
    in_vertices: list
    weight: object = None  # None means the multiplicative identity
    edge_id: int | None = None
    line: int | None = None

    @property
    def is_hyper(self):
        return len(self.out_vertices) + len(self.in_vertices) > 2


@contextmanager
def _text(path):
    """`path` open as UTF-8 text; FormatError if it is not."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text ({exc.reason})", path) from None


def _plain_columns(text, sep, widths, shift):
    """(rows, cols, fields, width) of a text whose every line holds the
    same number (one of `widths`) of `sep`-separated fields, the first
    two of them integers: rows and cols less `shift` as int64 arrays,
    converted by numpy with int(). ValueError, or OverflowError for an
    integer beyond int64, on any other text."""
    body = text.rstrip("\n")  # blank lines at the end are skipped
    buf = np.frombuffer(body.encode(), dtype=np.uint8)
    marks = buf == ord(sep)
    per_line = np.diff(np.cumsum(marks)[buf == ord("\n")], prepend=0,
                       append=np.count_nonzero(marks))
    width = int(per_line[0]) + 1
    if width not in widths or (per_line != per_line[0]).any():
        raise ValueError("lines of another or unequal width")
    fields = body.replace("\n", sep).split(sep)
    rows, cols = (np.array(fields[k::width], dtype=np.int64) - shift
                  for k in (0, 1))
    return rows, cols, fields, width


def _parse_vertex_group(text, path, lineno, shift):
    out = []
    for tok in text.split(","):
        try:
            v = int(tok)
        except ValueError:
            raise FormatError(f"bad vertex index {tok!r}", path, lineno)
        v -= shift
        if v < 0:
            raise FormatError(f"negative vertex index {v}", path, lineno)
        out.append(v)
    if not out:
        raise FormatError("empty vertex group", path, lineno)
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


def read_edge_list(path, one_based=False, value_parser=None):
    """Parse a TSV edge-list file into EdgeRecords.

    Plain form: ``out<TAB>in[<TAB>weight]`` where out/in may be
    comma-joined vertex groups (hyper-edges). A labeled form
    ``e12: out=4 in=3,5 [w=0.5]`` is also accepted. Blank lines and
    ``#`` comments are skipped.
    """
    value_parser = value_parser or _default_value_parser
    shift = 1 if one_based else 0
    records = []
    with _text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "out=" in line:
                records.append(
                    _parse_labeled(line, path, lineno, shift, value_parser))
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise FormatError(
                    f"expected 2 or 3 tab-separated fields, got {len(parts)}",
                    path, lineno)
            outs = _parse_vertex_group(parts[0], path, lineno, shift)
            ins = _parse_vertex_group(parts[1], path, lineno, shift)
            weight = None
            if len(parts) == 3:
                weight = _parse_weight(parts[2], path, lineno, value_parser)
            records.append(EdgeRecord(outs, ins, weight, line=lineno))
    return records


def read_triples(path, one_based=False, value_parser=None, default=1):
    """(rows, cols, vals, n) of a TSV edge list, as read_edge_list,
    triples_from_edges(edges, default) and vertex_count_from_edges give
    them, errors included. Plain lines of equal width are parsed a
    column at a time, rows and cols as int64 arrays; any other file
    goes through read_edge_list."""
    parse = value_parser or _default_value_parser
    with _text(path) as fh:
        text = fh.read()
    try:
        if "out=" in text:
            raise ValueError("labeled line")
        rows, cols, fields, width = _plain_columns(text, "\t", (2, 3),
                                                   1 if one_based else 0)
        if (rows < 0).any() or (cols < 0).any():
            raise ValueError("negative vertex index")
        vals = (list(map(parse, fields[2::3])) if width == 3
                else [default] * len(rows))
        return rows, cols, vals, int(max(rows.max(), cols.max())) + 1
    except (ValueError, TypeError, OverflowError):
        edges = read_edge_list(path, one_based, value_parser)
        return (*triples_from_edges(edges, default),
                vertex_count_from_edges(edges))


def _parse_labeled(line, path, lineno, shift, value_parser):
    tokens = line.split()
    edge_id = None
    if tokens and tokens[0].endswith(":"):
        label = tokens.pop(0)[:-1]
        digits = "".join(ch for ch in label if ch.isdigit())
        edge_id = int(digits) if digits else None
    outs = ins = None
    weight = None
    for tok in tokens:
        if "=" not in tok:
            raise FormatError(f"bad token {tok!r} in labeled edge",
                              path, lineno)
        key, _, val = tok.partition("=")
        if key == "out":
            outs = _parse_vertex_group(val, path, lineno, shift)
        elif key == "in":
            ins = _parse_vertex_group(val, path, lineno, shift)
        elif key in ("w", "weight"):
            weight = _parse_weight(val, path, lineno, value_parser)
        else:
            raise FormatError(f"unknown key {key!r} in labeled edge",
                              path, lineno)
    if outs is None or ins is None:
        raise FormatError("labeled edge needs both out= and in=",
                          path, lineno)
    return EdgeRecord(outs, ins, weight, edge_id=edge_id, line=lineno)


def incidence_from_edges(sr: Semiring, edges, n_vertices,
                         use_weights=False):
    """Build the (e_out, e_in) incidence pair, one row per edge.

    Entries are the multiplicative identity; with use_weights=True the
    in-incidence carries each edge's weight instead.
    """
    n_edges = len(edges)
    out_r, out_c, out_v = [], [], []
    in_r, in_c, in_v = [], [], []
    for k, e in enumerate(edges):
        for u in e.out_vertices:
            if u >= n_vertices:
                raise IndexBoundsError(
                    f"edge {k}: out-vertex {u} outside [0, {n_vertices})")
            out_r.append(k)
            out_c.append(u)
            out_v.append(sr.one)
        w = e.weight if (use_weights and e.weight is not None) else sr.one
        for v in e.in_vertices:
            if v >= n_vertices:
                raise IndexBoundsError(
                    f"edge {k}: in-vertex {v} outside [0, {n_vertices})")
            in_r.append(k)
            in_c.append(v)
            in_v.append(w)
    dims = (max(n_edges, 1), n_vertices)
    e_out = build(sr, dims, (out_r, out_c, out_v))
    e_in = build(sr, dims, (in_r, in_c, in_v))
    return e_out, e_in


def triples_from_edges(edges, default_weight):
    """Flatten edge records to pairwise (row, col, val) triples; a
    hyper-edge contributes its full out x in cross product."""
    rows, cols, vals = [], [], []
    for e in edges:
        w = e.weight if e.weight is not None else default_weight
        for u in e.out_vertices:
            for v in e.in_vertices:
                rows.append(u)
                cols.append(v)
                vals.append(w)
    return rows, cols, vals


def vertex_count_from_edges(edges):
    top = 0
    for e in edges:
        top = max(top, *e.out_vertices, *e.in_vertices)
    return top + 1


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


def read_matrix_market(path, sr: Semiring) -> SparseMatrix:
    """Read a coordinate-format Matrix Market file into a matrix over
    the given semiring's domain. Banner keywords are case-insensitive."""
    with _text(path) as fh:
        header = fh.readline()
        lineno = 1
        parts = header.strip().split()
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
        size_line = None
        for raw in fh:
            lineno += 1
            if raw.startswith("%") or not raw.strip():
                continue
            size_line = raw
            break
        if size_line is None:
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
        rows, cols, fields, _ = _plain_columns(body, " ", (expected,), 1)
        if not ((rows >= 0) & (rows < m) & (cols >= 0) & (cols < n)).all():
            raise ValueError("entry outside declared bounds")
        vals = (list(map(sr.domain.parse_text, fields[2::3]))
                if expected == 3 else [sr.one] * len(rows))
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
            if field == "pattern":
                v = sr.one
            else:
                try:
                    v = sr.domain.parse_text(toks[2])
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
