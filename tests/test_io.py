import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphmat as gm
from graphmat import fileio
from graphmat.algebra import INTEGER, OP_PLUS, OP_TIMES
from graphmat.errors import FormatError, IndexBoundsError

from conftest import DATA_DIR, get_semiring, random_matrix

ARITH = gm.semiring_by_name("arith-real")


def py(vals):
    """Weights or values as a list of Python values: the readers hand a
    column of digits over as an array."""
    return vals.tolist() if isinstance(vals, np.ndarray) else vals


def columns(edges):
    """An EdgeColumns as lists: out edge ids and vertices, in edge ids
    and vertices, weights."""
    return (edges.out_edges.tolist(), edges.out_vertices.tolist(),
            edges.in_edges.tolist(), edges.in_vertices.tolist(),
            py(edges.weights))


class TestReadEdgeList:
    def test_simple_weighted_line(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("0\t1\t0.5\n")
        assert columns(fileio.read_edge_list(p)) == \
            ([0], [0], [0], [1], [0.5])

    def test_labeled_hyper_line(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("e12: out=4 in=3,5\n")
        assert columns(fileio.read_edge_list(p)) == \
            ([0], [4], [0, 0], [3, 5], [None])

    def test_comma_group_hyper_line(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("1,2\t3,4\t2.0\n")
        assert columns(fileio.read_edge_list(p)) == \
            ([0, 0], [1, 2], [0, 0], [3, 4], [2.0])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("")
        edges = fileio.read_edge_list(p)
        assert len(edges) == 0
        assert columns(edges) == ([], [], [], [], [])
        assert edges.out_edges.dtype == edges.in_vertices.dtype == np.int64

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("# header\n\n0\t1\n")
        assert len(fileio.read_edge_list(p)) == 1

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("0\t1\nnot-a-line\n")
        with pytest.raises(FormatError) as err:
            fileio.read_edge_list(p)
        assert ":2:" in str(err.value)

    def test_negative_index(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("-1\t2\n")
        with pytest.raises(FormatError):
            fileio.read_edge_list(p)

    def test_non_numeric_weight(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("0\t1\theavy\n")
        with pytest.raises(FormatError) as err:
            fileio.read_edge_list(p, value_parser=float)
        assert "heavy" in str(err.value)

    def test_one_based_shift(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("1\t2\n")
        assert columns(fileio.read_edge_list(p, one_based=True)) == \
            ([0], [0], [0], [1], [None])


class TestIncidenceFromEdges:
    def test_fixture_dimensions(self):
        edges = fileio.read_edge_list(DATA_DIR / "seven_vertex_edges.tsv")
        e_out, e_in = fileio.incidence_from_edges(ARITH, edges, 7)
        assert e_out.dims == (12, 7)
        assert e_in.dims == (12, 7)
        assert e_out.nnz == e_in.nnz == 12

    def test_self_loop_marks_both(self):
        edges = fileio.EdgeColumns.from_groups([[2]], [[2]], [None])
        e_out, e_in = fileio.incidence_from_edges(ARITH, edges, 4)
        assert e_out.get(0, 2) == 1.0
        assert e_in.get(0, 2) == 1.0

    def test_hyper_edge_row_has_two_entries(self):
        edges = fileio.EdgeColumns.from_groups([[0]], [[1, 3]], [None])
        _, e_in = fileio.incidence_from_edges(ARITH, edges, 4)
        cols, _ = e_in.row(0)
        assert cols.tolist() == [1, 3]

    def test_vertex_out_of_bounds(self):
        edges = fileio.EdgeColumns.from_groups([[0]], [[9]], [None])
        with pytest.raises(IndexBoundsError):
            fileio.incidence_from_edges(ARITH, edges, 4)

    def test_projection_equals_direct_build(self, rng):
        # simple graphs: flattened triples and incidence projection agree
        for _ in range(10):
            n = rng.randint(2, 10)
            seen = set()
            records = []
            for _ in range(rng.randint(1, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if (u, v) in seen:
                    continue
                seen.add((u, v))
                records.append(([u], [v], round(rng.uniform(1, 5), 2)))
            if not records:
                continue
            records = fileio.EdgeColumns.from_groups(*zip(*records))
            e_out, e_in = fileio.incidence_from_edges(ARITH, records, n,
                                                      use_weights=True)
            direct = gm.build(ARITH, (n, n),
                              fileio.triples_from_edges(records, 1.0))
            assert gm.adjacency_from_incidence(ARITH, e_out, e_in) == direct


def loop_triples(records, default_weight):
    """triples_from_edges as a per-record loop over (outs, ins, weight)
    records: the reference for the columnar form."""
    rows, cols, vals = [], [], []
    for outs, ins, weight in records:
        w = weight if weight is not None else default_weight
        for u in outs:
            for v in ins:
                rows.append(u)
                cols.append(v)
                vals.append(w)
    return rows, cols, vals


def loop_incidence(sr, records, n_vertices, use_weights=False):
    """incidence_from_edges as a per-record loop: the reference for the
    columnar form, error messages included."""
    out_r, out_c, out_v = [], [], []
    in_r, in_c, in_v = [], [], []
    for k, (outs, ins, weight) in enumerate(records):
        for u in outs:
            if u >= n_vertices:
                raise IndexBoundsError(
                    f"edge {k}: out-vertex {u} outside [0, {n_vertices})")
            out_r.append(k)
            out_c.append(u)
            out_v.append(sr.one)
        w = weight if (use_weights and weight is not None) else sr.one
        for v in ins:
            if v >= n_vertices:
                raise IndexBoundsError(
                    f"edge {k}: in-vertex {v} outside [0, {n_vertices})")
            in_r.append(k)
            in_c.append(v)
            in_v.append(w)
    dims = (max(len(records), 1), n_vertices)
    return (gm.build(sr, dims, (out_r, out_c, out_v)),
            gm.build(sr, dims, (in_r, in_c, in_v)))


GROUP = st.lists(st.integers(0, 12), min_size=1, max_size=3)
RECORD = st.tuples(GROUP, GROUP, st.one_of(
    st.none(), st.integers(-5, 5),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)))


@st.composite
def edge_files(draw):
    """(text, one_based, records): a file of plain, comma-group and
    labeled lines, some without weights and some repeated, with blank
    and comment lines between them, and the records it holds."""
    records = draw(st.lists(RECORD, max_size=10))
    if records:
        records += draw(st.lists(st.sampled_from(records), max_size=3))
    one_based = draw(st.booleans())
    lines = []
    for k, (outs, ins, weight) in enumerate(records):
        o, i = (",".join(str(v + one_based) for v in g) for g in (outs, ins))
        if draw(st.booleans()):
            w = "" if weight is None else f" w={weight!r}"
            lines.append(f"e{k}: out={o} in={i}{w}")
        else:
            lines.append("\t".join([o, i] + ([] if weight is None
                                              else [repr(weight)])))
        lines += draw(st.lists(st.sampled_from(["", "# note", " "]),
                               max_size=1))
    return "\n".join(lines) + "\n", one_based, records


class TestColumnsMatchRecordLoops:
    @settings(max_examples=200, deadline=None)
    @given(case=edge_files(), default=st.sampled_from([1, 2.5]),
           use_weights=st.booleans(), short=st.integers(0, 3))
    def test_triples_and_incidence(self, tmp_path_factory, case, default,
                                   use_weights, short):
        text, one_based, records = case
        p = tmp_path_factory.mktemp("edges") / "e.tsv"
        p.write_text(text)
        edges = fileio.read_edge_list(p, one_based)
        n = 1 + max([v for r in records for v in r[0] + r[1]], default=0)
        assert (len(edges), edges.n_vertices) == (len(records), n)
        rows, cols, vals = fileio.triples_from_edges(edges, default)
        assert rows.dtype == cols.dtype == np.int64
        loop_rows, loop_cols, loop_vals = loop_triples(records, default)
        # repr tells an int weight from the default 2.5 or a float
        assert (rows.tolist(), cols.tolist(), list(map(repr, py(vals)))) == \
            (loop_rows, loop_cols, list(map(repr, loop_vals)))
        # with `short` > 0 some vertex may fall outside [0, n_vertices)
        n_vertices = max(n - short, 1)
        try:
            expected = loop_incidence(ARITH, records, n_vertices,
                                      use_weights)
        except IndexBoundsError as exc:
            with pytest.raises(IndexBoundsError) as err:
                fileio.incidence_from_edges(ARITH, edges, n_vertices,
                                            use_weights)
            assert str(err.value) == str(exc)
        else:
            assert fileio.incidence_from_edges(
                ARITH, edges, n_vertices, use_weights) == expected


class TestMatrixMarket:
    def test_single_entry_file_is_four_lines(self, tmp_path):
        a = gm.build(ARITH, (2, 2), ([1], [0], [2.5]))
        p = tmp_path / "m.mtx"
        fileio.write_matrix_market(p, a)
        lines = p.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "%%MatrixMarket matrix coordinate real general"
        assert lines[2] == "2 2 1"
        assert lines[3] == "2 1 2.5"

    @pytest.mark.parametrize("name", ["arith-real", "arith-natural",
                                      "xor-and", "union-intersect"])
    def test_roundtrip_random(self, name, tmp_path):
        sr = get_semiring(name)
        rng = random.Random(sum(map(ord, name)))
        for k in range(15):
            a = random_matrix(sr, rng, rng.randint(1, 10),
                              rng.randint(1, 10))
            p = tmp_path / f"m{k}.mtx"
            fileio.write_matrix_market(p, a)
            assert fileio.read_matrix_market(p, sr) == a

    def test_golden_file_byte_stable(self, tmp_path):
        golden = DATA_DIR / "seven_vertex_adjacency.mtx"
        a = fileio.read_matrix_market(golden, ARITH)
        p = tmp_path / "rewrite.mtx"
        fileio.write_matrix_market(p, a)
        assert p.read_bytes() == golden.read_bytes()

    def test_count_mismatch(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 3\n1 1 1.0\n2 2 1.0\n")
        with pytest.raises(FormatError) as err:
            fileio.read_matrix_market(p, ARITH)
        assert "declares 3" in str(err.value)

    def test_array_layout_rejected(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(FormatError):
            fileio.read_matrix_market(p, ARITH)

    def test_complex_field_rejected(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("%%MatrixMarket matrix coordinate complex general\n"
                     "1 1 1\n1 1 1.0 0.0\n")
        with pytest.raises(FormatError):
            fileio.read_matrix_market(p, ARITH)

    def test_symmetric_rejected(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                     "2 2 1\n2 1 1.0\n")
        with pytest.raises(FormatError):
            fileio.read_matrix_market(p, ARITH)

    def test_entry_outside_declared_bounds(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n3 1 1.0\n")
        with pytest.raises(FormatError):
            fileio.read_matrix_market(p, ARITH)

    def test_pattern_roundtrip_for_bool(self, tmp_path):
        sr = get_semiring("xor-and")
        a = gm.build(sr, (3, 3), ([0, 2], [1, 0], [1, 1]))
        p = tmp_path / "m.mtx"
        fileio.write_matrix_market(p, a)
        assert "pattern" in p.read_text().splitlines()[0]
        assert fileio.read_matrix_market(p, sr) == a


class TestWriteEdgeList:
    def test_tsv_roundtrip(self, tmp_path, rng):
        a = random_matrix(ARITH, rng, 6, 6)
        p = tmp_path / "out.tsv"
        fileio.write_edge_list(p, a)
        edges = fileio.read_edge_list(p, value_parser=float)
        b = gm.build(ARITH, (6, 6), fileio.triples_from_edges(edges, 1.0))
        assert b == a


def line_parsed(path, one_based=False, value_parser=None):
    """read_edge_list with the column path declined: the line parser."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_plain_columns", give_up)
        return fileio.read_edge_list(path, one_based, value_parser)


def reference_triples(path, one_based=False, value_parser=None, default=1):
    """read_triples by way of the line parser, as the CLI did before."""
    edges = line_parsed(path, one_based, value_parser)
    return (*fileio.triples_from_edges(edges, default), edges.n_vertices)


def outcome(fn, *args):
    """What a reader returns, as lists of ints and of value reprs (so a
    NaN equals itself), or the type and message of what it raises."""
    try:
        rows, cols, vals, *n = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return ([int(r) for r in rows], [int(c) for c in cols],
            [repr(v) for v in py(vals)], n)


NATURAL = gm.semiring_by_name("arith-natural")
VERTEX = st.integers(0, 40).map(str)
# int() and float() accept these forms too, and strip the spaces
ODD_VERTEX = st.sampled_from([" 7", "8 ", "+3", "0_1", "٤", "09"])
REAL_VALUE = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
NATURAL_VALUE = st.integers(0, 2**64 - 1).map(str)
BAD_LINE = st.sampled_from([
    "", "   ", "# comment", "e5: out=1 in=2,3 w=2", "1,2\t3\t4", "1\t2,5",
    "-1\t2\t1", "0\t1\tx", "0\t1\t2\t3", "0", "a\tb", "0\t1\t",
    "0\t99999999999999999999\t1", "0 1 1", "\t1\t1", "0\t1\tnan"])


@st.composite
def tsv_lines(draw, value, bad=False):
    width = draw(st.sampled_from([2, 3]))
    vertex = st.one_of(VERTEX, ODD_VERTEX)
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        fields = [draw(vertex), draw(vertex)]
        if width == 3:
            fields.append(draw(value))
        lines.append("\t".join(fields))
    if bad:
        k = draw(st.integers(0, len(lines)))
        lines.insert(k, draw(BAD_LINE))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


# lines the column path must read as the line parser does, or decline:
# labeled lines out of the one form it rewrites, odd groups and weights,
# and lines the line parser rejects
ODD_EDGE_LINE = st.sampled_from([
    "e1: in=2 out=3", "out=1 in=2 w=", "e1:out=1 in=2", "e1: out=1, in=2",
    "e1: out=1 in=2 w=3 w=4", "e1: out=1 out=2 in=3", "out=1: in=2",
    "a=b: out=1 in=2", "x: out=1 in=2 extra", "  e2: out=3 in=4 w=5  ",
    "e3: out=1,,2 in=3", "e1: out=٤ in=1", "e1: out=+1 in=2 w=2.5",
    "e1: out=1 in=2 w=1,5", "e1: out=1 in=2 w=7.0", "e1: out=0 in=1",
    "e1: out=99999999999999999999 in=1", "e1:\tout=1\tin=2\tw=3",
    "1\t2\tout=3", "1,\t2", "1\t,2", "1\t2\t3,4", "1\t2\t3\t4", "1,2",
    "0\t1", "1\t2\t5.0", "1.0\t2", "01\t002\t0003", "1\t2 ", " 1\t2",
    "\x0c# note", "\x0c", "1\t2\t1234567890123456789", "#x: out=1 in=2",
    "  #e1: out=3 in=4 w=5", "#out=1 in=2", ": out=1 in=2 w=3",
    "out=#1 in=2", "e1: out=#1,2 in=3", "e1: out=1 in=#2 w=3"])


@st.composite
def edge_list_text(draw):
    """An edge list of plain, comma-group and labeled lines of digit
    vertices, all with weights or none, blank and `#` lines between
    them, and at times one ODD_EDGE_LINE."""
    group = st.lists(st.integers(0, 30).map(str), min_size=1,
                     max_size=3).map(",".join)
    weight = st.one_of(st.integers(1, 999).map(str), digit_field(1, 18))
    if not draw(st.booleans()):
        weight = st.none()
    lines = []
    for k in range(draw(st.integers(0, 10))):
        o, i, w = draw(group), draw(group), draw(weight)
        form = draw(st.sampled_from(["plain", "plain", "labeled", "other"]))
        if form == "plain":
            lines.append("\t".join([o, i] + ([w] if w else [])))
        elif form == "labeled":
            label = draw(st.sampled_from([f"e{k}: ", "", " x7:\t"]))
            key = draw(st.sampled_from([" w=", " weight="]))
            lines.append(f"{label}out={o} in={i}" + (key + w if w else ""))
        else:
            lines.append(draw(st.sampled_from(
                ["", "  ", "# note, with commas", "\t# w=1.0"])))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(ODD_EDGE_LINE))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def edge_outcome(read, *args):
    """The columns an edge-list reader returns, weights as reprs, or the
    type and message of what it raises."""
    try:
        edges = read(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return columns(edges)[:4], [repr(w) for w in py(edges.weights)]


class TestEdgeListColumns:
    """Edge lists of plain, comma-group and labeled lines are read a
    column at a time as the line parser reads them, errors included."""

    @pytest.mark.parametrize("parse", [None, float, int])
    def test_matches_line_parser(self, parse, tmp_path):
        p = tmp_path / "e.tsv"
        texts, line_reads, real = [], [], fileio._parse_lines

        def spy(*args):
            line_reads.append(args[0])
            return real(*args)

        @settings(max_examples=250, deadline=None)
        @given(text=edge_list_text(), one_based=st.booleans())
        def check(text, one_based):
            texts.append(text)
            p.write_text(text, encoding="utf-8")
            args = (p, one_based, parse)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fileio, "_parse_lines", spy)
                fast = edge_outcome(fileio.read_edge_list, *args)
                triples = outcome(fileio.read_triples, *args)
            assert fast == edge_outcome(line_parsed, *args)
            assert triples == outcome(reference_triples, *args)

        check()
        assert len(line_reads) < 2 * len(texts)  # not every read fell back

    def test_labeled_comment_stays_a_comment(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("#x: out=1 in=2\n  #e1: out=3 in=4 w=5\n5\t6\n")
        assert edge_outcome(fileio.read_edge_list, p, False, float) == \
            edge_outcome(line_parsed, p, False, float) == \
            (([0], [5], [0], [6]), ["None"])

    def test_hyper_edge_file_takes_no_line_parser(self, tmp_path,
                                                  monkeypatch):
        p = tmp_path / "e.tsv"
        p.write_text("# out\tin\tweight\n1,2\t3\t7\n\ne4: out=5 in=6,0 w=2\n"
                     "  # w=1.0\nout=2 in=1 weight=9\n")
        expected = edge_outcome(line_parsed, p, False, float)
        monkeypatch.setattr(fileio, "_parse_lines", None)
        assert edge_outcome(fileio.read_edge_list, p, False, float) == \
            expected == (([0, 0, 1, 2], [1, 2, 5, 2], [0, 1, 1, 2],
                          [3, 6, 0, 1]), ["7.0", "2.0", "9.0"])


class TestReadTriples:
    @pytest.mark.parametrize("bad", [False, True])
    @pytest.mark.parametrize("sr,value", [(ARITH, REAL_VALUE),
                                          (NATURAL, NATURAL_VALUE)])
    def test_matches_line_parser(self, sr, value, bad, tmp_path):
        p = tmp_path / "e.tsv"

        @settings(max_examples=150, deadline=None)
        @given(text=tsv_lines(value, bad), one_based=st.booleans())
        def check(text, one_based):
            p.write_text(text)
            args = (p, one_based, sr.domain.parse_text, sr.one)
            assert outcome(fileio.read_triples, *args) == \
                outcome(reference_triples, *args)

        check()

    def test_plain_file_takes_no_line_parser(self, tmp_path, monkeypatch):
        p = tmp_path / "e.tsv"
        p.write_text("0\t1\t2.5\n3\t0\t1e3\n")
        monkeypatch.setattr(fileio, "_parse_lines", None)
        rows, cols, vals, n = fileio.read_triples(p, value_parser=float)
        assert rows.dtype == cols.dtype == np.int64
        assert (rows.tolist(), cols.tolist(), py(vals), n) == \
            ([0, 3], [1, 0], [2.5, 1000.0], 4)

    def test_digit_weights_reach_build_as_an_array(self, tmp_path,
                                                   monkeypatch):
        p = tmp_path / "e.tsv"
        p.write_text("0\t1\t5\n3\t0\t7\n")
        vals = fileio.read_triples(p)[2]
        assert vals.dtype == np.int64 and vals.tolist() == [5, 7]
        mm = tmp_path / "m.mtx"
        mm.write_text("%%MatrixMarket matrix coordinate integer general\n"
                      "2 2 2\n1 2 5\n2 1 7\n")
        given, real = [], fileio.build

        def spy(sr, dims, triples, *args, **kwargs):
            given.append(type(triples[2]))
            return real(sr, dims, triples, *args, **kwargs)

        monkeypatch.setattr(fileio, "build", spy)
        a = fileio.read_matrix_market(mm, NATURAL)
        assert given == [np.ndarray]
        assert a.values.dtype == np.uint64 and a.values.tolist() == [5, 7]

    def test_comments_and_blank_lines_take_no_line_parser(
            self, tmp_path, monkeypatch):
        p = tmp_path / "e.tsv"
        p.write_text("# Directed graph\n# FromNodeId\tToNodeId\n\n"
                     "0\t1\t2.5\n  \n3\t0\t1e3\n\t# note\n2\t2\t4\n\n# end")
        expected = outcome(reference_triples, p, False, float)
        monkeypatch.setattr(fileio, "_parse_lines", None)
        rows, cols, vals, n = fileio.read_triples(p, value_parser=float)
        assert rows.dtype == cols.dtype == np.int64
        assert outcome(fileio.read_triples, p, False, float) == expected
        assert expected == ([0, 3, 2], [1, 0, 2],
                            ["2.5", "1000.0", "4.0"], [4])

    def test_labeled_line_the_value_parser_would_accept(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("0\t1\tout=2\n")
        for read in (fileio.read_edge_list, fileio.read_triples):
            with pytest.raises(FormatError) as err:
                read(p, value_parser=str)
            assert str(err.value) == f"{p}:1: bad token '0' in labeled edge"

    def test_default_value_and_empty_file(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("2\t0\n")
        rows, cols, vals, n = fileio.read_triples(p, default=7)
        assert (list(rows), list(cols), py(vals), n) == ([2], [0], [7], 3)
        p.write_text("")
        rows, cols, vals, n = fileio.read_triples(p)
        assert (list(rows), list(cols), py(vals), n) == ([], [], [], 1)


LONG = "".join(f"{k}\t{k + 1}\t1.5\n" for k in range(2000))
HYPER = "# hyper-edges\n" + "".join(
    f"{k},{k + 1}\t{k + 2}\t3\n" if k % 2 else
    f"e{k}: out={k} in={k + 1},{k + 2} w=4\n" for k in range(2000))
HEAD = "%%MatrixMarket matrix coordinate real general\n"
BODY = "".join(f"{k % 9 + 1} {k % 7 + 1} 2.5\n" for k in range(2000))


class TestMalformedMessages:
    """Each error names the path and line it did before, from both TSV
    readers and from either Matrix Market path, also after many good
    lines."""

    @pytest.mark.parametrize("text,line,message", [
        ("0\t1\nnot-a-line\n", 2,
         "expected 2 or 3 tab-separated fields, got 1"),
        ("-1\t2\n", 1, "negative vertex index -1"),
        ("0\t1\theavy\n", 1, "non-numeric weight 'heavy'"),
        ("0\t1\n0\tx\n", 2, "bad vertex index 'x'"),
        (LONG + "5\t6\t7\t8\n", 2001,
         "expected 2 or 3 tab-separated fields, got 4"),
        (LONG + "5\t6\tabc\n", 2001, "non-numeric weight 'abc'"),
        (LONG + "e1: out=2 in=\n", 2001, "bad vertex index ''"),
    ] + [pytest.param(HYPER + bad, 2002, message, id=f"hyper-{k}")
          for k, (bad, message) in enumerate([
              ("e1: out=1 in=2 w=x\n", "non-numeric weight 'x'"),
              ("1,x\t2\n", "bad vertex index 'x'"),
              ("3\t4,-5\t1\n", "negative vertex index -5"),
              ("e1: out=1\n", "labeled edge needs both out= and in="),
              ("e1: out=1 in=2 z=3\n", "unknown key 'z' in labeled edge"),
              ("e1: out=1 in=2 3\n", "bad token '3' in labeled edge"),
              ("out=#1 in=2\n", "bad vertex index '#1'"),
              ("e1: out=#1,2 in=3\n", "bad vertex index '#1'"),
              ("1,2\t3\t4\t5\n",
               "expected 2 or 3 tab-separated fields, got 4")])])
    def test_tsv(self, tmp_path, text, line, message):
        p = tmp_path / "e.tsv"
        p.write_text(text)
        expected = f"{p}:{line}: {message}"
        for read in (lambda: fileio.read_edge_list(p, value_parser=float),
                     lambda: fileio.read_triples(p, value_parser=float)):
            with pytest.raises(FormatError) as err:
                read()
            assert str(err.value) == expected

    @pytest.mark.parametrize("text,line,message", [
        ("1\t2\n0\t1\n", 2, "vertex index 0 in a 1-based file"),
        ("1\t-1\n", 1, "negative vertex index -1"),
        ("1\t2\n3,0\t1\n", 2, "vertex index 0 in a 1-based file"),
        ("".join(f"{k}\t{k + 1}\n" for k in range(1, 2001))
         + "e1: out=2 in=3,0\n", 2001, "vertex index 0 in a 1-based file"),
        ("e1: out=1 in=2,3 w=4\n3\t4,-5\t1\n", 2,
         "negative vertex index -5"),
    ], ids=["zero", "negative", "group", "labeled", "hyper"])
    def test_tsv_one_based_names_the_index_as_written(self, tmp_path, text,
                                                      line, message):
        p = tmp_path / "e.tsv"
        p.write_text(text)
        for read in (fileio.read_edge_list, fileio.read_triples):
            with pytest.raises(FormatError) as err:
                read(p, one_based=True)
            assert str(err.value) == f"{p}:{line}: {message}"

    @pytest.mark.parametrize("text,line,message", [
        (HEAD + "2 2 3\n1 1 1.0\n2 2 1.0\n", None,
         "file declares 3 entries but contains 2"),
        ("%%MatrixMarket matrix array real general\n2 2\n", 1,
         "unsupported layout 'array' (only coordinate)"),
        ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n", 1,
         "unsupported field 'complex'"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n", 1,
         "unsupported symmetry 'symmetric' (only general)"),
        ("%%MatrixMarket vector coordinate real general\n", 1,
         "not a Matrix Market matrix header"),
        (HEAD + "% only a comment\n", 2, "missing size line"),
        (HEAD + "2 2 x\n", 2, "bad size line '2 2 x'"),
        (HEAD + "2 2 2\n1 1\n2 2\n", 3, "expected 3 fields, got 2"),
        ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n"
         "1 1 1\n", 3, "expected 2 fields, got 3"),
        (HEAD + "2 2 1\n3 1 1.0\n", 3,
         "entry (3, 1) outside declared 2 x 2 bounds"),
        (HEAD + "9 9 2001\n" + BODY + "1 x 1.0\n", 2003,
         "bad index in '1 x 1.0'"),
        (HEAD + "9 9 2001\n" + BODY + "1 2 y\n", 2003, "bad value 'y'"),
        (HEAD + "9 9 2001\n" + BODY + "1 2\n", 2003,
         "expected 3 fields, got 2"),
        (HEAD + "9 9 2001\n" + BODY + "10 1 1.0\n", 2003,
         "entry (10, 1) outside declared 9 x 9 bounds"),
        (HEAD + "9 9 2001\n" + BODY, None,
         "file declares 2001 entries but contains 2000"),
    ])
    def test_matrix_market(self, tmp_path, text, line, message):
        p = tmp_path / "m.mtx"
        p.write_text(text)
        with pytest.raises(FormatError) as err:
            fileio.read_matrix_market(p, ARITH)
        where = f"{p}:{line}" if line else f"{p}"
        assert str(err.value) == f"{where}: {message}"


MM_SEP = st.sampled_from([" ", " ", " ", "  ", "\t", " \x0c", "\xa0"])


@st.composite
def mm_text(draw):
    """A Matrix Market real file of plain entry lines, or one whose lines
    vary in spacing and may hold comments, blanks and malformed lines."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    odd = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        if odd and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(
                ["", "  ", "% note", "1 1", "1 1 1 1", "0 1 2", "1 1 z",
                 "%1 1 1", " 1 1 1", "1 1 1 ", "1_0 1 1", "+1 1 -2.5e1"])))
        else:
            fields = [str(draw(st.integers(1, m))),
                      str(draw(st.integers(1, n))),
                      repr(draw(st.floats(-9, 9, allow_nan=False)))]
            seps = [draw(MM_SEP) if odd else " " for _ in range(2)]
            lines.append(fields[0] + seps[0] + fields[1] + seps[1] + fields[2])
    count = sum(1 for ln in lines if ln.strip() and not ln.startswith("%"))
    count += draw(st.sampled_from([0, 0, 0, 1]))
    return (HEAD + f"{m} {n} {count}\n"
            + "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"])))


def give_up(*args):
    raise ValueError("bulk parse disabled")


def read_outcome(path, sr):
    try:
        return fileio.read_matrix_market(path, sr)
    except Exception as exc:
        return type(exc), str(exc)


class TestMatrixMarketBulk:
    def test_matches_line_parser(self, tmp_path):
        p = tmp_path / "m.mtx"

        @settings(max_examples=300, deadline=None)
        @given(text=mm_text())
        def check(text):
            p.write_text(text)
            bulk = read_outcome(p, ARITH)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fileio, "_plain_columns", give_up)
                assert read_outcome(p, ARITH) == bulk

        check()

    @pytest.mark.parametrize("name", ["arith-real", "arith-natural",
                                      "xor-and", "union-intersect"])
    def test_roundtrip_through_bulk_paths(self, name, tmp_path, monkeypatch):
        sr = get_semiring(name)
        rng = random.Random(sum(map(ord, name)) + 5)
        bulk = fileio._plain_columns

        def must_fit(*args):
            try:
                return bulk(*args)
            except (ValueError, OverflowError) as exc:
                raise AssertionError(f"bulk parse gave up: {exc}")

        monkeypatch.setattr(fileio, "_plain_columns", must_fit)
        monkeypatch.setattr(fileio, "_WRITE_CHUNK", 3)
        for k in range(10):
            m, n = rng.randint(1, 10), rng.randint(1, 10)
            a = random_matrix(sr, rng, m, n)
            if a.nnz == 0:
                continue
            mm = tmp_path / f"m{k}.mtx"
            fileio.write_matrix_market(mm, a)
            assert fileio.read_matrix_market(mm, sr) == a
            tsv = tmp_path / f"e{k}.tsv"
            fileio.write_edge_list(tsv, a, one_based=True)
            rows, cols, vals, top = fileio.read_triples(
                tsv, True, sr.domain.parse_text, sr.one)
            assert top <= max(m, n)
            assert gm.build(sr, (m, n), (rows, cols, vals)) == a


def digit_field(lo, hi):
    """ASCII digit strings of lo to hi digits, leading zeros included."""
    return st.integers(lo, hi).flatmap(
        lambda k: st.text("0123456789", min_size=k, max_size=k))


# fields int(), float() or a parse_text accept (padded, signed, "0_1",
# "٤") or refuse; a body holding any of them skips the digit table
ODD_FIELD = st.sampled_from(["", "+3", " 7", "8 ", "7\r", "0_1", "٤", "-2",
                             "1.5", "1e3", "x"])
DOMAIN_SEMIRINGS = {
    "real": ARITH,
    "int64": gm.make_semiring("arith-integer", INTEGER, OP_PLUS, OP_TIMES,
                              0, 1),
    "natural": NATURAL,
    "bool": get_semiring("xor-and"),
    "set": get_semiring("union-intersect"),
}


@st.composite
def digit_body(draw, sep, width, low, high):
    """Lines of `width` fields joined by `sep`: indices of one to three
    digits from low to high, weights of 16 to 18 digits or short, and
    digit strings of up to 20 digits. Unless plain, odd forms, spacing,
    empty fields and trailing separators on some or all lines too."""
    plain = draw(st.booleans())
    index = st.tuples(st.integers(low, high), st.integers(1, 3)).map(
        lambda t: str(t[0]).zfill(t[1]))
    weight = st.one_of(index, digit_field(16, 18))
    weird = [digit_field(1, 20)] + ([] if plain else [ODD_FIELD])
    trail = "" if plain else draw(st.sampled_from(["", "", sep, "some"]))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        fields = [draw(st.one_of(index, index, index, *weird))
                  for _ in range(2)]
        fields += [draw(st.one_of(weight, weight, *weird))
                   for _ in range(width - 2)]
        seps = [sep if plain else draw(st.sampled_from([sep, sep, "  ",
                                                        "\t", " "]))
                for _ in fields[1:]]
        line = fields[0] + "".join(s + f for s, f in zip(seps, fields[1:]))
        if trail == sep or trail == "some" and draw(st.booleans()):
            line += sep
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def declined(*args):
    return None


class TestDigitTable:
    """Bodies of ASCII digit fields are parsed in one call; every reader
    gives the same result, or the same error, with that path declined."""

    @staticmethod
    def spy(monkeypatch):
        """The tables _digit_table returns from now on, None included."""
        tables, real = [], fileio._digit_table

        def record(*args):
            tables.append(real(*args))
            return tables[-1]

        monkeypatch.setattr(fileio, "_digit_table", record)
        return tables

    @pytest.mark.parametrize("domain", list(DOMAIN_SEMIRINGS))
    def test_tsv_same_when_declined(self, domain, tmp_path, monkeypatch):
        sr = DOMAIN_SEMIRINGS[domain]
        p = tmp_path / "e.tsv"
        tables = self.spy(monkeypatch)

        @settings(max_examples=120, deadline=None)
        @given(text=st.sampled_from([2, 3]).flatmap(
            lambda w: digit_body("\t", w, 0, 9)), one_based=st.booleans())
        def check(text, one_based):
            p.write_text(text, encoding="utf-8")
            args = (p, one_based, sr.domain.parse_text, sr.one)
            fast = outcome(fileio.read_triples, *args)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fileio, "_digit_table", declined)
                assert outcome(fileio.read_triples, *args) == fast

        check()
        assert any(t is not None for t in tables)

    @pytest.mark.parametrize("domain", list(DOMAIN_SEMIRINGS))
    def test_matrix_market_same_when_declined(self, domain, tmp_path,
                                              monkeypatch):
        sr = DOMAIN_SEMIRINGS[domain]
        p = tmp_path / "m.mtx"
        tables = self.spy(monkeypatch)

        @st.composite
        def mm_file(draw):
            field = draw(st.sampled_from(["real", "integer", "pattern"]))
            m, n = draw(st.sampled_from([3, 9])), draw(st.sampled_from([3, 9]))
            body = draw(digit_body(" ", 2 if field == "pattern" else 3, 1, 9))
            count = sum(1 for ln in body.split("\n") if ln.strip())
            count += draw(st.sampled_from([0, 0, 0, 1]))
            return (f"%%MatrixMarket matrix coordinate {field} general\n"
                    f"{m} {n} {count}\n{body}")

        @settings(max_examples=120, deadline=None)
        @given(text=mm_file())
        def check(text):
            p.write_text(text, encoding="utf-8")
            fast = read_outcome(p, sr)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fileio, "_digit_table", declined)
                assert read_outcome(p, sr) == fast

        check()
        assert any(t is not None for t in tables)

    def test_plain_files_take_it(self, tmp_path, monkeypatch):
        tables = self.spy(monkeypatch)
        monkeypatch.setattr(fileio, "_parse_lines", None)
        big = 123456789012345678  # float() rounds it as the cast does
        p = tmp_path / "e.tsv"
        p.write_text(f"# a comment\n0\t1\t5\n3\t0\t{big}\n")
        rows, cols, vals, n = fileio.read_triples(p, value_parser=float)
        assert (rows.tolist(), cols.tolist(), py(vals), n) == \
            ([0, 3], [1, 0], [5.0, float(str(big))], 4)
        p.write_text("1\t2\n3\t1\n")
        rows, cols, vals, n = fileio.read_triples(p, True, default=7)
        assert (rows.tolist(), cols.tolist(), py(vals), n) == \
            ([0, 2], [1, 0], [7, 7], 3)
        mm = tmp_path / "m.mtx"
        for field, entries in (("integer", "2 1 7\n1 2 9"),
                               ("pattern", "2 1\n1 2")):
            mm.write_text(f"%%MatrixMarket matrix coordinate {field} "
                          f"general\n2 2 2\n{entries}\n")
            a = fileio.read_matrix_market(mm, NATURAL)
            assert (a.get(1, 0), a.get(0, 1)) == \
                ((7, 9) if field == "integer" else (1, 1))
        assert len(tables) == 4 and all(t is not None for t in tables)

    @pytest.mark.parametrize("text", ["0\t1\t2.5\n", "0\t1\t\n0\t1\t\n",
                                      "0\t1 \n", "0\t-1\n",
                                      "0\t1234567890123456789\n"])
    def test_other_bodies_decline(self, text, tmp_path, monkeypatch):
        tables = self.spy(monkeypatch)
        p = tmp_path / "e.tsv"
        p.write_text(text)
        outcome(fileio.read_triples, p, False, float)
        assert tables == [None]


class TestPointZeroWeights:
    """Weights of digits then `.0`, as graphmat writes real values, take
    the digit table under a float parser and read as float(token) does;
    other parsers read them as before."""

    @settings(max_examples=150, deadline=None)
    @given(weights=st.lists(st.one_of(digit_field(1, 18),
                                      st.integers(2**53 - 2, 10**18 - 1)
                                      .map(str)), min_size=1, max_size=8))
    def test_equal_float_of_token(self, tmp_path_factory, weights):
        d = tmp_path_factory.mktemp("dot")
        tsv, mm = d / "e.tsv", d / "m.mtx"
        tsv.write_text("".join(f"{k}\t{k + 1}\t{w}.0\n"
                               for k, w in enumerate(weights)))
        n = len(weights) + 1
        mm.write_text(f"%%MatrixMarket matrix coordinate real general\n"
                      f"{n} {n} {len(weights)}\n" + "".join(
                          f"{k + 1} {k + 2} {w}.0\n"
                          for k, w in enumerate(weights)))
        with pytest.MonkeyPatch.context() as mp:
            tables = TestDigitTable.spy(mp)
            rows, cols, vals, top = fileio.read_triples(tsv,
                                                        value_parser=float)
            a = fileio.read_matrix_market(mm, ARITH)
            assert len(tables) == 2 and all(t is not None for t in tables)
        expected = [float(w + ".0") for w in weights]
        assert list(map(repr, py(vals))) == list(map(repr, expected))
        assert [a.get(k, k + 1, 0.0) for k in range(len(weights))] == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio, "_digit_table", declined)
            assert outcome(fileio.read_triples, tsv, False, float) == \
                outcome(lambda *args: (rows, cols, vals, top))
            assert fileio.read_matrix_market(mm, ARITH) == a

    @pytest.mark.parametrize("parse", [None, int, NATURAL.domain.parse_text])
    def test_other_parsers_read_as_before(self, parse, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("0\t1\t5.0\n2\t3\t7.0\n")
        got = outcome(fileio.read_triples, p, False, parse)
        assert got == outcome(reference_triples, p, False, parse)
        assert got == ((FormatError, f"{p}:1: non-numeric weight '5.0'")
                       if parse else ([0, 2], [1, 3], ["5.0", "7.0"], [4]))
        mm = tmp_path / "m.mtx"
        mm.write_text("%%MatrixMarket matrix coordinate integer general\n"
                      "4 4 2\n1 2 5.0\n3 4 7.0\n")
        with pytest.raises(FormatError) as err:
            fileio.read_matrix_market(mm, NATURAL)
        assert str(err.value) == f"{mm}:3: bad value '5.0'"

    @pytest.mark.parametrize("text", ["0\t1\t5.0\n2\t3\t7\n",
                                      "0\t1.0\n", "0\t1\t.0\n",
                                      "0\t1\t5.00\n", "0\t1\t5.0 \n",
                                      "0.0\t1\t5.0\n"])
    def test_other_dots_decline(self, text, tmp_path, monkeypatch):
        p = tmp_path / "e.tsv"
        p.write_text(text)
        expected = outcome(reference_triples, p, False, float)
        tables = TestDigitTable.spy(monkeypatch)
        assert outcome(fileio.read_triples, p, False, float) == expected
        assert tables == [None]


@st.composite
def horner_body(draw, sep, low):
    """A body the digit table reads by Horner's rule, or one it must
    decline: vertex tokens of 1 to 20 digits, leading zeros included,
    small ones low to 40 mostly; with `sep` a tab, comma groups, `#` and
    blank lines too. Weights, on all lines or none, of 1 to 20 digits,
    ending in `.0` on all lines or some."""
    small = st.integers(low, 40).map(str)
    token = st.one_of(small, small, digit_field(1, 20))
    vertex = (st.lists(token, min_size=1, max_size=3).map(",".join)
              if sep == "\t" else token)
    weighted, dots = draw(st.booleans()), draw(st.sampled_from(
        ["all", "all", "none", "some"]))
    lines = []
    for _ in range(draw(st.integers(1, 10))):
        if sep == "\t" and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "# a, note", "  #x"])))
            continue
        fields = [draw(vertex), draw(vertex)]
        if weighted:
            w = draw(st.one_of(small, digit_field(1, 20)))
            dot = dots == "all" or dots == "some" and draw(st.booleans())
            fields.append(w + ".0" * dot)
        lines.append(sep.join(fields))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestHornerDigits:
    """The digit table parses each token by Horner's rule, int32 up to 9
    digits and int64 up to 18; a body with an empty token or one of 19
    or more digits is left to the other paths. Either way a reader gives
    exactly what the line parser gives."""

    @pytest.mark.parametrize("parse", [None, float])
    def test_edge_list_matches_line_parser(self, parse, tmp_path):
        p = tmp_path / "e.tsv"
        with pytest.MonkeyPatch.context() as mp:
            tables = TestDigitTable.spy(mp)

            @settings(max_examples=250, deadline=None)
            @given(text=horner_body("\t", 0), one_based=st.booleans())
            def check(text, one_based):
                p.write_text(text)
                args = (p, one_based, parse)
                assert edge_outcome(fileio.read_edge_list, *args) == \
                    edge_outcome(line_parsed, *args)

            check()
        taken = [t for t in tables if t is not None]
        assert {t.dtype for t in taken} == {np.dtype(np.int32),
                                            np.dtype(np.int64)}

    @pytest.mark.parametrize("sr", [ARITH, NATURAL], ids=["real", "natural"])
    def test_matrix_market_matches_line_parser(self, sr, tmp_path):
        p = tmp_path / "m.mtx"
        with pytest.MonkeyPatch.context() as mp:
            tables = TestDigitTable.spy(mp)

            @settings(max_examples=250, deadline=None)
            @given(body=horner_body(" ", 1))
            def check(body):
                count = body.count("\n") + (not body.endswith("\n"))
                p.write_text(f"{HEAD}40 40 {count}\n{body}")
                fast = read_outcome(p, sr)
                with pytest.MonkeyPatch.context() as inner:
                    inner.setattr(fileio, "_plain_columns", give_up)
                    assert read_outcome(p, sr) == fast

            check()
        assert any(t is not None for t in tables)

    @pytest.mark.parametrize("text, table", [
        ("1\t\t2\n", None),  # an empty token
        ("0\t1\t" + "9" * 18 + "\n", [0, 1, 10**18 - 1]),
        ("0\t1\t" + "9" * 9 + "\n", [0, 1, 10**9 - 1]),
        ("0\t1\t" + str(10**18) + "\n", None),
        ("0\t1\t" + "0" * 17 + "42\n", None),  # 19 digits, 2 of them not 0
        ("007\t0\t0010.0\n", [7, 0, 10]),
    ])
    def test_edge_tokens(self, text, table, tmp_path, monkeypatch):
        p = tmp_path / "e.tsv"
        p.write_text(text)
        tables = TestDigitTable.spy(monkeypatch)
        assert edge_outcome(fileio.read_edge_list, p, False, float) == \
            edge_outcome(line_parsed, p, False, float)
        assert py(tables[0]) == table
        if table is not None:
            wide = max(table) >= 10**9
            assert tables[0].dtype == (np.int64 if wide else np.int32)


def edge_values(*specials, lo, hi):
    """Integral floats from lo to hi, any float between, and specials."""
    return st.one_of(st.sampled_from(specials),
                     st.integers(int(lo), int(hi)).map(float),
                     st.floats(lo, hi, allow_nan=False))


# each built-in domain, under a semiring whose zero none of its edge
# values equals, with those values: -0.0, 10**16 - 2 and 10**16,
# 2**53 + 1, int64's ends, 2**64 - 1
WRITER_CASES = {
    "real": (gm.semiring_by_name("max-plus"), edge_values(
        -0.0, 0.0, 1e16 - 2, 1e16, -(1e16 - 2), 2.0**53 + 1, -3.0, 2.5,
        1e300, math.inf, lo=-1e17, hi=1e17)),
    "real-nonneg": (gm.semiring_by_name("min-max"), edge_values(
        -0.0, 1e16 - 2, 1e16, 2.0**53 + 1, 0.5, lo=0, hi=1e17)),
    "real-nonpos": (gm.semiring_by_name("max-min", variant="nonpos"),
                    edge_values(-0.0, -(1e16 - 2), -1e16, -2.0**53 - 1,
                                -0.5, lo=-1e17, hi=0)),
    "natural": (NATURAL, st.integers(1, 2**64 - 1) | st.sampled_from(
        [1, 9, 10, 2**63, 2**64 - 1])),
    "int64": (DOMAIN_SEMIRINGS["int64"], st.integers(-2**63, 2**63 - 1)
              .filter(bool) | st.sampled_from([-2**63, 2**63 - 1, -1])),
    "bool": (get_semiring("xor-and"), st.just(1)),
    "set64": (gm.semiring_by_name("union-intersect", universe_size=64),
              st.integers(1, 2**64 - 1) | st.just(2**64 - 1)),
}


class TestWriters:
    @pytest.mark.parametrize("name", ["arith-real", "arith-natural",
                                      "xor-and", "union-intersect"])
    @pytest.mark.parametrize("chunk", [1, 4, 1 << 16])
    def test_bytes_match_entry_by_entry_format(self, name, chunk, tmp_path,
                                               monkeypatch):
        sr = get_semiring(name)
        a = random_matrix(sr, random.Random(chunk), 9, 7, density=0.5)
        monkeypatch.setattr(fileio, "_WRITE_CHUNK", chunk)
        tri = list(gm.extract_tuples(a))
        render = a.domain.render
        fileio.write_edge_list(tmp_path / "e.tsv", a, one_based=True)
        assert (tmp_path / "e.tsv").read_text() == "".join(
            f"{r + 1}\t{c + 1}\t{render(v)}\n" for r, c, v in tri)
        fileio.write_matrix_market(tmp_path / "m.mtx", a)
        body = (tmp_path / "m.mtx").read_text().split("\n", 3)[3]
        if name == "xor-and":
            assert body == "".join(f"{r + 1} {c + 1}\n" for r, c, _ in tri)
        else:
            assert body == "".join(
                f"{r + 1} {c + 1} {render(v)}\n" for r, c, v in tri)


    @pytest.mark.parametrize("chunk", [3, 1 << 16])
    @pytest.mark.parametrize("domain", list(WRITER_CASES))
    def test_edge_values_match_render_path(self, domain, chunk, tmp_path,
                                           monkeypatch):
        sr, values = WRITER_CASES[domain]
        monkeypatch.setattr(fileio, "_WRITE_CHUNK", chunk)
        tsv, mm = tmp_path / "e.tsv", tmp_path / "m.mtx"

        @settings(max_examples=60, deadline=None)
        @given(cells=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9)),
                              unique=True, max_size=12), data=st.data())
        def check(cells, data):
            vals = [data.draw(values) for _ in cells]
            a = gm.build(sr, (7, 10), ([r for r, _ in cells],
                                       [c for _, c in cells], vals))
            tri = list(gm.extract_tuples(a))
            render = a.domain.render
            fileio.write_edge_list(tsv, a)
            assert tsv.read_text() == "".join(
                f"{r}\t{c}\t{render(v)}\n" for r, c, v in tri)
            fileio.write_matrix_market(mm, a)
            body = mm.read_text().split("\n", 3)[3]
            assert body == "".join(
                f"{r + 1} {c + 1}\n" if domain == "bool" else
                f"{r + 1} {c + 1} {render(v)}\n" for r, c, v in tri)

        check()


class TestInputErrors:
    def test_non_utf8_raises_format_error_naming_path(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_bytes(b"0\t1\n\x80\x81\xff\n")
        for read in (lambda: fileio.read_edge_list(p),
                     lambda: fileio.read_triples(p),
                     lambda: fileio.read_matrix_market(p, ARITH)):
            with pytest.raises(FormatError) as err:
                read()
            assert str(err.value).startswith(f"{p}: not UTF-8 text")
        mm = tmp_path / "bad.mtx"
        mm.write_bytes(HEAD.encode()
                       + b"1 1 1\n1 1 \xff\n")
        with pytest.raises(FormatError):
            fileio.read_matrix_market(mm, ARITH)

    @pytest.mark.parametrize("banner", [
        "%%MatrixMarket matrix coordinate Real General",
        "%%MatrixMarket MATRIX COORDINATE REAL GENERAL",
        "%%MatrixMarket Matrix Coordinate Pattern general",
    ])
    def test_banner_keywords_any_case(self, banner, tmp_path):
        p = tmp_path / "m.mtx"
        entry = "2 1" if "Pattern" in banner else "2 1 2.5"
        p.write_text(f"{banner}\n2 2 1\n{entry}\n")
        a = fileio.read_matrix_market(p, ARITH)
        assert a.get(1, 0) == (1.0 if "Pattern" in banner else 2.5)
        assert a.nnz == 1


# every built-in domain by a semiring over it; set64's one is 2**64 - 1
EVERY_DOMAIN = {
    "real": ARITH,
    "real-nonneg": gm.semiring_by_name("max-min"),
    "real-nonpos": gm.semiring_by_name("min-max", variant="nonpos"),
    "natural": NATURAL,
    "int64": DOMAIN_SEMIRINGS["int64"],
    "bool": get_semiring("xor-and"),
    "set16": get_semiring("union-intersect"),
    "set64": gm.semiring_by_name("union-intersect", universe_size=64),
}
UNWEIGHTED = "".join(f"{u}\t{v}\n" for u, v in [
    (0, 1), (0, 4), (1, 3), (3, 0), (0, 1), (6, 2), (5, 5), (2, 4)])
UNWEIGHTED_HYPER = "".join(f"{o}\t{i}\n" for o, i in [
    ("0,2", "1"), ("3", "4,5"), ("1,6", "0,2"), ("0", "1")])


class TestUnweightedColumns:
    """A file without weights gives each entry the semiring's one from
    one array: the matrices equal the line parser's in every domain, and
    `build` sees arrays only."""

    @staticmethod
    def reads(sr, tmp_path):
        """The matrices each column path builds from unweighted files."""
        tsv, hyper, mtx = (tmp_path / f for f in ("u.tsv", "h.tsv", "p.mtx"))
        tsv.write_text(UNWEIGHTED)
        hyper.write_text(UNWEIGHTED_HYPER)
        mtx.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                       "7 7 8\n" + "".join(
                           f"{int(u) + 1} {int(v) + 1}\n" for u, v in
                           map(str.split, UNWEIGHTED.splitlines())))
        out = []
        for path in (tsv, hyper):
            rows, cols, vals, n = fileio.read_triples(
                path, False, sr.domain.parse_text, sr.one)
            out.append(gm.build(sr, (n, n), (rows, cols, vals)))
            edges = fileio.read_edge_list(path,
                                          value_parser=sr.domain.parse_text)
            for use_weights in (False, True):
                out += fileio.incidence_from_edges(sr, edges, 7, use_weights)
        out.append(fileio.read_matrix_market(mtx, sr))
        return out

    @pytest.mark.parametrize("name", EVERY_DOMAIN)
    def test_same_matrix_as_line_parser(self, name, tmp_path, monkeypatch):
        sr = EVERY_DOMAIN[name]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio, "_plain_columns", give_up)
            want = self.reads(sr, tmp_path)
        bulk = fileio._plain_columns

        def must_fit(*args):
            edges = bulk(*args)
            assert isinstance(edges.weights, np.ndarray)
            return edges

        monkeypatch.setattr(fileio, "_plain_columns", must_fit)
        got = self.reads(sr, tmp_path)
        assert got == want
        assert got[0].nnz == 7 - (name == "bool")  # xor cancels (0, 1)
        assert got[0].get(0, 4) == got[-1].get(0, 4) == sr.one
        for a in got:
            assert a.values.dtype == np.dtype(sr.domain.dtype)

    @pytest.mark.parametrize("name", EVERY_DOMAIN)
    def test_build_sees_no_list(self, name, tmp_path, monkeypatch):
        sr, seen = EVERY_DOMAIN[name], []
        real_build = gm.build

        def spy(sr, dims, triples, *args, **kwargs):
            seen.append([type(p) for p in triples])
            return real_build(sr, dims, triples, *args, **kwargs)

        monkeypatch.setattr(fileio, "build", spy)
        monkeypatch.setattr(gm, "build", spy)
        self.reads(sr, tmp_path)
        hyper = fileio.read_edge_list(tmp_path / "h.tsv")
        spy(sr, (7, 7), fileio.triples_from_edges(hyper, sr.one))
        assert len(seen) == 12
        assert all(types == [np.ndarray] * 3 for types in seen)

    def test_line_parser_weights_one_object_array(self, tmp_path):
        # a file mixing weighted and unweighted lines takes the line
        # parser; its weights come as one object array, default in place
        p = tmp_path / "mixed.tsv"
        p.write_text("0\t1\t2\n1\t2\n")
        edges = fileio.read_edge_list(p)
        assert edges.weights.dtype == object
        assert edges.weights.tolist() == [2, None]
        rows, cols, vals, n = fileio.read_triples(p, default=7)
        assert isinstance(vals, np.ndarray) and vals.tolist() == [2, 7]
        vals = fileio.triples_from_edges(edges, 1.5)[2]
        assert isinstance(vals, np.ndarray) and vals.tolist() == [2, 1.5]
