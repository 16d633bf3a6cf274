import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphmat as gm
from graphmat import fileio
from graphmat.cli import _load_matrix, _make_parser, main

from conftest import DATA_DIR

EDGES = str(DATA_DIR / "seven_vertex_edges.tsv")
ADJ_MM = str(DATA_DIR / "seven_vertex_adjacency.mtx")
E_OUT_MM = str(DATA_DIR / "seven_vertex_e_out.mtx")
E_IN_MM = str(DATA_DIR / "seven_vertex_e_in.mtx")
INPUT = {"--semiring", "--universe-size", "--format", "--one-based",
         "--vertices"}
MATRIX = INPUT | {"--output"}
# the subcommands in `graphmat --help` order, each with the shared
# options its handler reads and its own arguments
SUBCOMMANDS = {
    "build": MATRIX | {"input"},
    "tuples": INPUT | {"input"},
    "transpose": MATRIX | {"input"},
    "mxm": MATRIX | {"input", "input_b"},
    "bfs": INPUT | {"input", "--source", "--max-hops"},
    "sssp": {"--format", "--one-based", "--vertices", "input", "--source"},
    "subgraph": MATRIX | {"input", "--rows", "--cols"},
    "assign": MATRIX | {"input", "--source-matrix", "--rows", "--cols"},
    "union": MATRIX | {"input", "input_b"},
    "intersect": MATRIX | {"input", "input_b"},
    "adjacency": {"--semiring", "--universe-size", "--one-based",
                  "--vertices", "--output", "--out-incidence",
                  "--in-incidence", "--edges"},
    "bench": {"--semiring", "--seed", "--op", "--scale-min", "--scale-max",
              "--edge-factor", "--trials"},
}


class TestOptions:
    def test_each_subcommand_takes_only_what_it_reads(self):
        sub, = [a for a in _make_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        got = {name: {a.option_strings[0] if a.option_strings else a.dest
                      for a in sp._actions if a.dest != "help"}
               for name, sp in sub.choices.items()}
        assert list(got) == list(SUBCOMMANDS)
        assert got == SUBCOMMANDS
        assert sum(map(len, got.values())) == 91

    @pytest.mark.parametrize("argv", [
        ["build", EDGES, "--seed", "3"],
        ["bfs", EDGES, "--source", "0", "--output", "o.mtx"],
        ["sssp", EDGES, "--source", "0", "--semiring", "max-plus"],
        ["adjacency", "--edges", EDGES, "--format", "tsv"],
        ["bench", "--op", "mxv", "--scale-min", "5", "--scale-max", "5",
         "--edge-factor", "4", "--trials", "1", "--vertices", "5"],
    ])
    def test_unread_option_is_a_usage_error(self, argv, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in \
            capsys.readouterr().err
        assert not list(tmp_path.iterdir())


    @pytest.mark.parametrize("argv,flag", [
        (["adjacency", "--out-incidence", E_OUT_MM, "--in-incidence",
          E_IN_MM, "--vertices", "20"], "--vertices"),
        (["adjacency", "--out-incidence", E_OUT_MM, "--in-incidence",
          E_IN_MM, "--one-based"], "--one-based"),
        (["adjacency", "--edges", EDGES, "--out-incidence", E_OUT_MM],
         "--out-incidence"),
        (["adjacency", "--edges", EDGES, "--in-incidence", E_IN_MM],
         "--in-incidence"),
        (["build", ADJ_MM, "--vertices", "0"], "--vertices"),
        (["build", ADJ_MM, "--one-based"], "--one-based"),
        (["transpose", ADJ_MM, "--one-based"], "--one-based"),
        (["mxm", ADJ_MM, ADJ_MM, "--one-based"], "--one-based"),
        (["union", ADJ_MM, ADJ_MM, "--one-based"], "--one-based"),
        (["intersect", ADJ_MM, ADJ_MM, "--one-based"], "--one-based"),
    ])
    def test_flag_that_changes_nothing_exit_2(self, argv, flag, tmp_path,
                                              capsys):
        out = tmp_path / "o.mtx"
        assert main(argv + ["--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""
        assert not out.exists()

    def test_flags_read_on_another_input_still_apply(self, tmp_path,
                                                     capsys):
        one = tmp_path / "one.tsv"
        one.write_text("1\t2\n2\t1\n")
        for argv in (["adjacency", "--edges", EDGES, "--vertices", "9"],
                     ["adjacency", "--edges", str(one), "--one-based"],
                     ["build", str(one), "--one-based"],
                     ["subgraph", ADJ_MM, "--rows", "1,2", "--one-based"],
                     ["assign", ADJ_MM, "--source-matrix", ADJ_MM,
                      "--rows", "1,2,3,4,5,6,7", "--one-based"]):
            assert main(argv) == 0, capsys.readouterr().err
        assert capsys.readouterr().out.splitlines() == [
            "9 x 9, 12 entries", "2 x 2, 2 entries", "2 x 2, 2 entries",
            "2 x 2, 1 entries", "7 x 7, 12 entries"]

    def test_parser_built_once_and_reused(self, tmp_path, capsys):
        # one parser serves every call, and no call's options reach the next
        assert _make_parser() is _make_parser()
        out = tmp_path / "a.mtx"
        assert main(["build", EDGES, "--output", str(out)]) == 0
        out.unlink()
        assert main(["build", EDGES]) == 0
        assert capsys.readouterr().out == \
            f"7 x 7, 12 entries\nwrote {out}\n7 x 7, 12 entries\n"
        assert not out.exists()
        levels = []
        for hops in (["--max-hops", "0"], []):
            assert main(["bfs", EDGES, "--source", "0"] + hops) == 0
            levels.append([ln.split("\t")[1] for ln in
                           capsys.readouterr().out.splitlines()[1:]])
        assert levels == [["0"] + ["-"] * 6,
                          ["0", "1", "3", "2", "1", "2", "3"]]


class TestBuild:
    def test_build_fixture(self, capsys):
        assert main(["build", EDGES]) == 0
        out = capsys.readouterr().out
        assert "7 x 7, 12 entries" in out

    def test_duplicates_folded(self, tmp_path, capsys):
        p = tmp_path / "dup.tsv"
        p.write_text("0\t1\t2.0\n0\t1\t3.0\n1\t0\t1.0\n")
        assert main(["build", str(p)]) == 0
        assert "2 x 2, 2 entries" in capsys.readouterr().out

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.tsv"
        p.write_text("0\t1\nbroken line\n")
        assert main(["build", str(p)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bin.tsv"
        p.write_bytes(b"\x80\x81\xff")
        assert main(["build", str(p)]) == 2
        assert f"{p}: not UTF-8 text" in capsys.readouterr().err

    def test_vertex_index_beyond_int64_exit_2(self, tmp_path, capsys):
        p = tmp_path / "big.tsv"
        p.write_text("0\t99999999999999999999\t1\n")
        assert main(["build", str(p)]) == 2
        assert "int64" in capsys.readouterr().err

    def test_vertex_index_beyond_row_pointers_exit_2(self, tmp_path,
                                                     capsys):
        # fits int64, but 2**62 + 1 row pointers are more than numpy can
        # address; refused before any allocation, so no memory limit
        p = tmp_path / "huge.tsv"
        p.write_text("0\t4611686018427387904\t1\n")
        assert main(["build", str(p)]) == 2
        err = capsys.readouterr().err
        assert "row dimension" in err and "4611686018427387905 rows" in err

    def test_row_pointers_beyond_memory_exit_2(self, tmp_path):
        # 10**11 + 1 row pointers are within numpy's reach but not within
        # the child's own address space, capped at 3 GiB, so the
        # allocation fails at once and touches no memory
        pytest.importorskip("resource")  # POSIX only
        p = tmp_path / "far.tsv"
        p.write_text("0\t100000000000\t1\n")
        script = ("import resource, sys\n"
                  "from graphmat.cli import main\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (3 << 30,) * 2)\n"
                  f"sys.exit(main(['build', {str(p)!r}]))\n")
        paths = [str(Path(gm.__file__).parent.parent),
                 os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, paths)))
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 2, run.stderr
        assert "row dimension" in run.stderr
        assert "100000000001 rows" in run.stderr

    @pytest.mark.parametrize("count", ["0", "-3", "6"])
    @pytest.mark.parametrize("argv", [
        ["build", EDGES], ["tuples", EDGES], ["bfs", EDGES, "--source", "0"],
        ["sssp", EDGES, "--source", "0"], ["transpose", EDGES],
        ["mxm", EDGES, EDGES], ["union", EDGES, ADJ_MM],
        ["subgraph", EDGES, "--rows", "0,1"]])
    def test_vertices_below_the_file_exit_2(self, argv, count, capsys):
        # the fixture names vertices 0..6: fewer than 7 is refused, not
        # ignored as it was
        assert main(argv + ["--vertices", count]) == 2
        err = capsys.readouterr().err
        assert "--vertices" in err and f"{count} is below" in err

    def test_vertices_pads_the_file(self, capsys):
        assert main(["build", EDGES, "--vertices", "7"]) == 0
        assert main(["build", EDGES, "--vertices", "9"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "7 x 7, 12 entries", "9 x 9, 12 entries"]

    def test_vertices_on_matrix_market_exit_2(self, capsys):
        # a Matrix Market file states its own shape
        assert main(["build", ADJ_MM, "--vertices", "20"]) == 2
        assert "--vertices" in capsys.readouterr().err

    def test_universe_size_outside_union_intersect_exit_2(self, capsys):
        assert main(["build", EDGES, "--semiring", "arith-real",
                     "--universe-size", "3"]) == 2
        assert "--universe-size" in capsys.readouterr().err

    def test_build_writes_matrix_market(self, tmp_path, capsys):
        out = tmp_path / "a.mtx"
        assert main(["build", EDGES, "--output", str(out)]) == 0
        assert out.read_bytes() == open(ADJ_MM, "rb").read()


class TestTuples:
    def test_prints_all_entries(self, capsys):
        assert main(["tuples", EDGES]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12
        assert lines[0] == "0\t1\t1.0"

    @pytest.mark.parametrize("semiring", ["arith-real", "arith-natural",
                                          "xor-and"])
    @pytest.mark.parametrize("one_based", [False, True])
    def test_bytes_equal_the_entry_by_entry_format(self, tmp_path, capsys,
                                                   semiring, one_based):
        # the fixture's edges with weights of one, and with weights
        # above 2**63; numbered from 1 for --one-based
        shift = int(one_based)
        edges = [[int(t) + shift for t in line.split()]
                 for line in open(EDGES).read().splitlines()]
        plain, weighted = tmp_path / "plain.tsv", tmp_path / "weighted.tsv"
        plain.write_text("".join(f"{u}\t{v}\n" for u, v in edges))
        weighted.write_text("".join(
            f"{u}\t{v}\t{[2**63 + 5, 2**64 - 1, 1][k % 3]}\n"
            for k, (u, v) in enumerate(edges)))
        for src in (str(plain), str(weighted)):
            flags = ["--one-based"] * one_based + ["--semiring", semiring]
            assert main(["tuples", src] + flags) == 0
            args = _make_parser().parse_args(["tuples", src] + flags)
            a = _load_matrix(src, args, gm.semiring_by_name(semiring))
            want = "".join(f"{r + shift}\t{c + shift}\t{a.domain.render(v)}\n"
                           for r, c, v in gm.extract_tuples(a))
            assert capsys.readouterr().out == want


class TestBfs:
    def test_fixture_from_vertex_three(self, capsys):
        assert main(["bfs", EDGES, "--source", "3"]) == 0
        out = capsys.readouterr().out
        levels = {}
        for line in out.strip().splitlines()[1:]:
            v, lvl, _ = line.split("\t")
            levels[int(v)] = lvl
        assert levels[3] == "0"
        assert {v for v, l in levels.items() if l == "1"} == {0, 2}

    def test_one_hop_limit(self, capsys):
        assert main(["bfs", EDGES, "--source", "3", "--max-hops", "1"]) == 0
        out = capsys.readouterr().out
        reached = [l for l in out.splitlines()[1:]
                   if l.split("\t")[1] != "-"]
        assert len(reached) == 3

    def test_isolated_source(self, tmp_path, capsys):
        p = tmp_path / "iso.tsv"
        p.write_text("0\t1\n")
        assert main(["bfs", str(p), "--source", "1", "--vertices", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()[1:]
        assert out[1].startswith("1\t0")
        assert out[0].split("\t")[1] == "-"

    def test_out_of_range_source_exit_2(self, capsys):
        assert main(["bfs", EDGES, "--source", "99"]) == 2

    def test_non_integer_source_exit_2(self, capsys):
        assert main(["bfs", EDGES, "--source", "x"]) == 2
        assert "'x'" in capsys.readouterr().err

    def test_negative_max_hops_exit_2(self, capsys):
        assert main(["bfs", EDGES, "--source", "0", "--max-hops", "-1"]) == 2
        assert "max_hops -1" in capsys.readouterr().err

    @pytest.mark.parametrize("source", [",", " , ", ""])
    def test_empty_source_list_exit_2(self, source, capsys):
        assert main(["bfs", EDGES, "--source", source]) == 2
        assert "--source" in capsys.readouterr().err


class TestOneBasedIndexLists:
    """Under --one-based a bad index of --source, --rows or --cols is
    named as written, with the bound 1-based too; still exit 2."""

    @pytest.mark.parametrize("command, flags, named", [
        (["bfs"], ["--source", "0"], "source index 0 outside [1, 7]"),
        (["bfs"], ["--source", "8"], "source index 8 outside [1, 7]"),
        (["bfs"], ["--source", "2,7,9"], "source index 9 outside [1, 7]"),
        (["sssp"], ["--source", "0"], "source index 0 outside [1, 7]"),
        (["subgraph"], ["--rows", "0,1"], "row index 0 outside [1, 7]"),
        (["subgraph"], ["--rows", "1", "--cols", "3,8"],
         "column index 8 outside [1, 7]"),
        (["assign", "--source-matrix", "SELF"], ["--rows", "1,2,3,4,5,6,8"],
         "row index 8 outside [1, 7]"),
    ])
    def test_bad_index_named_as_written(self, tmp_path, capsys, command,
                                        flags, named):
        p = tmp_path / "g1.tsv"
        p.write_text("".join(f"{int(u) + 1}\t{int(v) + 1}\n"
                             for u, v in map(str.split, open(EDGES))))
        argv = [str(p) if a == "SELF" else a for a in command]
        assert main(argv + [str(p), "--one-based"] + flags) == 2
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_zero_based_message_unchanged(self, capsys):
        assert main(["bfs", EDGES, "--source", "7"]) == 2
        assert capsys.readouterr().err == \
            "error: source index outside [0, 7)\n"

    def test_good_one_based_source_runs(self, tmp_path, capsys):
        p = tmp_path / "g1.tsv"
        p.write_text("1\t2\n2\t7\n")
        assert main(["bfs", str(p), "--source", "7", "--one-based"]) == 0
        assert capsys.readouterr().out.endswith("\n7\t0\t-\n")


class TestTables:
    """bfs and sssp print one line per vertex, numbered from 1 with
    --one-based, "-" for a vertex not reached."""

    @pytest.mark.parametrize("one_based", [False, True])
    def test_bytes(self, tmp_path, capsys, one_based):
        s = int(one_based)
        p = tmp_path / "w.tsv"
        p.write_text(f"{s}\t{1 + s}\t0.1\n{1 + s}\t{3 + s}\t0.2\n"
                     f"{3 + s}\t{1 + s}\t5\n")
        flags = ["--one-based"] * one_based
        assert main(["bfs", str(p), "--source", str(s)] + flags) == 0
        assert capsys.readouterr().out == (
            f"vertex\tlevel\tparent\n{s}\t0\t-\n{1 + s}\t1\t{s}\n"
            f"{2 + s}\t-\t-\n{3 + s}\t2\t{1 + s}\n")
        assert main(["sssp", str(p), "--source", str(s)] + flags) == 0
        assert capsys.readouterr().out == (
            f"vertex\tdistance\n{s}\t0.0\n{1 + s}\t0.1\n"
            f"{2 + s}\t-\n{3 + s}\t0.30000000000000004\n")


    # what bfs and sssp wrote line by line before their tables came from
    # one byte buffer
    @staticmethod
    def line_by_line_bfs(result, shift):
        return "".join(["vertex\tlevel\tparent\n"] + [
            f"{v + shift}\t{'-' if lvl is None else lvl}\t"
            f"{'-' if par is None else par + shift}\n"
            for v, (lvl, par) in enumerate(zip(result.levels,
                                               result.parents))])

    @staticmethod
    def line_by_line_sssp(dist, shift):
        return "".join(["vertex\tdistance\n"] + [
            f"{v + shift}\t{'-' if math.isinf(d) else repr(d)}\n"
            for v, d in enumerate(dist)])

    @pytest.mark.parametrize("one_based", [False, True])
    @pytest.mark.parametrize("flags, sources", [
        ([], [0]), (["--max-hops", "1"], [0]), ([], [0, 5]),
        ([], [11]), (["--max-hops", "1"], [3, 9])])
    def test_bfs_bytes_equal_line_by_line(self, tmp_path, capsys, one_based,
                                          flags, sources):
        # 0..7 a ring with a chord, 8..10 a path reached from 9 only, 11
        # isolated but for its self-loop, 12 never named: reached, not
        # reached and parentless vertices, levels and ids of two digits
        s = int(one_based)
        edges = [(k, (k + 1) % 8) for k in range(8)] + [
            (2, 6), (9, 8), (8, 10), (11, 11), (10, 13)]
        p = tmp_path / "g.tsv"
        p.write_text("".join(f"{u + s}\t{v + s}\n" for u, v in edges))
        args = argparse.Namespace(format="tsv", one_based=one_based,
                                  vertices=None)
        a = _load_matrix(str(p), args, gm.semiring_by_name("arith-real"))
        hops = int(flags[1]) if flags else None
        want = self.line_by_line_bfs(gm.bfs_levels(a, sources, hops), s)
        argv = ["bfs", str(p), "--source", ",".join(str(v + s)
                                                    for v in sources)]
        assert main(argv + flags + ["--one-based"] * one_based) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("one_based", [False, True])
    @pytest.mark.parametrize("weights", [
        [3, 250, 7, 1, 40], [1e16, 2.0, 3e16, 1.0, 5.0],
        [0.5, 2.0, 0.25, 7.0, 1.0], [9007199254740993.0, 1.0, 1.0, 1.0, 1.0]],
        ids=["digits", "1e16 and up", "non-integral", "2**53 + 1"])
    def test_sssp_bytes_equal_line_by_line(self, tmp_path, capsys, one_based,
                                           weights, monkeypatch):
        # from vertex 0 the middle two weight sets reach distances that
        # repr writes with an exponent or a fraction: those tables take
        # the line writer; from 3 and 6 every table takes the buffer
        buffered, real = [], fileio._digit_lines
        monkeypatch.setattr(fileio, "_digit_lines", lambda *a: (
            buffered.append(1) or real(*a)))
        s = int(one_based)
        edges = [(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)]
        p = tmp_path / "g.tsv"
        p.write_text("".join(f"{u + s}\t{v + s}\t{w!r}\n" for (u, v), w
                             in zip(edges, weights)) + f"{5 + s}\t{6 + s}\n")
        args = argparse.Namespace(format="tsv", one_based=one_based,
                                  vertices=None)
        a = _load_matrix(str(p), args, gm.semiring_by_name("min-plus"), 1.0)
        for source in (0, 3, 6):
            want = self.line_by_line_sssp(gm.sssp_minplus(a, source), s)
            argv = ["sssp", str(p), "--source", str(source + s)]
            assert main(argv + ["--one-based"] * one_based) == 0
            assert capsys.readouterr().out == want
        assert len(buffered) == (2 if weights[0] in (1e16, 0.5) else 3)


class TestSssp:
    def test_distances_table(self, tmp_path, capsys):
        p = tmp_path / "w.tsv"
        p.write_text("0\t1\t2.5\n1\t2\t1.5\n")
        assert main(["sssp", str(p), "--source", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert lines[0] == "0\t0.0"
        assert lines[1] == "1\t2.5"
        assert lines[2] == "2\t4.0"

    def test_unweighted_edges_count_hops(self, tmp_path, capsys):
        # an edge without a weight field is one hop, as in the .mtx that
        # build writes from the same file, not min-plus's one, 0.0
        pattern = tmp_path / "seven.mtx"
        pattern.write_text("%%MatrixMarket matrix coordinate pattern "
                           "general\n7 7 12\n" + "".join(
                               f"{int(r) + 1} {int(c) + 1}\n" for r, c in
                               map(str.split, open(EDGES))))
        built = tmp_path / "built.mtx"
        assert main(["build", EDGES, "--output", str(built)]) == 0
        tables = []
        for path in (EDGES, str(pattern), str(built)):
            capsys.readouterr()
            assert main(["sssp", path, "--source", "0"]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1] == tables[2]
        hops = [line.split("\t")[1] for line in tables[0].splitlines()[1:]]
        assert hops == ["0.0", "1.0", "3.0", "2.0", "1.0", "2.0", "3.0"]

    def test_non_integer_source_exit_2(self, capsys):
        assert main(["sssp", EDGES, "--source", "abc"]) == 2
        assert "'abc'" in capsys.readouterr().err


    def test_nan_weight_exit_2(self, tmp_path, capsys):
        p = tmp_path / "nan.tsv"
        p.write_text("0\t1\t2.5\n1\t2\tnan\n")
        assert main(["sssp", str(p), "--source", "0"]) == 2
        assert "NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["sssp", "--source", "0"],
                                         ["build"]])
    def test_nan_weight_from_the_line_parser_exit_2(self, tmp_path, capsys,
                                                    command):
        # a weighted line beside an unweighted one takes the line parser,
        # whose weights reach build as objects: the NaN is named still
        p = tmp_path / "nan.tsv"
        p.write_text("0\t1\tnan\n1\t2\n")
        assert main(command[:1] + [str(p)] + command[1:]) == 2
        assert capsys.readouterr().err == "error: NaN is not in domain real\n"


class TestSubgraph:
    def test_fixture_four_vertex_subgraph(self, capsys):
        assert main(["subgraph", EDGES, "--rows", "0,1,3,6"]) == 0
        assert "4 x 4" in capsys.readouterr().out

    def test_non_integer_row_exit_2(self, capsys):
        assert main(["subgraph", EDGES, "--rows", "0,x"]) == 2
        assert "'x'" in capsys.readouterr().err


class TestTranspose:
    def test_twice_is_byte_identical(self, tmp_path, capsys):
        once = tmp_path / "t1.mtx"
        twice = tmp_path / "t2.mtx"
        assert main(["transpose", EDGES, "--output", str(once)]) == 0
        assert main(["transpose", str(once), "--format", "mm",
                     "--output", str(twice)]) == 0
        assert main(["build", EDGES, "--output",
                     str(tmp_path / "orig.mtx")]) == 0
        assert twice.read_bytes() == (tmp_path / "orig.mtx").read_bytes()


class TestSetOps:
    def test_union_with_self(self, capsys):
        assert main(["union", EDGES, EDGES]) == 0
        assert "7 x 7, 12 entries" in capsys.readouterr().out

    def test_intersect_with_self(self, capsys):
        assert main(["intersect", EDGES, EDGES]) == 0
        assert "7 x 7, 12 entries" in capsys.readouterr().out

    def test_mxm(self, capsys):
        assert main(["mxm", ADJ_MM, ADJ_MM]) == 0
        assert "7 x 7" in capsys.readouterr().out


class TestAdjacency:
    def test_from_incidence_files_matches_direct_build(self, tmp_path,
                                                       capsys):
        out = tmp_path / "adj.mtx"
        assert main(["adjacency", "--out-incidence", E_OUT_MM,
                     "--in-incidence", E_IN_MM, "--output", str(out)]) == 0
        assert out.read_bytes() == open(ADJ_MM, "rb").read()

    def test_from_edge_list(self, capsys):
        assert main(["adjacency", "--edges", EDGES]) == 0
        assert "7 x 7, 12 entries" in capsys.readouterr().out

    def test_missing_inputs_exit_2(self, capsys):
        assert main(["adjacency"]) == 2

    @pytest.mark.parametrize("count", ["0", "-3", "6"])
    def test_vertices_below_the_edges_exit_2(self, count, capsys):
        assert main(["adjacency", "--edges", EDGES, "--vertices", count]) == 2
        err = capsys.readouterr().err
        assert "--vertices" in err and f"{count} is below" in err

    @pytest.mark.parametrize("command", [["build"], ["adjacency", "--edges"]])
    def test_label_with_non_ascii_digit(self, command, tmp_path, capsys):
        # '²' passes str.isdigit but not int(); the label is only a name
        p = tmp_path / "e.tsv"
        p.write_text("e²: out=1 in=2\n")
        assert main(command + [str(p)]) == 0
        assert "3 x 3, 1 entries" in capsys.readouterr().out


class TestAssignCmd:
    def test_assign_submatrix(self, tmp_path, capsys):
        sub = tmp_path / "sub.mtx"
        assert main(["subgraph", EDGES, "--rows", "0,1", "--output",
                     str(sub)]) == 0
        capsys.readouterr()
        assert main(["assign", EDGES, "--source-matrix", str(sub),
                     "--rows", "0,1"]) == 0
        assert "7 x 7" in capsys.readouterr().out


class TestBench:
    def test_machine_readable_lines(self, capsys):
        assert main(["bench", "--op", "transpose", "--scale-min", "5",
                     "--scale-max", "6", "--edge-factor", "4",
                     "--trials", "2"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines()
                 if re.match(r"transpose,\d+,\d+,", l)]
        assert len(lines) == 2

    def test_table_shows_per_trial_overhead_range(self, capsys):
        assert main(["bench", "--op", "transpose", "--scale-min", "5",
                     "--scale-max", "5", "--edge-factor", "4",
                     "--trials", "3"]) == 0
        header, row = capsys.readouterr().out.splitlines()[:2]
        assert header.endswith("per-trial min..max%")
        overhead, spread = row.split()[-2:]
        lo, hi = map(float, spread.split(".."))
        # the mean overhead is a weighted mean of the per-trial ones
        assert lo <= float(overhead) <= hi

    def test_seed_determinism(self, capsys):
        args = ["bench", "--op", "mxv", "--scale-min", "5",
                "--scale-max", "5", "--edge-factor", "4", "--trials", "1",
                "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        edges = lambda text: [l.split(",")[2] for l in text.splitlines()
                              if l.startswith("mxv,")]
        assert edges(first) == edges(second)

    def test_scale_guard(self, capsys):
        assert main(["bench", "--op", "mxv", "--scale-min", "20",
                     "--scale-max", "20"]) == 2

    @pytest.mark.parametrize("argv, named", [
        (["--scale-min", "-3", "--scale-max", "-2"], "scale -3 outside"),
        (["--scale-min", "-1", "--scale-max", "0"], "scale -1 outside"),
        (["--scale-min", "2", "--scale-max", "2", "--edge-factor", "-1"],
         "edge factor -1 is below 0")])
    def test_negative_scale_or_edge_factor_exit_2(self, argv, named, capsys):
        assert main(["bench", "--op", "mxv", "--trials", "1"] + argv) == 2
        assert named in capsys.readouterr().err

    def test_empty_scale_range_exit_2(self, capsys):
        assert main(["bench", "--op", "mxm", "--scale-min", "5",
                     "--scale-max", "4"]) == 2
        assert "--scale-max" in capsys.readouterr().err

    def test_unknown_operation_rejected(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as err:
            main(["bench", "--op", "pagerank"])
        assert err.value.code == 2
