import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphmat as gm
from graphmat.cli import _load_matrix, _make_parser, main

from conftest import DATA_DIR

EDGES = str(DATA_DIR / "seven_vertex_edges.tsv")
ADJ_MM = str(DATA_DIR / "seven_vertex_adjacency.mtx")
E_OUT_MM = str(DATA_DIR / "seven_vertex_e_out.mtx")
E_IN_MM = str(DATA_DIR / "seven_vertex_e_in.mtx")


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


class TestSssp:
    def test_distances_table(self, tmp_path, capsys):
        p = tmp_path / "w.tsv"
        p.write_text("0\t1\t2.5\n1\t2\t1.5\n")
        assert main(["sssp", str(p), "--source", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert lines[0] == "0\t0.0"
        assert lines[1] == "1\t2.5"
        assert lines[2] == "2\t4.0"

    def test_non_integer_source_exit_2(self, capsys):
        assert main(["sssp", EDGES, "--source", "abc"]) == 2
        assert "'abc'" in capsys.readouterr().err


    def test_nan_weight_exit_2(self, tmp_path, capsys):
        p = tmp_path / "nan.tsv"
        p.write_text("0\t1\t2.5\n1\t2\tnan\n")
        assert main(["sssp", str(p), "--source", "0"]) == 2
        assert "NaN" in capsys.readouterr().err


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

    def test_unknown_operation_rejected(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as err:
            main(["bench", "--op", "pagerank"])
        assert err.value.code == 2
