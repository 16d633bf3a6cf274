"""Command-line front end.

Exit statuses: 0 success, 2 usage or data error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import bench as bench_mod
from . import fileio, graph, kernels
from .algebra import semiring_by_name
from .errors import GraphMatError
from .matrix import build, transpose

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _semiring_from_args(args):
    sr = semiring_by_name(args.semiring, universe_size=args.universe_size)
    if args.universe_size is not None and sr.name != "union-intersect":
        raise GraphMatError(
            f"--universe-size applies only to union-intersect, not {sr.name}")
    return sr


def _is_mm(path, args):
    return args.format == "mm" or path.endswith((".mtx", ".mm"))


def _vertices(n, args):
    """The vertex count of a file that names n: `--vertices` if given,
    which must hold them all."""
    if args.vertices is not None and args.vertices < max(n, 1):
        raise GraphMatError(f"--vertices {args.vertices} is below the "
                            f"{max(n, 1)} vertices the input needs")
    return n if args.vertices is None else args.vertices


def _load_matrix(path, args, sr, weight=None):
    """The matrix in `path`; an entry with no weight field weighs
    `weight`, sr.one if None."""
    weight = sr.one if weight is None else weight
    if _is_mm(path, args):
        if args.vertices is not None:
            raise GraphMatError(
                f"--vertices applies only to TSV input, not {path}")
        return fileio.read_matrix_market(path, sr, weight)
    rows, cols, vals, n = fileio.read_triples(
        path, args.one_based, sr.domain.parse_text, weight)
    n = _vertices(n, args)
    return build(sr, (n, n), (rows, cols, vals))


def _emit(a, args):
    print(f"{a.nrows} x {a.ncols}, {a.nnz} entries")
    if args.output:
        fileio.write_matrix_market(args.output, a)
        print(f"wrote {args.output}")


def _index(token, one_based, bound, what):
    """A 0-based index; a 1-based one outside [1, bound] named as written."""
    try:
        v = int(token)
    except ValueError:
        raise GraphMatError(f"bad vertex index {token.strip()!r}") from None
    if one_based and not 1 <= v <= bound:
        raise GraphMatError(f"{what} index {v} outside [1, {bound}]")
    return v - one_based


def _index_list(text, *how):  # each comma-separated token by _index
    return [_index(t, *how) for t in text.split(",") if t.strip()]


def _rows_cols(args, m):  # index lists into m, --cols by default --rows
    return [_index_list(t, args.one_based, k, what) for t, k, what in zip(
        (args.rows, args.cols or args.rows), m.dims, ("row", "column"))]


def _run_matrix(args):
    """Load the files `args.files` names, apply the subcommand's one
    library call `args.op` and report (and write) the result."""
    paths = [getattr(args, f) for f in args.files]
    if (args.one_based and "rows" not in args  # --rows reads it too
            and all(_is_mm(p, args) for p in paths)):
        raise GraphMatError("--one-based applies only to TSV input and "
                            "index lists; Matrix Market is 1-based")
    sr = _semiring_from_args(args)
    mats = [_load_matrix(p, args, sr) for p in paths]
    _emit(args.op(sr, args, *mats), args)


def cmd_tuples(args):
    sr = _semiring_from_args(args)
    a = _load_matrix(args.input, args, sr)
    fileio._write_entries(sys.stdout, a, "\t", 1 if args.one_based else 0)


def cmd_bfs(args):
    sr = _semiring_from_args(args)
    a = _load_matrix(args.input, args, sr)
    shift = 1 if args.one_based else 0
    sources = _index_list(args.source, args.one_based, a.nrows, "source")
    if not sources:
        raise GraphMatError("--source names no vertex")
    # -1, for a vertex not reached, becomes nan and is written "-"
    level, parent = (np.where(x < 0, np.nan, x + s) for x, s in zip(
        graph._bfs(a, sources, args.max_hops, False), (0, shift)))
    sys.stdout.write("vertex\tlevel\tparent\n" + fileio._digit_lines(
        (np.arange(len(level)) + shift, level, parent), "\t"))


def cmd_sssp(args):
    sr = semiring_by_name("min-plus")
    # an edge without a weight is one hop, not min-plus's one (0.0)
    a = _load_matrix(args.input, args, sr, weight=1.0)
    dist = graph._sssp(a, _index(args.source, args.one_based, a.nrows,
                                 "source"))
    shift = 1 if args.one_based else 0
    # inf, for a vertex not reached, is written "-"
    digits = sr.domain.digits(dist[dist < math.inf])
    sys.stdout.write("vertex\tdistance\n" + (fileio._digit_lines(
        (np.arange(len(dist)) + shift, dist), "\t", digits[1])
        if digits is not None else "".join([
            f"{v + shift}\t{'-' if math.isinf(d) else repr(d)}\n"
            for v, d in enumerate(dist.tolist())])))


def cmd_adjacency(args):
    sr = _semiring_from_args(args)
    if args.edges:
        if args.out_incidence or args.in_incidence:
            flag = "--out" if args.out_incidence else "--in"
            raise GraphMatError(f"{flag}-incidence cannot be combined "
                                "with --edges")
        edges = fileio.read_edge_list(args.edges, one_based=args.one_based,
                                      value_parser=sr.domain.parse_text)
        n = _vertices(edges.n_vertices, args)
        e_out, e_in = fileio.incidence_from_edges(sr, edges, n,
                                                  use_weights=True)
    else:
        if not (args.out_incidence and args.in_incidence):
            raise GraphMatError(
                "adjacency needs --edges or both --out-incidence "
                "and --in-incidence")
        if args.vertices is not None or args.one_based:
            flag = "--vertices" if args.vertices is not None else "--one-based"
            raise GraphMatError(f"{flag} applies only to --edges input")
        e_out = fileio.read_matrix_market(args.out_incidence, sr)
        e_in = fileio.read_matrix_market(args.in_incidence, sr)
    _emit(graph.adjacency_from_incidence(sr, e_out, e_in), args)


def cmd_bench(args):
    if args.scale_max < args.scale_min:
        raise GraphMatError(f"--scale-max {args.scale_max} is below "
                            f"--scale-min {args.scale_min}")
    scales = list(range(args.scale_min, args.scale_max + 1))
    reports = bench_mod.run_bench(
        args.op, scales, edge_factor=args.edge_factor,
        semiring_name=args.semiring, trials=args.trials, seed=args.seed)
    print(f"{'op':<12}{'scale':>6}{'edges':>10}{'api_us':>14}"
          f"{'direct_us':>14}{'overhead%':>11}  per-trial min..max%")
    for r in reports:
        lo, hi = r.overhead_spread
        print(f"{r.operation:<12}{r.scale:>6}{r.edges:>10}"
              f"{r.mean_api_us:>14.1f}{r.mean_direct_us:>14.1f}"
              f"{r.overhead_percent:>11.2f}  {lo:.2f}..{hi:.2f}")
    print("# op,scale,edges,mean_api_us,mean_direct_us,overhead_pct")
    for r in reports:
        print(r.machine_line())


@functools.cache
def _make_parser():
    # one parent per group of arguments that the same subcommands read
    semiring = argparse.ArgumentParser(add_help=False)
    semiring.add_argument("--semiring", default="arith-real",
                          help="named semiring (default: arith-real)")
    universe = argparse.ArgumentParser(add_help=False)
    universe.add_argument("--universe-size", type=int, default=None,
                          help="set universe size for union-intersect")
    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("input")
    infile.add_argument("--format", choices=("tsv", "mm"), default="tsv",
                        help="input file format (default: tsv; .mtx "
                             "files are detected as mm)")
    index = argparse.ArgumentParser(add_help=False)
    index.add_argument("--one-based", action="store_true",
                       help="treat TSV indices and CLI index lists "
                            "as 1-based")
    index.add_argument("--vertices", type=int, default=None,
                       help="vertex count of TSV input, at least the "
                            "largest vertex index + 1")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None,
                        help="write the resulting matrix here "
                             "(Matrix Market)")
    reads = [semiring, universe, infile, index]

    p = argparse.ArgumentParser(
        prog="graphmat",
        description="Semiring sparse-matrix graph toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, parents, help):
        sp = sub.add_parser(name, parents=parents, help=help)
        sp.set_defaults(fn=fn)
        return sp

    def matrix(name, help, op, *more):
        # `op` takes the semiring, args and the matrices read from
        # `input` and then from each positional in `more`
        sp = add(name, _run_matrix, reads + [output], help)
        for arg in more:
            sp.add_argument(arg)
        sp.set_defaults(op=op, files=("input",) + more)
        return sp

    matrix("build", "build a matrix from a file", lambda sr, args, a: a)
    add("tuples", cmd_tuples, reads, "print stored entries")
    matrix("transpose", "transpose a matrix",
           lambda sr, args, a: transpose(a))
    matrix("mxm", "semiring matrix multiply",
           lambda sr, args, a, b: kernels.mxm(sr, a, b), "input_b")

    sp = add("bfs", cmd_bfs, reads, "breadth-first search levels")
    sp.add_argument("--source", required=True,
                    help="comma-separated source vertices")
    sp.add_argument("--max-hops", type=int, default=None)

    sp = add("sssp", cmd_sssp, [infile, index], "min-plus shortest paths")
    sp.add_argument("--source", required=True)

    sp = matrix("subgraph", "extract a sub-matrix",
                lambda sr, args, a: kernels.extract(a, *_rows_cols(args, a)))
    sp.add_argument("--rows", required=True)
    sp.add_argument("--cols", default=None)

    sp = matrix("assign", "write a matrix into another",
                lambda sr, args, c, a:
                kernels.assign(c, *_rows_cols(args, c), a))
    sp.add_argument("--source-matrix", required=True)
    sp.set_defaults(files=("input", "source_matrix"))
    sp.add_argument("--rows", required=True)
    sp.add_argument("--cols", default=None)

    matrix("union", "element-wise add of two graphs",
           lambda sr, args, a, b: graph.graph_union(sr, a, b), "input_b")
    matrix("intersect", "element-wise multiply of two graphs",
           lambda sr, args, a, b: graph.graph_intersection(sr, a, b),
           "input_b")

    sp = add("adjacency", cmd_adjacency, [semiring, universe, index, output],
             "project an incidence pair to an adjacency matrix")
    sp.add_argument("--out-incidence", default=None)
    sp.add_argument("--in-incidence", default=None)
    sp.add_argument("--edges", default=None,
                    help="edge-list file (builds the incidence pair)")

    sp = add("bench", cmd_bench, [semiring], "API-overhead benchmark")
    sp.add_argument("--seed", type=int, default=1,
                    help="64-bit seed for generated graphs")
    sp.add_argument("--op", required=True,
                    choices=bench_mod.BENCH_OPERATIONS)
    sp.add_argument("--scale-min", type=int, default=10)
    sp.add_argument("--scale-max", type=int, default=14)
    sp.add_argument("--edge-factor", type=int,
                    default=bench_mod.DEFAULT_EDGE_FACTOR)
    sp.add_argument("--trials", type=int,
                    default=bench_mod.DEFAULT_TRIALS)

    return p


def main(argv=None):
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except (GraphMatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # invariant violation, not user error
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
