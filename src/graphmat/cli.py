"""Command-line front end.

Exit statuses: 0 success, 2 usage or data error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import bench as bench_mod
from . import fileio, graph, kernels
from .algebra import semiring_by_name
from .errors import GraphMatError
from .matrix import build, transpose

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _semiring_from_args(args):
    return semiring_by_name(args.semiring, universe_size=args.universe_size)


def _load_matrix(path, args, sr):
    if args.format == "mm" or path.endswith((".mtx", ".mm")):
        return fileio.read_matrix_market(path, sr)
    rows, cols, vals, n = fileio.read_triples(
        path, args.one_based, sr.domain.parse_text, sr.one)
    if args.vertices:
        n = max(n, args.vertices)
    return build(sr, (n, n), (rows, cols, vals))


def _emit(a, args, label=""):
    prefix = f"{label}: " if label else ""
    print(f"{prefix}{a.nrows} x {a.ncols}, {a.nnz} entries")
    if args.output:
        fileio.write_matrix_market(args.output, a)
        print(f"wrote {args.output}")


def _index(token, one_based):
    try:
        return int(token) - (1 if one_based else 0)
    except ValueError:
        raise GraphMatError(f"bad vertex index {token.strip()!r}") from None


def _index_list(text, one_based):
    return [_index(t, one_based) for t in text.split(",") if t.strip()]


def cmd_build(args):
    sr = _semiring_from_args(args)
    a = _load_matrix(args.input, args, sr)
    _emit(a, args)


def cmd_tuples(args):
    sr = _semiring_from_args(args)
    a = _load_matrix(args.input, args, sr)
    fileio._write_entries(sys.stdout, a, "\t", 1 if args.one_based else 0)


def cmd_transpose(args):
    sr = _semiring_from_args(args)
    a = _load_matrix(args.input, args, sr)
    _emit(transpose(a), args)


def cmd_mxm(args):
    sr = _semiring_from_args(args)
    a = _load_matrix(args.input, args, sr)
    b = _load_matrix(args.input_b, args, sr)
    _emit(kernels.mxm(sr, a, b), args)


def cmd_bfs(args):
    sr = _semiring_from_args(args)
    a = _load_matrix(args.input, args, sr)
    shift = 1 if args.one_based else 0
    sources = _index_list(args.source, args.one_based)
    result = graph.bfs_levels(a, sources, max_hops=args.max_hops)
    print("vertex\tlevel\tparent")
    for v, (lvl, par) in enumerate(zip(result.levels, result.parents)):
        lvl_s = "-" if lvl is None else str(lvl)
        par_s = "-" if par is None else str(par + shift)
        print(f"{v + shift}\t{lvl_s}\t{par_s}")


def cmd_sssp(args):
    sr = semiring_by_name("min-plus")
    a = _load_matrix(args.input, args, sr)
    source = _index(args.source, args.one_based)
    dist = graph.sssp_minplus(a, source)
    shift = 1 if args.one_based else 0
    print("vertex\tdistance")
    for v, d in enumerate(dist):
        print(f"{v + shift}\t{'-' if math.isinf(d) else repr(d)}")


def cmd_subgraph(args):
    sr = _semiring_from_args(args)
    a = _load_matrix(args.input, args, sr)
    rows = _index_list(args.rows, args.one_based)
    cols = _index_list(args.cols if args.cols else args.rows,
                       args.one_based)
    _emit(kernels.extract(a, rows, cols), args)


def cmd_assign(args):
    sr = _semiring_from_args(args)
    target = _load_matrix(args.input, args, sr)
    source = _load_matrix(args.source_matrix, args, sr)
    rows = _index_list(args.rows, args.one_based)
    cols = _index_list(args.cols if args.cols else args.rows,
                       args.one_based)
    _emit(kernels.assign(target, rows, cols, source), args)


def cmd_union(args):
    sr = _semiring_from_args(args)
    a = _load_matrix(args.input, args, sr)
    b = _load_matrix(args.input_b, args, sr)
    _emit(graph.graph_union(sr, a, b), args)


def cmd_intersect(args):
    sr = _semiring_from_args(args)
    a = _load_matrix(args.input, args, sr)
    b = _load_matrix(args.input_b, args, sr)
    _emit(graph.graph_intersection(sr, a, b), args)


def cmd_adjacency(args):
    sr = _semiring_from_args(args)
    if args.edges:
        edges = fileio.read_edge_list(args.edges, one_based=args.one_based,
                                      value_parser=sr.domain.parse_text)
        n = max(edges.n_vertices, args.vertices or 0)
        e_out, e_in = fileio.incidence_from_edges(sr, edges, n,
                                                  use_weights=True)
    else:
        if not (args.out_incidence and args.in_incidence):
            raise GraphMatError(
                "adjacency needs --edges or both --out-incidence "
                "and --in-incidence")
        e_out = fileio.read_matrix_market(args.out_incidence, sr)
        e_in = fileio.read_matrix_market(args.in_incidence, sr)
    _emit(graph.adjacency_from_incidence(sr, e_out, e_in), args)


def cmd_bench(args):
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


def _make_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--semiring", default="arith-real",
                        help="named semiring (default: arith-real)")
    common.add_argument("--universe-size", type=int, default=None,
                        help="set universe size for union-intersect")
    common.add_argument("--format", choices=("tsv", "mm"), default="tsv",
                        help="input file format (default: tsv; .mtx "
                             "files are detected as mm)")
    common.add_argument("--one-based", action="store_true",
                        help="treat TSV indices and CLI index lists "
                             "as 1-based")
    common.add_argument("--seed", type=int, default=1,
                        help="64-bit seed for generated graphs")
    common.add_argument("--output", default=None,
                        help="write the resulting matrix here "
                             "(Matrix Market)")
    common.add_argument("--vertices", type=int, default=None,
                        help="force at least this many vertices")

    p = argparse.ArgumentParser(
        prog="graphmat",
        description="Semiring sparse-matrix graph toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, parents=[common], **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("build", cmd_build, help="build a matrix from a file")
    sp.add_argument("input")

    sp = add("tuples", cmd_tuples, help="print stored entries")
    sp.add_argument("input")

    sp = add("transpose", cmd_transpose, help="transpose a matrix")
    sp.add_argument("input")

    sp = add("mxm", cmd_mxm, help="semiring matrix multiply")
    sp.add_argument("input")
    sp.add_argument("input_b")

    sp = add("bfs", cmd_bfs, help="breadth-first search levels")
    sp.add_argument("input")
    sp.add_argument("--source", required=True,
                    help="comma-separated source vertices")
    sp.add_argument("--max-hops", type=int, default=None)

    sp = add("sssp", cmd_sssp, help="min-plus shortest paths")
    sp.add_argument("input")
    sp.add_argument("--source", required=True)

    sp = add("subgraph", cmd_subgraph, help="extract a sub-matrix")
    sp.add_argument("input")
    sp.add_argument("--rows", required=True)
    sp.add_argument("--cols", default=None)

    sp = add("assign", cmd_assign, help="write a matrix into another")
    sp.add_argument("input")
    sp.add_argument("--source-matrix", required=True)
    sp.add_argument("--rows", required=True)
    sp.add_argument("--cols", default=None)

    sp = add("union", cmd_union, help="element-wise add of two graphs")
    sp.add_argument("input")
    sp.add_argument("input_b")

    sp = add("intersect", cmd_intersect,
             help="element-wise multiply of two graphs")
    sp.add_argument("input")
    sp.add_argument("input_b")

    sp = add("adjacency", cmd_adjacency,
             help="project an incidence pair to an adjacency matrix")
    sp.add_argument("--out-incidence", default=None)
    sp.add_argument("--in-incidence", default=None)
    sp.add_argument("--edges", default=None,
                    help="edge-list file (builds the incidence pair)")

    sp = add("bench", cmd_bench, help="API-overhead benchmark")
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
