"""Per-layer tracing of graphmat, installed from outside the library.

``Tracer.install()`` replaces every public function of the traced
modules by a wrapper that records a span (name, start, end, parent id).
The wrapper is bound wherever the function is: in its own module and in
every graphmat module that imported it by name (``graph`` imports
``mxv``, ``build`` and others, ``cli`` imports ``build``, ``kernels``
imports ``coalesce``), or those calls would go around it.
``Domain.check_array`` is wrapped on the class. ``uninstall()`` puts
every original back.

Wrapper bookkeeping (span records and work counts) is kept off the span
timeline, so it inflates no self time; what tracing costs in total shows
as ``trace.overhead_pct``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "fileio", "graph", "kernels", "matrix", "algebra")

PER_LAYER = (
    ("graph.bfs_levels_s", "s"),
    ("graph.bfs_self_s", "s"),
    ("graph.bfs_hops", "count"),
    ("graph.sssp_minplus_s", "s"),
    ("graph.sssp_self_s", "s"),
    ("graph.sssp_rounds", "count"),
    ("graph.adjacency_from_incidence_s", "s"),
    ("graph.laplacian_from_incidence_s", "s"),
    ("graph.laplacian_self_s", "s"),
    ("kernels.mxv_s", "s"),
    ("kernels.mxv_calls", "count"),
    ("kernels.mxv_nnz_in", "count"),
    ("kernels.mxv_products", "count"),
    ("kernels.mxv_ns_per_product", "ns"),
    ("kernels.mxm_s", "s"),
    ("kernels.mxm_calls", "count"),
    ("kernels.mxm_products", "count"),
    ("kernels.mxm_nnz_out", "count"),
    ("kernels.mxm_ns_per_product", "ns"),
    ("kernels.ewise_add_s", "s"),
    ("kernels.ewise_add_calls", "count"),
    ("kernels.ewise_mult_s", "s"),
    ("kernels.ewise_mult_calls", "count"),
    ("kernels.extract_s", "s"),
    ("kernels.assign_s", "s"),
    ("matrix.build_s", "s"),
    ("matrix.build_calls", "count"),
    ("matrix.build_triples_in", "count"),
    ("matrix.build_nnz_out", "count"),
    ("matrix.coalesce_s", "s"),
    ("matrix.coalesce_calls", "count"),
    ("matrix.transpose_s", "s"),
    ("matrix.transpose_calls", "count"),
    ("matrix.extract_tuples_s", "s"),
    ("fileio.read_edge_list_s", "s"),
    ("fileio.read_edge_list_lines", "count"),
    ("fileio.triples_from_edges_s", "s"),
    ("fileio.incidence_from_edges_s", "s"),
    ("fileio.read_matrix_market_s", "s"),
    ("fileio.read_matrix_market_entries", "count"),
    ("fileio.write_matrix_market_s", "s"),
    ("fileio.read_ns_per_entry", "ns"),
    ("fileio.bytes_read", "bytes"),
    ("fileio.bytes_written", "bytes"),
    ("cli.main_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("algebra.check_array_s", "s"),
    ("algebra.check_array_calls", "count"),
    ("algebra.check_array_values", "count"),
    ("trace.overhead_pct", "%"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans and work counts of one traced pass over a workload."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, start, end, parent id]
        self.counts = Counter()
        self._stack = [-1]
        self._book = 0.0         # seconds of bookkeeping so far
        self._saved = []         # (owner, attribute, original)
        self._colcount = (None, None)

    # -- installation -----------------------------------------------------

    def install(self):
        hooks = {
            "kernels.mxv": self._count_mxv,
            "kernels.mxm": self._count_mxm,
            "matrix.build": self._count_build,
            "fileio.read_edge_list": self._count_read_edge_list,
            "fileio.read_matrix_market": self._count_read_mm,
            "fileio.write_matrix_market": self._count_write_mm,
        }
        prefix = self.package.__name__
        loaded = [m for name, m in sys.modules.items()
                  if name == prefix or name.startswith(prefix + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                span = f"{layer}.{name}"
                wrapper = self._wrap(span, fn, hooks.get(span))
                for owner in loaded:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._rebind(owner, attr, wrapper)
        domain = sys.modules[f"{prefix}.algebra"].Domain
        self._rebind(domain, "check_array",
                     self._wrap("algebra.check_array",
                                domain.check_array, self._count_check))

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._colcount = (None, None)

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b0 = perf_counter()
            sid = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1]]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            b1 = perf_counter()
            tracer._book += b1 - b0
            span[1] = b1 - tracer._book
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                e0 = perf_counter()
                span[2] = e0 - tracer._book
                tracer._stack.pop()
                if ok and count is not None:
                    count(args, kwargs, result)
                tracer._book += perf_counter() - e0

        return wrapper

    # -- work counts, taken from each call's inputs and result -------------

    def _count_mxv(self, args, kwargs, result):
        a, v = _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "v")
        held, colcount = self._colcount
        if held is not a:  # BFS and SSSP reuse one matrix for every hop
            colcount = np.bincount(a.indices, minlength=a.ncols)
            self._colcount = (a, colcount)
        frontier = np.flatnonzero(np.diff(v.indptr))
        self.counts["kernels.mxv_nnz_in"] += v.nnz
        self.counts["kernels.mxv_products"] += int(colcount[frontier].sum())

    def _count_mxm(self, args, kwargs, result):
        a, b = _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b")
        self.counts["kernels.mxm_products"] += int(
            np.diff(b.indptr)[a.indices].sum())
        self.counts["kernels.mxm_nnz_out"] += result.nnz

    def _count_build(self, args, kwargs, result):
        triples = _arg(args, kwargs, 2, "triples")
        rows = triples.rows if hasattr(triples, "rows") else triples[0]
        self.counts["matrix.build_triples_in"] += len(rows)
        self.counts["matrix.build_nnz_out"] += result.nnz

    def _count_read_edge_list(self, args, kwargs, result):
        self.counts["fileio.read_edge_list_lines"] += len(result)
        self.counts["fileio.bytes_read"] += os.path.getsize(
            _arg(args, kwargs, 0, "path"))

    def _count_read_mm(self, args, kwargs, result):
        self.counts["fileio.read_matrix_market_entries"] += result.nnz
        self.counts["fileio.bytes_read"] += os.path.getsize(
            _arg(args, kwargs, 0, "path"))

    def _count_write_mm(self, args, kwargs, result):
        self.counts["fileio.bytes_written"] += os.path.getsize(
            _arg(args, kwargs, 0, "path"))

    def _count_check(self, args, kwargs, result):
        self.counts["algebra.check_array_values"] += len(
            _arg(args, kwargs, 1, "values"))

    # -- summary --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_pct."""
        dur = np.array([end - start for _, start, end, _ in self.spans])
        child = np.zeros(len(self.spans))
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        own = dur - child
        total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
        nested = Counter()  # (parent name, child name) -> calls
        for i, (name, _, _, parent) in enumerate(self.spans):
            total[name] += dur[i]
            self_s[name] += own[i]
            calls[name] += 1
            if parent >= 0:
                nested[self.spans[parent][0], name] += 1
        c = self.counts

        def per(numer_s, denom):
            return numer_s * 1e9 / denom if denom else 0.0

        read_entries = (c["fileio.read_edge_list_lines"]
                        + c["fileio.read_matrix_market_entries"])
        m = {
            "graph.bfs_levels_s": total["graph.bfs_levels"],
            "graph.bfs_self_s": self_s["graph.bfs_levels"],
            "graph.bfs_hops": nested["graph.bfs_levels", "kernels.mxv"],
            "graph.sssp_minplus_s": total["graph.sssp_minplus"],
            "graph.sssp_self_s": self_s["graph.sssp_minplus"],
            "graph.sssp_rounds": nested["graph.sssp_minplus", "kernels.mxv"],
            "graph.adjacency_from_incidence_s":
                total["graph.adjacency_from_incidence"],
            "graph.laplacian_from_incidence_s":
                total["graph.laplacian_from_incidence"],
            "graph.laplacian_self_s": self_s["graph.laplacian_from_incidence"],
            "kernels.mxv_s": total["kernels.mxv"],
            "kernels.mxv_calls": calls["kernels.mxv"],
            "kernels.mxv_nnz_in": c["kernels.mxv_nnz_in"],
            "kernels.mxv_products": c["kernels.mxv_products"],
            "kernels.mxv_ns_per_product": per(total["kernels.mxv"],
                                              c["kernels.mxv_products"]),
            "kernels.mxm_s": total["kernels.mxm"],
            "kernels.mxm_calls": calls["kernels.mxm"],
            "kernels.mxm_products": c["kernels.mxm_products"],
            "kernels.mxm_nnz_out": c["kernels.mxm_nnz_out"],
            "kernels.mxm_ns_per_product": per(total["kernels.mxm"],
                                              c["kernels.mxm_products"]),
            "kernels.ewise_add_s": total["kernels.ewise_add"],
            "kernels.ewise_add_calls": calls["kernels.ewise_add"],
            "kernels.ewise_mult_s": total["kernels.ewise_mult"],
            "kernels.ewise_mult_calls": calls["kernels.ewise_mult"],
            "kernels.extract_s": total["kernels.extract"],
            "kernels.assign_s": total["kernels.assign"],
            "matrix.build_s": total["matrix.build"],
            "matrix.build_calls": calls["matrix.build"],
            "matrix.build_triples_in": c["matrix.build_triples_in"],
            "matrix.build_nnz_out": c["matrix.build_nnz_out"],
            "matrix.coalesce_s": total["matrix.coalesce"],
            "matrix.coalesce_calls": calls["matrix.coalesce"],
            "matrix.transpose_s": total["matrix.transpose"],
            "matrix.transpose_calls": calls["matrix.transpose"],
            "matrix.extract_tuples_s": total["matrix.extract_tuples"],
            "fileio.read_edge_list_s": total["fileio.read_edge_list"],
            "fileio.read_edge_list_lines": c["fileio.read_edge_list_lines"],
            "fileio.triples_from_edges_s": total["fileio.triples_from_edges"],
            "fileio.incidence_from_edges_s":
                total["fileio.incidence_from_edges"],
            "fileio.read_matrix_market_s": total["fileio.read_matrix_market"],
            "fileio.read_matrix_market_entries":
                c["fileio.read_matrix_market_entries"],
            "fileio.write_matrix_market_s":
                total["fileio.write_matrix_market"],
            "fileio.read_ns_per_entry": per(
                total["fileio.read_edge_list"]
                + total["fileio.read_matrix_market"], read_entries),
            "fileio.bytes_read": c["fileio.bytes_read"],
            "fileio.bytes_written": c["fileio.bytes_written"],
            "cli.main_s": total["cli.main"],
            "cli.calls": calls["cli.main"],
            "cli.self_s": sum(v for k, v in self_s.items()
                              if k.startswith("cli.")),
            "algebra.check_array_s": total["algebra.check_array"],
            "algebra.check_array_calls": calls["algebra.check_array"],
            "algebra.check_array_values": c["algebra.check_array_values"],
        }
        return {k: (int(v) if isinstance(v, (int, np.integer)) else float(v))
                for k, v in m.items()}

    def dump(self, fh, rep):
        """Append this pass's spans as JSON lines."""
        for sid, (name, start, end, parent) in enumerate(self.spans):
            fh.write(json.dumps({"rep": rep, "id": sid, "name": name,
                                 "start": start, "end": end,
                                 "parent": parent}) + "\n")
