"""API-overhead benchmark harness.

Generates R-MAT random graphs, then times each operation twice per
trial: once through the public validated API and once through the
internal kernel it delegates to. The reported overhead percentage is
the relative cost of the public surface. Graph generation and input
setup are excluded from the timings.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import kernels, matrix
from .algebra import Semiring, semiring_by_name
from .errors import GraphMatError
from .matrix import SparseMatrix, build

# Graph500-style R-MAT quadrant probabilities
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19
MAX_SCALE = 16
DEFAULT_EDGE_FACTOR = 32
DEFAULT_TRIALS = 10

BENCH_OPERATIONS = ("mxm", "mxv", "ewise_add", "ewise_mult",
                    "extract", "assign", "transpose")


@dataclass
class BenchReport:
    operation: str
    semiring: str
    scale: int
    vertices: int
    edges: int
    trials: int
    mean_api_us: float
    mean_direct_us: float
    # lowest and highest overhead of a single trial, in percent: when
    # they straddle overhead_percent widely, the trials are noise
    overhead_spread: tuple[float, float]

    @property
    def overhead_percent(self) -> float:
        return 100.0 * (self.mean_api_us - self.mean_direct_us) \
            / self.mean_direct_us

    def machine_line(self) -> str:
        return (f"{self.operation},{self.scale},{self.edges},"
                f"{self.mean_api_us:.3f},{self.mean_direct_us:.3f},"
                f"{self.overhead_percent:.3f}")


def rmat_edge_arrays(scale, edge_factor, seed):
    """Deterministic R-MAT edge endpoints, symmetrized (undirected)."""
    n = 1 << scale
    n_edges = edge_factor * n
    rng = np.random.default_rng(seed)
    rows = np.zeros(n_edges, dtype=np.int64)
    cols = np.zeros(n_edges, dtype=np.int64)
    thresholds = np.array([RMAT_A, RMAT_A + RMAT_B,
                           RMAT_A + RMAT_B + RMAT_C])
    for _ in range(scale):
        quad = np.searchsorted(thresholds, rng.random(n_edges))
        rows = (rows << 1) | (quad >> 1)
        cols = (cols << 1) | (quad & 1)
    return (np.concatenate([rows, cols]),
            np.concatenate([cols, rows]))


def rmat_graph(sr: Semiring, scale, edge_factor, seed) -> SparseMatrix:
    n = 1 << scale
    rows, cols = rmat_edge_arrays(scale, edge_factor, seed)
    vals = np.full(len(rows), sr.one, dtype=sr.domain.dtype)
    return build(sr, (n, n), (rows, cols, vals))


def _bench_inputs(operation, sr, a):
    """(api_callable, direct_callable) closed over prepared inputs."""
    n = a.nrows
    if operation == "mxm":
        return (lambda: kernels.mxm(sr, a, a),
                lambda: kernels._mxm(sr, a, a))
    if operation == "mxv":
        # start from a high-degree vertex, one-hot frontier
        hub = int(np.argmax(np.diff(a.indptr)))
        v = build(sr, (n, 1), ([hub], [0], [sr.one]))
        return (lambda: kernels.mxv(sr, a, v),
                lambda: kernels._mxv(sr, a, v))
    if operation in ("ewise_add", "ewise_mult"):
        b = matrix.transpose(a)
        if operation == "ewise_add":
            return (lambda: kernels.ewise_add(sr.add, sr.zero, a, b),
                    lambda: kernels._ewise_add(sr.add, sr.zero, a, b))
        return (lambda: kernels.ewise_mult(sr.mul, sr.zero, a, b),
                lambda: kernels._ewise_mult(sr.mul, sr.zero, a, b))
    if operation == "extract":
        idx = np.arange(0, n, 2, dtype=np.int64)
        return (lambda: kernels.extract(a, idx, idx),
                lambda: kernels._extract(a, idx, idx))
    if operation == "assign":
        idx = np.arange(0, n, 2, dtype=np.int64)
        sub = kernels.extract(matrix.transpose(a), idx, idx)
        return (lambda: kernels.assign(a, idx, idx, sub),
                lambda: kernels._assign(a, idx, idx, sub))
    if operation == "transpose":
        return (lambda: matrix.transpose(a),
                lambda: matrix._transpose(a))
    raise GraphMatError(f"unknown benchmark operation {operation!r}")


def run_bench(operation, scales, edge_factor=DEFAULT_EDGE_FACTOR,
              semiring_name="arith-real", trials=DEFAULT_TRIALS,
              seed=1) -> list[BenchReport]:
    """Time one operation across a range of R-MAT scales."""
    if operation not in BENCH_OPERATIONS:
        raise GraphMatError(
            f"unknown benchmark operation {operation!r}; "
            f"choose from {', '.join(BENCH_OPERATIONS)}")
    if trials < 1:
        raise GraphMatError("trials must be at least 1")
    if edge_factor < 0:
        raise GraphMatError(f"edge factor {edge_factor} is below 0")
    sr = semiring_by_name(semiring_name)
    reports = []
    for scale in scales:
        if not 0 <= scale <= MAX_SCALE:
            raise GraphMatError(
                f"scale {scale} outside the guard [0, {MAX_SCALE}]")
        a = rmat_graph(sr, scale, edge_factor, seed)
        api_fn, direct_fn = _bench_inputs(operation, sr, a)
        api_fn()  # warmup both paths
        direct_fn()
        api_times, direct_times = [], []
        for _ in range(trials):
            t0 = time.perf_counter()
            api_fn()
            t1 = time.perf_counter()
            direct_fn()
            t2 = time.perf_counter()
            api_times.append((t1 - t0) * 1e6)
            direct_times.append((t2 - t1) * 1e6)
        per_trial = [100.0 * (x - y) / y
                     for x, y in zip(api_times, direct_times)]
        reports.append(BenchReport(
            operation=operation,
            semiring=semiring_name,
            scale=scale,
            vertices=a.nrows,
            edges=a.nnz,
            trials=trials,
            mean_api_us=statistics.fmean(api_times),
            mean_direct_us=statistics.fmean(direct_times),
            overhead_spread=(min(per_trial), max(per_trial)),
        ))
    return reports


def overhead_gate(reports, threshold_percent=5.0) -> bool:
    """Median overhead across reports below the artifact gate."""
    med = statistics.median(r.overhead_percent for r in reports)
    return med < threshold_percent
