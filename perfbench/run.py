"""Run one graphmat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload traverse-rmat --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout: graphmat is imported from
``src/`` beside this directory, never from an installed copy. With
``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric
instead. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# one process, one thread: no BLAS or OpenMP pool may add load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.calibration import Calibration, scale  # noqa: E402
from perfbench.tracing import PER_LAYER, Tracer  # noqa: E402
from perfbench.workloads import FULL, TOY, WORKLOADS  # noqa: E402

RUN_DIR = ROOT / ".perfbench_runs"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bfs_p50_ms", "ms"),
    ("bfs_teps", "edges/s"),
    ("sssp_p50_ms", "ms"),
    ("sssp_teps", "edges/s"),
    ("mxm_p50_ms", "ms"),
    ("mxm_products_per_s", "products/s"),
    ("cli_p50_ms", "ms"),
    ("ingest_entries_per_s", "entries/s"),
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_graphmat():
    """Import graphmat from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "graphmat" / "__init__.py").is_file():
        raise SetupError(f"no graphmat sources under {src}")
    sys.path.insert(0, str(src))
    import graphmat
    import graphmat.cli
    if Path(graphmat.__file__).resolve().parent != (src / "graphmat").resolve():
        raise SetupError(f"graphmat imported from {graphmat.__file__}, "
                         f"not from {src}")
    return graphmat


@dataclass
class Samples:
    """Per-op timings of the timed passes, and the pass/fail tally.

    Right before each timed op the calibration kernel runs once, and the
    op's time is kept both as measured and scaled by that kernel's time
    to the reference host's speed (see calibration.py)."""

    times: dict = field(default_factory=dict)   # (kind, label) -> [seconds]
    scaled: dict = field(default_factory=dict)  # the same, scaled
    work: dict = field(default_factory=dict)    # (kind, label) -> op.work
    cal: Calibration = field(default_factory=Calibration)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def run_list(self, ops, keep_times=True):
        total = 0.0
        for op in ops:
            kernel = self.cal.run() if keep_times else None
            t0 = perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            total += dt
            if error is None:
                try:
                    if not op.check(result):
                        error = "wrong result"
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{op.label}: {error}")
            elif keep_times:
                key = op.kind, op.label
                self.times.setdefault(key, []).append(dt)
                self.scaled.setdefault(key, []).append(scale(dt, kernel))
                self.work[key] = op.work
        return total

    def raw(self, kind):
        """Every measured sample of this kind."""
        return [t for key, ts in self.times.items() if key[0] == kind
                for t in ts]


def tail(seconds):
    """Highest nearest-rank percentile with at least ten samples above
    it, and never below the median: with fewer than 21 samples it is
    the median."""
    xs = sorted(seconds)
    k = max(len(xs) - 11, (len(xs) - 1) // 2)
    return xs[k], 100.0 * (k + 1) / len(xs)


def timed_metrics(times, work, ops, setup):
    """{name: (value, note)} for every time-based end-to-end metric,
    from per-op samples {(kind, label): [seconds]} and set-up samples.

    An op's time is its median over the run, and a latency metric is
    the median of those over the workload's ops of that family."""
    med = {key: statistics.median(ts) for key, ts in times.items()}
    out = {
        "setup_s": (statistics.median(setup),
                    f"median of {len(setup)} set-ups"),
        "wall_s": (sum(med.get((op.kind, op.label), 0.0) for op in ops),
                   f"{len(ops)} ops, each its median over the run"),
    }
    for kind in ("bfs", "sssp", "mxm", "cli"):
        typ = [(t, work[key]) for key, t in med.items() if key[0] == kind]
        if not typ:
            raise SetupError(f"no successful {kind} operation to time")
        out[f"{kind}_p50_ms"] = (
            statistics.median(t for t, _ in typ) * 1e3,
            f"median of {len(typ)} ops, each its median over the run")
        if kind in ("bfs", "sssp"):
            out[f"{kind}_teps"] = (
                statistics.harmonic_mean([w / t for t, w in typ]),
                f"harmonic mean over {len(typ)} roots")
        if kind in ("mxm", "cli"):
            name, what = {"mxm": ("mxm_products_per_s", "products"),
                          "cli": ("ingest_entries_per_s", "entries read")}[kind]
            n, secs = sum(w for _, w in typ), sum(t for t, _ in typ)
            out[name] = (n / secs, f"{n} {what} in {secs:.3f} s")
    return out


def end_to_end(s: Samples, ops, setup_raw, setup_scaled):
    """{name: (value, note)} for every end-to-end metric, and the
    informational lines printed after them.

    A shared host's speed swings by up to 1.9x, from one second to the
    next and over minutes (other tenants share its cores and caches),
    and that noise only adds time. Every time metric therefore comes
    from samples each scaled by the calibration kernel timed right
    before it; the measured values are printed as well.
    """
    out = timed_metrics(s.scaled, s.work, ops, setup_scaled)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0, "ru_maxrss of this process")
    info = [f"host slowdown = {s.cal.slowdown():.4g}  (median calibration "
            f"kernel over the reference, {len(s.cal.samples)} samples)"]
    units = dict(END_TO_END)
    for name, (value, _) in timed_metrics(s.times, s.work, ops,
                                          setup_raw).items():
        info.append(f"unscaled {name} = {value:.6g} {units[name]}")
    for kind in ("bfs", "sssp"):
        samples = s.raw(kind)
        value, pct = tail(samples)
        info.append(f"{kind}_tail_ms = {value * 1e3:.6g} ms  (p{pct:.0f} of "
                    f"{len(samples)} samples, unscaled; not gated)")
    return {name: out[name] for name, _ in END_TO_END}, info


def measure(name, seed, seconds, trace, sizes=FULL, workdir=None):
    """Run one workload; returns (result dict, printable lines, the
    first failures)."""
    gm = import_graphmat()
    cls = WORKLOADS[name]
    workdir = Path(workdir or RUN_DIR / f"work-{os.getpid()}")
    s = Samples()

    setup_raw, setup_scaled = [], []

    def set_up(where):
        """One timed set-up, with a warm-up pass over a toy-sized copy;
        a warm-up failure counts as a failed op."""
        (where / "warm").mkdir(parents=True, exist_ok=True)
        kernel = s.cal.run()
        t0 = perf_counter()
        wl = cls(gm, sizes, seed, where)
        wl.setup()
        warm = cls(gm, TOY, seed, where / "warm")
        warm.setup()
        s.run_list(warm.ops(), keep_times=False)
        dt = perf_counter() - t0
        setup_raw.append(dt)
        setup_scaled.append(scale(dt, kernel))
        return wl

    try:
        wl = set_up(workdir)
        ops = wl.ops()
        lines = [f"workload {name} seed {seed} trace {trace} "
                 f"ops-per-list {len(ops)}"]
        lines += [f"input {fp}" for fp in wl.fingerprints]
        start = perf_counter()
        if trace:
            metrics = traced(gm, name, seed, ops, s, seconds, start)
            units = dict(PER_LAYER)
            notes, info = {}, []
        else:
            # A set-up after every pass, into a directory of its own and
            # then dropped, so that setup_s samples the host's speed
            # over the whole run as the operations' times do.
            longest = 0.0
            while True:
                t0 = perf_counter()
                s.run_list(ops)
                set_up(workdir / "again")
                longest = max(longest, perf_counter() - t0)
                if perf_counter() - start + longest > seconds:
                    break
            table, info = end_to_end(s, ops, setup_raw, setup_scaled)
            metrics = {k: v for k, (v, _) in table.items()}
            notes = {k: n for k, (_, n) in table.items()}
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rate = s.failed / s.attempted
    lines.append(f"error_rate = {rate:.6g} ({s.failed} failed / "
                 f"{s.attempted} attempted)")
    for k, v in metrics.items():
        note = f"  ({notes[k]})" if k in notes else ""
        lines.append(f"{k} = {v:.6g} {units[k]}{note}")
    lines += info
    result = {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return result, lines, s.errors


def traced(gm, name, seed, ops, s: Samples, seconds, start):
    """Alternate untraced and traced passes over the fixed list. Each
    per-layer metric is its median over the traced passes (counts repeat
    exactly), as the set-up time is; see end_to_end()."""
    plain, walls, tracers = [], [], []
    longest = 0.0
    while True:
        t0 = perf_counter()
        plain.append(s.run_list(ops, keep_times=False))
        tracer = Tracer(gm)
        tracer.install()
        try:
            walls.append(s.run_list(ops, keep_times=False))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        longest = max(longest, perf_counter() - t0)
        if perf_counter() - start + longest > seconds:
            break
    RUN_DIR.mkdir(exist_ok=True)
    with open(RUN_DIR / f"spans-{name}-seed{seed}.jsonl", "w") as fh:
        for rep, tracer in enumerate(tracers):
            tracer.dump(fh, rep)
    layers = [t.layer_metrics() for t in tracers]
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    base = statistics.median(plain)
    metrics["trace.overhead_pct"] = (statistics.median(walls) - base) / base * 100
    return metrics


def run_all(args):
    """Each workload in its own process, so peak memory stays its own."""
    failed = False
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], check=False)
        failed |= proc.returncode != 0
    return 1 if failed else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, lines, errors = measure(args.workload, args.seed,
                                        args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
