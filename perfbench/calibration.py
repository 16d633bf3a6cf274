"""How fast the host is at a given moment, from a kernel that uses no
graphmat code.

A shared host's speed swings with its other tenants' load, by up to
1.9x, from one second to the next and over minutes, and a run of half a
minute cannot average that out. So the benchmark runs this fixed kernel
right before every timed operation and scales the operation's time by
the kernel's: `scale(seconds, kernel_seconds)` is the time the
operation would take on a host where the kernel takes `REFERENCE_S`.
The kernel mixes the two kinds of work graphmat does: numpy calls on
small arrays from a Python loop (its per-hop and per-call code) and a
large sort (its expand/sort/fold kernels). It imports nothing from
graphmat, so a change to the library moves the scaled times but not
the kernel.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# About the kernel's median time on the 2-vCPU Xeon VM (2.1 GHz) the
# benchmark was written on. Scaled times read as on that host; the
# constant only sets the scale.
REFERENCE_S = 0.0060


def scale(seconds, kernel_seconds):
    """`seconds` at the reference host's speed."""
    return seconds * REFERENCE_S / kernel_seconds


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = [rng.integers(0, 4096, 800) for _ in range(8)]
        self.big = rng.integers(0, 1 << 40, 1 << 18)
        self.samples: list[float] = []

    def run(self) -> float:
        """Run the kernel once; returns its time in seconds."""
        t0 = perf_counter()
        for i in range(20):
            a, b = self.small[i % 8], self.small[(i + 3) % 8]
            u = np.unique(a)
            keep = np.isin(b, u)
            order = np.argsort(b, kind="stable")
            np.cumsum(np.bincount(a, minlength=4096))
            np.searchsorted(u, b[keep])
            np.concatenate([a[order], b[keep]])
        np.sort(self.big)
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    def slowdown(self) -> float:
        """The run's median kernel time over the reference: above 1 when
        the host was slower than the reference host."""
        return statistics.median(self.samples) / REFERENCE_S
