"""A fixed calibration kernel that gauges the machine's speed during a run.

On a shared host the speed of the machine drifts by a quarter or more within
minutes, and every timing of a run moves with it. The worker times this
kernel between the phases of every cycle; ``run.py`` multiplies each timing
metric by ``REFERENCE_S`` over the run's median kernel time, so a metric reads
in seconds at the machine speed at which the kernel takes ``REFERENCE_S``.

The kernel mixes the kinds of work the program does, each about a quarter of
its time: interpreted per-row dispatch around small numpy calls, string
splitting and dict look-ups as in parsing, a full-catalogue sort, and a large
gather with a row-wise dot product. Its inputs are fixed, independent of the
seed and of the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the 2-vCPU reference machine (perfbench/README.md).
REFERENCE_S = 0.030


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20181105)
        self.A = rng.random((20000, 20))
        self.B = rng.random((8000, 20))
        self.rows = rng.integers(0, 20000, 20000)
        self.cols = rng.integers(0, 8000, 20000)
        self.small = [rng.integers(0, 8000, 12) for _ in range(64)]
        self.scores = rng.random(16000)
        self.lines = [f"u{(j * 2654435761) % 2**32:08x},i{(j * 40503) % 2**32:08x},1" for j in range(9000)]
        self.samples: list[float] = []

    def kernel(self) -> float:
        a = self.A[0].copy()
        for j in range(400):
            b = self.B[self.small[j % 64]]
            dots = np.maximum(b @ a, 1e-12)
            a = np.maximum(0.0, a - 1e-3 * (b.sum(axis=0) - (1.0 / dots) @ b))
        ids: dict[str, int] = {}
        total = 0.0
        for line in self.lines:
            user, item, count = line.split(",")
            ids.setdefault(user, len(ids))
            ids.setdefault(item, len(ids))
            total += float(count)
        for _ in range(4):
            order = np.argsort(-self.scores, kind="stable")
        dots = np.einsum("ij,ij->i", self.A[self.rows], self.B[self.cols])
        return float(a.sum() + total + order[0] + np.log(dots).sum())

    def measure(self) -> float:
        """Time the kernel once and keep the sample."""
        start = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed
