"""Machine-speed probe timed next to every measurement.

On a shared 2-core VM the same repeat took anywhere from 1.3 s to 2.2 s
within a few minutes, as neighbours loaded the host, and the medians of
20-second runs spread by 8-33% (IQR over median, ten runs). The probe is a
fixed workload that does not use crslab, made of the operations crslab's
engines spend their time in (stable argsort, row gathers, nonzero,
np.add.at), timed right before and after each repeat. Times reported in
seconds are scaled by REFERENCE_S / probe time, so they read as seconds on a
machine where the probe takes REFERENCE_S (its median on a 2-core Xeon with
Python 3.11 and numpy 2.4) and most of the host's drift cancels: scaled
medians spread by 3-7%. The raw wall times stay in the BENCH_*.json results.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.08
ROWS, STEPS, ROUNDS = 20_000, 12, 10


class Probe:
    def __init__(self, np):
        self.np = np
        self.Y = np.random.default_rng(12345).random((ROWS, STEPS))
        self.rows = np.arange(ROWS)

    def __call__(self) -> float:
        """Seconds one probe takes now."""
        np, Y, rows = self.np, self.Y, self.rows
        start = time.perf_counter()
        for _ in range(ROUNDS):
            order = np.argsort(Y, axis=1, kind="stable")
            counts = np.zeros(Y.shape[1], dtype=np.int64)
            for k in range(Y.shape[1]):
                v = order[:, k]
                idx = np.nonzero(Y[rows, v] < 0.5)[0]
                np.add.at(counts, v[idx], 1)
        return time.perf_counter() - start

    def scale(self, before: float, after: float) -> float:
        """Factor turning a wall time measured between two probes into reference seconds."""
        return REFERENCE_S / (0.5 * (before + after))
