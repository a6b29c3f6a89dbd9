"""How fast the host runs, from a fixed reference kernel.

The host the benchmark was written on is a shared VM whose speed drifts by
a quarter or more over minutes (perfbench/NOTES.md, **Noise**).  run.py
times this kernel between passes and scales the run's timings by
``REF_S / fastest()``.  The kernel imports nothing from echosim, so no
change to the program can move it; only the host's speed can.  It mirrors
the mix of work in the workloads: a dense n x n comparison mask with
elementwise masked sums (the shape of the opinion update, n x n
temporaries included) and pure-Python string formatting and dictionary
work (the shape of the CSV writers, the graph analyses and the DOT export).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

N = 1000
LAPS = 10

# fastest() on the host where the baseline in NOTES.md was taken, so that
# scaled timings read as seconds on that host
REF_S = 0.020


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random(N)
        self.eps = 0.05 + 0.25 * rng.random(N)
        self.xs = self.x.tolist() * 4
        self.dense_s: list[float] = []
        self.python_s: list[float] = []
        self._dense()
        self._python()

    def _dense(self) -> float:
        x = self.x
        a = np.abs(x[None, :] - x[:, None]) <= self.eps[:, None]
        return float(((a * x[None, :]).sum(axis=1) / a.sum(axis=1)).sum())

    def _python(self) -> int:
        rows = [f"{i},{v!r},{v * 0.5!r}\n" for i, v in enumerate(self.xs)]
        index: dict = {}
        for i, v in enumerate(self.xs):
            index.setdefault(int(v * 97), []).append(i)
        return len("".join(rows)) + sum(len(c) for c in index.values())

    def sample(self) -> None:
        """Time LAPS laps of each half of the kernel."""
        for _ in range(LAPS):
            t0 = perf_counter()
            self._dense()
            t1 = perf_counter()
            self._python()
            t2 = perf_counter()
            self.dense_s.append(t1 - t0)
            self.python_s.append(t2 - t1)

    def fastest(self) -> float:
        """Seconds for one lap of the kernel, each half at its fastest."""
        return min(self.dense_s) + min(self.python_s)

    def factor(self) -> float:
        """Multiply a timing by this to read it at the reference host's speed."""
        return REF_S / self.fastest()
