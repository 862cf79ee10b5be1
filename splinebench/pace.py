"""How fast the host runs right now, from a fixed numpy workload.

The benchmark shares a few cores of a busy host. A fixed numpy loop
there takes anywhere from 0.8x to 1.5x its usual time, and the
slowdown wanders over seconds and minutes. Medians within one run cannot
remove drift that outlasts the run, so two runs of the same code minutes
apart disagree by more than any bound worth keeping.

So the end-to-end timings are scaled to a reference pace. Right before
and right after each timed CLI command, the benchmark times this module's
workload, which is benchmark code and never calls splineflow. A command's
scaled time is its wall time x NOMINAL_S / (mean of the two reference
times). When the host is slow, both slow down together and the ratio
stays put; when the program gets faster or slower, only the command
moves, and the scaled time moves by the same factor.

The workload mixes what the program spends its time on: batched MLP
layers (training steps), many small forward calls (rollouts), and
gathers from a 4.8 MB array (sampling spline knots). It runs on the
benchmark's own core because that is where the slowdowns happen: the
same loop timed by a second process on the other core does not see them.
"""

from __future__ import annotations

import time

import numpy as np

# About the time of one `ReferencePace.sample()` on a quiet 2-core x86-64
# box (OpenBLAS 0.3.31, one thread, numpy 2.4.6). Scaled times are in
# seconds at this pace; the constant only fixes their scale.
NOMINAL_S = 0.05


class ReferencePace:
    """A fixed workload whose duration measures the host's current speed."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        widths = (20, 64, 128, 128, 64, 3)
        self.weights = [rng.standard_normal((a, b)) / np.sqrt(a) for a, b in zip(widths, widths[1:])]
        self.batch = rng.standard_normal((256, widths[0]))
        self.rows = rng.standard_normal((100, widths[0]))
        self.knots = rng.standard_normal((2000, 50, 6))  # 4.8 MB
        self.picks = rng.integers(0, len(self.knots), size=(96, 500))
        self.sample()  # first call pays for allocation

    def _mlp(self, x):
        for w in self.weights[:-1]:
            x = np.maximum(x @ w, 0.0)
        return x @ self.weights[-1]

    def _work(self) -> float:
        total = 0.0
        for _ in range(20):  # batched layers, forward and back through the transposes
            h = self._mlp(self.batch)
            g = h @ self.weights[-1].T
            for w in reversed(self.weights[1:-1]):
                g = g @ w.T
            total += float(g[0, 0])
        x = self.rows
        for _ in range(80):  # small calls, where per-call overhead dominates
            x = x + 1e-3 * np.pad(self._mlp(x), ((0, 0), (0, 17)))
        total += float(x[0, 0])
        for pick in self.picks:  # gathers, as when sampling spline knots
            total += float(self.knots[pick].sum())
        return total

    def sample(self) -> float:
        """Seconds one pass of the workload takes now."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    @staticmethod
    def scale(wall: float, around) -> float:
        """A wall time at the reference pace, given reference samples taken around it."""
        return wall * NOMINAL_S / (sum(around) / len(around))
