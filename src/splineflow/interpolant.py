"""Sampling training triples (t, x, v_target) from noisy spline paths.

Each draw picks a trajectory uniformly, a time uniformly in [0, 1], and a
fresh standard-normal noise vector z, then forms

    x        = s(t) + gamma(t) * z
    v_target = ds/dt(t) + dgamma/dt(t) * z

so that with gamma0 = 0 the pair reduces to plain flow matching against
the spline velocity. `InterpolantSampler` takes the trajectories' knot
tables already stacked as one flat table (built in place by
`trainer.build_splines`) and keeps it without a copy. It reads each
trajectory's rows through per-trajectory row offsets and finds each
draw's segment in a matrix of knot times padded with +inf. Ragged and
equal-length grids therefore take the same path: one gather and one
`segment_derivatives` call per batch.

Training draws through `_draw`, which splinebench does not wrap: the
trainer may run it on the worker pool (`workers`), where no span site
may run. `sample_batch` checks its batch size and draws through it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .spline import NoiseSchedule, segment_derivatives


@dataclass(frozen=True)
class SampleBatch:
    """Vectorized batch of training triples (struct-of-arrays)."""

    t: np.ndarray  # (B,)
    x: np.ndarray  # (B, d)
    v_target: np.ndarray  # (B, d)

    def __len__(self) -> int:
        return int(self.t.size)


class InterpolantSampler:
    """Batched sampler over knot tables stacked in the order of `grids`.

    `table` has shape (sum n_knots, m, d) with m = 1 (linear) or 3 (quintic).
    """

    def __init__(self, grids, table: np.ndarray, schedule: NoiseSchedule):
        if not grids:
            raise InvalidArgumentError("need at least one trajectory grid")
        counts = np.array([len(g) for g in grids])
        shape = np.shape(table)
        if len(shape) != 3 or shape[0] != counts.sum() or shape[1] not in (1, 3):
            raise InvalidArgumentError(
                f"knot table has shape {shape}, expected ({counts.sum()}, 1 or 3, d)"
            )
        self.schedule = schedule
        self.n_trajectories = len(grids)
        self.state_dim = int(shape[2])
        self._offsets = np.cumsum(counts) - counts
        self._last_segment = counts - 2
        self._table = table
        self._times = np.full((len(grids), counts.max()), np.inf)
        for row, grid in zip(self._times, grids):
            row[: len(grid)] = grid.times

    def sample_batch(self, batch_size: int, rng: np.random.Generator) -> SampleBatch:
        """Draw batch_size independent triples; deterministic under a seeded rng."""
        if batch_size < 1:
            raise InvalidArgumentError("batch_size must be positive")
        return self._draw(batch_size, rng)

    def _draw(self, batch_size: int, rng: np.random.Generator) -> SampleBatch:
        """`sample_batch` of a positive batch_size, the trainer's draw on either thread."""
        traj = rng.integers(0, self.n_trajectories, size=batch_size)
        ts = rng.uniform(0.0, 1.0, size=batch_size)
        z = rng.standard_normal((batch_size, self.state_dim))

        times = self._times[traj]  # (B, max knots), +inf past each grid's end
        # Half-open segment lookup; t == 1 clips to the last segment.
        seg = np.sum(ts[:, None] >= times, axis=1) - 1
        seg = np.minimum(seg, self._last_segment[traj])
        rows = np.arange(batch_size)
        t0 = times[rows, seg]
        h = times[rows, seg + 1] - t0
        tau = (ts - t0) / h
        x, v = segment_derivatives(self._table, self._offsets[traj] + seg, tau, h, (0, 1))

        g, gp = self.schedule.from_tau(tau, h)
        return SampleBatch(t=ts, x=x + g[:, None] * z, v_target=v + gp[:, None] * z)
