"""Per-trajectory time grids, normalized to [0, 1].

A grid stores dimensionless sample times (first point 0, last point 1)
plus the physical horizon in seconds that was divided out at ingestion.
All downstream code (splines, training, rollouts) works in normalized
time; only dataset generation and step-size reporting touch seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times in [0, 1].

    times: normalized sample times, times[0] == 0 and times[-1] == 1.
    raw_horizon: the physical duration (seconds) the unit interval maps to.
    """

    times: np.ndarray
    raw_horizon: float = 1.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise InvalidArgumentError("a time grid needs at least 2 points")
        if not (np.all(np.diff(times) > 0.0)):
            raise InvalidArgumentError("grid times must be strictly increasing")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise InvalidArgumentError("normalized grid must start at 0 and end at 1")
        if not (self.raw_horizon > 0.0):
            raise InvalidArgumentError("raw_horizon must be positive")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def n_segments(self) -> int:
        return len(self) - 1

    @property
    def steps(self) -> np.ndarray:
        """Segment widths in normalized time."""
        return np.diff(self.times)

    @property
    def raw_times(self) -> np.ndarray:
        return self.times * self.raw_horizon

    def is_uniform(self, rtol: float = 1e-9) -> bool:
        h = self.steps
        return bool(np.allclose(h, h[0], rtol=rtol, atol=1e-14))

    @staticmethod
    def from_raw(raw_times, raw_horizon: float | None = None) -> "TimeGrid":
        """Normalize raw times (seconds) so the span becomes [0, 1]."""
        raw = np.asarray(raw_times, dtype=np.float64)
        if raw.ndim != 1 or raw.size < 2:
            raise InvalidArgumentError("a time grid needs at least 2 points")
        span = raw[-1] - raw[0]
        if span <= 0.0:
            raise InvalidArgumentError("raw times must be strictly increasing")
        horizon = span if raw_horizon is None else float(raw_horizon)
        times = (raw - raw[0]) / span
        times[0], times[-1] = 0.0, 1.0
        return TimeGrid(times=times, raw_horizon=horizon)


def uniform_grid(n_points: int, raw_horizon: float = 1.0) -> TimeGrid:
    """Uniform grid with times[i] = i / (n_points - 1)."""
    if n_points < 2:
        raise InvalidArgumentError(f"n_points must be >= 2, got {n_points}")
    return TimeGrid(times=np.linspace(0.0, 1.0, n_points), raw_horizon=raw_horizon)


def subsample_indices(grid: TimeGrid, keep_rate: float, seed) -> np.ndarray:
    """Indices into grid.times of a random irregular subsample (endpoints always in).

    The target count is round-half-up of keep_rate * len(grid); interior
    points are drawn uniformly without replacement. Deterministic for a
    fixed seed.
    """
    if not (0.0 < keep_rate <= 1.0):
        raise InvalidArgumentError(f"keep_rate must lie in (0, 1], got {keep_rate}")
    n = len(grid)
    if keep_rate == 1.0:
        return np.arange(n)
    target = int(np.floor(keep_rate * n + 0.5))
    if target < 3:
        raise InvalidArgumentError(
            f"subsampling to {target} points leaves fewer than 3 knots"
        )
    rng = np.random.default_rng(seed)
    interior = rng.choice(np.arange(1, n - 1), size=target - 2, replace=False)
    return np.concatenate(([0], np.sort(interior), [n - 1]))

