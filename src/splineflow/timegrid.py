"""Per-trajectory time grids, normalized to [0, 1].

A grid stores dimensionless sample times (first point 0, last point 1).
The physical horizon in seconds that was divided out belongs to the
trajectory set (`TrajectorySet.raw_horizon`). All downstream code
(splines, training, rollouts) works in normalized time; only dataset
generation and step-size reporting touch seconds.

`TimeGrid.stride` is the one rule for thinning a grid regularly (eval
strides, convergence factors): every k-th point, endpoints included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times in [0, 1].

    times: normalized sample times, times[0] == 0 and times[-1] == 1.
    """

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise InvalidArgumentError("a time grid needs at least 2 points")
        if not (np.all(np.diff(times) > 0.0)):
            raise InvalidArgumentError("grid times must be strictly increasing")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise InvalidArgumentError("normalized grid must start at 0 and end at 1")
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

    def is_uniform(self) -> bool:
        h = self.steps
        return bool(np.allclose(h, h[0], rtol=1e-9, atol=1e-14))

    def stride(self, k: int) -> slice:
        """Slice of every k-th point; k >= 1 must divide the segment count."""
        if k < 1:
            raise InvalidArgumentError(f"stride must be >= 1, got {k}")
        if self.n_segments % k != 0:
            raise InvalidArgumentError(f"stride {k} does not divide the {self.n_segments}-segment grid")
        return slice(0, None, k)


def uniform_grid(n_points: int) -> TimeGrid:
    """Uniform grid with times[i] = i / (n_points - 1)."""
    if n_points < 2:
        raise InvalidArgumentError(f"n_points must be >= 2, got {n_points}")
    return TimeGrid(times=np.linspace(0.0, 1.0, n_points))


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

