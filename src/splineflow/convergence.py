"""Spline-velocity convergence study against the analytic Lorenz dynamics.

Regularly downsamples trajectories on one shared uniform grid by factors
(1, 2, 4, ...), rebuilds linear and quintic splines, and measures how
well the spline velocity at segment endpoints matches the true
right-hand side. Because time is normalized, the spline velocity is
compared against raw_horizon * rhs(u). Expected behavior: first-order
accuracy for linear splines, second-order for quintic, with the error
constant set by the trajectory ensemble.

The shared grid lets a block of trajectories be one spline: their
snapshots stack side by side as an (n_knots, b * d) array, and since the
knot-derivative stencils and the spline evaluator act per component, one
build and one evaluator call give every trajectory's velocities exactly.
The per-segment errors are put back in dataset order (trajectory by
trajectory) before the mean, so it sums in the same order as a
per-trajectory loop and the rows are the same bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .metrics import empirical_order, row_errors
from .spline import build_linear, build_quintic, segment_derivatives
from .systems import TrajectorySet, lorenz_rhs
from .timegrid import TimeGrid


@dataclass(frozen=True)
class ConvergenceRow:
    spline_kind: str
    factor: int
    dt_seconds: float
    n_segments: int
    err_tau0: float
    err_tau1: float
    order_tau0: float  # nan for the finest level
    order_tau1: float


def segment_endpoint_velocities(grid: TimeGrid, table: np.ndarray):
    """One-sided spline velocities at both endpoints of every segment of the grid.

    Returns (v0, v1) with shape (n_segments, d): the right-limit velocity
    at each segment start and the left-limit velocity at each segment end.
    For linear splines both equal the segment slope; for quintic splines
    they equal the knot derivative data by the Hermite endpoint
    conditions.
    """
    n = grid.n_segments
    left = np.concatenate([np.arange(n)] * 2)
    h = np.concatenate([grid.steps] * 2)
    tau = np.repeat([0.0, 1.0], n)  # segment starts, then segment ends
    (v,) = segment_derivatives(table, left, tau, h, (1,))
    return v[:n], v[n:]


# Trajectories per stacked spline. On the default Lorenz training split
# (1,000 x 201), stacking all trajectories at once peaks at about 92 MB of
# temporaries under tracemalloc; blocks of 100 peak at about 12 MB and run
# as fast.
_BLOCK = 100


def downsample_regular(grid: TimeGrid, values: np.ndarray, factor: int):
    """Keep every factor-th knot; the factor must divide the segment count."""
    _check_factor(grid.n_segments, factor)
    keep = np.arange(0, len(grid), factor)
    return TimeGrid(times=grid.times[keep]), values[keep]


def _check_factor(n_segments: int, factor: int) -> None:
    if factor < 1:
        raise InvalidArgumentError("downsample factor must be >= 1")
    if n_segments % factor != 0:
        raise InvalidArgumentError(
            f"factor {factor} does not divide the {n_segments}-segment grid"
        )


def endpoint_velocity_study(dataset: TrajectorySet, factors=(1, 2, 4)) -> list:
    """Endpoint velocity errors and empirical orders per spline and factor.

    Requires a Lorenz dataset (the study needs the analytic right-hand
    side) whose trajectories share one uniform grid, and at least two
    distinct factors that each divide its segment count. Errors average
    the per-endpoint relative L2 over all segments of all trajectories.
    """
    if dataset.system_tag != "lorenz":
        raise InvalidArgumentError(
            "the convergence study needs the analytic Lorenz dynamics; "
            f"got a {dataset.system_tag!r} dataset"
        )
    grids = dataset.grids
    if not grids or not grids[0].is_uniform() or any(
        not np.array_equal(g.times, grids[0].times) for g in grids
    ):
        raise InvalidArgumentError(
            "the convergence study needs trajectories on one uniform grid shared by all"
        )
    grid = grids[0]
    factors = tuple(factors)
    if len(factors) < 2 or len(set(factors)) != len(factors):
        raise InvalidArgumentError(
            f"the convergence study needs at least two distinct factors, got {factors}"
        )
    for factor in factors:
        _check_factor(grid.n_segments, factor)

    rows = []
    for kind in ("linear", "quintic"):
        errs0, errs1, dts = [], [], []
        for factor in factors:
            acc0, acc1 = [], []
            for lo in range(0, dataset.n_traj, _BLOCK):
                block = np.stack(dataset.states[lo : lo + _BLOCK], axis=1)
                e0, e1 = _block_endpoint_errors(kind, grid, block, factor, dataset.raw_horizon)
                acc0.append(e0)
                acc1.append(e1)
            errs0.append(float(np.mean(np.concatenate(acc0))))
            errs1.append(float(np.mean(np.concatenate(acc1))))
            dts.append(factor * dataset.raw_horizon * float(grid.steps[0]))
        orders0 = [np.nan] + empirical_order(errs0, dts)
        orders1 = [np.nan] + empirical_order(errs1, dts)
        for i, factor in enumerate(factors):
            rows.append(
                ConvergenceRow(
                    spline_kind=kind,
                    factor=factor,
                    dt_seconds=dts[i],
                    n_segments=dataset.n_traj * (grid.n_segments // factor),
                    err_tau0=errs0[i],
                    err_tau1=errs1[i],
                    order_tau0=float(orders0[i]),
                    order_tau1=float(orders1[i]),
                )
            )
    return rows


def _block_endpoint_errors(kind, grid, block, factor, raw_horizon):
    """Per-endpoint relative errors of a (n_knots, b, d) block of trajectories.

    One spline over the block's b * d stacked components; returns the
    errors at segment starts and at segment ends, each flat in dataset
    order (all segments of the block's first trajectory, then its second,
    ...).
    """
    sub_grid, knots = downsample_regular(grid, block, factor)  # (n_sub, b, d)
    build = build_linear if kind == "linear" else build_quintic
    table = build(sub_grid, knots.reshape(len(sub_grid), -1))
    v0, v1 = segment_endpoint_velocities(sub_grid, table)
    truth = raw_horizon * lorenz_rhs(knots)
    e0 = row_errors(v0.reshape(truth[:-1].shape), truth[:-1])  # (n_seg, b)
    e1 = row_errors(v1.reshape(truth[1:].shape), truth[1:])
    return e0.T.ravel(), e1.T.ravel()
