"""Spline-velocity convergence study against the analytic Lorenz dynamics.

Regularly downsamples trajectories on one shared uniform grid by factors
(1, 2, 4, ...) with `TimeGrid.stride`, rebuilds linear and quintic
splines, and measures how well the spline velocity at segment endpoints
matches the true right-hand side. Because time is normalized, the
spline velocity is compared against raw_horizon * rhs(u). Expected
behavior: first-order accuracy for linear splines, second-order for
quintic, with the error constant set by the trajectory ensemble.

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

from .errors import InvalidArgumentError, UndefinedMetricError
from .spline import build_linear, build_quintic, segment_derivatives
from .systems import TrajectorySet, lorenz_rhs
from .timegrid import TimeGrid


@dataclass(frozen=True)
class ConvergenceRow:
    spline: str
    factor: int
    dt_seconds: float
    n_segments: int
    err_tau0: float
    order_tau0: float  # nan for the finest level
    err_tau1: float
    order_tau1: float


def row_errors(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Relative L2 error of every state row: |pred - truth| / |truth| over the last axis.

    Raises UndefinedMetricError if any truth row has zero norm.
    """
    num = np.linalg.norm(pred - truth, axis=-1)
    den = np.linalg.norm(truth, axis=-1)
    if np.any(den == 0.0):
        raise UndefinedMetricError("relative error undefined at a zero-norm truth row")
    return num / den


def empirical_order(errors, steps) -> list:
    """Convergence exponents p = log(e2/e1) / log(h2/h1) per adjacent pair.

    A zero error yields the infinite-order sentinel for its pairs.
    """
    errors = np.asarray(errors, dtype=np.float64)
    steps = np.asarray(steps, dtype=np.float64)
    if errors.size < 2 or errors.size != steps.size:
        raise InvalidArgumentError("need >= 2 matching (error, step) pairs")
    if np.any(errors < 0.0) or np.any(steps <= 0.0):
        raise InvalidArgumentError("errors must be >= 0 and steps > 0")
    orders = []
    for (e1, h1), (e2, h2) in zip(zip(errors, steps), zip(errors[1:], steps[1:])):
        if e1 == 0.0 or e2 == 0.0:
            orders.append(np.inf)
        else:
            orders.append(float(np.log(e2 / e1) / np.log(h2 / h1)))
    return orders


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


def endpoint_velocity_study(dataset: TrajectorySet, factors=(1, 2, 4)) -> list:
    """Endpoint velocity errors and empirical orders per spline and factor.

    Requires a Lorenz dataset of 3-component states (the study needs the
    analytic right-hand side) whose trajectories share one uniform grid,
    and at least two distinct factors that each divide its segment count.
    Errors average the per-endpoint relative L2 over all segments of all
    trajectories.
    """
    if dataset.system_tag != "lorenz":
        raise InvalidArgumentError(
            "the convergence study needs the analytic Lorenz dynamics; "
            f"got a {dataset.system_tag!r} dataset"
        )
    if dataset.state_dim != 3:
        raise InvalidArgumentError(f"a Lorenz state has 3 components, not {dataset.state_dim}")
    dataset.uniform_step()  # raises unless one uniform grid is shared by all
    grid = dataset.shared_grid()
    factors = tuple(factors)
    if len(factors) < 2 or len(set(factors)) != len(factors):
        raise InvalidArgumentError(
            f"the convergence study needs at least two distinct factors, got {factors}"
        )
    for factor in factors:
        grid.stride(factor)  # raises unless the factor divides the grid

    rows = []
    for kind in ("linear", "quintic"):
        errs0, errs1, dts = [], [], []
        for factor in factors:
            acc0, acc1 = [], []
            for lo in range(0, dataset.n_traj, _BLOCK):
                block = dataset.stacked()[lo : lo + _BLOCK].swapaxes(0, 1)
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
                    spline=kind,
                    factor=factor,
                    dt_seconds=dts[i],
                    n_segments=dataset.n_traj * (grid.n_segments // factor),
                    err_tau0=errs0[i],
                    order_tau0=float(orders0[i]),
                    err_tau1=errs1[i],
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
    keep = grid.stride(factor)
    sub_grid, knots = TimeGrid(times=grid.times[keep]), block[keep]  # (n_sub, b, d)
    build = build_linear if kind == "linear" else build_quintic
    table = build(sub_grid, knots.reshape(len(sub_grid), -1))
    v0, v1 = segment_endpoint_velocities(sub_grid, table)
    truth = raw_horizon * lorenz_rhs(knots)
    e0 = row_errors(v0.reshape(truth[:-1].shape), truth[:-1])  # (n_seg, b)
    e1 = row_errors(v1.reshape(truth[1:].shape), truth[1:])
    return e0.T.ravel(), e1.T.ravel()
