"""Spline-velocity convergence study against the analytic Lorenz dynamics.

Regularly downsamples uniform-grid trajectories by factors (1, 2, 4, ...),
rebuilds linear and quintic splines, and measures how well the spline
velocity at segment endpoints matches the true right-hand side. Because
time is normalized, the spline velocity is compared against
raw_horizon * rhs(u). Expected behavior: first-order accuracy for linear
splines, second-order for quintic, with the error constant set by the
trajectory ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .metrics import empirical_order
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


def segment_endpoint_velocities(spline):
    """One-sided spline velocities at both endpoints of every segment.

    Returns (v0, v1) with shape (n_segments, d): the right-limit velocity
    at each segment start and the left-limit velocity at each segment end.
    For linear splines both equal the segment slope; for quintic splines
    they equal the knot derivative data by the Hermite endpoint
    conditions.
    """
    n = spline.grid.n_segments
    left = np.concatenate([np.arange(n)] * 2)
    h = np.concatenate([spline.grid.steps] * 2)
    tau = np.repeat([0.0, 1.0], n)  # segment starts, then segment ends
    (v,) = segment_derivatives(spline.table, left, tau, h, (1,))
    return v[:n], v[n:]


def downsample_regular(grid: TimeGrid, values: np.ndarray, factor: int):
    """Keep every factor-th knot; the factor must divide the segment count."""
    if factor < 1:
        raise InvalidArgumentError("downsample factor must be >= 1")
    n = len(grid)
    if (n - 1) % factor != 0:
        raise InvalidArgumentError(
            f"factor {factor} does not divide the {n - 1}-segment grid"
        )
    keep = np.arange(0, n, factor)
    return (
        TimeGrid(times=grid.times[keep], raw_horizon=grid.raw_horizon),
        values[keep],
    )


def endpoint_velocity_study(dataset: TrajectorySet, factors=(1, 2, 4)) -> list:
    """Endpoint velocity errors and empirical orders per spline and factor.

    Requires a uniform-grid Lorenz dataset (the study needs the analytic
    right-hand side). Errors average the per-endpoint relative L2 over
    all segments of all trajectories.
    """
    if dataset.system_tag != "lorenz":
        raise InvalidArgumentError(
            "the convergence study needs the analytic Lorenz dynamics; "
            f"got a {dataset.system_tag!r} dataset"
        )
    for g in dataset.grids:
        if not g.is_uniform():
            raise InvalidArgumentError("the convergence study needs uniform grids")

    rows = []
    for kind in ("linear", "quintic"):
        errs0, errs1, dts, counts = [], [], [], []
        for factor in factors:
            acc0, acc1, n_seg = [], [], 0
            for grid, values in zip(dataset.grids, dataset.states):
                sub_grid, sub_values = downsample_regular(grid, values, factor)
                spline = (
                    build_linear(sub_grid, sub_values)
                    if kind == "linear"
                    else build_quintic(sub_grid, sub_values)
                )
                v0, v1 = segment_endpoint_velocities(spline)
                truth0 = dataset.raw_horizon * lorenz_rhs(sub_values[:-1])
                truth1 = dataset.raw_horizon * lorenz_rhs(sub_values[1:])
                acc0.append(_relative_rows(v0, truth0))
                acc1.append(_relative_rows(v1, truth1))
                n_seg += sub_grid.n_segments
            errs0.append(float(np.mean(np.concatenate(acc0))))
            errs1.append(float(np.mean(np.concatenate(acc1))))
            dts.append(factor * dataset.raw_horizon * float(dataset.grids[0].steps[0]))
            counts.append(n_seg)
        orders0 = [np.nan] + empirical_order(errs0, dts)
        orders1 = [np.nan] + empirical_order(errs1, dts)
        for i, factor in enumerate(factors):
            rows.append(
                ConvergenceRow(
                    spline_kind=kind,
                    factor=factor,
                    dt_seconds=dts[i],
                    n_segments=counts[i],
                    err_tau0=errs0[i],
                    err_tau1=errs1[i],
                    order_tau0=float(orders0[i]),
                    order_tau1=float(orders1[i]),
                )
            )
    return rows


def _relative_rows(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    num = np.linalg.norm(pred - truth, axis=-1)
    den = np.linalg.norm(truth, axis=-1)
    return num / np.where(den == 0.0, np.inf, den)
