"""Rollout accuracy metrics and convergence-order estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UndefinedMetricError


def relative_l2(pred: np.ndarray, truth: np.ndarray) -> float:
    """Space-time relative L2 error of one trajectory.

    Frobenius norm of (pred - truth) over all entries divided by the norm
    of the truth.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise InvalidArgumentError(
            f"shape mismatch: pred {pred.shape} vs truth {truth.shape}"
        )
    denom = np.linalg.norm(truth)
    if denom == 0.0:
        raise UndefinedMetricError("relative L2 undefined for all-zero reference")
    return float(np.linalg.norm(pred - truth) / denom)


def row_errors(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Relative L2 error of every state row: |pred - truth| / |truth| over the last axis.

    Raises UndefinedMetricError if any truth row has zero norm.
    """
    num = np.linalg.norm(pred - truth, axis=-1)
    den = np.linalg.norm(truth, axis=-1)
    if np.any(den == 0.0):
        raise UndefinedMetricError("relative error undefined at a zero-norm truth row")
    return num / den


@dataclass
class EvalReport:
    """Aggregated rollout accuracy over a test set."""

    per_traj: np.ndarray
    mean: float
    sd: float
    per_time: np.ndarray  # mean over trajectories of per-step relative error
    final_time_error: float
    nfe: int = 0
    n_diverged: int = 0

    @property
    def median(self) -> float:
        """Median per-trajectory error; unlike the mean, no single diverged row sets it."""
        # Equals np.median, whose first call imports numpy.ma and so leaves
        # about 1 MB of module objects amid the freed arrays of a run.
        ordered = np.sort(self.per_traj)
        return float((ordered[(ordered.size - 1) // 2] + ordered[ordered.size // 2]) / 2.0)


def trajectory_errors(pred: np.ndarray, truth: np.ndarray) -> tuple:
    """One trajectory's part of a report: (relative_l2, row_errors) of pred against truth."""
    return relative_l2(pred, truth), row_errors(pred, truth)


def build_report(errors, nfe: int = 0, diverged=None) -> EvalReport:
    """Per-trajectory and aggregate relative-L2 metrics from per-trajectory errors.

    errors holds each trajectory's `trajectory_errors`, in dataset order;
    the per-time curve averages the instantaneous relative error across
    trajectories (requires equal n_times, which evaluation grids
    guarantee).
    """
    if len(errors) == 0:
        raise InvalidArgumentError("need the errors of at least one trajectory")
    per_traj = np.array([e for e, _ in errors])
    per_time = np.mean([curve for _, curve in errors], axis=0)
    n_div = int(np.sum(diverged)) if diverged is not None else 0
    return EvalReport(
        per_traj=per_traj,
        mean=float(per_traj.mean()),
        sd=float(per_traj.std(ddof=1)) if per_traj.size > 1 else 0.0,
        per_time=per_time,
        final_time_error=float(per_time[-1]),
        nfe=nfe,
        n_diverged=n_div,
    )


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
            orders.append(math.inf)
        else:
            orders.append(float(np.log(e2 / e1) / np.log(h2 / h1)))
    return orders

