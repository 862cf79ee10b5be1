"""Rollout-based model evaluation shared by the trainer and the CLI.

Trajectories with identical evaluation grids are integrated as one batch;
blow-ups are masked (frozen rows) so a single unstable trajectory cannot
abort a test-set sweep - it simply scores a huge error. The scored times
are a slice of each grid, so truths and predictions are views of the
dataset's snapshot arrays and of the rollout's state tensor, not copies.
`rollout`, `ar_rollout` and `rollout_reverse` are looked up here at call
time, so wrapping them on this module (as splinebench does to count rows
and NFE) reaches every study.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import InvalidArgumentError
from .metrics import EvalReport, build_report, relative_l2, row_errors
from .odeint import SolverConfig, ar_rollout, rollout, rollout_reverse
from .systems import TrajectorySet
from .vector_field import VectorFieldParams, forward_batch

REVERSE_MAX_HORIZONS = 20  # backward horizons per anchor in reverse_time_study
NOISE_SEED_SCALE = 1e9  # a noise level's seed key is round(level * NOISE_SEED_SCALE)


def flow_field(params: VectorFieldParams):
    """The learned right-hand side as f(t, u) on (B, d) states."""
    return lambda t, u: forward_batch(params, t, u)


def one_step_map(params: VectorFieldParams):
    """The learned next-state map as F(u) on (B, d) states."""
    return lambda u: forward_batch(params, 0.0, u)


def strided_indices(n_times: int, stride: int) -> slice:
    """Slice 0, stride, ..., n_times-1 (selects views); stride must divide the span."""
    if stride < 1:
        raise InvalidArgumentError("eval stride must be >= 1")
    if (n_times - 1) % stride != 0:
        raise InvalidArgumentError(
            f"stride {stride} does not divide the grid span of {n_times - 1} intervals"
        )
    return slice(0, None, stride)


def _grouped_by_grid(dataset: TrajectorySet):
    groups = {}
    for idx, grid in enumerate(dataset.grids):
        groups.setdefault(grid.times.tobytes(), []).append(idx)
    return [(dataset.grids[ids[0]], ids) for ids in groups.values()]


def _roll_out_by_grid(dataset: TrajectorySet, keep_of, roll):
    """Roll each grid group out once; return (preds, truths, diverged, nfe).

    keep_of(grid) returns the slice of grid indices scored; roll(u0, grid,
    keep) returns a RolloutResult of the group's rows at grid.times[keep].
    Outputs are views placed by dataset index; nfe is the cost per trajectory.
    """
    preds = [None] * dataset.n_traj
    truths = [None] * dataset.n_traj
    diverged = np.zeros(dataset.n_traj, dtype=bool)
    nfe = 0
    for grid, ids in _grouped_by_grid(dataset):
        keep = keep_of(grid)
        u0 = np.stack([dataset.states[i][0] for i in ids])
        result = roll(u0, grid, keep)
        nfe = result.nfe  # per-trajectory cost; identical across groups of one grid
        diverged[ids] = result.diverged
        for col, i in enumerate(ids):
            preds[i] = result.states[:, col, :]
            truths[i] = dataset.states[i][keep]
    return preds, truths, diverged, nfe


def evaluate_flow_model(
    params: VectorFieldParams,
    dataset: TrajectorySet,
    solver: SolverConfig,
    eval_stride: int = 1,
) -> EvalReport:
    """Roll out every trajectory from its initial state and score it.

    The evaluation grid is each trajectory's own grid thinned by
    eval_stride; truth snapshots at those times are compared against the
    integrated states.
    """
    f = flow_field(params)
    preds, truths, diverged, nfe = _roll_out_by_grid(
        dataset,
        lambda grid: strided_indices(len(grid), eval_stride),
        lambda u0, grid, keep: rollout(f, u0, grid.times[keep], solver),
    )
    return build_report(preds, truths, nfe=nfe, diverged=diverged)


def evaluate_one_step_model(
    params: VectorFieldParams,
    dataset: TrajectorySet,
    eval_stride: int = 1,
) -> EvalReport:
    """Recursive one-step rollout over each full grid, scored on a stride.

    The model always steps at its native (training) resolution; the stride
    only thins the comparison times so reports align with flow-model runs.
    """
    step_fn = one_step_map(params)

    def roll(u0, grid, keep):
        result = ar_rollout(step_fn, u0, grid.times)
        return replace(result, times=result.times[keep], states=result.states[keep])

    preds, truths, diverged, nfe = _roll_out_by_grid(
        dataset, lambda grid: strided_indices(len(grid), eval_stride), roll
    )
    return build_report(preds, truths, nfe=nfe, diverged=diverged)


def final_time_error_at_budget(
    params: VectorFieldParams,
    dataset: TrajectorySet,
    method: str,
    budget_nfe: int,
):
    """Mean final-time relative error using a fixed total NFE budget.

    The budget is spent on equal steps from t = 0 to t = 1 (stages
    included), so budget_nfe = steps * stages up to rounding; returns
    (mean_error, actual_nfe). Diverged rows are frozen and scored at their
    last finite state.
    """
    stages = SolverConfig(method=method).stages
    n_steps = max(1, int(round(budget_nfe / stages)))
    solver = SolverConfig(method=method, substeps_per_interval=n_steps)
    f = flow_field(params)
    preds, truths, _, nfe = _roll_out_by_grid(
        dataset,
        lambda grid: slice(0, None, len(grid) - 1),
        lambda u0, grid, keep: rollout(f, u0, grid.times[keep], solver),
    )
    errs = [relative_l2(p[-1], t[-1]) for p, t in zip(preds, truths)]
    return float(np.mean(errs)), nfe


def reverse_time_study(
    params: VectorFieldParams,
    dataset: TrajectorySet,
    t_star: float,
    noise_levels,
    solver: SolverConfig,
    seed: int = 0,
):
    """Backward-integration error versus backward horizon and terminal noise.

    Anchors at the grid time closest to t_star, perturbs the anchor state
    with isotropic Gaussian noise per level, integrates backward to
    earlier grid times, and averages the per-time relative error over
    trajectories. Returns rows (noise_level, backward_horizon, mean_error,
    n_diverged), where n_diverged counts the rows of that rollout that blew
    up and were frozen. Noise levels must be >= 0 and small enough that
    their seed key, level * NOISE_SEED_SCALE, is finite.
    """
    if not all(level >= 0.0 and np.isfinite(level * NOISE_SEED_SCALE) for level in noise_levels):
        raise InvalidArgumentError(
            f"noise levels must be >= 0 with a finite level * {NOISE_SEED_SCALE:g}, "
            f"got {list(noise_levels)}"
        )
    f = flow_field(params)
    rows = []
    for grid, ids in _grouped_by_grid(dataset):
        anchor = int(np.argmin(np.abs(grid.times - t_star)))
        if anchor == 0:
            continue  # no backward horizon
        stride = max(1, anchor // REVERSE_MAX_HORIZONS)
        target_idx = np.arange(anchor - stride, -1, -stride)
        if target_idx[-1] != 0:
            target_idx = np.append(target_idx, 0)
        targets = grid.times[target_idx]
        u_star = np.stack([dataset.states[i][anchor] for i in ids])
        truth = np.stack([dataset.states[i][target_idx] for i in ids])  # (B, K, d)
        for level in noise_levels:
            rng = np.random.default_rng([seed, int(round(level * NOISE_SEED_SCALE))])
            perturbed = u_star + level * rng.standard_normal(u_star.shape)
            result = rollout_reverse(f, perturbed, grid.times[anchor], targets, solver)
            # result.states: (K, B, d); per-horizon mean relative error
            n_diverged = int(np.count_nonzero(result.diverged))
            for k, s in enumerate(targets):
                err = float(np.mean(row_errors(result.states[k], truth[:, k, :])))
                rows.append((float(level), float(grid.times[anchor] - s), err, n_diverged))
    return rows
