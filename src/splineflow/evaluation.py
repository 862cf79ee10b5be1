"""Rollout-based model evaluation shared by the trainer and the CLI.

Every study rolls out through `_roll_out_by_grid`: trajectories with identical
evaluation grids (`TrajectorySet.grid_groups`) are integrated as one batch
from a start index of their grid, and scored at chosen grid indices, so truths
and predictions are views of the dataset's snapshot arrays and of the
rollout's state tensor. Blow-ups are masked (frozen rows) so a single unstable
trajectory cannot abort a test-set sweep - it simply scores a huge error. A
row also counts as diverged when its scored predictions outgrow its own truth
by DIVERGENCE_FACTOR, because the rollout's absolute norm bound lies far above
the states of a system such as Lorenz (norms below 60). `eval` and `reverse`
report that verdict; `nfe-sweep` does not yet, because
`final_time_error_at_budget` keeps the (error, nfe) pair that splinebench's
tests unpack. `rollout`, `ar_rollout` and `rollout_reverse` are looked up here
at call time, so wrapping them on this module (as splinebench does to count
rows and NFE) reaches every study.
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
# A row whose largest scored prediction norm passes this multiple of the
# largest norm of its scored truth has diverged. Models trained at the
# benchmark's settings peaked below 10x their truth on validation.
DIVERGENCE_FACTOR = 1e3


def flow_field(params: VectorFieldParams):
    """The learned right-hand side as f(t, u) on (B, d) states."""
    return lambda t, u: forward_batch(params, t, u)


def _roll_out_by_grid(dataset: TrajectorySet, plan, roll):
    """Roll each grid group out once; return (preds, truths, diverged, nfe).

    plan(grid) returns (start, keep): the grid index the rows start from and
    the grid indices scored; roll(u0, grid, keep) returns a RolloutResult of
    the group's rows, started from their states at `start`, at grid.times[keep].
    Outputs are views placed by dataset index; nfe is the cost per trajectory.
    A row's verdict compares squared norms, per time and row: a temporary
    of (n_times, B) numbers, not one the size of the rollout buffer.
    """
    preds, truths = [None] * dataset.n_traj, [None] * dataset.n_traj
    diverged = np.zeros(dataset.n_traj, dtype=bool)
    nfe = 0
    for grid, ids in dataset.grid_groups():
        start, keep = plan(grid)
        u0 = np.stack([dataset.states[i][start] for i in ids])
        result = roll(u0, grid, keep)
        nfe = result.nfe  # per-trajectory cost; identical across groups of one grid
        diverged[ids] = result.diverged
        peaks = np.einsum("tbd,tbd->tb", result.states, result.states).max(axis=0)
        for col, i in enumerate(ids):
            preds[i] = result.states[:, col, :]
            truths[i] = dataset.states[i][keep]
            if peaks[col] > DIVERGENCE_FACTOR**2 * np.einsum("td,td->t", truths[i], truths[i]).max():
                diverged[i] = True
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
        lambda grid: (0, grid.stride(eval_stride)),
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
    def roll(u0, grid, keep):
        result = ar_rollout(lambda u: forward_batch(params, 0.0, u), u0, grid.times)
        return replace(result, states=result.states[keep])

    preds, truths, diverged, nfe = _roll_out_by_grid(
        dataset, lambda grid: (0, grid.stride(eval_stride)), roll
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
        lambda grid: (0, grid.stride(grid.n_segments)),
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

    Every trajectory must lie on one shared grid. Anchors at the grid time
    closest to t_star, perturbs the anchor states with isotropic Gaussian
    noise per level, integrates backward to earlier grid times (one
    `rollout_reverse` per level), and averages the per-time relative error
    over trajectories. Returns rows (noise_level, backward_horizon,
    mean_error, n_diverged): n_diverged counts the level's rows that froze
    or outgrew their truth, the verdict `eval` reports too (`nfe-sweep`
    lacks it; see the module docstring). Noise levels must be >= 0 with a
    finite seed key level * NOISE_SEED_SCALE. A study with no row to
    return (an anchor at t = 0, or no noise level) raises.
    """
    if not all(level >= 0.0 and np.isfinite(level * NOISE_SEED_SCALE) for level in noise_levels):
        raise InvalidArgumentError(
            f"noise levels must be >= 0 with a finite level * {NOISE_SEED_SCALE:g}, "
            f"got {list(noise_levels)}"
        )
    groups = dataset.grid_groups()
    if len(groups) != 1:
        raise InvalidArgumentError(f"the reverse study needs one grid shared by all, got {len(groups)}")
    times = groups[0][0].times
    anchor = int(np.argmin(np.abs(times - t_star)))
    if anchor == 0 or len(noise_levels) == 0:
        raise InvalidArgumentError(
            f"nothing to score: t_star {t_star} anchors the grid at its first time, "
            "or no noise level is given"
        )
    stride = max(1, anchor // REVERSE_MAX_HORIZONS)
    targets = np.append(np.arange(anchor - stride, 0, -stride), 0)
    f = flow_field(params)
    rows = []
    for level in noise_levels:
        rng = np.random.default_rng([seed, int(round(level * NOISE_SEED_SCALE))])
        preds, truths, diverged, _ = _roll_out_by_grid(
            dataset,
            lambda grid: (anchor, targets),
            lambda u0, grid, keep: rollout_reverse(
                f, u0 + level * rng.standard_normal(u0.shape), times[anchor], times[keep], solver
            ),
        )
        errs = np.array([row_errors(p, t) for p, t in zip(preds, truths)])  # (B, K)
        n_diverged = int(np.count_nonzero(diverged))
        rows += [
            (float(level), float(times[anchor] - times[j]), float(np.mean(errs[:, k])), n_diverged)
            for k, j in enumerate(targets)
        ]
    return rows
