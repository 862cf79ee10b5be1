"""Rollout-based model evaluation shared by the trainer and the CLI.

Every trajectory of an evaluated set lies on its one shared grid
(`TrajectorySet.shared_grid`). Each study rolls the stacked start states
out in blocks of rows (`_roll_in_blocks`) and scores a block at chosen
grid indices before rolling out the next, so truths and predictions are
views of the dataset's snapshot arrays and of one block's state tensor.
A rollout recording K states of d components takes
max(1, _BLOCK_BYTES // (K * d * 8)) rows a block: 207 on a Burgers test
set (K = 101, d = 100), every row of a benchmark Lorenz set. A smaller
remainder block goes first, so no block is smaller than the one freed
before it: with the remainder last, glibc's heap fragmented more across
a process's commands, and `burgers-quintic`'s peak RSS read 3 to 8 MB
higher. Per-row scores go into one `EvalReport` per rollout pass
(`build_report`), in dataset order, so the sums run as for one block,
and every study reads that report: the flow and one-step rows of
`nfe-sweep` share its final-time error, and `reverse` its per-time
curve. Rows equal the whole batch's bit for bit while a block's matmuls
take the same BLAS kernel; OpenBLAS rounds few-row products in another
order (on the benchmark's Burgers network, blocks under 157 rows).
Blow-ups are masked (frozen rows) so a single unstable trajectory cannot
abort a test-set sweep - it simply scores a huge error. A row also
counts as diverged when its scored predictions outgrow its own truth by
DIVERGENCE_FACTOR, because the rollout's absolute norm bound lies far
above the states of a system such as Lorenz (norms below 60). Every
report holds that verdict; `eval` and `reverse` write it, while
`final_time_error_at_budget` still returns only the (error, nfe) pair
that splinebench's tests unpack (ROADMAP item 1). `rollout`,
`ar_rollout`, `rollout_reverse` and `build_report` are looked up here at
call time, so wrapping them on this module (as splinebench does to count
rows and NFE) reaches every block of every study.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import InvalidArgumentError
from .metrics import EvalReport, build_report, trajectory_errors
from .odeint import SolverConfig, ar_rollout, rollout, rollout_reverse
from .systems import TrajectorySet
from .vector_field import VectorFieldParams, forward_batch

REVERSE_MAX_HORIZONS = 20  # backward horizons per anchor in reverse_time_study
NOISE_SEED_SCALE = 1e9  # a noise level's seed key is round(level * NOISE_SEED_SCALE)
# A row whose largest scored prediction norm passes this multiple of the
# largest norm of its scored truth has diverged. Models trained at the
# benchmark's settings peaked below 10x their truth on validation.
DIVERGENCE_FACTOR = 1e3
_BLOCK_BYTES = 16 * 2**20  # rollout states of one block of rows


def flow_field(params: VectorFieldParams):
    """The learned right-hand side as f(t, u) on (B, d) states."""
    return lambda t, u: forward_batch(params, t, u)


def _roll_in_blocks(
    dataset: TrajectorySet, keep, starts: np.ndarray, n_times: int, roll
) -> EvalReport:
    """Roll the (B, d) start states out block by block and report on every row.

    roll(u0) rolls out one block of start states through a module global
    (`rollout`, `ar_rollout` or `rollout_reverse`); its result holds the
    block's (K, b, d) states at the shared grid's indices keep, in a buffer
    of n_times states per row, which sizes the blocks. Each row is scored
    by `trajectory_errors` on views of the states and of its snapshot
    array. A row's verdict compares squared norms, per time and row: a
    temporary of (K, b) numbers, not one the size of the rollout.
    """
    size = max(1, _BLOCK_BYTES // (n_times * dataset.state_dim * 8))
    first = len(starts) % size or size  # the remainder block leads (module docstring)
    ends = [0, *range(first, len(starts) + 1, size)]
    errors, diverged = [], []
    for rows in map(slice, ends, ends[1:]):
        result = roll(starts[rows])
        states, truths = result.states, [u[keep] for u in dataset.states[rows]]
        peaks = np.einsum("tbd,tbd->tb", states, states).max(axis=0)
        limits = [DIVERGENCE_FACTOR**2 * np.einsum("td,td->t", t, t).max() for t in truths]
        diverged.append(result.diverged | (peaks > np.array(limits)))
        errors += [trajectory_errors(states[:, i, :], t) for i, t in enumerate(truths)]
        nfe = result.nfe
        del result, states  # freed before the next block is rolled out
    return build_report(errors, nfe, np.concatenate(diverged))


def evaluate_flow_model(
    params: VectorFieldParams,
    dataset: TrajectorySet,
    solver: SolverConfig,
    eval_stride: int = 1,
) -> EvalReport:
    """Roll out every trajectory from its initial state and score it.

    The evaluation grid is the set's shared grid thinned by eval_stride;
    truth snapshots at those times are compared against the integrated
    states.
    """
    grid = dataset.shared_grid()
    keep = grid.stride(eval_stride)
    times = grid.times[keep]
    f = flow_field(params)
    u0 = np.stack([u[0] for u in dataset.states])
    return _roll_in_blocks(dataset, keep, u0, len(times), lambda u: rollout(f, u, times, solver))


def evaluate_one_step_model(
    params: VectorFieldParams,
    dataset: TrajectorySet,
    grid_step: float,
    eval_stride: int = 1,
) -> EvalReport:
    """Recursive one-step rollout over the full shared grid, scored on a stride.

    The model maps a state to the state one training step later, so the
    shared grid must be uniform with the model's training step grid_step
    (`TrajectorySet.uniform_step`); the stride only thins the comparison
    times so reports align with flow-model runs.
    """
    grid = dataset.shared_grid()
    dataset.uniform_step(expected=grid_step)
    keep = grid.stride(eval_stride)
    u0 = np.stack([u[0] for u in dataset.states])

    def roll(u):
        result = ar_rollout(lambda x: forward_batch(params, 0.0, x), u, grid.times)
        return replace(result, states=result.states[keep])

    return _roll_in_blocks(dataset, keep, u0, len(grid), roll)


def final_time_error_at_budget(
    params: VectorFieldParams,
    dataset: TrajectorySet,
    method: str,
    budget_nfe: int,
):
    """Mean final-time relative error using a fixed total NFE budget.

    The budget is spent on equal steps from t = 0 to t = 1 (stages
    included), so budget_nfe = steps * stages up to rounding. The error is
    the `final_time_error` of the flow report at stride n_segments, the
    figure `evaluate_one_step_model` gives the AR row of `nfe-sweep`.
    Returns (final_time_error, actual_nfe): the report's divergence
    verdict is dropped until splinebench reads the NFE another way
    (ROADMAP item 1). Diverged rows are frozen and scored at their last
    finite state.
    """
    stages = SolverConfig(method=method).stages
    n_steps = max(1, int(round(budget_nfe / stages)))
    solver = SolverConfig(method=method, substeps_per_interval=n_steps)
    report = evaluate_flow_model(params, dataset, solver, dataset.shared_grid().n_segments)
    return report.final_time_error, report.nfe


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
    blocked `rollout_reverse` pass per level), and reads each level's
    report. Returns rows (noise_level, backward_horizon, mean_error,
    n_diverged): mean_error is the report's per-time error at that
    horizon, and n_diverged its count of rows that froze or outgrew their
    truth, the verdict `eval` reports too. Noise levels must be >= 0 with
    a finite seed key level * NOISE_SEED_SCALE.
    A study with no row to return (an anchor at t = 0, or no noise level)
    raises.
    """
    if not all(level >= 0.0 and np.isfinite(level * NOISE_SEED_SCALE) for level in noise_levels):
        raise InvalidArgumentError(
            f"noise levels must be >= 0 with a finite level * {NOISE_SEED_SCALE:g}, "
            f"got {list(noise_levels)}"
        )
    times = dataset.shared_grid().times
    anchor = int(np.argmin(np.abs(times - t_star)))
    if anchor == 0 or len(noise_levels) == 0:
        raise InvalidArgumentError(
            f"nothing to score: t_star {t_star} anchors the grid at its first time, "
            "or no noise level is given"
        )
    stride = max(1, anchor // REVERSE_MAX_HORIZONS)
    targets = np.append(np.arange(anchor - stride, 0, -stride), 0)
    f = flow_field(params)
    roll = lambda u: rollout_reverse(f, u, times[anchor], times[targets], solver)
    u0 = np.stack([u[anchor] for u in dataset.states])
    rows = []
    for level in noise_levels:
        rng = np.random.default_rng([seed, int(round(level * NOISE_SEED_SCALE))])
        starts = u0 + level * rng.standard_normal(u0.shape)
        # the anchor state is recorded too: one more than the targets
        report = _roll_in_blocks(dataset, targets, starts, len(targets) + 1, roll)
        rows += [
            (float(level), float(times[anchor] - times[j]), float(error), report.n_diverged)
            for error, j in zip(report.per_time, targets)
        ]
    return rows
