"""Rollout-based model evaluation shared by the trainer and the CLI.

Every trajectory of an evaluated set lies on its one shared grid
(`TrajectorySet.shared_grid`). Each study makes one rollout call for the
stacked start states and scores it at chosen grid indices (`_score`), so
truths and predictions are views of the dataset's snapshot arrays and of
the rollout's state tensor. Blow-ups are masked (frozen rows) so a single
unstable trajectory cannot abort a test-set sweep - it simply scores a
huge error. A row also counts as diverged when its scored predictions
outgrow its own truth by DIVERGENCE_FACTOR, because the rollout's absolute
norm bound lies far above the states of a system such as Lorenz (norms
below 60). `eval` and `reverse` report that verdict; `nfe-sweep` does not
yet, because `final_time_error_at_budget` keeps the (error, nfe) pair that
splinebench's tests unpack. `rollout`, `ar_rollout` and `rollout_reverse`
are looked up here at call time, so wrapping them on this module (as
splinebench does to count rows and NFE) reaches every study.
"""

from __future__ import annotations

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


def _score(dataset: TrajectorySet, keep, states: np.ndarray, frozen: np.ndarray):
    """(preds, truths, diverged) of a rollout of every row, scored at grid indices keep.

    `states` is the (K, B, d) rollout at the shared grid's times[keep] and
    `frozen` its (B,) diverged flags; preds and truths are per-row views in
    dataset order. A row's verdict compares squared norms, per time and
    row: a temporary of (K, B) numbers, not one the size of the rollout.
    """
    truths = [u[keep] for u in dataset.states]
    peaks = np.einsum("tbd,tbd->tb", states, states).max(axis=0)
    limits = [DIVERGENCE_FACTOR**2 * np.einsum("td,td->t", t, t).max() for t in truths]
    diverged = frozen | (peaks > np.array(limits))
    return [states[:, i, :] for i in range(dataset.n_traj)], truths, diverged


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
    u0 = np.stack([u[0] for u in dataset.states])
    result = rollout(flow_field(params), u0, grid.times[keep], solver)
    preds, truths, diverged = _score(dataset, keep, result.states, result.diverged)
    return build_report(preds, truths, nfe=result.nfe, diverged=diverged)


def evaluate_one_step_model(
    params: VectorFieldParams,
    dataset: TrajectorySet,
    eval_stride: int = 1,
) -> EvalReport:
    """Recursive one-step rollout over the full shared grid, scored on a stride.

    The model always steps at its native (training) resolution; the stride
    only thins the comparison times so reports align with flow-model runs.
    """
    grid = dataset.shared_grid()
    keep = grid.stride(eval_stride)
    u0 = np.stack([u[0] for u in dataset.states])
    result = ar_rollout(lambda u: forward_batch(params, 0.0, u), u0, grid.times)
    preds, truths, diverged = _score(dataset, keep, result.states[keep], result.diverged)
    return build_report(preds, truths, nfe=result.nfe, diverged=diverged)


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
    grid = dataset.shared_grid()
    keep = grid.stride(grid.n_segments)
    u0 = np.stack([u[0] for u in dataset.states])
    result = rollout(flow_field(params), u0, grid.times[keep], solver)
    preds, truths, _ = _score(dataset, keep, result.states, result.diverged)
    errs = [relative_l2(p[-1], t[-1]) for p, t in zip(preds, truths)]
    return float(np.mean(errs)), result.nfe


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
    u0 = np.stack([u[anchor] for u in dataset.states])
    rows = []
    for level in noise_levels:
        rng = np.random.default_rng([seed, int(round(level * NOISE_SEED_SCALE))])
        result = rollout_reverse(
            f, u0 + level * rng.standard_normal(u0.shape), times[anchor], times[targets], solver
        )
        preds, truths, diverged = _score(dataset, targets, result.states, result.diverged)
        errs = np.array([row_errors(p, t) for p, t in zip(preds, truths)])  # (B, K)
        n_diverged = int(np.count_nonzero(diverged))
        rows += [
            (float(level), float(times[anchor] - times[j]), float(np.mean(errs[:, k])), n_diverged)
            for k, j in enumerate(targets)
        ]
    return rows
