"""Rollout-based model evaluation shared by the trainer and the CLI.

Every trajectory of an evaluated set lies on its one shared grid
(`TrajectorySet.shared_grid`), so the set's buffer is one
(n_traj, n_times, d) array (`TrajectorySet.stacked`). Each study rolls
the start states of the whole set, one column of that array that the
rollout copies into a C-ordered batch, out as one batch and scores every
state as the rollout reaches it (`_Scores`, the rollout's record), so no
study holds a (K, B, d) rollout. Per scored time and row it keeps:
- the relative error of the state, by the `convergence.row_errors`
  reductions, in a (B, K) table whose axis-0 mean is the per-time curve;
- running sums of the squared error and of the squared truth norm, whose
  ratio's square root is the row's space-time relative L2 error;
- running peaks of the squared norms of prediction and truth.
The truths of a time are copied from one strided view of that array.
Every rollout pass ends in one `EvalReport` (`build_report`): the flow
and one-step rows of `nfe-sweep` share its final-time error, and
`reverse` its per-time curve. A set of a few hundred rows is one batch
large enough for `forward_batch` to split its rows across the CPUs.

Blow-ups are masked (frozen rows) so a single unstable trajectory cannot
abort a test-set sweep - it simply scores a huge error. A row also
counts as diverged when its scored predictions outgrow its own truth by
DIVERGENCE_FACTOR, because the rollout's absolute norm bound lies far
above the states of a system such as Lorenz (norms below 60). Every
report holds that verdict, and `eval`, `reverse` and `nfe-sweep` write
it; `final_time_error_at_budget` hands its report to the caller's list
and returns the (error, nfe) pair that splinebench's tests unpack.
`rollout`, `ar_rollout`, `rollout_reverse` and `build_report` are looked
up here at call time, so wrapping them on this module (as splinebench
does to count rows and NFE) reaches every study.

The network config's `grid_step` says what a model is (`vector_field`).
Each study refuses a model that does not fit it (`require_model`) before
it rolls anything out: the flow studies integrate a velocity field, and a
next-state map run as one (or one run on a grid of another step) gives a
number that means nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UndefinedMetricError
from .odeint import RolloutResult, SolverConfig, ar_rollout, rollout, rollout_reverse
from .systems import TrajectorySet
from .vector_field import VectorFieldParams, forward_batch

REVERSE_MAX_HORIZONS = 20  # backward horizons per anchor in reverse_time_study
NOISE_SEED_SCALE = 1e9  # a noise level's seed key is round(level * NOISE_SEED_SCALE)
# A row whose largest scored prediction norm passes this multiple of the
# largest norm of its scored truth has diverged. Models trained at the
# benchmark's settings peaked below 10x their truth on validation.
DIVERGENCE_FACTOR = 1e3


def require_model(params: VectorFieldParams, dataset: TrajectorySet, one_step: bool) -> None:
    """Raise unless the model is the kind a study takes, of the dataset's width and grid step."""
    config = params.config
    if (config.grid_step is not None) != one_step:
        kinds = ("a velocity field (train)", "a one-step map (train-ar)")
        raise InvalidArgumentError(f"the model is {kinds[not one_step]}, not {kinds[one_step]}")
    if config.state_dim != dataset.state_dim:
        raise InvalidArgumentError(
            f"model state_dim {config.state_dim} differs from dataset state_dim {dataset.state_dim}"
        )
    if one_step:
        dataset.uniform_step(expected=config.grid_step)


@dataclass
class EvalReport:
    """What one rollout pass measured (`build_report`); every aggregate derives from it."""

    per_traj: np.ndarray
    per_time: np.ndarray
    nfe: int
    n_diverged: int

    @property
    def mean(self) -> float:
        return float(self.per_traj.mean())

    @property
    def sd(self) -> float:  # the sample deviation, 0 for one row
        return float(self.per_traj.std(ddof=1)) if self.per_traj.size > 1 else 0.0

    @property
    def final_time_error(self) -> float:
        return float(self.per_time[-1])

    @property
    def median(self) -> float:
        """Median per-trajectory error; unlike the mean, no single diverged row sets it."""
        # Equals np.median, whose first call imports numpy.ma and so leaves
        # about 1 MB of module objects amid the freed arrays of a run.
        ordered = np.sort(self.per_traj)
        return float((ordered[(ordered.size - 1) // 2] + ordered[ordered.size // 2]) / 2.0)


def build_report(per_traj, curves, nfe: int, diverged) -> EvalReport:
    """The report of a rollout pass from its rows, in dataset order.

    per_traj (B,) holds each row's space-time relative L2 error, curves
    its (B, K) per-time errors (their row mean is the per-time curve) and
    diverged its (B,) divergence flags.
    """
    if len(per_traj) == 0:
        raise InvalidArgumentError("need the errors of at least one trajectory")
    return EvalReport(
        per_traj=per_traj,
        per_time=np.mean(curves, axis=0),
        nfe=nfe,
        n_diverged=int(np.count_nonzero(diverged)),
    )


def flow_field(params: VectorFieldParams):
    """The network as f(t, u) on (B, d) states; a one-step model has no time input and ignores t."""
    return lambda t, u: forward_batch(params, t, u)


class _Scores:
    """The per-row scores of one rollout pass, taken as its states are reached.

    Calling it with (column, u) scores the (B, d) states u against every
    row's truth at grid index picks[column] (module docstring); `report`
    makes the pass's `EvalReport` from the scores and the rollout result.
    Each call works in three (B, d) buffers made once per pass, so no
    call allocates (CHANGES.md, "Evaluation scores as it integrates").
    """

    def __init__(self, dataset: TrajectorySet, picks):
        rows = dataset.n_traj
        self.truths, self.picks = dataset.stacked(), picks
        self.curves = np.empty((rows, len(picks)))
        self.sq_error, self.sq_truth = np.zeros(rows), np.zeros(rows)
        self.peak, self.truth_peak = np.zeros(rows), np.zeros(rows)
        self.truth, self.error, self.square = (np.empty((rows, dataset.state_dim)) for _ in range(3))

    def __call__(self, column: int, u: np.ndarray) -> None:
        truth, error, square = self.truth, self.error, self.square
        np.copyto(truth, self.truths[:, self.picks[column]])
        np.subtract(u, truth, out=error)
        # the reductions of `convergence.row_errors`' np.linalg.norm(x, axis=-1):
        # sqrt(add.reduce(x * x, axis=-1)), so the curves keep its values
        sq_error = np.add.reduce(np.multiply(error, error, out=square), axis=-1)
        sq_truth = np.add.reduce(np.multiply(truth, truth, out=square), axis=-1)
        if (sq_truth == 0.0).any():
            raise UndefinedMetricError("relative error undefined at a zero-norm truth row")
        self.curves[:, column] = np.sqrt(sq_error) / np.sqrt(sq_truth)
        self.sq_error += sq_error
        self.sq_truth += sq_truth
        np.maximum(self.truth_peak, sq_truth, out=self.truth_peak)
        np.maximum(self.peak, np.einsum("bd,bd->b", u, u), out=self.peak)

    def report(self, result: RolloutResult) -> EvalReport:
        outgrown = self.peak > DIVERGENCE_FACTOR**2 * self.truth_peak
        per_traj = np.sqrt(self.sq_error) / np.sqrt(self.sq_truth)
        return build_report(per_traj, self.curves, result.nfe, result.diverged | outgrown)


def evaluate_flow_model(
    params: VectorFieldParams,
    dataset: TrajectorySet,
    solver: SolverConfig,
    eval_stride: int = 1,
) -> EvalReport:
    """Roll out every trajectory from its initial state and score it.

    The evaluation grid is the set's shared grid thinned by eval_stride;
    truth snapshots at those times are compared against the integrated
    states. `require_model` refuses a one-step model.
    """
    require_model(params, dataset, one_step=False)
    grid = dataset.shared_grid()
    picks = np.arange(len(grid))[grid.stride(eval_stride)]
    scores = _Scores(dataset, picks)
    u0 = dataset.stacked()[:, 0]
    return scores.report(rollout(flow_field(params), u0, grid.times[picks], solver, record=scores))


def evaluate_one_step_model(
    params: VectorFieldParams, dataset: TrajectorySet, eval_stride: int = 1
) -> EvalReport:
    """Recursive one-step rollout over the full shared grid, scored on a stride.

    The model maps a state to the state one training step later, so the
    shared grid must be uniform with the step its config records,
    `grid_step` (`require_model`). The stride only thins the comparison
    times so reports align with flow-model runs.
    """
    grid = dataset.shared_grid()
    require_model(params, dataset, one_step=True)
    scores = _Scores(dataset, np.arange(len(grid))[grid.stride(eval_stride)])

    def record(k, u):
        if k % eval_stride == 0:
            scores(k // eval_stride, u)

    u0 = dataset.stacked()[:, 0]
    return scores.report(ar_rollout(flow_field(params), u0, grid.times, record=record))


def final_time_error_at_budget(
    params: VectorFieldParams,
    dataset: TrajectorySet,
    method: str,
    budget_nfe: int,
    reports: list | None = None,
):
    """Mean final-time relative error using a fixed total NFE budget.

    The budget is spent on equal steps from t = 0 to t = 1 (stages
    included), so budget_nfe = steps * stages up to rounding. The error is
    the `final_time_error` of the flow report at stride n_segments, the
    figure `evaluate_one_step_model` gives the AR row of `nfe-sweep`.
    Returns (final_time_error, actual_nfe), the pair splinebench's tests
    unpack; the report itself, with its divergence verdict, is appended to
    reports when that is a list (`nfe-sweep` writes it). Diverged rows are
    frozen and scored at their last finite state.
    """
    stages = SolverConfig(method=method).stages
    n_steps = max(1, int(round(budget_nfe / stages)))
    solver = SolverConfig(method=method, substeps_per_interval=n_steps)
    report = evaluate_flow_model(params, dataset, solver, dataset.shared_grid().n_segments)
    if reports is not None:
        reports.append(report)
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
    `rollout_reverse` pass per level), and reads each level's report.
    Returns rows (noise_level, backward_horizon, mean_error, n_diverged):
    mean_error is the report's per-time error at that horizon, and
    n_diverged its count of rows that froze or outgrew their truth, the
    verdict `eval` reports too. t_star must lie in [0, 1]; noise levels must
    be >= 0 with a finite seed key level * NOISE_SEED_SCALE. A study with no
    row to return (an anchor at t = 0, or no noise level) or of a model
    that `require_model` refuses raises.
    """
    require_model(params, dataset, one_step=False)
    if not 0.0 <= t_star <= 1.0:  # nan fails too
        raise InvalidArgumentError(f"t_star must lie in [0, 1], got {t_star!r}")
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
    u0 = dataset.stacked()[:, anchor]
    rows = []
    for level in noise_levels:
        rng = np.random.default_rng([seed, int(round(level * NOISE_SEED_SCALE))])
        starts = u0 + level * rng.standard_normal(u0.shape)
        scores = _Scores(dataset, targets)
        result = rollout_reverse(f, starts, times[anchor], times[targets], solver, record=scores)
        report = scores.report(result)
        rows += [
            (float(level), float(times[anchor] - times[j]), float(error), report.n_diverged)
            for error, j in zip(report.per_time, targets)
        ]
    return rows
