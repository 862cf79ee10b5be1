"""Adam training loops for the velocity model and the one-step AR baseline.

Both trainers share the same skeleton: draw a batch, take an Adam step,
periodically score a full validation rollout, and keep the parameters
with the best validation error (long trainings on chaotic data
fluctuate, so last-step weights are a poor pick). Runs are bit-for-bit
reproducible for a fixed config and seed.

Each trainer builds its own network from the training set's state
dimension and the config's `hidden` and `embed_bands`: the flow
model's takes a time input, the one-step baseline's does not and records
the step of its training grid as the network config's `grid_step`.

A large batch is drawn one step ahead on the worker pool while the
current step runs, by the rule of `workers.one_ahead`.

Adam works on the flat parameter vector with the fixed settings
ADAM_BETAS and ADAM_EPS: the two moment vectors are updated in place, in
the same operation order as the textbook update, and each step writes
the new parameters into a fresh vector. Holding a reference to the
parameters of some step is therefore a snapshot.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from . import evaluation
from .errors import InvalidArgumentError, NumericError, TrainingAbortedError
from .interpolant import InterpolantSampler, SampleBatch
from .odeint import SolverConfig
from .spline import NoiseSchedule, build_linear, build_quintic
from .systems import TrajectorySet
from .vector_field import (
    MlpConfig,
    VectorFieldParams,
    init_params,
    loss_and_grad,
)
from .workers import one_ahead

SPLINE_KINDS = ("linear", "quintic")

ADAM_BETAS = (0.9, 0.99)  # moment decay rates, the same for every run
ADAM_EPS = 1e-8  # added to the root of the second moment

# A training step whose loss exceeds this multiple of the first step's loss
# aborts the run. Healthy runs stay within 2x of their first loss; a run
# with a far too large learning rate jumps by more than 1e70x in one step.
# The running minimum is no reference: healthy runs rise more than 100x
# above it, and exact fits reach a loss of 0.
LOSS_EXPLOSION_FACTOR = 1e3

# Flow-model validation rolls out with RK4, one step per grid interval,
# so one validation costs 4 NFE per interval and trajectory.
VALIDATION_SOLVER = SolverConfig(method="rk4", substeps_per_interval=1)


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one training run, for either trainer; each field is named as its flag.

    Only the flow trainer reads `spline`, `gamma0`, `noise_m` and
    `embed_bands`: the one-step baseline has no spline path and no time
    input (its network's config still records `embed_bands`, beside the
    `grid_step` the training set gives it).
    """

    steps: int = 20000
    batch_size: int = 256
    lr: float = 1e-3
    eval_every: int = 2000
    gamma0: float = 1e-5
    noise_m: int = 3
    spline: str = "quintic"
    seed: int = 0
    hidden: tuple = MlpConfig.hidden_dims
    embed_bands: int = MlpConfig.embed_bands

    def __post_init__(self):
        if self.steps <= 0 or self.batch_size <= 0:
            raise InvalidArgumentError("steps and batch_size must be positive")
        if not (0.0 < self.lr < math.inf):
            raise InvalidArgumentError(f"lr must be positive and finite, got {self.lr!r}")
        if self.eval_every <= 0:
            raise InvalidArgumentError("eval_every must be positive")
        if self.spline not in SPLINE_KINDS:
            raise InvalidArgumentError(f"spline must be one of {SPLINE_KINDS}")


@dataclass
class AdamState:
    """First/second moment vectors in the flat layout of VectorFieldParams."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    @staticmethod
    def zeros_like(params: VectorFieldParams) -> "AdamState":
        return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(
    params: VectorFieldParams,
    state: AdamState,
    grads: VectorFieldParams,
    config: TrainConfig,
):
    """One bias-corrected Adam update; returns (fresh params, state).

    The moments in `state` are updated in place. `params` is left as it
    was, so a caller may keep a reference to it as a snapshot.
    """
    b1, b2 = ADAM_BETAS
    t = state.step_count + 1
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    g = grads.flat
    buf = (1.0 - b1) * g
    state.m *= b1
    state.m += buf
    np.multiply(g, g, out=buf)
    buf *= 1.0 - b2
    state.v *= b2
    state.v += buf
    update = state.m / c1
    update *= config.lr
    np.divide(state.v, c2, out=buf)
    np.sqrt(buf, out=buf)
    buf += ADAM_EPS
    update /= buf
    flat = np.subtract(params.flat, update, out=update)
    if not np.isfinite(flat).all():
        raise NumericError("non-finite parameter after Adam update")
    state.step_count = t
    return VectorFieldParams(params.config, flat), state


@dataclass
class HistoryRow:
    step: int
    train_loss: float
    val_rel_l2: float  # nan on steps without a validation rollout


@dataclass
class TrainResult:
    params: VectorFieldParams
    history: list
    best_step: int
    best_val_error: float


def build_splines(dataset: TrajectorySet, spline_kind: str) -> np.ndarray:
    """Knot tables of every trajectory, stacked as one (sum n_knots, m, d) table.

    The table is allocated once and each trajectory's spline is written
    into its own rows in dataset order, so no per-trajectory table
    outlives its build and nothing is concatenated afterwards.
    """
    if spline_kind == "linear":
        build, m = build_linear, 1
    elif spline_kind == "quintic":
        build, m = build_quintic, 3
    else:
        raise InvalidArgumentError(f"spline_kind must be one of {SPLINE_KINDS}")
    table = np.empty((sum(len(g) for g in dataset.grids), m, dataset.state_dim))
    row = 0
    for grid, states in zip(dataset.grids, dataset.states):
        table[row : row + len(grid)] = build(grid, states)
        row += len(grid)
    return table


def _validation_error(report) -> float:
    """Mean rollout error of a validation report, or inf if any row diverged.

    A diverged row is frozen at its last finite state and scores a finite but
    meaningless error, so such a model must never be kept as the best.
    """
    return math.inf if report.n_diverged else report.mean


def _optimize(params, draw_batch, score_validation, config: TrainConfig) -> TrainResult:
    """Shared Adam loop with best-validation checkpointing.

    A step whose loss is non-finite or exceeds LOSS_EXPLOSION_FACTOR times
    the first step's loss aborts the run with TrainingAbortedError. Its
    result holds the history so far and the best-validation parameters if
    a validation has kept any, else the last parameters whose loss passed
    the check with a nan validation error (None if none passed).
    """
    state = AdamState.zeros_like(params)
    history = []
    best, best_step, best_val = None, 0, math.inf
    last_good, last_good_step = None, 0
    entries = config.batch_size * params.config.state_dim  # of a batch's x
    with closing(one_ahead(draw_batch, config.steps, entries)) as batches:
        for step_idx, batch in enumerate(batches, start=1):
            try:
                loss, grads = loss_and_grad(params, batch)
                if step_idx == 1:
                    loss_limit = LOSS_EXPLOSION_FACTOR * loss
                if loss > loss_limit:
                    raise NumericError(
                        f"loss {loss:.3e} exceeds {LOSS_EXPLOSION_FACTOR:g} x the first step's loss"
                    )
                # adam_step returns a fresh vector, so holding a reference is a snapshot
                last_good, last_good_step = params, step_idx - 1
                params, state = adam_step(params, state, grads, config)
            except NumericError as exc:
                if best is None:
                    best, best_step, best_val = last_good, last_good_step, math.nan
                raise TrainingAbortedError(
                    f"training diverged at step {step_idx}: {exc}",
                    step=step_idx,
                    result=None if best is None else TrainResult(best, history, best_step, best_val),
                ) from exc
            val = math.nan
            if score_validation is not None and (
                step_idx % config.eval_every == 0 or step_idx == config.steps
            ):
                val = score_validation(params)
                if val < math.inf and val <= best_val:
                    best, best_step, best_val = params, step_idx, val
            history.append(HistoryRow(step=step_idx, train_loss=loss, val_rel_l2=val))
    if best is None:  # no validation ran, or every one had diverged rows
        best, best_step = params, config.steps
        if score_validation is None:  # the last step validates whenever a scorer is given
            best_val = math.nan
    return TrainResult(params=best, history=history, best_step=best_step, best_val_error=best_val)


def train_flow_matching(
    train_set: TrajectorySet, config: TrainConfig, val_set: TrajectorySet | None = None
) -> TrainResult:
    """Fit the velocity model to spline-path targets by flow matching.

    The stacked knot table is built once up front; each step then
    draws (trajectory, time, noise) triples and regresses the network on
    the analytic path velocity. Validation (when a set is given) scores a
    VALIDATION_SOLVER rollout from each held-out initial condition.
    """
    mlp = MlpConfig(train_set.state_dim, config.hidden, config.embed_bands)
    schedule = NoiseSchedule(gamma0=config.gamma0, m=config.noise_m)
    table = build_splines(train_set, config.spline)
    sampler = InterpolantSampler(train_set.grids, table, schedule)
    params = init_params(mlp, config.seed)
    rng = np.random.default_rng([config.seed, 1])

    score = None
    if val_set is not None:
        val_set.shared_grid()  # raises before the first step, not at the first validation
        score = lambda p: _validation_error(
            evaluation.evaluate_flow_model(p, val_set, VALIDATION_SOLVER)
        )

    return _optimize(
        params,
        lambda: sampler._draw(config.batch_size, rng),
        score,
        config,
    )


def train_one_step(
    train_set: TrajectorySet, config: TrainConfig, val_set: TrajectorySet | None = None
) -> TrainResult:
    """Teacher-forced one-step predictor u(t_i) -> u(t_{i+1}).

    Requires a shared uniform time grid: a single next-state map only
    makes sense for one fixed step size, which is why irregularly
    subsampled datasets are rejected.
    """
    step_size = train_set.uniform_step()
    states = train_set.stacked()  # (M, N, d), a view of the set's buffer
    n_steps = states.shape[1] - 1  # pairs (u_k, u_{k+1}) per trajectory

    mlp = MlpConfig(train_set.state_dim, config.hidden, config.embed_bands, step_size)
    params = init_params(mlp, config.seed)
    rng = np.random.default_rng([config.seed, 1])
    zeros = np.zeros(config.batch_size)

    def draw():
        idx = rng.integers(0, states.shape[0] * n_steps, size=config.batch_size)
        traj, k = np.divmod(idx, n_steps)
        return SampleBatch(t=zeros, x=states[traj, k], v_target=states[traj, k + 1])

    score = None
    if val_set is not None:
        val_set.uniform_step(expected=step_size)  # raises before the first step
        score = lambda p: _validation_error(evaluation.evaluate_one_step_model(p, val_set))

    return _optimize(params, draw, score, config)
