"""Fixed-step ODE solvers, rollouts, and function-evaluation accounting.

Only fixed-step methods (Euler, Heun, RK4) are provided: inference sweeps
fix NFE budgets, and adaptive stepping would blur that cost axis. A
rollout integrates each interval of the evaluation grid with a constant
number of substeps and records the state at every evaluation time;
``nfe`` counts vector-field calls (intervals * substeps * stages).

States are batches (B, d) integrated jointly; the right-hand side takes
and returns (B, d) arrays. `_integrate` keeps the caller's memory layout:
a Fortran-ordered (component-major) batch stays one through every step,
so a field of a few components works on contiguous column vectors. A
row that blows up (norm above DEFAULT_NORM_BOUND or a non-finite entry)
is frozen at its last finite state and flagged in
``RolloutResult.diverged``; the other rows keep going. Forward, reverse
and one-step (AR) rollouts share that one loop.

A rollout keeps no states: it hands each (B, d) state to the caller's
record(k, u) as soon as it is reached. An evaluation scores the states
as they come and never holds the rollout (`evaluation`); generation
copies them into its dataset buffer (`systems`). A recorded state is
never written to again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

_STAGES = {"euler": 1, "heun": 2, "rk4": 4}

DEFAULT_NORM_BOUND = 1e8


@dataclass(frozen=True)
class SolverConfig:
    method: str = "rk4"
    substeps_per_interval: int = 1

    def __post_init__(self):
        if self.method not in _STAGES:
            raise InvalidArgumentError(
                f"unknown method {self.method!r}; choose from {sorted(_STAGES)}"
            )
        if self.substeps_per_interval < 1:
            raise InvalidArgumentError("substeps_per_interval must be >= 1")

    @property
    def stages(self) -> int:
        return _STAGES[self.method]


@dataclass
class RolloutResult:
    """The solver cost of a rollout and the rows it flagged.

    diverged (B,) flags rows that hit the norm bound; frozen rows keep
    their last finite state.
    """

    nfe: int
    diverged: np.ndarray


def _stage(u: np.ndarray, a: float, k: np.ndarray) -> np.ndarray:
    """u + a * k in a new array: a * k, then u added in place."""
    x = a * k
    x += u
    return x


def step(method: str, f, t: float, u: np.ndarray, h: float) -> np.ndarray:
    """One explicit step of size h (h < 0 integrates backward in time).

    The result and every stage input are arrays this step allocates; the
    arrays f returns are only read, so a field may hand back the same
    array on every call. The arithmetic is that of the textbook formulas,
    e.g. u + (h / 6) (k1 + 2 k2 + 2 k3 + k4) for RK4, in the same order,
    so results are bit-identical to evaluating those expressions.
    """
    if h == 0.0:
        raise InvalidArgumentError("step size must be nonzero")
    if method == "euler":
        return _stage(u, h, f(t, u))
    if method == "heun":
        k1 = f(t, u)
        k2 = f(t + h, _stage(u, h, k1))
        acc = k1 + k2
        acc *= 0.5 * h
        acc += u
        return acc
    if method == "rk4":
        k1 = f(t, u)
        k2 = f(t + 0.5 * h, _stage(u, 0.5 * h, k1))
        k3 = f(t + 0.5 * h, _stage(u, 0.5 * h, k2))
        k4 = f(t + h, _stage(u, h, k3))
        acc = 2.0 * k2
        acc += k1
        acc += 2.0 * k3
        acc += k4
        acc *= h / 6.0
        acc += u
        return acc
    raise InvalidArgumentError(f"unknown method {method!r}")


def _integrate(advance, f, u0, times_out, substeps, stages, record):
    """Shared fixed-step integrator for forward, reverse and one-step rollouts.

    Each interval takes `substeps` steps u <- advance(f, t, u, h), each
    costing `stages` calls of f. After each step a row is flagged unless
    its norm is <= DEFAULT_NORM_BOUND; one norm per row covers non-finite
    entries too, because they, like a sum of squares that overflows, make
    the norm nan or inf. The reported nfe is the scheduled cost per
    trajectory, also when every row has diverged and the remaining steps
    are skipped. The state at times_out[k] goes to record(k, u).
    """
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.ndim != 2:
        raise InvalidArgumentError(f"states must be a (B, d) batch, got shape {u0.shape}")
    if not np.isfinite(u0).all():
        raise InvalidArgumentError("initial state must be finite")
    u = u0.copy(order="K")
    record(0, u)
    alive = np.ones(u.shape[0], dtype=bool)
    for k in range(len(times_out) - 1):
        t0, t1 = times_out[k], times_out[k + 1]
        h = (t1 - t0) / substeps
        for s in range(substeps):
            if not alive.any():
                break
            t = t0 + s * h
            if alive.all():
                u_new = advance(f, t, u, h)
            else:
                u_new = u.copy(order="K")
                u_new[alive] = advance(f, t, u[alive], h)
            bad = ~(np.linalg.norm(u_new, axis=-1) <= DEFAULT_NORM_BOUND)
            bad &= alive
            if bad.any():
                u_new[bad] = u[bad]  # freeze at last finite state
                alive &= ~bad
            u = u_new
        record(k + 1, u)
    return RolloutResult(nfe=(len(times_out) - 1) * substeps * stages, diverged=~alive)


def rollout(f, u0: np.ndarray, eval_times, solver: SolverConfig, record) -> RolloutResult:
    """Integrate du/dt = f(t, u) forward, recording each evaluation time.

    eval_times must be increasing; the first entry is the initial time.
    The state at eval_times[k] goes to record(k, u), a copy of u0 at k = 0
    (module docstring).
    """
    times = np.asarray(eval_times, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise InvalidArgumentError("need at least two evaluation times")
    if not np.all(np.diff(times) > 0.0):
        raise InvalidArgumentError("evaluation times must be strictly increasing")
    return _integrate(
        functools.partial(step, solver.method), f, u0, times,
        solver.substeps_per_interval, solver.stages, record,
    )


def rollout_reverse(
    f, u_star: np.ndarray, t_star: float, target_times, solver: SolverConfig, record
) -> RolloutResult:
    """Integrate backward from (t_star, u_star) to each earlier target time.

    target_times must be strictly decreasing and contained in [0, t_star).
    The state at target_times[k] goes to record(k, u); the anchor state
    itself is not recorded.
    """
    targets = np.asarray(target_times, dtype=np.float64)
    if targets.ndim != 1:
        raise InvalidArgumentError("target_times must be one-dimensional")
    if not np.all(np.diff(targets) < 0.0):
        raise InvalidArgumentError("target times must be strictly decreasing")
    if targets.size and (targets[0] >= t_star or targets[-1] < 0.0):
        raise InvalidArgumentError("target times must lie in [0, t_star)")
    path = np.concatenate(([t_star], targets))

    def after_anchor(k, u):
        if k > 0:
            record(k - 1, u)

    return _integrate(
        functools.partial(step, solver.method), f, u_star, path,
        solver.substeps_per_interval, solver.stages, after_anchor,
    )


def ar_rollout(f, u0: np.ndarray, times, record) -> RolloutResult:
    """Recursive one-step rollout u_{k+1} = f(t_k, u_k), one step per interval of times.

    f takes (t, u) like the field of `rollout`; a one-step network has no
    time input and ignores t. nfe equals the number of intervals; rows
    that blow up are frozen and flagged, and states handed to record, as
    in `rollout`.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 1:
        raise InvalidArgumentError("need at least one rollout time")
    return _integrate(lambda fn, t, u, h: fn(t, u), f, u0, times, 1, 1, record)
