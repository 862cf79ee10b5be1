"""One spline representation for both kinds: a per-knot table.

A spline over a TimeGrid stores its knot data as a table of shape
(n_knots, m, d):

* m = 1 holds [u]: the C0 piecewise-linear interpolant (degree-1
  Lagrange basis [1 - tau, tau] on each segment);
* m = 3 holds [u, du/dt, d2u/dt2]: the C2 quintic Hermite interpolant,
  with knot derivatives estimated by `estimate_knot_derivatives`.

Every evaluation goes through `segment_derivatives`: it gathers the two
knots of each segment as (B, 2m, d) and contracts them with the basis
chosen by m, scaled on the basis side by [1, h, h^2][:m] per end (and
divided by h per time derivative). Splines, the batched interpolant
sampler and the convergence study all call it. A linear table is a view
of the snapshot array, not a copy.

Knot convention: segments are half-open [t_i, t_{i+1}) and t = 1 maps to
the final closed segment, so evaluation at an interior knot uses the
right-hand segment; a linear spline's velocity at a knot is the slope of
the segment to its right.

The noise schedule is the per-segment polynomial bump
gamma(t) = gamma0 * (t - t_k)^m (t_{k+1} - t)^m / (t_{k+1} - t_k)^{2m},
which vanishes at every knot together with its first m - 1 derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, OutOfRangeError
from .stencil import KnotDerivatives, estimate_knot_derivatives
from .timegrid import TimeGrid

# Quintic Hermite basis on the unit interval, ordered
# [h00, h10, h20, h01, h11, h21]: value / first / second derivative at the
# left endpoint, then the same at the right endpoint.


def hermite_basis(tau: np.ndarray) -> np.ndarray:
    """Basis values at tau; shape (..., 6)."""
    t = np.asarray(tau, dtype=np.float64)
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    t5 = t4 * t
    return np.stack(
        [
            1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5,
            t - 6.0 * t3 + 8.0 * t4 - 3.0 * t5,
            0.5 * (t2 - 3.0 * t3 + 3.0 * t4 - t5),
            10.0 * t3 - 15.0 * t4 + 6.0 * t5,
            -4.0 * t3 + 7.0 * t4 - 3.0 * t5,
            0.5 * (t3 - 2.0 * t4 + t5),
        ],
        axis=-1,
    )


def hermite_basis_d1(tau: np.ndarray) -> np.ndarray:
    """d/dtau of the basis; shape (..., 6)."""
    t = np.asarray(tau, dtype=np.float64)
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    return np.stack(
        [
            -30.0 * t2 + 60.0 * t3 - 30.0 * t4,
            1.0 - 18.0 * t2 + 32.0 * t3 - 15.0 * t4,
            0.5 * (2.0 * t - 9.0 * t2 + 12.0 * t3 - 5.0 * t4),
            30.0 * t2 - 60.0 * t3 + 30.0 * t4,
            -12.0 * t2 + 28.0 * t3 - 15.0 * t4,
            0.5 * (3.0 * t2 - 8.0 * t3 + 5.0 * t4),
        ],
        axis=-1,
    )


def hermite_basis_d2(tau: np.ndarray) -> np.ndarray:
    """d2/dtau2 of the basis; shape (..., 6)."""
    t = np.asarray(tau, dtype=np.float64)
    t2 = t * t
    t3 = t2 * t
    return np.stack(
        [
            -60.0 * t + 180.0 * t2 - 120.0 * t3,
            -36.0 * t + 96.0 * t2 - 60.0 * t3,
            0.5 * (2.0 - 18.0 * t + 36.0 * t2 - 20.0 * t3),
            60.0 * t - 180.0 * t2 + 120.0 * t3,
            -24.0 * t + 84.0 * t2 - 60.0 * t3,
            0.5 * (6.0 * t - 24.0 * t2 + 20.0 * t3),
        ],
        axis=-1,
    )


# Bases on the unit segment per table width m, indexed by the derivative
# order in tau; column j weights row j of a segment's (2m, d) knot block.
_BASES = {
    1: (
        lambda t: np.stack([1.0 - t, t], axis=-1),
        lambda t: np.broadcast_to([-1.0, 1.0], t.shape + (2,)),
        lambda t: np.broadcast_to(0.0, t.shape + (2,)),
    ),
    3: (hermite_basis, hermite_basis_d1, hermite_basis_d2),
}


def segment_derivatives(table: np.ndarray, left: np.ndarray, tau, h, orders) -> list:
    """Time derivatives of the given orders (0, 1 or 2) on a batch of segments.

    Segment i runs from row left[i] of the knot table (n_rows, m, d) to the
    next row, has width h[i] and is evaluated at the local coordinate
    tau[i] in [0, 1]. Returns one (B, d) array per order.

    The knot derivatives are scaled to the unit segment on the basis side:
    basis columns are multiplied by [1, h, h^2][:m] per end and divided by
    h^order, leaving the table untouched. A basis weight of exactly 1 thus
    returns the table entry bit for bit (quintic endpoint velocities are
    the knot d).
    """
    m = table.shape[1]
    knots = table[left[:, None] + (0, 1)].reshape(left.size, 2 * m, -1)
    h = h[:, None]
    out = []
    for k in orders:
        w = _BASES[m][k](tau)
        for p in range(1, m):
            w[:, p::m] *= h**p
        if k:
            w = w / h**k
        out.append(np.einsum("bj,bjd->bd", w, knots))
    return out


def locate_segments(times: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Half-open segment index for each query time; t == 1 uses the last."""
    idx = np.searchsorted(times, t, side="right") - 1
    return np.clip(idx, 0, times.size - 2)


def _check_range(t: np.ndarray) -> None:
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise OutOfRangeError("query times must lie in the normalized interval [0, 1]")


def _as_queries(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    _check_range(arr)
    return arr, scalar


def _check_values(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise InvalidArgumentError("snapshot array must have shape (n_times, state_dim)")
    if values.shape[0] != len(grid):
        raise InvalidArgumentError(
            f"got {values.shape[0]} snapshots for a {len(grid)}-point grid"
        )
    return values


@dataclass(frozen=True)
class Spline:
    """Linear (m = 1) or quintic Hermite (m = 3) interpolant of one trajectory."""

    grid: TimeGrid
    table: np.ndarray  # (n_knots, m, d)

    def __post_init__(self):
        shape = np.shape(self.table)
        if len(shape) != 3 or shape[0] != len(self.grid) or shape[1] not in _BASES:
            raise InvalidArgumentError(
                f"knot table has shape {shape}, expected ({len(self.grid)}, 1 or 3, d)"
            )

    @property
    def state_dim(self) -> int:
        return int(self.table.shape[2])

    def eval(self, t):
        return self._derivative(t, 0)

    def eval_velocity(self, t):
        return self._derivative(t, 1)

    def eval_accel(self, t):
        return self._derivative(t, 2)

    def _derivative(self, t, order: int):
        ts, scalar = _as_queries(t)
        seg = locate_segments(self.grid.times, ts)
        h = self.grid.steps[seg]
        tau = (ts - self.grid.times[seg]) / h
        (out,) = segment_derivatives(self.table, seg, tau, h, (order,))
        return out[0] if scalar else out


def build_linear(grid: TimeGrid, values: np.ndarray) -> Spline:
    """Linear interpolant of the snapshots on their grid (a view, no copy)."""
    return Spline(grid=grid, table=_check_values(grid, values)[:, None, :])


def build_quintic(
    grid: TimeGrid, values: np.ndarray, derivs: KnotDerivatives | None = None
) -> Spline:
    """Quintic Hermite interpolant; derivatives estimated via stencils.

    Passing explicit `derivs` overrides the finite-difference estimates
    (used when exact derivatives are known). Needs at least 3 knots.
    """
    values = _check_values(grid, values)
    if len(grid) < 3:
        raise InvalidArgumentError(
            "quintic splines need at least 3 knots for derivative stencils; "
            "use build_linear for 2-point trajectories"
        )
    if derivs is None:
        derivs = estimate_knot_derivatives(grid, values)
    if derivs.d.shape != values.shape or derivs.a.shape != values.shape:
        raise InvalidArgumentError("derivative arrays must match the snapshot shape")
    return Spline(grid=grid, table=np.stack([values, derivs.d, derivs.a], axis=1))


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-segment polynomial noise bump with amplitude gamma0 (state units).

    m controls smoothness: the schedule and its derivatives up to order
    m - 1 vanish at every knot, so m >= 3 keeps the noisy path C2.
    """

    gamma0: float = 0.0
    m: int = 3

    def __post_init__(self):
        if self.gamma0 < 0.0:
            raise InvalidArgumentError("gamma0 must be >= 0")
        if self.m < 1:
            raise InvalidArgumentError("smoothness exponent m must be >= 1")

    def from_tau(self, tau: np.ndarray, h: np.ndarray):
        """(gamma, dgamma/dt) from the local segment coordinate and width."""
        if self.gamma0 == 0.0:
            zeros = np.zeros_like(np.asarray(tau, dtype=np.float64))
            return zeros, zeros
        tau = np.asarray(tau, dtype=np.float64)
        bump = tau * (1.0 - tau)
        value = self.gamma0 * bump**self.m
        slope = self.gamma0 * self.m * bump ** (self.m - 1) * (1.0 - 2.0 * tau) / h
        return value, slope

