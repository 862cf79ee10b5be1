"""One spline representation for both kinds: a per-knot table.

A spline over a TimeGrid is its knot table, of shape (n_knots, m, d);
`build_linear` and `build_quintic` return it, and the caller keeps the grid:

* m = 1 holds [u]: the C0 piecewise-linear interpolant (degree-1
  Lagrange basis [1 - tau, tau] on each segment);
* m = 3 holds [u, du/dt, d2u/dt2]: the C2 quintic Hermite interpolant,
  with knot derivatives estimated by `estimate_knot_derivatives`.

`estimate_knot_derivatives` gives each knot the first and second time
derivatives of a quadratic through three neighbouring knots, vectorized
over knots and state components:

* at an interior knot, the quadratic through it and its two neighbours,
  i.e. the three-point formulas (second order for du/dt and first order
  for d2u/dt2 on irregular grids);
* at the first and last knot, the quadratic of the adjacent interior
  knot. Its second derivative is constant and its slope changes linearly,
  so a[0] = a[1] and d[0] = d[1] - h[0] a[1], and at the other end
  a[-1] = a[-2] and d[-1] = d[-2] + h[-1] a[-2]. This keeps du/dt second
  order at the boundary without a linear solve.

`segment_derivatives` is the only way to evaluate a spline: it gathers
the two knots of each segment as (B, 2m, d) and contracts them with the
basis chosen by m, scaled on the basis side by [1, h, h^2][:m] per end
(and divided by h per time derivative). Its callers find the segments
themselves: the batched interpolant sampler at random times, and the
convergence study at segment endpoints. A linear table is a view of the
snapshot array, not a copy.

Knot convention of the sampler: segments are half-open [t_i, t_{i+1})
and t = 1 maps to the final closed segment, so a draw at an interior
knot uses the right-hand segment; a linear spline's velocity there is
the slope of the segment to its right.

The noise schedule is the per-segment polynomial bump
gamma(t) = gamma0 * (t - t_k)^m (t_{k+1} - t)^m / (t_{k+1} - t_k)^{2m},
which vanishes at every knot together with its first m - 1 derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
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


def _check_values(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise InvalidArgumentError("snapshot array must have shape (n_times, state_dim)")
    if values.shape[0] != len(grid):
        raise InvalidArgumentError(
            f"got {values.shape[0]} snapshots for a {len(grid)}-point grid"
        )
    return values


def estimate_knot_derivatives(grid: TimeGrid, values: np.ndarray):
    """(d, a): du/dt and d2u/dt2 at the knots of one trajectory, each (n_knots, d).

    Closed forms of the module docstring, componentwise over the state.
    Expects at least 3 knots and one row of values per knot, which
    `build_quintic` checks.
    """
    values = np.asarray(values, dtype=np.float64)
    h = grid.steps
    d = np.empty_like(values)
    a = np.empty_like(values)

    hp = h[:-1][:, None]  # h_{i-1}
    hn = h[1:][:, None]  # h_i
    tot = hp + hn
    u_prev, u_mid, u_next = values[:-2], values[1:-1], values[2:]
    d[1:-1] = (
        -hn / (hp * tot) * u_prev
        + (hn - hp) / (hp * hn) * u_mid
        + hp / (hn * tot) * u_next
    )
    a[1:-1] = (2.0 / tot) * ((u_next - u_mid) / hn - (u_mid - u_prev) / hp)

    a[0] = a[1]
    d[0] = d[1] - h[0] * a[1]
    a[-1] = a[-2]
    d[-1] = d[-2] + h[-1] * a[-2]
    return d, a


def build_linear(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Knot table (n_knots, 1, d) of the linear interpolant: a view of the snapshots."""
    return _check_values(grid, values)[:, None, :]


def build_quintic(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Knot table (n_knots, 3, d) of the quintic Hermite interpolant.

    The knot derivatives are estimated by `estimate_knot_derivatives`.
    Needs at least 3 knots.
    """
    values = _check_values(grid, values)
    if len(grid) < 3:
        raise InvalidArgumentError(
            "quintic splines need at least 3 knots for derivative stencils; "
            "use build_linear for 2-point trajectories"
        )
    d, a = estimate_knot_derivatives(grid, values)
    return np.stack([values, d, a], axis=1)


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

