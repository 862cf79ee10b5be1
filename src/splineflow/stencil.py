"""Knot derivative estimates in closed form, and general finite-difference weights.

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

`fd_weights` gives the weights of any derivative on any nodes (Fornberg
1988, *Math. Comp.* 51:699) by solving the Vandermonde system on nodes
shifted to the evaluation point. The closed forms are tested against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .timegrid import TimeGrid


def fd_weights(nodes, center_index: int, k: int) -> np.ndarray:
    """Finite-difference weights for the k-th derivative at nodes[center_index].

    Solves P w = k! e_k with P[r, j] = (x_j - x_center)^r; exact for
    polynomials of degree <= m and accurate to O(h^{m+1-k}) on smooth
    functions, where m + 1 is the number of nodes. Weight j multiplies
    the sample at nodes[j].
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    m = nodes.size - 1
    if nodes.ndim != 1 or m < 0:
        raise InvalidArgumentError("nodes must be a nonempty 1-d sequence")
    if not (0 <= center_index <= m):
        raise InvalidArgumentError(f"center_index {center_index} outside nodes")
    if not (0 <= k <= m):
        raise InvalidArgumentError(
            f"derivative order k={k} needs at least k+1 nodes, got {m + 1}"
        )
    if np.unique(nodes).size != nodes.size:
        raise InvalidArgumentError("nodes must be pairwise distinct (singular system)")
    shifted = nodes - nodes[center_index]
    powers = np.vander(shifted, m + 1, increasing=True).T  # P[r, j] = shifted[j]^r
    rhs = np.zeros(m + 1)
    rhs[k] = math.factorial(k)
    try:
        return np.linalg.solve(powers, rhs)
    except np.linalg.LinAlgError as exc:  # near-duplicate nodes
        raise InvalidArgumentError(f"singular stencil system: {exc}") from exc


@dataclass(frozen=True)
class KnotDerivatives:
    """First (d) and second (a) time-derivative estimates at every knot.

    Shapes are (n_knots, state_dim); units are state per unit normalized
    time and per unit squared, respectively.
    """

    d: np.ndarray
    a: np.ndarray


def estimate_knot_derivatives(grid: TimeGrid, values: np.ndarray) -> KnotDerivatives:
    """Estimate du/dt and d2u/dt2 at the knots of one trajectory.

    Interior knots use the three-point formulas; the first and last knots
    take the derivatives of the quadratic through the nearest three knots
    (see the module docstring). Componentwise over the state.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(grid)
    if n < 3:
        raise InvalidArgumentError("derivative estimation needs at least 3 knots")
    if values.shape[0] != n:
        raise InvalidArgumentError(
            f"got {values.shape[0]} snapshots for a {n}-point grid"
        )
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
    return KnotDerivatives(d=d, a=a)
