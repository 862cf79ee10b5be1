"""General finite-difference weights: the reference for the knot stencils.

`fd_weights` gives the weights of any derivative on any nodes (Fornberg
1988, *Math. Comp.* 51:699) by solving the Vandermonde system on nodes
shifted to the evaluation point. Nothing in the package calls it, and
the package does not export it: the knot derivatives of
`spline.estimate_knot_derivatives` use closed forms, and the tests check
those against it. It stays in this module because the benchmark still
wraps it here by name; it can move to the tests once that span site is
gone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError


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
