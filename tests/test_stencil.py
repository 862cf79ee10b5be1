import math

import numpy as np
import pytest

from splineflow import InvalidArgumentError, estimate_knot_derivatives, uniform_grid
from splineflow.stencil import fd_weights
from splineflow.timegrid import TimeGrid


def monomial_defects(nodes, center, weights, k):
    """Max relative defect of sum_j w_j (x_j - x_c)^r against k! delta_rk."""
    shifted = nodes - nodes[center]
    m = shifted.size - 1
    worst = 0.0
    for r in range(m + 1):
        applied = float(weights @ shifted**r)
        target = math.factorial(k) if r == k else 0.0
        scale = max(1.0, math.factorial(k))
        worst = max(worst, abs(applied - target) / scale)
    return worst


def test_forward_first_derivative_weights():
    h = 0.05
    w = fd_weights([0.0, h, 2 * h], center_index=0, k=1)
    assert np.allclose(w, [-3.0 / (2 * h), 2.0 / h, -1.0 / (2 * h)], rtol=1e-12)


def test_k0_is_identity_evaluation():
    w = fd_weights([-0.3, 0.0, 0.4], center_index=1, k=0)
    assert np.allclose(w, [0.0, 1.0, 0.0], atol=1e-12)


def test_central_second_derivative_weights():
    h = 0.1
    w = fd_weights([-h, 0.0, h], center_index=1, k=2)
    assert np.allclose(w, [1 / h**2, -2 / h**2, 1 / h**2], rtol=1e-12)


def test_duplicate_nodes_rejected():
    with pytest.raises(InvalidArgumentError):
        fd_weights([0.0, 0.1, 0.1], 0, 1)


def test_order_above_node_count_rejected():
    with pytest.raises(InvalidArgumentError):
        fd_weights([0.0, 0.1, 0.2], 0, 3)


def test_monomial_exactness_random_nodes():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 7))
        nodes = np.sort(rng.uniform(-1.0, 1.0, size=m + 1))
        while np.min(np.diff(nodes)) < 1e-3:
            nodes = np.sort(rng.uniform(-1.0, 1.0, size=m + 1))
        center = int(rng.integers(0, m + 1))
        k = int(rng.integers(0, m + 1))
        w = fd_weights(nodes, center, k)
        assert monomial_defects(nodes, center, w, k) < 1e-10


def knot_weights(times):
    """Weights of estimate_knot_derivatives as (n, n) matrices (it is linear).

    Row i of d (or a) holds the weight of every knot's value in the
    estimate at knot i.
    """
    times = np.asarray(times, dtype=np.float64)
    return estimate_knot_derivatives(TimeGrid(times=times), np.eye(times.size))


def fd_reference(times, i, k):
    """fd_weights on the three knots nearest to knot i, as a full row."""
    n = times.size
    lo = min(max(i - 1, 0), n - 3)
    row = np.zeros(n)
    row[lo : lo + 3] = fd_weights(times[lo : lo + 3], i - lo, k)
    return row


def test_first_derivative_3pt_uniform_collapse():
    h = 0.2
    d, _ = knot_weights(np.linspace(0.0, 1.0, 6))
    for i in range(1, 5):
        expected = np.zeros(6)
        expected[[i - 1, i + 1]] = [-1 / (2 * h), 1 / (2 * h)]
        assert np.allclose(d[i], expected, atol=1e-14)


def test_first_derivative_3pt_unequal_steps():
    # knot 1 of this grid has h_prev = 0.1 and h_next = 0.2
    d, _ = knot_weights([0.0, 0.1, 0.3, 1.0])
    expected = [-0.2 / (0.1 * 0.3), 0.1 / (0.1 * 0.2), 0.1 / (0.2 * 0.3), 0.0]
    assert np.allclose(d[1], expected, rtol=1e-12)
    assert np.allclose(d[1], [-6.6667, 5.0, 1.6667, 0.0], atol=5e-4)


def test_second_derivative_3pt_uniform_collapse():
    h = 0.25
    _, a = knot_weights(np.linspace(0.0, 1.0, 5))
    for i in range(1, 4):
        expected = np.zeros(5)
        expected[i - 1 : i + 2] = [1 / h**2, -2 / h**2, 1 / h**2]
        assert np.allclose(a[i], expected, rtol=1e-12)


def test_second_derivative_3pt_exact_on_quadratics():
    rng = np.random.default_rng(5)
    for _ in range(10):
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, size=3)), [1.0]))
        _, a = knot_weights(times)
        assert np.all(np.abs(a @ times**2 - 2.0) < 1e-10)


def test_second_derivative_3pt_unequal_steps():
    # 2/(h_prev+h_next) * (1/h_prev, -(1/h_prev + 1/h_next), 1/h_next)
    _, a = knot_weights([0.0, 0.1, 0.3, 1.0])
    factor = 2.0 / 0.3
    assert np.allclose(a[1], [factor * 10, -factor * 15, factor * 5, 0.0], rtol=1e-12)


def test_closed_forms_match_vandermonde_solve():
    # every knot, endpoints included, on random irregular 3- to 6-knot grids
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, size=n - 2)), [1.0]))
        d, a = knot_weights(times)
        for i in range(n):
            for k, est in ((1, d), (2, a)):
                ref = fd_reference(times, i, k)
                assert np.max(np.abs(est[i] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_endpoint_first_derivative_is_second_order():
    def endpoint_errors(n):
        t = np.linspace(0.0, 1.0, n)
        d, _ = estimate_knot_derivatives(TimeGrid(times=t), np.sin(3.0 * t)[:, None])
        return abs(d[0, 0] - 3.0), abs(d[-1, 0] - 3.0 * np.cos(3.0))

    errors = np.array([endpoint_errors(n) for n in (33, 65, 129)])  # (level, end)
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all((1.9 < orders) & (orders < 2.1))
    assert 5e-3 < errors[0, 0] < 1.2e-2


def test_knot_derivatives_constant_trajectory():
    grid = uniform_grid(9)
    values = np.full((9, 3), 4.2)
    d, a = estimate_knot_derivatives(grid, values)
    assert np.allclose(d, 0.0, atol=1e-12)
    assert np.allclose(a, 0.0, atol=1e-10)


def test_knot_derivatives_exact_on_quadratic():
    # irregular grid; both stencil families are exact on t^2
    raw = np.array([0.0, 0.13, 0.31, 0.4, 0.77, 1.0])
    grid = TimeGrid(times=raw)
    values = (raw**2)[:, None]
    d, a = estimate_knot_derivatives(grid, values)
    assert np.allclose(d[:, 0], 2 * raw, atol=1e-10)
    assert np.allclose(a[:, 0], 2.0, atol=1e-8)


def test_interior_convergence_orders():
    # halving h on sin: first derivative O(h^2), second at least O(h)
    def errors(n):
        t = np.linspace(0.0, 1.0, n)
        grid = TimeGrid(times=t)
        values = np.sin(3.0 * t)[:, None]
        d, a = estimate_knot_derivatives(grid, values)
        d_err = np.max(np.abs(d[1:-1, 0] - 3.0 * np.cos(3.0 * t[1:-1])))
        a_err = np.max(np.abs(a[1:-1, 0] + 9.0 * np.sin(3.0 * t[1:-1])))
        return d_err, a_err

    d1, a1 = errors(33)
    d2, a2 = errors(65)
    order_d = np.log2(d1 / d2)
    order_a = np.log2(a1 / a2)
    assert 1.8 < order_d < 2.2
    assert order_a > 0.9
