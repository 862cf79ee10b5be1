import numpy as np
import pytest

from splineflow import InvalidArgumentError, generate_burgers, generate_lorenz
from splineflow.convergence import (
    downsample_regular,
    endpoint_velocity_study,
    segment_endpoint_velocities,
)
from splineflow.spline import build_linear, build_quintic
from splineflow.stencil import estimate_knot_derivatives
from splineflow.systems import BurgersConfig
from splineflow.timegrid import uniform_grid


def test_downsample_regular_keeps_endpoints():
    grid = uniform_grid(9)
    values = np.arange(18, dtype=float).reshape(9, 2)
    sub_grid, sub_values = downsample_regular(grid, values, 2)
    assert len(sub_grid) == 5
    assert sub_grid.times[0] == 0.0 and sub_grid.times[-1] == 1.0
    assert np.array_equal(sub_values, values[::2])


def test_downsample_requires_divisible_factor():
    with pytest.raises(InvalidArgumentError):
        downsample_regular(uniform_grid(10), np.zeros((10, 1)), 4)


def test_segment_endpoint_velocities_linear_slopes():
    grid = uniform_grid(3)
    values = np.array([[0.0], [1.0], [3.0]])
    v0, v1 = segment_endpoint_velocities(build_linear(grid, values))
    assert np.allclose(v0[:, 0], [2.0, 4.0])
    assert np.array_equal(v0, v1)


def test_segment_endpoint_velocities_quintic_knot_data():
    grid = uniform_grid(5)
    values = np.sin(3 * grid.times)[:, None]
    d = estimate_knot_derivatives(grid, values).d
    v0, v1 = segment_endpoint_velocities(build_quintic(grid, values))
    assert np.array_equal(v0, d[:-1])
    assert np.array_equal(v1, d[1:])


def test_study_orders_on_short_lorenz():
    # 0.5 s horizon at dt = 0.005 s keeps this fast while showing clean
    # first/second-order behavior
    data = generate_lorenz(3, 101, 0.5, 5.0, seed=6)
    rows = endpoint_velocity_study(data, factors=(1, 2, 4))
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row.spline_kind, []).append(row)
    lin = by_kind["linear"]
    qui = by_kind["quintic"]
    assert all(r.n_segments >= 25 for r in lin)
    lin_orders = [r.order_tau0 for r in lin[1:]] + [r.order_tau1 for r in lin[1:]]
    qui_orders = [r.order_tau0 for r in qui[1:]] + [r.order_tau1 for r in qui[1:]]
    assert all(abs(p - 1.0) < 0.2 for p in lin_orders)
    assert all(abs(p - 2.0) < 0.35 for p in qui_orders)
    # quintic is uniformly more accurate at matching step sizes
    assert all(q.err_tau0 < l.err_tau0 for q, l in zip(qui, lin))


def test_study_rejects_non_lorenz():
    data = generate_burgers(2, 11, BurgersConfig(nu=0.01, nx=32), seed=0)
    with pytest.raises(InvalidArgumentError):
        endpoint_velocity_study(data)


def test_study_rejects_irregular_grids():
    data = generate_lorenz(2, 41, 1.0, 5.0, seed=0).subsampled(0.5, base_seed=0)
    with pytest.raises(InvalidArgumentError):
        endpoint_velocity_study(data)
