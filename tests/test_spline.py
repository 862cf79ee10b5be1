import numpy as np
import pytest

from splineflow import (
    InvalidArgumentError,
    NoiseSchedule,
    build_linear,
    build_quintic,
    uniform_grid,
)
from splineflow.spline import hermite_basis, hermite_basis_d1, segment_derivatives
from splineflow.timegrid import TimeGrid


def hermite_basis_d2(tau: np.ndarray) -> np.ndarray:
    """d2/dtau2 of the quintic Hermite basis; shape (..., 6)."""
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


# d2/dtau2 bases per table width m; the library evaluates orders 0 and 1 only
_D2_BASES = {1: lambda t: np.zeros(t.shape + (2,)), 3: hermite_basis_d2}


def _at(grid, table, ts, order):
    """Time derivative of the given order at ts of the (grid, table) spline, shape (n, d).

    Segments are half-open with t = 1 in the last one, so a knot is read
    from the segment to its right. Order 2 repeats `segment_derivatives`'
    contraction with the test-local d2 bases.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    times = grid.times
    seg = np.minimum(np.searchsorted(times, ts, side="right") - 1, times.size - 2)
    h = grid.steps[seg]
    tau = (ts - times[seg]) / h
    if order < 2:
        (out,) = segment_derivatives(table, seg, tau, h, (order,))
        return out
    m = table.shape[1]
    w = _D2_BASES[m](tau)
    for p in range(1, m):
        w[:, p::m] *= h[:, None] ** p
    knots = table[seg[:, None] + (0, 1)].reshape(seg.size, 2 * m, -1)
    return np.einsum("bj,bjd->bd", w / h[:, None] ** 2, knots)


def test_hermite_endpoint_conditions():
    b0 = hermite_basis(np.array([0.0]))[0]
    b1 = hermite_basis(np.array([1.0]))[0]
    d0 = hermite_basis_d1(np.array([0.0]))[0]
    d1 = hermite_basis_d1(np.array([1.0]))[0]
    s0 = hermite_basis_d2(np.array([0.0]))[0]
    s1 = hermite_basis_d2(np.array([1.0]))[0]
    # value / first / second derivative must pick out exactly one basis
    # polynomial at each endpoint and annihilate the other five.
    assert np.allclose(b0, [1, 0, 0, 0, 0, 0], atol=1e-12)
    assert np.allclose(d0, [0, 1, 0, 0, 0, 0], atol=1e-12)
    assert np.allclose(s0, [0, 0, 1, 0, 0, 0], atol=1e-12)
    assert np.allclose(b1, [0, 0, 0, 1, 0, 0], atol=1e-12)
    assert np.allclose(d1, [0, 0, 0, 0, 1, 0], atol=1e-12)
    assert np.allclose(s1, [0, 0, 0, 0, 0, 1], atol=1e-12)


def test_linear_segment_and_velocity():
    grid = uniform_grid(2)
    table = build_linear(grid, np.array([[0.0], [1.0]]))
    assert np.allclose(_at(grid, table, 0.3, 0), [[0.3]])
    assert np.allclose(_at(grid, table, [0.0, 0.25, 0.99, 1.0], 1), 1.0)


def test_linear_constant_has_zero_velocity():
    grid = uniform_grid(7)
    table = build_linear(grid, np.full((7, 2), 2.5))
    ts = np.linspace(0, 1, 23)
    assert np.array_equal(_at(grid, table, ts, 1), np.zeros((23, 2)))
    assert np.allclose(_at(grid, table, ts, 0), 2.5)


def test_linear_velocity_is_secant_slope():
    grid = TimeGrid(times=np.array([0.0, 0.4, 1.0]))
    values = np.array([[1.0], [3.0], [0.0]])
    table = build_linear(grid, values)
    assert np.allclose(_at(grid, table, 0.2, 1), [[(3 - 1) / 0.4]])
    assert np.allclose(_at(grid, table, 0.7, 1), [[(0 - 3) / 0.6]])
    # knot velocity follows the forward-difference (right-segment) convention
    assert np.allclose(_at(grid, table, 0.4, 1), [[(0 - 3) / 0.6]])
    # a linear spline has no acceleration
    assert np.array_equal(_at(grid, table, [0.2, 0.4, 0.7], 2), np.zeros((3, 1)))


def test_quintic_reproduces_identity_map():
    # single segment with exact knot data [u, du/dt, d2u/dt2] for f(t) = t;
    # constructed directly because build_quintic insists on >= 3 knots
    table = np.array([[[0.0], [1.0], [0.0]], [[1.0], [1.0], [0.0]]])
    grid = uniform_grid(2)
    assert np.allclose(_at(grid, table, 0.5, 0), [[0.5]], atol=1e-13)
    ts = np.linspace(0, 1, 17)
    assert np.allclose(_at(grid, table, ts, 0)[:, 0], ts, atol=1e-13)


def test_quintic_rejects_two_knots():
    with pytest.raises(InvalidArgumentError):
        build_quintic(uniform_grid(2), np.zeros((2, 1)))


def test_quintic_reproduces_degree_five_polynomial():
    # exact knot derivatives in the table: the Hermite interpolant is
    # exact for degree <= 5 regardless of grid spacing
    coeffs = np.array([0.3, -1.2, 0.5, 2.0, -0.7, 1.1])  # highest power first
    poly = np.polynomial.polynomial.Polynomial(coeffs[::-1])
    dpoly = poly.deriv()
    ddpoly = dpoly.deriv()
    knots = np.array([0.0, 0.37, 1.0])
    grid = TimeGrid(times=knots)
    table = np.stack([poly(knots), dpoly(knots), ddpoly(knots)], axis=1)[:, :, None]
    ts = np.linspace(0.0, 1.0, 100)
    scale = np.max(np.abs(poly(ts)))
    assert np.max(np.abs(_at(grid, table, ts, 0)[:, 0] - poly(ts))) < 1e-8 * scale
    assert np.max(np.abs(_at(grid, table, ts, 1)[:, 0] - dpoly(ts))) < 1e-8 * max(
        1.0, np.max(np.abs(dpoly(ts)))
    )
    assert np.max(np.abs(_at(grid, table, ts, 2)[:, 0] - ddpoly(ts))) < 1e-8 * max(
        1.0, np.max(np.abs(ddpoly(ts)))
    )


def _wiggly_quintic():
    t = np.linspace(0.0, 1.0, 9)
    grid = TimeGrid(times=t)
    values = np.stack([np.sin(5 * t), np.cos(3 * t)], axis=1)
    return grid, build_quintic(grid, values)


def test_quintic_interpolates_knots():
    grid, table = _wiggly_quintic()
    got = _at(grid, table, grid.times, 0)
    assert np.max(np.abs(got - table[:, 0])) < 1e-12


def test_quintic_velocity_and_accel_match_knot_data():
    grid, table = _wiggly_quintic()
    interior = grid.times[1:-1]
    assert np.allclose(_at(grid, table, interior, 1), table[1:-1, 1], atol=1e-10)
    assert np.allclose(_at(grid, table, interior, 2), table[1:-1, 2], atol=1e-8)


def test_quintic_c2_continuity_at_interior_knots():
    # one-sided limits from both segments agree: evaluate each segment's
    # basis combination at tau=1 and compare with the knot data the next
    # segment starts from
    grid, table = _wiggly_quintic()
    times = grid.times
    h = grid.steps
    for i in range(len(times) - 2):
        hi = h[i]
        scale = np.array([1.0, hi, hi * hi])[:, None]
        coeffs = np.concatenate([table[i] * scale, table[i + 1] * scale])
        left_val = hermite_basis(np.array([1.0]))[0] @ coeffs
        left_vel = hermite_basis_d1(np.array([1.0]))[0] @ coeffs / hi
        left_acc = hermite_basis_d2(np.array([1.0]))[0] @ coeffs / (hi * hi)
        right_val, right_vel, right_acc = (_at(grid, table, times[i + 1], k)[0] for k in (0, 1, 2))
        assert np.allclose(left_val, right_val, rtol=1e-9, atol=1e-12)
        assert np.allclose(left_vel, right_vel, rtol=1e-9, atol=1e-9)
        assert np.allclose(left_acc, right_acc, rtol=1e-9, atol=1e-7)


def test_gamma_vanishes_at_knots():
    h = uniform_grid(5).steps
    schedule = NoiseSchedule(gamma0=0.7, m=3)
    for tau in (0.0, 1.0):
        value, slope = schedule.from_tau(np.full(h.size, tau), h)
        assert np.allclose(value, 0.0, atol=1e-15)
        assert np.allclose(slope, 0.0, atol=1e-15)


def test_gamma_midpoint_value():
    h = uniform_grid(5).steps[1]
    for m in (1, 2, 3):
        schedule = NoiseSchedule(gamma0=2.0, m=m)
        value, slope = schedule.from_tau(0.5, h)
        assert np.isclose(value, 2.0 * 4.0 ** (-m))
        assert abs(slope) < 1e-12


def test_gamma_m1_hand_value():
    schedule = NoiseSchedule(gamma0=3.0, m=1)  # single segment [0, 1]
    value, slope = schedule.from_tau(0.25, 1.0)
    assert np.isclose(value, 3.0 * 0.1875)
    assert np.isclose(slope, 3.0 * 0.5)


def test_gamma_zero_amplitude_gives_zero_noise():
    value, slope = NoiseSchedule(gamma0=0.0, m=3).from_tau(np.array([0.37]), np.array([1 / 3]))
    assert value == 0.0 and slope == 0.0


def test_noise_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        NoiseSchedule(gamma0=-1.0, m=3)
    with pytest.raises(InvalidArgumentError):
        NoiseSchedule(gamma0=1.0, m=0)
