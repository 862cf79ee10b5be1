import numpy as np
import pytest

from splineflow import (
    InvalidArgumentError,
    NoiseSchedule,
    OutOfRangeError,
    Spline,
    build_linear,
    build_quintic,
    uniform_grid,
)
from splineflow.spline import hermite_basis, hermite_basis_d1, hermite_basis_d2
from splineflow.stencil import KnotDerivatives
from splineflow.timegrid import TimeGrid


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
    spline = build_linear(uniform_grid(2), np.array([[0.0], [1.0]]))
    assert np.allclose(spline.eval(0.3), [0.3])
    for t in (0.0, 0.25, 0.99, 1.0):
        assert np.allclose(spline.eval_velocity(t), [1.0])


def test_linear_constant_has_zero_velocity():
    spline = build_linear(uniform_grid(7), np.full((7, 2), 2.5))
    ts = np.linspace(0, 1, 23)
    assert np.allclose(spline.eval_velocity(ts), 0.0)


def test_linear_velocity_is_secant_slope():
    grid = TimeGrid(times=np.array([0.0, 0.4, 1.0]))
    values = np.array([[1.0], [3.0], [0.0]])
    spline = build_linear(grid, values)
    assert np.allclose(spline.eval_velocity(0.2), [(3 - 1) / 0.4])
    assert np.allclose(spline.eval_velocity(0.7), [(0 - 3) / 0.6])
    # knot velocity follows the forward-difference (right-segment) convention
    assert np.allclose(spline.eval_velocity(0.4), [(0 - 3) / 0.6])


def test_quintic_reproduces_identity_map():
    # single segment with exact knot data [u, du/dt, d2u/dt2] for f(t) = t;
    # constructed directly because build_quintic insists on >= 3 knots
    table = np.array([[[0.0], [1.0], [0.0]], [[1.0], [1.0], [0.0]]])
    spline = Spline(grid=uniform_grid(2), table=table)
    assert np.allclose(spline.eval(0.5), [0.5], atol=1e-13)
    ts = np.linspace(0, 1, 17)
    assert np.allclose(spline.eval(ts)[:, 0], ts, atol=1e-13)


def test_quintic_rejects_two_knots():
    with pytest.raises(InvalidArgumentError):
        build_quintic(uniform_grid(2), np.zeros((2, 1)))


def test_quintic_reproduces_degree_five_polynomial():
    # exact derivatives injected: the Hermite interpolant is exact for
    # degree <= 5 regardless of grid spacing
    coeffs = np.array([0.3, -1.2, 0.5, 2.0, -0.7, 1.1])  # highest power first
    poly = np.polynomial.polynomial.Polynomial(coeffs[::-1])
    dpoly = poly.deriv()
    ddpoly = dpoly.deriv()
    knots = np.array([0.0, 0.37, 1.0])
    grid = TimeGrid(times=knots)
    values = poly(knots)[:, None]
    derivs = KnotDerivatives(d=dpoly(knots)[:, None], a=ddpoly(knots)[:, None])
    spline = build_quintic(grid, values, derivs=derivs)
    ts = np.linspace(0.0, 1.0, 100)
    scale = np.max(np.abs(poly(ts)))
    assert np.max(np.abs(spline.eval(ts)[:, 0] - poly(ts))) < 1e-8 * scale
    assert np.max(np.abs(spline.eval_velocity(ts)[:, 0] - dpoly(ts))) < 1e-8 * max(
        1.0, np.max(np.abs(dpoly(ts)))
    )
    assert np.max(np.abs(spline.eval_accel(ts)[:, 0] - ddpoly(ts))) < 1e-8 * max(
        1.0, np.max(np.abs(ddpoly(ts)))
    )


def _wiggly_quintic():
    t = np.linspace(0.0, 1.0, 9)
    grid = TimeGrid(times=t)
    values = np.stack([np.sin(5 * t), np.cos(3 * t)], axis=1)
    return build_quintic(grid, values)


def test_quintic_interpolates_knots():
    spline = _wiggly_quintic()
    got = spline.eval(spline.grid.times)
    assert np.max(np.abs(got - spline.table[:, 0])) < 1e-12


def test_quintic_velocity_and_accel_match_knot_data():
    spline = _wiggly_quintic()
    interior = spline.grid.times[1:-1]
    assert np.allclose(spline.eval_velocity(interior), spline.table[1:-1, 1], atol=1e-10)
    assert np.allclose(spline.eval_accel(interior), spline.table[1:-1, 2], atol=1e-8)


def test_quintic_c2_continuity_at_interior_knots():
    # one-sided limits from both segments agree: evaluate each segment's
    # basis combination at tau=1 and compare with the knot data the next
    # segment starts from
    spline = _wiggly_quintic()
    times = spline.grid.times
    h = spline.grid.steps
    for i in range(len(times) - 2):
        hi = h[i]
        scale = np.array([1.0, hi, hi * hi])[:, None]
        coeffs = np.concatenate([spline.table[i] * scale, spline.table[i + 1] * scale])
        left_val = hermite_basis(np.array([1.0]))[0] @ coeffs
        left_vel = hermite_basis_d1(np.array([1.0]))[0] @ coeffs / hi
        left_acc = hermite_basis_d2(np.array([1.0]))[0] @ coeffs / (hi * hi)
        right_val = spline.eval(times[i + 1])
        right_vel = spline.eval_velocity(times[i + 1])
        right_acc = spline.eval_accel(times[i + 1])
        assert np.allclose(left_val, right_val, rtol=1e-9, atol=1e-12)
        assert np.allclose(left_vel, right_vel, rtol=1e-9, atol=1e-9)
        assert np.allclose(left_acc, right_acc, rtol=1e-9, atol=1e-7)


def test_eval_rejects_out_of_range():
    spline = _wiggly_quintic()
    for t in (-0.01, 1.01):
        with pytest.raises(OutOfRangeError):
            spline.eval(t)


def test_spline_rejects_bad_table_shape():
    grid = uniform_grid(3)
    for shape in ((3, 2, 1), (4, 1, 1), (3, 3)):
        with pytest.raises(InvalidArgumentError):
            Spline(grid=grid, table=np.zeros(shape))


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


def test_gamma_zero_amplitude_fast_path():
    value, slope = NoiseSchedule(gamma0=0.0, m=3).from_tau(np.array([0.37]), np.array([1 / 3]))
    assert value == 0.0 and slope == 0.0


def test_noise_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        NoiseSchedule(gamma0=-1.0, m=3)
    with pytest.raises(InvalidArgumentError):
        NoiseSchedule(gamma0=1.0, m=0)
