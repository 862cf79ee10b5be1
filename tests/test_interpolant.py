import numpy as np
import pytest

from splineflow import (
    InterpolantSampler,
    InvalidArgumentError,
    NoiseSchedule,
    build_linear,
    build_quintic,
    uniform_grid,
)
from splineflow.spline import segment_derivatives
from splineflow.timegrid import TimeGrid


class FixedDraws:
    """Stands in for a numpy Generator: hands the sampler chosen draws."""

    def __init__(self, traj, t, z):
        self.traj = np.asarray(traj)
        self.t = np.asarray(t, dtype=np.float64)
        self.z = np.asarray(z, dtype=np.float64)

    def integers(self, low, high, size):
        return self.traj

    def uniform(self, low, high, size):
        return self.t

    def standard_normal(self, shape):
        return self.z


def _sampler(splines, schedule):
    """Sampler over (grid, knot table) pairs, tables stacked in order as the trainer stacks them."""
    table = np.concatenate([table for _, table in splines])
    return InterpolantSampler([grid for grid, _ in splines], table, schedule)


def _quintic_set(n_traj=4, n_knots=9, seed=0):
    rng = np.random.default_rng(seed)
    splines = []
    for _ in range(n_traj):
        t = uniform_grid(n_knots)
        values = rng.standard_normal((n_knots, 3)).cumsum(axis=0)
        splines.append((t, build_quintic(t, values)))
    return splines


def _irregular_grid(n, rng):
    interior = np.sort(rng.uniform(0.05, 0.95, size=n - 2))
    return TimeGrid(times=np.concatenate(([0.0], interior, [1.0])))


def _quadratic_splines(build, lengths, seed):
    """(grid, knot table) pairs through per-trajectory quadratics on irregular grids.

    Trajectory j samples q_j(t) = c[j, 0] + c[j, 1] t + c[j, 2] t^2 in two
    components; returns the pairs and c, shape (n_traj, 3, 2).
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((len(lengths), 3, 2))
    splines = []
    for n, c in zip(lengths, coeffs):
        grid = _irregular_grid(n, rng)
        t = grid.times[:, None]
        splines.append((grid, build(grid, c[0] + c[1] * t + c[2] * t**2)))
    return splines, coeffs


def _exact(spline, c, t):
    """Path and velocity that a noiseless draw at t must return.

    Quintic: q(t) and q'(t) themselves, since the three-point stencils and
    the Hermite basis are both exact on quadratics. Linear: np.interp and
    the slope of the segment holding t (the right one at a knot).
    """
    grid, table = spline
    if table.shape[1] == 3:
        return c[0] + c[1] * t + c[2] * t**2, c[1] + 2.0 * c[2] * t
    times, u = grid.times, table[:, 0]
    k = min(np.searchsorted(times, t, side="right") - 1, times.size - 2)
    x = np.array([np.interp(t, times, col) for col in u.T])
    return x, (u[k + 1] - u[k]) / (times[k + 1] - times[k])


def _assert_on_truth(splines, coeffs, traj, batch):
    for i, t in enumerate(batch.t):
        x, v = _exact(splines[traj[i]], coeffs[traj[i]], t)
        assert np.allclose(batch.x[i], x, rtol=1e-12, atol=1e-12)
        assert np.allclose(batch.v_target[i], v, rtol=1e-12, atol=1e-12)


def test_sample_at_knot_ignores_noise():
    grid, table = spline = _quintic_set(1)[0]
    sampler = _sampler([spline], NoiseSchedule(gamma0=0.5, m=3))
    knot = grid.times[3]
    out = sampler.sample_batch(1, FixedDraws([0], [knot], np.full((1, 3), 7.0)))
    assert np.allclose(out.x[0], table[3, 0], atol=1e-12)
    assert np.allclose(out.v_target[0], table[3, 1], atol=1e-12)


def test_sample_noiseless_reduces_to_flow_matching():
    splines, coeffs = _quadratic_splines(build_quintic, (9,), seed=1)
    sampler = _sampler(splines, NoiseSchedule(gamma0=0.0, m=3))
    batch = sampler.sample_batch(16, np.random.default_rng(1))
    _assert_on_truth(splines, coeffs, np.zeros(16, dtype=int), batch)


def test_sample_linear_hand_value():
    # straight line 0 -> 1 with m=1 bump: x = t + gamma0*t(1-t)*z,
    # v = 1 + gamma0*(1-2t)*z
    grid = uniform_grid(2)
    table = build_linear(grid, np.array([[0.0], [1.0]]))
    sampler = _sampler([(grid, table)], NoiseSchedule(gamma0=1.0, m=1))
    out = sampler.sample_batch(1, FixedDraws([0], [0.25], [[1.0]]))
    assert np.isclose(out.x[0, 0], 0.25 + 0.1875)
    assert np.isclose(out.v_target[0, 0], 1.0 + 0.5)


def test_linear_draws_at_knots_take_the_right_segment():
    # half-open segments: a draw at t = 0 or at an interior knot reads the
    # segment to its right, and t = 1 the last one
    grid = TimeGrid(times=np.array([0.0, 0.4, 1.0]))
    table = build_linear(grid, np.array([[1.0], [3.0], [0.0]]))
    sampler = _sampler([(grid, table)], NoiseSchedule(gamma0=0.0, m=3))
    out = sampler.sample_batch(3, FixedDraws([0, 0, 0], [0.0, 0.4, 1.0], np.zeros((3, 1))))
    assert np.allclose(out.x[:, 0], [1.0, 3.0, 0.0])
    assert np.allclose(out.v_target[:, 0], [(3 - 1) / 0.4, (0 - 3) / 0.6, (0 - 3) / 0.6])


def test_sample_dimension_mismatch():
    # the stacked table needs one row per knot of the grids and m = 1 or 3
    splines = _quintic_set(2)
    grids = [grid for grid, _ in splines]
    table = np.concatenate([table for _, table in splines])
    for bad in (table[:-1], np.concatenate([table, table[:1]]), table[:, :2], table[:, 0]):
        with pytest.raises(InvalidArgumentError):
            InterpolantSampler(grids, bad, NoiseSchedule())
    InterpolantSampler(grids, table[:, :1], NoiseSchedule())  # a linear table


def test_batch_deterministic_under_seed():
    sampler = _sampler(_quintic_set(), NoiseSchedule(gamma0=1e-3, m=3))
    a = sampler.sample_batch(32, np.random.default_rng(9))
    b = sampler.sample_batch(32, np.random.default_rng(9))
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.v_target, b.v_target)


def test_batch_times_are_uniform():
    sampler = _sampler(_quintic_set(2), NoiseSchedule())
    batch = sampler.sample_batch(10_000, np.random.default_rng(3))
    ts = np.sort(batch.t)
    n = ts.size
    # Kolmogorov-Smirnov distance against the uniform CDF
    upper = np.max(np.arange(1, n + 1) / n - ts)
    lower = np.max(ts - np.arange(0, n) / n)
    assert max(upper, lower) < 0.05


def test_batch_noiseless_targets_lie_on_splines():
    # trajectories of 5, 7 and 9 knots on irregular grids share one batch
    for build in (build_linear, build_quintic):
        splines, coeffs = _quadratic_splines(build, (5, 7, 9), seed=4)
        sampler = _sampler(splines, NoiseSchedule(gamma0=0.0, m=3))
        batch = sampler.sample_batch(64, np.random.default_rng(4))
        # recover the drawn indices by replaying the rng
        traj = np.random.default_rng(4).integers(0, 3, size=64)
        assert set(traj.tolist()) == {0, 1, 2}
        _assert_on_truth(splines, coeffs, traj, batch)


def test_stacked_path_matches_scalar_sampling():
    # each row of a batch equals a one-row batch of the same draws
    sampler = _sampler(_quintic_set(3), NoiseSchedule(gamma0=0.05, m=3))
    batch = sampler.sample_batch(48, np.random.default_rng(12))
    replay = np.random.default_rng(12)
    traj = replay.integers(0, 3, size=48)
    ts = replay.uniform(0, 1, size=48)
    zs = replay.standard_normal((48, 3))
    for i in range(48):
        single = sampler.sample_batch(1, FixedDraws(traj[i : i + 1], ts[i : i + 1], zs[i : i + 1]))
        assert np.array_equal(batch.x[i], single.x[0])
        assert np.array_equal(batch.v_target[i], single.v_target[0])


def _on_spline(spline, t):
    """(segment, tau, h, path, velocity) at t, segment found by searchsorted."""
    grid, table = spline
    times = grid.times
    seg = min(np.searchsorted(times, t, side="right") - 1, times.size - 2)
    h = grid.steps[seg]
    tau = (t - times[seg]) / h
    x, v = segment_derivatives(table, np.array([seg]), np.array([tau]), np.array([h]), (0, 1))
    return tau, h, x[0], v[0]


def test_ragged_grids_match_spline_eval_plus_noise():
    # trajectories of 5, 7 and 9 knots on irregular grids share one batch;
    # a searchsorted lookup per draw is the reference for the padded matrix
    schedule = NoiseSchedule(gamma0=0.05, m=3)
    for build in (build_linear, build_quintic):
        rng = np.random.default_rng(5)
        splines = []
        for n in (5, 7, 9):
            grid = _irregular_grid(n, rng)
            splines.append((grid, build(grid, rng.standard_normal((n, 2)))))
        sampler = _sampler(splines, schedule)
        batch = sampler.sample_batch(200, np.random.default_rng(0))
        replay = np.random.default_rng(0)
        traj = replay.integers(0, 3, size=200)
        replay.uniform(0, 1, size=200)
        zs = replay.standard_normal((200, 2))
        assert set(traj.tolist()) == {0, 1, 2}
        for i, (t, z) in enumerate(zip(batch.t, zs)):
            tau, h, x, v = _on_spline(splines[traj[i]], t)
            g, gp = schedule.from_tau(tau, h)
            assert np.allclose(batch.x[i], x + g * z, rtol=1e-12, atol=1e-12)
            assert np.allclose(batch.v_target[i], v + gp * z, rtol=1e-12, atol=1e-12)
        # t == 1 falls in each trajectory's own last segment
        end = sampler.sample_batch(3, FixedDraws([0, 1, 2], np.ones(3), np.ones((3, 2))))
        for i, s in enumerate(splines):
            assert np.allclose(end.x[i], s[1][-1, 0], rtol=1e-12, atol=1e-12)
            assert np.allclose(end.v_target[i], _on_spline(s, 1.0)[3], rtol=1e-12, atol=1e-12)


def test_boundary_continuity_near_knots():
    grid, table = spline = _quintic_set(1)[0]
    sampler = _sampler([spline], NoiseSchedule(gamma0=0.3, m=3))
    knot = grid.times[4]
    out = sampler.sample_batch(2, FixedDraws([0, 0], [knot + 1e-9, knot - 1e-9], np.ones((2, 3))))
    assert np.allclose(out.x, table[4, 0], atol=1e-6)


def test_a_batch_needs_a_sample():
    sampler = _sampler(_quintic_set(1), NoiseSchedule())
    with pytest.raises(InvalidArgumentError, match="batch_size"):
        sampler.sample_batch(0, np.random.default_rng(0))


def test_empty_spline_set_rejected():
    with pytest.raises(InvalidArgumentError):
        InterpolantSampler([], np.empty((0, 3, 3)), NoiseSchedule())


def test_irregular_grid_sampling():
    # per-trajectory irregular grids of equal length
    splines, coeffs = _quadratic_splines(build_quintic, (7, 7, 7), seed=8)
    sampler = _sampler(splines, NoiseSchedule(gamma0=0.0, m=3))
    batch = sampler.sample_batch(40, np.random.default_rng(2))
    traj = np.random.default_rng(2).integers(0, 3, size=40)
    _assert_on_truth(splines, coeffs, traj, batch)
