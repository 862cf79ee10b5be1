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
from splineflow.spline import locate_segments
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


def _quintic_set(n_traj=4, n_knots=9, seed=0):
    rng = np.random.default_rng(seed)
    splines = []
    for _ in range(n_traj):
        t = uniform_grid(n_knots)
        values = rng.standard_normal((n_knots, 3)).cumsum(axis=0)
        splines.append(build_quintic(t, values))
    return splines


def _irregular_grid(n, rng):
    interior = np.sort(rng.uniform(0.05, 0.95, size=n - 2))
    return TimeGrid(times=np.concatenate(([0.0], interior, [1.0])))


def test_sample_at_knot_ignores_noise():
    spline = _quintic_set(1)[0]
    sampler = InterpolantSampler([spline], NoiseSchedule(gamma0=0.5, m=3))
    knot = spline.grid.times[3]
    out = sampler.sample_batch(1, FixedDraws([0], [knot], np.full((1, 3), 7.0)))
    assert np.allclose(out.x[0], spline.table[3, 0], atol=1e-12)
    assert np.allclose(out.v_target[0], spline.eval_velocity(knot), atol=1e-12)


def test_sample_noiseless_reduces_to_flow_matching():
    spline = _quintic_set(1)[0]
    sampler = InterpolantSampler([spline], NoiseSchedule(gamma0=0.0, m=3))
    batch = sampler.sample_batch(16, np.random.default_rng(1))
    for t, x, v in zip(batch.t, batch.x, batch.v_target):
        assert np.array_equal(x, spline.eval(t))
        assert np.array_equal(v, spline.eval_velocity(t))


def test_sample_linear_hand_value():
    # straight line 0 -> 1 with m=1 bump: x = t + gamma0*t(1-t)*z,
    # v = 1 + gamma0*(1-2t)*z
    spline = build_linear(uniform_grid(2), np.array([[0.0], [1.0]]))
    sampler = InterpolantSampler([spline], NoiseSchedule(gamma0=1.0, m=1))
    out = sampler.sample_batch(1, FixedDraws([0], [0.25], [[1.0]]))
    assert np.isclose(out.x[0, 0], 0.25 + 0.1875)
    assert np.isclose(out.v_target[0, 0], 1.0 + 0.5)


def test_sample_dimension_mismatch():
    spline = _quintic_set(1)[0]
    grid = spline.grid
    other_dim = build_quintic(grid, np.zeros((len(grid), 2)))
    other_kind = build_linear(grid, np.zeros((len(grid), 3)))
    for other in (other_dim, other_kind):
        with pytest.raises(InvalidArgumentError):
            InterpolantSampler([spline, other], NoiseSchedule())


def test_batch_deterministic_under_seed():
    sampler = InterpolantSampler(_quintic_set(), NoiseSchedule(gamma0=1e-3, m=3))
    a = sampler.sample_batch(32, np.random.default_rng(9))
    b = sampler.sample_batch(32, np.random.default_rng(9))
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.v_target, b.v_target)


def test_batch_times_are_uniform():
    sampler = InterpolantSampler(_quintic_set(2), NoiseSchedule())
    batch = sampler.sample_batch(10_000, np.random.default_rng(3))
    ts = np.sort(batch.t)
    n = ts.size
    # Kolmogorov-Smirnov distance against the uniform CDF
    upper = np.max(np.arange(1, n + 1) / n - ts)
    lower = np.max(ts - np.arange(0, n) / n)
    assert max(upper, lower) < 0.05


def test_batch_noiseless_targets_lie_on_splines():
    splines = _quintic_set(3)
    schedule = NoiseSchedule(gamma0=0.0, m=3)
    sampler = InterpolantSampler(splines, schedule)
    rng = np.random.default_rng(4)
    batch = sampler.sample_batch(64, rng)
    # recover the drawn indices by replaying the rng
    replay = np.random.default_rng(4)
    traj = replay.integers(0, 3, size=64)
    for i in range(64):
        s = splines[traj[i]]
        assert np.allclose(batch.x[i], s.eval(batch.t[i]), atol=1e-12)
        assert np.allclose(batch.v_target[i], s.eval_velocity(batch.t[i]), atol=1e-12)


def test_stacked_path_matches_scalar_sampling():
    # each row of a batch equals a one-row batch of the same draws
    sampler = InterpolantSampler(_quintic_set(3), NoiseSchedule(gamma0=0.05, m=3))
    batch = sampler.sample_batch(48, np.random.default_rng(12))
    replay = np.random.default_rng(12)
    traj = replay.integers(0, 3, size=48)
    ts = replay.uniform(0, 1, size=48)
    zs = replay.standard_normal((48, 3))
    for i in range(48):
        single = sampler.sample_batch(1, FixedDraws(traj[i : i + 1], ts[i : i + 1], zs[i : i + 1]))
        assert np.array_equal(batch.x[i], single.x[0])
        assert np.array_equal(batch.v_target[i], single.v_target[0])


def test_ragged_grids_match_spline_eval_plus_noise():
    # trajectories of 5, 7 and 9 knots on irregular grids share one batch
    schedule = NoiseSchedule(gamma0=0.05, m=3)
    for build in (build_linear, build_quintic):
        rng = np.random.default_rng(5)
        splines = []
        for n in (5, 7, 9):
            splines.append(build(_irregular_grid(n, rng), rng.standard_normal((n, 2))))
        sampler = InterpolantSampler(splines, schedule)
        batch = sampler.sample_batch(200, np.random.default_rng(0))
        replay = np.random.default_rng(0)
        traj = replay.integers(0, 3, size=200)
        replay.uniform(0, 1, size=200)
        zs = replay.standard_normal((200, 2))
        assert set(traj.tolist()) == {0, 1, 2}
        for i, (t, z) in enumerate(zip(batch.t, zs)):
            s = splines[traj[i]]
            seg = locate_segments(s.grid.times, np.array([t]))[0]
            h = s.grid.steps[seg]
            g, gp = schedule.from_tau((t - s.grid.times[seg]) / h, h)
            assert np.allclose(batch.x[i], s.eval(t) + g * z, rtol=1e-12, atol=1e-12)
            assert np.allclose(batch.v_target[i], s.eval_velocity(t) + gp * z, rtol=1e-12, atol=1e-12)
        # t == 1 falls in each trajectory's own last segment
        end = sampler.sample_batch(3, FixedDraws([0, 1, 2], np.ones(3), np.ones((3, 2))))
        for i, s in enumerate(splines):
            assert np.allclose(end.x[i], s.table[-1, 0], rtol=1e-12, atol=1e-12)
            assert np.allclose(end.v_target[i], s.eval_velocity(1.0), rtol=1e-12, atol=1e-12)


def test_boundary_continuity_near_knots():
    spline = _quintic_set(1)[0]
    sampler = InterpolantSampler([spline], NoiseSchedule(gamma0=0.3, m=3))
    knot = spline.grid.times[4]
    out = sampler.sample_batch(2, FixedDraws([0, 0], [knot + 1e-9, knot - 1e-9], np.ones((2, 3))))
    assert np.allclose(out.x, spline.table[4, 0], atol=1e-6)


def test_empty_spline_set_rejected():
    with pytest.raises(InvalidArgumentError):
        InterpolantSampler([], NoiseSchedule())


def test_irregular_grid_sampling():
    # per-trajectory irregular grids of equal length
    rng = np.random.default_rng(8)
    splines = [build_quintic(_irregular_grid(7, rng), rng.standard_normal((7, 2))) for _ in range(3)]
    sampler = InterpolantSampler(splines, NoiseSchedule(gamma0=0.0, m=3))
    batch = sampler.sample_batch(40, np.random.default_rng(2))
    replay = np.random.default_rng(2)
    traj = replay.integers(0, 3, size=40)
    for i in range(40):
        s = splines[traj[i]]
        assert np.allclose(batch.x[i], s.eval(batch.t[i]), atol=1e-12)
