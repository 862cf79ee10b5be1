import numpy as np
import pytest

from splineflow import (
    BurgersConfig,
    DivergedError,
    InvalidArgumentError,
    NumericError,
    TrajectorySet,
    burgers_rhs,
    generate_burgers,
    generate_lorenz,
    lorenz_rhs,
    relative_l2,
    sample_grf_initial,
)
from splineflow.systems import burgers_substeps, grf_mode_std


def test_lorenz_equilibrium_at_origin():
    assert np.allclose(lorenz_rhs(np.zeros(3)), 0.0)


def test_lorenz_at_ones():
    assert np.allclose(lorenz_rhs(np.array([1.0, 1.0, 1.0])), [0.0, 26.0, -5.0 / 3.0])


def test_lorenz_nontrivial_fixed_point():
    c = np.sqrt(72.0)
    assert np.allclose(lorenz_rhs(np.array([c, c, 27.0])), 0.0, atol=1e-12)


def _lorenz_rhs_reference(state):
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    return np.stack([10.0 * (y - x), x * (28.0 - z) - y, x * y - (8.0 / 3.0) * z], axis=-1)


def _burgers_rhs_reference(u, config):
    dx = config.dx
    up = np.roll(u, -1, axis=-1)
    um = np.roll(u, 1, axis=-1)
    diffusion = config.nu * (up - 2.0 * u + um) / (dx * dx)
    flux = 0.5 * u * u
    advection = (np.roll(flux, -1, axis=-1) - np.roll(flux, 1, axis=-1)) / (2.0 * dx)
    return diffusion - advection


def test_lorenz_rhs_is_bit_identical_to_the_stacked_expression():
    rng = np.random.default_rng(0)
    for state in (20.0 * rng.normal(size=(1000, 3)), rng.normal(size=(2, 4, 3)),
                  np.array([1.5, -7.25, 30.0])):
        out = lorenz_rhs(state)
        assert out.shape == state.shape
        assert np.array_equal(out, _lorenz_rhs_reference(state))


def test_burgers_rhs_is_bit_identical_to_the_rolled_expression():
    rng = np.random.default_rng(1)
    for nx, shape in ((100, (600,)), (64, (2, 3)), (17, ()), (33, (5,))):
        config = BurgersConfig(nu=0.013, nx=nx)
        u = 3.0 * rng.normal(size=shape + (nx,))
        out = burgers_rhs(u, config)
        assert out.shape == u.shape
        assert np.array_equal(out, _burgers_rhs_reference(u, config))


def test_lorenz_generation_reproducible():
    a = generate_lorenz(2, 31, 2.0, 5.0, seed=4)
    b = generate_lorenz(2, 31, 2.0, 5.0, seed=4)
    for ua, ub in zip(a.states, b.states):
        assert np.array_equal(ua, ub)
    c = generate_lorenz(2, 31, 2.0, 5.0, seed=5)
    assert not np.array_equal(a.states[0], c.states[0])


def test_lorenz_generation_self_converges():
    # desk-scale resolution: 201 output points at 10 substeps each
    coarse = generate_lorenz(3, 201, 5.0, 5.0, seed=1, substeps=10)
    fine = generate_lorenz(3, 201, 5.0, 5.0, seed=1, substeps=20)
    errs = [relative_l2(c, f) for c, f in zip(coarse.states, fine.states)]
    assert max(errs) < 1e-7


def test_lorenz_states_bounded():
    data = generate_lorenz(20, 101, 5.0, 5.0, seed=2)
    for u in data.states:
        assert np.max(np.abs(u)) < 100.0


def test_lorenz_grid_normalized():
    data = generate_lorenz(1, 11, 5.0, 5.0, seed=0)
    g = data.grids[0]
    assert g.times[0] == 0.0 and g.times[-1] == 1.0
    assert data.raw_horizon == 5.0
    for horizon in (0.0, -5.0, float("nan")):
        with pytest.raises(InvalidArgumentError):
            TrajectorySet(grids=data.grids, states=data.states, state_dim=3,
                          system_tag="lorenz", raw_horizon=horizon)


def test_burgers_rhs_constant_field():
    config = BurgersConfig(nu=0.01, nx=64)
    assert np.allclose(burgers_rhs(np.full(64, 1.7), config), 0.0, atol=1e-12)


def test_burgers_diffusion_matches_analytic_laplacian():
    # odd/even split isolates the linear diffusion term:
    # rhs(u) - rhs(-u) = 2 * nu * Laplacian(u) for the conservative flux
    config = BurgersConfig(nu=0.01, nx=128)
    x = np.arange(config.nx) * config.dx
    u = np.sin(2 * np.pi * x)
    diffusion = 0.5 * (burgers_rhs(u, config) - burgers_rhs(-u, config))
    analytic = -config.nu * (2 * np.pi) ** 2 * u
    err = np.max(np.abs(diffusion - analytic)) / np.max(np.abs(analytic))
    assert err < (2 * np.pi * config.dx) ** 2  # second-order accuracy


def test_burgers_energy_dissipates():
    data = generate_burgers(3, 21, BurgersConfig(nu=0.01, nx=64), seed=3)
    for u in data.states:
        energy = np.sum(u * u, axis=1) / 64
        assert np.all(np.diff(energy) <= 1e-12)


def test_burgers_maximum_principle():
    data = generate_burgers(4, 31, BurgersConfig(nu=0.01, nx=100), seed=1)
    for u in data.states:
        assert np.max(np.abs(u)) <= np.max(np.abs(u[0])) + 1e-6


def test_burgers_self_convergence():
    config = BurgersConfig(nu=0.01, nx=100)
    base = burgers_substeps(config, 1.0 / 30)
    coarse = generate_burgers(2, 31, config, seed=2, substeps=base)
    fine = generate_burgers(2, 31, config, seed=2, substeps=2 * base)
    errs = [relative_l2(c, f) for c, f in zip(coarse.states, fine.states)]
    assert max(errs) < 1e-5


def test_burgers_substep_rule_respects_stability_bound():
    config = BurgersConfig(nu=0.01, nx=100)
    interval = 0.01
    n = burgers_substeps(config, interval)
    assert interval / n <= 0.5 * config.dx**2 / config.nu + 1e-15


def test_burgers_too_few_substeps_raises():
    # 100 intervals of 0.01 s need 2 substeps for h <= 0.5 dx^2 / nu
    with pytest.raises(NumericError, match="needs >= 2 substeps"):
        generate_burgers(2, 101, substeps=1)


def test_lorenz_too_few_substeps_raises_instead_of_redrawing():
    # two RK4 substeps per 0.25 s interval blow up some draws from the box;
    # replacing them would keep only initial conditions that survive the step
    with pytest.raises(DivergedError, match="with 2 substeps"):
        generate_lorenz(200, 21, substeps=2)


def test_grf_is_real_and_seeded():
    a = sample_grf_initial(100, seed=0)
    b = sample_grf_initial(100, seed=0)
    c = sample_grf_initial(100, seed=1)
    assert a.shape == (100,)
    assert a.dtype == np.float64
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_grf_mode_variances_match_covariance():
    n_draws, nx = 10_000, 100
    draws = np.stack([sample_grf_initial(nx, seed=[10, i]) for i in range(n_draws)])
    modes = np.fft.rfft(draws, axis=1) / nx
    observed = np.mean(np.abs(modes) ** 2, axis=0)
    for k in range(6):
        expected = grf_mode_std(np.array([k]))[0] ** 2
        assert abs(observed[k] - expected) / expected < 0.10


def test_grf_rejects_tiny_grids():
    with pytest.raises(InvalidArgumentError):
        sample_grf_initial(8, seed=0)


def test_trajectory_set_subsampling():
    data = generate_lorenz(3, 41, 2.0, 5.0, seed=0)
    sub = data.subsampled(0.5, base_seed=0)
    assert sub.n_traj == 3
    for g_old, g_new, u_new in zip(data.grids, sub.grids, sub.states):
        assert len(g_new) == 21  # round-half-up of 20.5
        assert g_new.times[0] == 0.0 and g_new.times[-1] == 1.0
        assert set(g_new.times.tolist()) <= set(g_old.times.tolist())
        assert u_new.shape == (len(g_new), 3)
    # trajectory-specific patterns differ
    assert not np.array_equal(sub.grids[0].times, sub.grids[1].times)
