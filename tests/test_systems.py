import re

import numpy as np
import pytest

from splineflow import (
    BurgersConfig,
    DivergedError,
    InvalidArgumentError,
    NumericError,
    TimeGrid,
    TrajectorySet,
    burgers_rhs,
    generate_burgers,
    generate_lorenz,
    lorenz_rhs,
    relative_l2,
    sample_grf_initial,
    datafile,
    systems,
    workers,
)
from splineflow.systems import burgers_substeps, grf_mode_std
from splineflow.timegrid import subsample_indices

from recording import generation_rollout_rows


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
            TrajectorySet(grids=data.grids, values=data.values, system_tag="lorenz",
                          raw_horizon=horizon)


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


def test_generation_refuses_more_steps_than_the_cap(monkeypatch):
    # 1000 intervals x 1001 substeps is 1,001,000 RK4 steps per row; no step is taken
    monkeypatch.setattr(systems, "rollout", lambda *args: pytest.fail("integration started"))
    with pytest.raises(InvalidArgumentError, match="1001000 RK4 steps .* cap of 1000000"):
        generate_lorenz(1, 1001, substeps=1001)


def test_lorenz_generation_integrates_component_major(monkeypatch):
    # x, y and z reach every RK4 stage as contiguous vectors, not stride-3 columns
    layouts = []

    def spy(state):
        layouts.append(state.flags.f_contiguous and not state.flags.c_contiguous)
        return lorenz_rhs(state)

    monkeypatch.setattr(systems, "lorenz_rhs", spy)
    generate_lorenz(8, 11, seed=0)
    assert len(layouts) == 10 * 10 * 4
    assert all(layouts)


def _cpus(monkeypatch, n):
    """Let the worker pool see n CPUs."""
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("rows, parts_on_4", [(400, 2), (600, 3), (601, 3)])
def test_a_split_burgers_generation_equals_one_part(monkeypatch, rows, parts_on_4):
    # rows never interact and the right-hand side works row by row, so
    # parts integrated at once give the bytes of one part; a part of the
    # row-major batch holds at least 2^14 / nx = 164 rows
    _cpus(monkeypatch, 1)
    whole = generate_burgers(rows, 11, seed=rows, horizon_seconds=0.1)
    calls = generation_rollout_rows(monkeypatch)
    for cpus, parts in ((2, 2), (4, parts_on_4)):
        _cpus(monkeypatch, cpus)
        calls.clear()
        split = generate_burgers(rows, 11, seed=rows, horizon_seconds=0.1)
        assert (len(calls), sum(calls)) == (parts, rows) and min(calls) >= 164, calls
        assert np.array_equal(split.values, whole.values)


def test_split_boundaries_inside_a_part_keep_every_split_byte_equal(monkeypatch):
    # 600 rows in parts of 300 (2 CPUs) or 200 (4 CPUs): the train/val
    # and val/test boundaries at rows 250 and 270 fall inside parts, and
    # part boundaries fall inside the train and test splits
    table = {"train": (250, 3), "val": (20, 4), "test": (330, 5)}
    _cpus(monkeypatch, 1)
    whole = generate_burgers(None, 11, horizon_seconds=0.1, splits=table)
    for cpus in (2, 4):
        _cpus(monkeypatch, cpus)
        split = generate_burgers(None, 11, horizon_seconds=0.1, splits=table)
        for name in table:
            assert np.array_equal(split[name].values, whole[name].values), (cpus, name)


def test_a_lorenz_generation_forced_to_split_equals_one_part(monkeypatch):
    # a component-major Lorenz step reads one entry per row, so no real
    # Lorenz batch reaches 2 x 2^14 entries; parts of 4 entries force it
    # to split, and every part stays component-major
    table = {"train": (13, 1), "test": (8, 2)}
    layouts = []

    def spy(state):
        layouts.append(state.flags.f_contiguous and not state.flags.c_contiguous)
        return lorenz_rhs(state)

    monkeypatch.setattr(systems, "lorenz_rhs", spy)
    _cpus(monkeypatch, 1)
    whole = generate_lorenz(None, 11, splits=table)
    monkeypatch.setattr(systems, "PART_ENTRIES", 4)
    calls = generation_rollout_rows(monkeypatch)
    for cpus, parts in ((1, [21]), (2, [10, 11]), (4, [5, 5, 5, 6])):
        _cpus(monkeypatch, cpus)
        calls.clear()
        split = generate_lorenz(None, 11, splits=table)
        assert sorted(calls) == parts
        for name in table:
            assert np.array_equal(split[name].values, whole[name].values), (cpus, name)
    assert all(layouts)


def test_a_split_generation_that_diverges_counts_rows_per_split_as_one_part(monkeypatch):
    # one RK4 substep per 0.007875 s interval is just past the diffusive
    # bound: some rows of each split blow up and others do not, and the
    # parts' flags join in row order
    table = {"train": (300, 1), "val": (40, 2), "test": (60, 3)}
    messages = []
    calls = generation_rollout_rows(monkeypatch)
    for cpus, parts in ((1, [400]), (2, [200, 200])):
        _cpus(monkeypatch, cpus)
        calls.clear()
        with pytest.raises(DivergedError) as raised:
            generate_burgers(None, 41, horizon_seconds=0.315, substeps=1, splits=table)
        assert calls == parts
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    counts = re.search(r"of 400 rows \(train (\d+), val (\d+), test (\d+)\)", messages[0]).groups()
    assert all(0 < int(n) < table[name][0] for name, n in zip(table, counts)), counts


def test_split_tables_name_every_split_once_with_rows():
    sets = generate_burgers(None, 11, splits={"a": (2, 7), "b": (1, 9)})
    assert {name: s.n_traj for name, s in sets.items()} == {"a": 2, "b": 1}
    with pytest.raises(InvalidArgumentError, match="n_traj=None"):
        generate_lorenz(3, 21, splits={"a": (3, 7)})
    for splits in ({}, {"a": (2, 7), "b": (0, 9)}):
        with pytest.raises(InvalidArgumentError, match="split"):
            generate_lorenz(None, 21, splits=splits)


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


@pytest.mark.parametrize("keep_rate", [0.5, 0.3])
def test_subsample_is_one_buffer_of_the_kept_rows(keep_rate):
    # a ragged set on irregular grids: every trajectory has its own length
    rng = np.random.default_rng(4)
    grids, states = [], []
    for n in (13, 21, 30, 17):
        interior = np.sort(rng.choice(np.arange(1, 1000), size=n - 2, replace=False)) / 1000.0
        grids.append(TimeGrid(times=np.concatenate(([0.0], interior, [1.0]))))
        states.append(rng.standard_normal((n, 3)))
    data = TrajectorySet(grids=grids, values=np.concatenate(states), system_tag="lorenz",
                         raw_horizon=1.0)
    sub = data.subsampled(keep_rate, base_seed=9)
    assert sub.values.shape == (sum(len(g) for g in sub.grids), 3)
    assert not np.shares_memory(sub.values, data.values)
    for j, (g, u, g_sub, u_sub) in enumerate(zip(grids, states, sub.grids, sub.states)):
        keep = subsample_indices(g, keep_rate, [9, 7919, j])
        assert np.array_equal(u_sub, u[keep])
        assert np.array_equal(g_sub.times, g.times[keep])


def test_every_set_is_one_buffer_its_views_share(tmp_path):
    # generated splits of each system, a split read back and a subsample
    lorenz = generate_lorenz(None, 11, splits={"train": (3, 0), "test": (2, 1)})
    burgers = generate_burgers(None, 11, splits={"train": (2, 0), "test": (2, 1)})
    datafile.write_dataset(tmp_path / "lorenz.sftraj", lorenz)
    read = datafile.read_dataset(tmp_path / "lorenz.sftraj")[0]["test"]
    sub = read.subsampled(0.5, base_seed=0)
    shared = (lorenz["train"], lorenz["test"], burgers["test"], read)
    for data in (*shared, sub):
        assert data.values.flags.c_contiguous
        assert data.values.shape == (sum(len(g) for g in data.grids), data.state_dim)
        assert all(np.shares_memory(u, data.values) for u in data.states)
    for data in shared:
        stacked = data.stacked()
        assert stacked.shape == (data.n_traj, 11, data.state_dim)
        assert np.shares_memory(stacked, data.values)
        assert np.array_equal(stacked, np.stack(data.states))
    with pytest.raises(InvalidArgumentError, match="one grid shared by all"):
        sub.stacked()


def test_a_trajectory_set_needs_one_finite_buffer_that_fills_its_grids():
    data = generate_lorenz(2, 11, seed=0)

    def on(values, grids=data.grids):
        return TrajectorySet(grids=grids, values=values, system_tag="lorenz", raw_horizon=1.0)

    nan, inf = data.values.copy(), data.values.copy()
    nan[13, 1], inf[21, 2] = np.nan, -np.inf
    for values, grids, message in (
        (data.values, [], ">= 1 trajectory"),
        (np.asfortranarray(data.values), data.grids, "C-contiguous"),
        (data.values.ravel(), data.grids, "C-contiguous"),
        (data.values[:, :0], data.grids, "state_dim"),
        (data.values[1:], data.grids, "21 snapshot rows do not match 22"),
        (nan, data.grids, "finite"),
        (inf, data.grids, "finite"),
    ):
        with pytest.raises(InvalidArgumentError, match=message):
            on(values, grids)
    assert on(data.values).state_dim == 3


def test_grid_questions_of_a_trajectory_set():
    data = generate_lorenz(3, 11, seed=0)
    assert data.shared_grid() is data.grids[0]
    assert data.uniform_step() == data.uniform_step(expected=0.1) == 0.1
    with pytest.raises(InvalidArgumentError, match="differs"):
        data.uniform_step(expected=0.05)

    def on(grids, states):
        return TrajectorySet(
            grids=grids, values=np.concatenate(states), system_tag="lorenz",
            raw_horizon=data.raw_horizon,
        )

    # equal times in distinct objects are one grid; a subsample gives each its own
    copy = TimeGrid(times=data.grids[0].times.copy())
    assert on([data.grids[0], copy], data.states[:2]).shared_grid() is data.grids[0]
    sub = data.subsampled(0.5, base_seed=0)
    mixed = on([data.grids[0], copy, sub.grids[0]], data.states[:2] + sub.states[:1])
    for split in (sub, mixed):
        with pytest.raises(InvalidArgumentError, match="on one grid shared by all"):
            split.shared_grid()
        with pytest.raises(InvalidArgumentError, match="one uniform grid shared"):
            split.uniform_step()
    # one irregular grid shared by all is shared, but not uniform
    irregular = on([sub.grids[0]] * 2, [sub.states[0]] * 2)
    assert irregular.shared_grid() is sub.grids[0]
    with pytest.raises(InvalidArgumentError, match="one uniform grid shared"):
        irregular.uniform_step()
