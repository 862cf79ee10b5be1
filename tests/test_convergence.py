import numpy as np
import pytest

from splineflow import InvalidArgumentError, cli, convergence, generate_burgers, generate_lorenz
from splineflow.convergence import (
    empirical_order, endpoint_velocity_study, row_errors, segment_endpoint_velocities,
)
from splineflow.datafile import write_dataset
from splineflow.spline import build_linear, build_quintic, estimate_knot_derivatives
from splineflow.systems import BurgersConfig, TrajectorySet, lorenz_rhs
from splineflow.timegrid import TimeGrid, uniform_grid


def test_downsample_regular_keeps_endpoints():
    grid = uniform_grid(9)
    values = np.arange(18, dtype=float).reshape(9, 2)
    keep = grid.stride(2)
    sub_grid = TimeGrid(times=grid.times[keep])
    assert len(sub_grid) == 5
    assert sub_grid.times[0] == 0.0 and sub_grid.times[-1] == 1.0
    assert np.array_equal(values[keep], values[[0, 2, 4, 6, 8]])
    assert grid.stride(8) == slice(0, None, 8)  # the endpoints alone


def test_downsample_requires_divisible_factor():
    for factor in (4, 0, -1):
        with pytest.raises(InvalidArgumentError, match="stride"):
            uniform_grid(10).stride(factor)


def test_segment_endpoint_velocities_linear_slopes():
    grid = uniform_grid(3)
    values = np.array([[0.0], [1.0], [3.0]])
    v0, v1 = segment_endpoint_velocities(grid, build_linear(grid, values))
    assert np.allclose(v0[:, 0], [2.0, 4.0])
    assert np.array_equal(v0, v1)


def test_segment_endpoint_velocities_quintic_knot_data():
    grid = uniform_grid(5)
    values = np.sin(3 * grid.times)[:, None]
    d, _ = estimate_knot_derivatives(grid, values)
    v0, v1 = segment_endpoint_velocities(grid, build_quintic(grid, values))
    assert np.array_equal(v0, d[:-1])
    assert np.array_equal(v1, d[1:])


def test_study_orders_on_short_lorenz():
    # 0.5 s horizon at dt = 0.005 s keeps this fast while showing clean
    # first/second-order behavior
    data = generate_lorenz(3, 101, 0.5, 5.0, seed=6)
    rows = endpoint_velocity_study(data, factors=(1, 2, 4))
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row.spline, []).append(row)
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


def _per_trajectory_study(dataset, factors):
    # One spline and one evaluation per trajectory: what the stacked study
    # must reproduce bit for bit.
    rows = []
    for kind, build in (("linear", build_linear), ("quintic", build_quintic)):
        errs0, errs1, dts, counts = [], [], [], []
        for factor in factors:
            acc0, acc1 = [], []
            for grid, values in zip(dataset.grids, dataset.states):
                keep = grid.stride(factor)
                sub_grid, sub_values = TimeGrid(times=grid.times[keep]), values[keep]
                v0, v1 = segment_endpoint_velocities(sub_grid, build(sub_grid, sub_values))
                acc0.append(row_errors(v0, dataset.raw_horizon * lorenz_rhs(sub_values[:-1])))
                acc1.append(row_errors(v1, dataset.raw_horizon * lorenz_rhs(sub_values[1:])))
            errs0.append(float(np.mean(np.concatenate(acc0))))
            errs1.append(float(np.mean(np.concatenate(acc1))))
            dts.append(factor * dataset.raw_horizon * float(dataset.grids[0].steps[0]))
            counts.append(sum(a.size for a in acc0))
        orders0 = [np.nan] + empirical_order(errs0, dts)
        orders1 = [np.nan] + empirical_order(errs1, dts)
        for i, factor in enumerate(factors):
            rows.append(convergence.ConvergenceRow(
                kind, factor, dts[i], counts[i], errs0[i], float(orders0[i]),
                errs1[i], float(orders1[i]),
            ))
    return rows


def test_stacked_study_matches_a_per_trajectory_reference(monkeypatch):
    # 7 trajectories in blocks of 3 leave a partial last block
    monkeypatch.setattr(convergence, "_BLOCK", 3)
    data = generate_lorenz(7, 41, 1.0, 5.0, seed=2)
    for factors in ((1, 2, 4), (5, 1)):
        got = endpoint_velocity_study(data, factors=factors)
        want = _per_trajectory_study(data, factors)
        assert [repr(r) for r in got] == [repr(r) for r in want]


def test_study_builds_one_spline_per_block_kind_and_factor(monkeypatch):
    monkeypatch.setattr(convergence, "_BLOCK", 3)
    calls = []
    for name in ("build_linear", "build_quintic"):
        original = getattr(convergence, name)

        def spy(grid, values, _name=name, _original=original):
            calls.append((_name, len(grid), values.shape[1]))
            return _original(grid, values)

        monkeypatch.setattr(convergence, name, spy)
    endpoint_velocity_study(generate_lorenz(7, 41, 1.0, 5.0, seed=2), factors=(1, 2))
    # ceil(7 / 3) = 3 blocks of 3, 3 and 1 trajectories, 3 components each
    assert calls == [
        (name, n_knots, width)
        for name in ("build_linear", "build_quintic")
        for n_knots in (41, 21)
        for width in (9, 9, 3)
    ]


def test_study_rejects_trajectories_on_different_grids():
    # Both grids are uniform, but pooling them would mix two step sizes
    # under one dt_seconds label.
    coarse = generate_lorenz(2, 41, 1.0, 5.0, seed=0)
    fine = generate_lorenz(2, 161, 1.0, 5.0, seed=1)
    mixed = TrajectorySet(
        grids=coarse.grids + fine.grids,
        values=np.concatenate([coarse.values, fine.values]),
        system_tag="lorenz",
        raw_horizon=1.0,
    )
    with pytest.raises(InvalidArgumentError, match="one uniform grid shared"):
        endpoint_velocity_study(mixed)
    assert endpoint_velocity_study(coarse)  # either half alone is fine


def test_study_refuses_lorenz_states_of_other_than_three_components(tmp_path):
    # lorenz_rhs fills three columns; a 4th would be scored against an
    # uninitialized truth column
    data = generate_lorenz(2, 11, 1.0, 5.0, seed=0)
    wide = TrajectorySet(
        grids=data.grids, values=np.hstack([data.values, data.values[:, :1]]),
        system_tag="lorenz", raw_horizon=data.raw_horizon,
    )
    with pytest.raises(InvalidArgumentError, match="3 components"):
        endpoint_velocity_study(wide)
    path, out = tmp_path / "wide.sftraj", tmp_path / "convergence.csv"
    write_dataset(path, {"train": wide})
    assert cli.main(["convergence", "--dataset", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("factors", [(1, 1), (1,), (0, 2)])
def test_study_rejects_bad_factor_sets(factors):
    with pytest.raises(InvalidArgumentError):
        endpoint_velocity_study(generate_lorenz(2, 41, 1.0, 5.0, seed=0), factors=factors)
