import dataclasses
import math

import numpy as np
import pytest

from splineflow import (
    InvalidArgumentError,
    UndefinedMetricError,
    build_report,
    MlpConfig,
    SolverConfig,
    TrajectorySet,
    empirical_order,
    generate_lorenz,
    init_params,
)
from splineflow.convergence import endpoint_velocity_study, row_errors
from splineflow.evaluation import evaluate_flow_model, reverse_time_study

from reference import relative_l2


def _report(preds, truths, nfe=0):
    per_traj = np.array([relative_l2(p, t) for p, t in zip(preds, truths)])
    curves = np.array([row_errors(p, t) for p, t in zip(preds, truths)])
    return build_report(per_traj, curves, nfe, np.zeros(len(truths), dtype=bool))


def test_empirical_order_definition():
    assert np.allclose(empirical_order([1e-4, 4e-4], [1.0, 2.0]), [2.0])


def test_empirical_order_multiple_pairs():
    orders = empirical_order([1e-3, 8e-3, 6.4e-2], [1.0, 2.0, 4.0])
    assert np.allclose(orders, [3.0, 3.0])


def test_empirical_order_zero_error_sentinel():
    assert empirical_order([0.0, 1e-3], [1.0, 2.0]) == [math.inf]


def test_empirical_order_needs_pairs():
    with pytest.raises(InvalidArgumentError):
        empirical_order([1e-3], [1.0])


def test_build_report_aggregates():
    rng = np.random.default_rng(1)
    truths = [rng.standard_normal((6, 2)) + 3.0 for _ in range(4)]
    preds = [t + 0.01 * rng.standard_normal(t.shape) for t in truths]
    report = _report(preds, truths, nfe=120)
    per = np.array([relative_l2(p, t) for p, t in zip(preds, truths)])
    assert np.allclose(report.per_traj, per)
    assert np.isclose(report.mean, per.mean())
    assert np.isclose(report.sd, per.std(ddof=1))
    assert report.per_time.shape == (6,)
    assert np.isclose(report.final_time_error, report.per_time[-1])
    assert report.nfe == 120
    # the aggregates are derived, so a report's mean is always that of its rows
    fewer = dataclasses.replace(report, per_traj=per[:2], per_time=report.per_time[:3])
    assert (fewer.mean, fewer.sd) == (per[:2].mean(), per[:2].std(ddof=1))
    assert fewer.final_time_error == report.per_time[2]


def test_median_row_error_is_not_set_by_one_diverged_row():
    truths = [np.ones((3, 2)) for _ in range(5)]
    preds = [t * (1.0 + e) for t, e in zip(truths, (0.1, 0.2, 0.3, 0.4, 1e6))]
    report = _report(preds, truths)
    assert np.isclose(report.median, 0.3)
    assert report.mean > 1e5
    for rows in (report.per_traj, report.per_traj[:4]):  # odd and even counts
        assert dataclasses.replace(report, per_traj=rows).median == float(np.median(rows))


def test_build_report_identical_prediction():
    truths = [np.ones((3, 2))]
    report = _report(truths, truths)
    assert report.mean == 0.0 and report.sd == 0.0


def test_every_study_raises_on_a_zero_truth_row():
    # the origin is a fixed point of Lorenz, so its all-zero trajectory is
    # an exact solution; no study may score its rows 0
    data = generate_lorenz(3, 21, seed=5)
    values = data.values.copy()
    values[:21] = 0.0
    at_origin = TrajectorySet(
        grids=data.grids, values=values, system_tag="lorenz", raw_horizon=data.raw_horizon
    )
    params = init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0)
    solver = SolverConfig("rk4", 1)
    with pytest.raises(UndefinedMetricError):
        row_errors(np.ones((2, 3)), np.zeros((2, 3)))
    with pytest.raises(UndefinedMetricError):
        evaluate_flow_model(params, at_origin, solver)
    with pytest.raises(UndefinedMetricError):
        reverse_time_study(params, at_origin, 0.5, (0.0,), solver)
    with pytest.raises(UndefinedMetricError):
        endpoint_velocity_study(at_origin, factors=(1, 2))
