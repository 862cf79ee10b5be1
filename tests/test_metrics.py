import math

import numpy as np
import pytest

from splineflow import (
    InvalidArgumentError,
    UndefinedMetricError,
    build_report,
    empirical_order,
    relative_l2,
)


def test_relative_l2_basic_values():
    truth = np.arange(12, dtype=float).reshape(4, 3) + 1.0
    assert relative_l2(truth, truth) == 0.0
    assert np.isclose(relative_l2(2.0 * truth, truth), 1.0)
    assert np.isclose(relative_l2(np.zeros_like(truth), truth), 1.0)


def test_relative_l2_zero_reference():
    with pytest.raises(UndefinedMetricError):
        relative_l2(np.ones((2, 2)), np.zeros((2, 2)))


def test_relative_l2_shape_mismatch():
    with pytest.raises(InvalidArgumentError):
        relative_l2(np.ones((2, 2)), np.ones((3, 2)))


def test_relative_l2_error_scale_equivariance():
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((5, 3)) + 2.0
    e = 0.01 * rng.standard_normal((5, 3))
    assert np.isclose(
        relative_l2(truth + 2 * e, truth), 2 * relative_l2(truth + e, truth)
    )


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
    report = build_report(preds, truths, nfe=120)
    per = np.array([relative_l2(p, t) for p, t in zip(preds, truths)])
    assert np.allclose(report.per_traj, per)
    assert np.isclose(report.mean, per.mean())
    assert np.isclose(report.sd, per.std(ddof=1))
    assert report.per_time.shape == (6,)
    assert np.isclose(report.final_time_error, report.per_time[-1])
    assert report.nfe == 120


def test_build_report_identical_prediction():
    truths = [np.ones((3, 2))]
    report = build_report(truths, truths)
    assert report.mean == 0.0 and report.sd == 0.0
