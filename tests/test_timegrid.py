import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splineflow import InvalidArgumentError, TimeGrid, uniform_grid
from splineflow.timegrid import subsample_indices


def test_uniform_grid_endpoints_only():
    assert np.array_equal(uniform_grid(2).times, [0.0, 1.0])


def test_uniform_grid_progression():
    assert np.allclose(uniform_grid(5).times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_uniform_grid_101_points():
    g = uniform_grid(101)
    assert len(g) == 101
    assert np.allclose(np.diff(g.times), 0.01)


def test_uniform_grid_rejects_short():
    with pytest.raises(InvalidArgumentError):
        uniform_grid(1)


def test_grid_must_increase():
    with pytest.raises(InvalidArgumentError):
        TimeGrid(times=np.array([0.0, 0.5, 0.5, 1.0]))


def test_grid_must_be_normalized():
    with pytest.raises(InvalidArgumentError):
        TimeGrid(times=np.array([0.1, 0.5, 1.0]))


def test_from_raw_normalizes():
    g = TimeGrid.from_raw([0.0, 1.0, 2.5, 5.0])
    assert g.raw_horizon == 5.0
    assert np.allclose(g.times, [0.0, 0.2, 0.5, 1.0])
    assert np.allclose(g.raw_times, [0.0, 1.0, 2.5, 5.0])


def test_subsample_identity():
    g = uniform_grid(11)
    assert np.array_equal(subsample_indices(g, 1.0, seed=3), np.arange(11))


def test_subsample_quarter_of_101():
    g = uniform_grid(101)
    keep = subsample_indices(g, 0.25, seed=0)
    # round-half-up of 25.25
    assert len(keep) == 25
    assert keep[0] == 0 and keep[-1] == 100


def test_subsample_deterministic():
    g = uniform_grid(101)
    a = subsample_indices(g, 0.5, seed=42)
    b = subsample_indices(g, 0.5, seed=42)
    assert np.array_equal(a, b)


def test_subsample_too_few_points():
    with pytest.raises(InvalidArgumentError):
        subsample_indices(uniform_grid(5), 0.3, seed=0)  # round(1.5) = 2 < 3


def test_subsample_bad_rate():
    g = uniform_grid(11)
    for rate in (0.0, -0.5, 1.5):
        with pytest.raises(InvalidArgumentError):
            subsample_indices(g, rate, seed=0)


@settings(deadline=None)
@given(
    n=st.integers(min_value=8, max_value=200),
    rate=st.floats(min_value=0.3, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_subsample_properties(n, rate, seed):
    assume(int(np.floor(rate * n + 0.5)) >= 3)
    g = uniform_grid(n)
    sub = TimeGrid(times=g.times[subsample_indices(g, rate, seed)])
    original = set(g.times.tolist())
    assert set(sub.times.tolist()) <= original
    assert np.all(np.diff(sub.times) > 0)
    assert sub.times[0] == 0.0 and sub.times[-1] == 1.0
    assert len(sub) == int(np.floor(rate * n + 0.5)) or rate == 1.0
