import numpy as np
import pytest

from splineflow import (
    InvalidArgumentError,
    MlpConfig,
    SolverConfig,
    ar_rollout,
    init_params,
    lorenz_rhs,
    rollout,
    rollout_reverse,
    step,
    workers,
)
from splineflow.evaluation import flow_field
from splineflow.convergence import empirical_order
from splineflow.odeint import DEFAULT_NORM_BOUND

from recording import forward_sweep_rows, recorded


def decay(t, u):
    return -u


def test_rk4_exp_step_value():
    h = 0.1
    out = step("rk4", decay, 0.0, np.array([1.0]), h)
    taylor = 1 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
    assert np.isclose(out[0], taylor, atol=1e-15)
    assert np.isclose(out[0], 0.90483750, atol=5e-9)


def test_euler_exp_step_value():
    out = step("euler", decay, 0.0, np.array([1.0]), 0.1)
    assert np.isclose(out[0], 0.9, atol=1e-15)


def test_zero_field_keeps_state():
    u = np.array([1.0, -2.0, 3.0])
    for method in ("euler", "heun", "rk4"):
        assert np.array_equal(step(method, lambda t, x: np.zeros_like(x), 0.0, u, 0.3), u)


# The textbook expressions that `step` evaluates in place, as plain numpy.
def _heun_reference(f, t, u, h):
    k1 = f(t, u)
    k2 = f(t + h, u + h * k1)
    return u + 0.5 * h * (k1 + k2)


def _rk4_reference(f, t, u, h):
    k1 = f(t, u)
    k2 = f(t + 0.5 * h, u + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, u + 0.5 * h * k2)
    k4 = f(t + h, u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_REFERENCE_STEPS = {
    "euler": lambda f, t, u, h: u + h * f(t, u),
    "heun": _heun_reference,
    "rk4": _rk4_reference,
}


@pytest.mark.parametrize("method", sorted(_REFERENCE_STEPS))
def test_step_is_bit_identical_to_the_textbook_expression(method):
    rng = np.random.default_rng(11)
    lorenz = lambda t, u: lorenz_rhs(u)
    wavy = lambda t, u: np.sin(3.0 * u + t) * np.exp(-t)
    for f, u in ((lorenz, 10.0 * rng.normal(size=(257, 3))), (wavy, rng.normal(size=(40, 7)))):
        for h in (1e-3, 0.37, -0.05):
            assert np.array_equal(step(method, f, 0.2, u, h), _REFERENCE_STEPS[method](f, 0.2, u, h))


@pytest.mark.parametrize("method", sorted(_REFERENCE_STEPS))
def test_step_leaves_a_shared_field_output_untouched(method):
    # a field may hand back one array on every call; writing into any k
    # would change the k of every later stage and the array itself
    shared = np.random.default_rng(3).normal(size=(5, 3))
    kept = shared.copy()
    u = np.random.default_rng(4).normal(size=(5, 3))
    out = step(method, lambda t, x: shared, 0.0, u, 0.1)
    assert np.array_equal(shared, kept)
    assert np.array_equal(out, step(method, lambda t, x: kept.copy(), 0.0, u, 0.1))
    assert not np.shares_memory(out, shared)


def test_zero_step_rejected():
    with pytest.raises(InvalidArgumentError):
        step("rk4", decay, 0.0, np.array([1.0]), 0.0)


def test_solver_config_validation():
    with pytest.raises(InvalidArgumentError):
        SolverConfig(method="rk5")
    with pytest.raises(InvalidArgumentError):
        SolverConfig(substeps_per_interval=0)


def test_empirical_solver_orders_on_smooth_problem():
    # error against exp(-2t) at t=1 for halving step counts
    f = lambda t, u: -2.0 * u
    truth = np.exp(-2.0)
    expected = {"euler": 1.0, "heun": 2.0, "rk4": 4.0}
    for method, order in expected.items():
        errors, steps = [], []
        for n in (8, 16, 32):
            states, _ = recorded(rollout, f, np.array([[1.0]]), [0.0, 1.0], SolverConfig(method, n))
            errors.append(abs(states[-1, 0, 0] - truth))
            steps.append(1.0 / n)
        assert abs(np.mean(empirical_order(errors, steps)) - order) < 0.2


def test_rollout_records_every_eval_time():
    times = np.linspace(0.0, 1.0, 6)
    states, _ = recorded(rollout, decay, np.array([[2.0]]), times, SolverConfig("rk4", 20))
    assert np.allclose(states[:, 0, 0], 2.0 * np.exp(-times), atol=1e-9)
    assert states[0, 0, 0] == 2.0


def test_nfe_accounting_exact():
    times = np.linspace(0.0, 1.0, 11)
    for method, stages in (("euler", 1), ("heun", 2), ("rk4", 4)):
        for substeps in (1, 3):
            solver = SolverConfig(method, substeps)
            _, res = recorded(rollout, decay, np.array([[1.0]]), times, solver)
            assert res.nfe == 10 * substeps * stages


def test_rollout_divergence_mask_mode():
    blow = lambda t, u: u * u
    u0 = np.array([[3.0], [0.1]])  # first row blows up, second stays tame
    states, res = recorded(rollout, blow, u0, np.linspace(0, 1, 21), SolverConfig("euler", 8))
    assert res.diverged.tolist() == [True, False]
    assert np.isfinite(states).all()


def test_nfe_is_the_scheduled_cost_when_every_row_dies():
    huge = lambda t, u: np.full_like(u, 1e10)
    times = np.linspace(0.0, 1.0, 11)
    _, res = recorded(rollout, huge, np.ones((3, 2)), times, SolverConfig("rk4", 1))
    assert res.diverged.all()
    assert res.nfe == 10 * 1 * 4
    _, back = recorded(
        rollout_reverse, huge, np.ones((3, 2)), 1.0, times[-2::-1], SolverConfig("heun", 2)
    )
    assert back.diverged.all()
    assert back.nfe == 10 * 2 * 2


def test_batched_rollout_matches_single():
    u0 = np.array([[1.0, 0.5, -0.3], [0.2, -0.1, 0.4]])
    times = np.linspace(0, 1, 5)
    solver = SolverConfig("rk4", 4)
    f = lambda t, u: np.sin(u)
    batch, _ = recorded(rollout, f, u0, times, solver)
    for i in range(2):
        single, _ = recorded(rollout, f, u0[i : i + 1], times, solver)
        assert np.array_equal(batch[:, i : i + 1, :], single)


@pytest.mark.parametrize("field", ["lorenz", "mlp"])
def test_rollout_is_the_same_for_row_and_component_major_batches(field):
    if field == "lorenz":
        # two RK4 substeps per 0.25 s blow up some rows, so frozen rows are compared too
        f = lambda t, u: lorenz_rhs(u)
        times, solver = np.linspace(0.0, 5.0, 21), SolverConfig("rk4", 2)
    else:
        params = init_params(MlpConfig(state_dim=3, hidden_dims=(16, 16)), 3)
        f = flow_field(params)
        times, solver = np.linspace(0.0, 1.0, 11), SolverConfig("heun", 2)
    u0 = np.random.default_rng(7).uniform(-5.0, 5.0, size=(60, 3))
    by_rows, rows_result = recorded(rollout, f, u0, times, solver)
    by_components, components_result = recorded(rollout, f, np.asfortranarray(u0), times, solver)
    assert np.array_equal(by_rows, by_components)
    assert np.array_equal(rows_result.diverged, components_result.diverged)
    assert rows_result.diverged.any() == (field == "lorenz")


def test_a_component_major_batch_reaches_every_stage_component_major():
    # the rollout loop and the stage arithmetic keep the caller's layout; a C copy
    # anywhere would hand the field stride-3 columns again, and the record too.
    # Rows that blow up early and are frozen change nothing of that.
    component_major = lambda u: u.flags.f_contiguous and not u.flags.c_contiguous
    for diverging in (0, 10):
        u0 = np.random.default_rng(0).uniform(-5.0, 5.0, size=(40, 3))
        u0[:diverging] *= 1e3
        layouts, recorded_layouts = [], []

        def spy(t, u):
            layouts.append(component_major(u))
            return lorenz_rhs(u)

        result = rollout(
            spy, np.asfortranarray(u0), np.linspace(0.0, 0.5, 6), SolverConfig("rk4", 3),
            lambda k, u: recorded_layouts.append(component_major(u)),
        )
        assert result.diverged.tolist() == [True] * diverging + [False] * (40 - diverging)
        assert len(layouts) == result.nfe == 60
        assert all(layouts)
        assert recorded_layouts == [True] * 6


def test_frozen_rows_change_neither_the_survivors_nor_the_forward_split(monkeypatch):
    # every step hands the field the whole batch, so a forward pass cuts its
    # rows as for a tame batch and the surviving rows keep their bits
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    params = init_params(MlpConfig(state_dim=100), seed=5)
    tame = np.random.default_rng(8).standard_normal((600, 100))
    wild = tame.copy()
    wild[::50] *= 1e9  # 12 rows start above the norm bound
    frozen = np.arange(600) % 50 == 0
    times, solver = np.linspace(0.0, 1.0, 4), SolverConfig("rk4", 1)
    sweeps = forward_sweep_rows(monkeypatch)
    runs = []
    for u0 in (tame, wild):
        sweeps.clear()
        states, result = recorded(rollout, flow_field(params), u0, times, solver)
        assert sorted(sweeps) == [296] * result.nfe + [304] * result.nfe
        runs.append((states, result.diverged))
    (tame_states, tame_diverged), (wild_states, wild_diverged) = runs
    assert not tame_diverged.any()
    assert np.array_equal(wild_diverged, frozen)
    assert np.array_equal(wild_states[:, ~frozen], tame_states[:, ~frozen])
    assert np.array_equal(wild_states[:, frozen], np.broadcast_to(wild[frozen], (4, 12, 100)))


def test_rollout_rejects_unbatched_state():
    solver = SolverConfig("rk4", 1)
    with pytest.raises(InvalidArgumentError, match="batch"):
        recorded(rollout, decay, np.array([1.0, 2.0]), [0.0, 1.0], solver)
    with pytest.raises(InvalidArgumentError, match="batch"):
        recorded(rollout_reverse, decay, np.array([1.0]), 1.0, [0.0], solver)
    with pytest.raises(InvalidArgumentError, match="batch"):
        recorded(ar_rollout, lambda t, u: u, np.array([1.0]), [0.0, 1.0])


_ONE = np.array([[1.0]])
_REFUSED_INTEGRATIONS = {
    "unknown method": (lambda: step("rk5", decay, 0.0, _ONE, 0.1), "unknown method"),
    "non-finite start": (
        lambda: recorded(rollout, decay, np.array([[np.nan]]), [0.0, 1.0], SolverConfig()),
        "initial state must be finite",
    ),
    "one evaluation time": (
        lambda: recorded(rollout, decay, _ONE, [0.0], SolverConfig()), "at least two",
    ),
    "times that do not increase": (
        lambda: recorded(rollout, decay, _ONE, [0.0, 0.5, 0.5], SolverConfig()),
        "strictly increasing",
    ),
    "no AR times": (lambda: recorded(ar_rollout, lambda t, u: u, _ONE, []), "at least one"),
}


@pytest.mark.parametrize("case", list(_REFUSED_INTEGRATIONS))
def test_steps_and_rollouts_refuse_what_they_cannot_integrate(case):
    call, message = _REFUSED_INTEGRATIONS[case]
    with pytest.raises(InvalidArgumentError, match=message):
        call()


def test_reverse_recovers_smooth_flow():
    solver = SolverConfig("rk4", 50)
    fwd, _ = recorded(rollout, decay, np.array([[1.5]]), [0.0, 1.0], solver)
    back, _ = recorded(rollout_reverse, decay, fwd[-1], 1.0, [0.5, 0.0], solver)
    # round-trip defect is solver truncation, O(h^4) at h = 1/100
    assert abs(back[-1, 0, 0] - 1.5) < 1e-8


def test_reverse_zero_field_constant():
    f = lambda t, u: np.zeros_like(u)
    states, _ = recorded(
        rollout_reverse, f, np.array([[4.0, 1.0]]), 0.8, [0.4, 0.1], SolverConfig("rk4", 3)
    )
    assert np.allclose(states, 4.0 * np.array([[[1, 0.25]], [[1, 0.25]]]))


def test_reverse_empty_targets():
    states, res = recorded(
        rollout_reverse, decay, np.array([[1.0], [2.0]]), 0.0, [], SolverConfig("rk4", 1)
    )
    assert states.shape == (0, 2, 1)
    assert res.nfe == 0
    assert res.diverged.tolist() == [False, False]


def test_reverse_validates_targets():
    solver = SolverConfig("rk4", 1)
    with pytest.raises(InvalidArgumentError):
        recorded(rollout_reverse, decay, np.array([[1.0]]), 0.5, [0.1, 0.2], solver)  # increasing
    with pytest.raises(InvalidArgumentError):
        recorded(rollout_reverse, decay, np.array([[1.0]]), 0.5, [0.6], solver)  # above t_star
    with pytest.raises(InvalidArgumentError, match="one-dimensional"):
        recorded(rollout_reverse, decay, np.array([[1.0]]), 0.5, [[0.1]], solver)


def test_lorenz_roundtrip_quarter_second():
    # forward then backward with the true dynamics over a 0.25 s window
    field = lambda t, u: 0.25 * lorenz_rhs(u)
    solver = SolverConfig("rk4", 400)
    u0 = np.array([[2.0, -1.0, 3.5]])
    fwd, _ = recorded(rollout, field, u0, [0.0, 1.0], solver)
    back, _ = recorded(rollout_reverse, field, fwd[-1], 1.0, [0.0], solver)
    rel = np.linalg.norm(back[-1] - u0) / np.linalg.norm(u0)
    assert rel < 1e-6


def test_ar_rollout_identity_model():
    # the model is called as f(t_k, u_k) at the start of each interval
    times, seen = np.linspace(0.0, 1.0, 6), []
    identity = lambda t, u: seen.append(t) or u
    states, res = recorded(ar_rollout, identity, np.array([[1.0, 2.0]]), times)
    assert np.allclose(states, np.tile([1.0, 2.0], (6, 1, 1)))
    assert seen == list(times[:-1])
    assert res.nfe == 5


def test_ar_rollout_perfect_oracle_reproduces_data():
    # one-step oracle wrapping the true integrator reproduces its own data
    times = np.linspace(0.0, 1.0, 9)
    solver = SolverConfig("rk4", 10)
    data, _ = recorded(rollout, decay, np.array([[1.0]]), times, solver)
    h = times[1] - times[0]

    def oracle(t, u):
        out = u
        for _ in range(10):
            out = step("rk4", decay, 0.0, out, h / 10)
        return out

    states, _ = recorded(ar_rollout, oracle, np.array([[1.0]]), times)
    assert np.allclose(states, data, atol=1e-14)


def test_ar_rollout_divergence():
    # 1e3 ** 3 passes the 1e8 bound: the state is flagged and frozen at 1e6
    times = np.linspace(0.0, 1.0, 11)
    states, res = recorded(ar_rollout, lambda t, u: u * 1e3, np.array([[1.0]]), times)
    assert res.diverged.tolist() == [True]
    assert np.array_equal(states[2:], np.full((9, 1, 1), 1e6))
    assert res.nfe == 10


def test_ar_rollout_masks_rows_that_blow_up():
    u0 = np.array([[1.0], [-2.0], [0.01], [0.001]])
    states, res = recorded(ar_rollout, lambda t, u: 1e3 * u, u0, np.linspace(0.0, 1.0, 4))
    # |u| grows 1e3x a step: the first two rows pass the 1e8 bound at step 3
    assert res.diverged.tolist() == [True, True, False, False]
    assert np.array_equal(states[3, :2], states[2, :2])
    assert np.array_equal(states[3, 2:], 1e9 * u0[2:])
    assert res.nfe == 3


def test_row_check_flags_nan_inf_and_overflowing_rows_in_one_pass():
    # Keyed on the first entry, so each row's step depends on that row alone.
    below = np.nextafter(DEFAULT_NORM_BOUND, 0.0)

    def model(t, u):
        out = u.copy()
        key = u[:, 0]
        out[key == 1.0, 1] = np.nan
        out[key == 2.0, 1] = np.inf
        out[key == 3.0] = 1e200  # finite entries whose squares overflow
        out[key == 4.0, 0] = below
        out[key == 5.0] = (6e7, 8e7)  # norm exactly at the bound
        return out

    u0 = np.array([[1.0, 0.5], [2.0, 0.5], [3.0, 0.5], [4.0, 0.5], [5.0, 0.5], [6.0, 0.5]])
    with np.errstate(over="ignore"):
        states, res = recorded(ar_rollout, model, u0, np.linspace(0.0, 1.0, 4))
    assert res.diverged.tolist() == [True, True, True, False, False, False]
    assert np.array_equal(states[1:, :3], np.broadcast_to(u0[:3], (3, 3, 2)))
    assert np.array_equal(states[-1, 3], [below, 0.5])
    assert np.array_equal(states[-1, 4], [6e7, 8e7])
    assert np.array_equal(states[-1, 5], u0[5])
    assert np.isfinite(states).all()
