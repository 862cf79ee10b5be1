import dataclasses
import itertools
import math

import numpy as np
import pytest

from splineflow import (
    AdamState,
    InvalidArgumentError,
    MlpConfig,
    SolverConfig,
    TrainConfig,
    TrainingAbortedError,
    TrajectorySet,
    adam_step,
    generate_lorenz,
    init_params,
    train_flow_matching,
    train_one_step,
    uniform_grid,
)
from splineflow.evaluation import evaluate_flow_model, evaluate_one_step_model, flow_field, one_step_map
from splineflow.interpolant import SampleBatch
from splineflow.metrics import EvalReport
from splineflow.odeint import rollout, rollout_reverse
from splineflow.systems import lorenz_rhs
from splineflow.trainer import _optimize, _validation_error
from splineflow.vector_field import VectorFieldParams, forward_batch


def _single_param_setup(grad_value):
    config = MlpConfig(state_dim=1, hidden_dims=(1,), use_time_embedding=False)
    params = init_params(config, seed=0)
    grads = VectorFieldParams(
        config=config,
        weights=[np.full_like(w, grad_value) for w in params.weights],
        biases=[np.full_like(b, grad_value) for b in params.biases],
    )
    return params, grads


def test_adam_first_step_is_signed_learning_rate():
    # with bias correction, m_hat = g and v_hat = g^2, so the first update
    # is -lr * sign(g) up to the epsilon regularizer
    train_cfg = TrainConfig(learning_rate=0.01, adam_eps=1e-12)
    params, grads = _single_param_setup(grad_value=3.7)
    state = AdamState.zeros_like(params)
    new_params, new_state = adam_step(params, state, grads, train_cfg)
    for old, new in zip(params.arrays(), new_params.arrays()):
        assert np.allclose(new - old, -0.01, rtol=1e-9)
    assert new_state.step_count == 1


def test_adam_zero_gradient_keeps_params():
    train_cfg = TrainConfig(learning_rate=0.01)
    params, grads = _single_param_setup(grad_value=0.0)
    state = AdamState.zeros_like(params)
    new_params, new_state = adam_step(params, state, grads, train_cfg)
    for old, new in zip(params.arrays(), new_params.arrays()):
        assert np.array_equal(old, new)
    # moments decay from a nonzero state under zero gradients
    state_nz = AdamState(
        m=[np.ones_like(a) for a in params.arrays()],
        v=[np.ones_like(a) for a in params.arrays()],
        step_count=5,
    )
    _, decayed = adam_step(params, state_nz, grads, train_cfg)
    for m in decayed.m:
        assert np.allclose(m, 0.9)
    for v in decayed.v:
        assert np.allclose(v, 0.99)


def _constant_set(value=3.0, d=2, n=11):
    grid = uniform_grid(n)
    states = np.full((n, d), value)
    return TrajectorySet(
        grids=[grid], states=[states], state_dim=d, system_tag="toy", raw_horizon=1.0
    )


def _exponential_set(u0=2.0, n=11):
    grid = uniform_grid(n)
    states = (u0 * np.exp(-grid.times))[:, None]
    return TrajectorySet(
        grids=[grid], states=[states], state_dim=1, system_tag="toy", raw_horizon=1.0
    )


TOY_MLP = MlpConfig(state_dim=1, hidden_dims=(32, 32), embed_bands=4)


def test_constant_trajectory_learns_zero_field():
    data = _constant_set()
    cfg = TrainConfig(steps=1500, batch_size=64, learning_rate=3e-3, gamma0=0.0,
                      eval_every=500, seed=0)
    mlp = MlpConfig(state_dim=2, hidden_dims=(32, 32), embed_bands=4)
    result = train_flow_matching(data, cfg, mlp_config=mlp, val_set=data)
    assert result.history[-1].train_loss < 1e-5
    report = evaluate_flow_model(result.params, data, SolverConfig("rk4", 2))
    assert report.mean < 1e-3


def test_exponential_toy_learns_decay_field():
    data = _exponential_set()
    cfg = TrainConfig(steps=4000, batch_size=128, learning_rate=3e-3, gamma0=0.0,
                      eval_every=1000, seed=1)
    result = train_flow_matching(data, cfg, mlp_config=TOY_MLP, val_set=data)
    report = evaluate_flow_model(result.params, data, SolverConfig("rk4", 4))
    assert report.mean < 1e-2
    # learned field approximates -u on the data tube
    f = flow_field(result.params)
    for t, u in ((0.2, 1.6), (0.7, 1.0)):
        assert abs(f(t, np.array([u]))[0] + u) < 0.05 * u


def test_learned_field_round_trip():
    # forward to t=1 then backward to t=0 with the same learned field
    data = _exponential_set()
    cfg = TrainConfig(steps=4000, batch_size=128, learning_rate=3e-3, gamma0=0.0,
                      eval_every=1000, seed=1)
    result = train_flow_matching(data, cfg, mlp_config=TOY_MLP, val_set=data)
    f = flow_field(result.params)
    solver = SolverConfig("rk4", 400)
    u0 = data.states[0][0]
    fwd = rollout(f, u0, [0.0, 1.0], solver)
    back = rollout_reverse(f, fwd.states[-1], 1.0, [0.0], solver)
    rel = np.linalg.norm(back.states[-1] - u0) / np.linalg.norm(u0)
    assert rel < 1e-3


def test_training_is_bit_reproducible():
    data = _exponential_set()
    cfg = TrainConfig(steps=300, batch_size=32, learning_rate=1e-3, gamma0=1e-5,
                      eval_every=100, seed=7)
    mlp = MlpConfig(state_dim=1, hidden_dims=(8, 8), embed_bands=2)
    a = train_flow_matching(data, cfg, mlp_config=mlp, val_set=data)
    b = train_flow_matching(data, cfg, mlp_config=mlp, val_set=data)
    for wa, wb in zip(a.params.arrays(), b.params.arrays()):
        assert np.array_equal(wa, wb)
    assert [r.train_loss for r in a.history] == [r.train_loss for r in b.history]


def test_smoothed_loss_nonincreasing_early():
    data = _exponential_set()
    cfg = TrainConfig(steps=3000, batch_size=128, learning_rate=3e-3, gamma0=0.0,
                      eval_every=1000, seed=2)
    result = train_flow_matching(data, cfg, mlp_config=TOY_MLP)
    losses = np.array([row.train_loss for row in result.history])
    smooth = np.convolve(losses, np.full(100, 1.0 / 100), mode="valid")  # rolling mean
    early = smooth[: 300 - 100]  # first 10% of the run
    checkpoints = early[::50]
    assert np.all(np.diff(checkpoints) <= 1e-12)


def test_divergent_run_aborts_with_last_good_params():
    data = _exponential_set()
    cfg = TrainConfig(steps=500, batch_size=32, learning_rate=1e18, gamma0=0.0,
                      eval_every=100, seed=0)
    mlp = MlpConfig(state_dim=1, hidden_dims=(8,), embed_bands=2)
    with pytest.raises(TrainingAbortedError) as err:
        train_flow_matching(data, cfg, mlp_config=mlp, val_set=data)
    assert err.value.best_params is not None
    assert err.value.step >= 1


def test_loss_explosion_aborts_at_step_two_with_initial_params():
    data = _exponential_set()
    cfg = TrainConfig(steps=500, batch_size=32, learning_rate=1e18, gamma0=0.0,
                      eval_every=100, seed=0)
    mlp = MlpConfig(state_dim=1, hidden_dims=(8,), embed_bands=2)
    with pytest.raises(TrainingAbortedError) as err:
        train_flow_matching(data, cfg, mlp_config=mlp, val_set=data)
    # the loss stays finite but explodes at step 2, before any validation:
    # only the initial parameters passed the loss check
    assert err.value.step == 2
    assert err.value.best_step == 0
    initial = init_params(mlp, cfg.seed)
    for got, want in zip(err.value.best_params.arrays(), initial.arrays()):
        assert np.array_equal(got, want)
    assert [row.step for row in err.value.history] == [1]


def _decay_batches(first_bad_step):
    """Batches for the field -u, with a NaN target from first_bad_step on."""
    rng = np.random.default_rng(0)
    steps = itertools.count(1)

    def draw():
        x = rng.standard_normal((16, 1))
        v = -x if next(steps) < first_bad_step else np.full_like(x, np.nan)
        return SampleBatch(t=np.zeros(16), x=x, v_target=v)

    return draw


AR_MLP = MlpConfig(state_dim=1, hidden_dims=(8,), use_time_embedding=False)


@pytest.mark.parametrize("first_bad_step", [1, 4])
def test_non_finite_loss_hands_over_last_params_that_passed(first_bad_step):
    cfg = TrainConfig(steps=10, batch_size=16, learning_rate=1e-2, seed=0)
    with pytest.raises(TrainingAbortedError) as err:
        _optimize(init_params(AR_MLP, 0), _decay_batches(first_bad_step), None, cfg)
    assert err.value.step == first_bad_step
    if first_bad_step == 1:
        assert err.value.best_params is None
        return
    # the loss at step k checks the parameters after k - 1 updates
    kept = first_bad_step - 2
    assert err.value.best_step == kept
    replay = _optimize(init_params(AR_MLP, 0), _decay_batches(first_bad_step),
                       None, dataclasses.replace(cfg, steps=kept))
    for got, want in zip(err.value.best_params.arrays(), replay.params.arrays()):
        assert np.array_equal(got, want)


def test_validation_with_diverged_rows_is_never_kept():
    report = EvalReport(per_traj=np.array([0.6]), mean=0.6, sd=0.0,
                        per_time=np.array([0.6]), final_time_error=0.6, n_diverged=1)
    assert _validation_error(report) == math.inf
    cfg = TrainConfig(steps=6, batch_size=16, learning_rate=1e-2, eval_every=2, seed=0)
    scores = iter([math.inf, 0.3, math.inf])
    result = _optimize(init_params(AR_MLP, 0), _decay_batches(100),
                       lambda p: next(scores), cfg)
    assert result.best_step == 4 and result.best_val_error == 0.3
    assert [row.val_error for row in result.history][1::2] == [math.inf, 0.3, math.inf]
    # when every validation diverged, the final parameters are handed over
    result = _optimize(init_params(AR_MLP, 0), _decay_batches(100),
                       lambda p: math.inf, cfg)
    assert result.best_step == 6 and result.best_val_error == math.inf


def test_quintic_requires_three_knots():
    grid = uniform_grid(2)
    data = TrajectorySet(
        grids=[grid], states=[np.zeros((2, 1))], state_dim=1, system_tag="toy",
        raw_horizon=1.0,
    )
    cfg = TrainConfig(steps=10, batch_size=4, spline_kind="quintic")
    with pytest.raises(InvalidArgumentError):
        train_flow_matching(data, cfg, mlp_config=MlpConfig(state_dim=1, hidden_dims=(4,)))


def test_ar_learns_identity_on_constant_data():
    data = _constant_set(value=1.5, d=1)
    cfg = TrainConfig(steps=1200, batch_size=32, learning_rate=3e-3, eval_every=400, seed=0)
    mlp = MlpConfig(state_dim=1, hidden_dims=(16, 16), use_time_embedding=False)
    result = train_one_step(data, cfg, mlp_config=mlp, val_set=data)
    assert result.history[-1].train_loss < 1e-6
    report = evaluate_one_step_model(result.params, data)
    assert report.mean < 1e-2
    F = one_step_map(result.params)
    assert abs(F(np.array([1.5]))[0] - 1.5) < 1e-2


def test_ar_rejects_irregular_grids():
    data = generate_lorenz(4, 21, 1.0, 5.0, seed=0).subsampled(0.5, base_seed=0)
    cfg = TrainConfig(steps=10, batch_size=4)
    with pytest.raises(InvalidArgumentError, match="uniform"):
        train_one_step(data, cfg)


def test_ar_rejects_time_embedding_config():
    data = _constant_set(d=1)
    cfg = TrainConfig(steps=10, batch_size=4)
    with pytest.raises(InvalidArgumentError):
        train_one_step(data, cfg, mlp_config=MlpConfig(state_dim=1, hidden_dims=(4,)))


def test_quintic_beats_linear_loss_on_subsampled_lorenz():
    # scaled-down stability comparison: same budget and seeds, 25% keep
    # rate; quintic wins for a majority of seeds. Each spline kind regresses
    # onto its own velocity targets, and quintic targets carry more variance,
    # so raw training loss cannot rank them. Instead score what the method
    # promises: how closely the learned field matches the true dynamics,
    # horizon * lorenz_rhs(x) in normalized time, on held-out snapshots.
    train = generate_lorenz(100, 101, 5.0, 5.0, seed=10)
    sub = train.subsampled(0.25, base_seed=0)
    held_out = generate_lorenz(50, 101, 5.0, 5.0, seed=11)
    t = np.concatenate([g.times for g in held_out.grids])
    x = np.concatenate(held_out.states)
    v_true = held_out.raw_horizon * lorenz_rhs(x)
    wins = 0
    for seed in (0, 1, 2):
        field_error = {}
        for kind in ("quintic", "linear"):
            cfg = TrainConfig(steps=3000, batch_size=128, learning_rate=1e-3,
                              gamma0=1e-5, spline_kind=kind, eval_every=3000, seed=seed)
            result = train_flow_matching(sub, cfg)
            v = forward_batch(result.params, t, x)
            field_error[kind] = np.linalg.norm(v - v_true) / np.linalg.norm(v_true)
        if field_error["quintic"] < field_error["linear"]:
            wins += 1
    assert wins >= 2
