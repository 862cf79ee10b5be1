import dataclasses
import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from splineflow import (
    AdamState,
    InvalidArgumentError,
    MlpConfig,
    NumericError,
    SolverConfig,
    TrainConfig,
    TimeGrid,
    TrainingAbortedError,
    TrajectorySet,
    adam_step,
    generate_burgers,
    generate_lorenz,
    init_params,
    train_flow_matching,
    train_one_step,
    uniform_grid,
)
from splineflow.convergence import row_errors
from splineflow.evaluation import (
    EvalReport,
    evaluate_flow_model,
    evaluate_one_step_model,
    final_time_error_at_budget,
    flow_field,
    reverse_time_study,
)
from splineflow.interpolant import InterpolantSampler, SampleBatch
from splineflow.odeint import ar_rollout, rollout, rollout_reverse
from splineflow.spline import NoiseSchedule, build_linear, build_quintic
from splineflow.systems import lorenz_rhs
from splineflow.timegrid import subsample_indices
from splineflow import evaluation, trainer, workers

from recording import recorded
from reference import relative_l2
from splineflow.trainer import _optimize, _validation_error, build_splines
from splineflow.vector_field import (
    VectorFieldParams,
    _assemble_input,
    forward_batch,
    loss_and_grad,
)


def _single_param_setup(grad_value):
    config = MlpConfig(state_dim=1, hidden_dims=(1,), grid_step=0.1)
    params = init_params(config, seed=0)
    grads = VectorFieldParams(config, np.full(params.n_params, grad_value))
    return params, grads


def test_adam_first_step_is_signed_learning_rate():
    # with bias correction, m_hat = g and v_hat = g^2, so the first update
    # is -lr * sign(g) up to the epsilon regularizer
    train_cfg = TrainConfig(lr=0.01)
    params, grads = _single_param_setup(grad_value=3.7)
    state = AdamState.zeros_like(params)
    new_params, new_state = adam_step(params, state, grads, train_cfg)
    assert np.allclose(new_params.flat - params.flat, -0.01, rtol=1e-9)
    assert new_state.step_count == 1


def test_adam_zero_gradient_keeps_params():
    train_cfg = TrainConfig(lr=0.01)
    params, grads = _single_param_setup(grad_value=0.0)
    state = AdamState.zeros_like(params)
    new_params, new_state = adam_step(params, state, grads, train_cfg)
    assert np.array_equal(params.flat, new_params.flat)
    # moments decay from a nonzero state under zero gradients
    state_nz = AdamState(m=np.ones_like(params.flat), v=np.ones_like(params.flat), step_count=5)
    _, decayed = adam_step(params, state_nz, grads, train_cfg)
    assert np.allclose(decayed.m, 0.9)
    assert np.allclose(decayed.v, 0.99)


def test_an_adam_step_that_overflows_raises_numeric_error():
    # each update is about -lr * sign(g) = +1e308, which takes 1e308 past the largest float
    params, grads = _single_param_setup(grad_value=-0.5)
    params.flat[:] = 1e308
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite parameter"):
        adam_step(params, AdamState.zeros_like(params), grads, TrainConfig(lr=1e308))


def test_adam_step_returns_fresh_params_and_keeps_its_input():
    # _optimize keeps a reference to earlier parameters as its snapshot
    train_cfg = TrainConfig(lr=0.01)
    params, grads = _single_param_setup(grad_value=3.7)
    before = params.flat.copy()
    state = AdamState.zeros_like(params)
    new_params, _ = adam_step(params, state, grads, train_cfg)
    assert np.array_equal(params.flat, before)
    assert not np.shares_memory(new_params.flat, params.flat)
    assert not np.shares_memory(new_params.flat, state.m)
    assert not np.shares_memory(new_params.flat, state.v)
    assert not np.shares_memory(new_params.flat, grads.flat)


def _reference_loss_and_grad(params, batch):
    """Per-layer loss and gradients as lists, written without the flat buffer."""
    x = _assemble_input(params.config, batch.t, batch.x)
    acts, masks = [x], []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w + b
        if i < len(params.weights) - 1:
            masks.append(z > 0.0)
            z = z * masks[-1]
        acts.append(z)
    err = acts[-1] - batch.v_target
    loss = float(np.einsum("ij,ij->i", err, err).sum() / err.size)
    gw, gb = [], []
    delta = (2.0 / err.size) * err
    for i in range(len(params.weights) - 1, -1, -1):
        gw.insert(0, acts[i].T @ delta)
        gb.insert(0, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ params.weights[i].T) * masks[i - 1]
    return loss, [a for pair in zip(gw, gb) for a in pair]


def _reference_adam_step(arrays, m, v, grads, step_count, config):
    """Textbook Adam on lists of arrays; returns fresh lists."""
    b1, b2 = trainer.ADAM_BETAS
    c1, c2 = 1.0 - b1**step_count, 1.0 - b2**step_count
    m = [b1 * mi + (1.0 - b1) * g for mi, g in zip(m, grads)]
    v = [b2 * vi + (1.0 - b2) * (g * g) for vi, g in zip(v, grads)]
    arrays = [
        p - config.lr * (mi / c1) / (np.sqrt(vi / c2) + trainer.ADAM_EPS)
        for p, mi, vi in zip(arrays, m, v)
    ]
    return arrays, m, v


def _lorenz_linear_sampler():
    data = generate_lorenz(20, 101, 5.0, 5.0, seed=3).subsampled(0.5, base_seed=0)
    return InterpolantSampler(data.grids, build_splines(data, "linear"), NoiseSchedule(1e-5, 3)), 3


def _burgers_quintic_sampler():
    data = generate_burgers(4, 21, seed=0)
    return InterpolantSampler(data.grids, build_splines(data, "quintic"), NoiseSchedule(1e-5, 3)), 100


def test_build_splines_fills_the_per_trajectory_tables_in_order():
    # ragged irregular grids: each trajectory's rows are its own spline's table
    full = generate_lorenz(5, 41, 5.0, 5.0, seed=2)
    rates = (0.3, 0.5, 0.7, 1.0, 0.4)
    keeps = [subsample_indices(g, r, j) for j, (g, r) in enumerate(zip(full.grids, rates))]
    data = TrajectorySet(
        grids=[TimeGrid(times=g.times[k]) for g, k in zip(full.grids, keeps)],
        values=np.concatenate([u[k] for u, k in zip(full.states, keeps)]),
        system_tag="lorenz", raw_horizon=full.raw_horizon,
    )
    assert len({len(g) for g in data.grids}) == len(rates)
    for kind, build in (("linear", build_linear), ("quintic", build_quintic)):
        table = build_splines(data, kind)
        expected = np.concatenate([build(g, u) for g, u in zip(data.grids, data.states)])
        assert table.shape == expected.shape
        assert np.array_equal(table, expected)
    with pytest.raises(InvalidArgumentError):
        build_splines(data, "cubic")


def _traced_peak(fn):
    """(result of fn(), peak bytes that numpy and Python allocated while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _random_set(n_traj, n_times, d, seed):
    rng = np.random.default_rng(seed)
    grid = uniform_grid(n_times)
    values = np.concatenate([rng.standard_normal((n_times, d)) + 2.0 for _ in range(n_traj)])
    return TrajectorySet(grids=[grid] * n_traj, values=values, system_tag="random",
                         raw_horizon=1.0)


def test_training_sampler_holds_one_copy_of_the_knot_table():
    # the stacked table is filled in place and the sampler keeps it: a
    # sampler that concatenated per-trajectory tables would peak at 2x
    data = _random_set(40, 51, 100, seed=0)
    schedule = NoiseSchedule(1e-5, 3)
    sampler, peak = _traced_peak(
        lambda: InterpolantSampler(data.grids, build_splines(data, "quintic"), schedule)
    )
    table = sampler._table
    assert table.shape == (40 * 51, 3, 100)
    assert peak < 1.25 * table.nbytes


def test_one_step_training_gathers_pairs_from_the_stacked_states(monkeypatch):
    # each batch reads (u_k, u_{k+1}) from the (M, N, d) view of the split's
    # buffer: a stacked copy of the split would take the peak past the
    # split's payload, and flattened input and target copies to about 3x
    lorenz, data = generate_lorenz(200, 201, seed=0), _random_set(40, 101, 100, seed=2)
    cfg = TrainConfig(steps=1, batch_size=16, hidden=(8,))
    for split in (lorenz, data):
        _, peak = _traced_peak(lambda: train_one_step(split, cfg))
        assert peak < split.values.nbytes
    # the pairs are those the flattened copies gave for the same draws
    monkeypatch.setattr(trainer, "_optimize", lambda params, draw, score, config: draw)
    batch = train_one_step(data, cfg)()
    stacked = np.stack(data.states)
    idx = np.random.default_rng([cfg.seed, 1]).integers(0, 40 * 100, size=16)
    assert np.array_equal(batch.x, stacked[:, :-1].reshape(-1, 100)[idx])
    assert np.array_equal(batch.v_target, stacked[:, 1:].reshape(-1, 100)[idx])


def test_evaluation_scores_views_of_the_truths():
    # each recorded state is scored against the truths at its time, read
    # from the snapshot arrays, as it is reached: the study holds a few
    # (B, d) states and its (B, K) scores, not the (K, B, d) rollout
    data = _random_set(30, 101, 50, seed=1)
    params = init_params(MlpConfig(state_dim=50, hidden_dims=(8,), embed_bands=2), 0)
    report, peak = _traced_peak(
        lambda: evaluate_flow_model(params, data, SolverConfig("rk4", 1))
    )
    assert report.n_diverged == 0
    assert report.per_traj.shape == (30,)
    assert peak < 0.25 * (101 * 30 * 50 * 8)


@pytest.mark.parametrize("make_sampler", [_lorenz_linear_sampler, _burgers_quintic_sampler])
def test_fused_step_matches_per_layer_reference(make_sampler):
    sampler, d = make_sampler()
    cfg = TrainConfig(lr=1e-3)
    params = init_params(MlpConfig(state_dim=d), seed=0)
    state = AdamState.zeros_like(params)
    ref = [a.copy() for pair in zip(params.weights, params.biases) for a in pair]
    ref_m = [np.zeros_like(a) for a in ref]
    ref_v = [np.zeros_like(a) for a in ref]
    rng = np.random.default_rng(5)
    for step_count in range(1, 51):
        batch = sampler.sample_batch(64, rng)
        ref_params = VectorFieldParams(params.config, np.concatenate([a.ravel() for a in ref]))
        ref_loss, ref_grads = _reference_loss_and_grad(ref_params, batch)
        loss, grads = loss_and_grad(params, batch)
        assert loss == ref_loss
        assert np.array_equal(grads.flat, np.concatenate([g.ravel() for g in ref_grads]))
        params, state = adam_step(params, state, grads, cfg)
        ref, ref_m, ref_v = _reference_adam_step(ref, ref_m, ref_v, ref_grads, step_count, cfg)
        assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in ref]))


def _constant_set(value=3.0, d=2, n=11):
    return TrajectorySet(
        grids=[uniform_grid(n)], values=np.full((n, d), value), system_tag="toy", raw_horizon=1.0
    )


def _exponential_set(u0=2.0, n=11):
    grid = uniform_grid(n)
    values = (u0 * np.exp(-grid.times))[:, None]
    return TrajectorySet(grids=[grid], values=values, system_tag="toy", raw_horizon=1.0)


TOY_NET = {"hidden": (32, 32), "embed_bands": 4}


def test_constant_trajectory_learns_zero_field():
    data = _constant_set()
    cfg = TrainConfig(steps=1500, batch_size=64, lr=3e-3, gamma0=0.0,
                      eval_every=500, seed=0, **TOY_NET)
    result = train_flow_matching(data, cfg, val_set=data)
    assert result.history[-1].train_loss < 1e-5
    report = evaluate_flow_model(result.params, data, SolverConfig("rk4", 2))
    assert report.mean < 1e-3


def test_exponential_toy_learns_decay_field():
    data = _exponential_set()
    cfg = TrainConfig(steps=4000, batch_size=128, lr=3e-3, gamma0=0.0,
                      eval_every=1000, seed=1, **TOY_NET)
    result = train_flow_matching(data, cfg, val_set=data)
    report = evaluate_flow_model(result.params, data, SolverConfig("rk4", 4))
    assert report.mean < 1e-2
    # learned field approximates -u on the data tube
    f = flow_field(result.params)
    for t, u in ((0.2, 1.6), (0.7, 1.0)):
        assert abs(f(t, np.array([[u]]))[0, 0] + u) < 0.05 * u


def test_learned_field_round_trip():
    # forward to t=1 then backward to t=0 with the same learned field
    data = _exponential_set()
    cfg = TrainConfig(steps=4000, batch_size=128, lr=3e-3, gamma0=0.0,
                      eval_every=1000, seed=1, **TOY_NET)
    result = train_flow_matching(data, cfg, val_set=data)
    f = flow_field(result.params)
    solver = SolverConfig("rk4", 400)
    u0 = data.states[0][:1]
    fwd, _ = recorded(rollout, f, u0, [0.0, 1.0], solver)
    back, _ = recorded(rollout_reverse, f, fwd[-1], 1.0, [0.0], solver)
    rel = np.linalg.norm(back[-1] - u0) / np.linalg.norm(u0)
    assert rel < 1e-3


def test_training_is_bit_reproducible():
    data = _exponential_set()
    cfg = TrainConfig(steps=300, batch_size=32, lr=1e-3, gamma0=1e-5,
                      eval_every=100, seed=7, hidden=(8, 8), embed_bands=2)
    a = train_flow_matching(data, cfg, val_set=data)
    b = train_flow_matching(data, cfg, val_set=data)
    assert np.array_equal(a.params.flat, b.params.flat)
    assert [r.train_loss for r in a.history] == [r.train_loss for r in b.history]


def test_smoothed_loss_nonincreasing_early():
    data = _exponential_set()
    cfg = TrainConfig(steps=3000, batch_size=128, lr=3e-3, gamma0=0.0,
                      eval_every=1000, seed=2, **TOY_NET)
    result = train_flow_matching(data, cfg)
    losses = np.array([row.train_loss for row in result.history])
    smooth = np.convolve(losses, np.full(100, 1.0 / 100), mode="valid")  # rolling mean
    early = smooth[: 300 - 100]  # first 10% of the run
    checkpoints = early[::50]
    assert np.all(np.diff(checkpoints) <= 1e-12)


def test_divergent_run_aborts_with_last_good_params():
    data = _exponential_set()
    cfg = TrainConfig(steps=500, batch_size=32, lr=1e18, gamma0=0.0,
                      eval_every=100, seed=0, hidden=(8,), embed_bands=2)
    with pytest.raises(TrainingAbortedError) as err:
        train_flow_matching(data, cfg, val_set=data)
    assert err.value.result is not None
    assert err.value.step >= 1


def test_loss_explosion_aborts_at_step_two_with_initial_params():
    data = _exponential_set()
    cfg = TrainConfig(steps=500, batch_size=32, lr=1e18, gamma0=0.0,
                      eval_every=100, seed=0, hidden=(8,), embed_bands=2)
    with pytest.raises(TrainingAbortedError) as err:
        train_flow_matching(data, cfg, val_set=data)
    # the loss stays finite but explodes at step 2, before any validation:
    # only the initial parameters passed the loss check
    assert err.value.step == 2
    assert err.value.result.best_step == 0
    assert math.isnan(err.value.result.best_val_error)
    initial = init_params(MlpConfig(1, (8,), embed_bands=2), cfg.seed)
    assert np.array_equal(err.value.result.params.flat, initial.flat)
    assert [row.step for row in err.value.result.history] == [1]


def _decay_batches(first_bad_step):
    """Batches for the field -u, with a NaN target from first_bad_step on."""
    rng = np.random.default_rng(0)
    steps = itertools.count(1)

    def draw():
        x = rng.standard_normal((16, 1))
        v = -x if next(steps) < first_bad_step else np.full_like(x, np.nan)
        return SampleBatch(t=np.zeros(16), x=x, v_target=v)

    return draw


AR_MLP = MlpConfig(state_dim=1, hidden_dims=(8,), grid_step=0.1)


@pytest.mark.parametrize("first_bad_step", [1, 4])
def test_non_finite_loss_hands_over_last_params_that_passed(first_bad_step):
    cfg = TrainConfig(steps=10, batch_size=16, lr=1e-2, seed=0)
    with pytest.raises(TrainingAbortedError) as err:
        _optimize(init_params(AR_MLP, 0), _decay_batches(first_bad_step), None, cfg)
    assert err.value.step == first_bad_step
    if first_bad_step == 1:
        assert err.value.result is None
        return
    # the loss at step k checks the parameters after k - 1 updates
    kept = first_bad_step - 2
    assert err.value.result.best_step == kept
    replay = _optimize(init_params(AR_MLP, 0), _decay_batches(first_bad_step),
                       None, dataclasses.replace(cfg, steps=kept))
    assert np.array_equal(err.value.result.params.flat, replay.params.flat)


def _cpus(monkeypatch, n):
    """Let the worker pool see n CPUs."""
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(n)))


def _draw_threads(monkeypatch) -> list:
    """The thread of every batch the trainers draw from here on, in order."""
    threads, real = [], trainer.one_ahead

    def spy(draw, count, entries):
        return real(lambda: (threads.append(threading.get_ident()), draw())[1], count, entries)

    monkeypatch.setattr(trainer, "one_ahead", spy)
    return threads


def _bits(result):
    history = [(row.step, row.train_loss, row.val_rel_l2) for row in result.history]
    return np.array(history), result.params.flat, result.best_step


@pytest.mark.parametrize("train", [train_flow_matching, train_one_step])
def test_a_training_that_draws_ahead_equals_one_that_draws_in_line(monkeypatch, train):
    # batches of 256 x 100 entries, above PART_ENTRIES: on 2 CPUs each next
    # batch is drawn on the pool while the step runs; with the floor above
    # the batch, every batch is drawn on the calling thread when needed
    data = generate_burgers(4, 21, seed=0)
    cfg = TrainConfig(steps=12, batch_size=256, eval_every=5, seed=3, hidden=(16,),
                      embed_bands=2)
    _cpus(monkeypatch, 2)
    threads, runs, caller = _draw_threads(monkeypatch), [], threading.get_ident()
    for floor, on_pool in ((workers.PART_ENTRIES, 11), (256 * 100 + 1, 0)):
        monkeypatch.setattr(workers, "PART_ENTRIES", floor)
        threads.clear()
        runs.append(_bits(train(data, cfg, val_set=data)))
        assert threads[0] == caller
        assert len(threads) - threads.count(caller) == on_pool
    (history, flat, best), (inline_history, inline_flat, inline_best) = runs
    assert np.array_equal(history, inline_history, equal_nan=True)
    assert np.array_equal(flat, inline_flat)
    assert best == inline_best


@pytest.mark.parametrize("floor", [1, 10**9])
def test_a_full_run_draws_exactly_its_steps_batches(monkeypatch, floor):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(workers, "PART_ENTRIES", floor)
    threads = _draw_threads(monkeypatch)
    cfg = TrainConfig(steps=7, batch_size=16, lr=1e-2, eval_every=3, seed=0)
    result = _optimize(init_params(AR_MLP, 0), _decay_batches(100), lambda p: 1.0, cfg)
    assert [row.step for row in result.history] == list(range(1, 8))
    assert len(threads) == 7


def test_draws_ahead_hold_under_frequent_thread_switches(monkeypatch):
    # a fresh pool of three workers (more threads than a 2-core host has
    # cores), with the interpreter switching threads as often as it can:
    # the rng passes between threads one draw at a time, in order
    _cpus(monkeypatch, 4)
    monkeypatch.setattr(workers, "_pool", None)
    rngs = [np.random.default_rng(9), np.random.default_rng(9)]
    inline = [rngs[1].standard_normal((64, 256)) for _ in range(200)]
    ahead = []
    runner = threading.Thread(target=lambda: ahead.extend(
        workers.one_ahead(lambda: rngs[0].standard_normal((64, 256)), 200, 64 * 256)
    ))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(ahead) == 200
    assert all(np.array_equal(a, b) for a, b in zip(ahead, inline))
    workers._pool.shutdown()


def test_an_aborted_run_leaves_no_draw_running(monkeypatch):
    # the batch of step 4 has a NaN target; the draw of batch 5 is pending
    # on the pool as step 4 fails, and has ended before the error propagates
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(workers, "PART_ENTRIES", 16)
    draw, running, drawn = _decay_batches(4), [], []

    def slow_draw():
        running.append(threading.get_ident())
        time.sleep(0.05)
        batch = draw()
        drawn.append(running.pop())
        return batch

    cfg = TrainConfig(steps=10, batch_size=16, lr=1e-2, seed=0)
    with pytest.raises(TrainingAbortedError) as err:
        _optimize(init_params(AR_MLP, 0), slow_draw, None, cfg)
    assert running == []
    assert err.value.step == 4
    assert len(drawn) == 5  # one batch past the aborting step
    assert drawn[0] == threading.get_ident() and threading.get_ident() not in drawn[1:]


def test_validation_with_diverged_rows_is_never_kept():
    report = EvalReport(per_traj=np.array([0.6]), per_time=np.array([0.6]), nfe=1, n_diverged=1)
    assert _validation_error(report) == math.inf
    cfg = TrainConfig(steps=6, batch_size=16, lr=1e-2, eval_every=2, seed=0)
    scores = iter([math.inf, 0.3, math.inf])
    result = _optimize(init_params(AR_MLP, 0), _decay_batches(100),
                       lambda p: next(scores), cfg)
    assert result.best_step == 4 and result.best_val_error == 0.3
    assert [row.val_rel_l2 for row in result.history][1::2] == [math.inf, 0.3, math.inf]
    # when every validation diverged, the final parameters are handed over
    result = _optimize(init_params(AR_MLP, 0), _decay_batches(100),
                       lambda p: math.inf, cfg)
    assert result.best_step == 6 and result.best_val_error == math.inf


def test_quintic_requires_three_knots():
    grid = uniform_grid(2)
    data = TrajectorySet(
        grids=[grid], values=np.zeros((2, 1)), system_tag="toy", raw_horizon=1.0,
    )
    cfg = TrainConfig(steps=10, batch_size=4, spline="quintic", hidden=(4,))
    with pytest.raises(InvalidArgumentError):
        train_flow_matching(data, cfg)


@pytest.mark.parametrize("net", [{}, {"hidden": (4, 3), "embed_bands": 2}])
def test_each_trainer_builds_its_network_from_the_data_and_the_config(net):
    # the recorded grid step is what tells a next-state map from a velocity field;
    # the width comes from the data, the layers and bands from the config
    data = _constant_set(value=1.5, d=2)
    cfg = TrainConfig(steps=2, batch_size=4, **net)
    for train, step in ((train_flow_matching, None), (train_one_step, data.uniform_step())):
        config = train(data, cfg).params.config
        assert config == MlpConfig(data.state_dim, cfg.hidden, cfg.embed_bands, step)
        assert config.hidden_dims == net.get("hidden", MlpConfig.hidden_dims)
        assert config.embed_bands == net.get("embed_bands", MlpConfig.embed_bands)


def test_ar_learns_identity_on_constant_data():
    data = _constant_set(value=1.5, d=1)
    cfg = TrainConfig(steps=1200, batch_size=32, lr=3e-3, eval_every=400, seed=0,
                      hidden=(16, 16))
    result = train_one_step(data, cfg, val_set=data)
    assert result.history[-1].train_loss < 1e-6
    report = evaluate_one_step_model(result.params, data)
    assert report.mean < 1e-2
    assert abs(forward_batch(result.params, 0.0, np.array([[1.5]]))[0, 0] - 1.5) < 1e-2


def _ar_pair(grid_step, flat=None):
    """A one-step map of 1-D states through one ReLU pair, for a grid of step grid_step."""
    return VectorFieldParams(MlpConfig(1, (2,), grid_step=grid_step), flat)


def test_ar_evaluation_masks_rows_that_blow_up():
    # F(u) = 1e3 * u through the ReLU pair relu(u) - relu(-u): rows with
    # |u0| >= 1 pass the 1e8 norm bound at step 3, the small rows never do.
    # The truths grow like the model, so only the frozen rows count: they
    # stop at norms 1e6 and 2e6, below the 1e9 and 2e9 their truths reach.
    grid = uniform_grid(4)
    params = _ar_pair(round(1 / 3, 12), [1.0, -1.0, 0.0, 0.0, 1e3, -1e3, 0.0])
    u0s = (1.0, -2.0, 0.01, 0.001)
    data = TrajectorySet(
        grids=[grid] * 4, values=np.concatenate([u * 1e3 ** np.arange(4.0)[:, None] for u in u0s]),
        system_tag="toy", raw_horizon=1.0,
    )
    report = evaluate_one_step_model(params, data)
    assert report.n_diverged == 2
    assert report.nfe == 3


def test_rows_that_outgrow_their_truth_below_the_norm_bound_are_diverged():
    # du/dt = 11.5 relu(u): RK4 on 10 intervals grows the row from 1 to
    # about 9.5e4, far below the 1e8 bound but 1e5 times its constant
    # truth; the row from -1 sits still on its truth
    config = MlpConfig(state_dim=1, hidden_dims=(1,), embed_bands=1)
    params = VectorFieldParams(config, np.array([1.0, 0.0, 0.0, 0.0, 11.5, 0.0]))
    grid = uniform_grid(11)
    data = TrajectorySet(
        grids=[grid] * 2, values=np.repeat([[1.0], [-1.0]], 11, axis=0), system_tag="toy",
        raw_horizon=1.0,
    )
    solver = SolverConfig("rk4", 1)
    states, _ = recorded(rollout, flow_field(params), np.array([[1.0]]), grid.times, solver)
    assert 9e4 < states.max() < 1e5
    report = evaluate_flow_model(params, data, solver)
    assert report.n_diverged == 1
    assert report.per_traj[1] == 0.0


def test_reverse_study_flags_rows_that_outgrow_their_truth():
    # the mirrored field du/dt = -11.5 relu(u), integrated backward from
    # t* = 1, grows the row anchored at 1 to about 4.6e4 times its constant
    # truth, below the 1e8 freeze bound; the row at -1 sits still
    config = MlpConfig(state_dim=1, hidden_dims=(1,), embed_bands=1)
    params = VectorFieldParams(config, np.array([1.0, 0.0, 0.0, 0.0, -11.5, 0.0]))
    data = TrajectorySet(
        grids=[uniform_grid(11)] * 2, values=np.repeat([[1.0], [-1.0]], 11, axis=0),
        system_tag="toy", raw_horizon=1.0,
    )
    rows = reverse_time_study(params, data, 1.0, (0.0,), SolverConfig("rk4", 1))
    level, horizon, error, n_diverged = rows[-1]
    assert (level, horizon) == (0.0, 1.0)
    assert 4e4 < error < 5e4
    assert n_diverged == 1


def _eight_rows_last_outgrowing():
    """(data, flow, back, one_step) on 8 constant rows."""
    grid = uniform_grid(11)
    data = TrajectorySet(
        grids=[grid] * 8,
        values=np.repeat([-1.0, -0.5, -2.0, -1.5, -0.8, -1.2, -0.3, 1.0], 11)[:, None],
        system_tag="toy", raw_horizon=1.0,
    )
    config = MlpConfig(state_dim=1, hidden_dims=(1,), embed_bands=1)
    # du/dt = 11.5 relu(u) - 0.5 grows the last row about 1e5-fold and
    # moves the others off their truth; its mirror does so backward in time
    flow = VectorFieldParams(config, np.array([1.0, 0.0, 0.0, 0.0, 11.5, -0.5]))
    back = VectorFieldParams(config, np.array([1.0, 0.0, 0.0, 0.0, -11.5, 0.5]))
    # F(u) = 2.5 relu(u) - 0.9 relu(-u): the last row grows 2.5-fold a step
    one_step = _ar_pair(0.1, [1.0, -1.0, 0.0, 0.0, 2.5, -0.9, 0.0])
    return data, flow, back, one_step


def _recorded_per_time(states, data, picks):
    """The per-time curve of a recorded (K, B, d) rollout, each row scored whole."""
    return np.mean([row_errors(states[:, i], u[picks]) for i, u in enumerate(data.states)], axis=0)


def test_streamed_studies_score_as_their_recorded_rollouts():
    # every study scores its states as they are reached; the per-time
    # curve equals scoring the recorded rollout row by row, and only the
    # last row outgrows its truth
    data, flow, back, one_step = _eight_rows_last_outgrowing()
    times, solver = data.grids[0].times, SolverConfig("rk4", 1)
    u0 = np.stack([u[0] for u in data.states])
    report = evaluate_flow_model(flow, data, solver)
    states, _ = recorded(rollout, flow_field(flow), u0, times, solver)
    assert np.array_equal(report.per_time, _recorded_per_time(states, data, slice(None)))
    assert (report.final_time_error, report.nfe, report.n_diverged) == (11056.192207377575, 40, 1)
    assert final_time_error_at_budget(flow, data, "rk4", 40) == (11056.192207377575, 40)

    report = evaluate_one_step_model(one_step, data, eval_stride=2)
    states, _ = recorded(ar_rollout, lambda t, x: forward_batch(one_step, 0.0, x), u0, times)
    assert np.array_equal(
        report.per_time, _recorded_per_time(states[::2], data, slice(None, None, 2))
    )
    assert (report.final_time_error, report.nfe, report.n_diverged) == (1192.537801872725, 10, 1)

    rows = reverse_time_study(back, data, 1.0, (0.0, 0.1), solver)
    targets = np.arange(9, -1, -1)
    anchored = np.stack([u[-1] for u in data.states])
    states, _ = recorded(rollout_reverse, flow_field(back), anchored, 1.0, times[targets], solver)
    assert [e for level, _, e, _ in rows if level == 0.0] == list(
        _recorded_per_time(states, data, targets)
    )
    assert rows[-1][2:] == (9511.292282099415, 1)
    assert [n for *_, n in rows] == [1] * 20


def test_reverse_study_needs_one_shared_grid():
    data = generate_lorenz(3, 21, seed=5).subsampled(0.5, base_seed=0)
    params = init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0)
    with pytest.raises(InvalidArgumentError, match="one grid"):
        reverse_time_study(params, data, 0.5, (0.0,), SolverConfig("rk4", 1))


@pytest.mark.parametrize("t_star", [-0.1, 1.5, math.nan])
def test_reverse_study_refuses_an_anchor_outside_the_unit_interval(t_star):
    # the nearest grid time would silently stand in for it: t* = 1.5
    # anchors at t = 1 and scores horizons the caller never asked for
    data = generate_lorenz(2, 21, seed=5)
    params = init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0)
    with pytest.raises(InvalidArgumentError, match=r"t_star must lie in \[0, 1\]"):
        reverse_time_study(params, data, t_star, (0.0,), SolverConfig("rk4", 1))


def test_ar_evaluation_scores_each_trajectory_at_its_own_index():
    # F(u) = 2 u through the ReLU pair; each row grows at its own rate
    grid = uniform_grid(4)
    params = _ar_pair(round(1 / 3, 12), [1.0, -1.0, 0.0, 0.0, 2.0, -2.0, 0.0])
    u0s, rates = (1.0, 3.0, -0.5), (1.5, 2.5, 1.0)
    truths = [u0 * rate ** np.arange(4.0)[:, None] for u0, rate in zip(u0s, rates)]
    data = TrajectorySet(
        grids=[grid] * 3, values=np.concatenate(truths), system_tag="toy", raw_horizon=1.0,
    )
    report = evaluate_one_step_model(params, data)
    own = [relative_l2(u0 * 2.0 ** np.arange(4.0)[:, None], truth)
           for u0, truth in zip(u0s, truths)]
    assert len(set(own)) == 3
    assert report.per_traj.tolist() == own


def _on_two_grids():
    grid = uniform_grid(5)
    return TrajectorySet(
        grids=[grid, TimeGrid(times=[0.0, 0.2, 0.5, 0.6, 1.0]), grid],
        values=np.repeat([[1.0], [2.0], [3.0]], 5, axis=0), system_tag="toy", raw_horizon=1.0,
    )


def test_every_study_refuses_trajectories_on_different_grids():
    data = _on_two_grids()
    flow = init_params(MlpConfig(state_dim=1, hidden_dims=(4,)), 0)
    one_step = _ar_pair(0.25)
    solver = SolverConfig("rk4", 1)
    studies = [
        lambda: evaluate_flow_model(flow, data, solver),
        lambda: evaluate_one_step_model(one_step, data),
        lambda: final_time_error_at_budget(flow, data, "rk4", 8),
        lambda: reverse_time_study(flow, data, 0.5, (0.0,), solver),
    ]
    for study in studies:
        with pytest.raises(InvalidArgumentError, match="one grid shared by all"):
            study()


def test_every_study_refuses_a_model_of_the_other_kind_before_rolling_out(monkeypatch):
    # a next-state map integrated as a velocity field, or a velocity field
    # stepped as a next-state map, scores a number that means nothing
    data = generate_lorenz(2, 11, seed=5)
    flow = init_params(MlpConfig(state_dim=3, hidden_dims=(4,)), 0)
    one_step = init_params(MlpConfig(state_dim=3, hidden_dims=(4,), grid_step=0.1), 0)
    rolled = []
    for name in ("rollout", "ar_rollout", "rollout_reverse"):
        monkeypatch.setattr(evaluation, name, lambda *args, **kwargs: rolled.append(args))
    solver = SolverConfig("rk4", 1)
    studies = [
        (lambda: evaluate_flow_model(one_step, data, solver), "is a one-step map"),
        (lambda: final_time_error_at_budget(one_step, data, "rk4", 8), "is a one-step map"),
        (lambda: reverse_time_study(one_step, data, 0.5, (0.0,), solver), "is a one-step map"),
        (lambda: evaluate_one_step_model(flow, data), "is a velocity field"),
    ]
    for study, shown in studies:
        with pytest.raises(InvalidArgumentError, match=shown):
            study()
    assert rolled == []


def test_flow_training_refuses_such_a_val_set_before_its_first_step(monkeypatch):
    steps = []
    monkeypatch.setattr(trainer, "loss_and_grad", lambda *args: steps.append(args))
    with pytest.raises(InvalidArgumentError, match="one grid shared by all"):
        train_flow_matching(
            _constant_set(d=1), TrainConfig(steps=1, batch_size=4, **TOY_NET),
            val_set=_on_two_grids(),
        )
    assert steps == []


def test_budget_nfe_is_scheduled_and_reverse_counts_rows_that_all_died():
    data = generate_lorenz(3, 21, seed=5)
    params = init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0)
    params.biases[-1][:] = 1e10  # leaves the 1e8 norm bound in the first step
    _, nfe = final_time_error_at_budget(params, data, "rk4", 40)
    assert nfe == 40
    rows = reverse_time_study(params, data, 0.5, (0.0, 0.1), SolverConfig("rk4", 1))
    assert rows and all(n == 3 for *_, n in rows)


def test_budget_error_is_the_final_time_error_of_the_flow_report():
    # nfe-sweep's flow rows read the report field its AR row reads; a mean
    # of the 8 rows' own final errors rounds differently on this set
    data = generate_lorenz(8, 21, seed=5)
    params = init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0)
    for method, budget in (("rk4", 40), ("euler", 10), ("heun", 16)):
        solver = SolverConfig(method, budget // SolverConfig(method).stages)
        report = evaluate_flow_model(params, data, solver, eval_stride=data.shared_grid().n_segments)
        pair = final_time_error_at_budget(params, data, method, budget)
        assert pair == (report.final_time_error, report.nfe)


def test_one_step_evaluation_runs_only_on_its_training_step():
    params = _ar_pair(0.1, [1.0, -1.0, 0.0, 0.0, 2.0, -2.0, 0.0])

    def on(grid):
        return TrajectorySet(
            grids=[grid] * 2, values=np.repeat([[1.0], [2.0]], len(grid), axis=0),
            system_tag="toy", raw_horizon=1.0,
        )

    with pytest.raises(InvalidArgumentError, match="uniform"):
        evaluate_one_step_model(params, on(TimeGrid(times=[0.0, 0.05, 0.5, 1.0])))
    with pytest.raises(InvalidArgumentError, match="differs"):
        evaluate_one_step_model(params, on(uniform_grid(21)))
    assert evaluate_one_step_model(params, on(uniform_grid(11))).nfe == 10


def test_ar_rejects_irregular_grids():
    data = generate_lorenz(4, 21, 1.0, 5.0, seed=0).subsampled(0.5, base_seed=0)
    cfg = TrainConfig(steps=10, batch_size=4)
    with pytest.raises(InvalidArgumentError, match="uniform"):
        train_one_step(data, cfg)


# The headline check passes when CFO's final-time error is at most this
# fraction of the AR baseline's (a 2% margin).
CLAIM_MARGIN = 0.98


def _subsampled_lorenz_config(seed, kind="quintic"):
    return TrainConfig(steps=3000, batch_size=128, lr=1e-3, gamma0=1e-5,
                       spline=kind, eval_every=3000, seed=seed)


@pytest.fixture(scope="module")
def subsampled_lorenz():
    """Full and 25%-kept Lorenz training data, held-out data, and quintic fields per seed 0-2."""
    train = generate_lorenz(100, 101, 5.0, 5.0, seed=10)
    sub = train.subsampled(0.25, base_seed=0)
    held_out = generate_lorenz(50, 101, 5.0, 5.0, seed=11)
    quintic = {
        seed: train_flow_matching(sub, _subsampled_lorenz_config(seed)).params
        for seed in (0, 1, 2)
    }
    return train, sub, held_out, quintic


@pytest.mark.slow
def test_quintic_beats_linear_loss_on_subsampled_lorenz(subsampled_lorenz):
    # scaled-down stability comparison: same budget and seeds, 25% keep
    # rate; quintic wins for a majority of seeds. Each spline kind regresses
    # onto its own velocity targets, and quintic targets carry more variance,
    # so raw training loss cannot rank them. Instead score what the method
    # promises: how closely the learned field matches the true dynamics,
    # horizon * lorenz_rhs(x) in normalized time, on held-out snapshots.
    _, sub, held_out, quintic = subsampled_lorenz
    t = np.concatenate([g.times for g in held_out.grids])
    x = held_out.values
    v_true = held_out.raw_horizon * lorenz_rhs(x)
    wins = 0
    for seed in (0, 1, 2):
        linear = train_flow_matching(sub, _subsampled_lorenz_config(seed, "linear")).params
        field_error = {}
        for kind, params in (("quintic", quintic[seed]), ("linear", linear)):
            v = forward_batch(params, t, x)
            field_error[kind] = np.linalg.norm(v - v_true) / np.linalg.norm(v_true)
        if field_error["quintic"] < field_error["linear"]:
            wins += 1
    assert wins >= 2


@pytest.mark.slow
def test_cfo_on_a_quarter_of_the_points_beats_full_data_ar_at_half_its_nfe(subsampled_lorenz):
    # The paper's headline claim at the scale above: the quintic field,
    # trained on 25% of the time points and run with RK4 at half the AR
    # baseline's evaluations, ends closer to the truth than the one-step
    # model trained on every point. Only the final time is claimed; over
    # the whole trajectory the AR model does better at this scale.
    train, _, held_out, quintic = subsampled_lorenz
    intervals = held_out.shared_grid().n_segments
    for seed in (0, 1, 2):
        ar = evaluate_one_step_model(
            train_one_step(train, _subsampled_lorenz_config(seed)).params, held_out
        )
        cfo, nfe = final_time_error_at_budget(quintic[seed], held_out, "rk4", intervals // 2)
        assert nfe <= ar.nfe // 2
        assert cfo < CLAIM_MARGIN * ar.final_time_error, (seed, cfo, ar.final_time_error)
