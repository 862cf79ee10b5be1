import sys
import threading

import numpy as np
import pytest

from splineflow import cli, vector_field, workers
from splineflow import (
    DataFormatError,
    InvalidArgumentError,
    MlpConfig,
    NumericError,
    SampleBatch,
    VectorFieldParams,
    forward_batch,
    init_params,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    time_embedding,
)

from recording import forward_sweep_rows


def test_embedding_at_zero():
    emb = time_embedding(0.0, bands=4)
    assert np.allclose(emb[:4], 0.0)
    assert np.allclose(emb[4:], 1.0)


def test_embedding_dimension():
    assert time_embedding(0.3, bands=8).shape == (16,)


def test_embedding_injective_on_grid():
    ts = np.linspace(0.0, 1.0, 1000)
    emb = time_embedding(ts, bands=2)
    assert np.unique(emb.round(12), axis=0).shape[0] == 1000


def test_embedding_rejects_nonpositive_bands():
    with pytest.raises(InvalidArgumentError):
        time_embedding(0.5, bands=0)


@pytest.mark.parametrize("step", [0.0, -0.1, 1.5, float("nan"), float("inf")])
def test_a_one_step_grid_step_must_lie_in_the_unit_interval(step):
    # a normalized grid's step lies in (0, 1]; 1 is the two-point grid
    assert MlpConfig(state_dim=2, grid_step=1.0).input_dim == 2
    with pytest.raises(InvalidArgumentError, match="grid_step"):
        MlpConfig(state_dim=2, grid_step=step)


def test_zero_params_give_zero_output():
    config = MlpConfig(state_dim=3, hidden_dims=(8, 8), embed_bands=2)
    params = init_params(config, seed=0)
    for w in params.weights:
        w[...] = 0.0
    assert np.allclose(forward_batch(params, 0.7, np.array([[1.0, -2.0, 3.0]])), 0.0)


def test_forward_matches_hand_computation():
    config = MlpConfig(state_dim=2, hidden_dims=(3,), grid_step=0.5)
    params = init_params(config, seed=1)
    u = np.array([[0.5, -1.5]])
    expected = np.maximum(u @ params.weights[0] + params.biases[0], 0.0)
    expected = expected @ params.weights[1] + params.biases[1]
    assert np.allclose(forward_batch(params, 0.0, u), expected, atol=1e-15)


def test_forward_is_deterministic():
    config = MlpConfig(state_dim=4, hidden_dims=(16, 16), embed_bands=4)
    params = init_params(config, seed=3)
    u = np.random.default_rng(0).standard_normal((1, 4))
    a = forward_batch(params, 0.3, u)
    b = forward_batch(params, 0.3, u)
    assert np.array_equal(a, b)


def test_shared_time_matches_per_row_times():
    # a scalar time is embedded once and broadcast; per-row embedding of the
    # same time must give the same bits
    config = MlpConfig(state_dim=3, hidden_dims=(16, 16), embed_bands=8)
    params = init_params(config, seed=4)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 3))
    for t in np.concatenate([rng.uniform(0.0, 1.0, 200), [0.0, 0.5, 1.0]]):
        assert np.array_equal(forward_batch(params, t, x), forward_batch(params, np.full(7, t), x))


def _cpus(monkeypatch, n):
    """Let the worker pool see n CPUs."""
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(n)))


def test_row_parts_follow_the_cpus_and_the_part_size(monkeypatch):
    params = init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), seed=5)
    calls = forward_sweep_rows(monkeypatch)
    for cpus, rows, parts in [
        (2, 319, [319]), (2, 320, [160, 160]), (2, 6000, [3000, 3000]),
        (4, 600, [200, 200, 200]), (4, 601, [200, 200, 201]), (1, 6000, [6000]),
    ]:
        _cpus(monkeypatch, cpus)
        calls.clear()
        forward_batch(params, 0.37, np.ones((rows, 3)))
        assert sorted(calls) == parts, (cpus, rows)


@pytest.mark.parametrize("d, rows", [(100, 600), (100, 601), (100, 320), (3, 400), (3, 402)])
def test_a_split_forward_pass_equals_one_sweep(monkeypatch, d, rows):
    # parts start at multiples of 8 rows and hold at least 160, where the
    # BLAS kernels round every row as in the whole batch (module docstring)
    cuts = {600: [296, 304], 601: [296, 305], 320: [160, 160], 400: [200, 200], 402: [200, 202]}
    params = init_params(MlpConfig(state_dim=d), seed=5)
    u = np.random.default_rng(rows).standard_normal((rows, d))
    whole = vector_field._sweep(params, vector_field._assemble_input(params.config, 0.37, u))
    calls = forward_sweep_rows(monkeypatch)
    for cpus, parts in ((1, [rows]), (2, cuts[rows])):
        _cpus(monkeypatch, cpus)
        calls.clear()
        assert np.array_equal(forward_batch(params, 0.37, u), whole)
        assert sorted(calls) == parts
    assert workers._pool is not None


def test_split_forward_passes_hold_under_frequent_thread_switches(monkeypatch):
    # four parts on a fresh pool of three workers (more threads than a
    # 2-core host has cores), with the interpreter switching threads as
    # often as it can
    _cpus(monkeypatch, 4)
    monkeypatch.setattr(workers, "_pool", None)
    params = init_params(MlpConfig(state_dim=100), seed=5)
    u = np.random.default_rng(0).standard_normal((640, 100))
    whole = vector_field._sweep(params, vector_field._assemble_input(params.config, 0.37, u))
    calls = forward_sweep_rows(monkeypatch)
    same = []
    runner = threading.Thread(
        target=lambda: same.extend(
            np.array_equal(forward_batch(params, 0.37, u), whole) for _ in range(40)
        )
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert calls == [160] * 4 * 40
    assert same == [True] * 40
    workers._pool.shutdown()


def test_a_batch_too_small_to_split_starts_no_thread(monkeypatch, tmp_path):
    # a forward pass under 2 * PART_ROWS rows, a default-size gen-data of
    # either system, and the commands of the benchmark's Lorenz workloads
    # up to their trainings: gen-data (train and validation 1000 + 100,
    # test 400 or 100), and train and train-ar at batch 256, whose 256 x 3
    # entries are under the floor of drawing the next batch ahead
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(workers, "_pool", None)
    params = init_params(MlpConfig(state_dim=100), seed=5)
    threads = threading.active_count()
    forward_batch(params, 0.37, np.ones((319, 100)))
    out, train_file = str(tmp_path / "data.sftraj"), str(tmp_path / "train.sftraj")
    for system in ("lorenz", "burgers1d"):
        assert cli.main(["gen-data", "--system", system, "--out", out]) == 0
    for train, val, test, path in (
        ("1000", "100", "0", train_file), ("0", "0", "400", out), ("0", "0", "100", out)
    ):
        assert cli.main([
            "gen-data", "--n-train", train, "--n-val", val, "--n-test", test, "--out", path,
        ]) == 0
    for training in (
        ["train", "--keep-rate", "0.5", "--spline", "linear"],
        ["train", "--spline", "quintic"],
        ["train-ar"],
    ):
        assert cli.main([
            *training, "--dataset", train_file, "--steps", "3", "--eval-every", "3",
            "--batch-size", "256", "--out-dir", str(tmp_path),
        ]) == 0
    assert workers._pool is None
    assert threading.active_count() == threads


def test_weights_and_biases_are_views_of_flat():
    config = MlpConfig(state_dim=3, hidden_dims=(5, 4), embed_bands=2)
    n_params = config.input_dim * 5 + 5 + 5 * 4 + 4 + 4 * 3 + 3
    params = VectorFieldParams(config, np.arange(float(n_params)))
    # layout w0, b0, w1, b1, w2, b2 with row-major weights
    assert params.weights[0][0, 1] == 1.0
    assert params.biases[0][0] == config.input_dim * 5
    assert params.weights[1][0, 0] == config.input_dim * 5 + 5
    assert params.biases[2][-1] == params.n_params - 1
    params.biases[1][:] = -1.0
    assert np.count_nonzero(params.flat == -1.0) == 4
    with pytest.raises(InvalidArgumentError):
        VectorFieldParams(config, np.zeros(params.n_params + 1))


def test_init_deterministic_and_bounded():
    config = MlpConfig(state_dim=3, hidden_dims=(8,), embed_bands=2)
    p1 = init_params(config, seed=7)
    p2 = init_params(config, seed=7)
    p3 = init_params(config, seed=8)
    dims = config.layer_dims
    for i, (w1, w2, w3) in enumerate(zip(p1.weights, p2.weights, p3.weights)):
        assert np.array_equal(w1, w2)
        assert np.abs(w1).max() <= 1.0 / np.sqrt(dims[i])
        assert not np.array_equal(w1, w3)
    for b in p1.biases:
        assert np.all(b == 0.0)


def _toy_batch(params, rng, n=8):
    d = params.config.state_dim
    ts = rng.uniform(0, 1, n)
    xs = rng.standard_normal((n, d))
    vs = rng.standard_normal((n, d))
    return SampleBatch(t=ts, x=xs, v_target=vs)


def test_loss_zero_at_oracle_targets():
    config = MlpConfig(state_dim=2, hidden_dims=(4,), embed_bands=2)
    params = init_params(config, seed=0)
    rng = np.random.default_rng(0)
    batch = _toy_batch(params, rng, n=1)
    oracle = forward_batch(params, batch.t, batch.x)
    loss, grads = loss_and_grad(params, SampleBatch(t=batch.t, x=batch.x, v_target=oracle))
    assert loss == 0.0
    assert np.allclose(grads.flat, 0.0)


def test_gradients_match_finite_differences():
    config = MlpConfig(state_dim=2, hidden_dims=(4,), embed_bands=2)
    params = init_params(config, seed=5)
    assert params.n_params <= 200
    rng = np.random.default_rng(6)
    batch = _toy_batch(params, rng, n=8)
    _, grads = loss_and_grad(params, batch)
    flat_g = grads.flat

    eps = 1e-5
    flat0 = params.flat
    fd = np.empty_like(flat0)
    for i in range(flat0.size):
        bumped = flat0.copy()
        bumped[i] += eps
        lp, _ = loss_and_grad(VectorFieldParams(config, bumped), batch)
        bumped[i] -= 2 * eps
        lm, _ = loss_and_grad(VectorFieldParams(config, bumped), batch)
        fd[i] = (lp - lm) / (2 * eps)
    denom = np.maximum(np.abs(fd), 1e-8)
    assert np.max(np.abs(flat_g - fd) / denom) < 1e-4


def test_quadratic_scaling_of_loss():
    config = MlpConfig(state_dim=3, hidden_dims=(4,), embed_bands=2)
    params = init_params(config, seed=0)
    for w in params.weights:
        w[...] = 0.0
    rng = np.random.default_rng(2)
    batch = _toy_batch(params, rng)
    loss1, _ = loss_and_grad(params, batch)
    doubled = SampleBatch(t=batch.t, x=batch.x, v_target=2.0 * batch.v_target)
    loss2, _ = loss_and_grad(params, doubled)
    assert np.isclose(loss2, 4.0 * loss1)


def test_empty_batch_rejected():
    config = MlpConfig(state_dim=2, hidden_dims=(4,))
    params = init_params(config, seed=0)
    empty = SampleBatch(t=np.zeros(0), x=np.zeros((0, 2)), v_target=np.zeros((0, 2)))
    with pytest.raises(InvalidArgumentError):
        loss_and_grad(params, empty)


def test_nonfinite_input_raises_numeric_error():
    config = MlpConfig(state_dim=2, hidden_dims=(4,), embed_bands=2)
    params = init_params(config, seed=0)
    batch = SampleBatch(
        t=np.array([0.5]), x=np.array([[np.nan, 0.0]]), v_target=np.zeros((1, 2))
    )
    with pytest.raises(NumericError):
        loss_and_grad(params, batch)


def test_nonfinite_target_reports_sample_index():
    config = MlpConfig(state_dim=2, hidden_dims=(4,), embed_bands=2)
    params = init_params(config, seed=0)
    v = np.zeros((3, 2))
    v[1, 0] = np.inf
    batch = SampleBatch(t=np.full(3, 0.5), x=np.zeros((3, 2)), v_target=v)
    with pytest.raises(NumericError, match="sample 1"):
        loss_and_grad(params, batch)


def test_checkpoint_round_trip(tmp_path):
    config = MlpConfig(state_dim=3, hidden_dims=(8, 4), embed_bands=2)
    params = init_params(config, seed=9)
    path = tmp_path / "model.ckpt.npz"
    save_checkpoint(path, params, meta={"kind": "flow", "note": "unit"})
    loaded, meta = load_checkpoint(path)
    assert meta["kind"] == "flow"
    assert loaded.config == config
    assert np.array_equal(loaded.flat, params.flat)


def test_checkpoint_round_trips_a_one_step_model_and_its_step(tmp_path):
    config = MlpConfig(state_dim=2, hidden_dims=(4,), embed_bands=3, grid_step=0.05)
    path = tmp_path / "ar.ckpt.npz"
    save_checkpoint(path, init_params(config, seed=2))
    assert load_checkpoint(path)[0].config == config


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, foo=np.arange(3))
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("damage", ["truncate flat", "drop flat"])
def test_checkpoint_rejects_arrays_that_do_not_match_the_config(tmp_path, damage):
    params = init_params(MlpConfig(state_dim=3, hidden_dims=(8,), embed_bands=2), seed=0)
    path = tmp_path / "model.ckpt.npz"
    save_checkpoint(path, params)
    with np.load(path) as data:
        arrays = dict(data)
    if damage == "truncate flat":
        arrays["flat"] = arrays["flat"][:-1]
    else:
        del arrays["flat"]
    np.savez(path, **arrays)
    with pytest.raises(DataFormatError):
        load_checkpoint(path)
