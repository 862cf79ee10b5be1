"""The benchmark's span sites must name attributes that exist.

splinebench wraps public functions at the module attributes listed in
its SPAN_SITES and ROLLOUT_SITES, and a traced run fails on a name that
is gone. Checking them here makes a rename fail the unit tests, not only
the benchmark's slower smoke runs. The rollout sites must also be the
path every evaluation study takes to its rollout, and each rollout pass
must end in one `build_report`, the span site of report building.
"""

import importlib.util
import sys
import threading
from pathlib import Path

from splineflow import (
    MlpConfig, SolverConfig, cli, evaluation, generate_lorenz, init_params, workers,
)

from recording import forward_sweep_rows, generation_rollout_rows

SPANS_PY = Path(__file__).resolve().parents[1] / "splinebench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("splinebench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_span_site_resolves():
    spans = _load_spans()
    sites = spans.SPAN_SITES + spans.ROLLOUT_SITES
    assert sites
    missing = [
        (path, attr) for path, attr, _ in sites if attr not in vars(spans._resolve(path))
    ]
    assert not missing


def _spy(monkeypatch, owner, attr, calls, rows_arg):
    original = vars(owner)[attr]

    def spy(*args, **kwargs):
        calls.append((attr, len(args[rows_arg])))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, spy)


def _spy_on_study_sites(monkeypatch, spans):
    """Record (site, rows) of every call the rollout sites and `build_report` see.

    The benchmark counts rollout rows from a rollout's args[1]; a report's
    rows are its per-row errors, args[0].
    """
    calls = []
    for path, attr, _ in spans.ROLLOUT_SITES:
        _spy(monkeypatch, spans._resolve(path), attr, calls, 1)
    _spy(monkeypatch, evaluation, "build_report", calls, 0)
    return calls


def _studies():
    """(data, [(study, the rollout site of each of its passes)])."""
    data = generate_lorenz(3, 21, seed=5)
    flow = init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0)
    one_step = init_params(MlpConfig(state_dim=3, hidden_dims=(8,), grid_step=0.05), 0)
    solver = SolverConfig("rk4", 1)
    # The benchmark's reverse NFE count assumes one rollout_reverse pass per noise level.
    return data, [
        (lambda: evaluation.evaluate_flow_model(flow, data, solver), ["rollout"]),
        (lambda: evaluation.evaluate_one_step_model(one_step, data), ["ar_rollout"]),
        (lambda: evaluation.final_time_error_at_budget(flow, data, "rk4", 8), ["rollout"]),
        (lambda: evaluation.reverse_time_study(flow, data, 0.5, (0.0,), solver),
         ["rollout_reverse"]),
        (lambda: evaluation.reverse_time_study(flow, data, 0.5, (0.0, 0.1), solver),
         ["rollout_reverse"] * 2),
    ]


def test_every_study_reaches_its_rollout_through_the_rollout_sites(monkeypatch):
    # The benchmark counts rollout rows, NFE and diverged rows only in the
    # wrappers it installs at ROLLOUT_SITES; a study that bound a rollout
    # function at import time would bypass them and read zero. Every pass
    # is then scored by one report of all its rows.
    calls = _spy_on_study_sites(monkeypatch, _load_spans())
    data, studies = _studies()
    for study, sites in studies:
        calls.clear()
        study()
        assert calls == [
            call for site in sites for call in [(site, data.n_traj), ("build_report", data.n_traj)]
        ]


def test_spans_nest_around_a_split_forward_pass(monkeypatch):
    # a batch of 320 rows splits its forward pass across two threads; the
    # workers run no span site, so every span opens and closes on the
    # calling thread and nests in the rollout that called it
    spans = _load_spans()
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    data = generate_lorenz(320, 6, seed=5)
    flow = init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0)
    tracer = spans.Tracer()
    tracer.enabled = True
    sweeps = forward_sweep_rows(monkeypatch)
    with spans.instrument(tracer, full=True):
        evaluation.evaluate_flow_model(flow, data, SolverConfig("rk4", 1))
    assert sweeps == [160] * 2 * 5 * 4
    recorded = tracer.spans()
    forward = [s for s in recorded if s.name == "vector_field.forward_batch"]
    assert len(forward) == 5 * 4
    assert {recorded[s.parent].name for s in forward} == {"odeint.rollout"}
    assert spans.partition_error(recorded, range(len(recorded))) < 1e-9


def test_spans_nest_around_a_split_generation(monkeypatch, tmp_path):
    # 400 Burgers rows integrate in two parts; the workers run no span
    # site, so every span of gen-data opens and closes on the calling thread
    spans = _load_spans()
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    tracer = spans.Tracer()
    tracer.enabled = True
    threads = []

    def on_thread(edge):
        def record_thread(*name):
            threads.append(threading.get_ident())
            edge(*name)

        return record_thread

    monkeypatch.setattr(tracer, "begin", on_thread(tracer.begin))
    monkeypatch.setattr(tracer, "end", on_thread(tracer.end))
    calls = generation_rollout_rows(monkeypatch)
    with spans.instrument(tracer, full=True), tracer.span("cli.gen-data"):
        assert cli.main([
            "gen-data", "--system", "burgers1d", "--n-train", "400", "--n-val", "0",
            "--n-test", "0", "--n-times", "11", "--horizon", "0.1",
            "--out", str(tmp_path / "burgers.sftraj"),
        ]) == 0
    assert calls == [200, 200]
    recorded = tracer.spans()
    assert [s.name for s in recorded] == [
        "cli.gen-data", "systems.generate", "datafile.write_dataset",
    ]
    assert threads == [threading.get_ident()] * 2 * len(recorded)
    assert spans.partition_error(recorded, range(len(recorded))) < 1e-9


def test_spans_nest_around_a_training_that_draws_ahead(monkeypatch, tmp_path):
    # batches of 256 Burgers rows (25,600 entries) are drawn one step ahead
    # on the pool; the draw is no span site, so every span of train opens
    # and closes on the calling thread, and no sampler span is recorded
    spans = _load_spans()
    data = tmp_path / "burgers.sftraj"
    assert cli.main([
        "gen-data", "--system", "burgers1d", "--n-train", "4", "--n-val", "2",
        "--n-test", "0", "--n-times", "11", "--horizon", "0.1", "--out", str(data),
    ]) == 0
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(workers, "_pool", None)
    tracer = spans.Tracer()
    tracer.enabled = True
    threads = []

    def on_thread(edge):
        def record_thread(*name):
            threads.append(threading.get_ident())
            edge(*name)

        return record_thread

    monkeypatch.setattr(tracer, "begin", on_thread(tracer.begin))
    monkeypatch.setattr(tracer, "end", on_thread(tracer.end))
    with spans.instrument(tracer, full=True), tracer.span("cli.train"):
        assert cli.main([
            "train", "--dataset", str(data), "--steps", "4", "--eval-every", "2",
            "--batch-size", "256", "--hidden", "16", "--out-dir", str(tmp_path),
        ]) == 0
    assert workers._pool is not None  # the only pool work of this run is the draw
    workers._pool.shutdown()
    recorded = tracer.spans()
    names = [s.name for s in recorded]
    assert names.count("vector_field.loss_and_grad") == names.count("trainer.adam_step") == 4
    assert "interpolant.sample_batch" not in names
    assert threads == [threading.get_ident()] * 2 * len(recorded)
    assert spans.partition_error(recorded, range(len(recorded))) < 1e-9
