"""The benchmark's span sites must name attributes that exist.

splinebench wraps public functions at the module attributes listed in
its SPAN_SITES and ROLLOUT_SITES, and a traced run fails on a name that
is gone. Checking them here makes a rename fail the unit tests, not only
the benchmark's slower smoke runs. The rollout sites must also be the
path every evaluation study takes to its rollout.
"""

import importlib.util
import sys
from pathlib import Path

from splineflow import MlpConfig, SolverConfig, evaluation, generate_lorenz, init_params

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


def _spy_on_rollout_sites(monkeypatch, spans):
    """Record (site, rows) of every call the rollout sites see, as the benchmark counts rows."""
    calls = []
    for path, attr, _ in spans.ROLLOUT_SITES:
        owner = spans._resolve(path)
        original = vars(owner)[attr]

        def spy(*args, _attr=attr, _original=original, **kwargs):
            calls.append((_attr, len(args[1])))  # the benchmark counts rows from args[1]
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    return calls


def _studies():
    """(data, [(study, the rollout site of each of its passes)])."""
    data = generate_lorenz(3, 21, seed=5)
    flow = init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0)
    one_step = init_params(MlpConfig(state_dim=3, hidden_dims=(8,), use_time_embedding=False), 0)
    solver = SolverConfig("rk4", 1)
    # The benchmark's reverse NFE count assumes one rollout_reverse pass per noise level.
    return data, [
        (lambda: evaluation.evaluate_flow_model(flow, data, solver), ["rollout"]),
        (lambda: evaluation.evaluate_one_step_model(one_step, data, 0.05), ["ar_rollout"]),
        (lambda: evaluation.final_time_error_at_budget(flow, data, "rk4", 8), ["rollout"]),
        (lambda: evaluation.reverse_time_study(flow, data, 0.5, (0.0,), solver),
         ["rollout_reverse"]),
        (lambda: evaluation.reverse_time_study(flow, data, 0.5, (0.0, 0.1), solver),
         ["rollout_reverse"] * 2),
    ]


def test_every_study_reaches_its_rollout_through_the_rollout_sites(monkeypatch):
    # The benchmark counts rollout rows, NFE and diverged rows only in the
    # wrappers it installs at ROLLOUT_SITES; a study that bound a rollout
    # function at import time would bypass them and read zero.
    calls = _spy_on_rollout_sites(monkeypatch, _load_spans())
    data, studies = _studies()
    for study, sites in studies:
        calls.clear()
        study()
        assert calls == [(site, data.n_traj) for site in sites]


def test_every_block_of_a_split_study_goes_through_the_rollout_sites(monkeypatch):
    # A set too large for one block rolls out in several calls; the
    # benchmark must see each of them, and their rows must add up to the set.
    calls = _spy_on_rollout_sites(monkeypatch, _load_spans())
    monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 1)  # one row per block
    data, studies = _studies()
    for study, sites in studies:
        calls.clear()
        study()
        assert calls == [(site, 1) for site in sites for _ in range(data.n_traj)]
