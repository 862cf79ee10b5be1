"""Tests of the benchmark's own arithmetic, accounting and output format.

    python3 -m pytest splinebench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from pace import NOMINAL_S, ReferencePace
from spans import Span, Tracer, instrument, partition_error, self_times
from splineflow import evaluation
from splineflow.odeint import SolverConfig
from splineflow.systems import generate_lorenz
from splineflow.vector_field import MlpConfig, init_params, save_checkpoint

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def test_self_time_subtracts_children_at_every_depth():
    spans = [
        Span("cli.eval", 0.0, 10.0, -1),
        Span("evaluation.a", 1.0, 4.0, 0),
        Span("odeint.b", 2.0, 3.0, 1),
        Span("evaluation.c", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert partition_error(spans, range(4)) == 0.0


def test_self_time_counts_overlapping_children_once():
    spans = [Span("cli.x", 0.0, 10.0, -1), Span("a.b", 1.0, 5.0, 0), Span("a.c", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_nests_spans_and_ignores_them_when_disabled():
    tracer = Tracer()
    with tracer.span("cli.x"):
        pass
    assert len(tracer) == 0
    tracer.enabled = True
    with tracer.span("cli.x"):
        with tracer.span("a.b"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans()] == [("cli.x", -1), ("a.b", 0)]


@pytest.fixture(scope="module")
def tiny_flow():
    dataset = generate_lorenz(3, 21, seed=5)
    return init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0), dataset


@pytest.mark.parametrize("method", sorted(workloads.STAGES))
def test_nfe_at_budget_matches_the_sweep(tiny_flow, method):
    params, dataset = tiny_flow
    intervals = len(dataset.grids[0]) - 1
    # 50% of 20 intervals is 10: 2.5 RK4 steps and 5 Heun steps round half to even.
    for pct in (5, 25, 50, 62, 100, 150, 400):
        budget = max(1, int(round(intervals * pct / 100.0)))
        _, nfe = evaluation.final_time_error_at_budget(params, dataset, method, budget)
        assert nfe == workloads.nfe_at_budget(intervals, pct, method), pct


@pytest.mark.parametrize("t_star", [0.5, 1.0, 0.33])
def test_reverse_intervals_match_the_study(tiny_flow, t_star, monkeypatch):
    params, dataset = tiny_flow
    spent = []
    original = evaluation.rollout_reverse

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        spent.append(result.nfe)
        return result

    monkeypatch.setattr(evaluation, "rollout_reverse", spy)
    solver = SolverConfig(method="rk4", substeps_per_interval=2)
    evaluation.reverse_time_study(params, dataset, t_star, (0.0,), solver)
    intervals = len(dataset.grids[0]) - 1
    assert spent == [workloads.reverse_intervals(intervals, t_star) * 2 * 4]


def test_forced_divergence_counts_every_row_as_failed(tmp_path, monkeypatch):
    from splineflow.cli import main as cli_main

    monkeypatch.chdir(tmp_path)
    smoke = workloads.SMOKE["lorenz"]
    gen_train, gen_test = workloads._gen(smoke, seed=1)
    params = init_params(MlpConfig(state_dim=3), 0)
    # A constant field of 1e10 leaves the 1e8 norm bound in the first step.
    params.biases[-1][:] = 1e10
    save_checkpoint("huge.ckpt.npz", params, meta={"kind": "flow"})
    runner = run.Runner(cli_main, Tracer())
    with instrument(runner.tracer, full=False):
        runner.command(gen_test)
        runner.command(workloads._eval("eval-flow", smoke, "huge.ckpt.npz"))
    assert runner.failed_commands == 0
    attempted, failed = runner.tally()
    assert (attempted, failed) == (smoke.n_test + 2, smoke.n_test)


def test_each_command_is_scaled_by_the_reference_samples_around_it():
    class StubPace:
        samples = iter([0.5 * NOMINAL_S, 1.5 * NOMINAL_S, 3.0 * NOMINAL_S])
        scale = staticmethod(ReferencePace.scale)

        def sample(self):
            return next(self.samples)

    runner = run.Runner(lambda argv: 0, Tracer(), StubPace())
    seq = runner.sequence([workloads.Command("a", ("a",)), workloads.Command("b", ("b",))])
    walls, scaled = seq["walls"], seq["scaled_walls"]
    assert scaled["a"] == pytest.approx(walls["a"] / 1.0)  # mean of 0.5 and 1.5 nominal
    assert scaled["b"] == pytest.approx(walls["b"] / 2.25)  # mean of 1.5 and 3.0 nominal
    assert seq["scaled"] == pytest.approx(scaled["a"] + scaled["b"])


def test_a_failing_command_is_counted(tmp_path, monkeypatch):
    from splineflow.cli import main as cli_main

    monkeypatch.chdir(tmp_path)
    runner = run.Runner(cli_main, Tracer())
    runner.command(workloads.Command("eval", ("eval", "--dataset", "missing.sftraj", "--checkpoint", "x")))
    assert runner.tally() == (1, 1)
    assert runner.problems == ["eval exited 4"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_prints_every_declared_metric(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        metrics = result["metrics"]
        assert metrics["odeint.nfe"]["value"] == metrics["odeint.nfe_expected"]["value"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH.name, "run.py"), "--workload", "lorenz-studies",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
    assert not (tmp_path / ".splinebench-work").exists()
