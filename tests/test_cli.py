import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from splineflow import (
    DataFormatError, TrajectorySet, cli, datafile, evaluation, generate_lorenz, trainer,
    uniform_grid, workers,
)
from splineflow.vector_field import (
    MlpConfig, VectorFieldParams, init_params, load_checkpoint, save_checkpoint,
)

from recording import generation_rollout_rows


@pytest.fixture
def tiny_lorenz(tmp_path):
    path = tmp_path / "tiny.sftraj"
    code = cli.main([
        "gen-data", "--system", "lorenz", "--n-train", "4", "--n-val", "2",
        "--n-test", "0", "--n-times", "11", "--out", str(path),
    ])
    assert code == 0
    return path


def _hash_of(command, options):
    """The fingerprint a run's recorded options give: a sha256 of the command and options."""
    canon = json.dumps({"command": command, "options": options}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def test_where_a_command_writes_changes_no_byte_it_writes(tiny_lorenz, tmp_path):
    # a file records the settings of the run that wrote it and their
    # fingerprint, but not the output flags that only say where it went
    again = tmp_path / "again"
    assert cli.main([
        "gen-data", "--system", "lorenz", "--n-train", "4", "--n-val", "2",
        "--n-test", "0", "--n-times", "11", "--out-dir", str(again),
    ]) == 0
    assert (again / "lorenz_seed0.sftraj").read_bytes() == tiny_lorenz.read_bytes()
    generator = datafile.read_dataset(tiny_lorenz)[1]["generator"]
    assert generator.keys() == {"fingerprint", "options", "substeps"}
    assert generator["fingerprint"] == _hash_of("gen-data", generator["options"])
    assert generator["options"].keys().isdisjoint(cli.OUTPUT_FLAGS)

    training = ["--dataset", str(tiny_lorenz), "--steps", "2", "--batch-size", "8",
                "--eval-every", "1", "--hidden", "8"]
    for command, tag in (("train", "lorenz_quintic_seed0"), ("train-ar", "lorenz_ar_seed0")):
        ckpt, history = tmp_path / command / "run.ckpt.npz", tmp_path / f"{command}.csv"
        assert cli.main([command, *training, "--checkpoint-out", str(ckpt),
                         "--history-out", str(history)]) == 0
        assert cli.main([command, *training, "--out-dir", str(again)]) == 0
        assert (again / f"{tag}.ckpt.npz").read_bytes() == ckpt.read_bytes(), command
        assert (again / f"{tag}_history.csv").read_bytes() == history.read_bytes(), command
        meta = load_checkpoint(ckpt)[1]
        assert meta.keys() == {
            "fingerprint", "options", "dataset_fingerprint", "status", "best_step",
            "best_val_error",
        }
        assert meta["fingerprint"] == _hash_of(command, meta["options"])
        assert meta["options"].keys().isdisjoint(cli.OUTPUT_FLAGS)
        assert meta["dataset_fingerprint"] == generator["fingerprint"]


def test_exploding_training_exits_3_with_checkpoint_from_last_good_step(tiny_lorenz, tmp_path):
    ckpt = tmp_path / "run.ckpt.npz"
    code = cli.main([
        "train", "--dataset", str(tiny_lorenz), "--steps", "50", "--batch-size", "16",
        "--lr", "1e18", "--eval-every", "10", "--hidden", "8", "--embed-bands", "2",
        "--out-dir", str(tmp_path), "--checkpoint-out", str(ckpt),
        "--history-out", str(tmp_path / "history.csv"),
    ])
    assert code == 3
    _, meta = load_checkpoint(ckpt)
    # the loss explodes at step 2; the initial parameters are the last good ones
    assert meta["status"].startswith("aborted: training diverged at step 2:")
    assert meta["best_step"] == 0
    assert math.isnan(meta["best_val_error"])


@pytest.mark.parametrize("command", ["train", "train-ar"])
def test_training_with_both_outputs_named_creates_no_default_directory(
    tiny_lorenz, tmp_path, monkeypatch, command
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    ckpt, history = tmp_path / "run.ckpt.npz", tmp_path / "history.csv"
    code = cli.main([
        command, "--dataset", str(tiny_lorenz), "--steps", "2", "--batch-size", "8",
        "--eval-every", "1", "--hidden", "8", "--checkpoint-out", str(ckpt),
        "--history-out", str(history),
    ])
    assert code == 0
    assert ckpt.exists() and history.exists()
    assert not (tmp_path / "root").exists() and not (tmp_path / "outputs").exists()


@pytest.mark.parametrize("command", ["train", "train-ar"])
def test_training_stdout_ends_with_its_wall_and_cpu_time(tiny_lorenz, tmp_path, capsys, command):
    # the cost goes to stdout only: the history and the checkpoint carry no timing
    ckpt, history = tmp_path / "run.ckpt.npz", tmp_path / "history.csv"
    capsys.readouterr()
    assert cli.main([
        command, "--dataset", str(tiny_lorenz), "--steps", "2", "--batch-size", "8",
        "--eval-every", "1", "--hidden", "8", "--checkpoint-out", str(ckpt),
        "--history-out", str(history),
    ]) == 0
    out = capsys.readouterr().out
    assert re.search(r" fingerprint=[0-9a-f]+ train_s=\d+\.\d{3} cpu_s=\d+\.\d{3}\n$", out), out
    for field in ("train_s", "cpu_s"):
        assert field not in history.read_text()
        assert field not in json.dumps(load_checkpoint(ckpt)[1])


def _traced_when_training_starts(tmp_path, monkeypatch, n_test):
    """Bytes traced when `train --keep-rate 0.25` calls the trainer on a 200 x 201 Lorenz file."""
    path = tmp_path / "lorenz.sftraj"
    code = cli.main([
        "gen-data", "--system", "lorenz", "--n-train", "200", "--n-val", "2",
        "--n-test", str(n_test), "--n-times", "201", "--out", str(path),
    ])
    assert code == 0
    real, traced = cli.train_flow_matching, []

    def spy(*args, **kwargs):
        traced.append(tracemalloc.get_traced_memory()[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "train_flow_matching", spy)
    tracemalloc.start()
    try:
        code = cli.main([
            "train", "--dataset", str(path), "--keep-rate", "0.25", "--spline", "linear",
            "--steps", "1", "--batch-size", "8", "--hidden", "8", "--out-dir", str(tmp_path),
        ])
    finally:
        tracemalloc.stop()
    assert code == 0
    return traced[0]


def test_subsampled_training_holds_no_copy_of_the_full_split(tmp_path, monkeypatch):
    # the subsample (about a quarter of the rows) may be alive, the full
    # train split's times and states must not be
    assert _traced_when_training_starts(tmp_path, monkeypatch, n_test=0) < 200 * 201 * 4 * 8


def test_training_holds_no_test_split(tmp_path, monkeypatch):
    # training reads the file's train and val splits only; a 200-row test
    # split (1,286,400 payload bytes) must be freed before the first step
    assert _traced_when_training_starts(tmp_path, monkeypatch, n_test=200) < 200 * 201 * 4 * 8


def test_aborted_training_records_its_kept_validation_error(
    tiny_lorenz, tmp_path, monkeypatch
):
    # validations at steps 1 and 2 keep parameters; the loss explodes at step 3
    real = trainer.loss_and_grad
    calls = []

    def exploding(params, batch):
        calls.append(None)
        loss, grads = real(params, batch)
        return (loss * 1e6 if len(calls) == 3 else loss), grads

    monkeypatch.setattr(trainer, "loss_and_grad", exploding)
    ckpt, history = tmp_path / "run.ckpt.npz", tmp_path / "history.csv"
    code = cli.main([
        "train", "--dataset", str(tiny_lorenz), "--steps", "10", "--batch-size", "16",
        "--eval-every", "1", "--hidden", "8", "--embed-bands", "2", "--out-dir", str(tmp_path),
        "--checkpoint-out", str(ckpt), "--history-out", str(history),
    ])
    assert code == 3
    _, meta = load_checkpoint(ckpt)
    assert meta["status"].startswith("aborted: training diverged at step 3:")
    validated = {int(r["step"]): float(r["val_rel_l2"]) for r in _csv_rows(history)}
    assert list(validated) == [1, 2]
    assert meta["best_step"] in validated
    assert meta["best_val_error"] == validated[meta["best_step"]] == min(validated.values())


def _data_cells(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [cell for line in lines[1:] for cell in line.split(",")]


def test_eval_csv_cells_parse_as_numbers(tiny_lorenz, tmp_path):
    ckpt = tmp_path / "run.ckpt.npz"
    code = cli.main([
        "train", "--dataset", str(tiny_lorenz), "--steps", "20", "--batch-size", "16",
        "--eval-every", "10", "--hidden", "8", "--embed-bands", "2",
        "--out-dir", str(tmp_path), "--checkpoint-out", str(ckpt),
    ])
    assert code == 0
    report = tmp_path / "eval.csv"
    code = cli.main([
        "eval", "--checkpoint", str(ckpt), "--dataset", str(tiny_lorenz), "--split", "val",
        "--out", str(report),
    ])
    assert code == 0
    for path in (report, report.with_suffix(".pertime.csv")):
        cells = _data_cells(path)
        assert cells
        for cell in cells:
            float(cell)  # raises on reprs such as np.float64(0.5)
    header = dict(line[2:].split("=", 1) for line in report.read_text().splitlines()
                  if line.startswith("# "))
    rows = [float(r["relative_l2"]) for r in _csv_rows(report)]
    assert float(header["median_rel_l2"]) == float(np.median(rows))


def _csv_rows(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="module")
def every_output(tmp_path_factory):
    """Run every command once, each naming its outputs in a directory not made yet.

    Returns {command: (exit code, [the files it names])}.
    """
    new = tmp_path_factory.mktemp("every") / "new"
    data = new / "gen-data" / "tiny.sftraj"
    flow, ar = new / "train" / "run.ckpt.npz", new / "train-ar" / "run.ckpt.npz"
    study = ["--checkpoint", str(flow), "--dataset", str(data), "--split", "val"]

    def training(ckpt):
        history = ckpt.parent / "history.csv"
        argv = ["--dataset", str(data), "--steps", "2", "--batch-size", "8", "--eval-every", "1",
                "--hidden", "8", "--checkpoint-out", str(ckpt), "--history-out", str(history)]
        return argv, [ckpt, history]

    def csv_out(command, *extra):
        out = new / command / f"{command}.csv"
        written = [out, out.with_suffix(".pertime.csv")] if command == "eval" else [out]
        return [*extra, "--out", str(out)], written

    runs = {
        "gen-data": (["--n-train", "4", "--n-val", "2", "--n-test", "0", "--n-times", "11",
                      "--out", str(data)], [data]),
        "train": training(flow),
        "train-ar": training(ar),
        "eval": csv_out("eval", *study),
        "convergence": csv_out("convergence", "--dataset", str(data), "--factors", "1,2"),
        "nfe-sweep": csv_out("nfe-sweep", *study, "--ar-checkpoint", str(ar), "--budgets", "100"),
        "reverse": csv_out("reverse", *study, "--t-star", "0.5", "--noise-levels", "0,0.1"),
    }
    return {
        command: (cli.main([command, *argv]), written)
        for command, (argv, written) in runs.items()
    }


def test_every_command_makes_the_directory_of_each_output_it_is_named(every_output):
    # the output rule is the same for every file: a dataset or a checkpoint
    # named in a new directory once cost a whole run and exited 4
    for command, (code, written) in every_output.items():
        assert code == 0, command
        assert all(path.is_file() for path in written), command


# The float columns and comment values of the CSVs the commands write
_FLOAT_COLUMNS = {
    "train_loss", "val_rel_l2", "relative_l2", "mean_relative_error", "dt_seconds", "err_tau0",
    "order_tau0", "err_tau1", "order_tau1", "final_time_rel_l2", "noise_level",
    "backward_horizon",
}
_FLOAT_COMMENTS = {"mean_rel_l2", "median_rel_l2", "sd_rel_l2", "final_time_error", "t_star"}


def test_every_float_a_csv_holds_is_its_shortest_round_trip_text(every_output):
    # csv and f-strings write a Python float as its shortest round-trip
    # text; a rounded or wrapped number (1.234e-01, np.float64(0.5)) would show
    seen = set()
    for _, written in every_output.values():
        for path in (p for p in written if p.suffix == ".csv"):
            comments = dict(line[2:].split("=", 1) for line in path.read_text().splitlines()
                            if line.startswith("# "))
            for key in _FLOAT_COMMENTS & set(comments):
                assert repr(float(comments[key])) == comments[key], (path.name, key)
                seen.add(key)
            for row in _csv_rows(path):
                for column in _FLOAT_COLUMNS & set(row):
                    assert repr(float(row[column])) == row[column], (path.name, column)
                    seen.add(column)
    assert seen == _FLOAT_COLUMNS | _FLOAT_COMMENTS


def test_sweep_csv_reports_scheduled_nfe_and_reverse_csv_counts_diverged_rows(
    tiny_lorenz, tmp_path
):
    params = init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0)
    params.biases[-1][:] = 1e10  # every row leaves the 1e8 norm bound in its first step
    ckpt = tmp_path / "huge.ckpt.npz"
    save_checkpoint(ckpt, params, meta={"kind": "flow"})
    sweep, reverse = tmp_path / "sweep.csv", tmp_path / "reverse.csv"
    assert cli.main([
        "nfe-sweep", "--checkpoint", str(ckpt), "--dataset", str(tiny_lorenz), "--split", "val",
        "--methods", "rk4", "--budgets", "200", "--out", str(sweep),
    ]) == 0
    assert cli.main([
        "reverse", "--checkpoint", str(ckpt), "--dataset", str(tiny_lorenz), "--split", "val",
        "--t-star", "0.5", "--out", str(reverse),
    ]) == 0
    # 10 intervals at 200%: 20 NFE, spent although both rows died in the first step
    assert [r["nfe"] for r in _csv_rows(sweep)] == ["20"]
    rows = _csv_rows(reverse)
    assert rows and all(r["n_diverged"] == "2" for r in rows)


def test_sweep_csv_flags_rows_that_outgrow_their_truth(tmp_path):
    # du/dt = 11.5 relu(u) grows the row from 1 about 1e4-fold in two RK4
    # steps, far below the 1e8 freeze bound; the one-step map
    # F(u) = 2.5 relu(u) - 0.9 relu(-u) grows it 2.5^10-fold. The row
    # from -1 outgrows nothing under either model.
    data = TrajectorySet(
        grids=[uniform_grid(11)] * 2, values=np.repeat([[1.0], [-1.0]], 11, axis=0),
        system_tag="toy", raw_horizon=1.0,
    )
    path, flow, ar = tmp_path / "toy.sftraj", tmp_path / "flow.ckpt.npz", tmp_path / "ar.ckpt.npz"
    datafile.write_dataset(path, {"test": data})
    save_checkpoint(flow, VectorFieldParams(
        MlpConfig(1, (1,), embed_bands=1), np.array([1.0, 0.0, 0.0, 0.0, 11.5, 0.0])
    ))
    save_checkpoint(ar, VectorFieldParams(
        MlpConfig(1, (2,), grid_step=0.1), np.array([1.0, -1.0, 0.0, 0.0, 2.5, -0.9, 0.0]),
    ))
    out = tmp_path / "sweep.csv"
    assert cli.main([
        "nfe-sweep", "--checkpoint", str(flow), "--ar-checkpoint", str(ar), "--dataset",
        str(path), "--split", "test", "--methods", "rk4", "--budgets", "100,400", "--out", str(out),
    ]) == 0
    rows = _csv_rows(out)
    assert [(r["method"], r["nfe"], r["n_diverged"]) for r in rows] == [
        ("ar", "10", "1"), ("rk4", "8", "1"), ("rk4", "40", "1"),
    ]
    assert all(float(r["final_time_rel_l2"]) > 1e3 for r in rows)


def test_study_stdout_reports_diverged_rows_and_rollout_wall_and_cpu_time(
    tiny_lorenz, tmp_path, capsys
):
    params = init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0)
    params.biases[-1][:] = 1e10  # both validation rows diverge in their first step
    ckpt = tmp_path / "huge.ckpt.npz"
    save_checkpoint(ckpt, params)
    studies = {
        "eval": ([], ["n_diverged=2"]),
        "nfe-sweep": (["--methods", "rk4", "--budgets", "100,200"], ["n_diverged=2"] * 2),
        "reverse": (["--t-star", "0.5", "--noise-levels", "0,0.1"], ["n_diverged=2,2"]),
    }
    for command, (extra, diverged) in studies.items():
        assert cli.main([
            command, "--checkpoint", str(ckpt), "--dataset", str(tiny_lorenz), "--split", "val",
            "--out", str(tmp_path / f"{command}.csv"), *extra,
        ]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"n_diverged=[\d,]+", out) == diverged, command
        assert re.search(r"rollout_s=\d+\.\d{3} cpu_s=\d+\.\d{3} -> ", out), command
        assert "rollout_s" not in (tmp_path / f"{command}.csv").read_text()


def test_one_step_checkpoint_runs_only_on_its_training_step(tiny_lorenz, tmp_path):
    # trained on 11 points (step 0.1); a 21-point file has step 0.05
    fine = tmp_path / "fine.sftraj"
    assert cli.main([
        "gen-data", "--n-train", "0", "--n-val", "2", "--n-test", "0", "--n-times", "21",
        "--out", str(fine),
    ]) == 0
    ar = tmp_path / "ar.ckpt.npz"
    assert cli.main([
        "train-ar", "--dataset", str(tiny_lorenz), "--steps", "4", "--batch-size", "8",
        "--eval-every", "2", "--hidden", "8", "--out-dir", str(tmp_path),
        "--checkpoint-out", str(ar),
    ]) == 0
    params, meta = load_checkpoint(ar)
    assert params.config.grid_step == 0.1
    # the one-step model has no spline path and no noise schedule
    assert meta["options"].keys().isdisjoint({"spline", "gamma0", "noise_m", "keep_rate"})
    flow = tmp_path / "flow.ckpt.npz"
    save_checkpoint(flow, init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0),
                    meta={"kind": "flow"})

    def run(checkpoint, dataset):
        out = tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        codes = [
            cli.main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                      "--split", "val", "--out", str(out)]),
            cli.main(["nfe-sweep", "--checkpoint", str(flow), "--ar-checkpoint", str(checkpoint),
                      "--dataset", str(dataset), "--split", "val", "--methods", "rk4",
                      "--budgets", "100", "--out", str(out)]),
        ]
        return codes, out.exists()

    assert run(ar, tiny_lorenz) == ([0, 0], True)
    assert run(ar, fine) == ([2, 2], False)


def test_flow_studies_reject_a_one_step_checkpoint(tiny_lorenz, tmp_path):
    # a network with a grid step is a next-state map, not a velocity field
    # to integrate, even in a checkpoint whose meta holds nothing
    ar = tmp_path / "ar.ckpt.npz"
    save_checkpoint(ar, init_params(MlpConfig(3, (8,), grid_step=0.1), 0))
    report = tmp_path / "eval.csv"
    assert cli.main([
        "eval", "--checkpoint", str(ar), "--dataset", str(tiny_lorenz), "--split", "val",
        "--out", str(report),
    ]) == 0
    assert "# nfe=10" in report.read_text().splitlines()  # one step per interval, not RK4
    for command, extra in (("nfe-sweep", ["--methods", "rk4", "--budgets", "100"]),
                           ("reverse", ["--t-star", "0.5"])):
        out = tmp_path / f"{command}.csv"
        code = cli.main([
            command, "--checkpoint", str(ar), "--dataset", str(tiny_lorenz), "--split", "val",
            "--out", str(out), *extra,
        ])
        assert code == 2
        assert not out.exists()


def test_the_sweeps_baseline_row_rejects_a_flow_checkpoint(tiny_lorenz, tmp_path):
    flow = tmp_path / "flow.ckpt.npz"
    save_checkpoint(flow, init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0))
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "nfe-sweep", "--checkpoint", str(flow), "--ar-checkpoint", str(flow), "--dataset",
        str(tiny_lorenz), "--split", "val", "--methods", "rk4", "--budgets", "100",
        "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()


def _spy_on_rollouts(monkeypatch):
    """A list that gets one entry per rollout any study starts; the rollouts do not run."""
    rollouts = []
    for name in ("rollout", "ar_rollout", "rollout_reverse"):
        monkeypatch.setattr(evaluation, name, lambda *args, **kw: rollouts.append(1))
    return rollouts


def test_a_sweep_refuses_a_one_step_checkpoint_before_its_baseline_rollout(
    tiny_lorenz, tmp_path, monkeypatch
):
    # both checkpoints are checked before the baseline row, the CSV's first, is rolled out
    ar = tmp_path / "ar.ckpt.npz"
    save_checkpoint(ar, init_params(MlpConfig(3, (8,), grid_step=0.1), 0))
    rollouts = _spy_on_rollouts(monkeypatch)
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "nfe-sweep", "--checkpoint", str(ar), "--ar-checkpoint", str(ar), "--dataset",
        str(tiny_lorenz), "--split", "val", "--methods", "rk4", "--budgets", "100",
        "--out", str(out),
    ])
    assert code == 2
    assert rollouts == []
    assert not out.exists()


@pytest.mark.parametrize("case", ["unknown method", "flow baseline", "baseline of another step"])
def test_a_sweep_checks_every_method_and_checkpoint_before_any_rollout(
    tiny_lorenz, tmp_path, monkeypatch, case
):
    flow, ar = tmp_path / "flow.ckpt.npz", tmp_path / "ar.ckpt.npz"
    save_checkpoint(flow, init_params(MlpConfig(3, (4,)), 0))
    # tiny_lorenz's grid steps 0.1; this map was trained on a 41-point grid
    save_checkpoint(ar, init_params(MlpConfig(3, (4,), grid_step=0.025), 0))
    extra = {
        "unknown method": ["--methods", "rk4,bogus"],
        "flow baseline": ["--ar-checkpoint", str(flow)],
        "baseline of another step": ["--ar-checkpoint", str(ar)],
    }[case]
    rollouts = _spy_on_rollouts(monkeypatch)
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "nfe-sweep", "--checkpoint", str(flow), "--dataset", str(tiny_lorenz), "--split", "val",
        "--budgets", "50,100", "--out", str(out), *extra,
    ])
    assert code == 2
    assert rollouts == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "nfe-sweep", "reverse"])
def test_studies_refuse_a_checkpoint_of_another_state_width(
    tiny_lorenz, tmp_path, monkeypatch, command
):
    wide = tmp_path / "wide.ckpt.npz"
    save_checkpoint(wide, init_params(MlpConfig(4, (4,)), 0))
    rollouts = _spy_on_rollouts(monkeypatch)
    out = tmp_path / f"{command}.csv"
    code = cli.main([
        command, "--checkpoint", str(wide), "--dataset", str(tiny_lorenz), "--split", "val",
        "--out", str(out),
    ])
    assert code == 2
    assert rollouts == []
    assert not out.exists()


def test_gen_data_caps_its_integration_steps(tmp_path, capsys):
    # nu = 1e6 needs 2e8 substeps on each of 100 intervals: 2e10 RK4 steps
    out = tmp_path / "burgers.sftraj"
    code = cli.main([
        "gen-data", "--system", "burgers1d", "--nu", "1e6", "--n-train", "1", "--n-val", "0",
        "--n-test", "0", "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "20000000000 RK4 steps" in err and "cap of 1000000" in err
    assert "needs >= 200000000 substeps" in err


def test_gen_data_rejects_zero_substeps_for_both_systems(tmp_path):
    for system in ("lorenz", "burgers1d"):
        out = tmp_path / f"{system}.sftraj"
        code = cli.main([
            "gen-data", "--system", system, "--n-train", "1", "--n-val", "0", "--n-test", "0",
            "--n-times", "5", "--gen-substeps", "0", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()


def test_gen_data_rejects_negative_split_counts(tmp_path):
    out = tmp_path / "neg.sftraj"
    code = cli.main([
        "gen-data", "--n-train", "-3", "--n-val", "2", "--n-test", "0", "--n-times", "11",
        "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()


def test_gen_data_records_the_substeps_it_used(tmp_path):
    # burgers at nu 0.01 on 100 points: 0.02 s intervals / (0.5 dx^2 / nu) = 4
    for system, default in (("lorenz", 10), ("burgers1d", 4)):
        out = tmp_path / f"{system}.sftraj"
        base = ["gen-data", "--system", system, "--n-train", "1", "--n-val", "0",
                "--n-test", "0", "--n-times", "51"]
        assert cli.main(base + ["--out", str(out)]) == 0
        assert datafile.read_dataset(out)[1]["generator"]["substeps"] == default
        assert cli.main(base + ["--gen-substeps", "3", "--out", str(out)]) == 0
        assert datafile.read_dataset(out)[1]["generator"]["substeps"] == 3


@pytest.mark.parametrize("system, defaults", [
    ("lorenz", ["--n-val", "100", "--horizon", "5.0", "--gen-substeps", "10"]),
    ("burgers1d", ["--n-val", "20", "--horizon", "1.0"]),
])
def test_typing_a_default_out_changes_no_byte_of_a_dataset(tmp_path, system, defaults):
    base = ["gen-data", "--system", system, "--n-train", "1", "--n-test", "0", "--n-times", "11"]
    unset, typed = tmp_path / "unset.sftraj", tmp_path / "typed.sftraj"
    assert cli.main(base + ["--out", str(unset)]) == 0
    assert cli.main(base + defaults + ["--out", str(typed)]) == 0
    generators = [datafile.read_dataset(path)[1]["generator"] for path in (unset, typed)]
    assert generators[0]["fingerprint"] == generators[1]["fingerprint"]
    assert generators[0]["options"] == generators[1]["options"]
    assert unset.read_bytes() == typed.read_bytes()


@pytest.mark.parametrize(
    "system, sizes",
    [
        ("lorenz", (5, 3, 4)), ("lorenz", (5, 0, 4)),
        ("burgers1d", (3, 2, 2)), ("burgers1d", (3, 0, 2)),
    ],
)
def test_gen_data_is_one_batch_byte_equal_to_one_call_per_split(
    tmp_path, monkeypatch, system, sizes
):
    generator = {"lorenz": "generate_lorenz", "burgers1d": "generate_burgers"}[system]
    real = getattr(cli, generator)
    tables = []

    def spy(*args, **kwargs):
        tables.append(kwargs["splits"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, generator, spy)
    counts = dict(zip(("train", "val", "test"), sizes))
    out = tmp_path / "batch.sftraj"
    code = cli.main([
        "gen-data", "--system", system, "--n-times", "21", "--seed", "2", "--out", str(out),
        *(arg for name, n in counts.items() for arg in (f"--n-{name}", str(n))),
    ])
    assert code == 0
    # one call for every split; split seeds 4 * seed + salt + 1, salts 0, 1, 2
    table = {name: (n, 9 + salt) for salt, (name, n) in enumerate(counts.items()) if n}
    assert tables == [table]

    splits = {name: real(n, 21, seed=split_seed) for name, (n, split_seed) in table.items()}
    reference = tmp_path / "reference.sftraj"
    meta = datafile.read_dataset(out)[1]["generator"]
    datafile.write_dataset(reference, splits, generator_meta=meta)
    assert reference.read_bytes() == out.read_bytes()


def test_diverged_gen_data_counts_rows_per_split_and_writes_nothing(tmp_path, capsys):
    # two RK4 substeps per 0.25 s interval blow up some draws of both splits
    out = tmp_path / "lorenz.sftraj"
    code = cli.main([
        "gen-data", "--n-train", "200", "--n-val", "20", "--n-test", "0", "--n-times", "21",
        "--gen-substeps", "2", "--out", str(out),
    ])
    assert code == 3
    assert not out.exists()
    found = re.search(
        r"(\d+) of 220 rows \(train (\d+), val (\d+)\) diverged with 2 substeps per interval",
        capsys.readouterr().err,
    )
    total, train, val = map(int, found.groups())
    assert train > 0 and val > 0 and total == train + val


def _gen_burgers(out, train, val, test, n_times, horizon, *extra):
    return cli.main([
        "gen-data", "--system", "burgers1d", "--n-train", str(train), "--n-val", str(val),
        "--n-test", str(test), "--n-times", str(n_times), "--horizon", str(horizon),
        "--out", str(out), *extra,
    ])


def test_split_diverged_gen_data_exits_3_as_one_part_does(tmp_path, capsys, monkeypatch):
    # one RK4 substep per 0.007875 s interval: some rows of each split blow up
    out = tmp_path / "burgers.sftraj"
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        assert _gen_burgers(out, 300, 40, 60, 41, 0.315, "--gen-substeps", "1") == 3
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert re.search(r"\d+ of 400 rows \(train \d+, val \d+, test \d+\) diverged", errors[0])


def test_gen_data_stdout_reports_rollout_wall_and_cpu_time(tmp_path, capsys, monkeypatch):
    # 400 Burgers rows integrate in two parts on two CPUs, into the same
    # file; the cost goes to stdout only, never into the dataset
    path, files = tmp_path / "burgers.sftraj", []
    calls = generation_rollout_rows(monkeypatch)
    for cpus, parts in ((1, [400]), (2, [200, 200])):
        monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        calls.clear()
        assert _gen_burgers(path, 300, 40, 60, 11, 0.1) == 0
        assert calls == parts
        out = capsys.readouterr().out
        assert re.search(r"\) rollout_s=\d+\.\d{3} cpu_s=\d+\.\d{3} fingerprint=", out), out
        files.append(path.read_bytes())
    assert files[0] == files[1]
    assert b"rollout_s" not in files[0]


_USELESS_GEN_DATA = [
    # --init-box 0 starts every row at the fixed point 0, which no eval can score
    (["--init-box", "-1"], "init_box"), (["--init-box", "nan"], "init_box"),
    (["--init-box", "0"], "init_box"), (["--init-box", "1e308"], "init_box"),
    (["--horizon", "0"], "horizon"), (["--horizon", "nan"], "horizon"),
    (["--horizon", "inf"], "horizon"),
    (["--system", "burgers1d", "--horizon", "0"], "horizon"),
    (["--system", "burgers1d", "--horizon", "nan"], "horizon"),
    (["--system", "burgers1d", "--horizon", "inf"], "horizon"),
    (["--system", "burgers1d", "--nu", "nan"], "viscosity nu"),
    (["--system", "burgers1d", "--nu", "inf"], "viscosity nu"),
    # finite, but no float counts its substeps per interval
    (["--system", "burgers1d", "--nu", "1e308"], "viscosity nu"),
]


@pytest.mark.parametrize(
    "extra, shown", _USELESS_GEN_DATA, ids=[" ".join(extra) for extra, _ in _USELESS_GEN_DATA]
)
def test_gen_data_values_that_crash_or_make_a_useless_dataset_exit_2(
    tmp_path, capsys, extra, shown
):
    out = tmp_path / "bad.sftraj"
    code = cli.main([
        "gen-data", "--n-train", "2", "--n-val", "0", "--n-test", "0", "--n-times", "11",
        *extra, "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert shown in err and f"got {float(extra[-1])!r}" in err


@pytest.mark.parametrize("level", ["-0.1", "nan", "inf", "1e300"])
def test_reverse_rejects_negative_or_non_finite_noise(tiny_lorenz, tmp_path, level):
    ckpt = tmp_path / "init.ckpt.npz"
    save_checkpoint(ckpt, init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0))
    out = tmp_path / "reverse.csv"
    code = cli.main([
        "reverse", "--checkpoint", str(ckpt), "--dataset", str(tiny_lorenz), "--split", "val",
        "--t-star", "0.5", f"--noise-levels=0,{level}", "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()


def _not_a_checkpoint(kind, tmp_path, dataset):
    path = tmp_path / f"bad.{kind}"
    if kind == "empty":
        path.write_bytes(b"")
    elif kind == "truncated":
        save_checkpoint(path, init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0))
        path.write_bytes(path.read_bytes()[:100])
    elif kind == "dataset":
        path.write_bytes(dataset.read_bytes())
    elif kind in ("no config", "version 1", "version 2"):
        params = init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0)
        save_checkpoint(path, params, meta={"kind": "flow"})
        with np.load(path) as data:
            header = json.loads(bytes(data["header_json"]).decode())
            arrays = dict(data)
        if kind == "no config":
            del header["mlp"]
        elif kind == "version 2":  # its config held the kind, its meta a one-step model's step
            del header["mlp"]["grid_step"]
            header.update(format_version=2)
            header["mlp"]["use_time_embedding"] = True
        else:  # format 1 stored the layers one array each
            header.update(format_version=1, n_layers=len(params.weights))
            del arrays["flat"]
            for i, (w, b) in enumerate(zip(params.weights, params.biases)):
                arrays[f"w{i}"], arrays[f"b{i}"] = w, b
        arrays["header_json"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    else:
        path = tmp_path / "array.npy"
        np.save(path, np.zeros(3))
    return path


@pytest.mark.parametrize(
    "kind", ["empty", "truncated", "dataset", "npy", "no config", "version 1", "version 2"]
)
def test_commands_reject_a_file_that_is_not_a_checkpoint(tiny_lorenz, tmp_path, kind):
    path = _not_a_checkpoint(kind, tmp_path, tiny_lorenz)
    with pytest.raises(DataFormatError):
        load_checkpoint(path)
    for command in ("eval", "nfe-sweep", "reverse"):
        code = cli.main([
            command, "--checkpoint", str(path), "--dataset", str(tiny_lorenz), "--split", "val",
            "--out", str(tmp_path / f"{command}.csv"),
        ])
        assert code == 4


def test_eval_flags_reach_the_solver_typed_and_defaulted(tiny_lorenz, tmp_path):
    ckpt = tmp_path / "init.ckpt.npz"
    save_checkpoint(ckpt, init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0))
    out = tmp_path / "eval.csv"
    base = ["eval", "--checkpoint", str(ckpt), "--dataset", str(tiny_lorenz), "--split", "val",
            "--out", str(out)]
    # defaults: rk4, one substep, every one of the 10 intervals
    assert cli.main(base) == 0
    assert "# nfe=40" in out.read_text().splitlines()
    # stride 5: 2 euler steps of 2 substeps each
    assert cli.main(base + ["--eval-stride", "5", "--substeps", "2", "--method", "euler"]) == 0
    assert "# nfe=4" in out.read_text().splitlines()


@pytest.mark.parametrize("grid_step", [None, 0.1])
def test_eval_refuses_solver_flags_for_either_kind_of_model(tiny_lorenz, tmp_path, grid_step):
    # a one-step map takes no solver, but flags it would ignore are still checked
    ckpt = tmp_path / "model.ckpt.npz"
    save_checkpoint(ckpt, init_params(MlpConfig(3, (8,), grid_step=grid_step), 0))
    out = tmp_path / "eval.csv"
    for flags in (["--method", "bogus"], ["--substeps", "0"]):
        code = cli.main([
            "eval", "--checkpoint", str(ckpt), "--dataset", str(tiny_lorenz), "--split", "val",
            "--out", str(out), *flags,
        ])
        assert code == 2
        assert not out.exists()


@pytest.mark.parametrize("factors", ["1,1", "1,3"])
def test_convergence_rejects_repeated_or_non_dividing_factors(tiny_lorenz, tmp_path, factors):
    # 11 knots: 10 segments, which 3 does not divide; a repeated factor
    # would report a 0/0 order
    out = tmp_path / "convergence.csv"
    code = cli.main([
        "convergence", "--dataset", str(tiny_lorenz), "--factors", factors, "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("eval", "eval-stride", "abc"), ("convergence", "factors", "1,x"), ("train", "lr", "fast"),
        # numpy's generators take no negative seed
        ("gen-data", "seed", "-1"), ("train", "seed", "-1"), ("train-ar", "seed", "-1"),
        ("reverse", "seed", "-1"),
        ("gen-data", "n-train", "-1"),
    ],
)
def test_malformed_option_values_exit_2(tiny_lorenz, tmp_path, capsys, command, option, value):
    base = [command, "--out-dir", str(tmp_path)]
    if command != "gen-data":
        base += ["--dataset", str(tiny_lorenz)]
    assert cli.main(base + [f"--{option}", value]) == 2
    assert f"argument --{option}: invalid" in capsys.readouterr().err


def test_unknown_flags_exit_2_instead_of_raising(capsys):
    assert cli.main(["eval", "--config", "x"]) == 2
    # argparse reports a missing required flag before an unknown one
    assert cli.main(["train", "--dataset", "x", "--beta1", "0.5"]) == 2
    assert "--beta1" in capsys.readouterr().err


_REQUIRED_FLAGS = {
    "train": ["dataset"], "train-ar": ["dataset"], "eval": ["checkpoint", "dataset"],
    "convergence": ["dataset"], "nfe-sweep": ["checkpoint", "dataset"],
    "reverse": ["checkpoint", "dataset"],
}


@pytest.mark.parametrize(
    "command, missing",
    [(command, flag) for command, flags in _REQUIRED_FLAGS.items() for flag in flags],
)
def test_each_command_without_a_required_flag_exits_2_naming_it(
    tmp_path, capsys, command, missing
):
    given = [arg for flag in _REQUIRED_FLAGS[command] if flag != missing
             for arg in (f"--{flag}", str(tmp_path / "absent"))]
    assert cli.main([command, *given, "--out-dir", str(tmp_path)]) == 2
    assert f"required: --{missing}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra",
    [
        ("nfe-sweep", ["--methods", "rk4", "--budgets", "0,-50"]),
        ("nfe-sweep", ["--methods", "rk4", "--budgets", ""]),
        ("nfe-sweep", ["--methods", "", "--budgets", "100"]),
        ("reverse", ["--t-star", "0"]),
        ("reverse", ["--t-star", "1.5"]),
        ("reverse", ["--t-star", "nan"]),
    ],
)
def test_studies_that_would_write_meaningless_rows_exit_2(tiny_lorenz, tmp_path, command, extra):
    # a budget below 1% of the AR's NFE, no budget or method at all, an
    # anchor at t = 0 that leaves no backward horizon (header-only CSVs),
    # or an anchor outside [0, 1] that the nearest grid time would stand in for
    ckpt = tmp_path / "init.ckpt.npz"
    save_checkpoint(ckpt, init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0))
    out = tmp_path / f"{command}.csv"
    code = cli.main([
        command, "--checkpoint", str(ckpt), "--dataset", str(tiny_lorenz), "--split", "val",
        "--out", str(out), *extra,
    ])
    assert code == 2
    assert not out.exists()


def _lorenz_file(tmp_path, ragged):
    """A test split on per-row subsamples (ragged) or on one subsample shared by all."""
    full = generate_lorenz(4, 21, 2.0, 5.0, seed=3)
    sub = full.subsampled(0.5, base_seed=0)
    if not ragged:
        keep = np.searchsorted(full.grids[0].times, sub.grids[0].times)
        sub = TrajectorySet(
            grids=[sub.grids[0]] * 4, values=full.stacked()[:, keep].reshape(-1, 3),
            system_tag="lorenz", raw_horizon=full.raw_horizon,
        )
    path = tmp_path / "data.sftraj"
    datafile.write_dataset(path, {"train": full, "test": sub})
    return path


@pytest.mark.parametrize("ragged, expected", [(True, 2), (False, 0)], ids=["ragged", "shared"])
def test_studies_need_one_grid_shared_by_the_split(tmp_path, ragged, expected):
    dataset = _lorenz_file(tmp_path, ragged)
    ckpt = tmp_path / "init.ckpt.npz"
    save_checkpoint(ckpt, init_params(MlpConfig(state_dim=3, hidden_dims=(8,)), 0))
    for command in ("eval", "nfe-sweep", "reverse"):
        out = tmp_path / f"{command}.csv"
        code = cli.main(
            [command, "--checkpoint", str(ckpt), "--dataset", str(dataset), "--out", str(out)]
        )
        assert code == expected
        assert out.exists() == (not ragged)


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("train", "lr", "nan"), ("train", "lr", "inf"), ("train-ar", "lr", "nan"),
        ("train", "gamma0", "nan"), ("train", "gamma0", "inf"),
        # the trainer builds its network before its first step
        ("train", "hidden", "0"), ("train", "embed-bands", "0"), ("train-ar", "hidden", "0"),
    ],
)
def test_non_finite_training_settings_exit_2_without_a_checkpoint(
    tiny_lorenz, tmp_path, command, flag, value
):
    ckpt = tmp_path / "run.ckpt.npz"
    code = cli.main([
        command, "--dataset", str(tiny_lorenz), "--steps", "5", "--batch-size", "8",
        "--hidden", "8", f"--{flag}", value, "--out-dir", str(tmp_path),
        "--checkpoint-out", str(ckpt),
    ])
    assert code == 2
    assert not ckpt.exists()
