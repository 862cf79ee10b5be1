import math

import numpy as np
import pytest

from splineflow import DataFormatError, cli, datafile
from splineflow.vector_field import MlpConfig, init_params, load_checkpoint, save_checkpoint


@pytest.fixture
def tiny_lorenz(tmp_path):
    path = tmp_path / "tiny.sftraj"
    code = cli.main([
        "gen-data", "--system", "lorenz", "--n-train", "4", "--n-val", "2",
        "--n-test", "0", "--n-times", "11", "--out", str(path),
    ])
    assert code == 0
    return path


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
    assert meta["grid_step"] == 0.1
    # the one-step model has no spline path and no noise schedule
    assert meta["train"].keys().isdisjoint({"spline_kind", "gamma0", "noise_m"})
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
    # a checkpoint without the recorded step loads and runs as before
    legacy = tmp_path / "legacy.ckpt.npz"
    save_checkpoint(legacy, params, meta={k: v for k, v in meta.items() if k != "grid_step"})
    assert run(legacy, fine) == ([0, 0], True)


def test_flow_studies_reject_a_one_step_checkpoint(tiny_lorenz, tmp_path):
    # a network without a time input is a next-state map, not a velocity
    # field to integrate, even in a checkpoint saved without meta
    ar = tmp_path / "ar.ckpt.npz"
    save_checkpoint(ar, init_params(MlpConfig(3, (8,), use_time_embedding=False), 0))
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
    out = tmp_path / "lorenz.sftraj"
    base = ["gen-data", "--n-train", "1", "--n-val", "0", "--n-test", "0", "--n-times", "51"]
    assert cli.main(base + ["--out", str(out)]) == 0
    assert datafile.read_dataset(out)[1]["generator"]["substeps"] == 10
    assert cli.main(base + ["--gen-substeps", "3", "--out", str(out)]) == 0
    assert datafile.read_dataset(out)[1]["generator"]["substeps"] == 3


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
    else:
        path = tmp_path / "array.npy"
        np.save(path, np.zeros(3))
    return path


@pytest.mark.parametrize("kind", ["empty", "truncated", "dataset", "npy"])
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
    [("eval", "eval-stride", "abc"), ("convergence", "factors", "1,x"), ("train", "lr", "fast")],
)
def test_malformed_option_values_exit_2(tiny_lorenz, tmp_path, capsys, command, option, value):
    base = [command, "--dataset", str(tiny_lorenz), "--out-dir", str(tmp_path)]
    assert cli.main(base + [f"--{option}", value]) == 2
    assert f"argument --{option}: invalid" in capsys.readouterr().err


def test_unknown_flags_exit_2_instead_of_raising(capsys):
    assert cli.main(["eval", "--config", "x"]) == 2
    assert cli.main(["train", "--beta1", "0.5"]) == 2
    assert "--beta1" in capsys.readouterr().err
