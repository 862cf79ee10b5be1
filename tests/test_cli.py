import math

import pytest

from splineflow import cli
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
