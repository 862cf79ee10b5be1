"""Experiment command line: data generation, training, evaluation, studies.

Subcommands: gen-data, train, train-ar, eval, convergence, nfe-sweep,
reverse. gen-data writes one binary dataset file (see `datafile`); every
other command reads one. Outputs land under --out-dir, which defaults to
the SPLINEFLOW_OUTPUT_ROOT environment variable or ./outputs.

All commands are deterministic for a fixed configuration: a sha256
fingerprint of the resolved settings is embedded in every CSV and
checkpoint for provenance.

Exit codes: 0 success, 2 invalid configuration, 3 numeric failure,
4 I/O or file-format failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import datafile
from .convergence import endpoint_velocity_study
from .errors import DataFormatError, InvalidArgumentError, NumericError, TrainingAbortedError
from .evaluation import (
    evaluate_flow_model,
    evaluate_one_step_model,
    final_time_error_at_budget,
    reverse_time_study,
)
from .odeint import SolverConfig
from .systems import BurgersConfig, generate_burgers, generate_lorenz
from .trainer import TrainConfig, _uniform_step_or_raise, train_flow_matching, train_one_step
from .vector_field import MlpConfig, load_checkpoint, save_checkpoint

OUTPUT_ROOT_ENV = "SPLINEFLOW_OUTPUT_ROOT"

# Desk-scale dataset defaults per system (n_train, n_val, n_test, n_times, horizon_s).
SYSTEM_DEFAULTS = {
    "lorenz": (1000, 100, 100, 201, 5.0),
    "burgers1d": (200, 20, 20, 101, 1.0),
}

_SPLIT_SALT = {"train": 0, "val": 1, "test": 2}


def _comma_ints(text: str) -> tuple:
    return tuple(int(x) for x in str(text).split(",") if x != "")

def _comma_floats(text: str) -> tuple:
    return tuple(float(x) for x in str(text).split(",") if x != "")

def _comma_strs(text: str) -> tuple:
    return tuple(x.strip() for x in str(text).split(",") if x.strip())


# Option tables: (name, type, default, help), one --flag each; the parsed
# values of a command's table are the options it fingerprints.
_COMMON = [
    ("out_dir", str, None, "output directory (default: $SPLINEFLOW_OUTPUT_ROOT or ./outputs)"),
]

_TRAIN_OPTS = [
    ("dataset", str, None, "dataset file from gen-data"),
    ("keep_rate", float, 1.0, "fraction of time points kept per trajectory"),
    ("steps", int, 20000, "optimizer steps"),
    ("batch_size", int, 256, "samples per step"),
    ("lr", float, 1e-3, "Adam learning rate"),
    ("eval_every", int, 2000, "validation rollout cadence in steps"),
    ("seed", int, 0, "training seed"),
    ("hidden", _comma_ints, (64, 128, 128, 64), "hidden layer widths"),
    ("embed_bands", int, 8, "sinusoidal time-embedding frequency count"),
    ("checkpoint_out", str, None, "checkpoint path (default under out dir)"),
    ("history_out", str, None, "history CSV path (default under out dir)"),
]

COMMANDS = {
    "gen-data": _COMMON + [
        ("system", str, "lorenz", "lorenz or burgers1d"),
        ("n_train", int, None, "training trajectories (default per system)"),
        ("n_val", int, None, "validation trajectories"),
        ("n_test", int, None, "test trajectories"),
        ("n_times", int, None, "time points per trajectory"),
        ("horizon", float, None, "physical horizon in seconds"),
        ("init_box", float, 5.0, "lorenz initial-condition box half-width"),
        ("nu", float, 0.01, "burgers viscosity"),
        ("nx", int, 100, "burgers spatial points"),
        ("gen_substeps", int, None, "integrator substeps per interval (default: lorenz 10, burgers by stability)"),
        ("seed", int, 0, "generation seed"),
        ("out", str, None, "dataset path (default under out dir)"),
    ],
    "train": _COMMON + _TRAIN_OPTS + [
        ("spline", str, "quintic", "spline kind: linear or quintic"),
        ("gamma0", float, 1e-5, "noise schedule amplitude"),
        ("noise_m", int, 3, "noise schedule smoothness exponent"),
    ],
    "train-ar": _COMMON + _TRAIN_OPTS,
    "eval": _COMMON + [
        ("checkpoint", str, None, "trained checkpoint"),
        ("dataset", str, None, "dataset file"),
        ("split", str, "test", "dataset split to evaluate"),
        ("method", str, "rk4", "solver: euler, heun, rk4"),
        ("substeps", int, 1, "solver substeps per grid interval"),
        ("eval_stride", int, 1, "evaluate every k-th grid time"),
        ("out", str, None, "report CSV path"),
    ],
    "convergence": _COMMON + [
        ("dataset", str, None, "lorenz dataset whose trajectories share one uniform grid"),
        ("split", str, "train", "split to analyze"),
        ("factors", _comma_ints, (1, 2, 4), "two or more distinct downsampling factors, each dividing the segment count"),
        ("out", str, None, "order table CSV path"),
    ],
    "nfe-sweep": _COMMON + [
        ("checkpoint", str, None, "trained flow checkpoint"),
        ("ar_checkpoint", str, "", "optional one-step checkpoint for the baseline row"),
        ("dataset", str, None, "dataset file"),
        ("split", str, "test", "split to evaluate"),
        ("budgets", _comma_ints, (50, 100, 200, 400), "NFE budgets as percent of AR"),
        ("methods", _comma_strs, ("rk4", "euler", "heun"), "solvers to sweep"),
        ("out", str, None, "sweep CSV path"),
    ],
    "reverse": _COMMON + [
        ("checkpoint", str, None, "trained flow checkpoint"),
        ("dataset", str, None, "dataset file"),
        ("split", str, "test", "split to evaluate"),
        ("t_star", float, 1.0, "anchor time in [0, 1]"),
        ("noise_levels", _comma_floats, (0.0,), "terminal-state noise scales"),
        ("method", str, "rk4", "solver for backward integration"),
        ("substeps", int, 4, "solver substeps per interval"),
        ("seed", int, 0, "noise seed"),
        ("out", str, None, "reverse study CSV path"),
    ],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splineflow",
        description="spline-based flow matching experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in COMMANDS.items():
        p = sub.add_parser(command)
        for name, typ, default, help_text in opts:
            p.add_argument("--" + name.replace("_", "-"), type=typ, default=default, help=help_text)
    return parser


def fingerprint(command: str, options: dict) -> str:
    canon = json.dumps({"command": command, "options": options}, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _out_dir(options: dict) -> Path:
    root = options.get("out_dir") or os.environ.get(OUTPUT_ROOT_ENV) or "outputs"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path, comments: dict, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in comments.items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _require(options: dict, *names: str) -> None:
    for name in names:
        if not options.get(name):
            raise InvalidArgumentError(f"--{name.replace('_', '-')} is required")


def _load_split(path: str, split: str):
    splits, header = datafile.read_dataset(path)
    if split not in splits:
        raise InvalidArgumentError(
            f"dataset {path} has splits {sorted(splits)}, not {split!r}"
        )
    return splits[split], header


def _load_model(path: str, dataset, flow: bool | None = None):
    """Load a checkpoint to run on `dataset`; `flow` demands one kind of model.

    The network decides the kind: one with a time input is a velocity field
    (train), one without maps a state to the state one training step later
    (train-ar). A one-step model runs only on uniform grids of its recorded
    training step; one saved before the step was recorded (no "grid_step"
    in its meta) runs unchecked.
    """
    params, meta = load_checkpoint(path)
    if params.config.state_dim != dataset.state_dim:
        raise InvalidArgumentError(
            f"checkpoint state_dim {params.config.state_dim} does not match "
            f"dataset state_dim {dataset.state_dim}"
        )
    is_flow = params.config.use_time_embedding
    if flow is not None and flow != is_flow:
        kind = {True: "a flow (train)", False: "a one-step (train-ar)"}
        raise InvalidArgumentError(f"{path} holds {kind[is_flow]} model, not {kind[flow]} model")
    if not is_flow and "grid_step" in meta:
        _uniform_step_or_raise(dataset, expected=meta["grid_step"])
    return params


def cmd_gen_data(options: dict) -> int:
    system = options["system"]
    if system not in SYSTEM_DEFAULTS:
        raise InvalidArgumentError(f"unknown system {system!r}")
    d_train, d_val, d_test, d_times, d_horizon = SYSTEM_DEFAULTS[system]
    n_train = options["n_train"] if options["n_train"] is not None else d_train
    n_val = options["n_val"] if options["n_val"] is not None else d_val
    n_test = options["n_test"] if options["n_test"] is not None else d_test
    n_times = options["n_times"] if options["n_times"] is not None else d_times
    horizon = options["horizon"] if options["horizon"] is not None else d_horizon
    seed = options["seed"]
    substeps = options["gen_substeps"]
    if system == "lorenz" and substeps is None:
        substeps = 10

    counts = {"train": n_train, "val": n_val, "test": n_test}
    if min(counts.values()) < 0:
        raise InvalidArgumentError(f"split sizes must be >= 0, got {counts}")
    splits = {}
    for name, count in counts.items():
        if count == 0:
            continue
        split_seed = 4 * seed + _SPLIT_SALT[name] + 1
        if system == "lorenz":
            splits[name] = generate_lorenz(
                count,
                n_times,
                horizon_seconds=horizon,
                init_box=options["init_box"],
                seed=split_seed,
                substeps=substeps,
            )
        else:
            config = BurgersConfig(nu=options["nu"], nx=options["nx"])
            splits[name] = generate_burgers(
                count,
                n_times,
                config=config,
                seed=split_seed,
                horizon_seconds=horizon,
                substeps=substeps,
            )
    if not splits:
        raise InvalidArgumentError("all split sizes are zero; nothing to generate")

    fp = fingerprint("gen-data", options)
    meta = {
        "fingerprint": fp,
        "system": system,
        "seed": seed,
        "horizon_seconds": horizon,
        "n_times": n_times,
        "counts": counts,
        "substeps": substeps,
    }
    if system == "lorenz":
        meta["init_box"] = options["init_box"]
    else:
        meta.update({"nu": options["nu"], "nx": options["nx"]})

    out = options["out"] or _out_dir(options) / f"{system}_seed{seed}.sftraj"
    datafile.write_dataset(out, splits, generator_meta=meta)
    print(f"wrote {out} ({', '.join(f'{k}={v.n_traj}' for k, v in splits.items())}) fingerprint={fp}")
    return 0


def _train_common(options: dict, autoregressive: bool) -> int:
    _require(options, "dataset")
    splits, header = datafile.read_dataset(options["dataset"])
    if "train" not in splits:
        raise InvalidArgumentError(f"dataset {options['dataset']} has no train split")
    train_set = splits["train"]
    val_set = splits.get("val")

    keep_rate = options["keep_rate"]
    if autoregressive and keep_rate != 1.0:
        raise InvalidArgumentError(
            "autoregressive training requires the full uniform grid; "
            f"keep_rate={keep_rate} subsampling is not supported (use train)"
        )
    if keep_rate != 1.0:
        train_set = train_set.subsampled(keep_rate, base_seed=options["seed"])

    flow = {} if autoregressive else {
        "gamma0": options["gamma0"], "noise_m": options["noise_m"], "spline_kind": options["spline"]
    }
    config = TrainConfig(
        steps=options["steps"],
        batch_size=options["batch_size"],
        learning_rate=options["lr"],
        eval_every=options["eval_every"],
        seed=options["seed"],
        **flow,
    )
    mlp = MlpConfig(
        state_dim=train_set.state_dim,
        hidden_dims=options["hidden"],
        embed_bands=options["embed_bands"],
        use_time_embedding=not autoregressive,
    )

    command = "train-ar" if autoregressive else "train"
    fp = fingerprint(command, options)
    out_dir = _out_dir(options)
    tag = f"{header['system']}_{'ar' if autoregressive else config.spline_kind}_seed{options['seed']}"
    ckpt_path = options["checkpoint_out"] or out_dir / f"{tag}.ckpt.npz"
    hist_path = options["history_out"] or out_dir / f"{tag}_history.csv"

    meta = {
        "kind": "one_step" if autoregressive else "flow",
        "fingerprint": fp,
        "dataset": str(options["dataset"]),
        "dataset_fingerprint": header.get("generator", {}).get("fingerprint", ""),
        "keep_rate": keep_rate,
        "train": {
            "steps": config.steps,
            "batch_size": config.batch_size,
            "learning_rate": config.learning_rate,
            "adam_betas": list(config.adam_betas),
            **flow,
            "seed": config.seed,
        },
    }
    if autoregressive:
        meta["grid_step"] = _uniform_step_or_raise(train_set)

    def dump(result, status: str) -> None:
        save_checkpoint(ckpt_path, result.params, meta={**meta, "status": status,
                        "best_step": result.best_step, "best_val_error": result.best_val_error})
        _write_csv(
            hist_path,
            {"fingerprint": fp, "status": status},
            ["step", "train_loss", "val_rel_l2"],
            [(row.step, repr(row.train_loss), repr(row.val_error)) for row in result.history],
        )

    try:
        if autoregressive:
            result = train_one_step(train_set, config, mlp_config=mlp, val_set=val_set)
        else:
            result = train_flow_matching(train_set, config, mlp_config=mlp, val_set=val_set)
    except TrainingAbortedError as exc:
        if exc.best_params is not None:
            from .trainer import TrainResult

            dump(
                TrainResult(exc.best_params, exc.history, exc.best_step, math.nan),
                status=f"aborted: {exc}",
            )
            print(f"training aborted; last good checkpoint at {ckpt_path}", file=sys.stderr)
        raise
    dump(result, status="ok")
    print(
        f"wrote {ckpt_path} (best step {result.best_step}, "
        f"val rel L2 {result.best_val_error:.4g}) fingerprint={fp}"
    )
    return 0


def cmd_train(options: dict) -> int:
    return _train_common(options, autoregressive=False)


def cmd_train_ar(options: dict) -> int:
    return _train_common(options, autoregressive=True)


def cmd_eval(options: dict) -> int:
    _require(options, "checkpoint", "dataset")
    dataset, _ = _load_split(options["dataset"], options["split"])
    params = _load_model(options["checkpoint"], dataset)
    fp = fingerprint("eval", options)
    if params.config.use_time_embedding:
        solver = SolverConfig(method=options["method"], substeps_per_interval=options["substeps"])
        report = evaluate_flow_model(params, dataset, solver, eval_stride=options["eval_stride"])
    else:
        report = evaluate_one_step_model(params, dataset, eval_stride=options["eval_stride"])
    out = options["out"] or _out_dir(options) / "eval_report.csv"
    _write_csv(
        out,
        {
            "fingerprint": fp,
            "checkpoint": options["checkpoint"],
            "mean_rel_l2": repr(report.mean),
            "median_rel_l2": repr(report.median),
            "sd_rel_l2": repr(report.sd),
            "final_time_error": repr(report.final_time_error),
            "nfe": report.nfe,
            "n_diverged": report.n_diverged,
        },
        ["traj_index", "relative_l2"],
        [(i, repr(float(v))) for i, v in enumerate(report.per_traj)],
    )
    per_time_out = Path(str(out)).with_suffix(".pertime.csv")
    _write_csv(
        per_time_out,
        {"fingerprint": fp},
        ["time_index", "mean_relative_error"],
        [(i, repr(float(v))) for i, v in enumerate(report.per_time)],
    )
    print(
        f"split={options['split']} mean={report.mean:.4e} sd={report.sd:.4e} "
        f"final={report.final_time_error:.4e} nfe={report.nfe} -> {out}"
    )
    return 0


def cmd_convergence(options: dict) -> int:
    _require(options, "dataset")
    dataset, _ = _load_split(options["dataset"], options["split"])
    rows = endpoint_velocity_study(dataset, factors=options["factors"])
    fp = fingerprint("convergence", options)
    out = options["out"] or _out_dir(options) / "convergence.csv"
    _write_csv(
        out,
        {"fingerprint": fp, "dataset": options["dataset"]},
        [
            "spline", "factor", "dt_seconds", "n_segments",
            "err_tau0", "order_tau0", "err_tau1", "order_tau1",
        ],
        [
            (
                r.spline_kind, r.factor, repr(r.dt_seconds), r.n_segments,
                repr(r.err_tau0), repr(r.order_tau0), repr(r.err_tau1), repr(r.order_tau1),
            )
            for r in rows
        ],
    )
    for r in rows:
        print(
            f"{r.spline_kind:8s} dt={r.dt_seconds:.4g}s err(tau=0)={r.err_tau0:.3e} "
            f"order={r.order_tau0:.2f}"
        )
    print(f"-> {out}")
    return 0


def cmd_nfe_sweep(options: dict) -> int:
    _require(options, "checkpoint", "dataset")
    dataset, _ = _load_split(options["dataset"], options["split"])
    params = _load_model(options["checkpoint"], dataset, flow=True)
    intervals = len(dataset.grids[0]) - 1  # AR budget: one evaluation per interval
    fp = fingerprint("nfe-sweep", options)
    rows = []
    if options["ar_checkpoint"]:
        ar_params = _load_model(options["ar_checkpoint"], dataset, flow=False)
        ar_report = evaluate_one_step_model(ar_params, dataset)
        rows.append(("ar", 100, ar_report.nfe, repr(ar_report.final_time_error)))
    for method in options["methods"]:
        for pct in options["budgets"]:
            budget = max(1, int(round(intervals * pct / 100.0)))
            err, nfe = final_time_error_at_budget(params, dataset, method, budget)
            rows.append((method, pct, nfe, repr(err)))
    out = options["out"] or _out_dir(options) / "nfe_sweep.csv"
    _write_csv(
        out,
        {"fingerprint": fp, "ar_nfe_budget": intervals},
        ["method", "budget_pct", "nfe", "final_time_rel_l2"],
        rows,
    )
    for method, pct, nfe, err in rows:
        print(f"{method:6s} {pct:4d}% nfe={nfe:5d} final-time rel L2 = {float(err):.4e}")
    print(f"-> {out}")
    return 0


def cmd_reverse(options: dict) -> int:
    _require(options, "checkpoint", "dataset")
    dataset, _ = _load_split(options["dataset"], options["split"])
    params = _load_model(options["checkpoint"], dataset, flow=True)
    if not (0.0 <= options["t_star"] <= 1.0):
        raise InvalidArgumentError("t_star must lie in [0, 1]")
    solver = SolverConfig(method=options["method"], substeps_per_interval=options["substeps"])
    rows = reverse_time_study(
        params,
        dataset,
        t_star=options["t_star"],
        noise_levels=options["noise_levels"],
        solver=solver,
        seed=options["seed"],
    )
    fp = fingerprint("reverse", options)
    out = options["out"] or _out_dir(options) / "reverse.csv"
    _write_csv(
        out,
        {"fingerprint": fp, "t_star": options["t_star"]},
        ["noise_level", "backward_horizon", "mean_relative_error", "n_diverged"],
        [(repr(a), repr(b), repr(c), n) for a, b, c, n in rows],
    )
    print(f"{len(rows)} rows -> {out}")
    return 0


_DISPATCH = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "train-ar": cmd_train_ar,
    "eval": cmd_eval,
    "convergence": cmd_convergence,
    "nfe-sweep": cmd_nfe_sweep,
    "reverse": cmd_reverse,
}


def main(argv=None) -> int:
    try:
        options = vars(build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse has printed usage or the error
        return exc.code
    command = options.pop("command")
    try:
        return _DISPATCH[command](options)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, DataFormatError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
