"""Experiment command line: data generation, training, evaluation, studies.

Subcommands: gen-data, train, train-ar, eval, convergence, nfe-sweep,
reverse. gen-data writes one binary dataset file (see `datafile`); every
other command reads one. Each output goes where its flag names it, else
under --out-dir, $SPLINEFLOW_OUTPUT_ROOT or ./outputs; its directory is
made either way. A float in a CSV is its shortest round-trip text.

argparse types every flag, fills its default and refuses a command
without its required flags. All commands are deterministic for a fixed
configuration. `main` hands each one its provenance: "options", the
parsed flags without the OUTPUT_FLAGS that say where it writes, and
"fingerprint", a sha256 of the command and those options. So the same
run written under other names writes the same bytes. Every CSV records
the fingerprint; a dataset's `generator` header and a checkpoint's meta
record the provenance, beside what the run resolved or found (the
generation's substeps; the training's dataset fingerprint, status and
best validation). A checkpoint's network config, not its meta, says
what the model is and at which grid step a one-step model runs.

Exit codes: 0 success, 2 invalid configuration, 3 numeric failure,
4 I/O or file-format failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import datafile
from .convergence import endpoint_velocity_study
from .errors import DataFormatError, InvalidArgumentError, NumericError, TrainingAbortedError
from .evaluation import (
    evaluate_flow_model,
    evaluate_one_step_model,
    final_time_error_at_budget,
    require_model,
    reverse_time_study,
)
from .odeint import SolverConfig
from .systems import LORENZ_SUBSTEPS, BurgersConfig, burgers_substeps, generate_burgers, generate_lorenz
from .trainer import TrainConfig, train_flow_matching, train_one_step
from .vector_field import load_checkpoint, save_checkpoint

OUTPUT_ROOT_ENV = "SPLINEFLOW_OUTPUT_ROOT"
OUTPUT_FLAGS = ("out_dir", "out", "checkpoint_out", "history_out")  # read by `_output` only

# Desk-scale defaults per system for the gen-data flags left unset, filled in
# before the provenance is taken (`main`). Burgers' substeps follow from stability.
SYSTEM_DEFAULTS = {
    "lorenz": {"n_train": 1000, "n_val": 100, "n_test": 100, "n_times": 201, "horizon": 5.0,
               "gen_substeps": LORENZ_SUBSTEPS},
    "burgers1d": {"n_train": 200, "n_val": 20, "n_test": 20, "n_times": 101, "horizon": 1.0},
}

_SPLIT_SALT = {"train": 0, "val": 1, "test": 2}


def _comma_ints(text: str) -> tuple:
    return tuple(int(x) for x in str(text).split(",") if x != "")

def _comma_floats(text: str) -> tuple:
    return tuple(float(x) for x in str(text).split(",") if x != "")

def _comma_strs(text: str) -> tuple:
    return tuple(x.strip() for x in str(text).split(",") if x.strip())

def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)  # argparse reports it as an invalid value
    return value


REQUIRED = object()  # an option-table default: argparse refuses a command without the flag
# Option tables: (name, type, default, help), one --flag each; the parsed
# values of a command's table are the options it fingerprints.
_COMMON = [
    ("out_dir", str, None, "output directory (default: $SPLINEFLOW_OUTPUT_ROOT or ./outputs)"),
]

_TRAIN_OPTS = [
    ("dataset", str, REQUIRED, "dataset file from gen-data"),
    ("steps", int, TrainConfig.steps, "optimizer steps"),
    ("batch_size", int, TrainConfig.batch_size, "samples per step"),
    ("lr", float, TrainConfig.learning_rate, "Adam learning rate"),
    ("eval_every", int, TrainConfig.eval_every, "validation rollout cadence in steps"),
    ("seed", _non_negative_int, TrainConfig.seed, "training seed"),
    ("hidden", _comma_ints, TrainConfig.hidden_dims, "hidden layer widths"),
    ("checkpoint_out", str, None, "checkpoint path (default under out dir)"),
    ("history_out", str, None, "history CSV path (default under out dir)"),
]

COMMANDS = {
    "gen-data": _COMMON + [
        ("system", str, "lorenz", "lorenz or burgers1d"),
        ("n_train", _non_negative_int, None, "training trajectories (default per system)"),
        ("n_val", _non_negative_int, None, "validation trajectories"),
        ("n_test", _non_negative_int, None, "test trajectories"),
        ("n_times", int, None, "time points per trajectory"),
        ("horizon", float, None, "physical horizon in seconds"),
        ("init_box", float, 5.0, "lorenz initial-condition box half-width"),
        ("nu", float, BurgersConfig.nu, "burgers viscosity"),
        ("nx", int, BurgersConfig.nx, "burgers spatial points"),
        ("gen_substeps", int, None, f"integrator substeps per interval (default: lorenz {LORENZ_SUBSTEPS}, burgers by stability)"),
        ("seed", _non_negative_int, 0, "generation seed"),
        ("out", str, None, "dataset path (default under out dir)"),
    ],
    "train": _COMMON + _TRAIN_OPTS + [
        ("keep_rate", float, 1.0, "fraction of time points kept per trajectory"),
        ("embed_bands", int, TrainConfig.embed_bands, "sinusoidal time-embedding frequency count"),
        ("spline", str, TrainConfig.spline_kind, "spline kind: linear or quintic"),
        ("gamma0", float, TrainConfig.gamma0, "noise schedule amplitude"),
        ("noise_m", int, TrainConfig.noise_m, "noise schedule smoothness exponent"),
    ],
    "train-ar": _COMMON + _TRAIN_OPTS,
    "eval": _COMMON + [
        ("checkpoint", str, REQUIRED, "trained checkpoint"),
        ("dataset", str, REQUIRED, "dataset file whose split lies on one shared grid"),
        ("split", str, "test", "dataset split to evaluate"),
        ("method", str, SolverConfig.method, "solver: euler, heun, rk4"),
        ("substeps", int, SolverConfig.substeps_per_interval, "solver substeps per grid interval"),
        ("eval_stride", int, 1, "evaluate every k-th grid time"),
        ("out", str, None, "report CSV path"),
    ],
    "convergence": _COMMON + [
        ("dataset", str, REQUIRED, "lorenz dataset whose trajectories share one uniform grid"),
        ("split", str, "train", "split to analyze"),
        ("factors", _comma_ints, (1, 2, 4), "two or more distinct downsampling factors, each dividing the segment count"),
        ("out", str, None, "order table CSV path"),
    ],
    "nfe-sweep": _COMMON + [
        ("checkpoint", str, REQUIRED, "trained flow checkpoint"),
        ("ar_checkpoint", str, "", "optional one-step checkpoint for the baseline row"),
        ("dataset", str, REQUIRED, "dataset file whose split lies on one shared grid"),
        ("split", str, "test", "split to evaluate"),
        ("budgets", _comma_ints, (50, 100, 200, 400), "NFE budgets as percent of AR"),
        ("methods", _comma_strs, ("rk4", "euler", "heun"), "solvers to sweep"),
        ("out", str, None, "sweep CSV path"),
    ],
    "reverse": _COMMON + [
        ("checkpoint", str, REQUIRED, "trained flow checkpoint"),
        ("dataset", str, REQUIRED, "dataset file whose split lies on one shared grid"),
        ("split", str, "test", "split to evaluate"),
        ("t_star", float, 1.0, "anchor time in [0, 1]"),
        ("noise_levels", _comma_floats, (0.0,), "terminal-state noise scales"),
        ("method", str, "rk4", "solver for backward integration"),
        ("substeps", int, 4, "solver substeps per interval"),
        ("seed", _non_negative_int, 0, "noise seed"),
        ("out", str, None, "reverse study CSV path"),
    ],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splineflow",
        description=(
            "spline-based flow matching experiment harness. Large batches run on a"
            " thread per CPU, each of which assumes BLAS on one thread: set"
            " OPENBLAS_NUM_THREADS=1 (OMP_NUM_THREADS=1 for other BLAS builds)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in COMMANDS.items():
        p = sub.add_parser(command)
        for name, typ, default, help_text in opts:
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, type=typ, default=default, required=default is REQUIRED, help=help_text)
    return parser


def _provenance(command: str, options: dict) -> dict:
    """{"fingerprint", "options"}: the flags but OUTPUT_FLAGS, and a hash of them and the command."""
    settings = {name: value for name, value in options.items() if name not in OUTPUT_FLAGS}
    canon = json.dumps({"command": command, "options": settings}, sort_keys=True, default=str)
    return {"fingerprint": hashlib.sha256(canon.encode()).hexdigest()[:16], "options": settings}


def _output(options: dict, flag: str, default_name: str) -> Path:
    """The path `flag` names, else `default_name` under the output root; makes its directory."""
    root = options["out_dir"] or os.environ.get(OUTPUT_ROOT_ENV) or "outputs"
    path = Path(options[flag] or Path(root, default_name))
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, comments: dict, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in comments.items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_split(path: str, split: str):
    splits, header = datafile.read_dataset(path)
    if split not in splits:
        raise InvalidArgumentError(
            f"dataset {path} has splits {sorted(splits)}, not {split!r}"
        )
    return splits[split], header


def _fill_system_defaults(options: dict) -> None:
    """Fill the gen-data flags left unset with its system's `SYSTEM_DEFAULTS`."""
    if options["system"] not in SYSTEM_DEFAULTS:
        raise InvalidArgumentError(f"unknown system {options['system']!r}")
    for name, default in SYSTEM_DEFAULTS[options["system"]].items():
        if options[name] is None:
            options[name] = default


def _clock(wall_field: str = "rollout_s"):
    """Start a command's clock; the returned call gives the stdout fields of its cost.

    The fields are the wall seconds since the start, named `wall_field`,
    and the CPU seconds. Process CPU time counts every thread, the worker
    pool's too, so CPU above wall time shows work that ran at once.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    return lambda: (
        f"{wall_field}={time.perf_counter() - wall:.3f} cpu_s={time.process_time() - cpu:.3f}"
    )


def cmd_gen_data(options: dict, provenance: dict) -> int:
    system = options["system"]
    n_times, horizon, seed = options["n_times"], options["horizon"], options["seed"]
    substeps = options["gen_substeps"]

    table = {
        name: (options[f"n_{name}"], 4 * seed + salt + 1)
        for name, salt in _SPLIT_SALT.items() if options[f"n_{name}"]
    }
    if not table:
        raise InvalidArgumentError("all split sizes are zero; nothing to generate")
    clock = _clock()
    if system == "lorenz":
        splits = generate_lorenz(
            None,
            n_times,
            horizon_seconds=horizon,
            init_box=options["init_box"],
            substeps=substeps,
            splits=table,
        )
    else:
        config = BurgersConfig(nu=options["nu"], nx=options["nx"])
        splits = generate_burgers(
            None,
            n_times,
            config=config,
            horizon_seconds=horizon,
            substeps=substeps,
            splits=table,
        )
        if substeps is None:  # the generator has checked the inputs the bound's count reads
            substeps = burgers_substeps(config, horizon / (n_times - 1))
    cost = clock()

    out = _output(options, "out", f"{system}_seed{seed}.sftraj")
    datafile.write_dataset(out, splits, generator_meta={**provenance, "substeps": substeps})
    print(
        f"wrote {out} ({', '.join(f'{k}={v.n_traj}' for k, v in splits.items())}) "
        f"{cost} fingerprint={provenance['fingerprint']}"
    )
    return 0


def _train_common(options: dict, provenance: dict, autoregressive: bool) -> int:
    splits, header = datafile.read_dataset(options["dataset"])
    if "train" not in splits:
        raise InvalidArgumentError(f"dataset {options['dataset']} has no train split")
    # the only references: a subsample below frees the full split, and
    # every other split (a test split) is freed here
    train_set, val_set = splits.pop("train"), splits.pop("val", None)
    del splits

    flow = {} if autoregressive else {
        "gamma0": options["gamma0"], "noise_m": options["noise_m"], "spline_kind": options["spline"]
    }
    if not autoregressive and options["keep_rate"] != 1.0:
        train_set = train_set.subsampled(options["keep_rate"], base_seed=options["seed"])
    config = TrainConfig(
        steps=options["steps"],
        batch_size=options["batch_size"],
        learning_rate=options["lr"],
        eval_every=options["eval_every"],
        seed=options["seed"],
        hidden_dims=options["hidden"],
        embed_bands=options.get("embed_bands", TrainConfig.embed_bands),
        **flow,
    )

    tag = f"{header['system']}_{'ar' if autoregressive else config.spline_kind}_seed{options['seed']}"
    ckpt_path = _output(options, "checkpoint_out", f"{tag}.ckpt.npz")
    hist_path = _output(options, "history_out", f"{tag}_history.csv")

    dataset_fingerprint = header.get("generator", {}).get("fingerprint", "")
    meta = {**provenance, "dataset_fingerprint": dataset_fingerprint}

    def dump(result, status: str) -> None:
        save_checkpoint(ckpt_path, result.params, meta={**meta, "status": status,
                        "best_step": result.best_step, "best_val_error": result.best_val_error})
        _write_csv(
            hist_path,
            {"fingerprint": provenance["fingerprint"], "status": status},
            ["step", "train_loss", "val_rel_l2"],
            [(row.step, row.train_loss, row.val_error) for row in result.history],
        )

    clock = _clock("train_s")
    try:
        if autoregressive:
            result = train_one_step(train_set, config, val_set=val_set)
        else:
            result = train_flow_matching(train_set, config, val_set=val_set)
    except TrainingAbortedError as exc:
        if exc.result is not None:
            dump(exc.result, status=f"aborted: {exc}")
            print(f"training aborted; last good checkpoint at {ckpt_path}", file=sys.stderr)
        raise
    cost = clock()
    dump(result, status="ok")
    print(
        f"wrote {ckpt_path} (best step {result.best_step}, "
        f"val rel L2 {result.best_val_error:.4g}) fingerprint={provenance['fingerprint']} {cost}"
    )
    return 0


def cmd_eval(options: dict, provenance: dict) -> int:
    dataset, _ = _load_split(options["dataset"], options["split"])
    params = load_checkpoint(options["checkpoint"])[0]
    solver = SolverConfig(method=options["method"], substeps_per_interval=options["substeps"])
    clock = _clock()
    if params.config.grid_step is None:
        report = evaluate_flow_model(params, dataset, solver, eval_stride=options["eval_stride"])
    else:
        report = evaluate_one_step_model(params, dataset, eval_stride=options["eval_stride"])
    cost = clock()
    out = _output(options, "out", "eval_report.csv")
    _write_csv(
        out,
        {
            "fingerprint": provenance["fingerprint"],
            "checkpoint": options["checkpoint"],
            "mean_rel_l2": report.mean,
            "median_rel_l2": report.median,
            "sd_rel_l2": report.sd,
            "final_time_error": report.final_time_error,
            "nfe": report.nfe,
            "n_diverged": report.n_diverged,
        },
        ["traj_index", "relative_l2"],
        enumerate(report.per_traj.tolist()),
    )
    _write_csv(
        out.with_suffix(".pertime.csv"),
        {"fingerprint": provenance["fingerprint"]},
        ["time_index", "mean_relative_error"],
        enumerate(report.per_time.tolist()),
    )
    print(
        f"split={options['split']} mean={report.mean:.4e} sd={report.sd:.4e} "
        f"final={report.final_time_error:.4e} nfe={report.nfe} n_diverged={report.n_diverged} "
        f"{cost} -> {out}"
    )
    return 0


def cmd_convergence(options: dict, provenance: dict) -> int:
    dataset, _ = _load_split(options["dataset"], options["split"])
    rows = endpoint_velocity_study(dataset, factors=options["factors"])
    out = _output(options, "out", "convergence.csv")
    _write_csv(
        out,
        {"fingerprint": provenance["fingerprint"], "dataset": options["dataset"]},
        [
            "spline", "factor", "dt_seconds", "n_segments",
            "err_tau0", "order_tau0", "err_tau1", "order_tau1",
        ],
        [
            (
                r.spline_kind, r.factor, r.dt_seconds, r.n_segments,
                r.err_tau0, r.order_tau0, r.err_tau1, r.order_tau1,
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


def cmd_nfe_sweep(options: dict, provenance: dict) -> int:
    if not options["methods"] or min(options["budgets"], default=0) < 1:
        raise InvalidArgumentError("nfe-sweep needs a method and NFE budgets of >= 1 percent")
    dataset, _ = _load_split(options["dataset"], options["split"])
    intervals = dataset.shared_grid().n_segments  # AR budget: one evaluation per interval
    # every row's model and method is checked before the first rollout
    params = load_checkpoint(options["checkpoint"])[0]
    require_model(params, dataset, one_step=False)
    ar_params = load_checkpoint(options["ar_checkpoint"])[0] if options["ar_checkpoint"] else None
    if ar_params is not None:
        require_model(ar_params, dataset, one_step=True)
    for method in options["methods"]:
        SolverConfig(method=method)
    runs, reports = [], []  # (method, budget_pct) and the report of each row
    clock = _clock()
    if ar_params is not None:
        reports.append(evaluate_one_step_model(ar_params, dataset))
        runs.append(("ar", 100))
    for method in options["methods"]:
        for pct in options["budgets"]:
            budget = max(1, int(round(intervals * pct / 100.0)))
            final_time_error_at_budget(params, dataset, method, budget, reports)
            runs.append((method, pct))
    cost = clock()
    out = _output(options, "out", "nfe_sweep.csv")
    _write_csv(
        out,
        {"fingerprint": provenance["fingerprint"], "ar_nfe_budget": intervals},
        ["method", "budget_pct", "nfe", "final_time_rel_l2", "n_diverged"],
        [(*run, r.nfe, r.final_time_error, r.n_diverged) for run, r in zip(runs, reports)],
    )
    for (method, pct), report in zip(runs, reports):
        print(
            f"{method:6s} {pct:4d}% nfe={report.nfe:5d} final-time rel L2 = "
            f"{report.final_time_error:.4e} n_diverged={report.n_diverged}"
        )
    print(f"{cost} -> {out}")
    return 0


def cmd_reverse(options: dict, provenance: dict) -> int:
    dataset, _ = _load_split(options["dataset"], options["split"])
    params = load_checkpoint(options["checkpoint"])[0]
    solver = SolverConfig(method=options["method"], substeps_per_interval=options["substeps"])
    clock = _clock()
    rows = reverse_time_study(
        params,
        dataset,
        t_star=options["t_star"],
        noise_levels=options["noise_levels"],
        solver=solver,
        seed=options["seed"],
    )
    cost = clock()
    out = _output(options, "out", "reverse.csv")
    _write_csv(
        out,
        {"fingerprint": provenance["fingerprint"], "t_star": options["t_star"]},
        ["noise_level", "backward_horizon", "mean_relative_error", "n_diverged"],
        rows,
    )
    horizons = len(rows) // len(options["noise_levels"])  # rows per noise level
    print(
        f"{len(rows)} rows n_diverged={','.join(str(n) for *_, n in rows[::horizons])} "
        f"{cost} -> {out}"
    )
    return 0


_DISPATCH = {
    "gen-data": cmd_gen_data,
    "train": functools.partial(_train_common, autoregressive=False),
    "train-ar": functools.partial(_train_common, autoregressive=True),
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
        if command == "gen-data":
            _fill_system_defaults(options)
        return _DISPATCH[command](options, _provenance(command, options))
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
