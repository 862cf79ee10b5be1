"""The benchmark's workloads: CLI command sequences and what they must spend.

Every command is a real ``splineflow`` CLI invocation. Each carries the
number of vector-field evaluations (NFE) its rollouts should spend,
computed here from the configuration alone, never read back from the
program: trajectories x intervals x substeps x solver stages.

Dataset sizes are the CLI's desk-scale defaults, except two larger test
splits (see FULL), passed explicitly so a change to the defaults cannot
silently change the benchmark. The smoke size exists for the benchmark's
own tests.

Training always sees the same inputs: the train and validation splits
of the default generation seed, and the default training seed. The
workload seed draws the test split, the reverse-study noise, and nothing
else. A model retrained per seed scored a lottery: on Lorenz, whose
rollouts decorrelate, the final-time error of 400-step models spread by
a quarter of its median across eight seeds, while the timings do not
depend on which trajectories are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

STAGES = {"euler": 1, "heun": 2, "rk4": 4}

# Defaults of the nfe-sweep and reverse commands, restated because the
# expected NFE is derived from them.
SWEEP_BUDGETS = (50, 100, 200, 400)
SWEEP_METHODS = ("rk4", "euler", "heun")
REVERSE_SUBSTEPS = 4
REVERSE_MAX_HORIZONS = 20  # reverse_time_study's default
REVERSE_NOISE = (0.0, 0.01, 0.1, 1.0)
# Anchor of the reverse study. Integrating the Lorenz field backward over
# the whole horizon (the CLI default, t* = 1) blows up for most rows,
# because backward Lorenz flow expands volume at exp(13.7 t); half the
# horizon keeps every row bounded, so no operation fails.
REVERSE_T_STAR = 0.5


@dataclass(frozen=True)
class Dataset:
    system: str
    n_train: int
    n_val: int
    n_test: int
    n_times: int

    @property
    def intervals(self) -> int:
        return self.n_times - 1

    def gen_args(self, test: bool) -> list:
        """Sizes of the training file (train, val) or of the test file."""
        train, val, tst = (0, 0, self.n_test) if test else (self.n_train, self.n_val, 0)
        return [
            "--system", self.system,
            "--n-train", str(train),
            "--n-val", str(val),
            "--n-test", str(tst),
            "--n-times", str(self.n_times),
        ]


# Full sizes per workload. Two test splits are larger than the CLI's:
# - Burgers: 600 rows, not 20. Per-row errors spread by about their mean,
#   so the mean test error spread across seeds by 0.3 of its median at 20
#   rows, 0.12 at 200 and 0.09 at 400.
# - lorenz-sparse-linear: 400 rows, not 100. Its eval is the only rollout
#   it times, and at 100 rows that was 0.2 s a pass, too little to time
#   steadily on a noisy host.
FULL = {
    "lorenz-sparse-linear": Dataset("lorenz", 1000, 100, 400, 201),
    "burgers-quintic": Dataset("burgers1d", 200, 20, 600, 101),
    "lorenz-studies": Dataset("lorenz", 1000, 100, 100, 201),
}
SMOKE = {
    "lorenz": Dataset("lorenz", 24, 4, 4, 21),
    "burgers1d": Dataset("burgers1d", 8, 2, 2, 11),
}


@dataclass(frozen=True)
class Training:
    steps: int
    eval_every: int
    batch_size: int

    @property
    def validations(self) -> int:
        """Validation rollouts the trainer runs: every eval_every steps and at the end."""
        return self.steps // self.eval_every + (1 if self.steps % self.eval_every else 0)

    def args(self) -> list:
        return [
            "--steps", str(self.steps),
            "--eval-every", str(self.eval_every),
            "--batch-size", str(self.batch_size),
        ]


FULL_TRAINING = Training(steps=400, eval_every=200, batch_size=256)
SMOKE_TRAINING = Training(steps=6, eval_every=3, batch_size=16)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the benchmark expects it to spend."""

    label: str
    argv: tuple
    nfe_expected: int = 0  # summed over every rollout row
    samples: int = 0  # steps x batch_size for training commands
    rollout_study: bool = False  # counts toward rollout_nfe_per_s
    outputs: tuple = ()  # CSV files compared across passes and checked for finite errors


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple
    pipeline: tuple
    convergence_csv: str = ""  # checked for first/second-order spline convergence


def nfe_at_budget(intervals: int, pct: int, method: str) -> int:
    """NFE per row that nfe-sweep spends for one method and budget.

    Mirrors the rounding of cmd_nfe_sweep (budget from the AR interval
    count) and final_time_error_at_budget (whole steps of `stages`).
    """
    budget = max(1, int(round(intervals * pct / 100.0)))
    stages = STAGES[method]
    return max(1, int(round(budget / stages))) * stages


def reverse_intervals(intervals: int, t_star: float) -> int:
    """Backward integration intervals of reverse_time_study on a uniform grid."""
    anchor = min(range(intervals + 1), key=lambda i: abs(i / intervals - t_star))
    stride = max(1, anchor // REVERSE_MAX_HORIZONS)
    targets = list(range(anchor - stride, -1, -stride))
    if targets[-1] != 0:
        targets.append(0)
    return len(targets)


# The flow model's test report, the source of the quality metrics.
QUALITY_CSV = "eval_flow.csv"
TRAIN_FILE = "train.sftraj"
TEST_FILE = "test.sftraj"


def _gen(data: Dataset, seed: int) -> tuple:
    """Training file from the default generation seed, test file from the workload seed."""
    return (
        Command("gen-train", ("gen-data", *data.gen_args(test=False), "--out", TRAIN_FILE)),
        Command("gen-test", ("gen-data", *data.gen_args(test=True), "--seed", str(seed), "--out", TEST_FILE)),
    )


def _train(label, data: Dataset, training: Training, extra=(), ar=False) -> Command:
    stem = label.replace("-", "_")
    per_validation = data.n_val * data.intervals * (1 if ar else STAGES["rk4"])
    return Command(
        label,
        (
            "train-ar" if ar else "train",
            "--dataset", TRAIN_FILE,
            *training.args(),
            *extra,
            "--checkpoint-out", f"{stem}.ckpt.npz",
            "--history-out", f"{stem}_history.csv",
        ),
        nfe_expected=training.validations * per_validation,
        samples=training.steps * training.batch_size,
        outputs=(f"{stem}_history.csv",),
    )


def _eval(label, data: Dataset, checkpoint: str, ar=False) -> Command:
    out = f"{label.replace('-', '_')}.csv"
    per_row = data.intervals * (1 if ar else STAGES["rk4"])
    return Command(
        label,
        ("eval", "--dataset", TEST_FILE, "--checkpoint", checkpoint, "--out", out),
        nfe_expected=data.n_test * per_row,
        rollout_study=True,
        outputs=(out, out.replace(".csv", ".pertime.csv")),
    )


def _lorenz_sparse_linear(seed, data, training):
    train = _train("train", data, training, ("--keep-rate", "0.5", "--spline", "linear"))
    return Workload(
        name="lorenz-sparse-linear",
        setup=_gen(data, seed),
        pipeline=(train, _eval("eval-flow", data, "train.ckpt.npz")),
    )


def _burgers_quintic(seed, data, training):
    train = _train("train", data, training, ("--spline", "quintic"))
    return Workload(
        name="burgers-quintic",
        setup=_gen(data, seed),
        pipeline=(train, _eval("eval-flow", data, "train.ckpt.npz")),
    )


def _lorenz_studies(seed, data, training):
    flow = _train("train", data, training, ("--spline", "quintic"))
    ar = _train("train-ar", data, training, ar=True)
    sweep_rows = data.n_test * (
        data.intervals
        + sum(nfe_at_budget(data.intervals, p, m) for m in SWEEP_METHODS for p in SWEEP_BUDGETS)
    )
    reverse_rows = (
        len(REVERSE_NOISE)
        * data.n_test
        * reverse_intervals(data.intervals, REVERSE_T_STAR)
        * REVERSE_SUBSTEPS
        * STAGES["rk4"]
    )
    pipeline = (
        _eval("eval-flow", data, "train.ckpt.npz"),
        _eval("eval-ar", data, "train_ar.ckpt.npz", ar=True),
        Command(
            "nfe-sweep",
            (
                "nfe-sweep", "--dataset", TEST_FILE,
                "--checkpoint", "train.ckpt.npz", "--ar-checkpoint", "train_ar.ckpt.npz",
                "--budgets", ",".join(map(str, SWEEP_BUDGETS)),
                "--methods", ",".join(SWEEP_METHODS),
                "--out", "nfe_sweep.csv",
            ),
            nfe_expected=sweep_rows,
            rollout_study=True,
            outputs=("nfe_sweep.csv",),
        ),
        Command(
            "reverse",
            (
                "reverse", "--dataset", TEST_FILE, "--checkpoint", "train.ckpt.npz",
                "--t-star", repr(REVERSE_T_STAR),
                "--noise-levels", ",".join(map(repr, REVERSE_NOISE)),
                "--substeps", str(REVERSE_SUBSTEPS), "--seed", str(seed),
                "--out", "reverse.csv",
            ),
            nfe_expected=reverse_rows,
            rollout_study=True,
            outputs=("reverse.csv",),
        ),
        Command(
            "convergence",
            ("convergence", "--dataset", TRAIN_FILE, "--factors", "1,2,4", "--out", "convergence.csv"),
            outputs=("convergence.csv",),
        ),
    )
    return Workload(
        name="lorenz-studies",
        setup=(*_gen(data, seed), flow, ar),
        pipeline=pipeline,
        convergence_csv="convergence.csv",
    )


_WORKLOADS = {
    "lorenz-sparse-linear": _lorenz_sparse_linear,
    "burgers-quintic": _burgers_quintic,
    "lorenz-studies": _lorenz_studies,
}
NAMES = tuple(_WORKLOADS)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    make, data = _WORKLOADS[name], FULL[name]
    if not smoke:
        return make(seed, data, FULL_TRAINING)
    # Smoke grids are too coarse for the asymptotic convergence orders.
    return replace(make(seed, SMOKE[data.system], SMOKE_TRAINING), convergence_csv="")
