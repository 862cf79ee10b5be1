#!/usr/bin/env python3
"""Run one splineflow benchmark workload and print its metrics.

    python3 splinebench/run.py --workload lorenz-studies --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout: the program is imported from
./src, never from an installed copy, and every file the run writes goes
under ./.splinebench-work. The CLI commands run in this one process with
BLAS pinned to one thread.

With --trace 0 the run sets the workload up several times (setup_s is
the median), then repeats the timed command sequence until --seconds
have passed and prints the end-to-end metrics, with command times scaled
to the host's current pace (pace.py). With --trace 1 it traces
one set-up, then alternates untraced and traced passes of the timed
commands and prints the per-layer metrics. Either way the last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# Pinned before numpy is imported anywhere in the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (this directory; imports no numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".splinebench-work"
SETUP_REPEATS = 5

# End-to-end metrics, printed with --trace 0: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_samples_per_s": "1/s",
    "rollout_nfe_per_s": "1/s",
    "test_rel_l2": "ratio",
    "final_rel_l2": "ratio",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

# Output columns and CSV comment keys that hold errors or losses; each
# value must be finite.
ERROR_COLUMNS = {
    "relative_l2",
    "mean_relative_error",
    "final_time_rel_l2",
    "err_tau0",
    "err_tau1",
    "train_loss",
    "mean_rel_l2",
    "sd_rel_l2",
    "final_time_error",
}

# Empirical endpoint-velocity orders the convergence study must show at
# the full dataset size: first order for linear, second for quintic.
EXPECTED_ORDERS = {"linear": 1.0, "quintic": 2.0}
ORDER_TOLERANCE = 0.25


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms_per_step"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("share") or name.endswith("_frac"):
        return "fraction"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def number(text: str) -> float:
    """A CSV value; numpy 2 writes repr(np.float64) as 'np.float64(0.5)'."""
    text = text.strip()
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64(") : -1]
    return float(text)


def read_csv(path: Path):
    """(comment header dict, column header, rows) of a CSV the CLI wrote."""
    comments, lines = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            comments[key] = value
        else:
            lines.append(line)
    table = list(csv.reader(lines))
    return comments, table[0], table[1:]


def nonfinite_errors(path: Path) -> list:
    comments, header, rows = read_csv(path)
    bad = [k for k, v in comments.items() if k in ERROR_COLUMNS and not math.isfinite(number(v))]
    for col, name in enumerate(header):
        if name in ERROR_COLUMNS:
            bad += [f"{name}[{i}]" for i, row in enumerate(rows) if not math.isfinite(number(row[col]))]
    return bad


def convergence_problems(path: Path) -> list:
    _, header, rows = read_csv(path)
    at = {name: i for i, name in enumerate(header)}
    problems = []
    for row in rows:
        order = number(row[at["order_tau0"]])
        if math.isnan(order):  # finest level has no order
            continue
        want = EXPECTED_ORDERS[row[at["spline"]]]
        if abs(order - want) > ORDER_TOLERANCE:
            problems.append(f"{row[at['spline']]} order {order:.3f} at factor {row[at['factor']]}, want {want}")
    return problems


class Runner:
    """Runs CLI commands in-process and keeps the run's accounting."""

    def __init__(self, cli_main, tracer, pace=None):
        self.cli_main = cli_main
        self.tracer = tracer
        self.pace = pace  # a ReferencePace, to scale command times; None leaves them raw
        self.commands = 0
        self.failed_commands = 0
        self.problems: list[str] = []
        self.fingerprints: dict[str, str] = {}
        self.train_rates: list[float] = []

    def command(self, cmd) -> float:
        """Run one command; return its wall time. A non-zero exit is counted."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), self.tracer.span(
            "cli." + cmd.argv[0]
        ):
            try:
                code = self.cli_main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error is a failed command, as in a shell
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - start
        self.commands += 1
        if code != 0:
            self.failed_commands += 1
            self.problems.append(f"{cmd.label} exited {code}")
            sys.stderr.write(f"{cmd.label} exited {code}:\n{err.getvalue()}")
        else:
            self._note_fingerprint(cmd, out.getvalue())
        return wall

    def _note_fingerprint(self, cmd, stdout: str) -> None:
        found = re.search(r"fingerprint=([0-9a-f]+)", stdout)
        if found:
            self.fingerprints[cmd.label] = found.group(1)
        elif cmd.outputs and Path(cmd.outputs[0]).exists():
            self.fingerprints[cmd.label] = read_csv(Path(cmd.outputs[0]))[0].get("fingerprint", "")

    def tally(self) -> tuple:
        """(attempted, failed): rollout rows plus commands; diverged rows plus failed commands."""
        counts = self.tracer.counts
        attempted = int(counts.get("odeint.rows", 0)) + self.commands
        failed = int(counts.get("odeint.diverged_rows", 0)) + self.failed_commands
        return attempted, failed

    def sequence(self, commands) -> dict:
        """Run commands in order; return walls, scaled walls and rollout accounting.

        With a pace, the reference workload runs before the first command
        and after each one, and each command's wall time is scaled by the
        mean of the two reference times around it (see pace.py).
        """
        walls, scaled, refs = {}, {}, []
        if self.pace:
            refs.append(self.pace.sample())
        for cmd in commands:
            walls[cmd.label] = self.command(cmd)
            scaled[cmd.label] = walls[cmd.label]
            if self.pace:
                refs.append(self.pace.sample())
                scaled[cmd.label] = self.pace.scale(walls[cmd.label], refs[-2:])
            if cmd.argv[0] == "train":  # the flow model's training, not train-ar
                self.train_rates.append(cmd.samples / scaled[cmd.label])
        study = [c for c in commands if c.rollout_study]
        return {
            "wall": sum(walls.values()),
            "scaled": sum(scaled.values()),
            "walls": walls,
            "scaled_walls": scaled,
            "reference_s": refs,
            "study_nfe": sum(c.nfe_expected for c in study),
            "study_scaled": sum(scaled[c.label] for c in study),
        }

    def snapshot(self, commands) -> dict:
        """Bytes of every output, checked for finite errors once per pass."""
        files = {}
        for cmd in commands:
            for name in cmd.outputs:
                path = Path(name)
                if not path.exists():
                    self.problems.append(f"{cmd.label} wrote no {name}")
                    continue
                files[name] = path.read_bytes()
                bad = nonfinite_errors(path)
                if bad:
                    self.problems.append(f"{name}: non-finite {', '.join(bad[:5])}")
        return files

    def same_as(self, first: dict, files: dict, what: str) -> None:
        for name, data in files.items():
            if first.get(name) != data:
                self.problems.append(f"{name} differs between {what} of one seed")


def fresh_dir(path: Path) -> None:
    os.chdir(WORK_ROOT)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    os.chdir(path)


def set_up(runner, workload, work: Path) -> dict:
    fresh_dir(work)
    seq = runner.sequence(workload.setup)
    files = runner.snapshot(workload.setup)
    for data in Path(".").glob("*.sftraj"):
        files[data.name] = hashlib.sha256(data.read_bytes()).digest()
    seq["files"] = files
    return seq


def timed_passes(seconds: float, step) -> None:
    """Call step() until the next call would end after `seconds`; at least once."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        start = time.perf_counter()
        step()
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return


def final_checks(runner, workload) -> dict:
    """Checks on the last pass's outputs; returns the flow model's test errors."""
    if workload.convergence_csv and Path(workload.convergence_csv).exists():
        runner.problems += convergence_problems(Path(workload.convergence_csv))
    quality = Path(workloads.QUALITY_CSV)
    if not quality.exists():
        return {}  # the missing file is already a recorded problem
    comments = read_csv(quality)[0]
    return {
        "test_rel_l2": number(comments["mean_rel_l2"]),
        "final_rel_l2": number(comments["final_time_error"]),
    }


def end_to_end(runner, workload, work: Path, seconds: float) -> tuple:
    from spans import instrument

    with instrument(runner.tracer, full=False):
        setups = [set_up(runner, workload, work) for _ in range(SETUP_REPEATS)]
        for later in setups[1:]:
            runner.same_as(setups[0]["files"], later["files"], "set-ups")
        passes, outputs = [], []

        def step():
            passes.append(runner.sequence(workload.pipeline))
            outputs.append(runner.snapshot(workload.pipeline))
            runner.same_as(outputs[0], outputs[-1], "passes")

        timed_passes(seconds, step)
    metrics = {
        "setup_s": statistics.median(s["scaled"] for s in setups),
        "pipeline_s": statistics.median(p["scaled"] for p in passes),
        "train_samples_per_s": statistics.median(runner.train_rates),
        "rollout_nfe_per_s": statistics.median(p["study_nfe"] / p["study_scaled"] for p in passes),
        **final_checks(runner, workload),
    }
    keep = ("walls", "scaled_walls", "reference_s")
    detail = {
        "setups": [{k: s[k] for k in keep} for s in setups],
        "passes": [{k: p[k] for k in keep} for p in passes],
    }
    return metrics, detail


def traced(runner, workload, work: Path, seconds: float) -> tuple:
    from spans import instrument, layer_metrics, partition_error

    tracer = runner.tracer
    tracer.enabled = True
    with instrument(tracer, full=True):
        set_up(runner, workload, work)
    tracer.enabled = False
    setup_spans = range(0, len(tracer))
    setup_counts = dict(tracer.counts)
    setup_nfe = sum(c.nfe_expected for c in workload.setup)
    untraced_walls, traced_walls, per_pass, outputs = [], [], [], []
    traced_spans = list(setup_spans)

    def untraced_pass():
        with instrument(tracer, full=False):
            untraced_walls.append(runner.sequence(workload.pipeline)["wall"])

    def step():
        # Pairs alternate which pass runs first, so drift does not bias the overhead.
        if len(per_pass) % 2 == 0:
            untraced_pass()
        before = dict(tracer.counts)
        first = len(tracer)
        tracer.enabled = True
        with instrument(tracer, full=True):
            traced_walls.append(runner.sequence(workload.pipeline)["wall"])
        tracer.enabled = False
        counts = {k: setup_counts.get(k, 0.0) + v - before.get(k, 0.0) for k, v in tracer.counts.items()}
        if len(per_pass) % 2 == 1:
            untraced_pass()
        timed = range(first, len(tracer))
        traced_spans.extend(timed)
        layer = layer_metrics(tracer.spans(), counts, list(setup_spans) + list(timed), timed)
        layer["odeint.nfe"] = counts.get("odeint.nfe", 0.0)
        layer["odeint.nfe_expected"] = setup_nfe + sum(c.nfe_expected for c in workload.pipeline)
        layer["odeint.diverged_rows"] = counts.get("odeint.diverged_rows", 0.0)
        per_pass.append(layer)
        outputs.append(runner.snapshot(workload.pipeline))
        runner.same_as(outputs[0], outputs[-1], "passes")

    timed_passes(seconds, step)
    final_checks(runner, workload)
    spans = tracer.spans()
    gap = partition_error(spans, traced_spans)
    if gap > 1e-9:
        runner.problems.append(f"self times miss a command's wall time by {gap:.3g} of it")
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_frac"] = statistics.median(
        t / u - 1.0 for t, u in zip(traced_walls, untraced_walls)
    )
    detail = {
        "untraced_pass_walls": untraced_walls,
        "traced_pass_walls": traced_walls,
        "spans": [[s.name, s.start, s.end, s.parent] for s in spans],
    }
    return metrics, detail


def provenance(workload_name: str, seed: int, fingerprints: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "splineflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workload": workload_name,
        "seed": seed,
        "fingerprints": fingerprints,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "splineflow" / "cli.py").is_file():
        print(f"splinebench: no splineflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import splineflow
    from splineflow import cli

    if Path(splineflow.__file__).resolve().parent != SRC / "splineflow":
        print(f"splinebench: imported splineflow from {splineflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from pace import ReferencePace
    from spans import Tracer

    if args.workload not in workloads.NAMES:
        print(f"splinebench: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    work = WORK_ROOT / f"{workload.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    WORK_ROOT.mkdir(exist_ok=True)
    os.environ[cli.OUTPUT_ROOT_ENV] = str(work)
    pace = None if args.trace else ReferencePace()
    runner = Runner(cli.main, Tracer(), pace)
    cwd = os.getcwd()
    try:
        measure = traced if args.trace else end_to_end
        metrics, detail = measure(runner, workload, work, args.seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = runner.tally()
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    else:
        units = {name: per_layer_unit(name) for name in metrics}
    problems = list(dict.fromkeys(runner.problems))  # each distinct problem once
    correct = not problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    prov = provenance(workload.name, args.seed, runner.fingerprints)
    record = {
        "provenance": prov,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        **detail,
    }
    results = WORK_ROOT / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (results / f"{stem}.json").write_text(json.dumps(record), encoding="utf-8")

    print(f"splinebench {workload.name} seed={args.seed} trace={args.trace} correct={correct}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
