"""Spans and counters recorded around splineflow's public functions.

The benchmark never edits the program. It replaces a public function at
the place where the caller looks it up (a module attribute, or a method
on a class) with a wrapper that records a span, then puts the original
back. Spans live in memory until the run ends.

Rollout boundaries are always wrapped, traced or not, because the
end-to-end failure count needs the diverged rows they return.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from splineflow.errors import DivergedError

# Modules of src/splineflow that get a span. A span's module is the part
# of its name before the first dot.
MODULES = (
    "cli",
    "datafile",
    "systems",
    "trainer",
    "interpolant",
    "vector_field",
    "spline",
    "stencil",
    "odeint",
    "evaluation",
    "metrics",
    "convergence",
)

# (object path, attribute, span name). Each attribute is patched where its
# caller looks it up, so the span covers exactly the caller's use.
SPAN_SITES = (
    ("splineflow.datafile", "read_dataset", "datafile.read_dataset"),
    ("splineflow.datafile", "write_dataset", "datafile.write_dataset"),
    ("splineflow.cli", "generate_lorenz", "systems.generate"),
    ("splineflow.cli", "generate_burgers", "systems.generate"),
    ("splineflow.systems:TrajectorySet", "subsampled", "systems.subsampled"),
    ("splineflow.cli", "train_flow_matching", "trainer.train"),
    ("splineflow.cli", "train_one_step", "trainer.train"),
    ("splineflow.trainer", "build_splines", "trainer.build_splines"),
    ("splineflow.trainer", "adam_step", "trainer.adam_step"),
    ("splineflow.trainer", "loss_and_grad", "vector_field.loss_and_grad"),
    ("splineflow.trainer", "build_linear", "spline.build"),
    ("splineflow.trainer", "build_quintic", "spline.build"),
    ("splineflow.convergence", "build_linear", "spline.build"),
    ("splineflow.convergence", "build_quintic", "spline.build"),
    ("splineflow.spline", "estimate_knot_derivatives", "stencil.estimate_knot_derivatives"),
    ("splineflow.stencil", "fd_weights", "stencil.fd_weights"),
    ("splineflow.interpolant:InterpolantSampler", "sample_batch", "interpolant.sample_batch"),
    ("splineflow.cli", "evaluate_flow_model", "evaluation.evaluate_flow_model"),
    ("splineflow.cli", "evaluate_one_step_model", "evaluation.evaluate_one_step_model"),
    # The trainer imports these two at call time, from the evaluation module.
    ("splineflow.evaluation", "evaluate_flow_model", "evaluation.evaluate_flow_model"),
    ("splineflow.evaluation", "evaluate_one_step_model", "evaluation.evaluate_one_step_model"),
    ("splineflow.cli", "final_time_error_at_budget", "evaluation.final_time_error_at_budget"),
    ("splineflow.cli", "reverse_time_study", "evaluation.reverse_time_study"),
    ("splineflow.cli", "endpoint_velocity_study", "convergence.endpoint_velocity_study"),
    ("splineflow.evaluation", "forward_batch", "vector_field.forward_batch"),
    ("splineflow.evaluation", "build_report", "metrics.build_report"),
    ("splineflow.cli", "save_checkpoint", "vector_field.checkpoint"),
    ("splineflow.cli", "load_checkpoint", "vector_field.checkpoint"),
)

# The three rollout functions, wrapped where evaluation.py calls them.
ROLLOUT_SITES = (
    ("splineflow.evaluation", "rollout", "odeint.rollout"),
    ("splineflow.evaluation", "ar_rollout", "odeint.ar_rollout"),
    ("splineflow.evaluation", "rollout_reverse", "odeint.rollout_reverse"),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a command root

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans plus counters, filled by the wrappers below.

    Spans are recorded only while ``enabled``; counters always. Spans are
    kept as flat lists of plain numbers, which the garbage collector
    does not have to walk, and become Span objects only for analysis.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        self.parents.append(self._open[-1] if self._open else -1)
        self._open.append(len(self.names))
        self.names.append(name)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())

    def end(self) -> None:
        self.ends[self._open.pop()] = time.perf_counter()

    def __len__(self) -> int:
        return len(self.names)

    def spans(self) -> list[Span]:
        return list(map(Span, self.names, self.starts, self.ends, self.parents))

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        self.begin(name)
        try:
            yield
        finally:
            self.end()


def _call(tracer, fn, args, kwargs):
    return fn(*args, **kwargs)


def _spanning(tracer: Tracer, name: str, fn, observe=_call):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return observe(tracer, fn, args, kwargs)
        tracer.begin(name)
        try:
            return observe(tracer, fn, args, kwargs)
        finally:
            tracer.end()

    return wrapper


def _rows(u) -> int:
    shape = getattr(u, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _observe_rollout(tracer, fn, args, kwargs):
    """Count rows, diverged rows and the NFE the program reports."""
    rows = _rows(args[1])
    tracer.counts["odeint.rows"] += rows
    try:
        result = fn(*args, **kwargs)
    except DivergedError:
        # ar_rollout raises on the first blow-up: every row is lost.
        tracer.counts["odeint.diverged_rows"] += rows
        raise
    tracer.counts["odeint.diverged_rows"] += int(np.count_nonzero(result.diverged))
    tracer.counts["odeint.nfe"] += rows * int(result.nfe)
    return result


def _observe_sample_batch(tracer, fn, args, kwargs):
    tracer.counts["interpolant.samples"] += int(args[1])
    return fn(*args, **kwargs)


def _observe_dataset_io(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.counts["datafile.bytes"] += os.path.getsize(args[0])
    return result


_OBSERVERS = {
    "interpolant.sample_batch": _observe_sample_batch,
    "datafile.read_dataset": _observe_dataset_io,
    "datafile.write_dataset": _observe_dataset_io,
}


def _resolve(path: str):
    module, _, attr = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


@contextmanager
def instrument(tracer: Tracer, full: bool):
    """Patch the rollout sites, and with ``full`` every span site.

    Restores every original attribute on exit, also on error.
    """
    sites = [(p, a, n, _observe_rollout) for p, a, n in ROLLOUT_SITES]
    if full:
        sites += [(p, a, n, _OBSERVERS.get(n, _call)) for p, a, n in SPAN_SITES]
    saved = []
    try:
        for path, attr, name, observe in sites:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _spanning(tracer, name, original, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[index], key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _root(spans, index: int) -> int:
    while spans[index].parent >= 0:
        index = spans[index].parent
    return index


def layer_metrics(spans, counts: dict, selected, timed: range) -> dict:
    """Per-layer metrics over the span indices in ``selected``.

    ``timed`` is the index range of one pass of the timed commands; every
    metric named ``*share`` is a fraction of that pass's wall time. Every
    other total covers all of ``selected``.
    """
    selves = self_times(spans)
    chosen = list(selected)
    total = defaultdict(float)
    calls = defaultdict(int)
    module_self = defaultdict(float)
    for i in chosen:
        span = spans[i]
        total[span.name] += span.duration
        calls[span.name] += 1
        module_self[span.module] += selves[i]

    def under(i: int, prefix: str) -> bool:
        parent = spans[i].parent
        return parent >= 0 and spans[parent].name.startswith(prefix)

    def cli_driven(name: str) -> float:
        return sum(spans[i].duration for i in chosen if spans[i].name == name and under(i, "cli."))

    def mean(name: str, scale: float) -> float:
        return scale * total[name] / calls[name] if calls[name] else 0.0

    steps = calls["trainer.adam_step"]
    out = {
        "interpolant.sample_batch_ms": mean("interpolant.sample_batch", 1e3),
        "interpolant.busy_s": total["interpolant.sample_batch"],
        "interpolant.samples": counts.get("interpolant.samples", 0.0),
        "vector_field.loss_and_grad_ms": mean("vector_field.loss_and_grad", 1e3),
        "trainer.adam_step_ms": mean("trainer.adam_step", 1e3),
        "trainer.self_ms_per_step": 1e3 * module_self["trainer"] / steps if steps else 0.0,
        "trainer.steps": steps,
        "trainer.build_splines_s": total["trainer.build_splines"],
        "trainer.validation_s": sum(
            spans[i].duration
            for i in chosen
            if spans[i].module == "evaluation" and under(i, "trainer.")
        ),
        "vector_field.forward_batch_us": mean("vector_field.forward_batch", 1e6),
        "vector_field.forward_calls": calls["vector_field.forward_batch"],
        "vector_field.checkpoint_s": total["vector_field.checkpoint"],
        "odeint.rollout_s": sum(total[n] for n in total if n.startswith("odeint.")),
        "evaluation.eval_s": cli_driven("evaluation.evaluate_flow_model"),
        "evaluation.ar_eval_s": cli_driven("evaluation.evaluate_one_step_model"),
        "evaluation.nfe_sweep_s": total["evaluation.final_time_error_at_budget"],
        "evaluation.reverse_s": total["evaluation.reverse_time_study"],
        "metrics.build_report_s": total["metrics.build_report"],
        "spline.build_s": total["spline.build"],
        "spline.build_calls": calls["spline.build"],
        "stencil.fd_weights_s": total["stencil.fd_weights"],
        "stencil.fd_weights_calls": calls["stencil.fd_weights"],
        "datafile.read_s": total["datafile.read_dataset"],
        "datafile.write_s": total["datafile.write_dataset"],
        "datafile.bytes": counts.get("datafile.bytes", 0.0),
        "systems.generate_s": total["systems.generate"],
        "systems.subsample_s": total["systems.subsampled"],
    }
    timed_wall = sum(spans[i].duration for i in timed if spans[i].parent < 0)

    def timed_share(keep) -> float:
        return sum(spans[i].duration for i in timed if keep(i)) / timed_wall if timed_wall else 0.0

    # Inclusive shares: rollout studies the CLI drives, and spline builds.
    out["evaluation.rollout_share"] = timed_share(
        lambda i: spans[i].module == "evaluation" and under(i, "cli.")
    )
    out["spline.build_share"] = timed_share(lambda i: spans[i].name == "spline.build")
    out["trace.spans"] = len(timed)
    timed_self = defaultdict(float)
    for i in timed:
        timed_self[spans[i].module] += selves[i]
    for module in MODULES:
        out[f"{module}.self_s"] = module_self[module]
        out[f"{module}.share"] = timed_self[module] / timed_wall if timed_wall else 0.0
    return out


def partition_error(spans, indices) -> float:
    """Largest relative gap between a command's wall time and its self times.

    Self times partition each root span, so this is round-off only; a
    larger value means the spans did not nest.
    """
    selves = self_times(spans)
    per_root = defaultdict(float)
    for i in indices:
        per_root[_root(spans, i)] += selves[i]
    worst = 0.0
    for root, summed in per_root.items():
        wall = spans[root].duration
        worst = max(worst, abs(summed - wall) / wall if wall else 0.0)
    return worst
