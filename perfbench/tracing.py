"""In-memory span tracer for the steerkit benchmark.

Spans are recorded only from the benchmark: the tracer replaces a steerkit
function on the module where its caller looks the name up (for example
``steerkit.reproduce.simulate_counts`` or ``steerkit.simulate.trace_norm``)
with a wrapper that records one span per call, and puts the original back
afterwards.  A span is named after the module that defines the function
and the function's name (``simulate.simulate_counts``), whichever module
it was looked up on.  A name that no longer exists is reported as absent.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("states", "frames", "steering", "simulate", "reproduce", "lhs")

# Names wrapped on each module, i.e. the calls the traced code makes into
# a layer's public functions.  Calls inside one layer are wrapped only where
# a per-layer metric needs them (steering.trace_norm, states.validate_state).
WRAPPED = {
    "steerkit.reproduce": (
        "build_report", "singlet_state", "spin_correlation_matrix", "predicted_correlation",
        "simulate_counts", "estimate_correlation", "propagate_uncertainty", "trace_norm",
        "nss_parameter", "assess_ris", "assess_nss", "pair_in_plane", "tilted_pair",
        "standard_triad", "misaligned_triad", "tetrahedron_frame",
    ),
    "steerkit.simulate": (
        "outcome_probabilities", "spin_correlation_matrix", "validate_state", "werner_state",
        "trace_norm", "nss_parameter", "unit",
    ),
    "steerkit.states": ("state_from_spec", "spin_correlation_matrix", "validate_state"),
    "steerkit.frames": (
        "tilted_pair", "pair_in_plane", "rotate_frame", "standard_triad", "rotation_about",
    ),
    "steerkit.steering": (
        "predicted_correlation", "assess_ris", "assess_nss", "ris_predicted", "nss_predicted",
        "min_nss_over_rotations", "trace_norm", "nss_parameter", "projection_matrix",
    ),
    "steerkit.lhs": ("lhs_membership",),
}


def _membership_span(args, kwargs) -> str:
    matrix = args[0] if args else kwargs["matrix"]
    return f"lhs.membership_n{np.shape(matrix)[-1]}"


# lhs_membership spans are split by Bob's dimension, which sets their cost.
SPAN_NAMERS = {"lhs.lhs_membership": _membership_span}

# Counts taken from a call's bound arguments: span -> (counter, argument).
ARGUMENT_COUNTERS = {
    "simulate.propagate_uncertainty": ("simulate.bootstrap_draws", "n_resamples"),
}

# Per-layer metrics: (name, unit, kind, spans).  kind "self" sums self time
# per operation, "calls" counts spans per operation, "count" sums an argument
# counter per operation.  A span entry ending in "." matches a whole layer.
LAYER_METRICS = (
    ("simulate.propagate_uncertainty.self_ms", "ms", "self", ("simulate.propagate_uncertainty",)),
    ("simulate.bootstrap_draws", "count", "count", ("simulate.bootstrap_draws",)),
    ("steering.trace_norm.calls", "count", "calls", ("steering.trace_norm",)),
    ("steering.trace_norm.self_ms", "ms", "self", ("steering.trace_norm",)),
    ("simulate.outcome_probabilities.calls", "count", "calls", ("simulate.outcome_probabilities",)),
    ("simulate.outcome_probabilities.self_ms", "ms", "self", ("simulate.outcome_probabilities",)),
    ("simulate.simulate_counts.self_ms", "ms", "self", ("simulate.simulate_counts",)),
    ("simulate.estimate_correlation.self_ms", "ms", "self", ("simulate.estimate_correlation",)),
    ("reproduce.build_report.self_ms", "ms", "self", ("reproduce.build_report",)),
    ("states.spin_correlation_matrix.calls", "count", "calls", ("states.spin_correlation_matrix",)),
    ("states.spin_correlation_matrix.self_ms", "ms", "self", ("states.spin_correlation_matrix",)),
    ("states.validate_state.calls", "count", "calls", ("states.validate_state",)),
    ("states.validate_state.self_ms", "ms", "self", ("states.validate_state",)),
    ("states.state_from_spec.self_ms", "ms", "self", ("states.state_from_spec",)),
    ("steering.predicted_correlation.self_ms", "ms", "self", ("steering.predicted_correlation",)),
    ("steering.nss_parameter.self_ms", "ms", "self", ("steering.nss_parameter",)),
    ("steering.assess.self_ms", "ms", "self", ("steering.assess_ris", "steering.assess_nss")),
    ("steering.ris_predicted.self_ms", "ms", "self", ("steering.ris_predicted",)),
    ("steering.nss_predicted.self_ms", "ms", "self", ("steering.nss_predicted",)),
    ("steering.min_nss_over_rotations.self_ms", "ms", "self", ("steering.min_nss_over_rotations",)),
    ("lhs.lhs_membership.calls", "count", "calls", ("lhs.membership_n2", "lhs.membership_n3")),
    ("lhs.membership_n2.self_ms", "ms", "self", ("lhs.membership_n2",)),
    ("lhs.membership_n3.self_ms", "ms", "self", ("lhs.membership_n3",)),
) + tuple((f"{layer}.self_ms", "ms", "self", (f"{layer}.",)) for layer in LAYERS)


def _matches(name: str, patterns: tuple[str, ...]) -> bool:
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)


class Tracer:
    """Wraps steerkit's functions while installed and keeps their spans."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, operation index)
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                layer = getattr(fn, "__module__", "").rpartition(".")[2]
                if not (inspect.isfunction(fn) and layer in LAYERS):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(fn, f"{layer}.{fn.__name__}")
                self._patches.append((module, attr, fn, wrapper))

    def _wrap(self, fn, name: str):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns
        namer = SPAN_NAMERS.get(name)
        counter = ARGUMENT_COUNTERS.get(name)
        signature = inspect.signature(fn)
        if counter is not None and counter[1] not in signature.parameters:
            self.absent.append(f"{name}({counter[1]})")
            counter = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts[counter[0]] += int(bound.arguments[counter[1]])
            span_name = namer(args, kwargs) if namer else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.op)

        return traced

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def self_times(self) -> list[tuple[str, int, int]]:
        """(name, operation, self ns) of every span."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (name, op, end - start - covered[i])
            for i, (name, start, end, _, op) in enumerate(self.spans)
        ]

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation values of LAYER_METRICS over `ops` traced operations."""
        selfs = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, _, self_ns in selfs:
            totals[name] += self_ns
            calls[name] += 1
        metrics = {}
        for metric, unit, kind, patterns in LAYER_METRICS:
            if kind == "self":
                value = sum(v for n, v in totals.items() if _matches(n, patterns)) / 1e6
            elif kind == "calls":
                value = sum(v for n, v in calls.items() if _matches(n, patterns))
            else:
                value = sum(self.counts[p] for p in patterns)
            metrics[metric] = (value / ops, unit)
        return metrics

    def self_sum_p50_ms(self) -> float:
        """Median over traced operations of the summed self time of their spans."""
        per_op: dict[int, int] = defaultdict(int)
        for _, op, self_ns in self.self_times():
            per_op[op] += self_ns
        return statistics.median(per_op.values()) / 1e6

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{op}\t{name}\t{start}\t{end}\t{parent}\n")
