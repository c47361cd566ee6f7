"""Outside-in layer tracing for the benchmark's traced run.

:class:`LayerTrace` wraps the public entry points of each repo layer
(the table in ``README.md``) for the duration of a ``with`` block, records
one :class:`Span` per call, and restores every original attribute on
exit.  Each name is patched where the program looks it up: module-level
functions in the module that imported them, methods and properties on the
class that defines them.  Nothing under ``src/`` is edited.

Spans nest by call stack (the map wave runs on one thread in every
workload), so a layer's busy time and its children's are both available.
Rounds are recovered after the fit: the driver opens every round with the
reducer's broadcast, so the k-th top-level ``network.broadcast`` span
starts round k.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro.core.horizontal_linear as horizontal_linear
import repro.core.vertical_linear as vertical_linear
from repro.cluster.hdfs import SimulatedHdfs
from repro.cluster.network import Network
from repro.cluster.twister import IterativeMapReduceDriver
from repro.core.mapreduce_svm import (
    HorizontalConsensusReducer,
    HorizontalSVMMapper,
    VerticalReducerAdapter,
    VerticalSVMMapper,
)
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.secure_sum import SecureSumAggregator
from repro.obs.audit import ProtocolAuditLog
from repro.obs.health import HealthMonitor

CODEC_OPS = ("random_vector_array", "encode_array", "add", "subtract", "decode")

# Layers called directly by the round loop, between the driver's round
# start and end timestamps; every other layer nests inside one of these
# or runs outside the rounds.
ROUND_LAYERS = ("network.broadcast", "core.local_step", "crypto.aggregate", "core.reduce")

# Slack for float rounding when a sum of span durations is compared with
# the round's wall time; every span lies inside the round's interval.
_ROUND_SLACK_S = 1e-9

Describe = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    """One call into a layer: wall interval, enclosing span, call facts."""

    layer: str
    start: float
    parent: int | None
    end: float = float("nan")
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _qp_info(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"sweeps": result.iterations, "converged": result.converged}


def _knapsack_info(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"iterations": result.iterations}


def _send_info(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": result.size_bytes}


def _aggregate_info(args: tuple, kwargs: dict, result: Any) -> dict:
    """Compare the secure sum with the plaintext sum of the same outputs."""
    aggregator, outputs = args[0], args[1]
    fractional_bits = aggregator.codec.fractional_bits if aggregator.codec else 40
    error = 0.0
    for key, secure in result.items():
        # Extended precision keeps the reference's own rounding far below
        # the tolerance.
        plain = sum(np.asarray(named[key], dtype=np.longdouble) for named in outputs.values())
        error = max(error, float(np.max(np.abs(np.asarray(secure, dtype=np.longdouble) - plain))))
    return {"max_abs_error": error, "tolerance": len(outputs) * 2.0**-fractional_bits}


def hooks() -> list[tuple[object, str, str, Describe | None]]:
    """``(owner, attribute, layer, describe)`` for every wrapped entry point."""
    return [
        (horizontal_linear, "solve_box_qp", "svm.qp", _qp_info),
        (vertical_linear, "solve_quadratic_knapsack", "svm.knapsack", _knapsack_info),
        (HorizontalSVMMapper, "map", "core.local_step", None),
        (VerticalSVMMapper, "map", "core.local_step", None),
        (HorizontalConsensusReducer, "reduce", "core.reduce", None),
        (VerticalReducerAdapter, "reduce", "core.reduce", None),
        (SecureSumAggregator, "aggregate", "crypto.aggregate", _aggregate_info),
        *[(FixedPointCodec, op, f"crypto.codec.{op}", None) for op in CODEC_OPS],
        (Network, "send", "network.send", _send_info),
        (Network, "broadcast", "network.broadcast", None),
        (SimulatedHdfs, "put", "hdfs.put", None),
        (IterativeMapReduceDriver, "setup", "twister.setup", None),
        (HealthMonitor, "observe", "obs.health.observe", None),
        (ProtocolAuditLog, "violations", "obs.audit.violations", None),
    ]


class LayerTrace:
    """Context manager that times every hooked layer while it is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, Any]] = []

    def __enter__(self) -> "LayerTrace":
        try:
            for owner, attr, layer, describe in hooks():
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, describe))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Any, layer: str, describe: Describe | None) -> Any:
        if isinstance(original, property):
            return property(self._timed(original.fget, layer, describe))
        return self._timed(original, layer, describe)

    def _timed(self, func: Callable, layer: str, describe: Describe | None) -> Callable:
        spans, open_stack = self.spans, self._open

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = Span(layer, 0.0, open_stack[-1] if open_stack else None)
            open_stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_stack.pop()
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        wrapper.traced_layer = layer  # type: ignore[attr-defined]
        return wrapper

    # -- analysis -----------------------------------------------------------

    def rounds(self) -> list[list[Span]]:
        """Top-level spans grouped by driver round (setup spans dropped)."""
        grouped: list[list[Span]] = []
        for span in self.spans:
            if span.parent is not None:
                continue
            if span.layer == "network.broadcast":
                grouped.append([])
            if grouped:
                grouped[-1].append(span)
        return grouped

    def layer_metrics(self, round_walls: list[float]) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of one traced fit, and the checks it failed.

        ``round_walls`` are the driver's per-round wall times
        (``driver_.history[*].wall_time_s``).
        """
        failures: list[str] = []
        by_layer: dict[str, list[Span]] = {}
        for span in self.spans:
            by_layer.setdefault(span.layer, []).append(span)

        def calls(layer: str) -> float:
            return float(len(by_layer.get(layer, [])))

        def busy(layer: str) -> float:
            return float(sum(s.duration for s in by_layer.get(layer, [])))

        def info_sum(layer: str, key: str) -> float:
            return float(sum(s.info[key] for s in by_layer.get(layer, [])))

        rounds = self.rounds()
        if len(rounds) != len(round_walls):
            failures.append(
                f"trace saw {len(rounds)} rounds, the driver ran {len(round_walls)}"
            )
        overhead = 0.0
        slowest_learner = 0.0
        for index, (spans, wall) in enumerate(zip(rounds, round_walls)):
            layered = sum(s.duration for s in spans if s.layer in ROUND_LAYERS)
            if layered > wall + _ROUND_SLACK_S:
                failures.append(
                    f"round {index}: layer busy time {layered:.6f}s exceeds "
                    f"round wall time {wall:.6f}s"
                )
            overhead += wall - layered
            local = [s.duration for s in spans if s.layer == "core.local_step"]
            slowest_learner += max(local, default=0.0)

        qp_calls = calls("svm.qp")
        unconverged = sum(not s.info["converged"] for s in by_layer.get("svm.qp", []))
        errors = [s.info["max_abs_error"] for s in by_layer.get("crypto.aggregate", [])]
        for span in by_layer.get("crypto.aggregate", []):
            if span.info["max_abs_error"] > span.info["tolerance"]:
                failures.append(
                    f"secure aggregate differs from the plaintext sum by "
                    f"{span.info['max_abs_error']:.3g} > {span.info['tolerance']:.3g}"
                )

        metrics = {
            "svm.qp.calls": qp_calls,
            "svm.qp.busy_s": busy("svm.qp"),
            "svm.qp.sweeps": info_sum("svm.qp", "sweeps"),
            "svm.qp.unconverged_ratio": unconverged / qp_calls if qp_calls else 0.0,
            "core.local_step.calls": calls("core.local_step"),
            "core.local_step.busy_s": busy("core.local_step"),
            "core.local_step.max_s": slowest_learner,
            "core.reduce.busy_s": busy("core.reduce"),
            "svm.knapsack.calls": calls("svm.knapsack"),
            "svm.knapsack.busy_s": busy("svm.knapsack"),
            "svm.knapsack.iterations": info_sum("svm.knapsack", "iterations"),
            "crypto.aggregate.calls": calls("crypto.aggregate"),
            "crypto.aggregate.busy_s": busy("crypto.aggregate"),
            "crypto.secure_sum.max_abs_error": max(errors, default=0.0),
            "network.send.calls": calls("network.send"),
            "network.send.bytes": info_sum("network.send", "bytes"),
            "network.send.busy_s": busy("network.send"),
            "network.broadcast.busy_s": busy("network.broadcast"),
            "hdfs.put.busy_s": busy("hdfs.put"),
            "twister.setup.busy_s": busy("twister.setup"),
            "twister.driver_overhead_s": overhead,
            "obs.health.observe.busy_s": busy("obs.health.observe"),
        }
        for op in CODEC_OPS:
            metrics[f"crypto.codec.{op}.calls"] = calls(f"crypto.codec.{op}")
            metrics[f"crypto.codec.{op}.busy_s"] = busy(f"crypto.codec.{op}")
        return metrics, failures


def installed() -> list[str]:
    """Hooked names that currently hold a :class:`LayerTrace` wrapper."""
    found = []
    for owner, attr, _, _ in hooks():
        current = vars(owner)[attr]
        if isinstance(current, property):
            current = current.fget
        if hasattr(current, "traced_layer"):
            found.append(f"{owner.__name__}.{attr}")
    return found
