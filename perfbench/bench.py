"""Workloads, fits, correctness checks and metrics of the repo benchmark.

Every fit goes through the public :class:`repro.PrivacyPreservingSVM` API
with C=50, rho=100, ``tol=None`` (a fixed round count) and one map worker.
:func:`measure` gives the end-to-end metrics with nothing wrapped;
:func:`measure_traced` interleaves untraced fits with fits under
:class:`layertrace.LayerTrace` and gives the per-layer metrics.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import PrivacyPreservingSVM, horizontal_partition, vertical_partition
from repro.core.partitioning import VerticalPartition
from repro.data import (
    Dataset,
    make_higgs_like,
    make_linear_task,
    make_ocr_like,
    train_test_split,
)

import layertrace

C = 50.0
RHO = 100.0


@dataclass(frozen=True)
class Workload:
    """One benchmark input: data shape, partitioning and round count."""

    name: str
    partitioning: str
    mask_mode: str
    n_learners: int
    rounds: int
    accuracy_floor: float
    test_fraction: float
    # Data draws one run fits, all derived from its seed.  Solver effort
    # and the quality metrics differ from draw to draw by up to ~20%, so
    # a run spreads its fits over several draws.
    draws: int
    make_data: Callable[[int], Dataset]

    def draw_seeds(self, seed: int) -> list[int]:
        """Data seeds of one run's draws; disjoint across run seeds."""
        return [seed * self.draws + k for k in range(self.draws)]


WORKLOADS = {
    w.name: w
    for w in (
        # Local box-QP solves dominate: 8 learners x 250 rows, 28 features.
        # The large test set keeps test accuracy steady from seed to seed.
        Workload(
            "hlin-higgs-m8", "horizontal", "fresh", n_learners=8, rounds=10,
            accuracy_floor=0.60, test_fraction=0.8, draws=3,
            make_data=lambda seed: make_higgs_like(10000, seed=seed),
        ),
        # Fresh-mask secure sum dominates: 16 learners x 32 rows exchange
        # 240 masks of 2049 coordinates per round; the QPs are only 32 x 32.
        Workload(
            "hlin-wide-m16", "horizontal", "fresh", n_learners=16, rounds=20,
            accuracy_floor=0.55, test_fraction=2 / 3, draws=6,
            make_data=lambda seed: make_linear_task(1536, 2048, noise=0.0, seed=seed),
        ),
        # No box QP: the reducer's knapsack and the PRG-mode secure sum
        # over 32000-long score vectors share the time.
        Workload(
            "vlin-ocr-m4-prg", "vertical", "prg", n_learners=4, rounds=30,
            accuracy_floor=0.95, test_fraction=0.2, draws=10,
            make_data=lambda seed: make_ocr_like(40000, seed=seed),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated data of one workload at one seed."""

    train: Dataset
    test: Dataset
    parts: list[Dataset] | VerticalPartition


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Split and partition the workload's data, all from ``seed``.

    The split is not stratified, so every draw has exactly the same
    number of training rows.
    """
    train, test = train_test_split(
        workload.make_data(seed),
        test_fraction=workload.test_fraction,
        stratify=False,
        seed=seed,
    )
    if workload.partitioning == "horizontal":
        parts: list[Dataset] | VerticalPartition = horizontal_partition(
            train, workload.n_learners, seed=seed
        )
    else:
        parts = vertical_partition(train, workload.n_learners, seed=seed)
    return Inputs(train, test, parts)


@dataclass
class FitResult:
    """Everything the benchmark keeps from one ``fit()``; not the model."""

    rounds: int
    fit_s: float = float("nan")
    round_s: list[float] = field(default_factory=list)
    bytes_per_round: float = float("nan")
    messages_per_round: float = float("nan")
    test_accuracy: float = float("nan")
    train_objective: float = float("nan")
    health_warnings: int = 0
    health_verdict: str = ""
    audit_violations: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        """Fit wall time outside the driver's rounds."""
        return self.fit_s - sum(self.round_s)

    @property
    def outputs(self) -> tuple[float, float, float, float]:
        """The values that must repeat exactly at a fixed seed."""
        return (
            self.bytes_per_round,
            self.messages_per_round,
            self.test_accuracy,
            self.train_objective,
        )


def train_objective(model: PrivacyPreservingSVM, train: Dataset) -> float:
    """Linear-SVM primal 1/2 |w|^2 + C sum hinge, with (w, b) probed via
    ``decision_function``: b = f(0) and w_j = f(e_j) - b."""
    d = train.n_features
    probes = model.decision_function(np.vstack([np.zeros(d), np.eye(d)]))
    b, w = probes[0], probes[1:] - probes[0]
    hinge = np.maximum(0.0, 1.0 - train.y * (train.X @ w + b))
    return float(0.5 * w @ w + C * hinge.sum())


def fit_once(workload: Workload, inputs: Inputs, seed: int, rounds: int) -> FitResult:
    """Fit once and check the outputs; an exception counts as a failure."""
    # Earlier models sit in reference cycles (network <-> tracer); free
    # them first so peak RSS is that of one fit, not of a pile of them.
    gc.collect()
    result = FitResult(rounds)
    model = PrivacyPreservingSVM(
        workload.partitioning,
        C=C,
        rho=RHO,
        max_iter=rounds,
        tol=None,
        mask_mode=workload.mask_mode,
        seed=seed,
    )
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            model.fit(inputs.parts)
            result.fit_s = time.perf_counter() - start
        result.health_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        result.round_s = [r.wall_time_s for r in model.driver_.history]
        summary = model.communication_summary()
        result.bytes_per_round = summary["bytes_per_iteration"]
        result.messages_per_round = summary["total_messages"] / summary["iterations"]
        result.test_accuracy = model.score(inputs.test.X, inputs.test.y)
        result.train_objective = train_objective(model, inputs.train)
        result.health_verdict = model.health_monitor_.verdict()
        result.audit_violations = len(model.audit_log_.violations)
        result.failures = check_fit(model, result, workload)
    except Exception:  # a failed fit is counted, reported and the run goes on
        result.failures = [traceback.format_exc()]
    return result


def check_fit(model: PrivacyPreservingSVM, result: FitResult, workload: Workload) -> list[str]:
    """The correctness checks every fit must pass."""
    failures = []
    raw = model.raw_data_bytes_moved()
    if raw != 0:
        failures.append(f"{raw} raw data bytes crossed the network")
    if not model.audit_log_.ok:
        failures.append(f"protocol audit failed: {model.audit_log_.violations}")
    # The health monitor's own "diverging" verdict is reported, not
    # enforced: it fires on higgs draws whose z-change series plateaus
    # near 1e-3 (see README).  Divergence is checked on the series itself.
    series = [record.z_change_sq for record in model.history_.records]
    if not np.all(np.isfinite(series)) or series[-1] > series[0]:
        failures.append(f"consensus diverged: z-change series {series}")
    if len(result.round_s) != result.rounds:
        failures.append(f"ran {len(result.round_s)} rounds, expected {result.rounds}")
    if result.rounds == workload.rounds and result.test_accuracy < workload.accuracy_floor:
        failures.append(
            f"test accuracy {result.test_accuracy:.4f} is below the floor "
            f"{workload.accuracy_floor}"
        )
    return failures


@dataclass
class RunResult:
    """What one benchmark run prints as its last line."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures

    def add(self, fit: FitResult, reference: FitResult | None = None) -> FitResult:
        """Count a fit; a full fit must repeat the reference's outputs."""
        if reference is not None and not fit.failures and fit.outputs != reference.outputs:
            fit.failures.append(
                f"outputs {fit.outputs} differ from the first fit's {reference.outputs}"
            )
        self.attempted += 1
        if fit.failures:
            self.failed += 1
            for failure in fit.failures:
                print(f"FAILED: {failure}", file=sys.stderr)
        return fit


def measure(workload: Workload, seed: int, seconds: float) -> RunResult:
    """End-to-end metrics, nothing wrapped.

    Cycles through the run's draws, fitting each in full and then for one
    round, until ``seconds`` have passed and every draw was fitted.  A
    draw's inputs are made afresh for each fit, so only one draw is in
    memory at a time.  Both kinds of fit sample set-up time; only full
    fits give the other metrics.  Timings are medians over all fits; the
    repeatable outputs are medians over draws, because one draw in a few
    can be far off: one moved a six-draw mean train objective by 60%.
    """
    run = RunResult()
    seeds = workload.draw_seeds(seed)
    inputs = make_inputs(workload, seeds[0])
    run.add(fit_once(workload, inputs, seeds[0], 1))  # warm-up, not timed
    first: dict[int, FitResult] = {}
    full: list[FitResult] = []
    setup: list[float] = []
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + seconds
    while len(full) < len(seeds) or time.perf_counter() < deadline:
        draw = seeds[len(full) % len(seeds)]
        del inputs
        inputs = make_inputs(workload, draw)
        fit = run.add(fit_once(workload, inputs, draw, workload.rounds), first.get(draw))
        probe = run.add(fit_once(workload, inputs, draw, 1))
        first.setdefault(draw, fit)
        full.append(fit)
        setup.extend((fit.setup_s, probe.setup_s))
        if len(full) == 1:
            # Read after one full fit, not at the end: later fits fragment
            # the heap, so the high-water mark would grow with their count.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if run.failed:
        return run

    def median_over_draws(key: str) -> float:
        return statistics.median(getattr(fit, key) for fit in first.values())

    run.metrics = {
        "fit_s": statistics.median(f.fit_s for f in full),
        "setup_s": statistics.median(setup),
        "round_s_p50": statistics.median(s for f in full for s in f.round_s),
        "peak_rss_mb": peak_rss_mb,
        "bytes_per_round": median_over_draws("bytes_per_round"),
        "messages_per_round": median_over_draws("messages_per_round"),
        "test_accuracy": median_over_draws("test_accuracy"),
        "train_objective": median_over_draws("train_objective"),
    }
    return run


def measure_traced(workload: Workload, seed: int, seconds: float) -> RunResult:
    """Per-layer metrics from traced fits of the run's first draw.

    Untraced and traced full fits alternate, starting and ending with an
    untraced one, so every traced fit sits between two fits that must
    repeat its outputs exactly.
    """
    run = RunResult()
    seed = workload.draw_seeds(seed)[0]
    inputs = make_inputs(workload, seed)
    run.add(fit_once(workload, inputs, seed, 1))  # warm-up, not timed
    first = run.add(fit_once(workload, inputs, seed, workload.rounds))
    untraced, traced, layers = [first.fit_s], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        with layertrace.LayerTrace() as trace:
            fit = fit_once(workload, inputs, seed, workload.rounds)
        if not fit.failures:  # a failed fit may have left spans unfinished
            metrics, failures = trace.layer_metrics(fit.round_s)
            fit.failures.extend(failures)
            metrics["obs.health.warnings"] = float(fit.health_warnings)
            metrics["obs.health.diverging"] = float(fit.health_verdict == "diverging")
            metrics["obs.audit.violations"] = float(fit.audit_violations)
            layers.append(metrics)
        traced.append(run.add(fit, first).fit_s)
        untraced.append(run.add(fit_once(workload, inputs, seed, workload.rounds), first).fit_s)
    leftover = layertrace.installed()
    if leftover:
        run.failures.append(f"wrappers left installed after tracing: {leftover}")
    if not run.correct:
        return run
    run.metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    run.metrics["trace.fit_s"] = statistics.median(traced)
    run.metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return run
