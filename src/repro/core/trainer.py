"""The full privacy-preserving training system (paper Fig. 1), end to end.

:class:`PrivacyPreservingSVM` assembles everything the paper describes:

* each learner becomes an **HDFS data node**; its partition is stored as
  a *private* block pinned to that node (data locality — raw data never
  moves, and the namenode refuses to move it);
* one long-lived **Mapper** per learner runs the ADMM local step
  (:mod:`repro.core.mapreduce_svm`), warm-starting its QP between
  iterations;
* the **Reducer** learns only the *sums* of the local results, delivered
  by the coalition-resistant **secure summation protocol** (Section V),
  and broadcasts the new consensus over the Twister feedback channel;
* iteration repeats until the consensus converges or the budget runs
  out.

The numerical trajectory is identical (up to fixed-point rounding, about
``2^-40`` per term) to the in-process trainers, because both run the same
mappers and reducers in the same driver loop; the in-process trainers
merely sum in plaintext on a private cluster.  What this class adds is
the *system*: secure aggregation, the health and audit wiring, and the
accounting that backs the paper's privacy and scalability claims.

Example
-------
>>> from repro.data import make_blobs, train_test_split
>>> from repro.core import PrivacyPreservingSVM, horizontal_partition
>>> train, test = train_test_split(make_blobs(200, seed=0), seed=0)
>>> parts = horizontal_partition(train, 4, seed=0)
>>> model = PrivacyPreservingSVM(max_iter=30, seed=0).fit(parts)
>>> model.score(test.X, test.y) > 0.9
True
>>> model.raw_data_bytes_moved()
0.0
"""

from __future__ import annotations

import json
import warnings
from typing import Any

import numpy as np

from repro.cluster.hdfs import SimulatedHdfs
from repro.cluster.network import Network
from repro.cluster.profiling import Profiler
from repro.cluster.tracing import cost_table
from repro.cluster.twister import (
    Aggregator,
    IterationResult,
    IterativeMapper,
    IterativeMapReduceDriver,
    PlaintextAggregator,
)
from repro.core.horizontal_kernel import sample_landmarks
from repro.core.mapreduce_svm import (
    TRAINING_FILE,
    HorizontalConsensusReducer,
    HorizontalSVMMapper,
    VerticalReducerAdapter,
    VerticalSVMMapper,
    cluster_driver,
    horizontal_payloads,
    vertical_setup,
)
from repro.core.partitioning import VerticalPartition
from repro.core.results import TrainingHistory
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.secure_sum import SecureSumAggregator
from repro.data.dataset import Dataset
from repro.obs.audit import ProtocolAuditLog
from repro.obs.health import HealthMonitor, HealthPolicyError
from repro.obs.ledger import (
    DEFAULT_LEDGER_DIR,
    RunLedger,
    RunRecord,
    dataset_fingerprint,
)
from repro.svm.kernels import Kernel
from repro.svm.model import SignClassifier
from repro.utils.validation import check_matrix, check_positive

__all__ = ["PrivacyPreservingSVM"]


class PrivacyPreservingSVM(SignClassifier):
    """Privacy-preserving distributed SVM on the simulated cluster.

    Parameters
    ----------
    partitioning:
        ``"horizontal"`` or ``"vertical"`` — which of the paper's two
        schemes to run.  Must match the type passed to :meth:`fit`.
    kernel:
        ``None`` for the linear variants; a
        :class:`~repro.svm.kernels.Kernel` for the nonlinear ones.
    C, rho:
        Slack penalty and ADMM penalty (paper defaults 50 and 100).
    n_landmarks, landmark_scale:
        Reduced-consensus parameters for the horizontal kernel variant.
    max_iter, tol:
        Iteration budget and optional early-stop threshold on
        ``||z^{t+1} - z^t||^2``.
    secure:
        ``True`` (default) runs the paper's secure summation protocol;
        ``False`` installs the plaintext strawman aggregator — the
        benchmark harness uses this to price privacy.
    mask_mode:
        ``"fresh"`` (paper-faithful per-round mask exchange) or
        ``"prg"`` (pairwise-seed optimization); see
        :mod:`repro.crypto.secure_sum`.
    aggregator:
        Explicit :class:`~repro.cluster.twister.Aggregator` instance
        overriding ``secure``/``mask_mode`` — e.g. the dropout-robust
        :class:`~repro.crypto.threshold_sum.ThresholdSumAggregator`.
    fractional_bits:
        Fixed-point precision of the secure aggregation.
    eval_learner:
        Which learner's local model serves predictions for the
        horizontal kernel scheme (the paper reports learner 1 = index 0).
    seed:
        Seed for landmarks and mask randomness.
    n_map_workers:
        Thread count for the driver's map wave (see
        :class:`~repro.cluster.twister.IterativeMapReduceDriver`);
        any value yields bit-identical trajectories to sequential mode.
    on_health:
        Policy when a convergence-health detector fires during
        training: ``"warn"`` (default) issues one ``RuntimeWarning``
        each time a detector starts firing, ``"raise"`` aborts with
        :class:`~repro.obs.health.HealthPolicyError`, ``"ignore"``
        records silently.  Signals are always recorded on
        ``health_monitor_`` and in the run record either way.
    health_monitor:
        Explicit :class:`~repro.obs.health.HealthMonitor` (e.g. with
        tuned detector windows); a default one is built per fit when
        omitted.
    """

    def __init__(
        self,
        partitioning: str = "horizontal",
        kernel: Kernel | None = None,
        C: float = 50.0,
        rho: float = 100.0,
        *,
        n_landmarks: int = 20,
        landmark_scale: float = 1.0,
        max_iter: int = 100,
        tol: float | None = None,
        secure: bool = True,
        mask_mode: str = "fresh",
        aggregator: Aggregator | None = None,
        fractional_bits: int = 40,
        eval_learner: int = 0,
        seed: int | np.random.Generator | None = 0,
        qp_tol: float = 1e-8,
        qp_max_sweeps: int = 500,
        n_map_workers: int = 1,
        on_health: str = "warn",
        health_monitor: HealthMonitor | None = None,
    ) -> None:
        if partitioning not in ("horizontal", "vertical"):
            raise ValueError(f"partitioning must be 'horizontal' or 'vertical', got {partitioning!r}")
        if on_health not in ("warn", "raise", "ignore"):
            raise ValueError(
                f"on_health must be 'warn', 'raise', or 'ignore', got {on_health!r}"
            )
        self.partitioning = partitioning
        self.kernel = kernel
        self.C = check_positive(C, "C")
        self.rho = check_positive(rho, "rho")
        self.n_landmarks = int(n_landmarks)
        self.landmark_scale = landmark_scale
        self.max_iter = int(max_iter)
        self.tol = tol
        self.secure = bool(secure)
        self.mask_mode = mask_mode
        self.aggregator_override = aggregator
        self.fractional_bits = int(fractional_bits)
        self.eval_learner = int(eval_learner)
        self.seed = seed
        self.qp_tol = qp_tol
        self.qp_max_sweeps = qp_max_sweeps
        if n_map_workers < 1:
            raise ValueError(f"n_map_workers must be >= 1, got {n_map_workers}")
        self.n_map_workers = int(n_map_workers)
        self.on_health = on_health
        self._health_monitor_override = health_monitor

        self.network_: Network | None = None
        self.profiler_: Profiler | None = None
        self.hdfs_: SimulatedHdfs | None = None
        self.driver_: IterativeMapReduceDriver | None = None
        self.history_: TrainingHistory = TrainingHistory()
        self.health_monitor_: HealthMonitor | None = None
        self.audit_log_: ProtocolAuditLog | None = None
        self.dataset_fingerprint_: dict[str, Any] | None = None
        self.landmarks_: np.ndarray | None = None
        self._reducer: HorizontalConsensusReducer | VerticalReducerAdapter | None = None
        self._partition: VerticalPartition | None = None
        self._n_learners = 0

    # -- training --------------------------------------------------------

    def fit(self, data: list[Dataset] | VerticalPartition) -> "PrivacyPreservingSVM":
        """Train on partitioned data matching the configured scheme."""
        reducer: HorizontalConsensusReducer | VerticalReducerAdapter
        if self.partitioning == "horizontal":
            if not isinstance(data, list):
                raise TypeError("horizontal training expects a list of Dataset partitions")
            payloads, reducer = self._prepare_horizontal(data)
            mapper_factory: type[IterativeMapper] = HorizontalSVMMapper
        else:
            if not isinstance(data, VerticalPartition):
                raise TypeError("vertical training expects a VerticalPartition")
            self._partition = data
            payloads, reducer = vertical_setup(
                data, C=self.C, rho=self.rho, kernel=self.kernel, tol=self.tol
            )
            mapper_factory = VerticalSVMMapper

        self._n_learners = len(payloads)
        self._reducer = reducer
        self.dataset_fingerprint_ = self._fingerprint(data)

        profiler = Profiler()
        network = Network(metrics=profiler)
        audit = ProtocolAuditLog(metrics=profiler, tracer=profiler.tracer)
        health = self._health_monitor_override or HealthMonitor()
        health.metrics = profiler
        health.tracer = profiler.tracer
        driver = cluster_driver(
            payloads,
            mapper_factory,
            reducer,
            self._make_aggregator(audit),
            network=network,
            n_map_workers=self.n_map_workers,
            on_round=self._health_hook(reducer.history, health),
        )

        # Expose the run's observability handles before the driver loop
        # so an on_health="raise" abort still leaves the partial run
        # (history, trace, audit log) inspectable.
        self.network_ = network
        self.profiler_ = profiler
        self.hdfs_ = driver.hdfs
        self.driver_ = driver
        self.history_ = reducer.history
        self.health_monitor_ = health
        self.audit_log_ = audit
        try:
            driver.run(TRAINING_FILE, max_iterations=self.max_iter)
        finally:
            health.finalize()
        return self

    def _health_hook(self, history: TrainingHistory, health: HealthMonitor) -> Any:
        """Per-round driver callback streaming metrics into the monitor.

        Every signal is recorded on the monitor; ``on_health="warn"``
        warns once per episode — when a detector starts firing, not on
        every round it keeps firing — attributed to the line that called
        :meth:`fit`.
        """
        firing: set[str] = set()

        def on_round(result: IterationResult) -> None:
            nonlocal firing
            record = history.records[-1]
            signals = health.observe(
                record.iteration,
                z_change_sq=record.z_change_sq,
                primal_residual=record.primal_residual,
                residual_available=record.residual_available,
                bytes_delta=result.bytes_delta,
            )
            if signals and self.on_health == "raise":
                raise HealthPolicyError(signals[0].message)
            started = [s for s in signals if s.detector not in firing]
            firing = {s.detector for s in signals}
            if self.on_health == "warn":
                for signal in started:
                    # Frames: on_round <- driver.run <- fit <- the caller.
                    warnings.warn(signal.message, RuntimeWarning, stacklevel=4)

        return on_round

    def _fingerprint(self, data: list[Dataset] | VerticalPartition) -> dict[str, Any]:
        """Aggregate dataset identity for the run ledger (hash + shape only)."""
        if isinstance(data, list):
            X = np.vstack([p.X for p in data])
            y = np.concatenate([p.y for p in data])
        else:
            X = np.hstack(list(data.blocks))
            y = data.y
        return {
            "fingerprint": dataset_fingerprint(X, y),
            "n_samples": int(X.shape[0]),
            "n_features": int(X.shape[1]),
            "n_partitions": self._n_learners,
        }

    @property
    def config_(self) -> dict[str, Any]:
        """Hyperparameters as recorded in the run ledger."""
        return {
            "partitioning": self.partitioning,
            "kernel": type(self.kernel).__name__ if self.kernel else None,
            "C": self.C,
            "rho": self.rho,
            "n_landmarks": self.n_landmarks,
            "max_iter": self.max_iter,
            "tol": self.tol,
            "secure": self.secure,
            "mask_mode": self.mask_mode,
            "fractional_bits": self.fractional_bits,
            "n_map_workers": self.n_map_workers,
            "on_health": self.on_health,
        }

    def _make_aggregator(self, audit: ProtocolAuditLog | None = None) -> Aggregator:
        if self.aggregator_override is not None:
            # Wire the run's audit log into a caller-supplied aggregator
            # that supports it but has none of its own.
            if getattr(self.aggregator_override, "audit", False) is None:
                self.aggregator_override.audit = audit
            return self.aggregator_override
        if not self.secure:
            return PlaintextAggregator()
        codec = FixedPointCodec(
            fractional_bits=self.fractional_bits,
            max_terms=max(self._n_learners, 2),
        )
        return SecureSumAggregator(
            codec=codec, mode=self.mask_mode, seed=self.seed, audit=audit
        )

    def _prepare_horizontal(
        self, partitions: list[Dataset]
    ) -> tuple[list[dict[str, Any]], HorizontalConsensusReducer]:
        payloads = horizontal_payloads(
            partitions,
            C=self.C,
            rho=self.rho,
            qp_tol=self.qp_tol,
            qp_max_sweeps=self.qp_max_sweeps,
        )
        n_consensus = partitions[0].n_features
        if self.kernel is not None:
            self.landmarks_ = sample_landmarks(
                self.n_landmarks, n_consensus, scale=self.landmark_scale, seed=self.seed
            )
            payloads = [
                dict(payload, kernel=self.kernel, landmarks=self.landmarks_)
                for payload in payloads
            ]
            n_consensus = self.n_landmarks
        return payloads, HorizontalConsensusReducer(n_consensus, tol=self.tol)

    # -- prediction --------------------------------------------------------

    def _workers(self) -> list[Any]:
        if self.driver_ is None:
            raise RuntimeError("model must be fit before use")
        return [m.worker for m in self.driver_.mappers()]

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Joint decision scores for new points ``X``.

        * horizontal linear: the consensus hyperplane ``(z, s)``;
        * horizontal kernel: the ``eval_learner``'s representer model;
        * vertical: the sum of every learner's score share plus the
          Reducer's bias (the deployment-faithful evaluation path).
        """
        self._require_fitted()
        X = check_matrix(X, "X")
        if self.partitioning == "horizontal":
            reducer = self._reducer
            if self.kernel is None:
                return X @ reducer.z + reducer.s
            worker = self._workers()[self.eval_learner]
            return worker.local_decision_function(X)
        blocks = self._partition.split_features(X)
        scores = np.zeros(X.shape[0])
        for worker, block in zip(self._workers(), blocks):
            scores += worker.score_share(block)
        return scores + self._reducer.logic.bias

    # -- accounting ----------------------------------------------------------

    def raw_data_bytes_moved(self) -> float:
        """Bytes of raw training data that crossed the network.

        This is the paper's data-locality/privacy headline; it must be
        0 for private files (replication and remote reads are the only
        ways raw data could move, and both are disabled for them).
        """
        self._require_fitted()
        metrics = self.network_.metrics
        return metrics.get("network.bytes.hdfs-replication") + metrics.get(
            "network.bytes.hdfs-remote-read"
        )

    def communication_summary(self) -> dict[str, float]:
        """Byte/message/crypto counters for the whole training run."""
        self._require_fitted()
        network = self.network_
        iterations = max(len(self.history_), 1)
        return {
            "iterations": float(len(self.history_)),
            "total_bytes": network.bytes_sent(),
            "total_messages": network.messages_sent(),
            "bytes_per_iteration": network.bytes_sent() / iterations,
            "broadcast_bytes": network.bytes_sent("broadcast"),
            "mask_bytes": network.bytes_sent("mask"),
            "masked_share_bytes": network.bytes_sent("masked-share"),
            "plaintext_consensus_bytes": network.bytes_sent("consensus"),
            "raw_data_bytes_moved": self.raw_data_bytes_moved(),
            "masks_generated": network.metrics.get("crypto.masks_generated"),
            "secure_sum_rounds": network.metrics.get("crypto.secure_sum_rounds"),
            "simulated_time_s": network.simulated_time_s,
        }

    def iteration_cost_table(self) -> tuple[list[str], list[list[Any]]]:
        """Per-iteration cost breakdown ``(headers, rows)`` from the trace.

        One row per training iteration (plus a leading ``setup`` row for
        pre-round traffic such as the HDFS load and PRG seed exchange);
        columns are bytes by message kind, totals, crypto op count, and
        wall/simulated time.  The column sums reconcile with the
        :class:`~repro.cluster.metrics.MetricRegistry` totals.
        """
        self._require_fitted()
        return cost_table(self.network_.tracer.iteration_costs())

    def export_trace(self, path: str | None = None, format: str = "chrome") -> str:
        """Serialize the training trace.

        Parameters
        ----------
        path:
            Optional output file; when given the trace is also written
            there.
        format:
            ``"chrome"`` for Chrome Trace Event JSON (load at
            ``chrome://tracing`` or in Perfetto) or ``"jsonl"`` for
            newline-delimited span/event/counter records.

        Returns the serialized trace as a string.
        """
        self._require_fitted()
        if format == "chrome":
            payload = json.dumps(self.network_.tracer.to_chrome_trace(), indent=1)
        elif format == "jsonl":
            payload = self.network_.tracer.to_jsonl()
        else:
            raise ValueError(f"format must be 'chrome' or 'jsonl', got {format!r}")
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(payload)
        return payload

    def run_record(self, *, kind: str = "train", label: str = "") -> RunRecord:
        """Build this run's ledger record (aggregates only — no raw data).

        Joins the training history with the trace-derived per-iteration
        costs, final counters, the health verdict, and the protocol
        audit summary; see :mod:`repro.obs.ledger` for the schema.
        """
        self._require_fitted()
        return RunRecord.from_model(self, kind=kind, label=label)

    def save_run(
        self,
        ledger_dir: str = DEFAULT_LEDGER_DIR,
        *,
        kind: str = "train",
        label: str = "",
    ) -> str:
        """Persist this run into the ledger; returns the new run id."""
        return RunLedger(ledger_dir).record(self.run_record(kind=kind, label=label))

    def _require_fitted(self) -> None:
        if self.network_ is None:
            raise RuntimeError("model must be fit before use")
