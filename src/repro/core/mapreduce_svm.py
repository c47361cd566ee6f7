"""The ADMM engine: every variant's round, run on the Twister driver.

The paper's recipe (Section IV) is one round for all variants: a local
solve as Map(), a secure sum, a consensus step as Reduce().  Here it is
written once.  The mappers wrap a variant's worker; the reducers alone
form the consensus, measure ``||z^{t+1} - z^t||^2``, decide the ``tol``
stop and record each :class:`IterationRecord`; and
:meth:`~repro.cluster.twister.IterativeMapReduceDriver.run` is the only
round loop.  :class:`~repro.core.trainer.PrivacyPreservingSVM` runs it
with the secure summation protocol; the in-process trainers run it
through :func:`run_in_process` with plaintext sums.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.cluster.hdfs import SimulatedHdfs
from repro.cluster.network import Network
from repro.cluster.twister import (
    Aggregator,
    IterationResult,
    IterativeMapper,
    IterativeMapReduceDriver,
    IterativeReducer,
    MapperContext,
    PlaintextAggregator,
    ReducerContext,
)
from repro.core.partitioning import VerticalPartition
from repro.core.results import IterationRecord, TrainingHistory
from repro.data.dataset import Dataset
from repro.svm.kernels import Kernel
from repro.svm.knapsack import KnapsackConvergenceError
from repro.svm.model import accuracy
from repro.svm.qp import BoxQPResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.horizontal_kernel import HorizontalKernelWorker
    from repro.core.horizontal_linear import HorizontalLinearWorker
    from repro.core.horizontal_logistic import LogisticWorker
    from repro.core.vertical_linear import VerticalLinearWorker

__all__ = [
    "TRAINING_FILE",
    "AdmmReducer",
    "ConsensusSolveError",
    "HorizontalConsensusReducer",
    "HorizontalSVMMapper",
    "LocalSolveError",
    "RegularizedConsensusReducer",
    "VerticalReducerAdapter",
    "VerticalSVMMapper",
    "cluster_driver",
    "horizontal_payloads",
    "run_in_process",
    "vertical_setup",
]

#: HDFS name of the (private) training file every fit places.
TRAINING_FILE = "training-data"


class LocalSolveError(RuntimeError):
    """A learner's local QP missed its tolerance within its iteration budget.

    Raised by :class:`HorizontalSVMMapper` instead of sending a consensus
    contribution built on an inexact solve.  ``node_id`` and
    ``iteration`` name the learner and the round; ``result`` is the
    solver's :class:`~repro.svm.qp.BoxQPResult`.
    """

    def __init__(self, node_id: str, iteration: int, result: BoxQPResult) -> None:
        super().__init__(
            f"local QP on learner {node_id} did not converge in round {iteration}: "
            f"KKT residual {result.kkt_residual:.3g} after {result.iterations} iterations"
        )
        self.node_id = node_id
        self.iteration = iteration
        self.result = result


class ConsensusSolveError(RuntimeError):
    """The Reducer's consensus solve found no KKT point within its budget.

    Raised by :class:`VerticalReducerAdapter` instead of broadcasting a
    consensus built on an unfinished knapsack solve.  ``node_id`` and
    ``iteration`` name the reducer and the round; ``iterations`` and
    ``residual`` are the solver's step count and smallest constraint
    residual.
    """

    def __init__(self, node_id: str, iteration: int, iterations: int, residual: float) -> None:
        super().__init__(
            f"consensus knapsack on node {node_id} did not converge in round {iteration}: "
            f"constraint residual {residual:.3g} after {iterations} iterations"
        )
        self.node_id = node_id
        self.iteration = iteration
        self.iterations = iterations
        self.residual = residual


class HorizontalSVMMapper(IterativeMapper):
    """Map() task for the horizontal schemes (linear, kernel, logistic).

    The HDFS partition payload is a dict with the learner's private
    ``X``/``y`` plus the shared hyperparameters; ``configure`` builds the
    appropriate worker, ``map`` delegates one ADMM local step to it —
    or, when ``stale`` (partial participation), resends ``last_output``.
    """

    def __init__(self) -> None:
        self.worker: (
            HorizontalLinearWorker | HorizontalKernelWorker | LogisticWorker | None
        ) = None
        self.stale = False
        self.last_output: dict[str, np.ndarray] = {}

    def configure(self, partition: dict[str, Any], context: MapperContext) -> None:
        """Build the linear, kernel, or logistic worker from the HDFS payload."""
        # Imported here: the worker modules import this one.
        from repro.core.horizontal_kernel import HorizontalKernelWorker
        from repro.core.horizontal_linear import HorizontalLinearWorker
        from repro.core.horizontal_logistic import LogisticWorker

        if partition.get("loss") == "logistic":
            self.worker = LogisticWorker(partition["X"], partition["y"], rho=partition["rho"])
            return
        kernel: Kernel | None = partition.get("kernel")
        common = dict(
            C=partition["C"],
            rho=partition["rho"],
            n_learners=partition["n_learners"],
            qp_tol=partition.get("qp_tol", 1e-8),
            qp_max_sweeps=partition.get("qp_max_sweeps", 500),
        )
        if kernel is None:
            self.worker = HorizontalLinearWorker(partition["X"], partition["y"], **common)
        else:
            self.worker = HorizontalKernelWorker(
                partition["X"],
                partition["y"],
                partition["landmarks"],
                kernel=kernel,
                **common,
            )

    def map(self, broadcast: Any, context: MapperContext) -> dict[str, np.ndarray]:
        """One ADMM local step against the broadcast consensus ``(z, s)``.

        Emits an ``admm.local_step`` span tagged with the mapper's node
        and iteration; raises :class:`LocalSolveError` if the SVM
        worker's local QP did not converge.
        """
        if self.worker is None:
            raise RuntimeError("mapper was never configured")
        with context.network.tracer.span(
            "admm.local_step",
            kind="trainer",
            node=context.node_id,
            iteration=context.iteration,
        ):
            if not self.stale:
                self.last_output = self.worker.step(broadcast["z"], broadcast["s"])
                # The logistic worker solves no QP and has no ``last_qp``.
                qp = getattr(self.worker, "last_qp", None)
                if qp is not None and not qp.converged:
                    raise LocalSolveError(context.node_id, context.iteration, qp)
            return self.last_output


class AdmmReducer(IterativeReducer):
    """Shared tail of every consensus Reduce(): the ``tol`` stop and the record."""

    def __init__(self, tol: float | None) -> None:
        self.tol = tol
        self.history = TrainingHistory()

    def close_round(
        self, context: ReducerContext, z_change: float, primal: float | None = None
    ) -> bool:
        """Decide the ``tol`` stop and record the round (``primal=None``:
        not measurable here), inside an ``admm.convergence_check`` span."""
        with context.network.tracer.span(
            "admm.convergence_check", kind="trainer", node=context.node_id
        ) as check:
            converged = self.tol is not None and z_change <= self.tol
            measured = {} if primal is None else {"primal_residual": primal}
            check.attrs.update(
                {"z_change_sq": z_change, **measured}, tol=self.tol, converged=converged
            )
        self.history.append(
            IterationRecord(
                iteration=context.iteration,
                z_change_sq=z_change,
                primal_residual=float("nan") if primal is None else primal,
                residual_available=primal is not None,
            )
        )
        return converged


class HorizontalConsensusReducer(AdmmReducer):
    """Reduce() task for the horizontal schemes: average and re-broadcast.

    Receives only the *sums* of the consensus contributions (``w_m +
    gamma_m`` / ``G w_m + r_m`` and ``b_m + beta_m``)
    (the secure summation output), divides by M, and records the
    ``||z^{t+1}-z^t||^2`` series (Fig. 4(a)/(b)).  The sums never
    separate ``w_m`` from ``gamma_m``, so the Reducer cannot measure
    the primal residual.
    """

    def __init__(self, n_consensus: int, *, tol: float | None = None) -> None:
        if n_consensus < 1:
            raise ValueError(f"n_consensus must be >= 1, got {n_consensus}")
        super().__init__(tol)
        self.n_consensus = int(n_consensus)
        self.z = np.zeros(n_consensus)
        self.s = 0.0

    def initial_state(self) -> dict[str, Any]:
        """Zero consensus before the first iteration."""
        return {"z": self.z, "s": self.s}

    def consensus(
        self, z_sum: np.ndarray, s_sum: float, n_mappers: int
    ) -> tuple[np.ndarray, float]:
        """The z-update: the plain average (paper eqs. (13b/e))."""
        return z_sum / n_mappers, s_sum / n_mappers

    def reduce(
        self, sums: dict[str, np.ndarray], n_mappers: int, context: ReducerContext
    ) -> tuple[dict[str, Any], bool]:
        """Form the new consensus from the securely-summed contributions.

        Emits an ``admm.consensus_step`` span, then closes the round.
        """
        with context.network.tracer.span(
            "admm.consensus_step", kind="trainer", node=context.node_id
        ):
            z_new, s_new = self.consensus(
                np.asarray(sums["z_contrib"], dtype=float).ravel(),
                float(np.asarray(sums["s_contrib"]).ravel()[0]),
                n_mappers,
            )
            z_change = float(np.sum((z_new - self.z) ** 2) + (s_new - self.s) ** 2)
        self.z, self.s = z_new, s_new
        return {"z": self.z, "s": self.s}, self.close_round(context, z_change)


class RegularizedConsensusReducer(HorizontalConsensusReducer):
    """Horizontal consensus with ``(lam/2)||z||^2`` at the coordinator.

    The z-update of consensus logistic regression:
    ``z = rho * sum_m (w_m + gamma_m) / (lam + M rho)``; the bias stays
    an unregularized average.  Still a function of sums only, so the
    secure summation protocol applies unchanged.
    """

    def __init__(
        self, n_consensus: int, *, lam: float, rho: float, tol: float | None = None
    ) -> None:
        super().__init__(n_consensus, tol=tol)
        self.lam = lam
        self.rho = rho

    def consensus(
        self, z_sum: np.ndarray, s_sum: float, n_mappers: int
    ) -> tuple[np.ndarray, float]:
        """Regularized z-update; plain bias average."""
        return self.rho * z_sum / (self.lam + n_mappers * self.rho), s_sum / n_mappers


class VerticalSVMMapper(IterativeMapper):
    """Map() task for the vertical schemes (linear or kernel)."""

    def __init__(self) -> None:
        self.worker: VerticalLinearWorker | None = None

    def configure(self, partition: dict[str, Any], context: MapperContext) -> None:
        """Build the linear or kernel column-block worker."""
        from repro.core.vertical_kernel import VerticalKernelWorker
        from repro.core.vertical_linear import VerticalLinearWorker

        kernel: Kernel | None = partition.get("kernel")
        if kernel is None:
            self.worker = VerticalLinearWorker(partition["X"], rho=partition["rho"])
        else:
            self.worker = VerticalKernelWorker(
                partition["X"], kernel=kernel, rho=partition["rho"]
            )

    def map(self, broadcast: Any, context: MapperContext) -> dict[str, np.ndarray]:
        """One ridge update against the broadcast correction vector.

        Emits an ``admm.local_step`` span tagged with the mapper's node
        and iteration.
        """
        if self.worker is None:
            raise RuntimeError("mapper was never configured")
        with context.network.tracer.span(
            "admm.local_step",
            kind="trainer",
            node=context.node_id,
            iteration=context.iteration,
        ):
            return self.worker.step(broadcast["correction"])


class VerticalReducerAdapter(AdmmReducer):
    """Reduce() task for the vertical schemes.

    Wraps :class:`~repro.core.vertical_linear.VerticalConsensusReducer`
    (the hinge proximal / knapsack logic) behind the Twister interface.
    The labels are Reducer-side state — the paper's assumption that
    labels are shared among all learners.
    """

    def __init__(
        self,
        y: np.ndarray,
        *,
        C: float,
        rho: float,
        n_learners: int,
        tol: float | None = None,
    ) -> None:
        from repro.core.vertical_linear import VerticalConsensusReducer

        self.logic = VerticalConsensusReducer(y, C=C, rho=rho, n_learners=n_learners)
        super().__init__(tol)

    def initial_state(self) -> dict[str, Any]:
        """Zero correction before the first iteration."""
        return {"correction": np.zeros(self.logic.y.shape[0]), "bias": 0.0}

    def reduce(
        self, sums: dict[str, np.ndarray], n_mappers: int, context: ReducerContext
    ) -> tuple[dict[str, Any], bool]:
        """Run the hinge-proximal/knapsack consensus step on the share sum.

        Emits an ``admm.consensus_step`` span, then closes the round.

        Raises
        ------
        ConsensusSolveError
            If the knapsack exhausts its iteration budget.
        """
        with context.network.tracer.span(
            "admm.consensus_step", kind="trainer", node=context.node_id
        ):
            try:
                correction, z_change, primal = self.logic.step(
                    np.asarray(sums["share"], dtype=float)
                )
            except KnapsackConvergenceError as exc:
                raise ConsensusSolveError(
                    context.node_id, context.iteration, exc.iterations, exc.residual
                ) from exc
        converged = self.close_round(context, z_change, primal)
        return {"correction": correction, "bias": self.logic.bias}, converged


def horizontal_payloads(partitions: list[Dataset], **shared: Any) -> list[dict[str, Any]]:
    """One HDFS payload per learner: its private rows, ``n_learners`` and
    the ``shared`` settings (validates the horizontal split)."""
    if len(partitions) < 2:
        raise ValueError("need at least 2 partitions")
    n_features = partitions[0].n_features
    if any(p.n_features != n_features for p in partitions):
        raise ValueError("all partitions must share the feature dimension")
    return [dict(shared, X=p.X, y=p.y, n_learners=len(partitions)) for p in partitions]


def vertical_setup(
    partition: VerticalPartition,
    *,
    C: float,
    rho: float,
    kernel: Kernel | None,
    tol: float | None,
) -> tuple[list[dict[str, Any]], VerticalReducerAdapter]:
    """Payloads (one private column block each) and the label-holding
    Reducer of a vertical fit."""
    payloads = [dict(X=block, rho=rho, kernel=kernel) for block in partition.blocks]
    reducer = VerticalReducerAdapter(
        partition.y, C=C, rho=rho, n_learners=partition.n_learners, tol=tol
    )
    return payloads, reducer


def cluster_driver(
    payloads: list[dict[str, Any]],
    mapper_factory: Callable[[], IterativeMapper],
    reducer: IterativeReducer,
    aggregator: Aggregator,
    *,
    network: Network,
    n_map_workers: int = 1,
    on_round: Callable[[IterationResult], None] | None = None,
) -> IterativeMapReduceDriver:
    """Pin payload ``m`` to data node ``learner-m`` as a private block of
    :data:`TRAINING_FILE` and build the driver; train with
    ``driver.run(TRAINING_FILE, max_iterations=...)``."""
    hdfs = SimulatedHdfs(network)
    learner_nodes = [f"learner-{m}" for m in range(len(payloads))]
    for node in learner_nodes:
        hdfs.add_datanode(node)
    hdfs.put(TRAINING_FILE, payloads, preferred_nodes=learner_nodes, private=True)
    return IterativeMapReduceDriver(
        hdfs=hdfs,
        mapper_factory=mapper_factory,
        reducer=reducer,
        aggregator=aggregator,
        reducer_node="reducer",
        n_map_workers=n_map_workers,
        on_round=on_round,
    )


def run_in_process(
    payloads: list[dict[str, Any]],
    mapper_factory: Callable[[], IterativeMapper],
    reducer: AdmmReducer,
    *,
    max_iter: int,
    local_state: Callable[[Any], np.ndarray] | None = None,
    evaluate: tuple[np.ndarray, Callable[[list[Any]], np.ndarray]] | None = None,
    after_round: Callable[[IterationResult, list[Any]], None] | None = None,
) -> list[Any]:
    """Train on a private in-memory cluster with plaintext sums.

    After each round the reducer's record gains what only in-process
    code sees: the primal residual ``||mean_m local_state(worker) - z||``
    and, with ``evaluate = (y, scores)``, the accuracy of
    ``scores(workers)`` on eval labels ``y``.  ``after_round(result,
    mappers)`` may then prepare the next round.  Returns the workers in
    partition order.
    """
    driver = cluster_driver(
        payloads,
        mapper_factory,
        reducer,
        PlaintextAggregator(),
        network=Network(keep_log=False),
    )

    def on_round(result: IterationResult) -> None:
        mappers: list[Any] = driver.mappers()
        workers = [mapper.worker for mapper in mappers]
        measured: dict[str, Any] = {}
        if local_state is not None:
            mean_local = np.mean([local_state(worker) for worker in workers], axis=0)
            measured["primal_residual"] = float(np.linalg.norm(mean_local - result.state["z"]))
            measured["residual_available"] = True
        if evaluate is not None:
            y, scores = evaluate
            measured["accuracy"] = accuracy(y, np.where(scores(workers) >= 0, 1.0, -1.0))
        records = reducer.history.records
        records[-1] = replace(records[-1], **measured)
        if after_round is not None:
            after_round(result, mappers)

    driver.on_round = on_round
    driver.run(TRAINING_FILE, max_iterations=max_iter)
    mappers: list[Any] = driver.mappers()
    return [mapper.worker for mapper in mappers]
