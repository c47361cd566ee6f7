"""Direct unit tests for the Mapper/Reducer Twister adapters."""

import functools

import numpy as np
import pytest

from repro.cluster.twister import MapperContext, ReducerContext
from repro.cluster.network import Network
from repro.core import vertical_linear
from repro.core.horizontal_kernel import HorizontalKernelSVM
from repro.core.horizontal_linear import HorizontalLinearSVM
from repro.core.horizontal_logistic import HorizontalLogisticRegression
from repro.core.mapreduce_svm import (
    ConsensusSolveError,
    HorizontalConsensusReducer,
    HorizontalSVMMapper,
    LocalSolveError,
    RegularizedConsensusReducer,
    VerticalReducerAdapter,
    VerticalSVMMapper,
)
from repro.core.partitioning import horizontal_partition, vertical_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.core.vertical_kernel import VerticalKernelSVM
from repro.core.vertical_linear import VerticalLinearSVM
from repro.data.synthetic import make_blobs
from repro.svm.kernels import RBFKernel
from repro.svm.knapsack import solve_quadratic_knapsack


@pytest.fixture
def context():
    network = Network()
    network.register("node")
    return MapperContext(node_id="node", network=network)


@pytest.fixture
def reducer_context():
    network = Network()
    network.register("reducer")
    return ReducerContext(node_id="reducer", network=network)


def horizontal_payload(kernel=None):
    ds = make_blobs(40, 3, seed=0)
    payload = dict(X=ds.X, y=ds.y, C=10.0, rho=10.0, n_learners=2)
    if kernel is not None:
        payload.update(kernel=kernel, landmarks=np.zeros((4, 3)) + np.eye(4, 3))
    return payload


class TestHorizontalMapper:
    def test_configure_builds_linear_worker(self, context):
        mapper = HorizontalSVMMapper()
        mapper.configure(horizontal_payload(), context)
        from repro.core.horizontal_linear import HorizontalLinearWorker

        assert isinstance(mapper.worker, HorizontalLinearWorker)

    def test_configure_builds_kernel_worker(self, context):
        mapper = HorizontalSVMMapper()
        mapper.configure(horizontal_payload(kernel=RBFKernel(gamma=0.5)), context)
        from repro.core.horizontal_kernel import HorizontalKernelWorker

        assert isinstance(mapper.worker, HorizontalKernelWorker)

    def test_map_delegates_to_worker(self, context):
        mapper = HorizontalSVMMapper()
        mapper.configure(horizontal_payload(), context)
        out = mapper.map({"z": np.zeros(3), "s": 0.0}, context)
        assert set(out) == {"z_contrib", "s_contrib"}

    def test_map_before_configure_raises(self, context):
        with pytest.raises(RuntimeError, match="configured"):
            HorizontalSVMMapper().map({"z": np.zeros(2), "s": 0.0}, context)

    def test_worker_keeps_its_last_qp_result(self, context):
        mapper = HorizontalSVMMapper()
        mapper.configure(horizontal_payload(), context)
        mapper.map({"z": np.zeros(3), "s": 0.0}, context)
        assert mapper.worker.last_qp.converged
        assert mapper.worker.last_qp.kkt_residual <= 1e-8


class TestLocalSolveError:
    @pytest.mark.parametrize(
        "trainer",
        [
            lambda: PrivacyPreservingSVM(max_iter=3, qp_max_sweeps=1),
            lambda: HorizontalLinearSVM(max_iter=3, qp_max_sweeps=1),
            lambda: HorizontalKernelSVM(RBFKernel(gamma=0.5), max_iter=3, qp_max_sweeps=1),
        ],
        ids=["system", "hlin", "hker"],
    )
    def test_unconverged_cold_start_names_learner_and_round(self, trainer):
        parts = horizontal_partition(make_blobs(90, 3, seed=0), 3, seed=0)
        with pytest.raises(LocalSolveError, match="learner-0 .* round 0") as caught:
            trainer().fit(parts)
        assert caught.value.node_id == "learner-0"
        assert caught.value.iteration == 0
        assert not caught.value.result.converged
        assert caught.value.result.iterations == 1


class TestConsensusSolveError:
    @pytest.fixture
    def one_step_knapsack(self, monkeypatch):
        monkeypatch.setattr(
            vertical_linear,
            "solve_quadratic_knapsack",
            functools.partial(solve_quadratic_knapsack, max_iter=1),
        )

    def test_reducer_names_node_and_round(self, one_step_knapsack, reducer_context):
        ds = make_blobs(24, 3, seed=2)
        adapter = VerticalReducerAdapter(ds.y, C=10.0, rho=10.0, n_learners=2)
        context = ReducerContext(node_id="reducer", network=reducer_context.network, iteration=7)
        with pytest.raises(ConsensusSolveError, match="node reducer .* round 7") as caught:
            adapter.reduce({"share": np.random.default_rng(0).normal(size=24)}, 2, context)
        assert caught.value.node_id == "reducer"
        assert caught.value.iteration == 7
        assert caught.value.iterations == 1
        assert caught.value.residual > 0.0

    @pytest.mark.parametrize(
        "trainer",
        [
            lambda: PrivacyPreservingSVM("vertical", max_iter=3),
            lambda: VerticalLinearSVM(max_iter=3),
        ],
        ids=["system", "vlin"],
    )
    def test_fit_stops_at_the_first_unsolved_round(self, one_step_knapsack, trainer):
        # Balanced labels make round 0's multiplier exactly 0, found in one
        # step; round 1 needs more.
        parts = vertical_partition(make_blobs(90, 4, seed=0), 2, seed=0)
        with pytest.raises(ConsensusSolveError, match="round 1") as caught:
            trainer().fit(parts)
        assert caught.value.iteration == 1


class TestHorizontalReducer:
    def test_averages_sums(self, reducer_context):
        reducer = HorizontalConsensusReducer(n_consensus=3)
        sums = {"z_contrib": np.array([2.0, 4.0, 6.0]), "s_contrib": np.array([8.0])}
        state, converged = reducer.reduce(sums, 2, reducer_context)
        np.testing.assert_array_equal(state["z"], [1.0, 2.0, 3.0])
        assert state["s"] == 4.0
        assert not converged

    def test_records_z_change_history(self, reducer_context):
        reducer = HorizontalConsensusReducer(n_consensus=2)
        for value in (2.0, 2.0):
            reducer.reduce(
                {"z_contrib": np.full(2, value), "s_contrib": np.zeros(1)},
                2,
                reducer_context,
            )
        changes = reducer.history.z_changes
        assert changes[0] > 0.0
        assert changes[1] == pytest.approx(0.0)

    def test_tol_triggers_convergence(self, reducer_context):
        reducer = HorizontalConsensusReducer(n_consensus=2, tol=1e-6)
        reducer.reduce(
            {"z_contrib": np.ones(2), "s_contrib": np.zeros(1)}, 2, reducer_context
        )
        _, converged = reducer.reduce(
            {"z_contrib": np.ones(2), "s_contrib": np.zeros(1)}, 2, reducer_context
        )
        assert converged

    def test_initial_state_zero(self):
        reducer = HorizontalConsensusReducer(n_consensus=4)
        state = reducer.initial_state()
        np.testing.assert_array_equal(state["z"], np.zeros(4))
        assert state["s"] == 0.0

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            HorizontalConsensusReducer(n_consensus=0)


class TestVerticalAdapters:
    def test_mapper_linear_and_kernel(self, context):
        ds = make_blobs(30, 4, seed=1)
        linear = VerticalSVMMapper()
        linear.configure({"X": ds.X, "rho": 10.0, "kernel": None}, context)
        out = linear.map({"correction": np.zeros(30), "bias": 0.0}, context)
        assert out["share"].shape == (30,)

        kernel = VerticalSVMMapper()
        kernel.configure({"X": ds.X, "rho": 10.0, "kernel": RBFKernel(gamma=0.3)}, context)
        out = kernel.map({"correction": np.zeros(30), "bias": 0.0}, context)
        assert out["share"].shape == (30,)

    def test_mapper_before_configure_raises(self, context):
        with pytest.raises(RuntimeError):
            VerticalSVMMapper().map({"correction": np.zeros(2)}, context)

    def test_reducer_adapter_state_and_history(self, reducer_context):
        ds = make_blobs(24, 3, seed=2)
        adapter = VerticalReducerAdapter(ds.y, C=10.0, rho=10.0, n_learners=2)
        state = adapter.initial_state()
        assert state["correction"].shape == (24,)
        new_state, converged = adapter.reduce(
            {"share": np.random.default_rng(0).normal(size=24)}, 2, reducer_context
        )
        assert new_state["correction"].shape == (24,)
        assert np.isfinite(new_state["bias"])
        assert len(adapter.history) == 1
        assert not converged

    def test_full_roundtrip_matches_trainer(self, cancer_split):
        # Every in-process trainer *is* the cluster path with plaintext
        # sums, so both agree exactly, not within a tolerance: for the
        # four paper variants against PrivacyPreservingSVM(secure=False),
        # and for V-lin and logistic against the adapters driven by hand.
        train, test = cancer_split
        parts = horizontal_partition(train, 4, seed=0)
        partition = vertical_partition(train, 3, seed=0)
        kernel = RBFKernel(gamma=0.1)
        system = dict(max_iter=6, secure=False, seed=0, on_health="ignore")
        cases = {
            "H-lin": (HorizontalLinearSVM(max_iter=6), ("horizontal", None), parts),
            "H-ker": (
                HorizontalKernelSVM(kernel, n_landmarks=8, max_iter=6),
                ("horizontal", kernel),
                parts,
            ),
            "V-lin": (VerticalLinearSVM(max_iter=6), ("vertical", None), partition),
            "V-ker": (VerticalKernelSVM(kernel, max_iter=6), ("vertical", kernel), partition),
        }
        for name, (trainer, (scheme, k), data) in cases.items():
            trainer.fit(data)
            cluster = PrivacyPreservingSVM(scheme, k, n_landmarks=8, **system).fit(data)
            assert np.array_equal(trainer.history_.z_changes, cluster.history_.z_changes), name
            assert np.array_equal(
                trainer.decision_function(test.X), cluster.decision_function(test.X)
            ), name

        vertical = cases["V-lin"][0]
        adapter = VerticalReducerAdapter(
            partition.y, C=50.0, rho=100.0, n_learners=partition.n_learners
        )
        payloads = [{"X": block, "rho": 100.0, "kernel": None} for block in partition.blocks]
        drive_by_hand(VerticalSVMMapper, payloads, adapter, rounds=6)
        assert np.array_equal(adapter.history.z_changes, vertical.history_.z_changes)
        assert np.array_equal(adapter.logic.zbar, vertical.reducer_.zbar)

        logistic = HorizontalLogisticRegression(lam=0.5, rho=5.0, max_iter=6).fit(parts)
        reducer = RegularizedConsensusReducer(train.n_features, lam=0.5, rho=5.0)
        payloads = [{"X": p.X, "y": p.y, "rho": 5.0, "loss": "logistic"} for p in parts]
        drive_by_hand(HorizontalSVMMapper, payloads, reducer, rounds=6)
        assert np.array_equal(reducer.history.z_changes, logistic.history_.z_changes)
        assert np.array_equal(reducer.z, logistic.consensus_weights_)
        assert reducer.s == logistic.consensus_bias_


def drive_by_hand(mapper_cls, payloads, reducer, *, rounds):
    """The ADMM round without the driver: map, plain sum, reduce."""
    network = Network()
    network.register("n")
    ctx = MapperContext(node_id="n", network=network)
    rctx = ReducerContext(node_id="r", network=network)
    mappers = []
    for payload in payloads:
        mapper = mapper_cls()
        mapper.configure(payload, ctx)
        mappers.append(mapper)
    state = reducer.initial_state()
    for _ in range(rounds):
        sums = {}
        for mapper in mappers:
            for key, value in mapper.map(state, ctx).items():
                sums[key] = sums.get(key, 0.0) + value
        state, _ = reducer.reduce(sums, len(mappers), rctx)
