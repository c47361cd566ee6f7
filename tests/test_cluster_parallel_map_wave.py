"""Parallel map wave: bit-identical trajectories across worker counts.

The threaded map wave (``n_map_workers > 1``) must not change a single
bit of any training trajectory: futures are collected in mapper
insertion order, so the reducer sees the exact same merge sequence as
the sequential loop.  These tests fit all four trainer variants at
``n_map_workers`` ∈ {1, 4} and demand *exact* equality of every
:class:`~repro.core.results.IterationRecord`, the consensus state, and
the fitted decision function — not tolerance-based closeness.
"""

import numpy as np
import pytest

from repro.core.partitioning import horizontal_partition, vertical_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.core.vertical_linear import VerticalLinearSVM
from repro.data.splits import train_test_split
from repro.data.synthetic import make_linear_task
from repro.svm.kernels import RBFKernel


def record_key(record):
    # ``repr`` of a float is its shortest exact round-trip, so equal keys
    # mean bit-identical values; it also makes NaN accuracies (no eval
    # set) comparable, which raw ``==`` would not.
    return (
        record.iteration,
        repr(record.z_change_sq),
        repr(record.primal_residual),
        repr(record.accuracy),
    )


def assert_bit_identical(baseline, candidate, X_eval):
    base_records = [record_key(r) for r in baseline.history_.records]
    cand_records = [record_key(r) for r in candidate.history_.records]
    assert base_records == cand_records
    assert np.array_equal(
        baseline.decision_function(X_eval), candidate.decision_function(X_eval)
    )


VARIANTS = {
    "horizontal-linear": dict(C=50.0, rho=100.0, max_iter=15),
    "horizontal-kernel": dict(kernel=RBFKernel(gamma=0.1), n_landmarks=10, max_iter=10),
    "vertical-linear": dict(C=50.0, rho=100.0, max_iter=20),
    "vertical-kernel": dict(kernel=RBFKernel(gamma=0.1), max_iter=15),
}


def fit_variant(name, cancer_split, n_map_workers):
    train, test = cancer_split
    scheme = name.split("-")[0]
    if scheme == "horizontal":
        data = horizontal_partition(train, 4, seed=0)
    else:
        data = vertical_partition(train, 3, seed=0)
    model = PrivacyPreservingSVM(
        scheme, seed=0, n_map_workers=n_map_workers, **VARIANTS[name]
    ).fit(data)
    return model, test.X


class TestBitIdenticalTrajectories:
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_parallel_matches_sequential(self, name, cancer_split):
        sequential, X_eval = fit_variant(name, cancer_split, n_map_workers=1)
        parallel, _ = fit_variant(name, cancer_split, n_map_workers=4)
        assert len(sequential.history_) > 0
        assert_bit_identical(sequential, parallel, X_eval)

    def test_explicit_one_worker_matches_default(self, cancer_split):
        default, X_eval = fit_variant("horizontal-linear", cancer_split, 1)
        explicit = PrivacyPreservingSVM(
            "horizontal", seed=0, **VARIANTS["horizontal-linear"]
        ).fit(horizontal_partition(cancer_split[0], 4, seed=0))
        assert_bit_identical(default, explicit, X_eval)

    def test_horizontal_consensus_state_identical(self, cancer_split):
        sequential, _ = fit_variant("horizontal-linear", cancer_split, 1)
        parallel, _ = fit_variant("horizontal-linear", cancer_split, 4)
        assert np.array_equal(sequential._reducer.z, parallel._reducer.z)

    def test_vertical_consensus_state_identical(self, cancer_split):
        sequential, _ = fit_variant("vertical-linear", cancer_split, 1)
        parallel, _ = fit_variant("vertical-linear", cancer_split, 4)
        assert np.array_equal(
            sequential._reducer.logic.zbar, parallel._reducer.logic.zbar
        )


class TestDriverPlumbing:
    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="n_map_workers"):
            PrivacyPreservingSVM("horizontal", n_map_workers=0)

    def test_mappers_accessor_sorted_and_used_by_trainer(self, cancer_split):
        # Ordered by block index, the order the map wave merges in — not
        # by the task-key strings, where "learner-10/10" < "learner-2/2".
        model, _ = fit_variant("horizontal-linear", cancer_split, 1)
        driver = model.driver_
        keys = sorted(driver._mappers, key=lambda key: int(key.rsplit("/", 1)[1]))
        assert driver.mappers() == [driver._mappers[key] for key in keys]
        assert model._workers() == [m.worker for m in driver.mappers()]

    def test_mappers_in_block_order_beyond_ten_learners(self):
        # 30 columns over 12 learners gives blocks of 3 and 2 columns, so
        # a mapper/block mismatch would fail loudly in decision_function.
        train, test = train_test_split(make_linear_task(160, 30, seed=4), seed=0)
        partition = vertical_partition(train, 12, seed=0)
        model = PrivacyPreservingSVM(
            "vertical", max_iter=5, secure=False, on_health="ignore"
        ).fit(partition)
        blocks = [m.worker.X for m in model.driver_.mappers()]
        assert all(np.array_equal(a, b) for a, b in zip(blocks, partition.blocks))
        reference = VerticalLinearSVM(max_iter=5).fit(partition)
        assert np.array_equal(
            model.decision_function(test.X), reference.decision_function(test.X)
        )

    def test_map_wave_span_reports_parallelism(self, cancer_split):
        model, _ = fit_variant("horizontal-linear", cancer_split, 4)
        waves = [s for s in model.network_.tracer.spans if s.name == "twister.map_wave"]
        assert waves
        for span in waves:
            assert span.attrs["n_mappers"] == 4
            assert span.attrs["n_parallel"] == 4

    def test_parallelism_capped_by_mapper_count(self, cancer_split):
        model, _ = fit_variant("horizontal-linear", cancer_split, 32)
        waves = [s for s in model.network_.tracer.spans if s.name == "twister.map_wave"]
        assert waves and all(s.attrs["n_parallel"] == 4 for s in waves)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_spans_adopt_map_wave_parent(self, cancer_split, workers):
        # Threaded mappers start with an empty span stack; ``adopt``
        # must re-home their spans under the wave so the trace tree has
        # no orphans regardless of worker count.
        model, _ = fit_variant("horizontal-linear", cancer_split, workers)
        tracer = model.network_.tracer
        wave_ids = {s.span_id for s in tracer.spans if s.name == "twister.map_wave"}
        locals_ = [s for s in tracer.spans if s.name == "admm.local_step"]
        assert locals_
        assert all(s.parent_id in wave_ids for s in locals_)

    def test_serialize_counter_accumulates(self, cancer_split):
        model, _ = fit_variant("horizontal-linear", cancer_split, 1)
        assert model.network_.metrics.get("network.serialize_s") > 0.0
