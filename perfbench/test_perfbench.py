"""Tests of the benchmark itself, on workloads small enough to fit in seconds.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench
import layertrace
import run as run_cli
from repro import PrivacyPreservingSVM
from repro.core import horizontal_linear
from repro.crypto.secure_sum import SecureSumAggregator
from repro.data import make_linear_task

TINY = {
    w.name: w
    for w in (
        bench.Workload(
            "tiny-h", "horizontal", "fresh", n_learners=3, rounds=3, accuracy_floor=0.6,
            test_fraction=0.5, draws=2, make_data=lambda seed: make_linear_task(90, 4, seed=seed),
        ),
        bench.Workload(
            "tiny-v", "vertical", "prg", n_learners=3, rounds=3, accuracy_floor=0.6,
            test_fraction=0.5, draws=2, make_data=lambda seed: make_linear_task(90, 6, seed=seed),
        ),
    )
}
SPEC = json.loads((run_cli.ROOT / "BENCHMARK.json").read_text())


def run_main(monkeypatch, capsys, *args: str) -> tuple[int, list[str], dict]:
    for var in run_cli.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    code = run_cli.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_is_emitted_with_unit_and_direction(
    monkeypatch, capsys, workload, trace
):
    code, lines, result = run_main(
        monkeypatch, capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", trace,
    )
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    table = {line.split()[0]: line.split() for line in lines[1:-1]}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
        assert table[m["name"]][2:] == [m["unit"], m["better"], "is", "better"]


def test_fits_repeat_exactly_at_a_fixed_seed():
    runs = [bench.measure(TINY["tiny-h"], 5, 0) for _ in range(2)]
    assert all(r.correct for r in runs)
    for key in ("bytes_per_round", "messages_per_round", "test_accuracy", "train_objective"):
        assert runs[0].metrics[key] == runs[1].metrics[key]


def test_corrupted_aggregate_fails_the_correctness_check(monkeypatch, capsys):
    original = SecureSumAggregator.aggregate

    def corrupted(self, outputs, reducer_id, network):
        sums = original(self, outputs, reducer_id, network)
        return {key: value + 1e-6 for key, value in sums.items()}

    monkeypatch.setattr(SecureSumAggregator, "aggregate", corrupted)
    result = bench.measure_traced(TINY["tiny-h"], 0, 0)
    assert not result.correct
    assert result.failed >= 1
    assert "secure aggregate differs from the plaintext sum" in capsys.readouterr().err


def test_raw_bytes_moved_fails_the_correctness_check(monkeypatch, capsys):
    monkeypatch.setattr(PrivacyPreservingSVM, "raw_data_bytes_moved", lambda self: 1.0)
    code, _, result = run_main(
        monkeypatch, capsys, "--workload", "tiny-v", "--seed", "0", "--seconds", "0"
    )
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_wrappers_are_installed_where_looked_up_and_restored():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in layertrace.hooks()}
    with layertrace.LayerTrace():
        assert horizontal_linear.solve_box_qp is not originals[(horizontal_linear, "solve_box_qp")]
        assert len(layertrace.installed()) == len(originals)
    assert layertrace.installed() == []
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original

    result = bench.measure_traced(TINY["tiny-h"], 1, 0)
    assert result.correct, result.failures
    assert layertrace.installed() == []
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original


def test_traced_layers_fit_inside_each_round():
    inputs = bench.make_inputs(TINY["tiny-h"], 2)
    with layertrace.LayerTrace() as trace:
        fit = bench.fit_once(TINY["tiny-h"], inputs, 2, 3)
    metrics, failures = trace.layer_metrics(fit.round_s)
    assert fit.failures == [] and failures == []
    assert metrics["svm.qp.calls"] == metrics["core.local_step.calls"] == 9
    assert metrics["crypto.aggregate.calls"] == 3
    assert 0 <= metrics["crypto.secure_sum.max_abs_error"] <= 3 * 2.0**-40
    assert metrics["twister.driver_overhead_s"] >= 0
    assert metrics["svm.qp.busy_s"] <= metrics["core.local_step.busy_s"]
    # Round walls that are too short must be reported.
    _, failures = trace.layer_metrics([w / 100 for w in fit.round_s])
    assert len(failures) == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run_cli.HERE, tmp_path / "perfbench")
    shutil.copy(run_cli.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hlin-higgs-m8", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_train_objective_matches_the_primal_of_the_probed_hyperplane():
    inputs = bench.make_inputs(TINY["tiny-v"], 0)
    model = PrivacyPreservingSVM("vertical", max_iter=3, tol=None, mask_mode="prg", seed=0)
    model.fit(inputs.parts)
    X, y = inputs.train.X, inputs.train.y
    scores = model.decision_function(X)
    b = model.decision_function(np.zeros((1, X.shape[1])))[0]
    w = np.linalg.lstsq(X, scores - b, rcond=None)[0]
    expected = 0.5 * w @ w + bench.C * np.maximum(0.0, 1.0 - y * scores).sum()
    assert bench.train_objective(model, inputs.train) == pytest.approx(expected, rel=1e-9)
