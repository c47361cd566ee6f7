"""Golden pins: exact training trajectories of every ADMM entry point.

Each case fits one trainer on small seeded data and reduces the result
to strings: the ``repr`` of every :class:`~repro.core.results.IterationRecord`
(``repr`` of a float is its shortest exact round-trip, so equal strings
mean bit-identical values, NaN included) and SHA-256 digests of the
final consensus state and of the decision scores on held-out rows.

The expected values live in ``fixtures/admm_golden.json``.  They pin the
numbers, not the code path: any refactor of the round loop must leave
them unchanged.  A deliberate numerical change re-pins them with
``PYTHONPATH=src python tests/test_admm_golden_pins.py`` and says so in
CHANGES.md.

``fixtures/admm_parent_solver_consensus.json`` keeps the raw final
consensus of the cases that solve box QPs, as the coordinate-descent
solver left it before the active-set solver replaced it.  The two
solvers reach the same optima, so the consensus must agree to 1e-6
relative.  ``fixtures/admm_parent_knapsack_consensus.json`` does the same
for the vertical cases, as the bisection knapsack left them before the
Newton knapsack replaced it; both solve the Reducer's knapsack exactly,
so the consensus must agree to 1e-9 relative.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.core.horizontal_kernel import HorizontalKernelSVM, sample_landmarks
from repro.core.horizontal_linear import HorizontalLinearSVM
from repro.core.horizontal_logistic import HorizontalLogisticRegression
from repro.core.partitioning import horizontal_partition, vertical_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.core.vertical_kernel import VerticalKernelSVM
from repro.core.vertical_linear import VerticalLinearSVM
from repro.data.scaling import StandardScaler
from repro.data.splits import train_test_split
from repro.data.synthetic import make_cancer_like
from repro.svm.kernels import RBFKernel

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN_PATH = FIXTURES / "admm_golden.json"
PARENT_SOLVER_PATH = FIXTURES / "admm_parent_solver_consensus.json"
PARENT_KNAPSACK_PATH = FIXTURES / "admm_parent_knapsack_consensus.json"


def digest(*arrays) -> str:
    """SHA-256 over the float64 bytes of ``arrays`` (exact, order-sensitive)."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(np.asarray(array, dtype=float)).tobytes())
    return h.hexdigest()


def split():
    dataset = make_cancer_like(160, seed=11)
    train, test = train_test_split(dataset, 0.5, seed=0)
    scaler = StandardScaler().fit(train.X)
    return scaler.transform_dataset(train), scaler.transform_dataset(test)


def hlin(participation):
    def fit(train, test):
        model = HorizontalLinearSVM(max_iter=8, participation=participation, seed=3)
        model.fit(horizontal_partition(train, 4, seed=0), eval_set=test)
        return model, (model.consensus_weights_, [model.consensus_bias_])

    return fit


def hlin_tol(train, test):
    model = HorizontalLinearSVM(max_iter=60, tol=1e-3)
    model.fit(horizontal_partition(train, 3, seed=1))
    return model, (model.consensus_weights_, [model.consensus_bias_])


def hker(given_landmarks):
    def fit(train, test):
        landmarks = sample_landmarks(5, train.n_features, seed=7) if given_landmarks else None
        model = HorizontalKernelSVM(
            RBFKernel(gamma=0.1), n_landmarks=6, landmarks=landmarks, max_iter=6, eval_learner=1
        )
        model.fit(horizontal_partition(train, 3, seed=0), eval_set=test)
        return model, (model.consensus_, [model.consensus_bias_], model.landmarks_)

    return fit


def vertical(model):
    def fit(train, test):
        model.fit(vertical_partition(train, 3, seed=0), eval_X=test.X, eval_y=test.y)
        return model, (model.reducer_.zbar, model.reducer_.u, [model.reducer_.bias])

    return fit


def logistic(train, test):
    model = HorizontalLogisticRegression(lam=0.5, rho=5.0, max_iter=8)
    model.fit(horizontal_partition(train, 4, seed=0), eval_set=test)
    return model, (model.consensus_weights_, [model.consensus_bias_])


def system(partitioning, **kwargs):
    def fit(train, test):
        model = PrivacyPreservingSVM(partitioning, max_iter=6, seed=0, on_health="ignore", **kwargs)
        if partitioning == "horizontal":
            model.fit(horizontal_partition(train, 4, seed=0))
            return model, (model._reducer.z, [model._reducer.s])
        model.fit(vertical_partition(train, 3, seed=0))
        return model, (model._reducer.logic.zbar, [model._reducer.logic.bias])

    return fit


CASES = {
    "hlin-full": hlin(1.0),
    "hlin-half": hlin(0.5),
    "hlin-tol": hlin_tol,
    "hker-sampled": hker(False),
    "hker-given": hker(True),
    "vlin": vertical(VerticalLinearSVM(max_iter=8)),
    "vker": vertical(VerticalKernelSVM(RBFKernel(gamma=0.2), max_iter=8)),
    "logistic": logistic,
    "system-fresh": system("horizontal", mask_mode="fresh"),
    "system-prg": system("horizontal", mask_mode="prg"),
    "system-plaintext": system("horizontal", secure=False),
    "system-vertical-prg": system("vertical", mask_mode="prg"),
}


def observe(name: str) -> dict:
    train, test = split()
    model, consensus = CASES[name](train, test)
    return {
        "records": [repr(record) for record in model.history_.records],
        "consensus": digest(*consensus),
        "scores": digest(model.decision_function(test.X)),
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
PARENT_SOLVER = json.loads(PARENT_SOLVER_PATH.read_text())
PARENT_KNAPSACK = json.loads(PARENT_KNAPSACK_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden_pin(name):
    assert observe(name) == GOLDEN[name]


def final_consensus(name: str) -> np.ndarray:
    train, test = split()
    _, consensus = CASES[name](train, test)
    return np.concatenate([np.asarray(part, dtype=float).ravel() for part in consensus])


@pytest.mark.parametrize("name", sorted(PARENT_SOLVER))
def test_consensus_matches_coordinate_descent_solver(name):
    old = np.array(PARENT_SOLVER[name])
    assert np.linalg.norm(final_consensus(name) - old) <= 1e-6 * np.linalg.norm(old)


@pytest.mark.parametrize("name", sorted(PARENT_KNAPSACK))
def test_consensus_matches_bisection_knapsack(name):
    old = np.array(PARENT_KNAPSACK[name])
    assert np.linalg.norm(final_consensus(name) - old) <= 1e-9 * np.linalg.norm(old)


if __name__ == "__main__":  # pragma: no cover - deliberate re-pin only
    GOLDEN_PATH.write_text(json.dumps({n: observe(n) for n in sorted(CASES)}, indent=1) + "\n")
