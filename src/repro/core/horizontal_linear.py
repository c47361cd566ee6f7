"""Linear SVM over horizontally partitioned data (paper Section IV-A).

The joint problem (paper eq. (6)) gives each learner its own copy
``(w_m, b_m)`` of the separating hyperplane, constrained to a global
consensus ``(z, s)``.  ADMM splits it into

* a **local dual QP per learner** (the Map() task) — our re-derivation
  (DESIGN.md §6): with ``a = 1/M + rho``, ``u = z - gamma_m``,
  ``t = s - beta_m``, minimize over ``0 <= lambda <= C``

      (1/2) l' [ (1/a) Y X X' Y + (1/rho) Y 1 1' Y ] l
          + [ (rho/a) Y X u + t Y 1 - 1 ]' l

  after which ``w_m = (rho u + X' Y lambda)/a`` and
  ``b_m = t + (1' Y lambda)/rho`` (paper eqs. (12)–(13a/d), with the
  bias penalty folding the paper's equality constraint into the
  objective);

* an **averaging step at the Reducer** (paper eqs. (13b/e)):
  ``z = mean_m(w_m + gamma_m)``, ``s = mean_m(b_m + beta_m)`` — only
  *sums* of local quantities are needed, which is what the secure
  summation protocol provides;

* **scaled dual updates on each learner** (paper eqs. (13c/f)):
  ``gamma_m += w_m - z``, ``beta_m += b_m - s``.

The Hessian of the local dual is constant across iterations and, with
``k`` features, has rank at most ``k + 1``.  Each worker factors it
once — as ``[Y X / sqrt(a), y / sqrt(rho)]`` itself, never forming the
n x n matrix, when ``k + 1 <= n`` — and warm-starts its QP from the
previous ``lambda``; this is what makes per-iteration Map() cheap.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.twister import IterationResult
from repro.core.mapreduce_svm import (
    HorizontalConsensusReducer,
    HorizontalSVMMapper,
    horizontal_payloads,
    run_in_process,
)
from repro.core.results import TrainingHistory
from repro.data.dataset import Dataset
from repro.svm.model import SignClassifier
from repro.svm.qp import BoxQPResult, psd_factor, solve_box_qp
from repro.utils.rng import as_rng
from repro.utils.validation import check_labels, check_matrix, check_positive

__all__ = ["HorizontalLinearSVM", "HorizontalLinearWorker"]


class HorizontalLinearWorker:
    """One learner's Map() computation for the linear horizontal scheme.

    Holds the private partition ``(X_m, y_m)`` and all per-learner ADMM
    state (``w_m``, ``b_m``, the scaled duals ``gamma_m``, ``beta_m``,
    and the warm-start ``lambda``).  The only thing that ever leaves the
    worker is the return value of :meth:`step` — the masked summands of
    the consensus average.  ``last_qp`` keeps the latest local
    :class:`~repro.svm.qp.BoxQPResult`.

    Parameters
    ----------
    X, y:
        The learner's private rows and labels.
    C:
        Slack penalty (shared across learners).
    rho:
        ADMM penalty (the paper's "learning speed" parameter).
    n_learners:
        M, the number of collaborating learners.
    qp_tol, qp_max_sweeps:
        Local QP solver controls.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        C: float = 50.0,
        rho: float = 100.0,
        n_learners: int,
        qp_tol: float = 1e-8,
        qp_max_sweeps: int = 500,
    ) -> None:
        self.X = check_matrix(X, "X")
        self.y = check_labels(y, "y", length=self.X.shape[0])
        self.C = check_positive(C, "C")
        self.rho = check_positive(rho, "rho")
        if n_learners < 1:
            raise ValueError(f"n_learners must be >= 1, got {n_learners}")
        self.n_learners = int(n_learners)
        self.qp_tol = qp_tol
        self.qp_max_sweeps = qp_max_sweeps

        n, k = self.X.shape
        self._a = 1.0 / self.n_learners + self.rho
        xy = self.X * self.y[:, None]  # rows are y_i * x_i
        # The QP takes a factor of its Hessian (XY)(XY)'/a + yy'/rho: with
        # k + 1 <= n the concatenation itself, else a factor of the n x n
        # Gram, the smaller of the two.
        if k + 1 <= n:
            self._factor = np.column_stack(
                [xy / np.sqrt(self._a), self.y / np.sqrt(self.rho)]
            )
        else:
            self._factor = psd_factor(
                (xy @ xy.T) / self._a + np.outer(self.y, self.y) / self.rho
            )
        self._lambda = np.zeros(n)
        self.w = np.zeros(k)
        self.b = 0.0
        self.gamma = np.zeros(k)
        self.beta = 0.0
        self._started = False
        self.last_qp: BoxQPResult | None = None
        self.last_output: dict[str, np.ndarray] | None = None

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    def step(self, z: np.ndarray, s: float) -> dict[str, np.ndarray]:
        """Run one ADMM local iteration against consensus ``(z, s)``.

        Returns the learner's summands ``{"z_contrib", "s_contrib"}``;
        averaging them across learners yields the next ``(z, s)``.
        """
        z = np.asarray(z, dtype=float).ravel()
        if z.shape[0] != self.w.shape[0]:
            raise ValueError(f"z has length {z.shape[0]}, expected {self.w.shape[0]}")
        s = float(s)

        # Dual updates (paper eqs. (13c)/(13f)) — deferred until the new
        # consensus arrives, so they use this worker's previous (w, b).
        if self._started:
            self.gamma = self.gamma + self.w - z
            self.beta = self.beta + self.b - s
        self._started = True

        u = z - self.gamma
        t = s - self.beta
        d = (self.rho / self._a) * (self.y * (self.X @ u)) + t * self.y - 1.0
        result = solve_box_qp(
            self._factor,
            d,
            0.0,
            self.C,
            x0=self._lambda,
            tol=self.qp_tol,
            max_sweeps=self.qp_max_sweeps,
        )
        self.last_qp = result
        self._lambda = result.x

        self.w = (self.rho * u + (self._lambda * self.y) @ self.X) / self._a
        self.b = t + float(self.y @ self._lambda) / self.rho
        self.last_output = {
            "z_contrib": self.w + self.gamma,
            "s_contrib": np.array([self.b + self.beta]),
        }
        return self.last_output

    def local_decision_function(self, X: np.ndarray) -> np.ndarray:
        """Scores under this learner's *local* model ``(w_m, b_m)``."""
        X = check_matrix(X, "X")
        return X @ self.w + self.b


class HorizontalLinearSVM(SignClassifier):
    """In-process trainer for the linear horizontal scheme.

    Trains on a list of local partitions through the same ADMM engine as
    :class:`~repro.core.trainer.PrivacyPreservingSVM`, on a private
    in-memory cluster with plaintext aggregation (see
    :func:`~repro.core.mapreduce_svm.run_in_process`).  Useful for unit
    tests, ablations, and as the numerical reference for the secure
    trainer: the two differ only in how the sums are formed.

    Parameters
    ----------
    C, rho:
        Paper Section VI defaults (C = 50, rho = 100).
    max_iter:
        ADMM iteration budget (the paper plots 100).
    tol:
        Early-stopping threshold on ``||z^{t+1} - z^t||^2``; ``None``
        disables early stopping (paper-style fixed-length runs).
    participation:
        Fraction of learners that perform a *fresh* local solve each
        iteration (stale/partial-participation ADMM, an extension: the
        remaining learners resend their cached contribution, modeling
        slow or intermittently-available organizations).  1.0 (default)
        is the paper's synchronous scheme.  ``seed`` drives the draw.
    """

    def __init__(
        self,
        C: float = 50.0,
        rho: float = 100.0,
        *,
        max_iter: int = 100,
        tol: float | None = None,
        participation: float = 1.0,
        seed: int | np.random.Generator | None = 0,
        qp_tol: float = 1e-8,
        qp_max_sweeps: int = 500,
    ) -> None:
        self.C = check_positive(C, "C")
        self.rho = check_positive(rho, "rho")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if not 0.0 < participation <= 1.0:
            raise ValueError(f"participation must be in (0, 1], got {participation}")
        self.max_iter = int(max_iter)
        self.tol = tol
        self.participation = float(participation)
        self.seed = seed
        self.qp_tol = qp_tol
        self.qp_max_sweeps = qp_max_sweeps
        self.workers_: list[HorizontalLinearWorker] = []
        self.consensus_weights_: np.ndarray | None = None
        self.consensus_bias_: float = 0.0
        self.history_ = TrainingHistory()

    def fit(
        self, partitions: list[Dataset], *, eval_set: Dataset | None = None
    ) -> "HorizontalLinearSVM":
        """Train from per-learner datasets (see :func:`horizontal_partition`).

        ``eval_set`` enables the per-iteration correct-ratio series of
        Fig. 4(e) (scored with the consensus model).
        """
        payloads = horizontal_payloads(
            partitions,
            C=self.C,
            rho=self.rho,
            qp_tol=self.qp_tol,
            qp_max_sweeps=self.qp_max_sweeps,
        )
        n_learners = len(payloads)
        reducer = HorizontalConsensusReducer(partitions[0].n_features, tol=self.tol)
        rng = as_rng(self.seed)
        n_active = max(1, int(round(self.participation * n_learners)))

        def participate(result: IterationResult, mappers: list[HorizontalSVMMapper]) -> None:
            # Everyone solves in round 0; later rounds draw who solves
            # afresh, and the rest resend their cached contribution.
            if result.converged or result.iteration + 1 >= self.max_iter:
                return
            active = rng.choice(n_learners, size=n_active, replace=False).tolist()
            for index, mapper in enumerate(mappers):
                mapper.stale = index not in active

        self.workers_ = run_in_process(
            payloads,
            HorizontalSVMMapper,
            reducer,
            max_iter=self.max_iter,
            local_state=lambda worker: worker.w,
            evaluate=None
            if eval_set is None
            else (eval_set.y, lambda workers: eval_set.X @ reducer.z + reducer.s),
            after_round=participate if self.participation < 1.0 else None,
        )
        self.history_ = reducer.history
        self.consensus_weights_ = reducer.z
        self.consensus_bias_ = reducer.s
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Scores under the consensus model ``(z, s)``."""
        if self.consensus_weights_ is None:
            raise RuntimeError("model must be fit before use")
        X = check_matrix(X, "X")
        return X @ self.consensus_weights_ + self.consensus_bias_
