"""Nonlinear (kernel) SVM over horizontally partitioned data (Section IV-B).

The kernel twist: local models ``w_m`` live in the (possibly infinite-
dimensional) RKHS, so they cannot be averaged directly.  The paper
instead enforces consensus on the **projection onto l shared landmark
points**: ``G w_m = z`` with ``G = phi(X_g)`` for a public ``l x k``
landmark matrix ``X_g`` (eq. (15)).  Everything then reduces to kernel
evaluations (eqs. (20)–(25)); our clean re-derivation (DESIGN.md §6):

with ``K_g = I + M rho K(X_g, X_g)`` and the Woodbury identity,

    S        = M (I + M rho G'G)^(-1) = M (I - M rho G' K_g^(-1) G)
    Phi S Phi' = M (K_mm - M rho K_mg K_g^(-1) K_gm)
    Phi S G'   = M (K_mg - M rho K_mg K_g^(-1) K_gg)
    G S G'     = M (K_gg - M rho K_gg K_g^(-1) K_gg)

Local dual (box QP, constant Hessian):

    min_{0<=l<=C} (1/2) l' [Y (Phi S Phi') Y + (1/rho) Y 1 1' Y] l
                 + [rho Y (Phi S G') u + t Y 1 - 1]' l

with ``u = z - r_m``, ``t = s - beta_m``; then the learner's consensus
image is ``G w_m = (Phi S G')' Y lambda + rho (G S G') u`` and the
trained discriminant is the representer form of Lemma 4.4:

    f(x) = K(x, X_m) a + K(x, X_g) c + b,
    a = M Y lambda,
    c = M rho u - M^2 rho K_g^(-1) (K_gm Y lambda + rho K_gg u).

Landmarks are *public* randomness shared by all learners — they carry
no private data (they are sampled from a data-independent distribution),
which is what lets the consensus image be exchanged at all.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.core.mapreduce_svm import (
    HorizontalConsensusReducer,
    HorizontalSVMMapper,
    horizontal_payloads,
    run_in_process,
)
from repro.core.results import TrainingHistory
from repro.data.dataset import Dataset
from repro.svm.kernels import Kernel, RBFKernel
from repro.svm.model import SignClassifier
from repro.svm.qp import BoxQPResult, psd_factor, solve_box_qp
from repro.utils.rng import as_rng
from repro.utils.validation import check_labels, check_matrix, check_positive

__all__ = ["HorizontalKernelSVM", "HorizontalKernelWorker", "sample_landmarks"]


def sample_landmarks(
    n_landmarks: int,
    n_features: int,
    *,
    scale: float = 1.0,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Sample a public landmark matrix ``X_g`` (the paper's random choice).

    Standard-normal landmarks (times ``scale``) make ``K(X_g, X_g)``
    nonsingular with probability 1 for the usual kernels, which is the
    paper's stated requirement for convergence (Lemma 4.2 discussion).
    Being data-independent, they can be broadcast without privacy loss.
    """
    if n_landmarks < 1:
        raise ValueError(f"n_landmarks must be >= 1, got {n_landmarks}")
    rng = as_rng(seed)
    return scale * rng.standard_normal((n_landmarks, n_features))


class HorizontalKernelWorker:
    """One learner's Map() computation for the kernel horizontal scheme.

    Parameters
    ----------
    X, y:
        Private local rows and labels.
    landmarks:
        The shared public landmark matrix ``X_g`` (``l x k``).
    kernel:
        Shared kernel function.
    C, rho, n_learners, qp_tol, qp_max_sweeps:
        As in the linear scheme; ``last_qp`` likewise keeps the latest
        local :class:`~repro.svm.qp.BoxQPResult`.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        landmarks: np.ndarray,
        *,
        kernel: Kernel,
        C: float = 50.0,
        rho: float = 100.0,
        n_learners: int,
        qp_tol: float = 1e-8,
        qp_max_sweeps: int = 500,
    ) -> None:
        self.X = check_matrix(X, "X")
        self.y = check_labels(y, "y", length=self.X.shape[0])
        self.landmarks = check_matrix(landmarks, "landmarks")
        if self.landmarks.shape[1] != self.X.shape[1]:
            raise ValueError("landmarks must share the data's feature dimension")
        self.kernel = kernel
        self.C = check_positive(C, "C")
        self.rho = check_positive(rho, "rho")
        self.n_learners = int(n_learners)
        self.qp_tol = qp_tol
        self.qp_max_sweeps = qp_max_sweeps

        n = self.X.shape[0]
        n_land = self.landmarks.shape[0]
        M, rho_ = float(self.n_learners), self.rho

        k_mm = kernel.gram(self.X)
        k_mg = kernel(self.X, self.landmarks)
        k_gg = kernel.gram(self.landmarks)
        kg_mat = np.eye(n_land) + M * rho_ * k_gg
        # Cholesky of the (symmetric positive definite) reduced matrix.
        self._kg_factor = sla.cho_factor(kg_mat)
        kg_inv_kgm = sla.cho_solve(self._kg_factor, k_mg.T)  # K_g^{-1} K_gm, (l, n)
        kg_inv_kgg = sla.cho_solve(self._kg_factor, k_gg)  # K_g^{-1} K_gg, (l, l)

        phi_s_phi = M * (k_mm - M * rho_ * k_mg @ kg_inv_kgm)
        self._phi_s_g = M * (k_mg - M * rho_ * k_mg @ kg_inv_kgg)  # (n, l)
        self._g_s_g = M * (k_gg - M * rho_ * k_gg @ kg_inv_kgg)  # (l, l)
        self._kg_inv_kgm = kg_inv_kgm
        self._kg_inv_kgg = kg_inv_kgg
        # The local QP only ever sees a factor of its constant Hessian.
        self._factor = psd_factor(np.outer(self.y, self.y) * (phi_s_phi + 1.0 / rho_))

        self._lambda = np.zeros(n)
        self.gw = np.zeros(n_land)  # G w_m, the consensus image
        self.b = 0.0
        self.r = np.zeros(n_land)  # scaled dual for G w_m = z
        self.beta = 0.0
        self._u = np.zeros(n_land)
        self._started = False
        self.last_qp: BoxQPResult | None = None

    @property
    def n_landmarks(self) -> int:
        return self.landmarks.shape[0]

    def step(self, z: np.ndarray, s: float) -> dict[str, np.ndarray]:
        """One ADMM local iteration against the reduced consensus ``(z, s)``."""
        z = np.asarray(z, dtype=float).ravel()
        if z.shape[0] != self.n_landmarks:
            raise ValueError(f"z has length {z.shape[0]}, expected {self.n_landmarks}")
        s = float(s)

        if self._started:
            self.r = self.r + self.gw - z
            self.beta = self.beta + self.b - s
        self._started = True

        u = z - self.r
        t = s - self.beta
        self._u = u
        d = self.rho * (self.y * (self._phi_s_g @ u)) + t * self.y - 1.0
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

        ylam = self.y * self._lambda
        self.gw = self._phi_s_g.T @ ylam + self.rho * (self._g_s_g @ u)
        self.b = t + float(np.sum(ylam)) / self.rho
        return {
            "z_contrib": self.gw + self.r,
            "s_contrib": np.array([self.b + self.beta]),
        }

    def representer_coefficients(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The Lemma-4.4 coefficients ``(a, c, b)`` of the local model."""
        M, rho_ = float(self.n_learners), self.rho
        ylam = self.y * self._lambda
        a = M * ylam
        c = (
            M * rho_ * self._u
            - (M * M * rho_) * (self._kg_inv_kgm @ ylam)
            - (M * M * rho_ * rho_) * (self._kg_inv_kgg @ self._u)
        )
        return a, c, self.b

    def local_decision_function(self, X: np.ndarray) -> np.ndarray:
        """Scores ``f(x) = K(x,X_m) a + K(x,X_g) c + b`` (local model)."""
        X = check_matrix(X, "X")
        a, c, b = self.representer_coefficients()
        return self.kernel(X, self.X) @ a + self.kernel(X, self.landmarks) @ c + b


class HorizontalKernelSVM(SignClassifier):
    """In-process trainer for the kernel horizontal scheme.

    Parameters
    ----------
    kernel:
        Shared kernel (defaults to RBF, the paper's main nonlinear case).
    C, rho:
        Paper Section VI defaults.
    n_landmarks:
        Size ``l`` of the reduced consensus space (the paper's
        communication/accuracy trade-off; see the landmark ablation
        benchmark).
    landmark_scale:
        Scale of the random landmark cloud.
    eval_learner:
        Which learner's local model scores the eval set each iteration
        (the paper plots learner 1, i.e. index 0).
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        C: float = 50.0,
        rho: float = 100.0,
        *,
        n_landmarks: int = 20,
        landmark_scale: float = 1.0,
        landmarks: np.ndarray | None = None,
        max_iter: int = 100,
        tol: float | None = None,
        eval_learner: int = 0,
        seed: int | np.random.Generator | None = 0,
        qp_tol: float = 1e-8,
        qp_max_sweeps: int = 500,
    ) -> None:
        self.kernel = kernel if kernel is not None else RBFKernel(gamma=0.5)
        self.C = check_positive(C, "C")
        self.rho = check_positive(rho, "rho")
        self.n_landmarks = int(n_landmarks)
        self.landmark_scale = check_positive(landmark_scale, "landmark_scale")
        self._given_landmarks = landmarks
        self.max_iter = int(max_iter)
        self.tol = tol
        self.eval_learner = int(eval_learner)
        self.seed = seed
        self.qp_tol = qp_tol
        self.qp_max_sweeps = qp_max_sweeps
        self.workers_: list[HorizontalKernelWorker] = []
        self.landmarks_: np.ndarray | None = None
        self.consensus_: np.ndarray | None = None
        self.consensus_bias_: float = 0.0
        self.history_ = TrainingHistory()

    def fit(
        self, partitions: list[Dataset], *, eval_set: Dataset | None = None
    ) -> "HorizontalKernelSVM":
        """Train from per-learner datasets; see :class:`HorizontalLinearSVM`."""
        payloads = horizontal_payloads(
            partitions,
            C=self.C,
            rho=self.rho,
            qp_tol=self.qp_tol,
            qp_max_sweeps=self.qp_max_sweeps,
            kernel=self.kernel,
        )
        if self._given_landmarks is not None:
            landmarks = check_matrix(self._given_landmarks, "landmarks")
        else:
            landmarks = sample_landmarks(
                self.n_landmarks,
                partitions[0].n_features,
                scale=self.landmark_scale,
                seed=self.seed,
            )
        self.landmarks_ = landmarks
        if not 0 <= self.eval_learner < len(payloads):
            raise ValueError(f"eval_learner {self.eval_learner} out of range")

        reducer = HorizontalConsensusReducer(landmarks.shape[0], tol=self.tol)
        self.workers_ = run_in_process(
            [dict(payload, landmarks=landmarks) for payload in payloads],
            HorizontalSVMMapper,
            reducer,
            max_iter=self.max_iter,
            local_state=lambda worker: worker.gw,
            evaluate=None
            if eval_set is None
            else (
                eval_set.y,
                lambda workers: workers[self.eval_learner].local_decision_function(eval_set.X),
            ),
        )
        self.history_ = reducer.history
        self.consensus_ = reducer.z
        self.consensus_bias_ = reducer.s
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Scores under the ``eval_learner``'s local model.

        The consensus lives in the reduced landmark space; actual
        classification is always done by a learner's representer model
        (the paper evaluates at learner 1).
        """
        if not self.workers_:
            raise RuntimeError("model must be fit before use")
        return self.workers_[self.eval_learner].local_decision_function(X)
