"""Nonlinear (kernel) SVM over vertically partitioned data (Section IV-C).

The paper notes the vertical nonlinear case is "a straightforward
modification": the consensus vector ``z`` has fixed size N regardless of
the kernel, so only the Mapper's ridge subproblem changes.  With
``Phi_m = phi(X_m)`` the learner-m feature map *of its own columns*, the
update

    w_m := argmin (1/2)||w||_H^2 + (rho/2)||Phi_m w - p_m||^2

has, by the push-through identity (the paper's eq. (20) trick),

    alpha_m = (K_m + I/rho)^(-1) p_m,      a_m = Phi_m w_m = K_m alpha_m,

where ``K_m = K(X_m, X_m)`` is the Gram matrix on learner m's columns —
an ``N x N`` Cholesky factored once.  The Reducer step is *identical* to
the linear case (:class:`~repro.core.vertical_linear.VerticalConsensusReducer`).

Note the resulting joint model is an **additive kernel machine**
``f(x) = sum_m K_m(x_m, X_m) alpha_m + b``: each learner contributes a
kernel machine on its own feature block.  That is inherent to the
vertical decomposition — the cross-learner feature interactions live
only in the shared consensus vector, exactly as in the paper.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.core.vertical_linear import VerticalLinearSVM, VerticalLinearWorker
from repro.svm.kernels import Kernel, RBFKernel
from repro.utils.validation import check_matrix, check_positive

__all__ = ["VerticalKernelSVM", "VerticalKernelWorker"]


class VerticalKernelWorker(VerticalLinearWorker):
    """One learner's Map() computation for the kernel vertical scheme.

    The linear worker's ``step``/``score_share`` with a kernel-ridge
    solve in place of the ridge solve.

    Parameters
    ----------
    X:
        The learner's ``(N, k_m)`` column block (private).
    kernel:
        Kernel applied to this learner's feature subset.
    rho:
        ADMM penalty, shared.
    """

    def __init__(self, X: np.ndarray, *, kernel: Kernel, rho: float = 100.0) -> None:
        self.X = check_matrix(X, "X")
        self.kernel = kernel
        self.rho = check_positive(rho, "rho")
        n = self.X.shape[0]
        self._K = kernel.gram(self.X)
        self._factor = sla.cho_factor(self._K + np.eye(n) / self.rho)
        self.alpha = np.zeros(n)
        self.share = np.zeros(n)  # a_m = K_m alpha_m

    def _solve(self, target: np.ndarray) -> np.ndarray:
        """Kernel-ridge fit ``alpha_m``; return the share ``K_m alpha_m``."""
        self.alpha = sla.cho_solve(self._factor, target)
        return self._K @ self.alpha

    def _score(self, X_test: np.ndarray) -> np.ndarray:
        return self.kernel(X_test, self.X) @ self.alpha


class VerticalKernelSVM(VerticalLinearSVM):
    """In-process trainer for the kernel vertical scheme.

    :class:`~repro.core.vertical_linear.VerticalLinearSVM` with kernel
    workers: the Reducer step is identical, and the ``kernel`` is
    applied per-learner to that learner's feature block.  ``fit``
    (``eval_X/eval_y`` give the Fig. 4(h) accuracy series) and the
    joint additive-kernel ``decision_function`` are inherited.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        C: float = 50.0,
        rho: float = 100.0,
        *,
        max_iter: int = 100,
        tol: float | None = None,
    ) -> None:
        super().__init__(C, rho, max_iter=max_iter, tol=tol)
        self.kernel = kernel if kernel is not None else RBFKernel(gamma=0.5)
