"""Centralized SVM classifiers — the paper's benchmark (Section VI).

:class:`SVC` trains a kernel soft-margin SVM by running SMO on the full
Gram matrix (the role LIBSVM plays in the paper); :class:`LinearSVC` is
the linear special case that additionally exposes the explicit weight
vector ``w`` (needed to compare against the distributed consensus ``z``).
"""

from __future__ import annotations

import numpy as np

from repro.svm.kernels import Kernel, LinearKernel
from repro.svm.smo import solve_svm_dual
from repro.utils.validation import check_labels, check_matrix, check_positive

__all__ = ["LinearSVC", "SVC", "SignClassifier", "accuracy"]


def accuracy(y_true, y_pred) -> float:
    """Fraction of matching -1/+1 labels (the paper's "correct ratio")."""
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    return float(np.mean(y_true == y_pred))


class SignClassifier:
    """``predict``/``score`` for a model whose label is the sign of its
    ``decision_function`` (ties go to +1)."""

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed scores; subclasses define them."""
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted -1/+1 labels."""
        return np.where(self.decision_function(X) >= 0, 1.0, -1.0)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on ``(X, y)``."""
        return accuracy(check_labels(y, "y"), self.predict(X))


class SVC:
    """Kernel soft-margin SVM trained with SMO.

    Parameters
    ----------
    kernel:
        A :class:`~repro.svm.kernels.Kernel`; defaults to linear.
    C:
        Slack penalty (the paper uses C = 50 throughout Section VI).
    tol:
        SMO stopping tolerance (1e-3, the LIBSVM default).
    max_iter:
        SMO update budget.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        C: float = 50.0,
        *,
        tol: float = 1e-3,
        max_iter: int = 200_000,
    ) -> None:
        self.kernel = kernel if kernel is not None else LinearKernel()
        self.C = check_positive(C, "C")
        self.tol = check_positive(tol, "tol")
        self.max_iter = int(max_iter)
        self.alpha_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.X_: np.ndarray | None = None
        self.y_: np.ndarray | None = None
        self.converged_: bool = False
        self.n_iter_: int = 0

    def fit(self, X, y) -> "SVC":
        """Train on ``(X, y)``; returns ``self``."""
        X = check_matrix(X, "X")
        y = check_labels(y, "y", length=X.shape[0])
        K = self.kernel.gram(X)
        result = solve_svm_dual(K, y, self.C, tol=self.tol, max_iter=self.max_iter)
        self.alpha_ = result.alpha
        self.bias_ = result.bias
        self.X_ = X
        self.y_ = y
        self.converged_ = result.converged
        self.n_iter_ = result.iterations
        return self

    @property
    def support_indices_(self) -> np.ndarray:
        """Indices of the support vectors (alpha_i > 0)."""
        self._check_fitted()
        return np.flatnonzero(self.alpha_ > 1e-10)

    def decision_function(self, X) -> np.ndarray:
        """Signed margin ``f(x) = sum_i alpha_i y_i K(x_i, x) + b``."""
        self._check_fitted()
        X = check_matrix(X, "X")
        coef = self.alpha_ * self.y_
        return self.kernel(X, self.X_) @ coef + self.bias_

    def predict(self, X) -> np.ndarray:
        """Predicted -1/+1 labels (ties broken towards +1)."""
        scores = self.decision_function(X)
        out = np.sign(scores)
        out[out == 0] = 1.0
        return out

    def score(self, X, y) -> float:
        """Accuracy on ``(X, y)``."""
        return accuracy(check_labels(y, "y"), self.predict(X))

    def _check_fitted(self) -> None:
        if self.alpha_ is None:
            raise RuntimeError("SVC must be fit before use")


class LinearSVC(SVC):
    """Linear SVM that materializes the primal weight vector.

    After :meth:`fit`, ``coef_`` holds ``w = sum_i alpha_i y_i x_i`` and
    ``intercept_`` the bias, so predictions reduce to ``sign(Xw + b)``.
    """

    def __init__(self, C: float = 50.0, *, tol: float = 1e-3, max_iter: int = 200_000) -> None:
        super().__init__(kernel=LinearKernel(), C=C, tol=tol, max_iter=max_iter)
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "LinearSVC":
        """Train and materialize ``coef_``/``intercept_``."""
        super().fit(X, y)
        self.coef_ = (self.alpha_ * self.y_) @ self.X_
        self.intercept_ = self.bias_
        return self

    def decision_function(self, X) -> np.ndarray:
        """Signed margin ``Xw + b`` from the explicit weight vector."""
        self._check_fitted()
        X = check_matrix(X, "X")
        if X.shape[1] != self.coef_.shape[0]:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fit with {self.coef_.shape[0]}"
            )
        return X @ self.coef_ + self.intercept_
