"""SVM substrate: kernels, quadratic-program solvers, and centralized SVMs.

This package implements, from scratch, everything the paper's distributed
algorithms need from the SVM world:

* the kernel zoo of Section III-B (:mod:`repro.svm.kernels`);
* a box-constrained QP solver for the ADMM local duals
  (:mod:`repro.svm.qp`);
* an SMO solver (box + single equality constraint) equivalent to the
  LIBSVM solver the paper benchmarks against (:mod:`repro.svm.smo`);
* an exact continuous quadratic-knapsack solver for the vertical reducer
  step (:mod:`repro.svm.knapsack`);
* centralized linear and kernel SVMs — the paper's benchmark classifiers
  (:mod:`repro.svm.model`).
"""

from repro.svm.calibration import PlattCalibrator
from repro.svm.grid_search import GridSearch, GridSearchResult
from repro.svm.kernels import (
    Kernel,
    LinearKernel,
    PolynomialKernel,
    RBFKernel,
    SigmoidKernel,
    kernel_by_name,
)
from repro.svm.knapsack import KnapsackConvergenceError, solve_quadratic_knapsack
from repro.svm.model import SVC, LinearSVC
from repro.svm.multiclass import OneVsOneClassifier, OneVsRestClassifier
from repro.svm.qp import solve_box_qp
from repro.svm.smo import solve_svm_dual

__all__ = [
    "GridSearch",
    "GridSearchResult",
    "Kernel",
    "KnapsackConvergenceError",
    "LinearKernel",
    "LinearSVC",
    "OneVsOneClassifier",
    "OneVsRestClassifier",
    "PlattCalibrator",
    "PolynomialKernel",
    "RBFKernel",
    "SVC",
    "SigmoidKernel",
    "kernel_by_name",
    "solve_box_qp",
    "solve_quadratic_knapsack",
    "solve_svm_dual",
]
