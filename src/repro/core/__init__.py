"""The paper's primary contribution: privacy-preserving consensus SVMs.

Four algorithm variants (Section IV), each available two ways that run
one ADMM loop (:mod:`repro.core.mapreduce_svm`):

* an **in-process trainer** (:class:`HorizontalLinearSVM`,
  :class:`HorizontalKernelSVM`, :class:`VerticalLinearSVM`,
  :class:`VerticalKernelSVM`) on a private cluster with plaintext sums —
  used by unit tests, ablations, and the Fig. 4 accuracy series;
* the **full system** (:class:`PrivacyPreservingSVM`) with the
  coalition-resistant secure summation protocol at the Reducer.
"""

from repro.core.feature_selection import (
    SecureFeatureSelection,
    correlation_scores,
    secure_feature_selection,
    vertical_feature_selection,
)
from repro.core.horizontal_kernel import (
    HorizontalKernelSVM,
    HorizontalKernelWorker,
    sample_landmarks,
)
from repro.core.horizontal_linear import HorizontalLinearSVM, HorizontalLinearWorker
from repro.core.horizontal_logistic import HorizontalLogisticRegression, LogisticWorker
from repro.core.mapreduce_svm import ConsensusSolveError, LocalSolveError
from repro.core.partitioning import (
    VerticalPartition,
    horizontal_partition,
    vertical_partition,
)
from repro.core.results import IterationRecord, TrainingHistory
from repro.core.trainer import PrivacyPreservingSVM
from repro.core.vertical_kernel import VerticalKernelSVM, VerticalKernelWorker
from repro.core.vertical_linear import (
    VerticalConsensusReducer,
    VerticalLinearSVM,
    VerticalLinearWorker,
)

__all__ = [
    "ConsensusSolveError",
    "HorizontalKernelSVM",
    "SecureFeatureSelection",
    "correlation_scores",
    "secure_feature_selection",
    "vertical_feature_selection",
    "HorizontalKernelWorker",
    "HorizontalLinearSVM",
    "HorizontalLinearWorker",
    "HorizontalLogisticRegression",
    "IterationRecord",
    "LocalSolveError",
    "LogisticWorker",
    "PrivacyPreservingSVM",
    "TrainingHistory",
    "VerticalConsensusReducer",
    "VerticalKernelSVM",
    "VerticalKernelWorker",
    "VerticalLinearSVM",
    "VerticalLinearWorker",
    "VerticalPartition",
    "horizontal_partition",
    "sample_landmarks",
    "vertical_partition",
]
