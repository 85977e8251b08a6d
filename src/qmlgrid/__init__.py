"""Statevector quantum classifiers and classical baselines on one
benchmarking harness: simulator, kernel feature maps, fused QNN,
fidelity-kernel QSVM, weighted SVM solver, reference models,
preprocessing pipeline, grid runner, and the CLI (run, report, compare,
verify, datasets)."""

__version__ = "0.1.0"

from .metrics import Metrics, evaluate  # noqa: F401
from .pipeline import Dataset, stratified_split  # noqa: F401
