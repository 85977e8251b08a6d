"""Statevector quantum classifiers and classical baselines on one
benchmarking harness: simulator, circuit IR, QNN, fidelity-kernel QSVM,
weighted SVM solver, reference models, preprocessing pipeline, grid
runner with its settings file, and the CLI (run, report, verify,
datasets)."""

__version__ = "0.1.0"

from .circuit import CircuitSpec, ParamBinding  # noqa: F401
from .metrics import Metrics, evaluate  # noqa: F401
from .pipeline import Dataset, stratified_split  # noqa: F401
from .statevec import Gate  # noqa: F401
