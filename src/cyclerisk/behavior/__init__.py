"""Transport-mode labeling from phone inertial and GPS signals."""

from .features import FEATURE_NAMES, extract_features, features_matrix
from .preprocess import make_windows, preprocess
from .rfe import consensus_select, ova_rankings, rfe_rank
from .stream import SensorStream
from .svm import KernelSpec, SvmModel, loss, train_svm
from .temporal import smooth_sequence, softmax

__all__ = [
    "FEATURE_NAMES",
    "KernelSpec",
    "SensorStream",
    "SvmModel",
    "consensus_select",
    "extract_features",
    "features_matrix",
    "loss",
    "make_windows",
    "ova_rankings",
    "preprocess",
    "rfe_rank",
    "smooth_sequence",
    "softmax",
    "train_svm",
]
