"""Calibrated probability estimation workbench for pixel-wise segmentation.

Trains a small convolutional probability estimator on synthetic
probabilistic-segmentation data with known latent probabilities, and
compares plain cross-entropy training against the two-phase CaPE protocol
(cross-entropy warm-up with early stopping, then a combined
discrimination + calibration loss driven by quantile-binned empirical
frequencies).
"""

__version__ = "0.1.0"

from .calibration import (
    BinTable,
    MetricsReport,
    bce_loss,
    brier_score,
    build_bins,
    combined_loss,
    ece,
    kl_to_true,
)
from .fieldgen import Dataset, FieldConfig, generate_dataset
from .model import ModelParams, forward, init_params
from .numerics import Rng
from .pipeline import TrainConfig, evaluate_arm, run_experiment, split_kfold

__all__ = [
    "BinTable",
    "Dataset",
    "FieldConfig",
    "MetricsReport",
    "ModelParams",
    "Rng",
    "TrainConfig",
    "bce_loss",
    "brier_score",
    "build_bins",
    "combined_loss",
    "ece",
    "evaluate_arm",
    "forward",
    "generate_dataset",
    "init_params",
    "kl_to_true",
    "run_experiment",
    "split_kfold",
]
