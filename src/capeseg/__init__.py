"""Calibrated probability estimation workbench for pixel-wise segmentation.

Trains a small convolutional probability estimator on synthetic
probabilistic-segmentation data with known latent probabilities, and
compares plain cross-entropy training against the two-phase CaPE protocol
(cross-entropy warm-up with early stopping, then a combined
discrimination + calibration loss driven by quantile-binned empirical
frequencies).
"""

__version__ = "0.1.0"
