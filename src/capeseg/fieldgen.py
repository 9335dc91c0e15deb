"""Synthetic probabilistic-segmentation data with known latent probabilities.

Each sample starts from a spatially correlated Gaussian field g (white
noise smoothed by a truncated Gaussian kernel, then standardized exactly
per field). The latent probability map is sigmoid(gain * g + offset),
where the offset is tuned by bisection so the mean event rate hits the
configured target. Outcomes are independent Bernoulli draws given the
map; input channels are g plus per-channel observation noise, so inputs
are informative about the latent probability without revealing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import Rng, sigmoid

P_CLAMP = 1e-6  # keeps logits finite and KL terms non-degenerate
OFFSET_LO, OFFSET_HI = -20.0, 20.0
OFFSET_TOL = 2.5e-4  # stop tolerance on |pool rate - target|; contract is 1e-3
CALIBRATION_FIELDS = 500  # fields pooled when tuning the offset

# Sub-stream keys under a dataset seed.
_STREAM_CALIBRATE = 0
_STREAM_SAMPLE = 1


@dataclass
class FieldConfig:
    height: int = 32
    width: int = 32
    channels: int = 3
    length_scale: float = 4.0  # smoothing kernel std, in pixels
    gain: float = 2.0  # logit amplitude of the latent field
    target_rate: float = 0.14  # desired marginal event rate
    obs_noise: float = 0.5  # per-channel input noise std
    seed: int = 0

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.channels < 1:
            raise ValueError("height, width and channels must be positive")
        if not 0.0 < self.target_rate < 1.0:
            raise ValueError(f"target_rate must be in (0, 1), got {self.target_rate}")
        if self.length_scale <= 0.0:
            raise ValueError("length_scale must be positive")
        if self.gain <= 0.0:
            raise ValueError("gain must be positive")
        if self.obs_noise < 0.0:
            raise ValueError("obs_noise must be non-negative")


@dataclass
class Dataset:
    """N samples as stacked float64 arrays."""

    inputs: np.ndarray  # N x C x H x W
    outcomes: np.ndarray  # N x H x W, values in {0.0, 1.0}
    true_p: Optional[np.ndarray] = None  # N x H x W in (0, 1), None when withheld

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.inputs.shape[1:]

    @property
    def has_true_p(self) -> bool:
        return self.true_p is not None


def _gaussian_kernel(length_scale: float) -> np.ndarray:
    radius = math.ceil(3.0 * length_scale)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-0.5 * (offsets / length_scale) ** 2)
    return w / w.sum()


def gen_smooth_field(config: FieldConfig, rng: Rng) -> np.ndarray:
    """Standardized smooth Gaussian field (exactly zero mean, unit variance).

    Smoothing wraps around the field edges (circular), which keeps the
    statistics stationary; the kernel is truncated at 3 length scales and
    must fit inside the field.
    """
    kernel = _gaussian_kernel(config.length_scale)
    if kernel.size > config.height or kernel.size > config.width:
        raise ValueError(
            f"smoothing kernel ({kernel.size} px at length_scale="
            f"{config.length_scale}) exceeds the {config.height}x{config.width} field"
        )
    radius = kernel.size // 2
    white = rng.normal((config.height, config.width))
    smooth = np.zeros_like(white)
    for d in range(-radius, radius + 1):
        smooth += kernel[d + radius] * np.roll(white, d, axis=0)
    out = np.zeros_like(smooth)
    for d in range(-radius, radius + 1):
        out += kernel[d + radius] * np.roll(smooth, d, axis=1)
    out -= out.mean()
    sd = out.std()
    if sd == 0.0:
        raise ValueError("degenerate constant field; cannot standardize")
    return out / sd


def gen_latent_field(
    config: FieldConfig, rng: Rng, offset: float
) -> tuple[np.ndarray, np.ndarray]:
    """Smooth field g and its probability map sigmoid(gain * g + offset).

    Probabilities are clamped away from 0 and 1 so logits stay finite.
    """
    g = gen_smooth_field(config, rng)
    p = sigmoid(config.gain * g + offset)
    return g, np.clip(p, P_CLAMP, 1.0 - P_CLAMP)


def calibrate_offset(config: FieldConfig, rng: Rng) -> float:
    """Logit offset b with mean(sigmoid(gain * g + b)) within 1e-3 of the target rate.

    The mean is estimated over a fixed pool of fresh fields and is
    strictly increasing in b, so bisection over [-20, 20] converges; the
    stop tolerance is tighter than the contract so that pool sampling
    noise does not eat the downstream event-rate budget.
    """
    rho = config.target_rate
    pool = np.stack([gen_smooth_field(config, rng) for _ in range(CALIBRATION_FIELDS)])
    scaled = config.gain * pool

    def mean_rate(b: float) -> float:
        return float(np.mean(sigmoid(scaled + b)))

    lo, hi = OFFSET_LO, OFFSET_HI
    if not mean_rate(lo) < rho < mean_rate(hi):
        raise ValueError(
            f"cannot bracket target rate {rho} with offsets in [{lo}, {hi}]"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rate = mean_rate(mid)
        if abs(rate - rho) <= OFFSET_TOL:
            return mid
        if rate < rho:
            lo = mid
        else:
            hi = mid
    raise ValueError(f"offset bisection failed to reach tolerance {OFFSET_TOL}")


def make_sample(
    config: FieldConfig, rng: Rng, offset: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sample as (inputs C x H x W, binary outcomes H x W, true_p H x W).

    Outcomes are Bernoulli draws from the latent map and inputs are the
    field plus noise. Draw order within the stream is fixed: field noise,
    outcome uniforms, then per-channel input noise.
    """
    g, p = gen_latent_field(config, rng, offset)
    outcomes = (rng.uniform(p.shape) < p).astype(np.float64)
    noise = rng.normal((config.channels,) + p.shape)
    return g[None, :, :] + config.obs_noise * noise, outcomes, p


def generate_dataset(config: FieldConfig, n_samples: int) -> Dataset:
    """n_samples independent samples under one calibrated offset.

    Fully determined by config.seed: the offset uses one sub-stream,
    and sample i draws from a sub-stream keyed by i, so generation order
    (or parallelism) cannot change the result.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    root = Rng(config.seed)
    offset = calibrate_offset(config, root.child(_STREAM_CALIBRATE))
    c, h, w = config.channels, config.height, config.width
    ds = Dataset(
        inputs=np.empty((n_samples, c, h, w)),
        outcomes=np.empty((n_samples, h, w)),
        true_p=np.empty((n_samples, h, w)),
    )
    for i in range(n_samples):
        ds.inputs[i], ds.outcomes[i], ds.true_p[i] = make_sample(
            config, root.child(_STREAM_SAMPLE, i), offset
        )
    return ds
