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
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .numerics import CHUNK, Rng, sigmoid

P_CLAMP = 1e-6  # keeps logits finite and KL terms non-degenerate
OFFSET_LO, OFFSET_HI = -20.0, 20.0
OFFSET_TOL = 2.5e-4  # stop tolerance on |pool rate - target|; contract is 1e-3
CALIBRATION_FIELDS = 500  # fields pooled when tuning the offset
OFFSET_BINS = 4096  # equal bins of the pool, which bound most bisection steps' rates
CHUNK_FIELDS = 32  # fields smoothed per stack, which keeps the working set cache-sized

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
        _gaussian_kernel(self)  # raises if its taps are wider than the field
        if self.gain <= 0.0:
            raise ValueError("gain must be positive")
        if self.obs_noise < 0.0:
            raise ValueError("obs_noise must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Dataset:
    """N samples as stacked arrays: float64 when made, in the file's dtypes when read."""

    inputs: np.ndarray  # N x C x H x W
    outcomes: np.ndarray  # N x H x W, values in {0, 1}
    true_p: Optional[np.ndarray] = None  # N x H x W in (0, 1), None when withheld

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @classmethod
    def empty(cls, n: int, shape, has_true_p: bool = True, alloc=np.empty) -> Dataset:
        """n unfilled samples of `shape` (C, H, W), in arrays that alloc(shape) makes."""
        c, h, w = shape
        return cls(alloc((n, c, h, w)), alloc((n, h, w)), alloc((n, h, w)) if has_true_p else None)

    def head(self, n: int) -> Dataset:  # the first n samples, as views
        true_p = self.true_p[:n] if self.has_true_p else None
        return Dataset(self.inputs[:n], self.outcomes[:n], true_p)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.inputs.shape[1:]

    @property
    def has_true_p(self) -> bool:
        return self.true_p is not None


@dataclass
class DatasetStream:
    """n_samples samples of one (C, H, W) shape, made or read a chunk at a time:
    `chunks` yields them once, in order, as Datasets, each valid until the next is drawn."""

    n_samples: int
    shape: tuple[int, int, int]
    has_true_p: bool
    chunks: Iterable[Dataset]

    def __len__(self) -> int:
        return self.n_samples

    def assemble(self) -> Dataset:
        """The samples in one Dataset of the chunks' dtypes, each chunk let go before the next."""
        ds, at = None, 0
        for chunk in self.chunks:
            parts = (chunk.inputs, chunk.outcomes, chunk.true_p)
            if ds is None:
                ds = Dataset(*(a if a is None else np.empty((len(self), *a.shape[1:]), a.dtype)
                               for a in parts))
            for whole, part in zip((ds.inputs, ds.outcomes, ds.true_p), parts):
                if part is not None:
                    whole[at : at + len(chunk)] = part
            at += len(chunk)
            del chunk, parts
        return ds


def _gaussian_kernel(config: FieldConfig) -> np.ndarray:
    """Normalized taps truncated at 3 length scales, refused unbuilt when wider than the field."""
    radius = math.ceil(3.0 * config.length_scale)
    if 2 * radius + 1 > min(config.height, config.width):
        raise ValueError(
            f"smoothing kernel ({2 * radius + 1} px at length_scale="
            f"{config.length_scale}) exceeds the {config.height}x{config.width} field"
        )
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-0.5 * (offsets / config.length_scale) ** 2)
    return w / w.sum()


def _smooth_fields(fields: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Smooth each field of an N x H x W stack in place, then standardize it
    exactly (zero mean, unit variance) on its own; returns the stack.

    Smoothing wraps around the field edges (circular), which keeps the
    statistics stationary. Each pass (rows, then columns) sums the taps in
    order, from zero, over slices of a wrap-padded copy: no bit depends on N.
    """
    radius = kernel.size // 2
    for axis in (1, 2):
        dst = np.moveaxis(fields, axis, 0)
        src = np.concatenate([dst[len(dst) - radius :], dst, dst[:radius]])  # wrap-padded
        dst[...] = 0.0
        for d in range(-radius, radius + 1):  # this slice is np.roll(fields, d, axis)
            dst += kernel[d + radius] * src[radius - d : radius - d + len(dst)]
    fields -= fields.mean(axis=(1, 2), keepdims=True)
    sd = fields.std(axis=(1, 2), keepdims=True)
    if (sd == 0.0).any():
        raise ValueError("degenerate constant field; cannot standardize")
    fields /= sd
    return fields


def calibrate_offset(config: FieldConfig, rng: Rng) -> float:
    """Logit offset b with mean(sigmoid(gain * g + b)) within 1e-3 of the target rate.

    The mean is estimated over a fixed pool of fresh fields and is
    strictly increasing in b, so bisection over [-20, 20] converges; the
    stop tolerance is tighter than the contract so that pool sampling
    noise does not eat the downstream event-rate budget. A step whose
    bounds from the binned pool lie on one side of the band needs no full
    pass; their 1e-9 margin dwarfs the full pass's rounding (below 1e-12).
    """
    rho = config.target_rate
    kernel = _gaussian_kernel(config)
    pool = rng.normal((CALIBRATION_FIELDS, config.height, config.width))
    for start in range(0, CALIBRATION_FIELDS, CHUNK_FIELDS):
        _smooth_fields(pool[start : start + CHUNK_FIELDS], kernel)
    pool *= config.gain
    flat, rates = pool.ravel(), np.empty(pool.size)
    counts, edges = np.histogram(flat, OFFSET_BINS)
    shares = counts / flat.size

    def mean_rate(b: float, band: float) -> float:  # or a bound on it past `band`, on its side
        at_edges = sigmoid(edges + b)  # each value lies between its bin's edges
        low, high = shares @ at_edges[:-1] - 1e-9, shares @ at_edges[1:] + 1e-9
        if high - rho < -band or low - rho > band:
            return high if high < rho else low
        for i in range(0, flat.size, CHUNK):  # the rates a chunk at a time, then one mean over all
            rates[i : i + CHUNK] = sigmoid(flat[i : i + CHUNK] + b)
        return float(np.mean(rates))

    lo, hi = OFFSET_LO, OFFSET_HI
    if not mean_rate(lo, 0.0) < rho < mean_rate(hi, 0.0):
        raise ValueError(f"cannot bracket target rate {rho} with offsets in [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rate = mean_rate(mid, OFFSET_TOL)
        if abs(rate - rho) <= OFFSET_TOL:
            return mid
        lo, hi = (mid, hi) if rate < rho else (lo, mid)
    raise ValueError(f"offset bisection failed to reach tolerance {OFFSET_TOL}")


def _make_samples(config: FieldConfig, rngs: list[Rng], offset: float, ds: Dataset) -> None:
    """Fill ds with sample j from stream rngs[j], which draws field noise, outcome
    uniforms, then per-channel input noise. true_p is clamped away from 0 and 1 so
    logits stay finite."""
    n, c, h, w = len(rngs), config.channels, config.height, config.width
    g = np.empty((n, h, w))
    for j, rng in enumerate(rngs):
        g[j] = rng.normal((h, w))
        ds.outcomes[j] = rng.uniform((h, w))
        ds.inputs[j] = rng.normal((c, h, w))
    _smooth_fields(g, _gaussian_kernel(config))
    ds.true_p[...] = sigmoid(config.gain * g + offset)
    np.clip(ds.true_p, P_CLAMP, 1.0 - P_CLAMP, out=ds.true_p)
    np.less(ds.outcomes, ds.true_p, out=ds.outcomes)
    ds.inputs *= config.obs_noise
    ds.inputs += g[:, None]


def make_sample(
    config: FieldConfig, rng: Rng, offset: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sample as (inputs C x H x W, binary outcomes H x W, true_p H x W)."""
    ds = Dataset.empty(1, (config.channels, config.height, config.width))
    _make_samples(config, [rng], offset, ds)
    return ds.inputs[0], ds.outcomes[0], ds.true_p[0]


def _make_chunk(config: FieldConfig, offset: float, ids: range, into: Dataset) -> None:
    """Samples `ids` into the first rows of `into`, sample i from sample sub-stream i."""
    root = Rng(config.seed)
    _make_samples(config, [root.child(_STREAM_SAMPLE, i) for i in ids], offset, into.head(len(ids)))


def generate_chunks(config: FieldConfig, n_samples: int, submit=None, spare=None) -> DatasetStream:
    """n_samples independent samples under one calibrated offset, made
    CHUNK_FIELDS at a time as the stream is read. With a `submit` whose
    worker holds `spare` (see `pipeline.workers`), a Dataset of CHUNK_FIELDS
    samples, every second chunk is made there, into it (here if it dies).

    Fully determined by config.seed: the offset uses one sub-stream,
    and sample i draws from a sub-stream keyed by i, so generation order
    (or parallelism) cannot change the result. The offset is calibrated,
    and the second chunk submitted, before this returns.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    offset = calibrate_offset(config, Rng(config.seed).child(_STREAM_CALIBRATE))
    shape = (config.channels, config.height, config.width)
    runs = [range(i, min(i + CHUNK_FIELDS, n_samples)) for i in range(0, n_samples, CHUNK_FIELDS)]

    def made_there(k: int):  # the job making run k into the spare, if there is a run k
        return submit(_make_chunk, config, offset, runs[k], into=spare) if k < len(runs) else None

    def chunks(job):
        here = Dataset.empty(len(runs[0]), shape)  # the chunk this process makes
        for k, ids in enumerate(runs):
            if submit is None or k % 2 == 0:
                _make_chunk(config, offset, ids, here)
                yield here.head(len(ids))
                continue
            try:
                job.result()
            except BrokenExecutor:  # the worker died; make the chunk here
                _make_chunk(config, offset, ids, spare)
            yield spare.head(len(ids))
            job = made_there(k + 2)

    return DatasetStream(n_samples, shape, True, chunks(submit and made_there(1)))


def generate_dataset(config: FieldConfig, n_samples: int) -> Dataset:
    """The samples of `generate_chunks`, in one Dataset."""
    return generate_chunks(config, n_samples).assemble()
