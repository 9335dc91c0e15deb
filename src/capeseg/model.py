"""Small convolutional probability estimator: conv3x3 -> relu -> conv3x3 -> sigmoid.

Maps N samples (N x C x H x W) to N x H x W event logits, preserving
spatial size, run as one tall image on one padded grid per layer (conv1's
output grid is conv2's input): `forward` for training, with the cache
`backward` takes, and `predict` without it; `probabilities` turns logits
into emitted probabilities. All parameters live in one flat float64 vector,
so the optimizer and gradient checker can treat the model as one function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import (
    CHUNK,
    Conv2dCache,
    Rng,
    as_f64,
    conv2d_backward,
    conv2d_forward,
    padded_grid,
    require_finite,
    sigmoid,
)

KERNEL_SIZE = 3
PROB_CLAMP = 1e-12  # emitted probabilities only; sigmoid rounds to 0/1 past |logit| ~ 37


def block_shapes(in_channels: int, hidden_channels: int) -> dict[str, tuple[int, ...]]:
    """Parameter blocks in flat-vector (and checkpoint) order, with their shapes."""
    c, f, k = in_channels, hidden_channels, KERNEL_SIZE
    return {"conv1_w": (f, c, k, k), "conv1_b": (f,), "conv2_w": (1, f, k, k), "conv2_b": (1,)}


class ModelParams:
    """All parameters in one flat float64 vector.

    `blocks` maps each name of `block_shapes` to a reshaped view into
    `flat`, and each block is also an attribute (`conv1_w` F x C x 3 x 3,
    `conv1_b` F, `conv2_w` 1 x F x 3 x 3, `conv2_b` 1), so writing a block
    writes the vector. Without `flat` the parameters start at zero; a
    contiguous float64 `flat` is used in place, not copied.
    """

    def __init__(
        self, in_channels: int, hidden_channels: int, flat: Optional[np.ndarray] = None
    ):
        shapes = block_shapes(in_channels, hidden_channels)
        size = sum(math.prod(s) for s in shapes.values())
        self.in_channels = in_channels
        self.hidden_channels = hidden_channels
        self.flat = np.zeros(size) if flat is None else as_f64(flat)
        if self.flat.shape != (size,):
            raise ValueError(f"expected {size} values, got shape {self.flat.shape}")
        self.blocks: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in shapes.items():
            end = offset + math.prod(shape)
            self.blocks[name] = self.flat[offset:end].reshape(shape)
            setattr(self, name, self.blocks[name])
            offset = end

    def __reduce__(self):
        """Pickle as the flat vector, so the loaded blocks view its `flat` again."""
        return ModelParams, (self.in_channels, self.hidden_channels, self.flat)


@dataclass
class ForwardCache:
    conv1: Conv2dCache
    conv2: Conv2dCache  # its padded input is the activation: relu'd, zero in gaps and pads


def init_params(in_channels: int, hidden_channels: int, rng: Rng) -> ModelParams:
    """He-style init: kernel entries ~ Normal(0, 2 / (in_channels * 9)), zero biases."""
    if in_channels < 1 or hidden_channels < 1:
        raise ValueError("channel counts must be >= 1")
    c, f, k = in_channels, hidden_channels, KERNEL_SIZE
    params = ModelParams(c, f)
    params.conv1_w[...] = np.sqrt(2.0 / (c * k * k)) * rng.normal((f, c, k, k))
    params.conv2_w[...] = np.sqrt(2.0 / (f * k * k)) * rng.normal((1, f, k, k))
    return params


def probabilities(logits: np.ndarray) -> np.ndarray:
    """Emitted probabilities: sigmoid kept strictly inside (0,1), as binning needs,
    taken a chunk at a time beside the one result array."""
    flat, out = np.ravel(logits), np.empty(np.size(logits))
    for i in range(0, flat.size, CHUNK):
        np.clip(sigmoid(flat[i : i + CHUNK]), PROB_CLAMP, 1.0 - PROB_CLAMP, out=out[i : i + CHUNK])
    return out.reshape(np.shape(logits))


def _blocks(grid: np.ndarray, n: int, h: int) -> np.ndarray:
    """C x N x (H+p) x Wp view of a stacked grid: each sample's H rows, then p gap rows."""
    p = KERNEL_SIZE // 2
    return grid[:, p : p + n * (h + p)].reshape(len(grid), n, h + p, -1)


def forward(params: ModelParams, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Logit maps (N x H x W) of N samples (N x C x H x W) plus the backward cache,
    run as one tall image; params, inputs and logits are checked finite.

    The samples (float32 when read from a file) are widened as they are written once into
    conv1's float64 padded grid, each followed by p zero rows, the padding each neighbour
    sees alone. conv1's output grid is conv2's input: relu'd in place, gap rows re-zeroed,
    every logit keeps the bits of its sample run alone.
    """
    require_finite("model parameters", params.flat)
    if inputs.ndim != 4 or inputs.shape[1] != params.in_channels:
        raise ValueError(
            f"expected input with {params.in_channels} channels, got shape {inputs.shape}"
        )
    require_finite("model input", inputs)
    n, c, h, w = inputs.shape
    p = KERNEL_SIZE // 2
    padded = padded_grid(c, n * (h + p), w, p)
    _blocks(padded, n, h)[:, :, :h, p : p + w] = inputs.transpose(1, 0, 2, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught as non-finite logits
        act, c1 = conv2d_forward(padded, params.conv1_w, params.conv1_b)
        _blocks(np.maximum(act, 0.0, out=act), n, h)[:, :, h:] = 0.0  # relu, gaps to 0
        out, c2 = conv2d_forward(act, params.conv2_w, params.conv2_b)
    return require_finite("logits", _blocks(out, n, h)[0, :, :h, p : p + w]), ForwardCache(c1, c2)


def backward(params: ModelParams, cache: ForwardCache, dlogits: np.ndarray) -> np.ndarray:
    """Gradient of all parameter blocks from the logit gradient (N x H x W) of one
    `forward` call, one vector like `params.flat`."""
    n, h, w = dlogits.shape
    p = KERNEL_SIZE // 2
    upstream = padded_grid(1, n * (h + p), w, p)
    _blocks(upstream, n, h)[0, :, :h, p : p + w] = dlogits  # the gap rows' logits are dropped
    dact, grad_w2, grad_b2 = conv2d_backward(cache.conv2, upstream)
    dact *= cache.conv2.padded > 0.0  # relu subgradient, 0 at the kink, in the gaps and pads
    _, grad_w1, grad_b1 = conv2d_backward(cache.conv1, dact, input_grad=False)  # input: data
    return np.concatenate([grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2])


def predict(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Logit maps (N x H x W) of N samples (N x C x H x W): `forward` without its cache."""
    return forward(params, inputs)[0]
