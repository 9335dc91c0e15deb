"""Small convolutional probability estimator: conv3x3 -> relu -> conv3x3 -> sigmoid.

Maps a CxHxW input to an HxW map of event logits, preserving spatial
size; `probabilities` turns logits into emitted probabilities. All
parameters live in one flat float64 vector, so the optimizer and
gradient checker can treat the model as one function; the named blocks
are reshaped views into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import (
    Conv2dCache,
    Rng,
    as_f64,
    conv2d_backward,
    conv2d_forward,
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


@dataclass
class ForwardCache:
    pre1: np.ndarray  # F x H x W, before relu
    conv1: Conv2dCache
    conv2: Conv2dCache


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
    """Emitted probabilities: sigmoid kept strictly inside (0,1), as binning needs."""
    return np.clip(sigmoid(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)


def forward(params: ModelParams, inp: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Logit map (HxW) plus backward cache; finiteness: params here, `inp` in conv1."""
    inp = as_f64(inp)
    require_finite("model parameters", params.flat)
    if inp.ndim != 3 or inp.shape[0] != params.in_channels:
        raise ValueError(
            f"expected input with {params.in_channels} channels, got shape {inp.shape}"
        )
    pre1, c1 = conv2d_forward(inp, params.conv1_w, params.conv1_b)
    logits, c2 = conv2d_forward(np.maximum(pre1, 0.0), params.conv2_w, params.conv2_b)
    return logits[0], ForwardCache(pre1=pre1, conv1=c1, conv2=c2)


def backward(params: ModelParams, cache: ForwardCache, dlogits: np.ndarray) -> ModelParams:
    """Gradients of all parameter blocks from the logit gradient, flat like `params`."""
    grads = ModelParams(params.in_channels, params.hidden_channels)
    dact1, grads.conv2_w[...], grads.conv2_b[...] = conv2d_backward(cache.conv2, dlogits[None])
    dpre1 = dact1 * (cache.pre1 > 0.0)  # relu subgradient, 0 at the kink
    _, grads.conv1_w[...], grads.conv1_b[...] = conv2d_backward(
        cache.conv1, dpre1, input_grad=False  # conv1's input is data
    )
    return grads


def predict(params: ModelParams, inp: np.ndarray) -> np.ndarray:
    """Logit map of a forward pass, without keeping the cache."""
    logits, _ = forward(params, inp)
    return logits
