"""Dense float64 numerics: the logistic sigmoid, same-padded 2-D convolution
with an analytic backward pass, Adam, and seedable random streams.

All public operations take and return C-contiguous float64 numpy arrays
and reject non-finite inputs. Conv results do not depend on the BLAS
thread count (`tests/test_cli.py::TestBlasThreadCount`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericError(ValueError):
    """Raised when an operation produces or receives non-finite values."""


def as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


def require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {name}")
    return arr


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Branch on sign to avoid overflow in exp for large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Rng:
    """Deterministic random stream, PCG64-backed.

    The stream is a pure function of the entropy tuple (seed plus any
    `child` keys), so equal seeds give bit-identical draws for a fixed
    numpy version. `child` derives an independent sub-stream; sample
    generation uses children keyed by sample index so that parallel
    generation cannot change results.
    """

    def __init__(self, seed: int, _keys: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._keys = _keys
        entropy = [self.seed, *(_keys)]
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def child(self, *keys: int) -> "Rng":
        return Rng(self.seed, self._keys + tuple(int(k) for k in keys))

    def uniform(self, shape=None) -> np.ndarray:
        return self._gen.random(size=shape)

    def normal(self, shape=None) -> np.ndarray:
        return self._gen.standard_normal(size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def derive_seed(master: int, *keys: int) -> int:
    """Deterministic 64-bit seed from a master seed and integer keys."""
    ss = np.random.SeedSequence([int(master), *(int(k) for k in keys)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class Conv2dCache:
    padded: np.ndarray  # C x (H+2p) x (W+2p), zero borders
    cols: np.ndarray  # (C*k*k) x (H*W), row (c, di, dj) is padded[c, di:di+H, dj:dj+W]
    kernels: np.ndarray  # F x C x k x k
    pad: int
    out_shape: tuple[int, int, int]


def _pad_im2col(arr: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(padded, cols) of a C x H x W array zero-padded by p, for k = 2p+1, as in Conv2dCache."""
    c, h, w = arr.shape
    padded = np.zeros((c, h + 2 * p, w + 2 * p))
    padded[:, p : p + h, p : p + w] = arr
    st = padded.strides  # the k*k windows as one strided view; reshape copies it
    windows = np.ndarray((c, 2 * p + 1, 2 * p + 1, h, w), np.float64, padded, 0, st + st[1:])
    return padded, windows.reshape(-1, h * w)


def conv2d_forward(
    inp: np.ndarray, kernels: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, Conv2dCache]:
    """Same-size 2-D convolution with zero padding, as im2col plus one matmul.

    inp: C x H x W, kernels: F x C x k x k (k odd), bias: F.
    Returns (out F x H x W, cache for the backward pass). Only `inp` is
    checked for finiteness; `model.forward` checks the parameters.
    """
    inp = as_f64(inp)
    kernels = as_f64(kernels)
    bias = as_f64(bias)
    if inp.ndim != 3 or kernels.ndim != 4 or bias.ndim != 1:
        raise ValueError(
            f"expected input CxHxW, kernels FxCxkxk, bias F; got "
            f"{inp.shape}, {kernels.shape}, {bias.shape}"
        )
    c, h, w = inp.shape
    f, kc, k, k2 = kernels.shape
    if kc != c:
        raise ValueError(f"kernel channels ({kc}) do not match input channels ({c})")
    if k != k2 or k % 2 == 0:
        raise ValueError(f"kernel must be square with odd size, got {k}x{k2}")
    if bias.shape[0] != f:
        raise ValueError(f"bias length {bias.shape[0]} does not match {f} filters")
    require_finite("conv2d input", inp)

    p = (k - 1) // 2
    padded, cols = _pad_im2col(inp, p)
    out = kernels.reshape(f, c * k * k) @ cols + bias[:, None]
    cache = Conv2dCache(padded=padded, cols=cols, kernels=kernels, pad=p, out_shape=(f, h, w))
    return out.reshape(f, h, w), cache


def conv2d_backward(
    cache: Conv2dCache, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(out * upstream) w.r.t. input, kernels and bias."""
    upstream = as_f64(upstream)
    if upstream.shape != cache.out_shape:
        raise ValueError(
            f"upstream shape {upstream.shape} does not match forward output {cache.out_shape}"
        )
    require_finite("conv2d upstream gradient", upstream)
    kernels = cache.kernels
    f, h, w = cache.out_shape
    c, k = kernels.shape[1], kernels.shape[2]

    grad_bias = upstream.sum(axis=(1, 2))
    grad_kernels = (upstream.reshape(f, h * w) @ cache.cols.T).reshape(kernels.shape)
    # Transposed conv in gather form: flipped, channel-swapped kernel @ im2col of padded upstream.
    flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, f * k * k)
    grad_input = (flipped @ _pad_im2col(upstream, cache.pad)[1]).reshape(c, h, w)
    return grad_input, grad_kernels, grad_bias


@dataclass
class AdamState:
    """Adam moment estimates for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, n_params: int, lr: float = 1e-4, **kwargs) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), lr=lr, **kwargs)


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, label: str = "params"
) -> tuple[np.ndarray, AdamState]:
    """One Adam update with bias correction. Returns (new params, new state)."""
    params = as_f64(params)
    grads = as_f64(grads)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, state {state.m.shape}"
        )
    if not np.isfinite(grads).all():
        bad = int(np.flatnonzero(~np.isfinite(grads))[0])
        raise NumericError(f"non-finite gradient in {label} (first at flat index {bad})")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    require_finite("adam update", new_params)
    new_state = AdamState(
        m=m, v=v, t=t, lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps
    )
    return new_params, new_state

