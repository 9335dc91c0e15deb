"""Dense float64 numerics: the logistic sigmoid, same-padded 2-D convolution
with an analytic backward pass, Adam, and seedable random streams.

Each conv copies the k*k shifts of the side with fewer channels: the input
when C <= F (one matmul), else the weighed taps (one matmul, then a strided
sum). Spare zero rows under the padding make each shift one contiguous run
of a flat channel; outputs are W+2p wide, take the bias, then one crop copy.
Input shifts run one row past the output, so the last columns of the matmul,
which OpenBLAS rounds its own way, hold no output: a sample keeps its bits
when stacked under others (`model.forward`). Backward shifts the padded
upstream for both gradients; without the input gradient (conv1, whose input
is data) it weighs the input shifts the forward kept instead. The kernel
gradients sum over H*Wp padded with zeros to a multiple of 32, the rule that
kept their bits under 1, 2 and 4 OpenBLAS threads on its SkylakeX core
(`tests/test_cli.py::TestBlasThreadCount` checks two shapes).

All public operations take and return C-contiguous float64 numpy arrays.
`model.forward` and `model.predict` check finiteness, not the convs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

CHUNK = 1 << 14  # elements per pass of a per-pixel kernel, which bounds its temporaries


class NumericError(ValueError):
    """Raised when an operation produces or receives non-finite values."""


def as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


def require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {name}")
    return arr


def sigmoid(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # e = exp(-|x|) cannot overflow: 1/(1+e) where x >= 0, else e/(1+e). Never writes into x;
    # a caller that has e already (bce_loss) passes it, and it is overwritten.
    if e is None:
        e = np.abs(x, out=np.empty_like(x))
        np.exp(np.negative(e, out=e), out=e)
    d = np.add(1.0, e, out=np.empty_like(e))
    np.divide(e, d, out=e)
    np.copyto(e, np.divide(1.0, d, out=d), where=x >= 0)
    return e


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
        self._gen = np.random.default_rng(np.random.SeedSequence([self.seed, *_keys]))

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
    padded: np.ndarray  # C x (H+2p+spare) x (W+2p): zero borders plus spare zero rows
    shifts: np.ndarray | None  # the input shifts, if the forward shifted the input
    kernels: np.ndarray  # F x C x k x k
    out_shape: tuple[int, int, int]


def _pad(arr: np.ndarray, p: int) -> np.ndarray:
    """C x H x W array zero-padded by p, plus spare zero rows so every shifted run of
    (H+1)*Wp + 31 fits: the forward's, or H*Wp rounded up to 32 for the kernel gradients."""
    c, h, w = arr.shape
    wp = w + 2 * p
    padded = np.zeros((c, h + 2 * p + 1 - (-(2 * p + 31) // wp), wp))
    padded[:, p : p + h, p : p + w] = arr
    return padded


def _shifts(padded: np.ndarray, k: int, n: int) -> np.ndarray:
    """(C*k*k) x n copy whose row (c, di, dj) is padded channel c flat from di*Wp + dj."""
    st = padded.strides  # one strided view of contiguous n-long runs; reshape copies it
    return np.ndarray((len(padded), k, k, n), np.float64, padded, 0, st + st[2:]).reshape(-1, n)


def conv2d_forward(
    inp: np.ndarray, kernels: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, Conv2dCache]:
    """Same-size 2-D convolution with zero padding, shifting the side with fewer channels.

    inp: C x H x W, kernels: F x C x k x k (k odd), bias: F.
    Returns (out F x H x W, cache for the backward pass).
    """
    inp, kernels, bias = as_f64(inp), as_f64(kernels), as_f64(bias)
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
    p = (k - 1) // 2
    padded = _pad(inp, p)
    wp, lp = w + 2 * p, padded[0].size
    shifts = _shifts(padded, k, (h + 1) * wp + 31) if c <= f else None  # 31 for conv1 backward
    if shifts is not None:  # shift the input, then weigh: F x (C*k*k) @ (C*k*k) x ((H+1)*Wp)
        grid = kernels.reshape(f, c * k * k) @ shifts[:, : (h + 1) * wp]
    else:  # weigh every tap, then shift: z row (di, dj, f) read from di*Wp + dj
        z = kernels.transpose(2, 3, 0, 1).reshape(k * k * f, c) @ padded.reshape(c, lp)
        st = tuple(8 * s for s in (k * f * lp + wp, f * lp + 1, lp, 1))
        grid = np.add.reduce(np.ndarray((k, k, f, h * wp), np.float64, z, 0, st), axis=(0, 1))
    grid += bias[:, None]  # on the Wp-wide grid, so the crop is the only copy
    out = np.ascontiguousarray(grid.reshape(f, -1, wp)[:, :h, :w])
    return out, Conv2dCache(padded, shifts, kernels, (f, h, w))


def conv2d_backward(
    cache: Conv2dCache, upstream: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of sum(out * upstream) w.r.t. input (None if not `input_grad`), kernels, bias."""
    upstream = as_f64(upstream)
    if upstream.shape != cache.out_shape:
        raise ValueError(
            f"upstream shape {upstream.shape} does not match forward output {cache.out_shape}"
        )
    kernels, (f, h, w) = cache.kernels, cache.out_shape
    c, k, p = kernels.shape[1], kernels.shape[2], kernels.shape[2] // 2  # the forward's padding
    wp = w + 2 * p

    # Both kernel-gradient matmuls sum over H*Wp padded with zeros to a multiple of 32: off
    # one, OpenBLAS's SkylakeX core rounds them differently under different thread counts.
    n = -(-h * wp // 32) * 32
    grad_bias = np.add.reduce(upstream, axis=(1, 2))
    if not input_grad:  # weigh the forward's input shifts by upstream on the Wp-wide grid
        u = np.zeros((f, n))
        u[:, : h * wp].reshape(f, h, wp)[:, :, :w] = upstream  # 0 at the wrapped reads
        xs = _shifts(cache.padded, k, n) if cache.shifts is None else cache.shifts[:, :n]
        return None, (u @ xs.T).reshape(kernels.shape), grad_bias
    ushifts = _shifts(_pad(upstream, p), k, n)  # both gradients come from these rows
    flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, f * k * k)
    grad_input = np.ascontiguousarray((flipped @ ushifts[:, : h * wp]).reshape(c, h, wp)[:, :, :w])
    x_grid = cache.padded.reshape(c, -1)[:, p * wp + p :][:, :n]  # 0 at pad columns, past H*Wp
    by_shift = (ushifts @ x_grid.T).reshape(f, k, k, c)[:, ::-1, ::-1]
    grad_kernels = np.ascontiguousarray(by_shift.transpose(0, 3, 1, 2))
    return grad_input, grad_kernels, grad_bias


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam moment estimates for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-4

    @classmethod
    def init(cls, n_params: int, lr: float = 1e-4) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), lr=lr)


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, label: str = "params"
) -> tuple[np.ndarray, AdamState]:
    """One Adam update with bias correction. Returns (new params, new state)."""
    params, grads = as_f64(params), as_f64(grads)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, state {state.m.shape}"
        )
    if not np.isfinite(grads).all():
        bad = int(np.flatnonzero(~np.isfinite(grads))[0])
        raise NumericError(f"non-finite gradient in {label} (first at flat index {bad})")
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    require_finite("adam update", new_params)
    return new_params, replace(state, m=m, v=v, t=t)

