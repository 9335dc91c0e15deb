"""Dense float64 numerics: the logistic sigmoid, same-padded 2-D convolution
with an analytic backward pass, Adam, and seedable random streams.

The convs read and write `padded_grid`s (zero borders of p, spare zero rows), so
one conv's output is the next one's input. Each copies the k*k shifts of the
side with fewer channels, each a contiguous run of a flat channel: the input
when C <= F (one matmul), else the weighed taps (one matmul, a strided sum).
The Wp-wide result is written from the interior's first pixel, takes the bias
there, and has its wrapped pad columns zeroed. Input shifts run one row past
the output, so the last matmul columns, which OpenBLAS rounds its own way,
hold no output: a sample keeps its bits when stacked (`model.forward`).
Backward shifts the padded upstream for both gradients; without the input
gradient (conv1's input is data) it weighs the forward's input shifts. Kernel
gradients sum over H*Wp zero-padded to a multiple of 32, which kept their bits
under 1, 2 and 4 OpenBLAS threads on SkylakeX (`tests/test_cli.py::TestBlasThreadCount`).

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
    padded: np.ndarray  # the input grid, C x rows x (W+2p) (see `padded_grid`)
    shifts: np.ndarray | None  # the input shifts, if the forward shifted the input
    kernels: np.ndarray  # F x C x k x k
    out_shape: tuple[int, int, int]  # F x H x W, the interior of the output grid


def padded_grid(channels: int, h: int, w: int, p: int) -> np.ndarray:
    """Zero C x (H+2p+spare) x (W+2p) grid, its H x W interior from row p, column p; the
    spare zero rows let every shifted run of (H+1)*Wp + 31 fit: the forward's, or H*Wp
    rounded up to 32 for the kernel gradients."""
    wp = w + 2 * p
    return np.zeros((channels, h + 2 * p + 1 - (-(2 * p + 31) // wp), wp))


def _shifts(padded: np.ndarray, k: int, n: int) -> np.ndarray:
    """(C*k*k) x n copy whose row (c, di, dj) is padded channel c flat from di*Wp + dj."""
    st = padded.strides  # one strided view of contiguous n-long runs; reshape copies it
    return np.ndarray((len(padded), k, k, n), np.float64, padded, 0, st + st[2:]).reshape(-1, n)


def _interior_run(grid: np.ndarray, p: int, n: int) -> np.ndarray:
    """F x n view of each flat channel from p*Wp + p, where a Wp-wide result fits the grid."""
    at = p * grid.shape[2] + p
    return grid.reshape(len(grid), -1)[:, at : at + n]


def _zero_border(grid: np.ndarray, h: int, p: int) -> np.ndarray:
    """The grid zeroed outside its H x W interior, where `_interior_run` results wrap."""
    grid[:, :p] = grid[:, p + h :] = grid[:, :, :p] = grid[:, :, grid.shape[2] - p :] = 0.0
    return grid


def conv2d_forward(
    padded: np.ndarray, kernels: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, Conv2dCache]:
    """Same-size 2-D convolution on the padded grid, shifting the side with fewer channels.

    padded: a C-channel `padded_grid` (C x H x W input), kernels: F x C x k x k (k odd,
    p = k // 2), bias: F. Returns (F x H x W output on an F-channel grid of the same
    rows and width, cache for the backward pass).
    """
    padded, kernels, bias = as_f64(padded), as_f64(kernels), as_f64(bias)
    if padded.ndim != 3 or kernels.ndim != 4 or bias.ndim != 1:
        raise ValueError(
            f"expected padded input C x rows x Wp, kernels FxCxkxk, bias F; got "
            f"{padded.shape}, {kernels.shape}, {bias.shape}"
        )
    c, rows, wp = padded.shape
    f, kc, k, k2 = kernels.shape
    if kc != c:
        raise ValueError(f"kernel channels ({kc}) do not match input channels ({c})")
    if k != k2 or k % 2 == 0:
        raise ValueError(f"kernel must be square with odd size, got {k}x{k2}")
    if bias.shape[0] != f:
        raise ValueError(f"bias length {bias.shape[0]} does not match {f} filters")
    p = (k - 1) // 2
    w = wp - 2 * p
    if w < 1 or (h := rows - padded_grid(0, 0, w, p).shape[1]) < 1:  # rows besides H
        raise ValueError(f"padded input {padded.shape} is no padded grid for a {k}x{k} kernel")
    out, lp = np.empty((f, rows, wp)), rows * wp
    shifts = _shifts(padded, k, (h + 1) * wp + 31) if c <= f else None  # 31 for conv1 backward
    if shifts is not None:  # shift the input, then weigh: F x (C*k*k) @ (C*k*k) x ((H+1)*Wp)
        run = _interior_run(out, p, (h + 1) * wp)
        np.matmul(kernels.reshape(f, c * k * k), shifts[:, : (h + 1) * wp], out=run)
    else:  # weigh every tap, then shift: z row (di, dj, f) read from di*Wp + dj
        z = kernels.transpose(2, 3, 0, 1).reshape(k * k * f, c) @ padded.reshape(c, lp)
        st = tuple(8 * s for s in (k * f * lp + wp, f * lp + 1, lp, 1))
        run = _interior_run(out, p, h * wp)
        np.add.reduce(np.ndarray((k, k, f, h * wp), np.float64, z, 0, st), axis=(0, 1), out=run)
    run += bias[:, None]
    return _zero_border(out, h, p), Conv2dCache(padded, shifts, kernels, (f, h, w))


def conv2d_backward(
    cache: Conv2dCache, upstream: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of sum(out * upstream) w.r.t. input (None if not `input_grad`), kernels, bias;
    upstream and the input gradient on the grids of the output and the input."""
    upstream = as_f64(upstream)
    kernels, (f, h, w) = cache.kernels, cache.out_shape
    c, k, p = kernels.shape[1], kernels.shape[2], kernels.shape[2] // 2  # the forward's padding
    if upstream.shape != (f, *cache.padded.shape[1:]):
        raise ValueError(f"upstream {upstream.shape} is off the {f}-channel output grid")
    wp = w + 2 * p

    # Both kernel-gradient matmuls sum over H*Wp padded with zeros to a multiple of 32: off
    # one, OpenBLAS's SkylakeX core rounds them differently under different thread counts.
    n = -(-h * wp // 32) * 32
    inner = np.ascontiguousarray(upstream[:, p : p + h, p : p + w])  # its pairwise sum order
    grad_bias = np.add.reduce(inner, axis=(1, 2))
    if not input_grad:  # weigh the forward's input shifts by upstream on the Wp-wide grid
        xs = _shifts(cache.padded, k, n) if cache.shifts is None else cache.shifts[:, :n]
        return None, (_interior_run(upstream, p, n) @ xs.T).reshape(kernels.shape), grad_bias
    ushifts = _shifts(upstream, k, n)  # both gradients come from these rows
    flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, f * k * k)
    grad_input = np.empty_like(cache.padded)
    np.matmul(flipped, ushifts[:, : h * wp], out=_interior_run(grad_input, p, h * wp))
    x_grid = _interior_run(cache.padded, p, n)  # 0 at pad columns, past H*Wp
    by_shift = (ushifts @ x_grid.T).reshape(f, k, k, c)[:, ::-1, ::-1]
    grad_kernels = np.ascontiguousarray(by_shift.transpose(0, 3, 1, 2))
    return _zero_border(grad_input, h, p), grad_kernels, grad_bias


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

