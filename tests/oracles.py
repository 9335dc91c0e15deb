"""Independent reference implementations shared across test modules.

These stay deliberately naive (nested loops, rank arithmetic written
out) so they cannot share a bug with the vectorized code under test.
The CSV readers at the end serve the tests only; the CLI reads through
`storage.read_csv` itself.
"""

import math
from collections import namedtuple

import numpy as np

from capeseg.calibration import KL_EPS, bce_loss
from capeseg.cli import storage
from capeseg.fieldgen import CALIBRATION_FIELDS, OFFSET_HI, OFFSET_LO, OFFSET_TOL, P_CLAMP, Dataset
from capeseg.model import ModelParams, backward, forward, init_params, predict
from capeseg.numerics import AdamState, Rng, adam_step, as_f64
from capeseg.pipeline import _STREAM_CONTINUE_BATCHES

ContinuationEpoch = namedtuple("ContinuationEpoch", "train_loss val_loss")


def conv2d_reference(inp, kernels, bias):
    """Direct nested-loop convolution with zero padding."""
    c, h, w = inp.shape
    f, _, k, _ = kernels.shape
    p = (k - 1) // 2
    out = np.zeros((f, h, w))
    for fi in range(f):
        for i in range(h):
            for j in range(w):
                acc = bias[fi]
                for ci in range(c):
                    for di in range(k):
                        for dj in range(k):
                            ii, jj = i + di - p, j + dj - p
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += inp[ci, ii, jj] * kernels[fi, ci, di, dj]
                out[fi, i, j] = acc
    return out


def _zero_padded(arr, p):
    c, h, w = arr.shape
    padded = np.zeros((c, h + 2 * p, w + 2 * p))
    padded[:, p : p + h, p : p + w] = arr
    return padded


def conv2d_forward_reference(inp, kernels, bias):
    """Same-padded convolution as one `einsum` per kernel offset (the former
    `numerics.conv2d_forward`)."""
    c, h, w = inp.shape
    f, _, k, _ = kernels.shape
    padded = _zero_padded(inp, (k - 1) // 2)
    out = np.broadcast_to(bias[:, None, None], (f, h, w)).copy()
    for di in range(k):
        for dj in range(k):
            window = padded[:, di : di + h, dj : dj + w]
            out += np.einsum("fc,chw->fhw", kernels[:, :, di, dj], window)
    return out


def conv2d_backward_reference(inp, kernels, upstream):
    """Input, kernel and bias gradients of sum(out * upstream), one `einsum`
    per kernel offset, the input gradient scattered into a padded buffer
    (the former `numerics.conv2d_backward`)."""
    c, h, w = inp.shape
    k = kernels.shape[2]
    p = (k - 1) // 2
    padded = _zero_padded(inp, p)
    grad_kernels = np.zeros_like(kernels)
    grad_padded = np.zeros_like(padded)
    for di in range(k):
        for dj in range(k):
            window = padded[:, di : di + h, dj : dj + w]
            grad_kernels[:, :, di, dj] = np.einsum("fhw,chw->fc", upstream, window)
            grad_padded[:, di : di + h, dj : dj + w] += np.einsum(
                "fc,fhw->chw", kernels[:, :, di, dj], upstream
            )
    return grad_padded[:, p : p + h, p : p + w], grad_kernels, upstream.sum(axis=(1, 2))


def build_bins_bruteforce(predictions, outcomes, n_bins):
    """O(N*B) rank-rule binning. Returns (counts, prob_pred, prob_true, edges)."""
    n = len(predictions)
    order = sorted(range(n), key=lambda i: (predictions[i], i))  # stable tie-break
    counts, prob_pred, prob_true = [], [], []
    edges = [0.0]
    for b in range(n_bins):
        start = math.ceil(b * n / n_bins)
        stop = math.ceil((b + 1) * n / n_bins)
        members = [order[r] for r in range(start, stop)]
        counts.append(len(members))
        prob_pred.append(sum(predictions[i] for i in members) / len(members))
        prob_true.append(sum(outcomes[i] for i in members) / len(members))
        edges.append(predictions[order[stop - 1]] if b < n_bins - 1 else 1.0)
    return counts, prob_pred, prob_true, edges


def bin_assignment_reference(predictions, n_bins):
    """Rank bins through a stable argsort (the former `calibration.bin_assignment`)."""
    predictions = as_f64(predictions).ravel()
    n = predictions.size
    if n_bins < 1:
        raise ValueError("number of bins must be >= 1")
    if n < n_bins:
        raise ValueError(
            f"need at least as many predictions as bins (N={n} < B={n_bins}); lower the bin count"
        )
    order = np.argsort(predictions, kind="stable")
    starts = (np.arange(n_bins + 1) * n + n_bins - 1) // n_bins  # ceil(b*N/B)
    rank_bins = np.repeat(np.arange(n_bins), np.diff(starts))
    assignment = np.empty(n, dtype=np.intp)
    assignment[order] = rank_bins
    return assignment


def sigmoid_reference(x):
    """Sigmoid through boolean sign masks (the former `numerics.sigmoid`)."""
    # Branch on sign to avoid overflow in exp for large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_loss_reference(logits, targets):
    """Mean BCE as `logaddexp(0, z) - t*z`, a second transcendental beside the
    sigmoid (the former `calibration.bce_loss`)."""
    logits = as_f64(logits).ravel()
    targets = as_f64(targets).ravel()
    n = logits.size
    loss = float(np.mean(np.logaddexp(0.0, logits) - targets * logits))
    return loss, (sigmoid_reference(logits) - targets) / n


def kl_to_true_reference(predictions, true_p, eps=KL_EPS):
    """Mean Bernoulli KL with each term added under its mask (the former
    `calibration.kl_to_true`)."""
    if true_p is None:
        raise ValueError("true probabilities unavailable; KL cannot be computed")
    predictions = as_f64(predictions).ravel()
    true_p = as_f64(true_p).ravel()
    if predictions.size != true_p.size:
        raise ValueError("predictions and true probabilities differ in length")
    f = np.clip(predictions, eps, 1.0 - eps)
    p = true_p
    terms = np.zeros_like(p)
    pos = p > 0.0
    terms[pos] += p[pos] * np.log(p[pos] / f[pos])
    neg = p < 1.0
    terms[neg] += (1.0 - p[neg]) * np.log((1.0 - p[neg]) / (1.0 - f[neg]))
    return float(np.mean(terms))


def finite_diff_check(loss_fn, params: np.ndarray, h: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn maps a flat parameter vector to (scalar loss, flat gradient);
    only the loss value is used for the numeric side. The relative error
    at each coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    params = as_f64(params).ravel()
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    _, analytic = loss_fn(params)
    analytic = as_f64(analytic).ravel()
    if analytic.shape != params.shape:
        raise ValueError("gradient shape does not match parameter shape")
    worst = 0.0
    for i in range(params.size):
        probe = params.copy()
        probe[i] = params[i] + h
        up, _ = loss_fn(probe)
        probe[i] = params[i] - h
        down, _ = loss_fn(probe)
        numeric = (up - down) / (2.0 * h)
        denom = max(1e-8, abs(analytic[i]) + abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


def params_with_relu_margin(seed, channels=3, hidden=4, shape=(4, 4), margin=1e-3):
    """Random params/input resampled until no pre-activation sits near the
    relu kink, which keeps central differences valid."""
    for attempt in range(50):
        rng = Rng(seed + 1000 * attempt)
        params = init_params(channels, hidden, rng)
        inp = rng.normal((channels,) + shape)
        _, cache = forward(params, inp)
        if np.min(np.abs(cache.pre1)) > margin:
            return params, inp
    raise AssertionError("could not find a relu-safe configuration")


def model_loss_fn(template, inp, loss, target):
    """Flat-params scalar loss over the full forward pass, for FD checking."""
    def fn(flat):
        p = ModelParams(template.in_channels, template.hidden_channels, flat)
        logits, cache = forward(p, inp)
        value, grad = loss(logits.ravel(), target)
        g = backward(p, cache, grad.reshape(logits.shape))
        return value, g.flat

    return fn


def bce_continuation(start_params, dataset, train_idx, val_idx, config, start_epoch):
    """Plain BCE continuation from a checkpoint on the CaPE schedule.

    Same epoch count and shuffle stream as `train_cape`, a fresh Adam
    state, and no target refresh: what `train_cape` must reproduce bit
    for bit at weight 0. Returns (params, [ContinuationEpoch per epoch]).
    """
    if config.cape_epochs_override is not None:
        n_epochs = config.cape_epochs_override
    else:
        n_epochs = max(0, config.cape_epochs - start_epoch)
    shuffle_rng = Rng(config.seed).child(_STREAM_CONTINUE_BATCHES)
    c, f = start_params.in_channels, start_params.hidden_channels
    params = start_params
    adam = AdamState.init(params.flat.size, lr=config.lr)
    train_idx = np.asarray(train_idx)
    val_outcomes = dataset.outcomes[val_idx].ravel()
    records = []
    for _ in range(n_epochs):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        train_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            scale = 1.0 / len(batch)
            batch_loss = 0.0
            grads = ModelParams(c, f)
            for si in batch:
                logits, cache = forward(params, dataset.inputs[si])
                loss, grad = bce_loss(logits, dataset.outcomes[si])
                batch_loss += scale * loss
                grads.flat += backward(params, cache, grad.reshape(logits.shape) * scale).flat
            flat, adam = adam_step(params.flat, grads.flat, adam)
            params = ModelParams(c, f, flat)
            train_loss += batch_loss * (len(batch) / len(order))
        val_logits = np.concatenate([predict(params, dataset.inputs[i]).ravel() for i in val_idx])
        records.append(ContinuationEpoch(train_loss, bce_loss(val_logits, val_outcomes)[0]))
    return params, records


def smooth_field_reference(config, rng):
    """One standardized smooth field, smoothed with 2 x (2r+1) np.roll copies."""
    length_scale = config.length_scale
    radius = math.ceil(3.0 * length_scale)
    kernel = np.exp(-0.5 * (np.arange(-radius, radius + 1, dtype=np.float64) / length_scale) ** 2)
    kernel = kernel / kernel.sum()
    white = rng.normal((config.height, config.width))
    smooth = np.zeros_like(white)
    for d in range(-radius, radius + 1):
        smooth += kernel[d + radius] * np.roll(white, d, axis=0)
    out = np.zeros_like(smooth)
    for d in range(-radius, radius + 1):
        out += kernel[d + radius] * np.roll(smooth, d, axis=1)
    out -= out.mean()
    return out / out.std()


def calibrate_offset_reference(config, rng):
    """Offset bisection over a pool of fields made one at a time."""
    pool = np.stack([smooth_field_reference(config, rng) for _ in range(CALIBRATION_FIELDS)])
    scaled = config.gain * pool
    lo, hi = OFFSET_LO, OFFSET_HI
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rate = float(np.mean(sigmoid_reference(scaled + mid)))
        if abs(rate - config.target_rate) <= OFFSET_TOL:
            return mid
        lo, hi = (mid, hi) if rate < config.target_rate else (lo, mid)
    raise AssertionError("reference bisection did not converge")


def sample_reference(config, rng, offset):
    """One sample drawn and built on its own: (inputs, outcomes, true_p)."""
    g = smooth_field_reference(config, rng)
    p = np.clip(sigmoid_reference(config.gain * g + offset), P_CLAMP, 1.0 - P_CLAMP)
    outcomes = (rng.uniform(p.shape) < p).astype(np.float64)
    noise = rng.normal((config.channels,) + p.shape)
    return g[None, :, :] + config.obs_noise * noise, outcomes, p


def generate_dataset_reference(config, n_samples):
    """The per-sample generator: same streams as `generate_dataset`, one field at a time.

    Returns (dataset, calibrated offset).
    """
    root = Rng(config.seed)
    offset = calibrate_offset_reference(config, root.child(0))
    samples = [sample_reference(config, root.child(1, i), offset) for i in range(n_samples)]
    inputs, outcomes, true_p = (np.stack(arrays) for arrays in zip(*samples))
    return Dataset(inputs, outcomes, true_p), offset


def read_epoch_csv(path):
    return storage.read_csv(path, storage.EPOCH_CSV_HEADER)[1]


def read_reliability_csv(path):
    return storage.read_csv(path, storage.RELIABILITY_CSV_HEADER)[1]
