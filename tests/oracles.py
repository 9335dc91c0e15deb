"""Independent reference implementations shared across test modules.

These stay deliberately naive (nested loops, rank arithmetic written
out) so they cannot share a bug with the vectorized code under test.
The CSV readers at the end serve the tests only; the CLI reads through
`storage.read_csv` itself.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from capeseg.calibration import KL_EPS, bce_loss
from capeseg.cli import storage
from capeseg.fieldgen import (
    CALIBRATION_FIELDS,
    OFFSET_HI,
    OFFSET_LO,
    OFFSET_TOL,
    P_CLAMP,
    Dataset,
    DatasetStream,
)
from capeseg.model import PROB_CLAMP, ModelParams, backward, forward, init_params
from capeseg.numerics import (
    AdamState,
    Conv2dCache,
    Rng,
    adam_step,
    as_f64,
    conv2d_backward,
    conv2d_forward,
    padded_grid,
    sigmoid,
)
from capeseg.pipeline import _STREAM_CONTINUE_BATCHES, _stacks

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


def on_grid(arr, p):
    """C x H x W array in the interior of a zero `padded_grid`, as the convs take it."""
    c, h, w = arr.shape
    grid = padded_grid(c, h, w, p)
    grid[:, p : p + h, p : p + w] = arr
    return grid


def conv_forward(inp, kernels, bias):
    """`numerics.conv2d_forward` on one C x H x W input, padded alone, with its
    output cropped to F x H x W."""
    (_, h, w), p = inp.shape, kernels.shape[2] // 2
    out, cache = conv2d_forward(on_grid(inp, p), kernels, bias)
    return np.ascontiguousarray(out[:, p : p + h, p : p + w]), cache


def conv_backward(cache, upstream, input_grad=True):
    """`numerics.conv2d_backward` from an F x H x W upstream gradient, with the input
    gradient cropped to C x H x W."""
    (_, h, w), p = cache.out_shape, cache.kernels.shape[2] // 2
    gi, gk, gb = conv2d_backward(cache, on_grid(upstream, p), input_grad)
    return None if gi is None else np.ascontiguousarray(gi[:, p : p + h, p : p + w]), gk, gb


@dataclass
class ForwardCache:
    pre1: np.ndarray  # F x H x W, before relu
    conv1: Conv2dCache
    conv2: Conv2dCache


def sample_forward(params, inp):
    """Logit map (H x W) of one C x H x W sample plus its backward cache, the
    sample run alone and each conv's output cropped and padded again (the
    former per-sample `model.forward`)."""
    pre1, c1 = conv_forward(inp, params.conv1_w, params.conv1_b)
    logits, c2 = conv_forward(np.maximum(pre1, 0.0), params.conv2_w, params.conv2_b)
    return logits[0], ForwardCache(pre1=pre1, conv1=c1, conv2=c2)


def sample_backward(params, cache, dlogits):
    """Flat parameter gradient of one sample from its H x W logit gradient (the
    former per-sample `model.backward`)."""
    dact1, grad_w2, grad_b2 = conv_backward(cache.conv2, dlogits[None])
    dpre1 = dact1 * (cache.pre1 > 0.0)  # relu subgradient, 0 at the kink
    _, grad_w1, grad_b1 = conv_backward(cache.conv1, dpre1, input_grad=False)
    return np.concatenate([grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2])


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


# The per-pixel kernels and the dataset writer as they were before they worked a
# chunk at a time (the former `model.probabilities`, `calibration.kl_to_true`,
# `calibration.brier_score` and the body of `storage.write_dataset`): each holds
# all its temporaries at once, and the chunked forms must keep their bytes. So
# must the standardization of a whole stack, against its former per-field loop.


def probabilities_one_shot(logits):
    return np.clip(sigmoid(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)


def kl_to_true_one_shot(predictions, true_p):
    predictions = as_f64(predictions).ravel()
    true_p = as_f64(true_p).ravel()
    f = np.clip(predictions, KL_EPS, 1.0 - KL_EPS)
    p, q = true_p, 1.0 - true_p
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = 0.0 + np.where(p > 0.0, p * np.log(p / f), 0.0)
        terms += np.where(p < 1.0, q * np.log(q / (1.0 - f)), 0.0)
    return float(np.mean(terms))


def brier_score_one_shot(predictions, outcomes):
    diff = as_f64(predictions).ravel() - as_f64(outcomes).ravel()
    return float(np.mean(diff * diff))


def standardize_per_field(fields):
    """The former standardization in `fieldgen._smooth_fields`: one field at a time."""
    for field in fields:
        field -= field.mean()
        sd = field.std()
        if sd == 0.0:
            raise ValueError("degenerate constant field; cannot standardize")
        field /= sd
    return fields


def in_chunks(dataset, sizes=None):
    """`dataset` as a `DatasetStream`, as `write_dataset` takes it: chunks of
    `sizes` samples in order, viewing its arrays, or one chunk by default."""
    at = np.cumsum([0, *(sizes or [len(dataset)])])
    assert at[-1] == len(dataset)
    arrays = vars(dataset).values()  # inputs, outcomes and true_p, in the order Dataset takes them
    chunks = [
        Dataset(*(None if a is None else a[lo:hi] for a in arrays)) for lo, hi in zip(at, at[1:])
    ]
    return DatasetStream(len(dataset), dataset.shape, dataset.has_true_p, chunks)


def dataset_bytes_one_shot(dataset):
    """The bytes of a dataset file, its records built as one array."""
    c, h, w = dataset.shape
    flags = storage.FLAG_TRUE_P if dataset.has_true_p else 0
    records = np.empty(len(dataset), storage._record_dtype(c, h, w, dataset.has_true_p))
    records["inputs"] = dataset.inputs
    records["outcomes"] = dataset.outcomes
    if dataset.has_true_p:
        records["true_p"] = dataset.true_p
    header = storage._HEADER.pack(
        storage.DATASET_MAGIC, storage.DATASET_VERSION, len(dataset), c, h, w, flags
    )
    return header + records.tobytes()


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


def params_with_relu_margin(seed, channels=3, hidden=4, shape=(4, 4), margin=1e-3, n=1):
    """Random params and n x C x H x W inputs, resampled until no sample's
    pre-activation sits near the relu kink, which keeps central differences
    valid. The gap rows of a stack are masked whatever their pre-activations."""
    for attempt in range(50):
        rng = Rng(seed + 1000 * attempt)
        params = init_params(channels, hidden, rng)
        inputs = rng.normal((n, channels) + shape)
        if all(np.min(np.abs(sample_forward(params, x)[1].pre1)) > margin for x in inputs):
            return params, inputs
    raise AssertionError("could not find a relu-safe configuration")


def model_loss_fn(template, inputs, loss, target):
    """Flat-params scalar loss over the full stacked forward pass, for FD checking."""
    def fn(flat):
        p = ModelParams(template.in_channels, template.hidden_channels, flat)
        logits, cache = forward(p, inputs)
        value, grad = loss(logits.ravel(), target)
        return value, backward(p, cache, grad.reshape(logits.shape))

    return fn


def bce_continuation(start_params, dataset, train_idx, val_idx, config):
    """Plain BCE continuation from a checkpoint on the CaPE schedule.

    Same `cape_epochs` epochs, shuffle stream and training stacks as
    `train_cape`, a fresh Adam state, and no target refresh: what `train_cape`
    must reproduce bit for bit at weight 0. Validation runs one sample at a time. Returns
    (params, [ContinuationEpoch per epoch]).
    """
    shuffle_rng = Rng(config.seed).child(_STREAM_CONTINUE_BATCHES)
    c, f = start_params.in_channels, start_params.hidden_channels
    params = start_params
    adam = AdamState.init(params.flat.size, lr=config.lr)
    train_idx = np.asarray(train_idx)
    val_outcomes = dataset.outcomes[val_idx].ravel()
    records = []
    for _ in range(config.cape_epochs):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        train_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            batch_loss = 0.0
            grads = ModelParams(c, f)
            for stack in _stacks(batch, dataset):
                share = len(stack) / len(batch)
                logits, cache = forward(params, dataset.inputs[stack])
                loss, grad = bce_loss(logits, dataset.outcomes[stack])
                batch_loss += share * loss
                grads.flat += backward(params, cache, grad.reshape(logits.shape) * share)
            flat, adam = adam_step(params.flat, grads.flat, adam)
            params = ModelParams(c, f, flat)
            train_loss += batch_loss * (len(batch) / len(order))
        val_logits = np.concatenate(
            [sample_forward(params, dataset.inputs[i])[0].ravel() for i in val_idx]
        )
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
    """Offset bisection over a pool of fields made one at a time, each pool
    rate taken in one shot as float(np.mean(sigmoid(pool + b)))."""
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
