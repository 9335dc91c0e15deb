"""Quantile binning, calibration metrics (ECE, Brier, Bernoulli KL) and the
soft-target cross-entropy used for calibration-aware training.

Binning is rank-based: one value sort gives the values that open bins 1..B-1,
and a bucket table bins every prediction against them, in B contiguous rank
runs of near-equal size (ties split by position), so no bin is empty for
N >= B. The table is exact: its key clip(floor(x * BUCKETS), 0, BUCKETS - 1)
is monotone, so the values in a bucket holding no opener's key share one bin,
and only those in the at most B-1 buckets that hold one are searched. The
loss is a mean over pixels taken on logits, returned with its logit gradient."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import CHUNK, as_f64, require_finite, sigmoid

KL_EPS = 1e-6  # clamp for predicted probabilities in the KL metric
BUCKETS = 1 << 13  # bin_assignment's table over [0, 1]; a power of two, so x * BUCKETS is exact


@dataclass
class BinTable:
    """Per-bin summary of a prediction/outcome set.

    edges has B+1 entries with edges[0] = 0 and edges[B] = 1; interior
    edges sit at the order statistics that close each bin. prob_pred is
    the mean predicted probability per bin, prob_true the mean observed
    outcome per bin.
    """

    edges: np.ndarray  # B+1
    counts: np.ndarray  # B, int
    prob_pred: np.ndarray  # B
    prob_true: np.ndarray  # B

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def n_pixels(self) -> int:
        return int(self.counts.sum())


@dataclass
class MetricsReport:
    ece: float
    brier: float
    kl_true: Optional[float]  # None when the data carries no true probabilities
    bin_table: BinTable


def _search_right(opening: np.ndarray, values: np.ndarray) -> np.ndarray:
    """np.searchsorted(opening, values, "right") by the bucket table, a CHUNK at a time."""
    def bucket(v):  # monotone in v, and always an index into the table
        return np.clip(np.multiply(v, BUCKETS), 0, BUCKETS - 1).astype(np.intp)

    found = np.empty(values.size, dtype=np.intp)  # first: the sort's freed block fits it
    keys = bucket(opening)
    lookup = np.searchsorted(keys, np.arange(BUCKETS))  # the opener keys below each bucket
    lookup[keys] = -1  # the buckets whose values are searched
    for i in range(0, values.size, CHUNK):
        x, out = values[i : i + CHUNK], found[i : i + CHUNK]
        np.take(lookup, bucket(x), out=out, mode="clip")  # "raise" would buffer out
        at = np.flatnonzero(out < 0)
        out[at] = np.searchsorted(opening, x[at], side="right")
    return found


def bin_assignment(predictions: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin index (0..B-1) per prediction, by rank with ties broken by position.

    Bin b covers sorted ranks [ceil(b*N/B), ceil((b+1)*N/B)), so bin sizes
    differ by at most one and no bin is empty for N >= B. A run of equal
    values across a bin start is split by position, as a stable sort would.
    """
    predictions = require_finite("predictions", as_f64(predictions).ravel())
    n = predictions.size
    if n_bins < 1:
        raise ValueError("number of bins must be >= 1")
    if n < n_bins:
        raise ValueError(
            f"need at least as many predictions as bins (N={n} < B={n_bins}); lower the bin count"
        )
    openers = ((np.arange(n_bins + 1) * n + n_bins - 1) // n_bins)[1:-1]  # ceil(b*N/B)
    ranked = np.sort(predictions)
    opening = ranked[openers]  # the value at the first rank of bins 1..B-1
    ties = set(opening[ranked[openers - 1] == opening].tolist())  # np.unique loads numpy.ma
    first_rank = {value: np.searchsorted(ranked, value) for value in ties}
    del ranked  # freed before the assignment is allocated
    assignment = _search_right(opening, predictions)
    for value, first in first_rank.items():
        at = np.flatnonzero(predictions == value)
        assignment[at] = np.searchsorted(openers, first + np.arange(at.size), side="right")
    return assignment


def build_bins(
    predictions: np.ndarray, outcomes: np.ndarray, assignment: np.ndarray
) -> BinTable:
    """Quantile BinTable over flat predictions in (0,1) and binary outcomes.

    `assignment` is `bin_assignment(predictions, B)`. Its bins are
    contiguous runs of ranks, so the maximum of bin b is the order
    statistic that closes it, and no second sort is needed.
    """
    predictions = as_f64(predictions).ravel()
    outcomes = np.ravel(outcomes)
    assignment = np.asarray(assignment).ravel()
    if not predictions.size == outcomes.size == assignment.size:
        raise ValueError(
            f"predictions ({predictions.size}), outcomes ({outcomes.size}) and "
            f"bin assignment ({assignment.size}) differ in length"
        )
    require_finite("predictions", predictions)
    if predictions.size and (predictions.min() <= 0.0 or predictions.max() >= 1.0):
        raise ValueError("predictions must lie strictly inside (0, 1)")

    counts = np.bincount(assignment)
    n_bins = counts.size
    prob_pred = np.bincount(assignment, weights=predictions) / counts
    events = np.zeros(n_bins)  # summed a CHUNK at a time, exactly: the outcomes are 0s and 1s
    for i in range(0, outcomes.size, CHUNK):
        events += np.bincount(assignment[i : i + CHUNK], outcomes[i : i + CHUNK], n_bins)
    prob_true = events / counts

    edges = np.zeros(n_bins + 1)
    np.maximum.at(edges[1:], assignment, predictions)
    edges[-1] = 1.0
    return BinTable(edges=edges, counts=counts, prob_pred=prob_pred, prob_true=prob_true)


def assign_p_emp(assignment: np.ndarray, table: BinTable) -> np.ndarray:
    """Per-pixel empirical-probability targets: each pixel gets its bin's prob_true.

    The result is a frozen constant array; no gradient flows through it.
    """
    assignment = np.asarray(assignment)
    if assignment.size and (assignment.min() < 0 or assignment.max() >= table.n_bins):
        raise ValueError("bin assignment indices out of range for this table")
    return table.prob_true[assignment]


def ece(table: BinTable) -> float:
    """Expected calibration error: mean absolute per-bin gap |prob_true - prob_pred|."""
    return float(np.mean(np.abs(table.prob_true - table.prob_pred)))


def brier_score(predictions: np.ndarray, outcomes: np.ndarray) -> float:
    """Mean squared difference between predictions and binary outcomes."""
    predictions = as_f64(predictions).ravel()
    outcomes = np.ravel(outcomes)
    if predictions.size != outcomes.size:
        raise ValueError("predictions and outcomes differ in length")
    squares = np.subtract(predictions, outcomes)
    return float(np.mean(np.multiply(squares, squares, out=squares)))


def kl_to_true(predictions: np.ndarray, true_p: Optional[np.ndarray]) -> float:
    """Mean per-pixel Bernoulli KL of the true probability against the prediction.

    Computable only on synthetic data where the latent probability is
    known; raises when true_p is unavailable rather than returning 0.
    """
    if true_p is None:
        raise ValueError("true probabilities unavailable; KL cannot be computed")
    predictions = as_f64(predictions).ravel()
    true_p = np.ravel(true_p)
    if predictions.size != true_p.size:
        raise ValueError("predictions and true probabilities differ in length")
    terms = np.empty(predictions.size)  # filled a chunk at a time, then reduced whole
    # Both terms everywhere, summed from +0.0; where p is 0 or 1 the 0*log(0) term is dropped.
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, terms.size, CHUNK):
            s = slice(i, i + CHUNK)
            f = np.clip(predictions[s], KL_EPS, 1.0 - KL_EPS)
            p = as_f64(true_p[s])  # widened first: 1 - p of a float32 p would round
            q = 1.0 - p
            terms[s] = 0.0 + np.where(p > 0.0, p * np.log(p / f), 0.0)
            terms[s] += np.where(p < 1.0, q * np.log(q / (1.0 - f)), 0.0)
    return float(np.mean(terms))


def bce_mean(logits: np.ndarray, targets: np.ndarray, e: np.ndarray | None = None) -> float:
    """Mean BCE of sigmoid(logits) against targets in [0,1]: log(1 + e^z) - t*z taken as
    max(z, 0) + log1p(e) - t*z from e = exp(-|z|), which `bce_loss` passes."""
    logits, targets = as_f64(logits).ravel(), as_f64(targets).ravel()
    if logits.size != targets.size:
        raise ValueError("logits and targets differ in length")
    e = np.exp(-np.abs(logits)) if e is None else e
    return float(np.add.reduce(np.maximum(logits, 0.0) + np.log1p(e) - targets * logits) / e.size)


def bce_loss(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """`bce_mean` and its logit gradient (sigmoid(z) - t) / n, both from one
    exp(-|z|), finite at any finite logit."""
    logits, targets = as_f64(logits).ravel(), as_f64(targets).ravel()
    e = np.exp(-np.abs(logits))
    return bce_mean(logits, targets, e), (sigmoid(logits, e) - targets) / e.size


def combined_loss(
    logits: np.ndarray,
    outcomes: np.ndarray,
    p_emp_targets: np.ndarray,
    cal_weight: float,
) -> tuple[float, np.ndarray]:
    """(1-w) * BCE(outcomes) + w * BCE(p_emp), as one BCE against the mixed target.

    The mixed target is exactly the outcomes at w=0 and exactly p_emp at
    w=1, so both endpoints reduce bit for bit to the single loss.
    """
    if not 0.0 <= cal_weight <= 1.0:
        raise ValueError(f"calibration weight must be in [0, 1], got {cal_weight}")
    targets = (1.0 - cal_weight) * as_f64(outcomes) + cal_weight * as_f64(p_emp_targets)
    return bce_loss(logits, targets)


def evaluate_predictions(
    predictions: np.ndarray,
    outcomes: np.ndarray,
    true_p: Optional[np.ndarray],
    n_bins: int,
) -> MetricsReport:
    """Full metrics for a flat prediction set, building a fresh BinTable."""
    predictions = as_f64(predictions).ravel()
    outcomes = np.ravel(outcomes)
    table = build_bins(predictions, outcomes, bin_assignment(predictions, n_bins))
    kl = kl_to_true(predictions, true_p) if true_p is not None else None
    return MetricsReport(
        ece=ece(table),
        brier=brier_score(predictions, outcomes),
        kl_true=kl,
        bin_table=table,
    )
