"""Two-phase training protocol and experiment sweeps.

Both phases train on one cross-entropy, taken on logits, against a mixed
target: the outcomes weighted with 1 - lambda plus quantile-binned
empirical frequencies weighted with lambda. Phase one is the lambda = 0
case with early stopping, and keeps the checkpoint with the best
validation loss. Phase two resumes from that checkpoint at the
configured lambda, with the frequencies refreshed once per epoch over
the full training set and frozen in between. Experiments compare the
frozen warm-up checkpoint ("bce" arm) against the continued model
("cape" arm) on held out test folds.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import traceback
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .calibration import (
    MetricsReport,
    assign_p_emp,
    bce_loss,
    bin_assignment,
    brier_score,
    build_bins,
    combined_loss,
    evaluate_predictions,
    kl_to_true,
)
from .fieldgen import Dataset, FieldConfig, generate_dataset
from .model import ModelParams, backward, forward, init_params, predict, probabilities
from .numerics import AdamState, NumericError, Rng, adam_step, derive_seed

# Sub-stream keys under the training seed.
_STREAM_INIT = 0
_STREAM_WARMUP_BATCHES = 1
_STREAM_CONTINUE_BATCHES = 2

# Sub-stream keys under the sweep master seed.
_SWEEP_DATA = 10
_SWEEP_SPLIT = 11
_SWEEP_TRAIN = 12

WARMUP_PHASE = "warmup"
CAPE_PHASE = "cape"
ARM_BCE = "bce"
ARM_CAPE = "cape"


@dataclass
class TrainConfig:
    lr: float = 1e-4
    max_epochs: int = 50
    patience: int = 15
    min_delta: float = 0.0
    batch_size: int = 16
    bins: int = 20
    cal_weight: float = 0.5  # weight on the calibration loss term
    folds: int = 9
    cape_epochs: int = 50  # total epoch budget shared with the warm-up
    cape_epochs_override: Optional[int] = None  # explicit phase-two epoch count
    hidden_channels: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.patience >= self.max_epochs:
            raise ValueError("patience must be smaller than max_epochs")
        if self.folds < 3:
            raise ValueError("need at least 3 folds (train/val/test roles)")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if not 0.0 <= self.cal_weight <= 1.0:
            raise ValueError("cal_weight must be in [0, 1]")
        if min(self.batch_size, self.max_epochs, self.patience, self.hidden_channels) < 1:
            raise ValueError("batch_size, max_epochs, patience and hidden_channels must be >= 1")
        if min(self.cape_epochs, self.cape_epochs_override or 0) < 0:
            raise ValueError("cape_epochs and cape_epochs_override must be >= 0")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")


@dataclass
class EpochRecord:
    epoch: int
    phase: str  # "warmup" or "cape"
    train_loss: float
    val_loss: float
    brier: float
    kl_true: Optional[float]


@dataclass
class EarlyStopper:
    """Tracks the best validation loss; stops after `patience` epochs without
    an improvement greater than `min_delta`."""

    patience: int
    min_delta: float = 0.0
    best: float = math.inf
    best_epoch: int = 0
    bad_epochs: int = 0

    def update(self, epoch: int, val_loss: float) -> tuple[bool, bool]:
        """Returns (improved, should_stop)."""
        if val_loss < self.best - self.min_delta:
            self.best = val_loss
            self.best_epoch = epoch
            self.bad_epochs = 0
            return True, False
        self.bad_epochs += 1
        return False, self.bad_epochs >= self.patience


@dataclass
class WarmupResult:
    best_params: ModelParams
    best_val_loss: float
    best_epoch: int
    stop_epoch: int
    records: list[EpochRecord]


def check_bins(config: TrainConfig, n_samples: int, pixels_per_sample: int) -> None:
    """Reject, before any training, a bin count the smallest fold cannot fill.

    Every evaluation bins one test fold and every refresh bins a larger
    training split, so the smallest of the k folds bounds the bin count.
    Fewer samples than folds is left to `split_kfold`.
    """
    smallest = n_samples // config.folds * pixels_per_sample
    if n_samples >= config.folds and config.bins > smallest:
        raise ValueError(
            f"bins ({config.bins}) exceed the {smallest} pixels of the smallest fold "
            f"({n_samples} samples in {config.folds} folds); lower the bin count"
        )


def split_kfold(n_samples: int, k: int, seed: int) -> list[np.ndarray]:
    """Random partition into k folds whose sizes differ by at most one."""
    if k < 3:
        raise ValueError("need at least 3 folds")
    if n_samples < k:
        raise ValueError(f"cannot split {n_samples} samples into {k} folds")
    perm = Rng(seed).permutation(n_samples)
    return np.array_split(perm, k)


def kfold_rotation(
    folds: list[np.ndarray], rotation: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Role assignment for one rotation: fold r tests, fold r+1 validates, rest train."""
    k = len(folds)
    r = rotation % k
    test_idx = folds[r]
    val_idx = folds[(r + 1) % k]
    train_idx = np.concatenate(
        [folds[i] for i in range(k) if i != r and i != (r + 1) % k]
    )
    return train_idx, val_idx, test_idx


def _split_targets(
    dataset: Dataset, idx: np.ndarray
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Flat outcomes and true probabilities (None when withheld) of the samples in idx."""
    true_p = dataset.true_p[idx].ravel() if dataset.has_true_p else None
    return dataset.outcomes[idx].ravel(), true_p


def _predict_split(params: ModelParams, dataset: Dataset, idx: np.ndarray) -> np.ndarray:
    """Flat logits of the samples in idx."""
    return np.concatenate([predict(params, dataset.inputs[i]).ravel() for i in idx])


def _epoch_record(
    epoch: int,
    phase: str,
    train_loss: float,
    params: ModelParams,
    dataset: Dataset,
    val_idx: np.ndarray,
) -> EpochRecord:
    """One epoch's record, with loss, Brier and KL (None without true_p) on val_idx."""
    logits = _predict_split(params, dataset, val_idx)
    outs, true_p = _split_targets(dataset, val_idx)
    val_loss, _ = bce_loss(logits, outs)
    preds = probabilities(logits)
    kl = kl_to_true(preds, true_p) if true_p is not None else None
    return EpochRecord(epoch, phase, train_loss, val_loss, brier_score(preds, outs), kl)


def run_now(fn, *args, **kwargs) -> Future:
    """The training loops' default `submit`: fn(*args, **kwargs) now, as a done
    future. Jobs pass the dataset as `dataset=`, so a helper can use its own."""
    future: Future = Future()
    future.set_result(fn(*args, **kwargs))
    return future


_helper: dict = {}  # in the record helper: {"dataset": the dataset inherited at fork}


def _on_helper(name: str, *args, **kwargs):
    return globals()[name](*args, dataset=_helper["dataset"], **kwargs)


@contextlib.contextmanager
def record_helper(dataset: Dataset):
    """A `submit` that runs jobs (this module's functions, looked up by name) on one
    helper process while this one trains. The helper is forked, so it holds the
    `dataset` it inherited rather than receiving it. Jobs run inline with one
    usable CPU and without fork. Once the helper died, `submit` and the results
    raise `BrokenExecutor`, and the caller reruns its work inline."""
    if len(os.sched_getaffinity(0)) < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield run_now
        return
    pool = ProcessPoolExecutor(  # forks at the first submit, before it starts a thread
        1, multiprocessing.get_context("fork"), _helper.update, ({"dataset": dataset},)
    )

    def submit(fn, *args, dataset, **kwargs):
        return pool.submit(_on_helper, fn.__name__, *args, **kwargs)

    try:
        yield submit
    finally:
        pool.shutdown(cancel_futures=True)


def _run_epoch(
    params: ModelParams,
    adam: AdamState,
    dataset: Dataset,
    order: np.ndarray,
    batch_size: int,
    p_emp: np.ndarray,
    cal_weight: float,
) -> tuple[ModelParams, AdamState, float]:
    """One pass of minibatch Adam on combined_loss; returns (params, state, mean train loss).

    p_emp is shaped like dataset.outcomes, and p_emp[si] holds the targets
    of sample si; the warm-up passes the outcomes at weight 0.
    Gradients are summed in fixed sample order so results do not depend
    on scheduling.
    """
    epoch_loss = 0.0
    c, f = params.in_channels, params.hidden_channels
    for start in range(0, len(order), batch_size):
        batch = order[start : start + batch_size]
        scale = 1.0 / len(batch)
        batch_loss = 0.0
        grads = ModelParams(c, f)
        for si in batch:
            logits, cache = forward(params, dataset.inputs[si])
            loss, grad = combined_loss(logits, dataset.outcomes[si], p_emp[si], cal_weight)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite training loss on sample {int(si)}")
            batch_loss += scale * loss
            grads.flat += backward(params, cache, grad.reshape(logits.shape) * scale).flat
        flat, adam = adam_step(params.flat, grads.flat, adam, label="model parameters")
        params = ModelParams(c, f, flat)
        epoch_loss += batch_loss * (len(batch) / len(order))
    return params, adam, epoch_loss


def train_warmup(
    dataset: Dataset, train_idx: np.ndarray, val_idx: np.ndarray, config: TrainConfig,
    submit=run_now,
) -> WarmupResult:
    """Minibatch Adam on binary cross-entropy with early stopping.

    Binary cross-entropy is combined_loss at weight 0, whose mixed target
    is exactly the outcomes. Returns the checkpoint with the lowest
    validation loss (not the last one), the epoch it was reached, the
    epoch training stopped, and the per-epoch records.

    `submit` computes each record (see `run_now`), judged once it is done or
    the next epoch has trained; a record that stops training drops that epoch.
    """
    rng = Rng(config.seed)
    channels = dataset.shape[0]
    params = init_params(channels, config.hidden_channels, rng.child(_STREAM_INIT))
    adam = AdamState.init(params.flat.size, lr=config.lr)
    shuffle_rng = rng.child(_STREAM_WARMUP_BATCHES)  # nothing reads it after the warm-up
    stopper = EarlyStopper(patience=config.patience, min_delta=config.min_delta)

    train_idx = np.asarray(train_idx)
    best = params
    records: list[EpochRecord] = []
    pending: list = []  # (params, record future) of the newest epoch, not yet judged

    def judge() -> bool:
        """Judge the pending epoch, if any; True when its record stops training."""
        nonlocal best
        if not pending:
            return False
        epoch_params, future = pending.pop()
        records.append(future.result())
        improved, stop = stopper.update(records[-1].epoch, records[-1].val_loss)
        if improved:
            best = epoch_params
        return stop

    for epoch in range(1, config.max_epochs + 1):
        if pending and pending[0][1].done() and judge():
            break
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        try:
            params, adam, train_loss = _run_epoch(
                params, adam, dataset, order, config.batch_size, dataset.outcomes, 0.0
            )
        except Exception:
            if judge():
                break
            raise
        if judge():
            break
        pending.append((params, submit(
            _epoch_record, epoch, WARMUP_PHASE, train_loss, params, dataset=dataset, val_idx=val_idx
        )))
    judge()

    return WarmupResult(
        best_params=best,
        best_val_loss=stopper.best,
        best_epoch=stopper.best_epoch,
        stop_epoch=records[-1].epoch,
        records=records,
    )


def train_cape(
    start_params: ModelParams,
    dataset: Dataset,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
    config: TrainConfig,
    start_epoch: int,
    submit=run_now,
) -> tuple[ModelParams, list[EpochRecord]]:
    """Resume from the warm-up checkpoint with the combined loss.

    Runs for the remaining shared epoch budget (or the configured
    override) with a fresh Adam state. Records continue the warm-up epoch
    numbering and carry the "cape" phase tag; `submit` computes them (see
    `run_now`), and they are collected in epoch order at the end.
    """
    shuffle_rng = Rng(config.seed).child(_STREAM_CONTINUE_BATCHES)
    params = start_params
    adam = AdamState.init(params.flat.size, lr=config.lr)
    train_idx = np.asarray(train_idx)
    if config.cape_epochs_override is not None:
        n_epochs = config.cape_epochs_override
    else:
        n_epochs = max(0, config.cape_epochs - start_epoch)
    futures = []
    p_emp = np.zeros_like(dataset.outcomes)  # rows at train_idx refilled each epoch

    try:
        for epoch in range(start_epoch + 1, start_epoch + n_epochs + 1):
            # Refresh empirical targets over the full training set with the
            # current model, then freeze them for this epoch's updates.
            train_preds = probabilities(_predict_split(params, dataset, train_idx))
            assignment = bin_assignment(train_preds, config.bins)
            table = build_bins(train_preds, dataset.outcomes[train_idx].ravel(), assignment)
            p_emp[train_idx] = assign_p_emp(assignment, table).reshape(-1, *p_emp.shape[1:])
            del train_preds, assignment  # not held beside the next refresh

            order = train_idx[shuffle_rng.permutation(len(train_idx))]
            params, adam, train_loss = _run_epoch(
                params, adam, dataset, order, config.batch_size, p_emp, config.cal_weight
            )
            futures.append(submit(
                _epoch_record, epoch, CAPE_PHASE, train_loss, params,
                dataset=dataset, val_idx=val_idx,
            ))
    finally:  # a failed record comes before a failed epoch: its epoch is earlier
        records = [future.result() for future in futures]
    return params, records


def evaluate_arm(
    params: ModelParams, dataset: Dataset, test_idx: np.ndarray, n_bins: int
) -> MetricsReport:
    """Metrics over all test pixels with a bin table built fresh on them."""
    test_idx = np.asarray(test_idx)
    preds = probabilities(_predict_split(params, dataset, test_idx))
    outs, true_p = _split_targets(dataset, test_idx)
    return evaluate_predictions(preds, outs, true_p, n_bins)


@dataclass
class FoldRun:
    fold: int
    warmup: WarmupResult
    cape_params: ModelParams
    cape_records: list[EpochRecord]
    bce_metrics: MetricsReport
    cape_metrics: MetricsReport


@dataclass
class CellResult:
    target_rate: float
    n_samples: int
    folds: list[FoldRun] = field(default_factory=list)
    error: Optional[str] = None


@dataclass
class SweepResult:
    cells: list[CellResult]

    def rows(self) -> list[dict]:
        """Flat per-fold rows for the sweep CSV, in grid-then-fold order."""
        out = []
        for cell in self.cells:
            for f in cell.folds:
                for arm, report in ((ARM_BCE, f.bce_metrics), (ARM_CAPE, f.cape_metrics)):
                    out.append(
                        {
                            "rho": cell.target_rate,
                            "n": cell.n_samples,
                            "fold": f.fold,
                            "arm": arm,
                            "ece": report.ece,
                            "brier": report.brier,
                            "kl": report.kl_true,
                            "stop_epoch": f.warmup.stop_epoch,
                        }
                    )
        return out

    @property
    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if c.error is not None]


def run_fold(
    dataset: Dataset,
    folds: list[np.ndarray],
    rotation: int,
    config: TrainConfig,
    submit=run_now,
) -> FoldRun:
    """Warm-up once, then fork: evaluate the frozen checkpoint and the
    calibrated continuation on the same test fold. `submit` computes the
    epoch records and the bce arm's metrics (see `run_now`), the latter
    while CaPE trains."""
    train_idx, val_idx, test_idx = kfold_rotation(folds, rotation)
    warm = train_warmup(dataset, train_idx, val_idx, config, submit)
    bce_job = submit(
        evaluate_arm, warm.best_params, dataset=dataset, test_idx=test_idx, n_bins=config.bins
    )
    cape_params, cape_records = train_cape(
        warm.best_params, dataset, train_idx, val_idx, config, warm.stop_epoch, submit
    )
    cape_metrics = evaluate_arm(cape_params, dataset, test_idx, config.bins)
    return FoldRun(rotation, warm, cape_params, cape_records, bce_job.result(), cape_metrics)


def _run_cell(args: tuple) -> CellResult:
    field_base, rho, n_samples, train_config, cell_index = args
    master = train_config.seed
    try:
        cfg = replace(
            field_base, target_rate=rho, seed=derive_seed(master, _SWEEP_DATA, cell_index)
        )
        dataset = generate_dataset(cfg, n_samples)
        folds = split_kfold(
            n_samples, train_config.folds, derive_seed(master, _SWEEP_SPLIT, cell_index)
        )
        result = CellResult(target_rate=rho, n_samples=n_samples)
        for r in range(train_config.folds):
            tc = replace(
                train_config, seed=derive_seed(master, _SWEEP_TRAIN, cell_index, r)
            )
            result.folds.append(run_fold(dataset, folds, r, tc))
        return result
    except Exception:
        return CellResult(
            target_rate=rho, n_samples=n_samples, error=traceback.format_exc(limit=5)
        )


def _pooled_cell(future: Future, task: tuple) -> CellResult:
    """The cell's result, or a failed cell when a worker process died before it finished."""
    try:
        return future.result()
    except BrokenExecutor as exc:
        return CellResult(target_rate=task[1], n_samples=task[2], error=repr(exc))


def run_experiment(
    field_base: FieldConfig,
    rates: list[float],
    sizes: list[int],
    train_config: TrainConfig,
    threads: int = 1,
) -> SweepResult:
    """Sweep over (event rate, dataset size) cells with per-fold rotations.

    Every cell derives its data, split and training seeds from the master
    seed and its grid position, so cells are independent and the sweep is
    deterministic regardless of worker count. Failed cells are recorded
    and do not abort the sweep. An empty grid, a rate outside (0, 1), a
    size below 1 and a bin count that some cell's smallest fold cannot fill
    are rejected before any cell starts.
    """
    if not rates or not sizes:
        raise ValueError("a sweep needs at least one rate and one size")
    for rho in rates:
        replace(field_base, target_rate=rho)  # FieldConfig rejects a rate outside (0, 1)
    for n in sizes:
        if n < 1:
            raise ValueError(f"sweep sizes must be >= 1, got {n}")
        check_bins(train_config, n, field_base.height * field_base.width)
    grid = [(rho, n) for rho in rates for n in sizes]
    tasks = [
        (field_base, rho, n, train_config, ci) for ci, (rho, n) in enumerate(grid)
    ]
    if threads > 1 and len(tasks) > 1:
        # Largest cells first (Graham's LPT rule), so a big cell does not start last and run alone.
        order = sorted(range(len(tasks)), key=lambda ci: -tasks[ci][2])
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = {ci: pool.submit(_run_cell, tasks[ci]) for ci in order}
            cells = [_pooled_cell(futures[ci], t) for ci, t in enumerate(tasks)]
    else:
        cells = [_run_cell(t) for t in tasks]
    return SweepResult(cells=cells)
