"""Two-phase training protocol and experiment sweeps.

Both phases train on one cross-entropy, taken on logits, against a mixed
target: the outcomes weighted with 1 - lambda plus quantile-binned
empirical frequencies weighted with lambda. Phase one is the lambda = 0
case with early stopping, and keeps the checkpoint with the best
validation loss. Phase two resumes from that checkpoint at the
configured lambda, with the frequencies refreshed once per epoch over
the full training set and frozen in between. Both phases run in one
epoch loop, which judges a record after the next epoch, or before it if
it could stop training. Experiments compare the frozen warm-up checkpoint
("bce" arm) against the continued model ("cape" arm) on held out test folds.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import multiprocessing
import os
import traceback
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .calibration import (
    MetricsReport,
    assign_p_emp,
    bce_loss,  # noqa: F401  not called here, but perfbench/tracing.py wraps this name here
    bce_mean,
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
    cape_epochs: int = 10  # phase-two epochs after the warm-up stops
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
        if min(self.batch_size, self.max_epochs, self.patience, self.cape_epochs,
               self.hidden_channels) < 1:
            raise ValueError(
                "batch_size, max_epochs, patience, cape_epochs and hidden_channels must be >= 1"
            )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if self.min_delta < 0.0:
            raise ValueError("min_delta must be >= 0")


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


def _stacks(idx: np.ndarray, dataset: Dataset) -> list[np.ndarray]:
    """idx in runs of samples, each one stacked model call, training or predicting:
    about 128 rows of a square sample (8 samples at 16x16, 4 at 32x32)."""
    step = max(1, int(128 / math.sqrt(dataset.shape[1] * dataset.shape[2])))
    return [idx[i : i + step] for i in range(0, len(idx), step)]


def predict_split(params: ModelParams, dataset: Dataset, idx: np.ndarray) -> np.ndarray:
    """Flat logits of the samples in idx, predicted stack by stack into one array."""
    logits = np.empty((len(idx), *dataset.shape[1:]))
    for at in _stacks(np.arange(len(idx)), dataset):
        logits[at] = predict(params, dataset.inputs[idx[at]])
    return logits.ravel()


def _epoch_record(
    epoch: int,
    phase: str,
    train_loss: float,
    params: ModelParams,
    dataset: Dataset,
    val_idx: np.ndarray,
) -> EpochRecord:
    """One epoch's record, with loss, Brier and KL (None without true_p) on val_idx."""
    logits = predict_split(params, dataset, val_idx)
    outs, true_p = _split_targets(dataset, val_idx)
    val_loss = bce_mean(logits, outs)
    preds = probabilities(logits)
    kl = kl_to_true(preds, true_p) if true_p is not None else None
    return EpochRecord(epoch, phase, train_loss, val_loss, brier_score(preds, outs), kl)


def run_now(fn, *args, **kwargs) -> Future:
    """The training loop's default `submit` (and `workers(0)`'s): fn(*args, **kwargs)
    now, as a done future. Jobs pass `dataset=`, so a worker can use the one it holds."""
    future: Future = Future()
    future.set_result(fn(*args, **kwargs))
    return future


_inherited: dict = {}  # in a worker process: the values `workers` started it with


def _inherit(values: dict) -> None:
    _inherited.update(values)


def _in_worker(fn, *args, **kwargs):
    return fn(*args, **kwargs, **_inherited)


def second_core() -> int:
    """The workers a command runs beside this process: 1 where a second usable CPU can
    take a forked one, else 0 (one usable CPU, or no `os.sched_getaffinity`)."""
    return int(hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1)


def shared(shape) -> np.ndarray:
    """A float64 array in anonymous shared memory, written by the workers forked after it."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)


@contextlib.contextmanager
def workers(n: int, **inherited):
    """A `submit(fn, *args, **kwargs)` that runs jobs on n processes, or inline (`run_now`)
    when n < 1. Workers start holding `inherited`, which jobs take in place of the
    caller's keyword arguments of those names (never sent). They fork where
    `os.sched_getaffinity` exists (else start the default way). A job goes out once a
    worker is free, so none waits queued; a dead worker's futures raise `BrokenExecutor`."""
    if n < 1:
        yield run_now
        return
    context = multiprocessing.get_context("fork" if hasattr(os, "sched_getaffinity") else None)
    pool = ProcessPoolExecutor(n, context, _inherit, (inherited,))
    running: list[Future] = []

    def submit(fn, *args, **kwargs) -> Future:
        running[:] = [f for f in running if not f.done()]
        if len(running) >= n:
            wait(running, return_when=FIRST_COMPLETED)
        kwargs = {k: v for k, v in kwargs.items() if k not in inherited}
        try:
            running.append(pool.submit(_in_worker, fn, *args, **kwargs))
        except BrokenExecutor as exc:  # a worker died before this job was handed over
            running.append(Future())
            running[-1].set_exception(exc)
        return running[-1]

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
    of sample si; the warm-up passes the outcomes at weight 0. Each minibatch
    runs in `_stacks`, each stack's mean loss and gradient weighed by its
    share of the minibatch and summed in fixed order.
    """
    epoch_loss = 0.0
    c, f = params.in_channels, params.hidden_channels
    for start in range(0, len(order), batch_size):
        batch = order[start : start + batch_size]
        batch_loss = 0.0
        grads = np.zeros(params.flat.size)
        for stack in _stacks(batch, dataset):
            share = len(stack) / len(batch)
            logits, cache = forward(params, dataset.inputs[stack])
            loss, grad = combined_loss(logits, dataset.outcomes[stack], p_emp[stack], cal_weight)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite training loss on samples {stack.tolist()}")
            batch_loss += share * loss
            grads += backward(params, cache, grad.reshape(logits.shape) * share)
        flat, adam = adam_step(params.flat, grads, adam, label="model parameters")
        params = ModelParams(c, f, flat)
        epoch_loss += batch_loss * (len(batch) / len(order))
    return params, adam, epoch_loss


def _train(
    params: ModelParams, dataset: Dataset, train_idx: np.ndarray, val_idx: np.ndarray,
    config: TrainConfig, phase: str, epochs: range, submit,
    stopper: Optional[EarlyStopper] = None,
) -> tuple[ModelParams, list[EpochRecord]]:
    """The epoch loop of both phases: minibatch Adam from a fresh state, epochs
    numbered by `epochs`, each shuffled from the phase's own stream.

    A warm-up epoch trains on the outcomes at weight 0. A CaPE epoch first
    refreshes the binned targets over the full training split with the current
    model, frozen for its updates. `submit` computes each record (see
    `run_now`), judged once the next epoch has trained, or before that epoch
    trains when the record could stop training (its stopper one bad epoch
    short of `patience`). Returns (params, records): with a `stopper`, the
    params of its best record; without one, the last epoch's params.
    """
    cape = phase == CAPE_PHASE
    stream = _STREAM_CONTINUE_BATCHES if cape else _STREAM_WARMUP_BATCHES
    shuffle_rng = Rng(config.seed).child(stream)
    adam = AdamState.init(params.flat.size, lr=config.lr)
    train_idx = np.asarray(train_idx)
    p_emp = np.zeros_like(dataset.outcomes) if cape else dataset.outcomes  # rows refilled below
    cal_weight = config.cal_weight if cape else 0.0
    best = params
    records: list[EpochRecord] = []
    pending: list = []  # (params, record future) of the newest epoch, not yet judged

    def judge() -> bool:
        """Judge the pending epoch, if any; True when its record stops training."""
        nonlocal best
        if not pending:
            return False
        epoch_params, future = pending.pop()
        rec = future.result()
        records.append(rec)
        improved, stop = stopper.update(rec.epoch, rec.val_loss) if stopper else (True, False)
        if improved:
            best = epoch_params
        return stop

    for epoch in epochs:
        if stopper and stopper.bad_epochs + 1 >= stopper.patience and judge():
            break  # the pending record could stop training, so it was waited for
        if cape:
            train_preds = probabilities(predict_split(params, dataset, train_idx))
            assignment = bin_assignment(train_preds, config.bins)
            table = build_bins(train_preds, dataset.outcomes[train_idx].ravel(), assignment)
            p_emp[train_idx] = assign_p_emp(assignment, table).reshape(-1, *p_emp.shape[1:])
            del train_preds, assignment  # not held beside the next refresh
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        params, adam, train_loss = _run_epoch(
            params, adam, dataset, order, config.batch_size, p_emp, cal_weight
        )
        judge()  # a record left pending above cannot stop training
        pending.append((params, submit(
            _epoch_record, epoch, phase, train_loss, params, dataset=dataset, val_idx=val_idx
        )))
    judge()
    return best, records


def train_warmup(
    dataset: Dataset, train_idx: np.ndarray, val_idx: np.ndarray, config: TrainConfig,
    submit=run_now,
) -> WarmupResult:
    """Minibatch Adam on binary cross-entropy with early stopping (see `_train`).

    Binary cross-entropy is combined_loss at weight 0, whose mixed target
    is exactly the outcomes. Returns the checkpoint with the lowest
    validation loss (not the last one), the epoch it was reached, the
    epoch training stopped, and the per-epoch records.
    """
    rng = Rng(config.seed).child(_STREAM_INIT)
    params = init_params(dataset.shape[0], config.hidden_channels, rng)
    stopper = EarlyStopper(patience=config.patience, min_delta=config.min_delta)
    best, records = _train(
        params, dataset, train_idx, val_idx, config, WARMUP_PHASE,
        range(1, config.max_epochs + 1), submit, stopper,
    )
    return WarmupResult(best, stopper.best_epoch, records[-1].epoch, records)


def train_cape(
    start_params: ModelParams, dataset: Dataset, train_idx: np.ndarray, val_idx: np.ndarray,
    config: TrainConfig, start_epoch: int, submit=run_now,
) -> tuple[ModelParams, list[EpochRecord]]:
    """Resume from the warm-up checkpoint with the combined loss (see `_train`).

    Runs `config.cape_epochs` epochs, numbered on from `start_epoch` (the
    warm-up's stop epoch), with records tagged with the "cape" phase.
    """
    epochs = range(start_epoch + 1, start_epoch + config.cape_epochs + 1)
    return _train(start_params, dataset, train_idx, val_idx, config, CAPE_PHASE, epochs, submit)


def evaluate_arm(
    params: ModelParams, dataset: Dataset, test_idx: np.ndarray, n_bins: int
) -> MetricsReport:
    """Metrics over all test pixels with a bin table built fresh on them."""
    test_idx = np.asarray(test_idx)
    preds = probabilities(predict_split(params, dataset, test_idx))
    outs, true_p = _split_targets(dataset, test_idx)
    return evaluate_predictions(preds, outs, true_p, n_bins)


@dataclass
class Arm:  # a fold's checkpoint, the records of the epochs that made it, its test metrics
    name: str
    params: ModelParams
    records: list[EpochRecord]
    report: MetricsReport


@dataclass
class FoldRun:
    fold: int
    warmup: WarmupResult
    arms: list[Arm]  # the bce arm, then the cape arm


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
        return [
            {"rho": cell.target_rate, "n": cell.n_samples, "fold": f.fold, "arm": arm.name,
             "ece": arm.report.ece, "brier": arm.report.brier, "kl": arm.report.kl_true,
             "stop_epoch": f.warmup.stop_epoch}
            for cell in self.cells for f in cell.folds for arm in f.arms
        ]

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
    params, records = train_cape(
        warm.best_params, dataset, train_idx, val_idx, config, warm.stop_epoch, submit
    )
    cape = Arm(ARM_CAPE, params, records, evaluate_arm(params, dataset, test_idx, config.bins))
    bce = Arm(ARM_BCE, warm.best_params, warm.records, bce_job.result())
    return FoldRun(rotation, warm, [bce, cape])


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
    and do not abort the sweep. An empty grid, a repeated rate or size, a
    rate outside (0, 1), a size below 1 and a bin count that some cell's
    smallest fold cannot fill are rejected before any cell starts.
    """
    if not rates or not sizes:
        raise ValueError("a sweep needs at least one rate and one size")
    for name, values in (("rate", rates), ("size", sizes)):
        if len(set(values)) < len(values):
            raise ValueError(f"repeated sweep {name} in {values}")
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
    n = min(threads, len(tasks))
    # Largest cells first (Graham's LPT rule), so a big cell does not start last and run alone.
    with workers(n if n > 1 else 0) as submit:
        order = sorted(range(len(tasks)), key=lambda ci: -tasks[ci][2])
        futures = {ci: submit(_run_cell, tasks[ci]) for ci in order}
        cells = [_pooled_cell(futures[ci], t) for ci, t in enumerate(tasks)]
    return SweepResult(cells=cells)
