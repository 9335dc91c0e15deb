from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from types import SimpleNamespace

import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from oracles import bce_continuation, sample_forward

from capeseg import pipeline
from capeseg.cli import main
from capeseg.calibration import (
    assign_p_emp,
    bce_loss,
    bin_assignment,
    build_bins,
    evaluate_predictions,
)
from capeseg.fieldgen import FieldConfig, generate_dataset
from capeseg.model import init_params, predict, sigmoid
from capeseg.numerics import Rng
from capeseg.pipeline import (
    CellResult,
    EarlyStopper,
    TrainConfig,
    check_bins,
    evaluate_arm,
    kfold_rotation,
    run_experiment,
    run_fold,
    split_kfold,
    train_cape,
    train_warmup,
    workers,
)


@pytest.fixture(scope="module")
def small_dataset():
    cfg = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.2, obs_noise=0.8, seed=31)
    return generate_dataset(cfg, 36)


def small_config(**overrides):
    base = dict(
        lr=5e-3,
        max_epochs=4,
        patience=2,
        batch_size=8,
        bins=10,
        cal_weight=0.5,
        folds=3,
        cape_epochs=3,
        hidden_channels=4,
        seed=17,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestSplitKfold:
    def test_nine_samples_nine_folds(self):
        folds = split_kfold(9, 9, seed=1)
        assert all(len(f) == 1 for f in folds)
        train_idx, val_idx, test_idx = kfold_rotation(folds, 0)
        assert len(train_idx) == 7 and len(val_idx) == 1 and len(test_idx) == 1

    @pytest.mark.parametrize("n,k", [(10, 3), (25, 4), (9, 9), (100, 7)])
    def test_partition_property(self, n, k):
        folds = split_kfold(n, k, seed=n + k)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        merged = np.concatenate(folds)
        assert sorted(merged.tolist()) == list(range(n))

    def test_rotation_roles_disjoint(self):
        folds = split_kfold(20, 4, seed=2)
        for r in range(4):
            train_idx, val_idx, test_idx = kfold_rotation(folds, r)
            combined = np.concatenate([train_idx, val_idx, test_idx])
            assert sorted(combined.tolist()) == list(range(20))

    def test_same_seed_identical(self):
        a = split_kfold(17, 3, seed=5)
        b = split_kfold(17, 3, seed=5)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            split_kfold(2, 3, seed=0)


class TestEarlyStopper:
    def test_flat_loss_stops_after_patience(self):
        stopper = EarlyStopper(patience=5)
        stopped_at = None
        for epoch in range(1, 50):
            improved, stop = stopper.update(epoch, 1.0)
            if stop:
                stopped_at = epoch
                break
        assert stopped_at == 6  # 1 + patience
        assert stopper.best_epoch == 1

    def test_strictly_decreasing_never_stops(self):
        stopper = EarlyStopper(patience=3)
        for epoch in range(1, 30):
            improved, stop = stopper.update(epoch, 1.0 / epoch)
            assert improved and not stop
        assert stopper.best_epoch == 29

    def test_min_delta_counts_small_gains_as_no_improvement(self):
        stopper = EarlyStopper(patience=2, min_delta=0.1)
        stopper.update(1, 1.0)
        improved, stop = stopper.update(2, 0.95)  # gain below min_delta
        assert not improved and not stop
        _, stop = stopper.update(3, 0.91)
        assert stop


class TestTrainWarmup:
    def test_best_val_loss_is_minimum_of_records(self, small_dataset):
        folds = split_kfold(len(small_dataset), 3, seed=3)
        train_idx, val_idx, _ = kfold_rotation(folds, 0)
        result = train_warmup(small_dataset, train_idx, val_idx, small_config())
        val_losses = [r.val_loss for r in result.records]
        assert result.records[result.best_epoch - 1].val_loss == min(val_losses)
        assert all(r.phase == "warmup" for r in result.records)
        assert result.stop_epoch == len(result.records)

    def test_deterministic_given_seed(self, small_dataset):
        folds = split_kfold(len(small_dataset), 3, seed=3)
        train_idx, val_idx, _ = kfold_rotation(folds, 0)
        a = train_warmup(small_dataset, train_idx, val_idx, small_config())
        b = train_warmup(small_dataset, train_idx, val_idx, small_config())
        assert np.array_equal(a.best_params.flat, b.best_params.flat)
        assert [r.val_loss for r in a.records] == [r.val_loss for r in b.records]

    def test_patience_bounds_epochs_after_best(self, small_dataset):
        folds = split_kfold(len(small_dataset), 3, seed=3)
        train_idx, val_idx, _ = kfold_rotation(folds, 0)
        cfg = small_config(max_epochs=30, patience=2, lr=0.5)  # big lr to force noise
        result = train_warmup(small_dataset, train_idx, val_idx, cfg)
        assert result.stop_epoch <= 30
        if result.stop_epoch < 30:
            assert result.stop_epoch == result.best_epoch + cfg.patience


class TestTrainCape:
    def test_records_carry_cape_phase_and_continue_numbering(self, small_dataset):
        folds = split_kfold(len(small_dataset), 3, seed=4)
        train_idx, val_idx, _ = kfold_rotation(folds, 0)
        cfg = small_config()
        warm = train_warmup(small_dataset, train_idx, val_idx, cfg)
        _, records = train_cape(
            warm.best_params, small_dataset, train_idx, val_idx, cfg, warm.stop_epoch
        )
        assert len(records) == 3
        assert all(r.phase == "cape" for r in records)
        assert records[0].epoch == warm.stop_epoch + 1

    def test_zero_weight_bitwise_equals_bce_continuation(self, small_dataset):
        folds = split_kfold(len(small_dataset), 3, seed=4)
        train_idx, val_idx, _ = kfold_rotation(folds, 0)
        cfg = small_config(cal_weight=0.0)
        warm = train_warmup(small_dataset, train_idx, val_idx, cfg)
        cape_params, cape_records = train_cape(
            warm.best_params, small_dataset, train_idx, val_idx, cfg, warm.stop_epoch
        )
        bce_params, bce_records = bce_continuation(
            warm.best_params, small_dataset, train_idx, val_idx, cfg
        )
        assert np.array_equal(cape_params.flat, bce_params.flat)
        assert [r.train_loss for r in cape_records] == [r.train_loss for r in bce_records]
        assert [r.val_loss for r in cape_records] == [r.val_loss for r in bce_records]

    def test_cape_runs_its_epoch_count_after_any_warmup_stop(self, small_dataset):
        # patience 1 of 2 stops at epoch 2; patience 4 of 5 cannot stop before 5
        folds = split_kfold(len(small_dataset), 3, seed=4)
        train_idx, val_idx, _ = kfold_rotation(folds, 0)
        stops = []
        for max_epochs, patience in ((2, 1), (5, 4)):
            cfg = small_config(max_epochs=max_epochs, patience=patience)
            warm = train_warmup(small_dataset, train_idx, val_idx, cfg)
            _, records = train_cape(
                warm.best_params, small_dataset, train_idx, val_idx, cfg, warm.stop_epoch
            )
            stop = warm.stop_epoch
            assert [r.epoch for r in records] == list(range(stop + 1, stop + cfg.cape_epochs + 1))
            assert {r.phase for r in records} == {"cape"}
            stops.append(stop)
        assert stops == [2, 5]

    def test_single_bin_pulls_mean_prediction_toward_event_rate(self):
        # Bias-only probe: one logit parameter, constant prediction. With a
        # single bin the calibration target is the global event rate, and
        # gradient steps must move the mean prediction toward it monotonically.
        rng = Rng(55)
        outcomes = (rng.uniform(4000) < 0.07).astype(float)
        rate = outcomes.mean()
        theta = 0.0  # prediction starts at 0.5
        gaps = []
        for _ in range(60):
            preds = np.full_like(outcomes, sigmoid(np.array([theta]))[0])
            assignment = bin_assignment(preds, 1)
            table = build_bins(preds, outcomes, assignment)
            targets = assign_p_emp(assignment, table)
            assert np.allclose(targets, rate)
            _, grad = bce_loss(np.full_like(outcomes, theta), targets)
            dtheta = float(np.sum(grad))  # every pixel shares the one logit
            gaps.append(abs(preds[0] - rate))
            theta -= 25.0 * dtheta
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01


class TestPredictSplit:
    def test_chunks_keep_the_bits_of_per_sample_forward(self, small_dataset):
        params = init_params(small_dataset.shape[0], 4, Rng(3))
        idx = Rng(4).permutation(36)[:19]  # two chunks of 8 and one of 3
        got = pipeline.predict_split(params, small_dataset, idx)
        want = np.concatenate([sample_forward(params, small_dataset.inputs[i])[0] for i in idx])
        want = want.ravel()
        assert got.shape == (19 * 16 * 16,) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 8, 9, 36])
    def test_one_array_keeps_the_bits_of_per_stack_predict(self, small_dataset, n):
        params = init_params(small_dataset.shape[0], 4, Rng(5))
        idx = Rng(n).permutation(36)[:n]
        got = pipeline.predict_split(params, small_dataset, idx)
        stacks = pipeline._stacks(idx, small_dataset)
        want = np.concatenate([predict(params, small_dataset.inputs[s]) for s in stacks])
        assert got.tobytes() == want.ravel().tobytes()


class TestEvaluateArm:
    def test_same_params_identical_report(self, small_dataset):
        params_rng = Rng(6)
        from capeseg.model import init_params

        params = init_params(3, 4, params_rng)
        idx = np.arange(8)
        a = evaluate_arm(params, small_dataset, idx, 10)
        b = evaluate_arm(params, small_dataset, idx, 10)
        assert a.ece == b.ece and a.brier == b.brier and a.kl_true == b.kl_true

    def test_constant_half_predictor_ece(self):
        cfg = FieldConfig(height=32, width=32, target_rate=0.07, seed=77)
        ds = generate_dataset(cfg, 200)
        outs = ds.outcomes.ravel()
        preds = np.full_like(outs, 0.5)
        report = evaluate_predictions(preds, outs, None, 20)
        assert abs(report.ece - 0.43) < 0.01
        assert report.kl_true is None

    def test_oracle_injection_calibrated(self):
        cfg = FieldConfig(height=32, width=32, target_rate=0.14, seed=78)
        ds = generate_dataset(cfg, 400)  # ~4e5 pixels keeps this test quick
        outs = ds.outcomes.ravel()
        true_p = ds.true_p.ravel()
        report = evaluate_predictions(true_p, outs, true_p, 20)
        assert report.ece < 0.01
        assert report.kl_true == 0.0


class TestFoldIsolation:
    def test_perturbing_test_fold_leaves_params_identical(self, small_dataset):
        import copy

        folds = split_kfold(len(small_dataset), 3, seed=9)
        train_idx, val_idx, test_idx = kfold_rotation(folds, 0)
        cfg = small_config(max_epochs=3, patience=1, cape_epochs=2)

        def full_run(ds):
            warm = train_warmup(ds, train_idx, val_idx, cfg)
            cape_params, _ = train_cape(
                warm.best_params, ds, train_idx, val_idx, cfg, warm.stop_epoch
            )
            return warm.best_params.flat, cape_params.flat

        baseline_warm, baseline_cape = full_run(small_dataset)
        mangled = copy.deepcopy(small_dataset)
        scramble = Rng(1234)
        for i in test_idx:
            mangled.inputs[i] = scramble.normal(mangled.inputs[i].shape)
            mangled.outcomes[i] = (
                scramble.uniform(mangled.outcomes[i].shape) < 0.5
            ).astype(float)
        mangled_warm, mangled_cape = full_run(mangled)
        assert np.array_equal(baseline_warm, mangled_warm)
        assert np.array_equal(baseline_cape, mangled_cape)


class TestRunExperiment:
    def test_one_cell_structure_and_row_count(self):
        field = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.5, seed=0)
        cfg = small_config(max_epochs=3, patience=1, cape_epochs=2, seed=99)
        result = run_experiment(field, [0.2], [24], cfg)
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.error is None
        assert len(cell.folds) == 3
        rows = result.rows()
        assert len(rows) == 1 * 3 * 2  # grid x folds x arms
        arms = {r["arm"] for r in rows}
        assert arms == {"bce", "cape"}
        for fold in cell.folds:
            assert fold.warmup.records  # shared by both arms by construction
        assert {r["arm"] for r in rows if math.isfinite(r["ece"])} == {"bce", "cape"}

    def test_one_cell_completes_quickly(self):
        import time

        field = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.5, seed=0)
        cfg = small_config(seed=55)
        start = time.monotonic()
        result = run_experiment(field, [0.2], [60], cfg)
        assert time.monotonic() - start < 60.0
        assert result.cells[0].error is None

    def test_failed_cell_recorded_without_aborting(self):
        field = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.5, seed=0)
        cfg = small_config(max_epochs=3, patience=1, cape_epochs=2, seed=99)
        result = run_experiment(field, [0.2], [2, 24], cfg)  # n=2 < folds -> fails
        assert len(result.cells) == 2
        assert result.cells[0].error is not None
        assert result.cells[1].error is None
        assert len(result.failures) == 1

    @pytest.fixture
    def sync_pool(self, monkeypatch):
        """A pool that starts no process: it records its `max_workers`, each
        submitted cell's (rate, size), how many of its futures are unfinished
        once a cell is submitted, and each shutdown's `cancel_futures`. A cell
        runs a stub when the patched `pipeline.wait` picks it as the oldest
        unfinished one, or when its result is asked for. From call `broken_from`
        on (never by default), `submit` raises `BrokenProcessPool`."""
        pool = SimpleNamespace(
            workers=[], submitted=[], unfinished=[], shutdowns=[], calls=0, broken_from=None
        )
        futures = []

        class PendingFuture(Future):
            def __init__(self, fn, args):
                super().__init__()
                self.run = lambda: self.set_result(fn(*args))

            def result(self, timeout=None):
                if not self.done():
                    self.run()
                return super().result(timeout)

        class SyncExecutor:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                pool.workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                task = args[-1]
                pool.calls += 1
                if pool.broken_from is not None and pool.calls >= pool.broken_from:
                    raise BrokenProcessPool("a worker died")
                pool.submitted.append(task[1:3])
                futures.append(PendingFuture(fn, args))
                pool.unfinished.append(sum(not f.done() for f in futures))
                return futures[-1]

            def shutdown(self, wait=True, cancel_futures=False):
                pool.shutdowns.append(cancel_futures)

        def wait(fs, return_when):
            assert return_when == FIRST_COMPLETED
            next(f for f in fs if not f.done()).run()

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", SyncExecutor)
        monkeypatch.setattr(pipeline, "wait", wait, raising=False)
        monkeypatch.setattr(
            pipeline, "_run_cell", lambda task: CellResult(target_rate=task[1], n_samples=task[2])
        )
        return pool

    def test_pool_gets_largest_cells_first_and_returns_grid_order(self, sync_pool):
        field = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.5, seed=0)
        result = run_experiment(field, [0.1, 0.2], [10, 30, 20], small_config(), threads=2)
        assert sync_pool.submitted == [
            (0.1, 30), (0.2, 30), (0.1, 20), (0.2, 20), (0.1, 10), (0.2, 10)
        ]
        grid = [(rho, n) for rho in (0.1, 0.2) for n in (10, 30, 20)]
        assert [(c.target_rate, c.n_samples) for c in result.cells] == grid

    @pytest.mark.parametrize("threads, workers", [(3, 3), (4, 4), (500, 4)])
    def test_pool_has_at_most_one_worker_per_cell(self, sync_pool, threads, workers):
        field = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.5, seed=0)
        result = run_experiment(field, [0.1, 0.2], [10, 20], small_config(), threads=threads)
        assert sync_pool.workers == [workers]
        assert len(result.cells) == len(sync_pool.submitted) == 4

    def test_a_cell_is_submitted_only_when_a_worker_is_free(self, sync_pool):
        field = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.5, seed=0)
        result = run_experiment(field, [0.1, 0.2], [10, 30, 20], small_config(), threads=2)
        assert sync_pool.workers == [2]
        assert len(sync_pool.unfinished) == 6
        assert max(sync_pool.unfinished) <= 2
        assert [c.error for c in result.cells] == [None] * 6

    def test_pool_broken_before_a_submit_fails_the_cells_left(self, sync_pool):
        sync_pool.broken_from = 3
        field = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.5, seed=0)
        result = run_experiment(field, [0.1, 0.2], [10, 30, 20], small_config(), threads=2)
        assert sync_pool.submitted == [(0.1, 30), (0.2, 30)]
        grid = [(rho, n) for rho in (0.1, 0.2) for n in (10, 30, 20)]
        assert [(c.target_rate, c.n_samples) for c in result.cells] == grid
        for cell in result.cells:
            if cell.n_samples == 30:
                assert cell.error is None
            else:
                assert "BrokenProcessPool" in cell.error

    def test_interrupt_cancels_queued_cells(self, sync_pool, monkeypatch):
        def interrupted(task):
            if len(sync_pool.submitted) == 2:
                raise KeyboardInterrupt
            return CellResult(target_rate=task[1], n_samples=task[2])

        monkeypatch.setattr(pipeline, "_run_cell", interrupted)
        field = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.5, seed=0)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(field, [0.1, 0.2], [10, 20], small_config(), threads=2)
        assert sync_pool.shutdowns == [True]

    def test_rerun_bit_identical(self):
        field = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.5, seed=0)
        cfg = small_config(max_epochs=3, patience=1, cape_epochs=2, seed=7)
        a = run_experiment(field, [0.3], [24], cfg)
        b = run_experiment(field, [0.3], [24], cfg)
        for ra, rb in zip(a.rows(), b.rows()):
            assert ra == rb

    def test_run_fold_shares_warmup(self, small_dataset):
        folds = split_kfold(len(small_dataset), 3, seed=10)
        cfg = small_config(max_epochs=3, patience=1, cape_epochs=2)
        fold = run_fold(small_dataset, folds, 1, cfg)
        assert fold.fold == 1
        assert fold.warmup.stop_epoch == len(fold.warmup.records)
        assert fold.arms[1].records[0].epoch == fold.warmup.stop_epoch + 1


def _held(x, guard):
    """A job: the process it ran in, x, and whether the `guard` lock it got is held."""
    return os.getpid(), x, guard.locked()


class TestWorkers:
    def test_no_workers_run_jobs_inline(self, monkeypatch):
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", None)  # a pool would fail
        guard = threading.Lock()
        with workers(0, guard=guard) as submit:
            future = submit(_held, 3, guard=guard)
            assert future.done()
            assert not multiprocessing.active_children()
        assert future.result() == (os.getpid(), 3, False)

    def test_a_job_takes_the_inherited_object_and_never_the_callers(self):
        """Locks cannot be pickled, so sending either lock would fail the job."""
        held = threading.Lock()
        held.acquire()
        try:
            with workers(1, guard=held) as submit:
                pid, x, locked = submit(_held, 3, guard=threading.Lock()).result()
        finally:
            held.release()
        assert (pid != os.getpid(), x, locked) == (True, 3, True)

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_job_goes_out_only_when_a_worker_is_free(self, n):
        futures, unfinished = [], []
        with workers(n) as submit:
            for _ in range(3):
                futures.append(submit(time.sleep, 0.05))
                unfinished.append(sum(not f.done() for f in futures))
            assert [f.result() for f in futures] == [None] * 3
        assert max(unfinished) <= n

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="workers fork only here")
    def test_every_command_forks_its_workers(self, tmp_path, monkeypatch):
        """Forked workers inherit the parent's patched names, as sweep tests need.
        `evaluate --oracle` predicts nothing, so it makes no pool."""
        pools, real_pool = [], pipeline.ProcessPoolExecutor

        def spy(max_workers=None, mp_context=None, *args, **kwargs):
            pools.append((max_workers, mp_context and mp_context.get_start_method()))
            return real_pool(max_workers, mp_context, *args, **kwargs)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", spy)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1})
        (tmp_path / "gen.cfg").write_text(
            "height = 16\nwidth = 16\nlength_scale = 2.0\ntarget_rate = 0.2\nn_samples = 40\n"
            "seed = 3\n", encoding="utf-8",
        )
        assert main(["generate", "--config", str(tmp_path / "gen.cfg"), "--out", str(tmp_path)]) == 0
        train = (
            "lr = 0.005\nmax_epochs = 2\npatience = 1\nbatch_size = 8\nbins = 8\nfolds = 3\n"
            "cape_epochs_override = 1\nhidden_channels = 4\nseed = 5\n"
        )
        (tmp_path / "train.cfg").write_text(train, encoding="utf-8")
        (tmp_path / "sweep.cfg").write_text(
            train + "height = 16\nwidth = 16\nlength_scale = 2.0\nrates = 0.2,0.3\nsizes = 12\n",
            encoding="utf-8",
        )
        data = str(tmp_path / "dataset.bin")
        assert main([
            "train", "--config", str(tmp_path / "train.cfg"), "--dataset", data,
            "--out", str(tmp_path / "train"),
        ]) == 0
        ckpt = str(tmp_path / "train" / "cape_arm.ckpt")
        for name, scored in (("ckpt", ["--checkpoint", ckpt]), ("oracle", ["--oracle"])):
            assert main(["evaluate", *scored, "--dataset", data, "--out", str(tmp_path / name)]) == 0
        assert main([
            "sweep", "--config", str(tmp_path / "sweep.cfg"), "--out", str(tmp_path / "sweep"),
            "--threads", "2",
        ]) == 0
        assert pools == [(1, "fork")] * 3 + [(2, "fork")]


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"patience": 50, "max_epochs": 50},
            {"folds": 2},
            {"bins": 0},
            {"cal_weight": 1.5},
            {"lr": 0.0},
            {"hidden_channels": 0},
            {"patience": 0},
            {"patience": -3},
            {"cape_epochs": 0},
            {"seed": -1},
            {"min_delta": -0.1},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_bins_must_fit_the_smallest_fold(self):
        cfg = TrainConfig(folds=3, bins=2048)
        check_bins(cfg, 25, 256)  # folds of 9, 8 and 8 samples: 2048 pixels at least
        with pytest.raises(ValueError, match="smallest fold"):
            check_bins(replace(cfg, bins=2049), 25, 256)
        check_bins(replace(cfg, bins=2049), 2, 256)  # fewer samples than folds: split_kfold says
