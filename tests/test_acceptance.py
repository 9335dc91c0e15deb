"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavier criteria
(calibrated-training efficacy, end-to-end sweeps) take a few minutes in
total; every criterion asserts its own runtime bound where one applies.
"""

import functools
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from oracles import (
    bce_continuation,
    build_bins_bruteforce,
    finite_diff_check,
    model_loss_fn,
    params_with_relu_margin,
)

from capeseg.calibration import (
    bce_loss,
    bin_assignment,
    brier_score,
    build_bins,
    ece,
    evaluate_predictions,
    kl_to_true,
)
from capeseg.cli import main
from capeseg.fieldgen import FieldConfig, generate_dataset
from capeseg.numerics import Rng, derive_seed
from capeseg.pipeline import (
    TrainConfig,
    evaluate_arm,
    kfold_rotation,
    split_kfold,
    train_cape,
    train_warmup,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number} ({label}): FAIL [{time.monotonic() - start:.1f}s]")
                raise
            print(f"\ncriterion {number} ({label}): PASS [{time.monotonic() - start:.1f}s]")

        return wrapper

    return decorate


@criterion(1, "gradient suite vs central finite differences")
def test_criterion_1_gradient_suite():
    start = time.monotonic()
    for case in range(20):
        # randomized 4x4 instances, resampled away from the relu kink where
        # central differences are not valid
        params, inp = params_with_relu_margin(3000 + case)
        n_pix = inp[:, 0].size
        outcomes = (Rng(case).uniform(n_pix) < 0.35).astype(float)
        err_d = finite_diff_check(
            model_loss_fn(params, inp, bce_loss, outcomes), params.flat, h=1e-4
        )
        assert err_d < 1e-5, f"case {case}: outcome-loss gradient error {err_d}"
        targets = Rng(10_000 + case).uniform(n_pix)
        err_c = finite_diff_check(
            model_loss_fn(params, inp, bce_loss, targets), params.flat, h=1e-4
        )
        assert err_c < 1e-5, f"case {case}: soft-target loss gradient error {err_c}"
    assert time.monotonic() - start < 30.0


@criterion(2, "quantile binning equals brute-force reference")
def test_criterion_2_binning_oracle():
    rng = Rng(4242)
    for case in range(50):
        n = 5 + int(rng.uniform() * 300)
        n_bins = 1 + int(rng.uniform() * min(12, n - 1))
        preds = 0.001 + 0.998 * rng.uniform(n)
        if case % 3 == 0:
            preds = np.clip(np.round(preds * 3) / 3 + 0.1, 0.05, 0.95)  # heavy ties
        outs = (rng.uniform(n) < 0.4).astype(float)
        table = build_bins(preds, outs, bin_assignment(preds, n_bins))
        counts, prob_pred, prob_true, edges = build_bins_bruteforce(
            preds.tolist(), outs.tolist(), n_bins
        )
        assert table.counts.tolist() == counts
        assert np.max(np.abs(table.prob_pred - prob_pred)) <= 1e-12
        assert np.max(np.abs(table.prob_true - prob_true)) <= 1e-12
        assert np.max(np.abs(table.edges - edges)) <= 1e-12


@criterion(3, "hand-evaluated metric unit values")
def test_criterion_3_metric_unit_values():
    preds = [0.1, 0.2, 0.3, 0.4]
    table = build_bins(preds, [0, 0, 1, 1], bin_assignment(preds, 2))
    assert ece(table) == pytest.approx(0.40, abs=1e-12)
    outs = (Rng(3).uniform(1000) < 0.5).astype(float)
    assert brier_score(np.full(1000, 0.5), outs) == pytest.approx(0.25, abs=1e-12)
    assert kl_to_true([0.25], [0.5]) == pytest.approx(0.14384, abs=1e-5)


@criterion(4, "oracle predictions are calibrated at 1e6 pixels")
def test_criterion_4_oracle_calibration():
    start = time.monotonic()
    cfg = FieldConfig(height=32, width=32, target_rate=0.14, seed=4001)
    ds = generate_dataset(cfg, 1000)  # 1000 * 32 * 32 = 1.024e6 pixels
    outs = ds.outcomes.ravel()
    true_p = ds.true_p.ravel()
    assert true_p.size >= 1_000_000
    report = evaluate_predictions(true_p, outs, true_p, 20)
    assert report.ece < 0.01, f"oracle ECE {report.ece}"
    assert report.kl_true < 1e-4, f"oracle KL {report.kl_true}"
    assert time.monotonic() - start < 60.0


@criterion(5, "generated event rates match the target-rate grid")
def test_criterion_5_generator_fidelity():
    for rho in (0.011, 0.032, 0.07, 0.14, 0.30, 0.46):
        cfg = FieldConfig(height=32, width=32, target_rate=rho, seed=int(rho * 1e4))
        ds = generate_dataset(cfg, 1000)  # >= 1e6 pixels
        rate = float(ds.outcomes.mean())
        assert abs(rate - rho) <= 0.005, f"rate {rate:.5f} vs target {rho}"


@criterion(6, "calibrated continuation beats the early-stopped arm")
def test_criterion_6_cape_efficacy():
    start = time.monotonic()
    bce_reports, cape_reports = [], []
    for trial in range(5):
        field_cfg = FieldConfig(
            height=32, width=32, obs_noise=1.0, target_rate=0.14,
            seed=derive_seed(2024, 60, trial),
        )
        ds = generate_dataset(field_cfg, 600)
        tc = TrainConfig(
            lr=1e-2, max_epochs=12, patience=6, batch_size=16, bins=20,
            cal_weight=0.5, folds=3, cape_epochs=10, hidden_channels=8,
            seed=derive_seed(2024, 61, trial),
        )
        folds = split_kfold(600, tc.folds, derive_seed(2024, 62, trial))
        train_idx, val_idx, test_idx = kfold_rotation(folds, 0)
        warm = train_warmup(ds, train_idx, val_idx, tc)
        bce_reports.append(evaluate_arm(warm.best_params, ds, test_idx, tc.bins))
        cape_params, _ = train_cape(
            warm.best_params, ds, train_idx, val_idx, tc, warm.stop_epoch
        )
        cape_reports.append(evaluate_arm(cape_params, ds, test_idx, tc.bins))

    med = lambda reports, attr: float(np.median([getattr(r, attr) for r in reports]))
    bce_ece, cape_ece = med(bce_reports, "ece"), med(cape_reports, "ece")
    bce_brier, cape_brier = med(bce_reports, "brier"), med(cape_reports, "brier")
    bce_kl, cape_kl = med(bce_reports, "kl_true"), med(cape_reports, "kl_true")
    print(
        f"\n  median ece {bce_ece:.4f} -> {cape_ece:.4f}, "
        f"brier {bce_brier:.4f} -> {cape_brier:.4f}, kl {bce_kl:.5f} -> {cape_kl:.5f}"
    )
    assert cape_ece <= bce_ece, "calibrated arm did not improve median test ECE"
    # no degradation beyond 5% relative on the proper scores
    assert cape_brier <= 1.05 * bce_brier
    assert cape_kl <= 1.05 * bce_kl
    assert time.monotonic() - start < 900.0


@criterion(7, "zero-weight continuation is bit-identical to plain BCE")
def test_criterion_7_protocol_reduction():
    cfg = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.2,
                      obs_noise=0.8, seed=7007)
    ds = generate_dataset(cfg, 36)
    tc = TrainConfig(
        lr=5e-3, max_epochs=4, patience=2, batch_size=8, bins=10, cal_weight=0.0,
        folds=3, cape_epochs=4, hidden_channels=4, seed=70,
    )
    folds = split_kfold(36, 3, 71)
    train_idx, val_idx, _ = kfold_rotation(folds, 0)
    warm = train_warmup(ds, train_idx, val_idx, tc)
    cape_params, cape_records = train_cape(
        warm.best_params, ds, train_idx, val_idx, tc, warm.stop_epoch
    )
    bce_params, bce_records = bce_continuation(warm.best_params, ds, train_idx, val_idx, tc)
    assert np.array_equal(cape_params.flat, bce_params.flat)
    assert [r.train_loss for r in cape_records] == [r.train_loss for r in bce_records]
    assert [r.val_loss for r in cape_records] == [r.val_loss for r in bce_records]


SWEEP_BASE = dict(
    height=16, width=16, channels=3, length_scale=2.0, obs_noise=1.0,
    lr=0.01, max_epochs=8, patience=4, batch_size=16, bins=20,
    folds=3, cape_epochs_override=6, hidden_channels=8,
)


def _write_config(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()), encoding="utf-8")
    return str(path)


@criterion(8, "sweep reruns are byte-identical")
def test_criterion_8_sweep_determinism(tmp_path):
    overrides = dict(rates="0.07,0.3", sizes="24", seed=808,
                     max_epochs=4, patience=2, cape_epochs_override=3, bins=8)
    cfg = _write_config(tmp_path / "sweep.cfg", **{**SWEEP_BASE, **overrides})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out", str(out_a), "--threads", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out_b), "--threads", "1"]) == 0
    csvs_a = sorted(p.name for p in out_a.glob("*.csv"))
    csvs_b = sorted(p.name for p in out_b.glob("*.csv"))
    assert csvs_a and csvs_a == csvs_b
    for name in csvs_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


@criterion(9, "end-to-end desk sweep with charts")
def test_criterion_9_end_to_end_sweep(tmp_path):
    start = time.monotonic()
    cfg = _write_config(
        tmp_path / "sweep.cfg", **SWEEP_BASE, rates="0.07,0.3", sizes="200,600", seed=909,
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"sweep took {elapsed:.0f}s"

    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == 4 * 3 * 2  # cells x folds x arms
    for name in ("ece_vs_rate.svg", "kl_vs_rate.svg"):
        root = ET.fromstring((out / name).read_text())  # well-formed XML
        polylines = root.findall(f".//{SVG_NS}polyline")
        assert len(polylines) == 2 * 2  # 2 arms x 2 dataset sizes
        dashed = [p for p in polylines if p.get("stroke-dasharray")]
        assert len(dashed) == 2  # early-stop arm dashed, one per size
    print(f"\n  sweep completed in {elapsed:.0f}s")
