"""Command-line entry points: generate, train, evaluate, sweep, plot.

Every command reads a flat key=value config (where one applies), checks
its inputs, writes its artifacts into --out (created just before the
first write), and finishes with a manifest listing each output file and
its digest. Exit codes: 0 success, 1 usage/config error,
2 data/format error, 3 numeric failure, 4 partial sweep failure.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ..calibration import evaluate_predictions
from ..fieldgen import generate_dataset
from ..numerics import NumericError
from ..pipeline import (
    check_bins,
    evaluate_arm,
    kfold_rotation,
    run_experiment,
    split_kfold,
    train_cape,
    train_warmup,
)
from . import configfile, storage, svg
from .configfile import ConfigError
from .storage import FormatError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_NUMERIC = 3
EXIT_PARTIAL = 4


class UsageError(ValueError):
    pass


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _prepare_outdir(outdir: str, names: list[str], force: bool) -> Path:
    """Check --out for clashing outputs; the caller creates it before its first write."""
    out = Path(outdir)
    if out.exists() and not out.is_dir():
        raise UsageError(f"output path {out} exists and is not a directory")
    clashes = [n for n in names if (out / n).exists()]
    if clashes and not force:
        raise UsageError(
            f"output file(s) already exist in {out}: {', '.join(clashes)} (use --force)"
        )
    return out


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "bins", None) is not None:
        cfg["bins"] = args.bins
    if getattr(args, "cal_weight", None) is not None:
        cfg["lambda"] = args.cal_weight
    return cfg


def cmd_generate(args) -> int:
    cfg = configfile.load_config(args.config, configfile.GENERATE_SCHEMA)
    cfg = _apply_overrides(cfg, args)
    out = _prepare_outdir(args.out, ["dataset.bin", "manifest.json"], args.force)
    field_cfg = configfile.field_config_from(cfg)
    dataset = generate_dataset(field_cfg, cfg["n_samples"])
    dataset_path = out / "dataset.bin"
    out.mkdir(parents=True, exist_ok=True)
    storage.write_dataset(dataset_path, dataset)
    rate = float(dataset.outcomes.mean(axis=(1, 2)).mean())
    print(f"wrote {dataset_path} ({len(dataset)} samples, event rate {rate:.4f})")
    storage.write_manifest(out, "generate", cfg, cfg["seed"], [dataset_path], args.started_utc)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = configfile.load_config(args.config, configfile.TRAIN_SCHEMA)
    cfg = _apply_overrides(cfg, args)
    train_cfg = configfile.train_config_from(cfg)
    outputs = ["bce_arm.ckpt", "cape_arm.ckpt", "epochs.csv", "manifest.json"]
    out = _prepare_outdir(args.out, outputs, args.force)
    dataset = storage.read_dataset(args.dataset)
    check_bins(train_cfg, len(dataset), dataset.outcomes[0].size)

    folds = split_kfold(len(dataset), train_cfg.folds, train_cfg.seed)
    train_idx, val_idx, test_idx = kfold_rotation(folds, 0)
    warm = train_warmup(dataset, train_idx, val_idx, train_cfg)
    cape_params, cape_records = train_cape(
        warm.best_params, dataset, train_idx, val_idx, train_cfg, warm.stop_epoch
    )

    bce_path = out / "bce_arm.ckpt"
    cape_path = out / "cape_arm.ckpt"
    epochs_path = out / "epochs.csv"
    out.mkdir(parents=True, exist_ok=True)
    storage.write_checkpoint(bce_path, warm.best_params)
    storage.write_checkpoint(cape_path, cape_params)
    storage.write_epoch_csv(epochs_path, warm.records + cape_records)

    bce_report = evaluate_arm(warm.best_params, dataset, test_idx, train_cfg.bins)
    cape_report = evaluate_arm(cape_params, dataset, test_idx, train_cfg.bins)
    print(
        f"warm-up stopped at epoch {warm.stop_epoch} (best epoch {warm.best_epoch}); "
        f"test ECE bce={bce_report.ece:.4f} cape={cape_report.ece:.4f}"
    )
    storage.write_manifest(
        out, "train", cfg, train_cfg.seed, [bce_path, cape_path, epochs_path],
        args.started_utc,
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    outputs = ["metrics.csv", "reliability.csv", "manifest.json"]
    out = _prepare_outdir(args.out, outputs, args.force)
    dataset = storage.read_dataset(args.dataset)
    n_bins = args.bins if args.bins is not None else 20

    if args.oracle:
        if not dataset.has_true_p:
            raise FormatError("--oracle requires a dataset with true probabilities")
        true_p = dataset.true_p.ravel()
        report = evaluate_predictions(true_p, dataset.outcomes.ravel(), true_p, n_bins)
    else:
        if not args.checkpoint:
            raise UsageError("evaluate needs --checkpoint (or --oracle)")
        params = storage.read_checkpoint(args.checkpoint)
        if params.in_channels != dataset.shape[0]:
            raise FormatError(
                f"checkpoint expects {params.in_channels} input channels, "
                f"dataset has {dataset.shape[0]}"
            )
        report = evaluate_arm(params, dataset, np.arange(len(dataset)), n_bins)

    metrics_path = out / "metrics.csv"
    reliability_path = out / "reliability.csv"
    out.mkdir(parents=True, exist_ok=True)
    storage.write_metrics_csv(metrics_path, report)
    storage.write_reliability_csv(reliability_path, report.bin_table)
    kl_text = f"{report.kl_true:.6f}" if report.kl_true is not None else "n/a"
    print(
        f"ece={report.ece:.4f} brier={report.brier:.4f} kl={kl_text} "
        f"({report.n_pixels} pixels, {n_bins} bins)"
    )
    config_echo = {"dataset": str(args.dataset), "bins": n_bins, "oracle": bool(args.oracle)}
    storage.write_manifest(
        out, "evaluate", config_echo, 0, [metrics_path, reliability_path], args.started_utc
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = configfile.load_config(args.config, configfile.SWEEP_SCHEMA)
    cfg = _apply_overrides(cfg, args)
    outputs = ["sweep.csv", "ece_vs_rate.svg", "kl_vs_rate.svg", "manifest.json"]
    out = _prepare_outdir(args.out, outputs + ["failures.csv"], args.force)
    field_cfg = configfile.field_config_from({**cfg, "target_rate": 0.5})
    train_cfg = configfile.train_config_from(cfg)

    result = run_experiment(field_cfg, cfg["rates"], cfg["sizes"], train_cfg, args.threads)
    rows = result.rows()

    sweep_path = out / "sweep.csv"
    out.mkdir(parents=True, exist_ok=True)
    storage.write_sweep_csv(sweep_path, rows)
    files = [sweep_path]
    if rows:
        ece_path = out / "ece_vs_rate.svg"
        kl_path = out / "kl_vs_rate.svg"
        ece_path.write_text(
            svg.sweep_chart(rows, "ece", "Calibration error vs event rate", "ECE"),
            encoding="utf-8",
        )
        kl_path.write_text(
            svg.sweep_chart(rows, "kl", "KL divergence vs event rate", "KL (nats)"),
            encoding="utf-8",
        )
        files += [ece_path, kl_path]
    if result.failures:
        failures_path = out / "failures.csv"
        storage.write_failures_csv(failures_path, result.failures)
        files.append(failures_path)
        for cell in result.failures:
            print(
                f"cell (rate={cell.target_rate}, n={cell.n_samples}) failed:\n{cell.error}",
                file=sys.stderr,
            )
    print(f"wrote {sweep_path} ({len(rows)} rows, {len(result.failures)} failed cells)")
    storage.write_manifest(out, "sweep", cfg, train_cfg.seed, files, args.started_utc)
    return EXIT_PARTIAL if result.failures else EXIT_OK


def cmd_plot(args) -> int:
    header = storage.csv_header(args.input)
    if header == storage.EPOCH_CSV_HEADER:
        records = storage.read_epoch_csv(args.input)
        if not records:
            raise FormatError(f"{args.input}: no epoch rows to plot")
        name = "learning_curves.svg"
        out = _prepare_outdir(args.out, [name, "manifest.json"], args.force)
        content = svg.learning_curve_chart(records, "Training and validation curves")
    elif header == storage.RELIABILITY_CSV_HEADER:
        rows = storage.read_reliability_csv(args.input)
        if not rows:
            raise FormatError(f"{args.input}: no reliability rows to plot")
        name = "reliability.svg"
        out = _prepare_outdir(args.out, [name, "manifest.json"], args.force)
        content = svg.reliability_chart(rows, "Reliability diagram")
    else:
        raise FormatError(
            f"{args.input}:1: unrecognized CSV header; expected an epoch or reliability report"
        )
    path = out / name
    out.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    print(f"wrote {path}")
    storage.write_manifest(
        out, "plot", {"input": str(args.input)}, 0, [path], args.started_utc
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capeseg",
        description="Calibrated probability estimation workbench for synthetic segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, training=False):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if training:
            p.add_argument("--bins", type=int, default=None, help="override bin count")
            p.add_argument(
                "--lambda", dest="cal_weight", type=float, default=None,
                help="override the calibration loss weight",
            )

    p_gen = sub.add_parser("generate", help="generate a synthetic dataset")
    common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="two-phase training on a dataset file")
    common(p_train, training=True)
    p_train.add_argument("--dataset", required=True, help="dataset file to train on")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="metrics and reliability table for a checkpoint")
    p_eval.add_argument("--checkpoint", default=None, help="model checkpoint to evaluate")
    p_eval.add_argument("--dataset", required=True, help="dataset file to evaluate on")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_eval.add_argument("--bins", type=int, default=None, help="bin count (default 20)")
    p_eval.add_argument(
        "--oracle", action="store_true",
        help="score the stored true probabilities instead of a checkpoint",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="event-rate x dataset-size experiment grid")
    common(p_sweep, training=True)
    p_sweep.add_argument(
        "--threads", type=positive_int, default=1, help="parallel cells, >= 1 (default 1)"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plot", help="render an emitted CSV as an SVG chart")
    p_plot.add_argument("--input", required=True, help="epoch or reliability CSV")
    p_plot.add_argument("--out", required=True, help="output directory")
    p_plot.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args.started_utc = datetime.now(timezone.utc)
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # parameter validation raised past the config layer (bad shapes,
        # kernel larger than the field, ...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
