"""Command-line entry points: generate, train, evaluate, sweep, plot.

Every command reads a flat key=value config (where one applies), checks
its inputs, writes its artifacts into --out (created by the first
write), and finishes with a manifest listing each output file and its
digest. Exit codes: 0 success, 1 usage/config error, 2 data/format
error, 3 numeric failure, 4 partial sweep failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ..calibration import evaluate_predictions
from ..fieldgen import generate_dataset
from ..numerics import NumericError
from ..pipeline import (
    TrainConfig,
    check_bins,
    evaluate_arm,
    record_helper,
    run_experiment,
    run_fold,
    split_kfold,
)
# Not called here, but perfbench/tracing.py wraps these two names in this module.
from ..pipeline import train_cape, train_warmup  # noqa: F401
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
    """Check --out for clashing outputs and manifest; the first write creates --out."""
    out = Path(outdir)
    blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise UsageError(f"output path {blocker} exists and is not a directory")
    clashes = [n for n in [*names, storage.MANIFEST_NAME] if (out / n).exists()]
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
    out = _prepare_outdir(args.out, ["dataset.bin"], args.force)
    field_cfg = configfile.field_config_from(cfg)
    dataset = generate_dataset(field_cfg, cfg["n_samples"])
    written = storage.write_dataset(out / "dataset.bin", dataset)
    rate = float(dataset.outcomes.mean(axis=(1, 2)).mean())
    print(f"wrote {written.path} ({len(dataset)} samples, event rate {rate:.4f})")
    storage.write_manifest(out, "generate", cfg, cfg["seed"], [written], args.started_utc)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = configfile.load_config(args.config, configfile.TRAIN_KEYS)
    cfg = _apply_overrides(cfg, args)
    train_cfg = configfile.train_config_from(cfg)
    out = _prepare_outdir(args.out, ["bce_arm.ckpt", "cape_arm.ckpt", "epochs.csv"], args.force)
    dataset = storage.read_dataset(args.dataset)
    check_bins(train_cfg, len(dataset), dataset.outcomes[0].size)

    folds = split_kfold(len(dataset), train_cfg.folds, train_cfg.seed)
    try:
        with record_helper(dataset) as submit:
            run = run_fold(dataset, folds, 0, train_cfg, submit)
    except BrokenExecutor:  # the helper died; the fold is deterministic, so rerun it here
        run = run_fold(dataset, folds, 0, train_cfg)
    warm = run.warmup
    files = [
        storage.write_checkpoint(out / "bce_arm.ckpt", warm.best_params),
        storage.write_checkpoint(out / "cape_arm.ckpt", run.cape_params),
        storage.write_epoch_csv(out / "epochs.csv", warm.records + run.cape_records),
    ]
    print(
        f"warm-up stopped at epoch {warm.stop_epoch} (best epoch {warm.best_epoch}); "
        f"test ECE bce={run.bce_metrics.ece:.4f} cape={run.cape_metrics.ece:.4f}"
    )
    storage.write_manifest(out, "train", cfg, train_cfg.seed, files, args.started_utc)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    out = _prepare_outdir(args.out, ["metrics.csv", "reliability.csv"], args.force)
    dataset = storage.read_dataset(args.dataset)

    if args.oracle:
        if not dataset.has_true_p:
            raise FormatError("--oracle requires a dataset with true probabilities")
        true_p = dataset.true_p.ravel()
        report = evaluate_predictions(true_p, dataset.outcomes.ravel(), true_p, args.bins)
    else:
        if not args.checkpoint:
            raise UsageError("evaluate needs --checkpoint (or --oracle)")
        params = storage.read_checkpoint(args.checkpoint)
        if params.in_channels != dataset.shape[0]:
            raise FormatError(
                f"checkpoint expects {params.in_channels} input channels, "
                f"dataset has {dataset.shape[0]}"
            )
        report = evaluate_arm(params, dataset, np.arange(len(dataset)), args.bins)

    files = [storage.write_metrics_csv(out / "metrics.csv", report)]
    files.append(storage.write_reliability_csv(out / "reliability.csv", report.bin_table))
    kl_text = f"{report.kl_true:.6f}" if report.kl_true is not None else "n/a"
    print(
        f"ece={report.ece:.4f} brier={report.brier:.4f} kl={kl_text} "
        f"({report.bin_table.n_pixels} pixels, {args.bins} bins)"
    )
    config_echo = {"dataset": str(args.dataset), "bins": args.bins, "oracle": bool(args.oracle)}
    storage.write_manifest(out, "evaluate", config_echo, 0, files, args.started_utc)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = configfile.load_config(args.config, configfile.SWEEP_SCHEMA)
    cfg = _apply_overrides(cfg, args)
    outputs = ["sweep.csv", "ece_vs_rate.svg", "kl_vs_rate.svg", "failures.csv"]
    out = _prepare_outdir(args.out, outputs, args.force)
    field_cfg = configfile.field_config_from({**cfg, "target_rate": 0.5})
    train_cfg = configfile.train_config_from(cfg)

    result = run_experiment(field_cfg, cfg["rates"], cfg["sizes"], train_cfg, args.threads)
    rows = result.rows()

    files = [storage.write_sweep_csv(out / "sweep.csv", rows)]
    if rows:
        ece = svg.sweep_chart(rows, "ece", "Calibration error vs event rate", "ECE")
        kl = svg.sweep_chart(rows, "kl", "KL divergence vs event rate", "KL (nats)")
        files.append(storage.publish(out / "ece_vs_rate.svg", [ece.encode("utf-8")]))
        files.append(storage.publish(out / "kl_vs_rate.svg", [kl.encode("utf-8")]))
    if result.failures:
        files.append(storage.write_failures_csv(out / "failures.csv", result.failures))
        for cell in result.failures:
            print(
                f"cell (rate={cell.target_rate}, n={cell.n_samples}) failed:\n{cell.error}",
                file=sys.stderr,
            )
    print(f"wrote {files[0].path} ({len(rows)} rows, {len(result.failures)} failed cells)")
    storage.write_manifest(out, "sweep", cfg, train_cfg.seed, files, args.started_utc, outputs)
    return EXIT_PARTIAL if result.failures else EXIT_OK


def cmd_plot(args) -> int:
    epoch, reliability = storage.EPOCH_CSV_HEADER, storage.RELIABILITY_CSV_HEADER
    header, rows = storage.read_csv(args.input, epoch, reliability)
    if not rows:
        raise FormatError(f"{args.input}: no rows to plot")
    names = ["learning_curves.svg", "reliability.svg"]
    if header == epoch:
        name, content = names[0], svg.learning_curve_chart(rows, "Training and validation curves")
    else:
        name, content = names[1], svg.reliability_chart(rows, "Reliability diagram")
    out = _prepare_outdir(args.out, names, args.force)
    written = storage.publish(out / name, [content.encode("utf-8")])
    print(f"wrote {written.path}")
    config_echo = {"input": str(args.input)}
    storage.write_manifest(out, "plot", config_echo, 0, [written], args.started_utc, names)
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
            p.add_argument("--bins", type=positive_int, default=None, help="override bin count")
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
    p_eval.add_argument(
        "--bins", type=positive_int, default=TrainConfig.bins, help="bin count (default %(default)s)"
    )
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
    except (FormatError, OSError) as exc:
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
