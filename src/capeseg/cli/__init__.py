"""Command-line entry points: generate, train, evaluate, sweep, plot.

Each command is declared once, in `build_parser`, with the names of its
outputs and the schema of the flat key=value config it reads (where one
applies). It checks its inputs, writes its outputs into --out (created
by the first write), and returns its exit code and what its manifest
records; `main` then publishes the manifest, which lists each output
file and its digest. Exit codes: 0 success, 1 usage/config error,
2 data/format error, 3 numeric failure, 4 partial sweep failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ..calibration import evaluate_predictions
from ..fieldgen import CHUNK_FIELDS, Dataset, FieldConfig, generate_chunks
from ..model import probabilities
from ..numerics import NumericError
from ..pipeline import (
    TrainConfig,
    check_bins,
    predict_split,
    run_experiment,
    run_fold,
    second_core,
    shared,
    split_kfold,
    workers,
)
# Not called here, but perfbench/tracing.py wraps these names in this module.
from ..fieldgen import generate_dataset  # noqa: F401
from ..pipeline import evaluate_arm, train_cape, train_warmup  # noqa: F401
from . import configfile, storage, svg
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


def _load_config(args) -> dict:
    """The command's config file, read against its schema; a flag named like a key overrides it."""
    cfg = configfile.load_config(args.config, args.schema)
    return {**cfg, **{k: v for k, v in vars(args).items() if k in cfg and v is not None}}


def _prepare_outdir(args) -> list[Path]:
    """Paths of the command's declared outputs, once --out is checked for clashing
    outputs and manifest; the first write creates --out."""
    out = Path(args.out)
    blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise UsageError(f"output path {blocker} exists and is not a directory")
    names = [*args.outputs, storage.MANIFEST_NAME]
    clashes = [n for n in names if (out / n).exists()]
    if clashes and not args.force:
        raise UsageError(
            f"output file(s) already exist in {out}: {', '.join(clashes)} (use --force)"
        )
    if args.force:
        storage.remove_temporaries(out, names)
    return [out / name for name in args.outputs]


def cmd_generate(args) -> tuple[int, dict, int, list]:
    cfg = _load_config(args)
    (path,) = _prepare_outdir(args)
    config = configfile.build(FieldConfig, cfg)
    shape = (config.channels, config.height, config.width)
    spare = Dataset.empty(CHUNK_FIELDS, shape, alloc=shared)  # the chunk a worker makes
    sample_rates = []  # each sample's event rate, taken as its chunk is written
    with workers(second_core(), into=spare) as submit:  # on a second core, where there is one
        data = generate_chunks(config, cfg["n_samples"], submit, spare)

        def chunks():
            for chunk in data.chunks:
                sample_rates.append(chunk.outcomes.mean(axis=(1, 2)))
                yield chunk

        written = storage.write_dataset(path, replace(data, chunks=chunks()))
    rate = float(np.concatenate(sample_rates).mean())
    print(f"wrote {written.path} ({len(data)} samples, event rate {rate:.4f})")
    return EXIT_OK, cfg, cfg["seed"], [written]


def cmd_train(args) -> tuple[int, dict, int, list]:
    cfg = _load_config(args)
    train_cfg = configfile.build(TrainConfig, cfg)
    *arm_paths, epochs_path = _prepare_outdir(args)
    dataset = storage.read_dataset(args.dataset)
    check_bins(train_cfg, len(dataset), dataset.outcomes[0].size)

    folds = split_kfold(len(dataset), train_cfg.folds, train_cfg.seed)
    try:  # records on a second core, where there is one, while this process trains
        with workers(second_core(), dataset=dataset) as submit:
            run = run_fold(dataset, folds, 0, train_cfg, submit)
    except BrokenExecutor:  # the worker died; the fold is deterministic, so rerun it here
        run = run_fold(dataset, folds, 0, train_cfg)
    files = [storage.write_checkpoint(path, arm.params) for path, arm in zip(arm_paths, run.arms)]
    files.append(storage.write_epoch_csv(epochs_path, [r for arm in run.arms for r in arm.records]))
    warm, eces = run.warmup, " ".join(f"{arm.name}={arm.report.ece:.4f}" for arm in run.arms)
    print(
        f"warm-up stopped at epoch {warm.stop_epoch} (best epoch {warm.best_epoch}); test ECE {eces}"
    )
    return EXIT_OK, cfg, train_cfg.seed, files


def _predict_from(params, path, start: int, preds: np.ndarray) -> None:
    """Predict the samples of dataset file `path` from `start` on, into the tail of preds."""
    data = storage.read_chunks(path, start)
    at = preds.size - len(data) * data.shape[1] * data.shape[2]
    for chunk in data.chunks:
        ours = probabilities(predict_split(params, chunk, np.arange(len(chunk))))
        preds[at : at + ours.size], at = ours, at + ours.size


def cmd_evaluate(args) -> tuple[int, dict, int, list]:
    metrics_path, reliability_path = _prepare_outdir(args)
    data = storage.read_chunks(args.dataset)
    if args.oracle and not data.has_true_p:
        raise FormatError("--oracle requires a dataset with true probabilities")
    if not args.oracle:
        params = storage.read_checkpoint(args.checkpoint)
        if params.in_channels != data.shape[0]:
            raise FormatError(
                f"checkpoint expects {params.in_channels} input channels, "
                f"dataset has {data.shape[0]}"
            )

    # The per-pixel arrays, filled a chunk at a time; the oracle scores true_p itself.
    outcomes = np.empty(len(data) * data.shape[1] * data.shape[2])
    if args.bins > outcomes.size:
        raise UsageError(f"--bins {args.bins} exceeds the {outcomes.size} pixels of {args.dataset}")
    true_p = np.empty_like(outcomes) if data.has_true_p else None
    preds = true_p if args.oracle else shared(outcomes.shape)
    helpers = 0 if args.oracle or len(data) < 2 else second_core()
    mine = len(data) - helpers * (len(data) // 2)  # predicted here, the rest on a second core
    with workers(helpers, preds=preds) as submit:
        job = helpers and submit(_predict_from, params, args.dataset, mine, preds=preds)
        at = first = 0
        for chunk in data.chunks:
            rows = slice(at, at + chunk.outcomes.size)
            outcomes[rows] = chunk.outcomes.ravel()
            if true_p is not None:
                true_p[rows] = chunk.true_p.ravel()
            if not args.oracle:  # the chunk's samples before `mine`
                ours = predict_split(params, chunk, np.arange(min(len(chunk), mine - first)))
                preds[at : at + ours.size] = probabilities(ours)
            at, first = rows.stop, first + len(chunk)
        try:
            job and job.result()
        except BrokenExecutor:  # the worker died; make its predictions here
            _predict_from(params, args.dataset, mine, preds)
    if args.oracle and not (true_p.min() > 0.0 and true_p.max() < 1.0):
        raise FormatError(f"{args.dataset}: --oracle needs true probabilities inside (0, 1)")
    report = evaluate_predictions(preds, outcomes, true_p, args.bins)

    files = [storage.write_metrics_csv(metrics_path, report)]
    files.append(storage.write_reliability_csv(reliability_path, report.bin_table))
    kl_text = f"{report.kl_true:.6f}" if report.kl_true is not None else "n/a"
    print(
        f"ece={report.ece:.4f} brier={report.brier:.4f} kl={kl_text} "
        f"({report.bin_table.n_pixels} pixels, {args.bins} bins)"
    )
    config_echo = {"dataset": str(args.dataset), "bins": args.bins, "oracle": bool(args.oracle)}
    return EXIT_OK, config_echo, 0, files


def cmd_sweep(args) -> tuple[int, dict, int, list]:
    cfg = _load_config(args)
    csv_path, ece_path, kl_path, failures_path = _prepare_outdir(args)
    field_cfg = configfile.build(FieldConfig, {**cfg, "target_rate": 0.5})
    train_cfg = configfile.build(TrainConfig, cfg)

    result = run_experiment(field_cfg, cfg["rates"], cfg["sizes"], train_cfg, args.threads)
    rows = result.rows()

    files = [storage.write_sweep_csv(csv_path, rows)]
    if rows:
        ece = svg.sweep_chart(rows, "ece", "Calibration error vs event rate", "ECE")
        kl = svg.sweep_chart(rows, "kl", "KL divergence vs event rate", "KL (nats)")
        files.append(storage.publish(ece_path, [ece.encode("utf-8")]))
        files.append(storage.publish(kl_path, [kl.encode("utf-8")]))
    if result.failures:
        files.append(storage.write_failures_csv(failures_path, result.failures))
        for cell in result.failures:
            print(
                f"cell (rate={cell.target_rate}, n={cell.n_samples}) failed:\n{cell.error}",
                file=sys.stderr,
            )
    print(f"wrote {files[0].path} ({len(rows)} rows, {len(result.failures)} failed cells)")
    return (EXIT_PARTIAL if result.failures else EXIT_OK), cfg, train_cfg.seed, files


def cmd_plot(args) -> tuple[int, dict, int, list]:
    epoch, reliability = storage.EPOCH_CSV_HEADER, storage.RELIABILITY_CSV_HEADER
    header, rows = storage.read_csv(args.input, epoch, reliability)
    if not rows:
        raise FormatError(f"{args.input}: no rows to plot")
    if header == epoch:  # the first of the two declared charts
        chart, content = 0, svg.learning_curve_chart(rows, "Training and validation curves")
    else:
        chart, content = 1, svg.reliability_chart(rows, "Reliability diagram")
    written = storage.publish(_prepare_outdir(args)[chart], [content.encode("utf-8")])
    print(f"wrote {written.path}")
    return EXIT_OK, {"input": str(args.input)}, 0, [written]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capeseg",
        description="Calibrated probability estimation workbench for synthetic segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, outputs, schema=None):
        """A subcommand that writes `outputs` into --out; one that reads a config
        `schema` takes --config, and a flag per key it may override."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, outputs=outputs, schema=schema)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        if schema is not None:
            p.add_argument("--config", required=True, help="flat key=value config file")
            p.add_argument("--seed", type=int, help="override the config seed")
            if {"bins", "lambda"} <= schema.keys():
                p.add_argument("--bins", type=positive_int, help="override bin count")
                p.add_argument("--lambda", type=float, help="override the calibration loss weight")
        return p

    command(
        "generate", cmd_generate, "generate a synthetic dataset",
        ("dataset.bin",), configfile.GENERATE_SCHEMA,
    )
    p = command(
        "train", cmd_train, "two-phase training on a dataset file",
        ("bce_arm.ckpt", "cape_arm.ckpt", "epochs.csv"), configfile.TRAIN_KEYS,
    )
    p.add_argument("--dataset", required=True, help="dataset file to train on")
    p = command(
        "evaluate", cmd_evaluate, "metrics and reliability table for a checkpoint",
        ("metrics.csv", "reliability.csv"),
    )
    scored = p.add_mutually_exclusive_group(required=True)
    scored.add_argument("--checkpoint", help="model checkpoint to evaluate")
    scored.add_argument(
        "--oracle", action="store_true",
        help="score the stored true probabilities instead of a checkpoint",
    )
    p.add_argument("--dataset", required=True, help="dataset file to evaluate on")
    p.add_argument(
        "--bins", type=positive_int, default=TrainConfig.bins, help="bin count (default %(default)s)"
    )
    p = command(
        "sweep", cmd_sweep, "event-rate x dataset-size experiment grid",
        ("sweep.csv", "ece_vs_rate.svg", "kl_vs_rate.svg", "failures.csv"),
        configfile.SWEEP_SCHEMA,
    )
    p.add_argument(
        "--threads", type=positive_int, default=1, help="parallel cells, >= 1 (default 1)"
    )
    p = command(
        "plot", cmd_plot, "render an emitted CSV as an SVG chart",
        ("learning_curves.svg", "reliability.svg"),
    )
    p.add_argument("--input", required=True, help="epoch or reliability CSV")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args.started_utc = datetime.now(timezone.utc)
    try:
        code, config_echo, seed, files = args.func(args)
        storage.write_manifest(
            args.out, args.command, config_echo, seed, files, args.started_utc, args.outputs
        )
        return code
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ConfigError, UsageError and the configs' own checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
