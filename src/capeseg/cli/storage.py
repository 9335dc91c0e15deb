"""Bit-exact persistence: dataset and checkpoint binaries, CSV reports,
and the run manifest.

Datasets use a little-endian header (magic "CAPESEG1") followed by one
record per sample: float32 inputs, uint8 outcomes, float32 true
probabilities when flagged. Checkpoints are named parameter blocks with
shape headers, stored as float64 so reloaded models evaluate exactly like
the trained ones. Floats in CSVs are written with repr, which round-trips.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .. import __version__
from ..calibration import BinTable, MetricsReport
from ..fieldgen import Dataset
from ..model import ModelParams, block_shapes
from ..pipeline import EpochRecord

DATASET_MAGIC = b"CAPESEG1"
DATASET_VERSION = 1
FLAG_TRUE_P = 1

CHECKPOINT_MAGIC = b"CAPECKP1"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<8s6I")

EPOCH_CSV_HEADER = ["epoch", "phase", "train_loss", "val_loss", "brier", "kl"]
SWEEP_CSV_HEADER = ["rho", "n", "fold", "arm", "ece", "brier", "kl", "stop_epoch"]
RELIABILITY_CSV_HEADER = ["bin", "edge_lo", "edge_hi", "count", "prob_pred", "prob_true"]
METRICS_CSV_HEADER = ["metric", "value"]


class FormatError(ValueError):
    """On-disk data does not match the expected binary or CSV layout."""


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# --- dataset container ---


def _record_dtype(c: int, h: int, w: int, has_true_p: bool) -> np.dtype:
    """Layout of one sample on disk, without padding."""
    fields = [("inputs", "<f4", (c, h, w)), ("outcomes", "u1", (h, w))]
    if has_true_p:
        fields.append(("true_p", "<f4", (h, w)))
    return np.dtype(fields)


def write_dataset(path, dataset: Dataset) -> None:
    if len(dataset) == 0:
        raise ValueError("refusing to write an empty dataset")
    if not np.isin(dataset.outcomes, (0.0, 1.0)).all():
        raise ValueError("dataset outcomes are not strictly binary")
    c, h, w = dataset.shape
    flags = FLAG_TRUE_P if dataset.has_true_p else 0
    records = np.empty(len(dataset), _record_dtype(c, h, w, dataset.has_true_p))
    records["inputs"] = dataset.inputs
    records["outcomes"] = dataset.outcomes
    if dataset.has_true_p:
        records["true_p"] = dataset.true_p
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, len(dataset), c, h, w, flags))
        fh.write(records.data)


def _reject_bad_samples(path, what: str, ok: np.ndarray) -> None:
    """FormatError naming the first sample with any False in `ok` (N x ...)."""
    bad = np.flatnonzero(~ok.reshape(len(ok), -1).all(axis=1))
    if bad.size:
        raise FormatError(f"{path}: sample {bad[0]} has {what}")


def read_dataset(path) -> Dataset:
    """Load a dataset, rejecting corrupt or out-of-range values with FormatError."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, n_samples, c, h, w, flags = _HEADER.unpack_from(data, 0)
    if magic != DATASET_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {DATASET_MAGIC!r}")
    if version != DATASET_VERSION:
        raise FormatError(f"{path}: unsupported dataset version {version}")
    if 0 in (n_samples, c, h, w):
        raise FormatError(f"{path}: empty dataset ({n_samples} samples of {c}x{h}x{w})")
    has_p = bool(flags & FLAG_TRUE_P)
    try:
        dtype = _record_dtype(c, h, w, has_p)
    except ValueError as exc:  # a sample too large for one numpy record
        raise FormatError(f"{path}: implausible sample shape {c}x{h}x{w}: {exc}") from exc
    expected = _HEADER.size + n_samples * dtype.itemsize
    if len(data) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {n_samples} samples, found {len(data)}"
        )
    records = np.frombuffer(data, dtype, count=n_samples, offset=_HEADER.size)
    _reject_bad_samples(path, "non-binary outcome bytes", records["outcomes"] <= 1)
    _reject_bad_samples(path, "non-finite inputs", np.isfinite(records["inputs"]))
    true_p = None
    if has_p:
        raw_p = records["true_p"]
        _reject_bad_samples(path, "true_p outside [0, 1]", (raw_p >= 0.0) & (raw_p <= 1.0))
        true_p = raw_p.astype(np.float64)
    return Dataset(
        inputs=records["inputs"].astype(np.float64),
        outcomes=records["outcomes"].astype(np.float64),
        true_p=true_p,
    )


# --- checkpoint container ---


def write_checkpoint(path, params: ModelParams) -> None:
    blob = bytearray()
    blob += struct.pack("<8sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(params.blocks))
    for name, block in params.blocks.items():
        arr = np.ascontiguousarray(block, dtype="<f8")
        encoded = name.encode("ascii")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    Path(path).write_bytes(bytes(blob))


def read_checkpoint(path) -> ModelParams:
    """Load parameters, rejecting corrupt, non-finite or mutually inconsistent
    blocks with FormatError. The block shapes must be the layout that
    `block_shapes` derives from conv1_w's filter and channel counts."""
    data = Path(path).read_bytes()
    head = struct.Struct("<8sII")
    if len(data) < head.size:
        raise FormatError(f"{path}: truncated checkpoint header")
    magic, version, n_blocks = head.unpack_from(data, 0)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    offset = head.size
    blocks: dict[str, np.ndarray] = {}
    try:
        for _ in range(n_blocks):
            (name_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            name = data[offset : offset + name_len].decode("ascii")
            offset += name_len
            (ndim,) = struct.unpack_from("<I", data, offset)
            offset += 4
            shape = struct.unpack_from(f"<{ndim}I", data, offset)
            offset += 4 * ndim
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
            offset += 8 * count
            blocks[name] = arr.reshape(shape)
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: corrupt checkpoint block: {exc}") from exc
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes")
    conv1_w = blocks.get("conv1_w")
    if conv1_w is None or conv1_w.ndim != 4 or 0 in conv1_w.shape:
        raise FormatError(f"{path}: missing or malformed conv1_w block")
    f, c = conv1_w.shape[:2]
    layout = block_shapes(c, f)
    unknown = sorted(set(blocks) - set(layout))
    if unknown:
        raise FormatError(f"{path}: unknown parameter blocks: {', '.join(unknown)}")
    for name, shape in layout.items():
        if name not in blocks:
            raise FormatError(f"{path}: missing parameter block {name}")
        if blocks[name].shape != shape:
            raise FormatError(
                f"{path}: block {name} has shape {blocks[name].shape}, expected {shape} "
                f"for {c} input channels and {f} filters"
            )
        if not np.isfinite(blocks[name]).all():
            raise FormatError(f"{path}: non-finite values in block {name}")
    return ModelParams(c, f, np.concatenate([blocks[name].ravel() for name in layout]))


# --- manifest ---


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    outdir, command: str, config_echo: dict, seed: int, outputs, started_utc: datetime
) -> Path:
    """Inventory of a command's outputs with content digests; written last.

    started_utc is when the command started; finished_utc is stamped here.
    """
    outdir = Path(outdir)
    entries = []
    for p in outputs:
        p = Path(p)
        entries.append(
            {"path": p.name, "bytes": p.stat().st_size, "sha256": sha256_file(p)}
        )
    manifest = {
        "tool": "capeseg",
        "version": __version__,
        "command": command,
        "master_seed": int(seed),
        "started_utc": started_utc.isoformat(),
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "config": config_echo,
        "outputs": entries,
    }
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# --- CSV reports ---


def write_epoch_csv(path, records: list[EpochRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPOCH_CSV_HEADER)
        for r in records:
            writer.writerow(
                [r.epoch, r.phase, fmt(r.train_loss), fmt(r.val_loss), fmt(r.brier), fmt(r.kl_true)]
            )


def read_epoch_csv(path) -> list[EpochRecord]:
    records = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != EPOCH_CSV_HEADER:
            raise FormatError(f"{path}:1: expected header {','.join(EPOCH_CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(EPOCH_CSV_HEADER):
                raise FormatError(f"{path}:{lineno}: expected {len(EPOCH_CSV_HEADER)} fields")
            try:
                records.append(
                    EpochRecord(
                        epoch=int(row[0]),
                        phase=row[1],
                        train_loss=float(row[2]),
                        val_loss=float(row[3]),
                        brier=float(row[4]),
                        kl_true=float(row[5]) if row[5] else None,
                    )
                )
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return records


def write_sweep_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_HEADER)
        for row in rows:
            writer.writerow(
                [
                    fmt(row["rho"]),
                    row["n"],
                    row["fold"],
                    row["arm"],
                    fmt(row["ece"]),
                    fmt(row["brier"]),
                    fmt(row["kl"]),
                    row["stop_epoch"],
                ]
            )


def write_failures_csv(path, failures) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "n", "error"])
        for cell in failures:
            writer.writerow([fmt(cell.target_rate), cell.n_samples, cell.error.strip()])


def write_reliability_csv(path, table: BinTable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RELIABILITY_CSV_HEADER)
        for b in range(table.n_bins):
            writer.writerow(
                [
                    b,
                    fmt(table.edges[b]),
                    fmt(table.edges[b + 1]),
                    int(table.counts[b]),
                    fmt(table.prob_pred[b]),
                    fmt(table.prob_true[b]),
                ]
            )


def read_reliability_csv(path) -> list[dict]:
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RELIABILITY_CSV_HEADER:
            raise FormatError(f"{path}:1: expected header {','.join(RELIABILITY_CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(RELIABILITY_CSV_HEADER):
                raise FormatError(f"{path}:{lineno}: expected {len(RELIABILITY_CSV_HEADER)} fields")
            try:
                rows.append(
                    {
                        "bin": int(row[0]),
                        "edge_lo": float(row[1]),
                        "edge_hi": float(row[2]),
                        "count": int(row[3]),
                        "prob_pred": float(row[4]),
                        "prob_true": float(row[5]),
                    }
                )
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return rows


def write_metrics_csv(path, report: MetricsReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        writer.writerow(["ece", fmt(report.ece)])
        writer.writerow(["brier", fmt(report.brier)])
        writer.writerow(["kl_true", fmt(report.kl_true)])
        writer.writerow(["n_pixels", report.n_pixels])
        writer.writerow(["n_bins", report.bin_table.n_bins])


def csv_header(path) -> Optional[list[str]]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return next(csv.reader(fh), None)
