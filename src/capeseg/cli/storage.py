"""Bit-exact persistence: dataset and checkpoint binaries, CSV reports,
and the run manifest.

Every output is written by `publish`: whole or not at all, and hashed as
it is written. Each writer returns the `Written` record (path, size,
SHA-256) that the manifest, published last, is built from.

Datasets use a little-endian header (magic "CAPESEG1") followed by one
record per sample: float32 inputs, uint8 outcomes, float32 true
probabilities when flagged. Checkpoints are named parameter blocks with
shape headers, stored as float64 so reloaded models evaluate exactly like
the trained ones. Floats in CSVs are written with repr, which round-trips.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
from dataclasses import astuple, dataclass
from datetime import datetime, timezone
from pathlib import Path

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
FAILURES_CSV_HEADER = ["rho", "n", "error"]
MANIFEST_NAME = "manifest.json"


class FormatError(ValueError):
    """On-disk data does not match the expected binary or CSV layout."""


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
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


def write_dataset(path, dataset: Dataset) -> Written:
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
    header = _HEADER.pack(DATASET_MAGIC, DATASET_VERSION, len(dataset), c, h, w, flags)
    return publish(path, [header, records.data])


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


def write_checkpoint(path, params: ModelParams) -> Written:
    blob = bytearray()
    blob += struct.pack("<8sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(params.blocks))
    for name, block in params.blocks.items():
        arr = np.ascontiguousarray(block, dtype="<f8")
        encoded = name.encode("ascii")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    return publish(path, [blob])


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


# --- publishing and the manifest ---


@dataclass(frozen=True)
class Written:
    """A published output: its path, its size and the SHA-256 of its bytes."""

    path: Path
    bytes: int
    sha256: str

    def __fspath__(self) -> str:
        return os.fspath(self.path)


def publish(path, chunks) -> Written:
    """Write the bytes-like `chunks` to a temporary file beside `path`, hashing
    them, then rename it into place; any failure, an interrupt included,
    removes it. Creates the directory when needed. Replacing an output
    other than the manifest first removes the manifest, now stale."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
            size = fh.tell()
        if path.name != MANIFEST_NAME:
            (path.parent / MANIFEST_NAME).unlink(missing_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return Written(path, size, digest.hexdigest())


def write_manifest(
    outdir, command: str, config_echo: dict, seed: int, outputs, started_utc: datetime,
    declared=(),
) -> Written:
    """Inventory of a command's outputs from their `Written` records; published last.

    started_utc is when the command started; finished_utc is stamped here.
    Those of the `declared` output names that this run did not write, left
    by an earlier run, are removed first.
    """
    for name in set(declared) - {w.path.name for w in outputs}:
        (Path(outdir) / name).unlink(missing_ok=True)
    entries = [{"path": w.path.name, "bytes": w.bytes, "sha256": w.sha256} for w in outputs]
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
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    return publish(Path(outdir) / MANIFEST_NAME, [text.encode("utf-8")])


# --- CSV reports ---


def finite_float(text: str) -> float:
    """float(text), refusing nan and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return value


def _optional(cast):
    return lambda text: cast(text) if text else None


def _write_csv(path, header: list[str], rows) -> Written:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([fmt(cell) for cell in row] for row in rows)
    return publish(path, [text.getvalue().encode("utf-8")])


# The CSVs read back: per-column casts and the record built from one row.
_READ_LAYOUTS = {
    tuple(EPOCH_CSV_HEADER): (
        (int, str, finite_float, finite_float, finite_float, _optional(finite_float)),
        EpochRecord,
    ),
    tuple(RELIABILITY_CSV_HEADER): (
        (int, finite_float, finite_float, int, finite_float, finite_float),
        lambda *row: dict(zip(RELIABILITY_CSV_HEADER, row)),
    ),
}


def read_csv(path, *headers: list[str]) -> tuple[list[str], list]:
    """(header, records) of a CSV report whose header is one of `headers`.

    Undecodable bytes, another header, a wrong field count and a bad or
    non-finite number are each a FormatError naming the line.
    """
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{lineno}: not UTF-8 text") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header not in headers:
            raise ValueError("expected header " + " or ".join(",".join(h) for h in headers))
        casts, make = _READ_LAYOUTS[tuple(header)]
        records = []
        for row in reader:
            if len(row) != len(casts):
                raise ValueError(f"expected {len(casts)} fields")
            records.append(make(*(cast(cell) for cast, cell in zip(casts, row))))
    except (csv.Error, ValueError) as exc:
        raise FormatError(f"{path}:{max(reader.line_num, 1)}: {exc}") from exc
    return header, records


def write_epoch_csv(path, records: list[EpochRecord]) -> Written:
    return _write_csv(path, EPOCH_CSV_HEADER, map(astuple, records))


def write_sweep_csv(path, rows: list[dict]) -> Written:
    return _write_csv(path, SWEEP_CSV_HEADER, ([row[k] for k in SWEEP_CSV_HEADER] for row in rows))


def write_failures_csv(path, failures) -> Written:
    rows = ((cell.target_rate, cell.n_samples, cell.error.strip()) for cell in failures)
    return _write_csv(path, FAILURES_CSV_HEADER, rows)


def write_reliability_csv(path, table: BinTable) -> Written:
    columns = (table.edges[:-1], table.edges[1:], table.counts, table.prob_pred, table.prob_true)
    return _write_csv(path, RELIABILITY_CSV_HEADER, zip(range(table.n_bins), *columns))


def write_metrics_csv(path, report: MetricsReport) -> Written:
    table = report.bin_table
    rows = [
        ("ece", report.ece),
        ("brier", report.brier),
        ("kl_true", report.kl_true),
        ("n_pixels", table.n_pixels),
        ("n_bins", table.n_bins),
    ]
    return _write_csv(path, METRICS_CSV_HEADER, rows)
