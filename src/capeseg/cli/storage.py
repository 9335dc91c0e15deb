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
from ..fieldgen import Dataset, DatasetStream
from ..model import ModelParams, block_shapes
from ..pipeline import CAPE_PHASE, WARMUP_PHASE, EpochRecord

DATASET_MAGIC = b"CAPESEG1"
DATASET_VERSION = 1
FLAG_TRUE_P = 1
RECORD_CHUNK = 1 << 20  # `read_chunks`' chunks would fill half of it at 8 bytes a value

CHECKPOINT_MAGIC = b"CAPECKP1"
CHECKPOINT_VERSION = 1
_CHECKPOINT_HEADER = struct.Struct("<8sII")
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


def _dataset_chunks(data: DatasetStream):
    """The header, then each chunk of `data` as one record array: `publish`
    writes a chunk before it asks for the next."""
    c, h, w = data.shape
    flags = FLAG_TRUE_P if data.has_true_p else 0
    yield _HEADER.pack(DATASET_MAGIC, DATASET_VERSION, len(data), c, h, w, flags)
    dtype = _record_dtype(c, h, w, data.has_true_p)
    for chunk in data.chunks:
        if not np.array_equal(chunk.outcomes, chunk.outcomes.astype(bool)):
            raise ValueError("dataset outcomes are not strictly binary")
        records = np.empty(len(chunk), dtype)
        for name in dtype.names:  # inputs, outcomes and true_p, as the dataset names them
            records[name] = getattr(chunk, name)
        yield records.data
        del chunk, records  # both go before the stream makes the next chunk


def write_dataset(path, data: DatasetStream) -> Written:
    if len(data) == 0:
        raise ValueError("refusing to write an empty dataset")
    return publish(path, _dataset_chunks(data))


def read_chunks(path, start: int = 0) -> DatasetStream:
    """A dataset file's samples from `start` on as a stream of chunks in the file's
    dtypes, once its header, its size and their records are checked in one streamed
    pass. A `start` outside the file's samples is a ValueError.

    A corrupt file is a FormatError; so is a non-binary outcome, a non-finite
    input or a true_p outside [0, 1], reported in that order of precedence,
    each at its first bad sample. The stream reads the file again.
    """
    with open(path, "rb") as fh:
        header, size = fh.read(_HEADER.size), os.fstat(fh.fileno()).st_size
    if len(header) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, n_samples, c, h, w, flags = _HEADER.unpack(header)
    if magic != DATASET_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {DATASET_MAGIC!r}")
    if version != DATASET_VERSION:
        raise FormatError(f"{path}: unsupported dataset version {version}")
    if flags & ~FLAG_TRUE_P:
        raise FormatError(f"{path}: unknown header flags {flags:#x}")
    if 0 in (n_samples, c, h, w):
        raise FormatError(f"{path}: empty dataset ({n_samples} samples of {c}x{h}x{w})")
    has_p = bool(flags & FLAG_TRUE_P)
    try:
        dtype = _record_dtype(c, h, w, has_p)
    except ValueError as exc:  # a sample too large for one numpy record
        raise FormatError(f"{path}: implausible sample shape {c}x{h}x{w}: {exc}") from exc
    expected = _HEADER.size + n_samples * dtype.itemsize
    if size != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {n_samples} samples, found {size}"
        )
    if not 0 <= start < n_samples:
        raise ValueError(f"start {start} is outside the {n_samples} samples of {path}")
    # Samples per chunk: as many as half a RECORD_CHUNK holds at 8 bytes a value.
    step = max(1, RECORD_CHUNK // (16 * (c + 1 + has_p) * h * w))

    def records():
        with open(path, "rb") as fh:
            fh.seek(_HEADER.size + start * dtype.itemsize)
            for at in range(start, n_samples, step):
                yield np.fromfile(fh, dtype, min(step, n_samples - at))

    checks = {
        "non-binary outcome bytes": lambda r: r["outcomes"] <= 1,
        "non-finite inputs": lambda r: np.isfinite(r["inputs"]),
    }
    if has_p:
        checks["true_p outside [0, 1]"] = lambda r: (r["true_p"] >= 0.0) & (r["true_p"] <= 1.0)
    good = {what: [] for what in checks}  # per check and chunk, whether each sample passes
    for chunk in records():
        for what, passes in checks.items():
            good[what].append(passes(chunk).reshape(len(chunk), -1).all(axis=1))
    for what, per_chunk in good.items():
        bad = np.flatnonzero(~np.concatenate(per_chunk))
        if bad.size:
            raise FormatError(f"{path}: sample {start + bad[0]} has {what}")

    def chunks():
        for chunk in records():  # inputs, outcomes and true_p, as the dataset names them
            yield Dataset(*(chunk[name] for name in dtype.names))

    return DatasetStream(n_samples - start, (c, h, w), has_p, chunks())


def read_dataset(path) -> Dataset:
    """Load a dataset, rejecting corrupt or out-of-range values with FormatError."""
    return read_chunks(path).assemble()


# --- checkpoint container ---


def _block_header(name: str, shape: tuple[int, ...]) -> bytes:
    """A checkpoint block's header: name length, ASCII name, ndim and shape."""
    n = len(name)
    return struct.pack(f"<H{n}sI{len(shape)}I", n, name.encode("ascii"), len(shape), *shape)


def write_checkpoint(path, params: ModelParams) -> Written:
    chunks = [_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(params.blocks))]
    for name, block in params.blocks.items():
        chunks += [_block_header(name, np.shape(block)), np.asarray(block, "<f8").tobytes()]
    return publish(path, chunks)


def read_checkpoint(path) -> ModelParams:
    """Load parameters, accepting exactly what `write_checkpoint` writes: the finite
    blocks of `block_shapes` in order, for the filter and channel counts in conv1_w's
    shape header. Anything else, blocks out of order included, is a FormatError."""
    data = Path(path).read_bytes()
    if len(data) < _CHECKPOINT_HEADER.size:
        raise FormatError(f"{path}: truncated checkpoint header")
    magic, version, n_blocks = _CHECKPOINT_HEADER.unpack_from(data, 0)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    offset = _CHECKPOINT_HEADER.size
    at = offset + len(_block_header("conv1_w", ()))  # where conv1_w's shape starts
    f, c = struct.unpack_from("<2I", data.ljust(at + 8, b"\0"), at)
    layout = block_shapes(c, f)
    if n_blocks != len(layout) or 0 in (f, c):
        raise FormatError(f"{path}: expected {', '.join(layout)} with >= 1 filter and channel")
    values = []
    for name, shape in layout.items():
        header = _block_header(name, shape)
        end = offset + len(header) + 8 * math.prod(shape)
        if data[offset : offset + len(header)] != header or end > len(data):
            raise FormatError(f"{path}: expected block {name} of shape {shape} at byte {offset}")
        values.append(np.frombuffer(data[offset + len(header) : end], dtype="<f8"))
        if not np.isfinite(values[-1]).all():
            raise FormatError(f"{path}: non-finite values in block {name}")
        offset = end
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes")
    return ModelParams(c, f, np.concatenate(values))


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
                del chunk  # before the producer makes the next
            size = fh.tell()
        if path.name != MANIFEST_NAME:
            (path.parent / MANIFEST_NAME).unlink(missing_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return Written(path, size, digest.hexdigest())


def remove_temporaries(outdir, names) -> None:
    """Remove the temporaries of `names` that `publish` left in `outdir` when its
    process was killed outright."""
    for path in Path(outdir).glob(".*.tmp"):
        name, _, pid = path.name[1:-4].rpartition(".")
        if name in names and pid.isdigit():
            path.unlink()


def write_manifest(
    outdir, command: str, config_echo: dict, seed: int, outputs, started_utc: datetime, declared
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


def _checked(cast, ok, expected: str):
    """`cast`, refusing a value for which `ok` is false; `expected` says what is allowed."""

    def check(text: str):
        value = cast(text)
        if not ok(value):
            raise ValueError(f"expected {expected}, got {text.strip()!r}")
        return value

    return check


def _optional(cast):
    return lambda text: cast(text) if text else None


def _write_csv(path, header: list[str], rows) -> Written:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([fmt(cell) for cell in row] for row in rows)
    return publish(path, [text.getvalue().encode("utf-8")])


# The CSVs read back: per-column casts and the record built from one row.
_phase = _checked(str, {WARMUP_PHASE, CAPE_PHASE}.__contains__, "warmup or cape")
_unit = _checked(finite_float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_count = _checked(int, lambda v: v >= 0, "a count >= 0")
_READ_LAYOUTS = {
    tuple(EPOCH_CSV_HEADER): (
        (int, _phase, finite_float, finite_float, finite_float, _optional(finite_float)),
        EpochRecord,
    ),
    tuple(RELIABILITY_CSV_HEADER): (
        (int, _unit, _unit, _count, _unit, _unit),
        lambda *row: dict(zip(RELIABILITY_CSV_HEADER, row)),
    ),
}


def read_csv(path, *headers: list[str]) -> tuple[list[str], list]:
    """(header, records) of a CSV report whose header is one of `headers`.

    Undecodable bytes, another header, a wrong field count, a bad or
    non-finite number and a value out of its column's range are each a
    FormatError naming the line.
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
    rows = [("ece", report.ece), ("brier", report.brier), ("kl_true", report.kl_true),
            ("n_pixels", table.n_pixels), ("n_bins", table.n_bins)]
    return _write_csv(path, METRICS_CSV_HEADER, rows)
