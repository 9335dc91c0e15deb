"""Property tests: every storage format reads back what was written, and a
binary reader accepts only files its writer could have written."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import in_chunks, read_epoch_csv, read_reliability_csv

from capeseg.calibration import BinTable
from capeseg.cli import storage
from capeseg.fieldgen import Dataset
from capeseg.model import ModelParams
from capeseg.pipeline import EpochRecord

# Bounded and derandomized: the same examples on every run, no example database.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
MUTATIONS = settings(PROPERTY, max_examples=300)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOAT32_RANGE = st.floats(-3e38, 3e38, allow_nan=False)


def roundtrip(write, read, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        write(path, value)
        return read(path)


@st.composite
def datasets(draw):
    n, c, h, w = (draw(st.integers(1, hi)) for hi in (4, 3, 5, 5))
    inputs = draw(arrays(np.float64, (n, c, h, w), elements=FLOAT32_RANGE))
    outcomes = draw(arrays(np.float64, (n, h, w), elements=st.sampled_from([0.0, 1.0])))
    true_p = draw(st.none() | arrays(np.float64, (n, h, w), elements=st.floats(0.0, 1.0)))
    return Dataset(inputs=inputs, outcomes=outcomes, true_p=true_p)


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """`data` with one byte bit-flipped, overwritten or inserted, or cut short at one byte."""
    kind = draw(st.sampled_from(["flip", "overwrite", "insert", "truncate"]))
    pos = draw(st.integers(0, len(data) - (kind != "insert")))  # insert may append
    byte = draw(st.integers(0, 255))
    out = bytearray(data)
    if kind == "flip":
        out[pos] ^= 1 << byte % 8
    elif kind == "overwrite":
        out[pos] = byte
    elif kind == "insert":
        out.insert(pos, byte)
    else:
        del out[pos:]
    return bytes(out)


def small_files():
    """A 2-channel, 1-filter checkpoint and a 2-sample 2x3 dataset, as written."""
    flat = (np.arange(ModelParams(2, 1).flat.size) - 14) / 8  # |x| in [1, 2): one bit from inf
    dataset = Dataset(
        inputs=((np.arange(24) - 10) / 4).reshape(2, 2, 2, 3),
        outcomes=np.arange(12).reshape(2, 2, 3) % 2 * 1.0,
        true_p=np.arange(12).reshape(2, 2, 3) / 11,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        storage.write_checkpoint(path, ModelParams(2, 1, flat))
        checkpoint = path.read_bytes()
        storage.write_dataset(path, in_chunks(dataset))
        return checkpoint, path.read_bytes()


CHECKPOINT_BYTES, DATASET_BYTES = small_files()


def as_f32(values):
    return values.astype(np.float32).astype(np.float64)


class TestStorageRoundTrips:
    @PROPERTY
    @given(datasets())
    def test_dataset_keeps_outcomes_and_float32_values(self, ds):
        back = roundtrip(storage.write_dataset, storage.read_dataset, in_chunks(ds))
        assert back.inputs.shape == ds.inputs.shape
        assert np.array_equal(back.inputs, as_f32(ds.inputs))
        assert np.array_equal(back.outcomes, ds.outcomes)
        assert back.has_true_p == ds.has_true_p
        if ds.has_true_p:
            assert np.array_equal(back.true_p, as_f32(ds.true_p))

    @PROPERTY
    @given(st.integers(1, 3), st.integers(1, 4), st.data())
    def test_checkpoint_is_exact(self, c, f, data):
        flat = data.draw(arrays(np.float64, ModelParams(c, f).flat.size, elements=FINITE))
        params = ModelParams(c, f, flat)
        back = roundtrip(storage.write_checkpoint, storage.read_checkpoint, params)
        assert (back.in_channels, back.hidden_channels) == (c, f)
        assert back.flat.tobytes() == params.flat.tobytes()

    @PROPERTY
    @given(st.lists(st.builds(
        EpochRecord,
        epoch=st.integers(1, 10_000),
        phase=st.sampled_from(["warmup", "cape"]),
        train_loss=FINITE,
        val_loss=FINITE,
        brier=FINITE,
        kl_true=st.none() | FINITE,
    ), max_size=8))
    def test_epoch_csv_is_exact_including_missing_kl(self, records):
        assert roundtrip(storage.write_epoch_csv, read_epoch_csv, records) == records

    @PROPERTY
    @given(st.integers(1, 8), st.data())
    def test_reliability_csv_floats_are_exact(self, n_bins, data):
        unit = arrays(np.float64, n_bins, elements=st.floats(0.0, 1.0))
        table = BinTable(
            edges=data.draw(arrays(np.float64, n_bins + 1, elements=st.floats(0.0, 1.0))),
            counts=data.draw(arrays(np.int64, n_bins, elements=st.integers(0, 2**40))),
            prob_pred=data.draw(unit),
            prob_true=data.draw(unit),
        )
        rows = roundtrip(storage.write_reliability_csv, read_reliability_csv, table)
        assert [r["bin"] for r in rows] == list(range(n_bins))
        assert [r["edge_lo"] for r in rows] == table.edges[:-1].tolist()
        assert [r["edge_hi"] for r in rows] == table.edges[1:].tolist()
        assert [r["count"] for r in rows] == table.counts.tolist()
        assert [r["prob_pred"] for r in rows] == table.prob_pred.tolist()
        assert [r["prob_true"] for r in rows] == table.prob_true.tolist()


class TestReadersAcceptOnlyWhatTheirWritersWrite:
    """A mutated file either fails with FormatError or reads as a value that
    the writer turns back into exactly those bytes; any other error fails."""

    @staticmethod
    def check(write, read, data: bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file"
            path.write_bytes(data)
            try:
                value = read(path)
            except storage.FormatError:
                return
            write(path, value)
            assert path.read_bytes() == data

    @MUTATIONS
    @given(mutated(CHECKPOINT_BYTES))
    def test_checkpoint(self, data):
        self.check(storage.write_checkpoint, storage.read_checkpoint, data)

    @MUTATIONS
    @given(mutated(DATASET_BYTES))
    def test_dataset(self, data):
        write = lambda path, ds: storage.write_dataset(path, in_chunks(ds))  # noqa: E731
        self.check(write, storage.read_dataset, data)
