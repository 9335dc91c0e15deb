"""Large datasets in bounded memory, with the bytes of the one-shot forms.

The per-pixel kernels work a chunk at a time but reduce over the same full
array, `write_dataset` fills one buffer of records at a time, and the
peaks are counted exactly by `tracemalloc`, which sees numpy's buffers.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from oracles import (
    brier_score_one_shot,
    dataset_bytes_one_shot,
    kl_to_true_one_shot,
    probabilities_one_shot,
)

from capeseg.calibration import KL_EPS, brier_score, kl_to_true
from capeseg.cli import storage
from capeseg.fieldgen import Dataset
from capeseg.model import PROB_CLAMP, init_params, probabilities
from capeseg.numerics import CHUNK, Rng
from capeseg.pipeline import evaluate_arm

SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]
MIB = 1 << 20


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def predictions_at_the_clamps(rng: Rng, n: int) -> np.ndarray:
    """Probabilities in (0, 1), a fifth of them below KL_EPS and a fifth above 1 - KL_EPS."""
    preds = rng.uniform(n)
    preds[::5] = KL_EPS * rng.uniform(preds[::5].size)
    preds[1::5] = 1.0 - KL_EPS * rng.uniform(preds[1::5].size)
    return preds


def random_dataset(rng: Rng, n: int, c: int, h: int, w: int, with_true_p: bool) -> Dataset:
    true_p = rng.uniform((n, h, w)) if with_true_p else None
    outcomes = (rng.uniform((n, h, w)) < 0.14).astype(np.float64)
    return Dataset(inputs=rng.normal((n, c, h, w)), outcomes=outcomes, true_p=true_p)


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated while fn(*args) runs, beyond those live when it starts."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedKernelsKeepTheirBytes:
    @pytest.mark.parametrize("n", SIZES)
    def test_probabilities(self, n):
        logits = 40.0 * Rng(n).normal(n)  # most past the clamps at |logit| ~ 27.6
        logits[0], logits[-1] = -40.0, 40.0
        got = probabilities(logits)
        assert same_bytes(got, probabilities_one_shot(logits))
        assert got[-1] == 1.0 - PROB_CLAMP and (n == 1 or got[0] == PROB_CLAMP)

    def test_probabilities_keep_the_shape(self):
        logits = Rng(1).normal((3, CHUNK // 64 + 1, 64))
        assert same_bytes(probabilities(logits), probabilities_one_shot(logits))

    @pytest.mark.parametrize("n", SIZES)
    def test_kl_to_true_with_true_p_at_zero_and_one(self, n):
        rng = Rng(n)
        preds, true_p = predictions_at_the_clamps(rng, n), rng.uniform(n)
        true_p[::3], true_p[1::7] = 0.0, 1.0
        assert same_bytes(kl_to_true(preds, true_p), kl_to_true_one_shot(preds, true_p))

    @pytest.mark.parametrize("n", SIZES)
    def test_brier_score(self, n):
        rng = Rng(n)
        preds, outcomes = predictions_at_the_clamps(rng, n), (rng.uniform(n) < 0.3) * 1.0
        assert same_bytes(brier_score(preds, outcomes), brier_score_one_shot(preds, outcomes))


class TestDatasetChunks:
    @pytest.mark.parametrize("with_true_p", [True, False])
    @pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 3)])
    def test_sample_counts_around_the_record_chunk(self, tmp_path, with_true_p, chunks, extra):
        """chunks * (the samples in one chunk) + extra samples."""
        itemsize = storage._record_dtype(1, 8, 8, with_true_p).itemsize
        n = chunks * (storage.RECORD_CHUNK // itemsize) + extra
        dataset = random_dataset(Rng(n), n, 1, 8, 8, with_true_p)
        written = storage.write_dataset(tmp_path / "d.bin", dataset)
        data = (tmp_path / "d.bin").read_bytes()
        assert data == dataset_bytes_one_shot(dataset)
        assert written.sha256 == hashlib.sha256(data).hexdigest()

    def test_records_larger_than_a_chunk(self, tmp_path):
        dataset = random_dataset(Rng(2), 2, 1, 350, 350, True)
        assert storage._record_dtype(1, 350, 350, True).itemsize > storage.RECORD_CHUNK
        storage.write_dataset(tmp_path / "d.bin", dataset)
        assert (tmp_path / "d.bin").read_bytes() == dataset_bytes_one_shot(dataset)

    def test_non_binary_outcomes_in_a_later_chunk_leave_no_file(self, tmp_path):
        n = storage.RECORD_CHUNK // storage._record_dtype(1, 8, 8, True).itemsize + 1
        dataset = random_dataset(Rng(3), n, 1, 8, 8, True)
        dataset.outcomes[-1, 0, 0] = 0.5
        with pytest.raises(ValueError, match="strictly binary"):
            storage.write_dataset(tmp_path / "d.bin", dataset)
        assert not (tmp_path / "d.bin").exists()


class TestMemoryBound:
    @pytest.fixture(scope="class")
    def dataset(self):
        return random_dataset(Rng(11), 200, 3, 32, 32, True)

    def test_evaluate_arm_holds_few_per_pixel_arrays(self, dataset):
        """Predictions and one scratch array at a time, where the one-shot forms
        held about eight float64 arrays of the pixel count."""
        params = init_params(3, 8, Rng(12))
        peak = traced_peak(evaluate_arm, params, dataset, np.arange(len(dataset)), 20)
        assert peak <= 4 * 8 * dataset.outcomes.size

    def test_write_dataset_holds_one_chunk_of_records(self, dataset, tmp_path):
        peak = traced_peak(storage.write_dataset, tmp_path / "d.bin", dataset)
        assert (tmp_path / "d.bin").stat().st_size > storage.RECORD_CHUNK + MIB
        assert peak < storage.RECORD_CHUNK + MIB
