"""Large datasets in bounded memory, with the bytes of the one-shot forms.

The per-pixel kernels work a chunk at a time but reduce over the same full
array, `write_dataset` turns a stream's chunks into records one at a time,
`generate` and `evaluate` stream the dataset file a chunk at a time, and the
peaks are counted exactly by `tracemalloc`, which sees numpy's buffers.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from oracles import (
    brier_score_one_shot,
    dataset_bytes_one_shot,
    in_chunks,
    kl_to_true_one_shot,
    probabilities_one_shot,
)

from capeseg.calibration import (
    BUCKETS,
    KL_EPS,
    bin_assignment,
    brier_score,
    build_bins,
    evaluate_predictions,
    kl_to_true,
)
from capeseg.cli import main, storage
from capeseg.fieldgen import CHUNK_FIELDS, Dataset, FieldConfig, generate_chunks, generate_dataset
from capeseg.model import PROB_CLAMP, init_params, probabilities
from capeseg.numerics import CHUNK, Rng
from capeseg.pipeline import evaluate_arm

SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def predictions_at_the_clamps(rng: Rng, n: int) -> np.ndarray:
    """Probabilities in (0, 1), a fifth of them below KL_EPS and a fifth above 1 - KL_EPS."""
    preds = rng.uniform(n)
    preds[::5] = KL_EPS * rng.uniform(preds[::5].size)
    preds[1::5] = 1.0 - KL_EPS * rng.uniform(preds[1::5].size)
    return preds


def same_table(a, b) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(vars(a).values(), vars(b).values()))


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

    @pytest.mark.parametrize("n", SIZES)
    def test_file_dtypes_score_as_their_float64_widening(self, n):
        """uint8 outcomes and float32 true_p, as a dataset file holds them, against
        the same values widened to float64: every kernel keeps every byte."""
        rng = Rng(n)
        preds, outcomes = predictions_at_the_clamps(rng, n), rng.uniform(n) < 0.3
        outcomes, true_p = outcomes.astype(np.uint8), rng.uniform(n).astype(np.float32)
        true_p[::3], true_p[1::7] = 0.0, 1.0
        wide_outcomes, wide_p = outcomes.astype(np.float64), true_p.astype(np.float64)
        n_bins = min(n, 20)
        assignment = bin_assignment(preds, n_bins)
        tables = [build_bins(preds, o, assignment) for o in (outcomes, wide_outcomes)]
        assert same_table(*tables)
        assert same_bytes(brier_score(preds, outcomes), brier_score(preds, wide_outcomes))
        assert same_bytes(kl_to_true(preds, true_p), kl_to_true(preds, wide_p))
        narrow = evaluate_predictions(preds, outcomes, true_p, n_bins)
        wide = evaluate_predictions(preds, wide_outcomes, wide_p, n_bins)
        assert same_table(narrow.bin_table, wide.bin_table)
        scores = [[r.ece, r.brier, r.kl_true] for r in (narrow, wide)]
        assert same_bytes(*scores)


class TestDatasetChunks:
    @pytest.mark.parametrize("with_true_p", [True, False])
    @pytest.mark.parametrize("sizes", [(1,), (1, 1, 1), (3, 1, 7), (CHUNK_FIELDS, CHUNK_FIELDS, 5)])
    def test_uneven_chunks_keep_the_one_shot_bytes(self, tmp_path, with_true_p, sizes):
        """However a stream cuts the samples into chunks, the file is that of the
        records built as one array."""
        n = sum(sizes)
        dataset = random_dataset(Rng(n), n, 2, 8, 8, with_true_p)
        written = storage.write_dataset(tmp_path / "d.bin", in_chunks(dataset, sizes))
        data = (tmp_path / "d.bin").read_bytes()
        assert data == dataset_bytes_one_shot(dataset)
        assert written.sha256 == hashlib.sha256(data).hexdigest()

    def test_records_larger_than_a_chunk(self, tmp_path):
        dataset = random_dataset(Rng(2), 2, 1, 350, 350, True)
        assert storage._record_dtype(1, 350, 350, True).itemsize > storage.RECORD_CHUNK
        storage.write_dataset(tmp_path / "d.bin", in_chunks(dataset, (1, 1)))
        assert (tmp_path / "d.bin").read_bytes() == dataset_bytes_one_shot(dataset)

    def test_non_binary_outcomes_in_a_later_chunk_leave_no_file(self, tmp_path):
        dataset = random_dataset(Rng(3), 40, 1, 8, 8, True)
        dataset.outcomes[-1, 0, 0] = 0.5
        with pytest.raises(ValueError, match="strictly binary"):
            storage.write_dataset(tmp_path / "d.bin", in_chunks(dataset, (CHUNK_FIELDS, 5, 3)))
        assert list(tmp_path.iterdir()) == []


class TestMemoryBound:
    @pytest.fixture(scope="class")
    def dataset(self):
        return random_dataset(Rng(11), 200, 3, 32, 32, True)

    def test_evaluate_arm_holds_few_per_pixel_arrays(self, dataset):
        """On a shuffled split of all 200 samples, the predictions, the split's gathered
        outcomes and true_p and one scratch array at a time make four float64 arrays
        of the split's pixel count; one stack's conv scratch (about a third of one
        here) stays within the fifth."""
        params = init_params(3, 8, Rng(12))
        peak = traced_peak(evaluate_arm, params, dataset, Rng(13).permutation(len(dataset)), 20)
        assert peak <= 5 * 8 * dataset.outcomes.size

    @pytest.mark.parametrize("n_bins", [20, 400])
    @pytest.mark.parametrize("spread", ["uniform", "in_two_buckets"])
    def test_bin_assignment_holds_one_per_pixel_array_the_table_and_chunk_scratch(
        self, spread, n_bins
    ):
        """The sorted copy is let go before the assignment is made, and the bucket keys
        and the searched values are made a CHUNK at a time, even when every value is
        searched; whole-array keys would add 8 bytes a pixel."""
        n = 4 * CHUNK + 7
        preds = Rng(5).uniform(n)
        if spread == "in_two_buckets":
            preds = 0.3 + preds * (2 / BUCKETS)
        bin_assignment(preds, n_bins)  # the imports of a first call are not the binning's
        peak = traced_peak(bin_assignment, preds, n_bins)
        assert peak <= 8 * n + 8 * BUCKETS + 4 * 8 * CHUNK

    def test_write_dataset_holds_one_chunk_of_records(self, dataset, tmp_path):
        """Records are made a chunk at a time, and each chunk's are let go before
        the stream gives the next: one chunk's records, however long the stream."""
        sizes = [CHUNK_FIELDS] * (len(dataset) // CHUNK_FIELDS) + [len(dataset) % CHUNK_FIELDS]
        records = CHUNK_FIELDS * storage._record_dtype(*dataset.shape, True).itemsize
        peak = traced_peak(storage.write_dataset, tmp_path / "d.bin", in_chunks(dataset, sizes))
        assert (tmp_path / "d.bin").stat().st_size > 6 * records
        assert peak < records + 64 * 1024

    def test_write_dataset_lets_each_chunk_go_before_the_next_is_made(self, tmp_path):
        """Writing 200 generated samples of 3x32x32 peaks at what making one stack
        takes; keeping a chunk and its records while the next is made would add 1.9 MB."""
        config = FieldConfig(seed=3)
        generate_dataset(config, 1)  # the imports of a first call are not the writer's
        one_stack = traced_peak(next, iter(generate_chunks(config, CHUNK_FIELDS).chunks))
        peak = traced_peak(storage.write_dataset, tmp_path / "d.bin", generate_chunks(config, 200))
        assert peak <= one_stack + 64 * 1024

    def test_read_dataset_holds_the_dataset_and_about_two_chunks(self, dataset, tmp_path):
        """The dataset is held at the file's precision, in its records' bytes (3.5 MB
        here), where float64 arrays would take 8.2 MB."""
        storage.write_dataset(tmp_path / "d.bin", in_chunks(dataset))
        held = len(dataset) * storage._record_dtype(*dataset.shape, True).itemsize
        peak = traced_peak(storage.read_dataset, tmp_path / "d.bin")
        assert peak <= held + 2 * storage.RECORD_CHUNK

    @pytest.mark.parametrize("oracle", [False, True])
    def test_evaluate_peak_does_not_grow_with_the_channels(self, tmp_path, oracle):
        """400 samples of 32x32 at C = 3 and at C = 12. Whole float64 inputs would add
        9 * 8 bytes a pixel (28 MiB); a chunk at a time, only one stack's conv scratch grows."""
        data, ckpt, n, peaks = tmp_path / "d.bin", tmp_path / "m.ckpt", 400, []
        scored = ["--oracle"] if oracle else ["--checkpoint", str(ckpt)]
        for c in (3, 12):
            storage.write_dataset(data, in_chunks(random_dataset(Rng(c), n, c, 32, 32, True)))
            storage.write_checkpoint(ckpt, init_params(c, 8, Rng(1)))
            out = tmp_path / f"ev{c}"
            argv = ["evaluate", *scored, "--dataset", str(data), "--out", str(out)]
            peaks.append(traced_peak(main, argv))
            assert (out / "metrics.csv").exists()
        assert peaks[1] - peaks[0] < 9 * 8 * n * 32 * 32 / 8

    @pytest.mark.parametrize("oracle", [False, True])
    def test_evaluate_holds_outcomes_and_true_p_at_the_file_s_precision(self, tmp_path, oracle):
        """400 samples of 32x32. Per pixel, evaluate holds 1 byte of outcome and 4 of
        true_p (8 for the oracle, whose predictions they are) and, while it scores, one
        float64 scratch array and one boolean mask; 1 MiB covers a chunk's and a stack's
        scratch. A float64 outcomes array would add 7 bytes a pixel, a float64 true_p 4."""
        data, ckpt, n = tmp_path / "d.bin", tmp_path / "m.ckpt", 400
        storage.write_dataset(data, in_chunks(random_dataset(Rng(4), n, 3, 32, 32, True)))
        storage.write_checkpoint(ckpt, init_params(3, 8, Rng(1)))
        scored = ["--oracle"] if oracle else ["--checkpoint", str(ckpt)]
        argv = ["evaluate", *scored, "--dataset", str(data), "--out"]
        main([*argv, str(tmp_path / "first")])  # the imports of a first call are not its peak
        peak = traced_peak(main, [*argv, str(tmp_path / "ev")])
        assert peak <= n * 32 * 32 * (1 + (8 if oracle else 4) + 8 + 1) + 2**20

    def test_generate_dataset_holds_the_dataset_and_the_making_of_one_stack(self):
        """Each stack of CHUNK_FIELDS samples is copied into the dataset and let go
        before the next one is made: at 600 samples of 16x16 the peak is the dataset
        plus what making one stack takes, where keeping the last stack added ~0.3 MiB."""
        config = FieldConfig(height=16, width=16, length_scale=1.0, target_rate=0.3, seed=3)
        generate_dataset(config, 1)  # the imports of a first call are not the dataset's
        one_stack = traced_peak(next, iter(generate_chunks(config, CHUNK_FIELDS).chunks))
        held = 600 * (config.channels + 2) * 16 * 16 * 8
        assert traced_peak(generate_dataset, config, 600) <= held + one_stack + 64 * 1024

    def test_generate_peak_does_not_grow_with_the_samples(self, tmp_path):
        """Written a chunk at a time: only the per-sample event rates grow, 8 bytes a sample."""
        peaks = []
        for n in (64, 512):
            config = tmp_path / "gen.cfg"
            config.write_text(
                f"height = 16\nwidth = 16\nlength_scale = 2.0\ntarget_rate = 0.2\n"
                f"n_samples = {n}\nseed = 3\n",
                encoding="utf-8",
            )
            out = tmp_path / f"gen{n}"
            argv = ["generate", "--config", str(config), "--out", str(out)]
            peaks.append(traced_peak(main, argv))
            assert (out / "dataset.bin").exists()
        assert peaks[1] - peaks[0] < 64 * 1024
