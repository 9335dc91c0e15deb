import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    bce_loss_reference,
    bin_assignment_reference,
    build_bins_bruteforce,
    kl_to_true_reference,
)

from capeseg.calibration import (
    assign_p_emp,
    bce_loss,
    bin_assignment,
    brier_score,
    build_bins,
    combined_loss,
    ece,
    evaluate_predictions,
    kl_to_true,
)
from capeseg.numerics import NumericError, Rng


class TestBuildBins:
    def test_worked_example(self):
        preds = [0.1, 0.2, 0.3, 0.4]
        table = build_bins(preds, [0, 0, 1, 1], bin_assignment(preds, 2))
        assert table.counts.tolist() == [2, 2]
        assert np.allclose(table.prob_pred, [0.15, 0.35])
        assert np.allclose(table.prob_true, [0.0, 1.0])
        assert table.edges[0] == 0.0 and table.edges[-1] == 1.0
        assert np.isclose(table.edges[1], 0.2)

    def test_all_identical_predictions(self):
        preds = np.full(10, 0.3)
        outs = np.array([1, 0, 0, 0, 1, 0, 0, 0, 0, 1.0])
        table = build_bins(preds, outs, bin_assignment(preds, 3))
        assert table.counts.tolist() == [4, 3, 3]  # near-equal despite total ties
        assert np.allclose(table.prob_pred, 0.3)

    def test_matches_bruteforce_on_random_instances(self):
        rng = Rng(77)
        for case in range(50):
            n = 5 + int(rng.uniform() * 200)
            n_bins = 1 + int(rng.uniform() * min(10, n - 1))
            preds = 0.001 + 0.998 * rng.uniform(n)
            if case % 3 == 0:
                # heavy ties: quantize to few distinct values
                preds = np.round(preds * 4) / 4 + 0.1
                preds = np.clip(preds, 0.05, 0.95)
            outs = (rng.uniform(n) < 0.4).astype(float)
            table = build_bins(preds, outs, bin_assignment(preds, n_bins))
            counts, prob_pred, prob_true, edges = build_bins_bruteforce(
                preds.tolist(), outs.tolist(), n_bins
            )
            assert table.counts.tolist() == counts
            assert np.max(np.abs(table.prob_pred - prob_pred)) < 1e-12
            assert np.max(np.abs(table.prob_true - prob_true)) < 1e-12
            assert np.max(np.abs(table.edges - edges)) < 1e-12

    def test_bookkeeping_identities(self):
        rng = Rng(5)
        preds = 0.01 + 0.98 * rng.uniform(997)
        outs = (rng.uniform(997) < 0.3).astype(float)
        table = build_bins(preds, outs, bin_assignment(preds, 13))
        assert table.counts.sum() == 997
        mean_pred = float(table.counts @ table.prob_pred) / 997
        mean_out = float(table.counts @ table.prob_true) / 997
        assert abs(mean_pred - preds.mean()) < 1e-12
        assert abs(mean_out - outs.mean()) < 1e-12

    def test_near_equal_occupancy_without_ties(self):
        preds = Rng(3).uniform(103) * 0.9 + 0.05
        table = build_bins(preds, np.zeros(103), bin_assignment(preds, 20))
        assert table.counts.max() - table.counts.min() <= 1

    def test_too_few_predictions_rejected(self):
        with pytest.raises(ValueError, match="lower the bin count"):
            build_bins([0.5, 0.6], [0, 1], bin_assignment([0.5, 0.6], 3))

    def test_out_of_range_predictions_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            build_bins([0.0, 0.5], [0, 1], bin_assignment([0.0, 0.5], 1))


class TestAssignPEmp:
    def test_single_bin_gives_global_rate(self):
        preds = np.array([0.2, 0.4, 0.6, 0.8])
        outs = np.array([0, 1, 1, 1.0])
        table = build_bins(preds, outs, bin_assignment(preds, 1))
        targets = assign_p_emp(bin_assignment(preds, 1), table)
        assert np.allclose(targets, 0.75)

    def test_worked_example_targets(self):
        preds = np.array([0.1, 0.2, 0.3, 0.4])
        table = build_bins(preds, [0, 0, 1, 1], bin_assignment(preds, 2))
        targets = assign_p_emp(bin_assignment(preds, 2), table)
        assert targets.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_targets_are_frozen_copies(self):
        preds = np.array([0.1, 0.2, 0.3, 0.4])
        table = build_bins(preds, [0, 0, 1, 1], bin_assignment(preds, 2))
        targets = assign_p_emp(bin_assignment(preds, 2), table)
        targets[0] = 0.9
        assert table.prob_true[0] == 0.0

    def test_calibrated_predictor_concentration(self):
        # Perfectly calibrated predictions: most per-pixel targets fall
        # within 2/sqrt(N/B) of the prediction itself.
        rng = Rng(11)
        n, n_bins = 100_000, 50
        preds = 0.05 + 0.9 * rng.uniform(n)
        outs = (rng.uniform(n) < preds).astype(float)
        table = build_bins(preds, outs, bin_assignment(preds, n_bins))
        targets = assign_p_emp(bin_assignment(preds, n_bins), table)
        bound = 2.0 / math.sqrt(n / n_bins)
        frac_within = np.mean(np.abs(targets - preds) <= bound)
        assert frac_within >= 0.95


class TestMetrics:
    def test_ece_zero_when_calibrated(self):
        preds = np.array([0.2, 0.2, 0.8, 0.8])
        outs = np.array([0, 0, 1, 1.0])
        table = build_bins(preds, outs, bin_assignment(preds, 2))
        # prob_true = [0, 1] vs prob_pred = [0.2, 0.8] -> nonzero; use exact match
        table.prob_true = table.prob_pred.copy()
        assert ece(table) == 0.0

    def test_ece_worked_example(self):
        preds = [0.1, 0.2, 0.3, 0.4]
        table = build_bins(preds, [0, 0, 1, 1], bin_assignment(preds, 2))
        assert np.isclose(ece(table), 0.40)

    def test_ece_permutation_invariant(self):
        rng = Rng(4)
        preds = 0.01 + 0.98 * rng.uniform(500)
        outs = (rng.uniform(500) < 0.3).astype(float)
        perm = rng.permutation(500)
        a = ece(build_bins(preds, outs, bin_assignment(preds, 10)))
        b = ece(build_bins(preds[perm], outs[perm], bin_assignment(preds[perm], 10)))
        assert np.isclose(a, b, rtol=0, atol=1e-15)

    def test_oracle_predictor_small_ece(self):
        rng = Rng(100)
        n = 1_000_000
        preds = 0.02 + 0.96 * rng.uniform(n)
        outs = (rng.uniform(n) < preds).astype(float)
        report = evaluate_predictions(preds, outs, preds, 20)
        assert report.ece < 0.01
        assert report.kl_true == 0.0

    def test_brier_values(self):
        assert brier_score([0.2, 0.8], [0, 1]) == pytest.approx(0.04)
        outs = (Rng(1).uniform(100) < 0.5).astype(float)
        assert brier_score(np.full(100, 0.5), outs) == pytest.approx(0.25)
        assert brier_score([0.0, 1.0], [0, 1]) == 0.0

    def test_brier_oracle_matches_irreducible_term(self):
        rng = Rng(12)
        n = 1_000_000
        p = 0.05 + 0.9 * rng.uniform(n)
        y = (rng.uniform(n) < p).astype(float)
        assert abs(brier_score(p, y) - np.mean(p * (1 - p))) < 0.002

    def test_kl_zero_when_equal(self):
        p = Rng(2).uniform(1000) * 0.9 + 0.05
        assert kl_to_true(p, p) == 0.0

    def test_kl_worked_value(self):
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_to_true([0.25], [0.5]) == pytest.approx(expected, abs=1e-12)
        assert kl_to_true([0.25], [0.5]) == pytest.approx(0.14384, abs=1e-5)

    def test_kl_nonnegative_random(self):
        rng = Rng(6)
        for _ in range(100):
            n = 1 + int(rng.uniform() * 50)
            f = 0.01 + 0.98 * rng.uniform(n)
            p = 0.01 + 0.98 * rng.uniform(n)
            assert kl_to_true(f, p) >= 0.0

    def test_kl_handles_degenerate_true_p(self):
        assert kl_to_true([0.5], [1.0]) == pytest.approx(math.log(2.0))
        assert kl_to_true([0.5], [0.0]) == pytest.approx(math.log(2.0))

    def test_kl_missing_true_p_raises(self):
        with pytest.raises(ValueError, match="unavailable"):
            kl_to_true([0.5], None)


def logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p / (1.0 - p))


class TestLosses:
    def test_bce_half_is_ln2(self):
        for outs in ([0, 0, 0], [1, 1, 1], [0, 1, 0]):
            loss, _ = bce_loss(np.zeros(3), outs)
            assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bce_perfect_prediction_near_zero(self):
        loss, _ = bce_loss([-16.0, 16.0], [0, 1])  # p = 1.1e-7 and 1 - 1.1e-7
        assert loss < 1e-6

    def test_bce_gradient_matches_finite_differences(self):
        rng = Rng(8)
        logits = logit(0.05 + 0.9 * rng.uniform(24))
        outs = (rng.uniform(24) < 0.4).astype(float)
        _, grad = bce_loss(logits, outs)
        h = 1e-7
        for i in range(logits.size):
            up = logits.copy()
            up[i] += h
            down = logits.copy()
            down[i] -= h
            numeric = (bce_loss(up, outs)[0] - bce_loss(down, outs)[0]) / (2 * h)
            assert abs(grad[i] - numeric) / (abs(grad[i]) + abs(numeric)) < 1e-6

    def test_calibration_loss_with_binary_targets_equals_bce(self):
        # With p_emp equal to the outcomes the mixed target is the outcomes.
        rng = Rng(9)
        logits = logit(0.05 + 0.9 * rng.uniform(50))
        outs = (rng.uniform(50) < 0.5).astype(float)
        ld, gd = bce_loss(logits, outs)
        for w in (0.0, 0.3, 1.0):
            lc, gc = combined_loss(logits, outs, outs, w)
            assert abs(ld - lc) < 1e-12
            assert np.max(np.abs(gd - gc)) < 1e-12

    def test_calibration_loss_minimized_at_targets(self):
        targets = np.array([0.2, 0.5, 0.7])
        at_target, grad = bce_loss(logit(targets), targets)
        entropy = -np.mean(targets * np.log(targets) + (1 - targets) * np.log(1 - targets))
        assert at_target == pytest.approx(entropy, abs=1e-12)
        assert np.max(np.abs(grad)) < 1e-12
        nudged, _ = bce_loss(logit(targets + 0.05), targets)
        assert nudged > at_target

    def test_calibration_gradient_matches_finite_differences(self):
        rng = Rng(10)
        logits = logit(0.05 + 0.9 * rng.uniform(16))
        targets = rng.uniform(16)
        _, grad = bce_loss(logits, targets)
        h = 1e-7
        for i in range(logits.size):
            up = logits.copy()
            up[i] += h
            down = logits.copy()
            down[i] -= h
            numeric = (bce_loss(up, targets)[0] - bce_loss(down, targets)[0]) / (2 * h)
            assert abs(grad[i] - numeric) / (abs(grad[i]) + abs(numeric)) < 1e-6

    def test_gradient_is_exact_far_past_probability_rounding(self):
        # At |z| = 40 the probability rounds to 0 or 1; the loss and its
        # gradient still follow the logit exactly.
        loss, grad = bce_loss([-40.0, 40.0], [1.0, 0.0])
        assert loss == pytest.approx(40.0, rel=1e-15)
        assert grad.tolist() == [-0.5, 0.5]


class TestCombinedLoss:
    def setup_method(self):
        rng = Rng(13)
        self.logits = logit(0.05 + 0.9 * rng.uniform(40))
        self.outs = (rng.uniform(40) < 0.5).astype(float)
        self.targets = rng.uniform(40)

    def test_weight_zero_is_bce_bitwise(self):
        a = combined_loss(self.logits, self.outs, self.targets, 0.0)
        b = bce_loss(self.logits, self.outs)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_weight_one_is_calibration_bitwise(self):
        a = combined_loss(self.logits, self.outs, self.targets, 1.0)
        b = bce_loss(self.logits, self.targets)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_half_weight_on_worked_example(self):
        logits = logit([0.1, 0.2, 0.3, 0.4])
        outs = np.array([0, 0, 1, 1.0])
        targets = np.array([0, 0, 1, 1.0])
        ld, _ = bce_loss(logits, outs)
        lc, _ = bce_loss(logits, targets)
        both, _ = combined_loss(logits, outs, targets, 0.5)
        assert both == pytest.approx(0.5 * (ld + lc), abs=1e-15)
        soft = np.array([0.1, 0.3, 0.6, 0.9])
        lc, gc = bce_loss(logits, soft)
        both, grad = combined_loss(logits, outs, soft, 0.5)
        assert both == pytest.approx(0.5 * (ld + lc), abs=1e-12)
        assert np.allclose(grad, 0.5 * (bce_loss(logits, outs)[1] + gc), rtol=0, atol=1e-15)

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            combined_loss(self.logits, self.outs, self.targets, 1.5)


# Bounded and derandomized: the same examples on every run, no example database.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
LOGITS = st.floats(-1e3, 1e3, allow_nan=False)
UNIT = st.floats(0.0, 1.0)


def logits_and_targets(min_size=1):
    return st.integers(min_size, 40).flatmap(
        lambda n: st.tuples(
            st.lists(LOGITS, min_size=n, max_size=n), st.lists(UNIT, min_size=n, max_size=n)
        )
    )


class TestLossProperties:
    @PROPERTY
    @given(logits_and_targets())
    def test_gradient_is_sigmoid_minus_target_over_n(self, case):
        z, t = np.array(case[0]), np.array(case[1])
        _, grad = bce_loss(z, t)
        reference = (0.5 * (1.0 + np.tanh(0.5 * z)) - t) / z.size
        assert np.allclose(grad, reference, rtol=0, atol=1e-15)

    @PROPERTY
    @given(logits_and_targets())
    def test_loss_finite_and_nonnegative_up_to_large_logits(self, case):
        loss, grad = bce_loss(np.array(case[0]), np.array(case[1]))
        assert math.isfinite(loss) and loss >= 0.0
        assert np.isfinite(grad).all()

    @PROPERTY
    @given(logits_and_targets(), st.data())
    def test_endpoint_weights_are_bce_bitwise(self, case, data):
        z, p_emp = np.array(case[0]), np.array(case[1])
        y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=z.size,
                                        max_size=z.size)))
        for w, plain in ((0.0, y), (1.0, p_emp)):
            loss, grad = combined_loss(z, y, p_emp, w)
            ref_loss, ref_grad = bce_loss(z, plain)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)


class TestOneExpLossMatchesLogaddexpReference:
    """`bce_loss` takes log(1 + e^z) and the sigmoid from one exp(-|z|); the
    oracle pays for `logaddexp` beside the sigmoid. The gradient keeps its
    bits. The loss does not: `exp`/`log1p` and `logaddexp` round differently.
    On 1.1 M normal(0, 3) logits, max(z, 0) + log1p(exp(-|z|)) was within
    3 ulp of `logaddexp(0, z)`, and each loss term within 4 ulp of the
    larger of log(1 + e^z) and |t*z|."""

    @PROPERTY
    @given(logits_and_targets())
    def test_gradient_bitwise_and_terms_within_ulps(self, case):
        z, t = np.array(case[0]), np.array(case[1])
        assert np.array_equal(bce_loss(z, t)[1], bce_loss_reference(z, t)[1])
        scales = np.spacing(np.maximum(np.logaddexp(0.0, z), np.abs(t * z)))
        for zi, ti, scale in zip(z, t, scales):
            got, want = bce_loss([zi], [ti])[0], bce_loss_reference([zi], [ti])[0]
            assert abs(got - want) <= 4 * scale

    @pytest.mark.parametrize("z", [-800.0, -40.0, 40.0, 800.0])
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_large_logits_finite_without_warnings(self, z, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = bce_loss([z], [t])
            ref_loss, ref_grad = bce_loss_reference([z], [t])
        assert math.isfinite(loss) and np.isfinite(grad).all()
        assert loss == ref_loss and np.array_equal(grad, ref_grad)


class TestBinningProperties:
    @PROPERTY
    @given(st.lists(st.sampled_from([0.05, 0.3, 0.31, 0.7, 0.95]), min_size=1, max_size=120),
           st.data())
    def test_single_sort_matches_bruteforce_with_heavy_ties(self, preds, data):
        n = len(preds)
        n_bins = data.draw(st.integers(1, n))
        outs = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
        table = build_bins(preds, outs, bin_assignment(preds, n_bins))
        counts, prob_pred, prob_true, edges = build_bins_bruteforce(preds, outs, n_bins)
        assert table.counts.tolist() == counts
        assert np.max(np.abs(table.prob_pred - prob_pred)) < 1e-12
        assert np.max(np.abs(table.prob_true - prob_true)) < 1e-12
        assert table.edges.tolist() == edges


@st.composite
def ties_across_bin_starts(draw):
    """(predictions, B) whose sorted values hold one run of equal values across
    1..B-1 consecutive bin starts, in shuffled positions."""
    n_bins = draw(st.integers(2, 12))
    n = draw(st.integers(n_bins, 80))
    starts = [-(-k * n // n_bins) for k in range(1, n_bins)]  # ceil(k*N/B), k = 1..B-1
    crossed = draw(st.integers(1, n_bins - 1))
    first = draw(st.integers(0, n_bins - 1 - crossed))
    lo, hi = starts[first] - 1, starts[first + crossed - 1]
    values = np.sort(draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n)))
    values[lo : hi + 1] = values[lo]
    return values[draw(st.permutations(range(n)))], n_bins


class TestBinAssignmentMatchesStableSort:
    """The value-sort binning against the stable-argsort reference, index for index."""

    @staticmethod
    def check(preds, n_bins):
        got = bin_assignment(preds, n_bins)
        assert np.array_equal(got, bin_assignment_reference(preds, n_bins))

    @PROPERTY
    @given(ties_across_bin_starts())
    def test_ties_across_one_or_more_bin_starts(self, case):
        self.check(*case)

    @pytest.mark.parametrize("n, n_bins", [(7, 7), (20, 3), (64, 20), (200, 2)])
    def test_one_value_crosses_every_bin_start(self, n, n_bins):
        self.check(np.full(n, 0.3), n_bins)

    @PROPERTY
    @given(st.lists(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 0.2, 0.2, 0.7]),
                    min_size=1, max_size=60))
    def test_bin_count_equal_to_n_and_one_with_signed_zeros(self, preds):
        for n_bins in (1, len(preds)):
            self.check(preds, n_bins)

    @PROPERTY
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=120), st.data())
    def test_any_values_and_bin_count(self, preds, data):
        self.check(preds, data.draw(st.integers(1, len(preds))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_predictions_rejected(self, bad):
        with pytest.raises(NumericError, match="non-finite"):
            bin_assignment([0.2, bad, 0.7], 2)


def same_float_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestKlMatchesMaskedReference:
    @PROPERTY
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.lists(UNIT, min_size=n, max_size=n),
        st.lists(st.one_of(st.sampled_from([0.0, 1.0]), UNIT), min_size=n, max_size=n))))
    def test_true_p_at_exactly_zero_and_one(self, case):
        preds, true_p = case
        assert same_float_bits(kl_to_true(preds, true_p), kl_to_true_reference(preds, true_p))

    def test_large_set_bitwise(self):
        rng = Rng(8)
        preds, true_p = rng.uniform(100_003), rng.uniform(100_003)
        true_p[::7], true_p[::11] = 0.0, 1.0
        assert same_float_bits(kl_to_true(preds, true_p), kl_to_true_reference(preds, true_p))
