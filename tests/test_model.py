import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    conv2d_reference,
    finite_diff_check,
    model_loss_fn,
    params_with_relu_margin,
    sample_backward,
    sample_forward,
)

from capeseg.calibration import bce_loss
from capeseg.model import (
    ModelParams,
    backward,
    block_shapes,
    forward,
    init_params,
    predict,
    probabilities,
)
from capeseg.numerics import NumericError, Rng, derive_seed


def forward_reference(params, inp):
    """Straight-line reimplementation of the model formula (oracle)."""
    hidden = np.maximum(conv2d_reference(inp, params.conv1_w, params.conv1_b), 0.0)
    logits = conv2d_reference(hidden, params.conv2_w, params.conv2_b)[0]
    return 1.0 / (1.0 + np.exp(-logits))


class TestInit:
    def test_biases_zero(self):
        params = init_params(3, 8, Rng(0))
        assert not params.conv1_b.any()
        assert not params.conv2_b.any()

    def test_kernel_variance(self):
        # 32 * 4 * 9 = 1152 draws; sample variance within 20% of 2 / (C * 9)
        params = init_params(4, 32, Rng(7))
        target = 2.0 / (4 * 9)
        assert abs(params.conv1_w.var() - target) < 0.2 * target

    def test_same_seed_identical(self):
        a = init_params(3, 8, Rng(11))
        b = init_params(3, 8, Rng(11))
        assert np.array_equal(a.flat, b.flat)

    def test_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            init_params(0, 4, Rng(0))


class TestForward:
    def test_zero_params_give_half(self):
        params = ModelParams(3, 4)  # all zeros
        logits, _ = forward(params, Rng(1).normal((1, 3, 5, 5)))
        assert not logits.any()
        assert np.allclose(probabilities(logits), 0.5)

    def test_saturated_bias(self):
        params = ModelParams(1, 2)
        params.conv2_b[0] = 20.0
        logits, _ = forward(params, np.zeros((1, 1, 4, 4)))
        assert np.max(np.abs(probabilities(logits) - 1.0)) < 1e-8

    def test_matches_reference_implementation(self):
        rng = Rng(21)
        params = init_params(2, 3, rng)
        inp = rng.normal((2, 5, 5))
        logits, _ = forward(params, inp[None])
        assert np.max(np.abs(probabilities(logits[0]) - forward_reference(params, inp))) < 1e-12

    def test_output_strictly_inside_unit_interval(self):
        rng = Rng(33)
        params = init_params(3, 8, rng)
        params.conv2_b[0] = 50.0  # push toward saturation
        probs = probabilities(forward(params, 10.0 * rng.normal((1, 3, 8, 8)))[0])
        assert probs.min() > 0.0
        assert probs.max() < 1.0

    def test_channel_mismatch_rejected(self):
        params = init_params(3, 4, Rng(0))
        with pytest.raises(ValueError, match="channels"):
            forward(params, np.zeros((1, 2, 4, 4)))

    @pytest.mark.parametrize("block", list(block_shapes(2, 3)))
    def test_non_finite_parameter_rejected(self, block):
        params = init_params(2, 3, Rng(5))
        params.blocks[block].flat[-1] = np.nan
        with pytest.raises(NumericError, match="model parameters"):
            forward(params, Rng(6).normal((1, 2, 4, 4)))

    def test_translation_equivariance_interior(self):
        rng = Rng(8)
        params = init_params(3, 6, rng)
        inp = rng.normal((3, 10, 10))
        shifted = np.zeros_like(inp)
        shifted[:, 1:, :] = inp[:, :-1, :]  # zero row enters, matching the zero pad
        base = predict(params, inp[None])[0]
        moved = predict(params, shifted[None])[0]
        assert np.array_equal(moved[2:-2, 2:-2], base[1:-3, 2:-2])


def predict_middle(params, inp):
    """`predict` on `inp` as the middle sample of a chunk of three."""
    rng = Rng(2)
    return predict(params, np.stack([rng.normal(inp.shape), inp, rng.normal(inp.shape)]))[1]


ENTRY_POINTS = {
    "forward": lambda params, inp: forward(params, inp[None])[0],
    "predict": predict_middle,
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
class TestFiniteAtTheModelBoundary:
    """`forward` and `predict` check the params, the input and the logits once per
    call; the convs between them check nothing."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, entry, value):
        inp = Rng(6).normal((2, 4, 4))
        inp[1, 2, 3] = value
        with pytest.raises(NumericError, match="model input"):
            ENTRY_POINTS[entry](init_params(2, 3, Rng(5)), inp)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, entry, value):
        params = init_params(2, 3, Rng(5))
        params.conv2_w[0, 1, 2, 0] = value
        with pytest.raises(NumericError, match="model parameters"):
            ENTRY_POINTS[entry](params, Rng(6).normal((2, 4, 4)))

    def test_finite_params_overflowing_to_non_finite_logits_rejected(self, entry):
        params = ModelParams(2, 3)
        params.conv1_w[...] = params.conv2_w[...] = 1e300  # conv1 ~1e301, conv2 overflows
        with pytest.raises(NumericError, match="logits"):
            ENTRY_POINTS[entry](params, np.ones((2, 4, 4)))


class TestStackedPredict:
    """`predict` runs N samples as one tall image with zero gap rows; every logit
    keeps the bits of the per-sample oracle on its sample alone, and the inputs
    are unwritten."""

    @staticmethod
    def check(n, c, f, h, w):
        rng = Rng(derive_seed(61, n, c, f, h, w))
        params = init_params(c, f, rng)
        params.conv1_b[...] = rng.normal((f,))  # nonzero biases: the gap rows must be re-zeroed
        params.conv2_b[...] = rng.normal((1,))
        inputs = rng.normal((n, c, h, w))
        before = inputs.copy()
        got = predict(params, inputs)
        want = np.stack([sample_forward(params, x)[0] for x in inputs])
        assert got.shape == (n, h, w) and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert inputs.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 17])
    @pytest.mark.parametrize("h, w", [(16, 16), (32, 32), (1, 5), (4, 1), (1, 1)])
    @pytest.mark.parametrize("f", [1, 9])
    def test_bitwise_per_sample_forward(self, n, f, h, w):
        self.check(n, 3, f, h, w)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 20), st.integers(1, 4), st.integers(1, 9),
        st.integers(1, 12), st.integers(1, 12),
    )
    def test_any_shape_agrees(self, n, c, f, h, w):
        self.check(n, c, f, h, w)

    def test_per_sample_input_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            predict(init_params(3, 4, Rng(0)), np.zeros((3, 4, 4)))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = Rng(5)
        params = init_params(3, 4, rng)
        logits, cache = forward(params, rng.normal((2, 3, 4, 4)))
        grads = backward(params, cache, np.zeros_like(logits))
        assert grads.shape == params.flat.shape and not grads.any()

    @pytest.mark.parametrize("case", range(5))
    def test_gradient_check_bce(self, case):
        params, inp = params_with_relu_margin(100 + case)
        y = (Rng(case).uniform(inp[:, 0].shape) < 0.4).astype(float).ravel()
        err = finite_diff_check(model_loss_fn(params, inp, bce_loss, y), params.flat)
        assert err < 1e-5

    @pytest.mark.parametrize("case", range(5))
    def test_gradient_check_calibration_targets(self, case):
        params, inp = params_with_relu_margin(200 + case)
        targets = Rng(case).uniform(inp[:, 0].size)
        err = finite_diff_check(model_loss_fn(params, inp, bce_loss, targets), params.flat)
        assert err < 1e-5

    def test_gradient_check_beyond_old_probability_clamp(self):
        # Logits near -20 put every probability near 2e-9, far below the
        # 1e-7 floor the probability-space loss was once clamped at: there
        # the computed loss went flat while the gradient did not.
        params, inp = params_with_relu_margin(900)
        params.conv2_w[...] *= 0.1
        params.conv2_b[0] = -20.0
        logits, _ = forward(params, inp)
        assert probabilities(logits).max() < 1e-7
        y = (Rng(900).uniform(inp[:, 0].shape) < 0.4).astype(float).ravel()
        assert 0 < y.sum() < y.size
        err = finite_diff_check(model_loss_fn(params, inp, bce_loss, y), params.flat)
        assert err < 1e-5

    def test_gradient_check_away_from_kink_margin(self):
        # Explicit margin variant: every pre-activation at least 1e-3 from 0.
        params, inp = params_with_relu_margin(777, margin=1e-3)
        y = (Rng(777).uniform(inp[:, 0].shape) < 0.3).astype(float).ravel()
        err = finite_diff_check(model_loss_fn(params, inp, bce_loss, y), params.flat)
        assert err < 1e-5


class TestStackedTraining:
    """A stack's mean loss and flat gradient are the per-sample oracle's, each
    sample weighed by its share of the stack; the gap rows add nothing."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 17), st.integers(1, 4), st.integers(1, 9),
        st.integers(1, 12), st.integers(1, 12),
    )
    def test_share_weighted_sum_of_per_sample(self, n, c, f, h, w):
        self.check(n, c, f, h, w)

    @pytest.mark.parametrize(
        "n, c, f, h, w",
        [(8, 3, 8, 16, 16), (4, 3, 8, 32, 32), (3, 4, 2, 5, 6), (5, 3, 1, 1, 1), (17, 2, 3, 1, 4)],
    )
    def test_workload_and_edge_shapes(self, n, c, f, h, w):
        self.check(n, c, f, h, w)  # f < c keeps conv1's weighed-tap path

    @staticmethod
    def check(n, c, f, h, w):
        rng = Rng(derive_seed(62, n, c, f, h, w))
        params = init_params(c, f, rng)
        params.conv1_b[...] = rng.normal((f,))  # nonzero biases: the gap rows must be masked
        params.conv2_b[...] = rng.normal((1,))
        inputs = rng.normal((n, c, h, w))
        targets = rng.uniform((n, h, w))
        logits, cache = forward(params, inputs)
        loss, grad = bce_loss(logits, targets)
        got = backward(params, cache, grad.reshape(logits.shape))
        want_loss, want = 0.0, np.zeros_like(params.flat)
        for x, t in zip(inputs, targets):
            sample_logits, sample_cache = sample_forward(params, x)
            sample_loss, sample_grad = bce_loss(sample_logits, t)
            want_loss += sample_loss / n
            want += sample_backward(params, sample_cache, sample_grad.reshape(h, w) / n)
        assert got.shape == want.shape and got.dtype == np.float64
        assert abs(loss - want_loss) <= 1e-13 * abs(want_loss)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_gradient_check_through_a_stack(self):
        params, inputs = params_with_relu_margin(555, n=3)
        y = (Rng(555).uniform(inputs[:, 0].shape) < 0.4).astype(float).ravel()
        err = finite_diff_check(model_loss_fn(params, inputs, bce_loss, y), params.flat)
        assert err < 1e-5


class TestFlatVector:
    def test_flat_vector_roundtrip(self):
        params = init_params(3, 8, Rng(2))
        again = ModelParams(3, 8, params.flat.copy())
        assert np.array_equal(again.flat, params.flat)
        assert again.conv1_w.shape == params.conv1_w.shape

    def test_blocks_are_views_covering_vector(self):
        params = init_params(2, 4, Rng(3))
        covered = sum(block.size for block in params.blocks.values())
        assert covered == params.flat.size
        assert np.array_equal(params.flat[-1:], params.conv2_b)
        params.conv2_b[0] = 5.0
        assert params.flat[-1] == 5.0

    def test_pickle_keeps_the_blocks_views_of_flat(self):
        params = init_params(3, 8, Rng(4))
        data = pickle.dumps(params)
        again = pickle.loads(data)
        assert np.array_equal(again.flat, params.flat)
        again.conv1_w[0, 0, 0, 0] = 7.0
        assert again.flat[0] == 7.0
        assert len(data) < 2 * params.flat.nbytes  # the vector once, not once per block

    def test_wrong_size_vector_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(2, 4, np.zeros(3))
