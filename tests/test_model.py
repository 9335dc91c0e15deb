import numpy as np
import pytest
from oracles import conv2d_reference, finite_diff_check, model_loss_fn, params_with_relu_margin

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
from capeseg.numerics import NumericError, Rng


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
        logits, _ = forward(params, Rng(1).normal((3, 5, 5)))
        assert not logits.any()
        assert np.allclose(probabilities(logits), 0.5)

    def test_saturated_bias(self):
        params = ModelParams(1, 2)
        params.conv2_b[0] = 20.0
        logits, _ = forward(params, np.zeros((1, 4, 4)))
        assert np.max(np.abs(probabilities(logits) - 1.0)) < 1e-8

    def test_matches_reference_implementation(self):
        rng = Rng(21)
        params = init_params(2, 3, rng)
        inp = rng.normal((2, 5, 5))
        logits, _ = forward(params, inp)
        assert np.max(np.abs(probabilities(logits) - forward_reference(params, inp))) < 1e-12

    def test_output_strictly_inside_unit_interval(self):
        rng = Rng(33)
        params = init_params(3, 8, rng)
        params.conv2_b[0] = 50.0  # push toward saturation
        probs = probabilities(forward(params, 10.0 * rng.normal((3, 8, 8)))[0])
        assert probs.min() > 0.0
        assert probs.max() < 1.0

    def test_channel_mismatch_rejected(self):
        params = init_params(3, 4, Rng(0))
        with pytest.raises(ValueError, match="channels"):
            forward(params, np.zeros((2, 4, 4)))

    @pytest.mark.parametrize("block", list(block_shapes(2, 3)))
    def test_non_finite_parameter_rejected(self, block):
        params = init_params(2, 3, Rng(5))
        params.blocks[block].flat[-1] = np.nan
        with pytest.raises(NumericError, match="model parameters"):
            forward(params, Rng(6).normal((2, 4, 4)))

    def test_non_finite_input_rejected(self):
        inp = Rng(6).normal((2, 4, 4))
        inp[1, 2, 3] = np.inf
        with pytest.raises(NumericError, match="conv2d input"):
            forward(init_params(2, 3, Rng(5)), inp)

    def test_translation_equivariance_interior(self):
        rng = Rng(8)
        params = init_params(3, 6, rng)
        inp = rng.normal((3, 10, 10))
        shifted = np.zeros_like(inp)
        shifted[:, 1:, :] = inp[:, :-1, :]  # zero row enters, matching the zero pad
        base = predict(params, inp)
        moved = predict(params, shifted)
        assert np.array_equal(moved[2:-2, 2:-2], base[1:-3, 2:-2])


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = Rng(5)
        params = init_params(3, 4, rng)
        logits, cache = forward(params, rng.normal((3, 4, 4)))
        grads = backward(params, cache, np.zeros_like(logits))
        assert not grads.flat.any()

    @pytest.mark.parametrize("case", range(5))
    def test_gradient_check_bce(self, case):
        params, inp = params_with_relu_margin(100 + case)
        y = (Rng(case).uniform(inp.shape[1:]) < 0.4).astype(float).ravel()
        err = finite_diff_check(model_loss_fn(params, inp, bce_loss, y), params.flat)
        assert err < 1e-5

    @pytest.mark.parametrize("case", range(5))
    def test_gradient_check_calibration_targets(self, case):
        params, inp = params_with_relu_margin(200 + case)
        targets = Rng(case).uniform(inp.shape[1] * inp.shape[2])
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
        y = (Rng(900).uniform(inp.shape[1:]) < 0.4).astype(float).ravel()
        assert 0 < y.sum() < y.size
        err = finite_diff_check(model_loss_fn(params, inp, bce_loss, y), params.flat)
        assert err < 1e-5

    def test_gradient_check_away_from_kink_margin(self):
        # Explicit margin variant: every pre-activation at least 1e-3 from 0.
        params, inp = params_with_relu_margin(777, margin=1e-3)
        y = (Rng(777).uniform(inp.shape[1:]) < 0.3).astype(float).ravel()
        err = finite_diff_check(model_loss_fn(params, inp, bce_loss, y), params.flat)
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

    def test_wrong_size_vector_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(2, 4, np.zeros(3))
