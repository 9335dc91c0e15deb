import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    conv2d_backward_reference,
    conv2d_forward_reference,
    conv2d_reference,
    conv_backward,
    conv_forward,
    finite_diff_check,
    on_grid,
    sigmoid_reference,
)

from capeseg.numerics import (
    AdamState,
    NumericError,
    Rng,
    adam_step,
    conv2d_backward,
    conv2d_forward,
    derive_seed,
    sigmoid,
)


# 36.7: 1 + exp(-|x|) rounds to 1; 709.8: exp(|x|) would overflow; 745.2: exp(-|x|) underflows
# to 0; then 1e308, infinity, the smallest normal and two subnormals,
# each with both signs.
SIGMOID_EDGES = [0.0, 36.7, 709.8, 745.2, 1e308, np.inf, 5e-324, 2.2250738585072014e-308, 1e-310]
SIGMOID_EDGES += [-v for v in SIGMOID_EDGES]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSigmoidMatchesMaskedReference:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(st.sampled_from(SIGMOID_EDGES), st.floats(allow_nan=False)),
                    min_size=1, max_size=64))
    def test_bitwise_and_input_untouched(self, values):
        x = np.array(values)
        before = x.copy()
        got = sigmoid(x)
        assert same_bits(got, sigmoid_reference(x))
        assert same_bits(sigmoid(x, np.exp(-np.abs(x))), got)  # a caller's exp(-|x|), as bce_loss
        assert same_bits(x, before)

    def test_edge_values_bitwise(self):
        x = np.array(SIGMOID_EDGES)
        assert same_bits(sigmoid(x), sigmoid_reference(x))
        assert sigmoid(np.array([np.inf, -np.inf])).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("value", [-745.2, -0.0, 0.0, 3.5])
    def test_zero_dimensional_input(self, value):
        x = np.array(value)
        got = sigmoid(x)
        assert got.shape == () and same_bits(got, sigmoid_reference(x))
        assert same_bits(x, np.array(value))


class TestConv2d:
    def test_identity_kernel(self):
        inp = np.arange(9.0).reshape(1, 3, 3)
        out, _ = conv_forward(inp, np.ones((1, 1, 1, 1)), np.zeros(1))
        assert np.array_equal(out, inp)

    def test_zero_input_gives_bias(self):
        rng = Rng(0)
        kernels = rng.normal((4, 2, 3, 3))
        bias = np.array([1.0, -2.0, 0.5, 3.0])
        out, _ = conv_forward(np.zeros((2, 5, 5)), kernels, bias)
        for fi in range(4):
            assert np.allclose(out[fi], bias[fi])

    def test_matches_loop_reference(self):
        rng = Rng(42)
        inp = rng.normal((2, 4, 4))
        kernels = rng.normal((3, 2, 3, 3))
        bias = rng.normal((3,))
        out, _ = conv_forward(inp, kernels, bias)
        ref = conv2d_reference(inp, kernels, bias)
        assert np.max(np.abs(out - ref)) < 1e-12

    @pytest.mark.parametrize("case", range(10))
    def test_matches_loop_reference_random_shapes(self, case):
        rng = Rng(1000 + case)
        c = 1 + case % 3
        f = 1 + (case * 7) % 4
        k = 3 if case % 2 else 1
        h, w = 2 + case % 4, 3 + case % 3
        inp = rng.normal((c, h, w))
        kernels = rng.normal((f, c, k, k))
        bias = rng.normal((f,))
        out, _ = conv_forward(inp, kernels, bias)
        assert np.max(np.abs(out - conv2d_reference(inp, kernels, bias))) < 1e-12

    def test_linearity(self):
        rng = Rng(9)
        kernels = rng.normal((2, 3, 3, 3))
        bias = np.zeros(2)
        x = rng.normal((3, 6, 6))
        y = rng.normal((3, 6, 6))
        a, b = 1.7, -0.3
        mixed, _ = conv_forward(a * x + b * y, kernels, bias)
        ox, _ = conv_forward(x, kernels, bias)
        oy, _ = conv_forward(y, kernels, bias)
        assert np.max(np.abs(mixed - (a * ox + b * oy))) < 1e-12

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            conv_forward(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            conv_forward(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2)), np.zeros(1))


class TestConv2dBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = Rng(3)
        out, cache = conv_forward(rng.normal((2, 4, 4)), rng.normal((3, 2, 3, 3)), rng.normal((3,)))
        gi, gk, gb = conv_backward(cache, np.zeros_like(out))
        assert not gi.any() and not gk.any() and not gb.any()

    def test_1x1_kernel_grad_is_dot_product(self):
        rng = Rng(4)
        inp = rng.normal((1, 5, 5))
        out, cache = conv_forward(inp, np.full((1, 1, 1, 1), 2.0), np.zeros(1))
        upstream = rng.normal(out.shape)
        _, gk, gb = conv_backward(cache, upstream)
        assert np.isclose(gk[0, 0, 0, 0], np.sum(inp * upstream))
        assert np.isclose(gb[0], upstream.sum())

    @pytest.mark.parametrize("case", range(20))
    def test_matches_finite_differences(self, case):
        rng = Rng(500 + case)
        c = 1 + case % 2
        f = 1 + case % 3
        h, w = 3 + case % 2, 3
        inp = rng.normal((c, h, w))
        kernels = rng.normal((f, c, 3, 3))
        bias = rng.normal((f,))
        upstream = rng.normal((f, h, w))
        sizes = (inp.size, kernels.size, bias.size)

        def loss_fn(flat):
            xi = flat[: sizes[0]].reshape(inp.shape)
            ki = flat[sizes[0] : sizes[0] + sizes[1]].reshape(kernels.shape)
            bi = flat[sizes[0] + sizes[1] :].reshape(bias.shape)
            out, cache = conv_forward(xi, ki, bi)
            gi, gk, gb = conv_backward(cache, upstream)
            loss = float(np.sum(out * upstream))
            return loss, np.concatenate([gi.ravel(), gk.ravel(), gb.ravel()])

        flat0 = np.concatenate([inp.ravel(), kernels.ravel(), bias.ravel()])
        assert finite_diff_check(loss_fn, flat0, h=1e-4) < 1e-5


def assert_conv_matches_reference(c, f, k, h, w):
    """Forward output and all three gradients against the per-offset `einsum`
    conv, each C-contiguous float64 and within 1e-12 relative."""
    rng = Rng(derive_seed(77, c, f, k, h, w))
    inp = rng.normal((c, h, w))
    kernels = rng.normal((f, c, k, k))
    bias = rng.normal((f,))
    upstream = rng.normal((f, h, w))
    out, cache = conv_forward(inp, kernels, bias)
    got = (out, *conv_backward(cache, upstream))
    want = (
        conv2d_forward_reference(inp, kernels, bias),
        *conv2d_backward_reference(inp, kernels, upstream),
    )
    names = ("output", "input gradient", "kernel gradient", "bias gradient")
    for name, g, r in zip(names, got, want):
        assert g.shape == r.shape, name
        assert g.dtype == np.float64 and g.flags.c_contiguous, name
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r)), name


class TestConv2dAgainstPerOffsetReference:
    """Both forward forms (input shifts for C <= F, weighed-tap shifts for
    C > F), the kernel gradient and the gather-form input gradient against
    the per-offset `einsum` convolution and its scattered backward."""

    @pytest.mark.parametrize(
        "c, f, k, h, w",
        [
            (1, 1, 1, 4, 5),
            (3, 2, 1, 5, 4),
            (1, 1, 3, 6, 4),
            (3, 4, 3, 5, 7),
            (2, 1, 3, 7, 3),
            (1, 3, 3, 4, 6),
            (2, 3, 5, 6, 9),
            (2, 3, 5, 2, 3),  # field smaller than the kernel
            (3, 2, 5, 3, 1),
            (3, 8, 3, 32, 32),  # conv1 of the workloads
            (8, 1, 3, 32, 32),  # conv2 of the workloads
            (8, 1, 3, 16, 16),
            (4, 4, 3, 5, 6),  # C == F > 1: input shifts
            (2, 3, 5, 1, 1),  # 1x1 field, k=5, C < F
            (3, 2, 5, 1, 1),  # 1x1 field, k=5, C > F
        ],
    )
    def test_all_outputs_agree(self, c, f, k, h, w):
        assert_conv_matches_reference(c, f, k, h, w)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 9), st.integers(1, 9), st.sampled_from([1, 3, 5]),
        st.integers(1, 12), st.integers(1, 12),
    )
    def test_any_shape_agrees(self, c, f, k, h, w):
        assert_conv_matches_reference(c, f, k, h, w)


class TestConv2dBackwardWithoutInputGradient:
    """`input_grad=False` (conv1, whose input is data) returns None for the
    input gradient and takes the kernel gradient from the input shifts
    instead of the upstream ones, for any C and F. Its inputs stay unwritten."""

    @pytest.mark.parametrize(
        "c, f, k, h, w",
        [
            (3, 8, 3, 32, 32),  # conv1 of the workloads
            (8, 1, 3, 32, 32),  # conv2 of the workloads
            (4, 4, 3, 5, 6),  # C == F
            (2, 3, 5, 1, 1),  # 1x1 field, C < F
            (3, 2, 5, 1, 1),  # 1x1 field, C > F
            (1, 1, 1, 1, 1),
        ],
    )
    def test_kernel_and_bias_gradients_match_reference(self, c, f, k, h, w):
        self.check(c, f, k, h, w)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 9), st.integers(1, 9), st.sampled_from([1, 3, 5]),
        st.integers(1, 12), st.integers(1, 12),
    )
    def test_any_shape_agrees(self, c, f, k, h, w):
        self.check(c, f, k, h, w)

    @staticmethod
    def check(c, f, k, h, w):
        rng = Rng(derive_seed(78, c, f, k, h, w))
        inp = rng.normal((c, h, w))
        kernels = rng.normal((f, c, k, k))
        upstream = rng.normal((f, h, w))
        _, cache = conv_forward(inp, kernels, rng.normal((f,)))
        grid = on_grid(upstream, k // 2)
        padded, up = cache.padded.copy(), grid.copy()
        gi, gk, gb = conv2d_backward(cache, grid, input_grad=False)
        assert gi is None
        _, want_k, want_b = conv2d_backward_reference(inp, kernels, upstream)
        for got, want in ((gk, want_k), (gb, want_b)):
            assert got.shape == want.shape and got.dtype == np.float64 and got.flags.c_contiguous
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert same_bits(cache.padded, padded) and same_bits(grid, up)


class TestConv2dOnThePaddedGrid:
    """Each conv takes its input on a `padded_grid` and returns its output, and the
    backward its input gradient, on a grid of the same rows and width, zero outside
    the interior, so the model hands one layer's grid to the next without a copy."""

    @pytest.mark.parametrize(
        "c, f, k, h, w", [(3, 8, 3, 12, 7), (8, 1, 3, 9, 5), (2, 3, 5, 4, 6), (3, 2, 1, 3, 2)]
    )
    def test_outputs_zero_outside_the_interior_and_inputs_unwritten(self, c, f, k, h, w):
        rng, p = Rng(derive_seed(79, c, f, k, h, w)), k // 2
        grid = on_grid(rng.normal((c, h, w)), p)
        kernels, bias = rng.normal((f, c, k, k)), rng.normal((f,))
        upstream = on_grid(rng.normal((f, h, w)), p)
        before = grid.copy(), upstream.copy()
        out, cache = conv2d_forward(grid, kernels, bias)
        gi, _, _ = conv2d_backward(cache, upstream)
        for got, channels in ((out, f), (gi, c)):
            assert got.shape == (channels, *grid.shape[1:]) and got.flags.c_contiguous
            border = np.ones(got.shape, bool)
            border[:, p : p + h, p : p + w] = False
            assert not got[border].any()
        assert same_bits(grid, before[0]) and same_bits(upstream, before[1])

    def test_an_array_too_small_to_be_a_grid_rejected(self):
        with pytest.raises(ValueError, match="padded grid"):
            conv2d_forward(np.zeros((1, 4, 4)), np.zeros((1, 1, 3, 3)), np.zeros(1))
        with pytest.raises(ValueError, match="padded grid"):
            conv2d_forward(np.zeros((1, 40, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))

    def test_upstream_off_the_output_grid_rejected(self):
        _, cache = conv_forward(np.zeros((2, 4, 4)), np.zeros((3, 2, 3, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="output grid"):
            conv2d_backward(cache, np.zeros((3, 4, 4)))


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState.init(3, lr=1e-4)
        new_params, new_state = adam_step(params, np.zeros(3), state)
        assert np.array_equal(new_params, params)
        assert new_state.t == 1

    def test_single_step_matches_hand_formula(self):
        # From zeroed moments with g = 0.1: m_hat = g, v_hat = g^2, so the
        # update is exactly -lr * g / (|g| + eps).
        params = np.array([0.5])
        g = np.array([0.1])
        state = AdamState.init(1, lr=1e-4)
        new_params, _ = adam_step(params, g, state)
        expected = 0.5 - 1e-4 * 0.1 / (0.1 + 1e-8)
        assert np.isclose(new_params[0], expected, rtol=0, atol=1e-15)
        assert np.isclose(new_params[0] - 0.5, -1e-4, rtol=1e-6)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        params = np.array([0.0])
        g = np.array([0.37])
        state = AdamState.init(1, lr=1e-4)
        prev = params
        for _ in range(50):
            params, state = adam_step(params, g, state)
            step = params - prev
            assert np.isclose(abs(step[0]), 1e-4, rtol=1e-6)
            prev = params

    def test_t_increments_once_per_step(self):
        state = AdamState.init(2)
        p = np.zeros(2)
        g = np.ones(2)
        for expected_t in (1, 2, 3):
            p, state = adam_step(p, g, state)
            assert state.t == expected_t

    def test_non_finite_gradient_rejected_with_label(self):
        state = AdamState.init(2)
        with pytest.raises(NumericError, match="hidden kernels"):
            adam_step(np.zeros(2), np.array([0.0, np.inf]), state, label="hidden kernels")


class TestFiniteDiffCheck:
    def test_quadratic_loss(self):
        def quad(p):
            return 0.5 * float(p @ p), p

        err = finite_diff_check(quad, np.array([1.0, -2.0, 3.0, 0.25]))
        assert err < 1e-9

    def test_detects_wrong_gradient(self):
        def broken(p):
            return 0.5 * float(p @ p), 2.0 * p

        err = finite_diff_check(broken, np.array([1.0, 2.0]))
        assert err > 0.1

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda p: (0.0, p), np.zeros(2), h=0.0)


class TestRng:
    def test_same_seed_bit_identical(self):
        a = Rng(123).normal(1000)
        b = Rng(123).normal(1000)
        assert np.array_equal(a, b)
        assert np.array_equal(Rng(5).uniform(100), Rng(5).uniform(100))

    def test_children_are_deterministic_and_distinct(self):
        a = Rng(7).child(1, 2).normal(100)
        b = Rng(7).child(1, 2).normal(100)
        c = Rng(7).child(1, 3).normal(100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_normal_moments(self):
        draws = Rng(2024).normal(1_000_000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.01

    def test_uniform_range(self):
        draws = Rng(9).uniform(100_000)
        assert draws.min() >= 0.0
        assert draws.max() < 1.0
        assert abs(draws.mean() - 0.5) < 0.01

    def test_derive_seed_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
