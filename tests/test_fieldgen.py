import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    calibrate_offset_reference,
    generate_dataset_reference,
    sample_reference,
    smooth_field_reference,
    standardize_per_field,
)

from capeseg import fieldgen
from capeseg.fieldgen import (
    CALIBRATION_FIELDS,
    CHUNK_FIELDS,
    OFFSET_BINS,
    FieldConfig,
    _gaussian_kernel,
    _smooth_fields,
    calibrate_offset,
    generate_dataset,
    make_sample,
)
from capeseg.model import sigmoid
from capeseg.numerics import Rng


def gen_smooth_field(config, rng):
    """One standardized smooth Gaussian field, H x W, through the package's smoother."""
    kernel = _gaussian_kernel(config)
    return _smooth_fields(rng.normal((1, config.height, config.width)), kernel)[0]


def lag1_autocorr(field):
    """Mean horizontal/vertical lag-1 correlation (numeric oracle)."""
    x = field - field.mean()

    def corr(a, b):
        return float(np.mean(a * b) / np.sqrt(np.mean(a * a) * np.mean(b * b)))

    return 0.5 * (corr(x[:, :-1], x[:, 1:]) + corr(x[:-1, :], x[1:, :]))


class TestSmoothField:
    def test_exact_standardization(self):
        cfg = FieldConfig(target_rate=0.3, seed=1)
        g = gen_smooth_field(cfg, Rng(1))
        assert abs(g.mean()) < 1e-10
        assert abs(g.var() - 1.0) < 1e-10

    def test_tiny_length_scale_is_nearly_white(self):
        cfg = FieldConfig(height=64, width=64, length_scale=0.01, target_rate=0.3)
        acs = [lag1_autocorr(gen_smooth_field(cfg, Rng(s))) for s in range(5)]
        assert abs(np.mean(acs)) < 0.1

    def test_default_length_scale_is_correlated(self):
        cfg = FieldConfig(height=64, width=64, length_scale=4.0, target_rate=0.3)
        acs = [lag1_autocorr(gen_smooth_field(cfg, Rng(s))) for s in range(5)]
        assert np.mean(acs) > 0.5

    def test_oversized_kernel_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            cfg = FieldConfig(height=16, width=16, length_scale=4.0, target_rate=0.3)
            gen_smooth_field(cfg, Rng(0))

    def test_latent_field_zero_gain_limit(self):
        # gain -> 0 pushes every pixel to sigmoid(offset)
        cfg = FieldConfig(gain=1e-12, target_rate=0.3, seed=2)
        _, _, p = make_sample(cfg, Rng(2), offset=0.4)
        assert np.max(np.abs(p - sigmoid(np.array([0.4])))) < 1e-9

    def test_latent_field_clamped(self):
        cfg = FieldConfig(gain=50.0, target_rate=0.5, seed=3)
        _, _, p = make_sample(cfg, Rng(3), offset=0.0)
        assert p.min() >= 1e-6
        assert p.max() <= 1.0 - 1e-6


class TestCalibrateOffset:
    def test_symmetric_target_gives_zero_offset(self):
        cfg = FieldConfig(target_rate=0.5, seed=4)
        b = calibrate_offset(cfg, Rng(4))
        assert abs(b) < 0.05

    def test_unbracketable_rate_reported(self):
        # enormous gain saturates most pixels even at the lowest offset,
        # so a tiny target rate cannot be bracketed
        cfg = FieldConfig(gain=200.0, target_rate=0.001, seed=4)
        with pytest.raises(ValueError, match="bracket"):
            calibrate_offset(cfg, Rng(4))

    @pytest.mark.parametrize("rho,lo,hi", [(0.07, 0.065, 0.075), (0.46, 0.455, 0.465)])
    def test_measured_rate_within_band(self, rho, lo, hi):
        # ~1e6 pixels so binomial + field-to-field noise stays inside the band
        cfg = FieldConfig(height=64, width=64, target_rate=rho, seed=int(rho * 1000))
        ds = generate_dataset(cfg, 250)
        rate = float(ds.outcomes.mean())
        assert lo <= rate <= hi


@st.composite
def calibration_configs(draw):
    """Fields of 4 to 48 pixels a side, any length scale whose kernel fits them,
    gains 0.5 to 6 and target rates 0.002 to 0.998."""
    height, width = draw(st.integers(4, 48)), draw(st.integers(4, 48))
    reach = (min(height, width) - 1) // 2  # ceil(3 * length_scale) may not exceed it
    return FieldConfig(
        height=height, width=width, length_scale=draw(st.floats(0.05, (reach - 0.01) / 3)),
        gain=draw(st.floats(0.5, 6.0)), target_rate=draw(st.floats(0.002, 0.998)),
        seed=draw(st.integers(0, 2**32)),
    )


class TestBinnedBisection:
    """Most bisection steps are decided from the binned pool's bounds on its rate;
    the steps left take the full pass, and every decision is the full pass's."""

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(calibration_configs())
    @example(FieldConfig(gain=200.0, target_rate=0.001, seed=4))  # cannot be bracketed
    def test_offset_is_the_full_pass_bisections(self, cfg):
        try:
            expected = calibrate_offset_reference(cfg, Rng(cfg.seed).child(0))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                calibrate_offset(cfg, Rng(cfg.seed).child(0))
            assert str(got.value) == str(exc)
            return
        assert calibrate_offset(cfg, Rng(cfg.seed).child(0)) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_data1m_config_takes_at_most_two_full_passes(self, monkeypatch, seed):
        """The full pass feeds the pool to `sigmoid`; the bounds feed it the bin edges."""
        sizes, real_sigmoid = [], fieldgen.sigmoid

        def sigmoid(x, *args):
            sizes.append(x.size)
            return real_sigmoid(x, *args)

        monkeypatch.setattr(fieldgen, "sigmoid", sigmoid)
        cfg = FieldConfig(length_scale=4.0, gain=2.0, target_rate=0.14, obs_noise=1.0, seed=seed)
        calibrate_offset(cfg, Rng(seed).child(0))
        pool_values = sum(n for n in sizes if n != OFFSET_BINS + 1)
        assert 0 < pool_values <= 2 * CALIBRATION_FIELDS * 32 * 32


class TestMakeSample:
    def test_zero_noise_channels_equal_latent_field(self):
        cfg = FieldConfig(obs_noise=0.0, target_rate=0.3, seed=5)
        rng = Rng(5)
        g_expected = gen_smooth_field(cfg, Rng(5))
        inputs, _, _ = make_sample(cfg, rng, offset=-1.0)
        for c in range(cfg.channels):
            assert np.array_equal(inputs[c], g_expected)

    def test_outcome_mean_matches_latent_probability(self):
        cfg = FieldConfig(height=64, width=64, target_rate=0.3, seed=6)
        samples = [make_sample(cfg, Rng(6).child(1, i), offset=-0.9) for i in range(250)]
        p_mean = np.mean([true_p.mean() for _, _, true_p in samples])
        y_mean = np.mean([outcomes.mean() for _, outcomes, _ in samples])
        n_pix = 250 * 64 * 64  # ~1e6: binomial 3-sigma bound
        assert abs(y_mean - p_mean) <= 3.0 * np.sqrt(p_mean * (1 - p_mean) / n_pix)

    def test_degenerate_probability_forces_ones(self):
        cfg = FieldConfig(gain=1e-9, target_rate=0.5, seed=7)
        _, outcomes, true_p = make_sample(cfg, Rng(7), offset=30.0)  # p clamps to 1 - 1e-6
        assert true_p.max() == 1.0 - 1e-6
        assert outcomes.min() == 1.0

    def test_outcomes_strictly_binary(self):
        cfg = FieldConfig(target_rate=0.2, seed=8)
        _, outcomes, _ = make_sample(cfg, Rng(8), offset=-2.0)
        assert set(np.unique(outcomes)) <= {0.0, 1.0}

    def test_residuals_spatially_independent(self):
        cfg = FieldConfig(height=64, width=64, target_rate=0.3, seed=9)
        residual_corr = []
        for i in range(250):
            _, outcomes, true_p = make_sample(cfg, Rng(9).child(1, i), offset=-0.9)
            residual_corr.append(lag1_autocorr(outcomes - true_p))
        assert abs(np.mean(residual_corr)) < 0.02


class TestGenerateDataset:
    def test_same_seed_bit_identical(self):
        cfg = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.2, seed=10)
        a = generate_dataset(cfg, 5)
        b = generate_dataset(cfg, 5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.true_p, b.true_p)

    def test_different_seeds_differ(self):
        cfg_a = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.2, seed=1)
        cfg_b = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.2, seed=2)
        a = generate_dataset(cfg_a, 2)
        b = generate_dataset(cfg_b, 2)
        assert not np.array_equal(a.inputs[0], b.inputs[0])

    def test_zero_samples_rejected(self):
        cfg = FieldConfig(target_rate=0.2)
        with pytest.raises(ValueError, match="n_samples"):
            generate_dataset(cfg, 0)

    def test_default_scale_generation_speed(self):
        import time

        cfg = FieldConfig(target_rate=0.14, seed=12)
        start = time.monotonic()
        ds = generate_dataset(cfg, 1500)
        assert time.monotonic() - start < 30.0
        assert len(ds) == 1500

    def test_samples_share_shape_and_carry_true_p(self):
        cfg = FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.2, seed=11)
        ds = generate_dataset(cfg, 4)
        assert ds.shape == (3, 16, 16)
        assert ds.has_true_p
        assert ds.inputs.shape == (4, 3, 16, 16)
        assert ds.outcomes.shape == ds.true_p.shape == (4, 16, 16)
        assert 0.0 < ds.true_p.min() <= ds.true_p.max() < 1.0


class TestFieldConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_rate": 0.0},
            {"target_rate": 1.0},
            {"target_rate": 0.5, "length_scale": 0.0},
            {"target_rate": 0.5, "gain": -1.0},
            {"target_rate": 0.5, "obs_noise": -0.1},
            {"target_rate": 0.5, "height": 0},
            {"target_rate": 0.5, "seed": -1},
            {"target_rate": 0.5, "length_scale": 6.0},  # 37 taps on the 32x32 default field
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FieldConfig(**kwargs)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedMatchesPerSampleReference:
    """The chunked, stacked generator against the per-sample np.roll one, byte for byte."""

    @pytest.mark.parametrize(
        "n, kwargs",
        [
            (1, {}),
            (CHUNK_FIELDS - 1, {}),
            (CHUNK_FIELDS, {}),
            (CHUNK_FIELDS + 1, {}),
            (5, {"height": 17, "width": 13, "length_scale": 2.0}),  # kernel as wide as the field
            (5, {"channels": 1, "obs_noise": 0.0}),
            (5, {"height": 20, "width": 20, "length_scale": 0.5}),
            (5, {"height": 20, "width": 20, "length_scale": 3.0}),
        ],
    )
    def test_dataset_and_offset_are_byte_identical(self, n, kwargs):
        base = dict(height=12, width=12, channels=3, length_scale=1.5, target_rate=0.2, seed=31)
        cfg = FieldConfig(**{**base, **kwargs})
        expected, expected_offset = generate_dataset_reference(cfg, n)
        assert calibrate_offset(cfg, Rng(cfg.seed).child(0)) == expected_offset
        ds = generate_dataset(cfg, n)
        assert same_bytes(ds.inputs, expected.inputs)
        assert same_bytes(ds.outcomes, expected.outcomes)
        assert same_bytes(ds.true_p, expected.true_p)

    def test_single_field_and_sample_are_byte_identical(self):
        cfg = FieldConfig(height=17, width=13, length_scale=1.0, target_rate=0.3)
        assert same_bytes(gen_smooth_field(cfg, Rng(3)), smooth_field_reference(cfg, Rng(3)))
        got, expected = make_sample(cfg, Rng(4), -0.7), sample_reference(cfg, Rng(4), -0.7)
        assert all(same_bytes(a, b) for a, b in zip(got, expected))

    def test_default_config_offset_is_byte_identical(self):
        cfg = FieldConfig(target_rate=0.14, seed=11)
        assert calibrate_offset(cfg, Rng(2)) == calibrate_offset_reference(cfg, Rng(2))

    @pytest.mark.parametrize("size, length_scale", [(32, 4.0), (16, 2.0)])
    @pytest.mark.parametrize("rate", [0.011, 0.3])
    def test_chunked_pool_rate_keeps_the_offset(self, size, length_scale, rate):
        """The pool rate filled a numerics.CHUNK at a time, then one mean over it all."""
        cfg = FieldConfig(height=size, width=size, length_scale=length_scale, target_rate=rate)
        assert calibrate_offset(cfg, Rng(5)) == calibrate_offset_reference(cfg, Rng(5))

    @pytest.mark.parametrize("shape", [(32, 16, 16), (7, 13, 29), (32, 64, 64), (1, 1, 2)])
    def test_stack_standardization_matches_the_per_field_loop(self, shape):
        """A one-tap kernel smooths nothing, which leaves the standardization alone."""
        for seed in range(4):
            fields = Rng(seed).normal(shape) * (1.0 + 50.0 * seed) + 10.0 * seed
            expected = standardize_per_field(fields.copy())
            assert same_bytes(_smooth_fields(fields, np.ones(1)), expected)

    def test_stack_standardization_rejects_a_constant_field(self):
        fields = Rng(0).normal((3, 8, 8))
        fields[1] = 0.25
        with pytest.raises(ValueError, match="degenerate constant field"):
            _smooth_fields(fields, np.ones(1))


class TestStackedErrorPaths:
    def test_oversized_kernel_fails_before_any_draw(self, monkeypatch):
        draws = []

        def recording(method):
            def draw(self, shape=None):
                draws.append(shape)
                return method(self, shape)

            return draw

        monkeypatch.setattr(Rng, "normal", recording(Rng.normal))
        monkeypatch.setattr(Rng, "uniform", recording(Rng.uniform))
        with pytest.raises(ValueError, match="exceeds"):
            generate_dataset(FieldConfig(height=16, width=16, length_scale=4.0, target_rate=0.3), 3)
        assert draws == []

    def test_constant_field_is_degenerate(self, monkeypatch):
        monkeypatch.setattr(Rng, "normal", lambda self, shape=None: np.full(shape, 0.5))
        cfg = FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.3)
        with pytest.raises(ValueError, match="degenerate"):
            generate_dataset(cfg, 3)
        with pytest.raises(ValueError, match="degenerate"):
            make_sample(cfg, Rng(0), offset=0.0)
