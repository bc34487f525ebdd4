"""Tests for the band-limited Gaussian noise generator and spectral helpers."""

import math

import numpy as np
import pytest

from kljnsim import (
    BOLTZMANN,
    ConfigurationError,
    NoiseSpec,
    SampledTrace,
    generate_unit_gbwn,
    johnson_scale,
    mix_seed,
    periodogram,
)
from kljnsim.noise import Stream, stream

# rms of Johnson noise across 1 kOhm at T_eff = 9e15 K over a 100 kHz band,
# computed once from sqrt(4 k T R B) with k = 1.380649e-23.
JOHNSON_RMS_1K = 7.050061276329449


def make_spec(n=4096, rate=2.0e5, seed=1):
    return NoiseSpec(n_samples=n, sample_rate=rate, noise_bandwidth=rate / 2.0, seed=seed)


class TestSampledTrace:
    def test_basic_properties(self):
        trace = SampledTrace(samples=[1.0, -1.0, 1.0, -1.0], sample_rate=8.0)
        assert len(trace) == 4
        assert trace.duration == pytest.approx(0.5)
        assert trace.rms() == pytest.approx(1.0)

    def test_samples_are_read_only(self):
        trace = SampledTrace(samples=[0.0, 1.0], sample_rate=2.0)
        with pytest.raises(ValueError):
            trace.samples[0] = 5.0

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            SampledTrace(samples=[], sample_rate=1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            SampledTrace(samples=[0.0, math.nan], sample_rate=1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            SampledTrace(samples=[0.0], sample_rate=0.0)


class TestNoiseSpec:
    def test_rejects_rate_not_twice_bandwidth(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(n_samples=16, sample_rate=1.0e5, noise_bandwidth=1.0e5, seed=0)

    def test_rejects_tiny_length(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(n_samples=1, sample_rate=2.0, noise_bandwidth=1.0, seed=0)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(n_samples=16, sample_rate=2.0, noise_bandwidth=1.0, seed=-1)
        with pytest.raises(ConfigurationError):
            NoiseSpec(n_samples=16, sample_rate=2.0, noise_bandwidth=1.0, seed=1 << 64)


class TestMixSeed:
    # Frozen outputs of the splitmix64 chain.  The derivation is part of the
    # reproducibility contract: stored CSVs can only be regenerated if these
    # values never change.
    FROZEN = {
        (42, 0, 0): 0x57E1FABA65107204,
        (42, 0, 1): 0xFA4F945599F9054A,
        (42, 1, 0): 0xD8005CDD08A0D146,
        (0, 0): 0xE220A8397B1DCDAF,
        ((1 << 64) - 1, 3): 0x975835DE1C9756CE,
        (42, 2): 0xFB452912299A5453,
    }

    @staticmethod
    def reference(base, *parts):
        mask = (1 << 64) - 1
        z = base & mask
        for part in parts:
            z = (z + 0x9E3779B97F4A7C15 + (part & mask)) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
        return z

    def test_matches_frozen_values(self):
        for args, expected in self.FROZEN.items():
            assert mix_seed(*args) == expected

    def test_matches_reference_chain(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            base = int(rng.integers(0, 1 << 63))
            parts = tuple(int(v) for v in rng.integers(0, 1 << 20, size=3))
            assert mix_seed(base, *parts) == self.reference(base, *parts)

    def test_distinct_streams_diverge(self):
        seen = {mix_seed(42, tag, idx) for tag in range(4) for idx in range(64)}
        assert len(seen) == 4 * 64


class TestStreams:
    def test_labels_are_distinct(self):
        # A repeated value in an IntEnum is an alias: two consumers would
        # silently read one stream.
        values = [int(label) for label in Stream.__members__.values()]
        assert len(set(values)) == len(values) == 6

    def test_stream_is_sfc64_keyed_by_mix_seed(self):
        expected = np.random.Generator(np.random.SFC64(mix_seed(9, 2))).standard_normal(5)
        assert np.array_equal(stream(9, Stream.SECURE_WIRE).standard_normal(5), expected)


class TestUnitGbwn:
    def test_deterministic_for_same_spec(self):
        a = generate_unit_gbwn(make_spec(seed=9))
        b = generate_unit_gbwn(make_spec(seed=9))
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = generate_unit_gbwn(make_spec(seed=9))
        b = generate_unit_gbwn(make_spec(seed=10))
        assert not np.array_equal(a.samples, b.samples)

    def test_moments_near_standard_normal(self):
        trace = generate_unit_gbwn(make_spec(n=1 << 20, seed=11))
        x = trace.samples
        assert abs(x.mean()) < 5e-3
        assert abs(x.var() - 1.0) < 1e-2

    def test_excess_kurtosis_small(self):
        x = generate_unit_gbwn(make_spec(n=1 << 20, seed=12)).samples
        x = x - x.mean()
        kurt = np.mean(x**4) / np.mean(x**2) ** 2 - 3.0
        assert abs(kurt) < 0.05

    def test_no_power_above_noise_bandwidth(self):
        # At the pinned rate the represented band ends exactly at the noise
        # bandwidth, so every bin above it must be empty.
        spec = make_spec(n=1 << 14, seed=13)
        spectrum = periodogram(generate_unit_gbwn(spec))
        freqs = spectrum.frequencies()
        in_band = spectrum.bins[freqs <= spec.noise_bandwidth].sum()
        out_band = spectrum.bins[freqs > spec.noise_bandwidth].sum()
        assert out_band < 1e-3 * in_band

    def test_spectrum_flat_across_three_decades(self):
        spec = make_spec(n=1 << 20, seed=14)
        spectrum = periodogram(generate_unit_gbwn(spec))
        freqs = spectrum.frequencies()
        f_b = spec.noise_bandwidth
        keep = (freqs >= f_b / 1000.0) & (freqs <= f_b)
        level = spectrum.bins[keep].mean()
        for lo, hi in [(f_b / 1000.0, f_b / 100.0), (f_b / 100.0, f_b / 10.0), (f_b / 10.0, f_b)]:
            band = (freqs >= lo) & (freqs <= hi)
            assert abs(spectrum.bins[band].mean() / level - 1.0) < 0.05

    def test_per_trace_power_fluctuates_naturally(self):
        # The gain is deterministic (ensemble normalization), so short traces
        # must keep the chi-square spread of their total power rather than
        # being standardized to exactly unit variance one by one.
        n = 200
        powers = np.array(
            [np.mean(generate_unit_gbwn(make_spec(n=n, seed=s)).samples ** 2) for s in range(400)]
        )
        assert abs(powers.mean() - 1.0) < 0.02
        expected_sd = math.sqrt(2.0 / n)
        assert 0.5 * expected_sd < powers.std() < 1.5 * expected_sd

    def test_sample_rate_carried_through(self):
        trace = generate_unit_gbwn(make_spec(rate=2.0e5))
        assert trace.sample_rate == 2.0e5


class TestJohnsonScale:
    def test_rms_matches_closed_form(self):
        trace = generate_unit_gbwn(make_spec(n=1 << 20, seed=21))
        scaled = johnson_scale(trace, resistance=1.0e3, t_eff=9.0e15, bandwidth=1.0e5)
        assert scaled.rms() == pytest.approx(JOHNSON_RMS_1K, rel=0.01)

    def test_frozen_value_matches_formula(self):
        formula = math.sqrt(4.0 * BOLTZMANN * 9.0e15 * 1.0e3 * 1.0e5)
        assert formula == pytest.approx(JOHNSON_RMS_1K, rel=1e-12)

    def test_resistance_scaling_is_sqrt(self):
        trace = generate_unit_gbwn(make_spec(seed=22))
        low = johnson_scale(trace, resistance=1.0e3, t_eff=9.0e15, bandwidth=1.0e5)
        high = johnson_scale(trace, resistance=1.0e4, t_eff=9.0e15, bandwidth=1.0e5)
        np.testing.assert_allclose(high.samples, math.sqrt(10.0) * low.samples, rtol=1e-12)

    def test_zero_temperature_gives_silence(self):
        trace = generate_unit_gbwn(make_spec(seed=23))
        scaled = johnson_scale(trace, resistance=1.0e3, t_eff=0.0, bandwidth=1.0e5)
        assert np.all(scaled.samples == 0.0)

    def test_rejects_negative_parameters(self):
        trace = generate_unit_gbwn(make_spec(seed=24))
        with pytest.raises(ConfigurationError):
            johnson_scale(trace, resistance=-1.0, t_eff=300.0, bandwidth=1.0e5)
        with pytest.raises(ConfigurationError):
            johnson_scale(trace, resistance=1.0e3, t_eff=-1.0, bandwidth=1.0e5)
        with pytest.raises(ConfigurationError):
            johnson_scale(trace, resistance=1.0e3, t_eff=300.0, bandwidth=0.0)


class TestPeriodogram:
    def test_bin_aligned_cosine_lands_quarter_power(self):
        n = 1024
        rate = 1024.0
        times = np.arange(n) / rate
        cycles = 37
        trace = SampledTrace(samples=np.cos(2.0 * np.pi * cycles * times), sample_rate=rate)
        spectrum = periodogram(trace)
        assert spectrum.bins[cycles] == pytest.approx(0.25, abs=1e-12)
        others = np.delete(spectrum.bins, cycles)
        assert np.all(others < 1e-20)

    def test_constant_goes_to_dc_bin(self):
        trace = SampledTrace(samples=np.full(256, 3.0), sample_rate=256.0)
        spectrum = periodogram(trace)
        assert spectrum.bins[0] == pytest.approx(9.0, abs=1e-12)
        assert np.all(spectrum.bins[1:] < 1e-20)

    def test_bin_width_and_band(self):
        spectrum = periodogram(SampledTrace(samples=np.zeros(200), sample_rate=2.0e5))
        assert spectrum.bin_width == pytest.approx(1.0e3)
        assert spectrum.band == (0.0, 1.0e5)
        assert len(spectrum) == 101
        assert spectrum.frequencies()[-1] == pytest.approx(1.0e5)

    @pytest.mark.parametrize("n,seed", [(256, 1), (257, 2), (1024, 3), (4097, 4)])
    def test_parseval_energy_accounting(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        trace = SampledTrace(samples=x, sample_rate=float(n))
        spectrum = periodogram(trace)
        weights = np.full(len(spectrum), 2.0)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        total = float(np.sum(weights * spectrum.bins))
        assert total == pytest.approx(np.mean(x**2), rel=1e-10)
