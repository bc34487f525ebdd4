"""Tests for the band-limited Gaussian noise generator and spectral helpers."""

import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import kljnsim
from kljnsim.noise import (
    BOLTZMANN,
    Stream,
    generate_unit_gbwn,
    johnson_rms,
    mix_seed,
    periodogram,
    stream,
)

# rms of Johnson noise across 1 kOhm at T_eff = 9e15 K over a 100 kHz band,
# computed once from sqrt(4 k T R B) with k = 1.380649e-23.
JOHNSON_RMS_1K = 7.050061276329449


MODULES = ["kljnsim"] + [
    f"kljnsim.{name}" for name in ("attacks", "channel", "cli", "errors", "experiment", "noise")
]
# The sampled-trace wrappers that plain arrays replaced, the defense kind
# and spec that Notch and RaiseTemperature replaced, and the helpers only
# the tests called (now in tests/reference.py); none may come back.
DELETED = {
    "NoiseSpec", "SampledTrace", "Spectrum", "johnson_scale", "power_spectrum",
    "DefenseKind", "DefenseSpec", "wire_noise", "hf_band",
}
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports():
    """Every name the README's ``from kljnsim import`` lines import."""
    groups = re.findall(r"^from kljnsim import (\([^)]*\)|.*)$", README.read_text(), re.M)
    return {name for group in groups for name in re.findall(r"\w+", group)}


class TestPublicNames:
    def test_package_exports_exactly_the_readme_api(self):
        exported = kljnsim.__all__
        assert len(set(exported)) == len(exported)
        assert set(exported) == readme_imports() | {"ConfigurationError", "ShapeMismatchError"}

    @pytest.mark.parametrize("module_name", MODULES)
    def test_every_exported_name_resolves(self, module_name):
        module = importlib.import_module(module_name)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == []
        assert DELETED.isdisjoint(module.__all__)
        assert not any(hasattr(module, name) for name in DELETED)


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
        assert len(set(values)) == len(values) == 5

    def test_stream_is_sfc64_keyed_by_mix_seed(self):
        expected = np.random.Generator(np.random.SFC64(mix_seed(9, 2))).standard_normal(5)
        assert np.array_equal(stream(9, Stream.SECURE_WIRE).standard_normal(5), expected)


class TestUnitGbwn:
    RATE = 2.0e5  # the pinned grid: twice the 100 kHz noise bandwidth

    def test_deterministic_for_same_spec(self):
        assert np.array_equal(generate_unit_gbwn(4096, seed=9), generate_unit_gbwn(4096, seed=9))

    def test_different_seeds_differ(self):
        assert not np.array_equal(generate_unit_gbwn(4096, seed=9), generate_unit_gbwn(4096, seed=10))

    def test_moments_near_standard_normal(self):
        x = generate_unit_gbwn(1 << 20, seed=11)
        assert abs(x.mean()) < 5e-3
        assert abs(x.var() - 1.0) < 1e-2

    def test_excess_kurtosis_small(self):
        x = generate_unit_gbwn(1 << 20, seed=12)
        x = x - x.mean()
        kurt = np.mean(x**4) / np.mean(x**2) ** 2 - 3.0
        assert abs(kurt) < 0.05

    def test_no_power_above_noise_bandwidth(self):
        # At the pinned rate the represented band ends exactly at the noise
        # bandwidth, so every bin above it must be empty.
        n, f_b = 1 << 14, self.RATE / 2.0
        bins = periodogram(generate_unit_gbwn(n, seed=13))
        freqs = np.arange(bins.size) * self.RATE / n
        in_band = bins[freqs <= f_b].sum()
        out_band = bins[freqs > f_b].sum()
        assert out_band < 1e-3 * in_band

    def test_spectrum_flat_across_three_decades(self):
        n, f_b = 1 << 20, self.RATE / 2.0
        bins = periodogram(generate_unit_gbwn(n, seed=14))
        freqs = np.arange(bins.size) * self.RATE / n
        keep = (freqs >= f_b / 1000.0) & (freqs <= f_b)
        level = bins[keep].mean()
        for lo, hi in [(f_b / 1000.0, f_b / 100.0), (f_b / 100.0, f_b / 10.0), (f_b / 10.0, f_b)]:
            band = (freqs >= lo) & (freqs <= hi)
            assert abs(bins[band].mean() / level - 1.0) < 0.05

    def test_per_trace_power_fluctuates_naturally(self):
        # The gain is deterministic (ensemble normalization), so short traces
        # must keep the chi-square spread of their total power rather than
        # being standardized to exactly unit variance one by one.
        n = 200
        powers = np.array([np.mean(generate_unit_gbwn(n, seed=s) ** 2) for s in range(400)])
        assert abs(powers.mean() - 1.0) < 0.02
        expected_sd = math.sqrt(2.0 / n)
        assert 0.5 * expected_sd < powers.std() < 1.5 * expected_sd


class TestJohnsonScale:
    # Unit noise times johnson_rms is thermal noise at the Johnson level.
    def test_rms_matches_closed_form(self):
        scaled = johnson_rms(1.0e3, t_eff=9.0e15, bandwidth=1.0e5) * generate_unit_gbwn(
            1 << 20, seed=21
        )
        assert math.sqrt(np.mean(scaled**2)) == pytest.approx(JOHNSON_RMS_1K, rel=0.01)

    def test_frozen_value_matches_formula(self):
        formula = math.sqrt(4.0 * BOLTZMANN * 9.0e15 * 1.0e3 * 1.0e5)
        assert formula == pytest.approx(JOHNSON_RMS_1K, rel=1e-12)

    def test_resistance_scaling_is_sqrt(self):
        unit = generate_unit_gbwn(4096, seed=22)
        low = johnson_rms(1.0e3, t_eff=9.0e15, bandwidth=1.0e5) * unit
        high = johnson_rms(1.0e4, t_eff=9.0e15, bandwidth=1.0e5) * unit
        np.testing.assert_allclose(high, math.sqrt(10.0) * low, rtol=1e-12)
        # An array of resistors gives one level each.
        levels = johnson_rms(np.array([1.0e3, 1.0e4]), t_eff=9.0e15, bandwidth=1.0e5)
        np.testing.assert_allclose(levels, [JOHNSON_RMS_1K, math.sqrt(10.0) * JOHNSON_RMS_1K])

    def test_zero_temperature_gives_silence(self):
        scaled = johnson_rms(1.0e3, t_eff=0.0, bandwidth=1.0e5) * generate_unit_gbwn(4096, seed=23)
        assert np.all(scaled == 0.0)


class TestPeriodogram:
    def test_bin_aligned_cosine_lands_quarter_power(self):
        n = 1024
        rate = 1024.0
        times = np.arange(n) / rate
        cycles = 37
        bins = periodogram(np.cos(2.0 * np.pi * cycles * times))
        assert bins[cycles] == pytest.approx(0.25, abs=1e-12)
        others = np.delete(bins, cycles)
        assert np.all(others < 1e-20)

    def test_constant_goes_to_dc_bin(self):
        bins = periodogram(np.full(256, 3.0))
        assert bins[0] == pytest.approx(9.0, abs=1e-12)
        assert np.all(bins[1:] < 1e-20)

    def test_bin_width_and_band(self):
        # Bin m of N samples at rate R sits at m * R / N, up to R / 2.
        n, rate = 200, 2.0e5
        bins = periodogram(np.zeros(n))
        freqs = np.arange(bins.size) * rate / n
        assert bins.size == 101
        assert freqs[1] == pytest.approx(1.0e3)
        assert freqs[-1] == pytest.approx(1.0e5)

    def test_batches_along_the_last_axis(self):
        x = np.random.default_rng(5).standard_normal((3, 64))
        batch = periodogram(x)
        assert batch.shape == (3, 33)
        for row, bins in zip(x, batch):
            np.testing.assert_allclose(bins, periodogram(row), rtol=1e-14)

    @pytest.mark.parametrize("n,seed", [(256, 1), (257, 2), (1024, 3), (4097, 4)])
    def test_parseval_energy_accounting(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        bins = periodogram(x)
        weights = np.full(bins.size, 2.0)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        total = float(np.sum(weights * bins))
        assert total == pytest.approx(np.mean(x**2), rel=1e-10)
