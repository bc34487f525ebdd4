"""Tests for the threshold-crossing and spectral eavesdropping protocols."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from kljnsim import (
    AttackConfig,
    AttackMode,
    ConfigurationError,
    KljnConfig,
    PeriodicSource,
    ResistorPair,
    simulate_session,
)
from kljnsim.attacks import (
    HfPreparation,
    UNDETERMINED,
    default_band,
    hf_ac_power,
    hf_decide,
    hf_prepare,
    lf_decide,
    lf_gamma,
    lf_threshold,
    resolve_band,
)
from kljnsim.channel import Situation, divider_ac, secure_mask
from kljnsim.noise import Stream, mix_seed, periodogram

from reference import hf_band

# Period-average of a unit cosine at 318.30 Hz over the first 1 ms clock
# period, frozen from adaptive quadrature (absolute error ~6e-18).
LF_MEAN_318_FIRST_PERIOD = 0.45467575885943146

PAIR = ResistorPair(r_low=1.0e3, r_high=1.0e4)


def make_config(**overrides):
    defaults = dict(
        resistors=PAIR,
        t_eff=9.0e15,
        f_b=1.0e5,
        f_c=500.0,
        source=PeriodicSource(amplitude=1.0, frequency=2000.0),
        seed=42,
        n_secure_bits=50,
    )
    defaults.update(overrides)
    return KljnConfig(**defaults)


class TestAttackConfig:
    def test_defaults(self):
        attack = AttackConfig(mode=AttackMode.LOW_FREQ)
        assert attack.kappa == 0.5
        assert attack.ensemble_size == 1000
        assert attack.band is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AttackConfig(mode=AttackMode.LOW_FREQ, kappa=0.0)
        with pytest.raises(ConfigurationError):
            AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=99)
        with pytest.raises(ConfigurationError):
            AttackConfig(mode=AttackMode.HIGH_FREQ, band=(2000.0, 500.0))
        with pytest.raises(ConfigurationError):
            AttackConfig(mode=AttackMode.HIGH_FREQ, band=(0.0, 500.0))


class TestLfThreshold:
    @pytest.mark.parametrize(
        "frequency,index,phase,kappa",
        [
            (318.30, 1, 0.0, 1.0),
            (318.30, 2, 0.0, 0.5),
            (318.30, 7, 1.1, 0.5),
            (101.32, 1, 0.0, 0.5),
            (32.25, 3, -0.7, 0.25),
            (16000.0, 5, 0.3, 0.5),
        ],
    )
    def test_matches_quadrature(self, frequency, index, phase, kappa):
        tau = 1.0e-3
        source = PeriodicSource(amplitude=2.0, frequency=frequency, phase=phase)

        def wave(t):
            return 2.0 * math.cos(2.0 * math.pi * frequency * t + phase)

        integral, quad_err = quad(wave, index * tau, (index + 1) * tau, limit=200)
        expected = kappa * integral / tau
        got = lf_threshold(source, index, tau, kappa)
        # The quadrature's own error estimate bounds how closely zero-mean
        # periods can be pinned down.
        assert got == pytest.approx(expected, rel=1e-9, abs=2.0 * kappa * quad_err / tau)

    def test_frozen_first_period_value(self):
        source = PeriodicSource(amplitude=1.0, frequency=318.30)
        assert lf_threshold(source, 0, 1.0e-3, 1.0) == pytest.approx(
            LF_MEAN_318_FIRST_PERIOD, rel=1e-12
        )
        assert lf_threshold(source, 0, 1.0e-3, 0.5) == pytest.approx(
            0.5 * LF_MEAN_318_FIRST_PERIOD, rel=1e-12
        )

    def test_zero_frequency_returns_dc_level(self):
        source = PeriodicSource(amplitude=3.0, frequency=0.0, phase=0.5)
        expected = 0.5 * 3.0 * math.cos(0.5)
        assert lf_threshold(source, 3, 1.0e-3, 0.5) == pytest.approx(expected, rel=1e-15)

    def test_integer_cycle_count_is_exactly_zero(self):
        # 2 kHz over a 2 ms period covers four full cycles; the period
        # average must vanish exactly so these periods are discarded.
        source = PeriodicSource(amplitude=1.0, frequency=2000.0)
        assert np.all(lf_threshold(source, np.arange(50), 2.0e-3, 0.5) == 0.0)


class TestLfGamma:
    def test_half_above(self):
        assert lf_gamma(np.array([0.2, -0.1, 0.5, 0.3]), 0.25) == pytest.approx(0.5)

    def test_all_above(self):
        assert lf_gamma(np.array([1.0, 2.0, 3.0]), 0.0) == pytest.approx(1.0)

    def test_none_above(self):
        assert lf_gamma(np.array([1.0, 2.0, 3.0]), 3.5) == pytest.approx(0.0)

    def test_comparison_is_strict(self):
        assert lf_gamma(np.array([0.25, 0.30]), 0.25) == pytest.approx(0.5)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        wire = rng.standard_normal(256)
        thresholds = np.sort(rng.standard_normal(32))
        # One row per threshold: the batched form must match each scalar call.
        gammas = lf_gamma(np.tile(wire, (32, 1)), thresholds)
        assert np.array_equal(gammas, [lf_gamma(wire, t) for t in thresholds])
        assert np.all(np.diff(gammas) <= 0)


class TestLfDecide:
    def test_four_quadrants(self):
        decision = lf_decide([0.3, 0.3, -0.3, -0.3], [0.8, 0.2, 0.2, 0.8])
        expected = [Situation.LH, Situation.HL, Situation.LH, Situation.HL]
        assert np.array_equal(decision.guess, expected)

    def test_undetermined_cases(self):
        assert lf_decide(0.0, 0.8).guess == UNDETERMINED
        assert lf_decide(0.3, 0.5).guess == UNDETERMINED

    def test_decision_carries_inputs(self):
        decision = lf_decide(0.3, 0.8)
        assert decision.threshold == 0.3
        assert decision.gamma == 0.8

    def test_sign_symmetry(self):
        rng = np.random.default_rng(6)
        threshold = rng.standard_normal(100)
        gamma = rng.uniform(size=100)
        keep = (threshold != 0.0) & (gamma != 0.5)
        threshold, gamma = threshold[keep], gamma[keep]
        assert np.array_equal(
            lf_decide(threshold, gamma).guess, lf_decide(-threshold, 1.0 - gamma).guess
        )


class TestDefaultBand:
    def test_centered_window(self):
        assert default_band(32000.0, 500.0, 1.0e5) == (29500.0, 34500.0)

    def test_clipped_at_low_edge(self):
        # The DC bin is never part of the window.
        assert default_band(2000.0, 500.0, 1.0e5) == (500.0, 4500.0)

    def test_clipped_at_noise_bandwidth(self):
        lo, hi = default_band(99000.0, 500.0, 1.0e5)
        assert lo == 96500.0
        assert hi == 1.0e5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            default_band(0.0, 500.0, 1.0e5)
        with pytest.raises(ConfigurationError):
            default_band(2000.0, 0.0, 1.0e5)


class TestHfPrepare:
    def test_zero_amplitude_gives_zero_threshold(self):
        config = make_config(source=PeriodicSource(amplitude=0.0, frequency=2000.0))
        prep = hf_prepare(config, AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=100))
        assert prep.ac_threshold == 0.0

    def test_threshold_scales_with_amplitude_squared(self):
        attack = AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=100)
        one = hf_prepare(make_config(), attack)
        two = hf_prepare(
            make_config(source=PeriodicSource(amplitude=2.0, frequency=2000.0)), attack
        )
        assert two.ac_threshold == pytest.approx(4.0 * one.ac_threshold, rel=1e-12)

    def test_threshold_is_midpoint_of_divider_band_powers(self):
        # Rebuild the two band-power means directly from the published loop
        # pieces; the rehearsed threshold must sit exactly between them and
        # their ratio must equal the squared divider ratio, 100.
        config = make_config()
        attack = AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=120)
        prep = hf_prepare(config, attack)

        spb = config.samples_per_bit
        freqs = np.arange(spb // 2 + 1) * (config.sample_rate / spb)
        lo, hi = default_band(config.source.frequency, freqs[1], config.f_b)
        mask = (freqs >= lo) & (freqs <= hi)
        mask[0] = False
        lh_means = []
        hl_means = []
        for m in range(attack.ensemble_size):
            times = (m * spb + np.arange(spb)) / config.sample_rate
            source = np.cos(2.0 * math.pi * config.source.frequency * times)
            lh = periodogram(divider_ac(1.0e3, 1.0e4, source))
            hl = periodogram(divider_ac(1.0e4, 1.0e3, source))
            lh_means.append(np.mean(lh[mask]))
            hl_means.append(np.mean(hl[mask]))
        lh_mean = float(np.mean(lh_means))
        hl_mean = float(np.mean(hl_means))
        assert lh_mean / hl_mean == pytest.approx(100.0, rel=1e-9)
        assert prep.ac_threshold == pytest.approx(0.5 * (lh_mean + hl_mean), rel=1e-12)

    def test_background_matches_johnson_level(self):
        # Each noise bin carries sigma^2/N on average, sigma^2 from the
        # parallel resistance.
        config = make_config(t_eff=9.0e15)
        attack = AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=1000)
        prep = hf_prepare(config, attack)
        spb = config.samples_per_bit
        freqs = np.arange(spb // 2 + 1) * (config.sample_rate / spb)
        lo, hi = default_band(config.source.frequency, freqs[1], config.f_b)
        mask = (freqs >= lo) & (freqs <= hi)
        mask[0] = False
        # The background holds the band bins only.
        assert np.array_equal(prep.mask, mask)
        assert prep.noise_background.shape == (np.count_nonzero(mask),)
        # The rehearsal is at unit temperature; noise power scales with t_eff.
        measured = config.t_eff * float(np.mean(prep.noise_background))
        parallel = 1.0e3 * 1.0e4 / 1.1e4
        sigma_sq = 4.0 * 1.380649e-23 * 9.0e15 * parallel * config.f_b
        assert measured == pytest.approx(sigma_sq / config.samples_per_bit, rel=0.05)

    def test_deterministic(self):
        attack = AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=100)
        a = hf_prepare(make_config(), attack)
        b = hf_prepare(make_config(), attack)
        assert a.ac_threshold == b.ac_threshold
        assert np.array_equal(a.noise_background, b.noise_background)

    def test_explicit_band_respected(self):
        attack = AttackConfig(
            mode=AttackMode.HIGH_FREQ, ensemble_size=100, band=(1000.0, 3000.0)
        )
        config = make_config()
        freqs = config.bin_frequencies
        prep = hf_prepare(config, attack)
        assert np.array_equal(prep.mask, (freqs >= 1000.0) & (freqs <= 3000.0))

    def test_band_beyond_noise_bandwidth_rejected(self):
        attack = AttackConfig(
            mode=AttackMode.HIGH_FREQ, ensemble_size=100, band=(1000.0, 2.0e5)
        )
        with pytest.raises(ConfigurationError):
            hf_prepare(make_config(), attack)


def silent_preparation(config, band, ac_threshold=0.0):
    """Preparation with a zero background, for noise-free checks."""
    mask = resolve_band(config, AttackConfig(mode=AttackMode.HIGH_FREQ, band=band))
    return HfPreparation(
        noise_background=np.zeros(np.count_nonzero(mask)),
        ac_threshold=ac_threshold,
        ensemble_size=100,
        mask=mask,
    )


def session_rows(session):
    """Situation codes and wire voltages of every period, as whole arrays."""
    chunks = list(session.chunks())
    return (
        np.concatenate([chunk.situations for chunk in chunks]),
        np.concatenate([chunk.wire_voltage for chunk in chunks]),
    )


class TestHfAcPower:
    def test_pure_tone_band_average(self):
        config = make_config()
        spb = config.samples_per_bit
        times = np.arange(spb) / config.sample_rate
        wire = divider_ac(1.0e3, 1.0e4, np.cos(2.0 * math.pi * config.source.frequency * times))
        band = default_band(2000.0, config.sample_rate / spb, config.f_b)
        prep = silent_preparation(config, band)
        n_bins = np.count_nonzero(
            (np.arange(spb // 2 + 1) * (config.sample_rate / spb) >= band[0])
            & (np.arange(spb // 2 + 1) * (config.sample_rate / spb) <= band[1])
        )
        expected = (10.0 / 11.0) ** 2 * 0.25 / n_bins
        assert hf_ac_power(hf_band(wire, prep), prep, 0.0) == pytest.approx(expected, rel=1e-12)
        # A batch of identical periods gives the same value on every row.
        batch = hf_ac_power(hf_band(np.tile(wire, (3, 1)), prep), prep, 0.0)
        np.testing.assert_allclose(batch, expected, rtol=1e-12)

    def test_zero_wire_gives_zero(self):
        config = make_config()
        prep = silent_preparation(config, (500.0, 4500.0))
        assert hf_ac_power(hf_band(np.zeros(config.samples_per_bit), prep), prep, 0.0) == 0.0

    def test_unbiased_on_pure_noise(self):
        # Background subtraction must center the statistic on zero when no
        # source is present.
        config = make_config(t_eff=9.0e15)
        attack = AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=400)
        prep = hf_prepare(
            make_config(source=PeriodicSource(amplitude=0.0, frequency=2000.0)), attack
        )
        situations, wire = session_rows(
            simulate_session(
                make_config(
                    source=PeriodicSource(amplitude=0.0, frequency=2000.0), n_secure_bits=300
                )
            )
        )
        values = hf_ac_power(hf_band(wire[secure_mask(situations)], prep), prep, config.t_eff)
        bin_level = config.t_eff * float(np.mean(prep.noise_background))
        n_bins = prep.noise_background.size
        tolerance = 6.0 * bin_level / math.sqrt(n_bins * len(values))
        assert abs(float(np.mean(values))) < tolerance


class TestHfDecide:
    def test_above_and_below(self):
        prep = silent_preparation(make_config(), (500.0, 4500.0), ac_threshold=1.0)
        assert np.array_equal(hf_decide([2.0, 0.5], prep), [Situation.LH, Situation.HL])

    def test_tie_is_undetermined(self):
        # On the midpoint, as lf_decide leaves a period on its boundary.
        config = make_config()
        for value in (0.125, -1.0, 0.0):
            prep = silent_preparation(config, (500.0, 4500.0), ac_threshold=value)
            assert hf_decide(value, prep) == UNDETERMINED
        # Equal powers of either zero sign tie alike.
        prep = silent_preparation(config, (500.0, 4500.0), ac_threshold=0.0)
        assert hf_decide([-0.0, 0.0], prep).tolist() == [UNDETERMINED, UNDETERMINED]

    def test_noise_free_attack_is_perfect(self):
        config = make_config(t_eff=0.0, n_secure_bits=40)
        attack = AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=100)
        prep = hf_prepare(config, attack)
        situations, wire = session_rows(simulate_session(config))
        secure = secure_mask(situations)
        guess = hf_decide(hf_ac_power(hf_band(wire[secure], prep), prep, config.t_eff), prep)
        assert np.array_equal(guess, situations[secure])


class TestSeedSeparation:
    def test_rehearsal_stream_disjoint_from_session(self):
        # The eavesdropper must not consume the victims' random numbers:
        # no two stream labels key the same generator.
        base = 42
        assert {label.value for label in Stream} == {1, 2, 3, 4, 6}
        tagged = {mix_seed(base, label) for label in Stream}
        assert len(tagged) == len(Stream) == 5
