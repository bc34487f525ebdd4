"""Tests for noise-level conversions, defenses, single points, and sweeps."""

import dataclasses
import io
import math

import numpy as np
import pytest

from kljnsim import (
    ConfigurationError,
    KljnConfig,
    Notch,
    PeriodicSource,
    RaiseTemperature,
    ResistorPair,
    SpectralAttack,
    ThresholdAttack,
    run_column,
    run_point,
    simulate_session,
    sweep,
    teff_of_ueff,
)
from kljnsim.attacks import (
    UNDETERMINED,
    hf_ac_power,
    hf_decide,
    hf_prepare,
    hf_source_band,
    lf_decide,
    lf_gamma,
    lf_threshold,
)
from kljnsim.channel import secure_mask
from kljnsim.experiment import (
    AttackOutcome,
    SWEEP_CSV_COLUMNS,
    notch_filter,
    u_eff_of_teff,
    write_sweep_csv,
)
import kljnsim.channel as channel
import kljnsim.experiment as experiment
from kljnsim.noise import (
    BOLTZMANN,
    Stream,
    generate_unit_gbwn,
    johnson_rms,
    mix_seed,
    periodogram,
    stream,
    unit_band_noise,
)

from reference import divider_ac, hf_band

# rms of the wire noise at T_eff = 9e15 K over a 100 kHz band with the
# 1 kOhm / 10 kOhm pair (909.09 ohm in parallel), frozen from
# sqrt(4 k T R_parallel B).
WIRE_RMS_9E15 = 6.7219696788691605

PAIR = ResistorPair(r_low=1.0e3, r_high=1.0e4)
# One attack of each protocol, with a small rehearsal, and their mode names.
ATTACKS = [ThresholdAttack(), SpectralAttack(ensemble_size=100)]
MODES = [attack.mode for attack in ATTACKS]


def make_config(**overrides):
    defaults = dict(
        resistors=PAIR,
        t_eff=9.0e15,
        f_b=1.0e5,
        f_c=1.0e3,
        source=PeriodicSource(amplitude=1.0, frequency=318.30),
        seed=42,
        n_secure_bits=200,
    )
    defaults.update(overrides)
    return KljnConfig(**defaults)


class TestNoiseLevelConversion:
    def test_frozen_value(self):
        assert u_eff_of_teff(9.0e15, PAIR, 1.0e5) == pytest.approx(WIRE_RMS_9E15, rel=1e-12)

    def test_formula(self):
        parallel = 1.0e3 * 1.0e4 / 1.1e4
        expected = math.sqrt(4.0 * BOLTZMANN * 9.0e15 * parallel * 1.0e5)
        assert u_eff_of_teff(9.0e15, PAIR, 1.0e5) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("u_eff", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_roundtrip(self, u_eff):
        t_eff = teff_of_ueff(u_eff, PAIR, 1.0e5)
        assert u_eff_of_teff(t_eff, PAIR, 1.0e5) == pytest.approx(u_eff, rel=1e-12)

    def test_rejects_negative(self):
        # teff_of_ueff is exported and checks its input; u_eff_of_teff is not.
        with pytest.raises(ConfigurationError):
            teff_of_ueff(-1.0, PAIR, 1.0e5)

    @pytest.mark.parametrize("f_b", [0.0, -1.0e5, math.nan, 1.0e-299])
    def test_rejects_a_denominator_that_is_not_positive(self, f_b):
        # At 1e-299 Hz, 4 k_B f_b r_low r_high / (r_low + r_high) underflows to 0.
        with pytest.raises(ConfigurationError, match="must be a positive float64"):
            teff_of_ueff(1.0, ResistorPair(1.0e-100, 1.0e-99), f_b)


def rms(samples):
    return math.sqrt(np.mean(np.square(samples)))


class TestNotchFilter:
    RATE = 2.0e5

    def tone(self, cycles, n=2000):
        times = np.arange(n) / self.RATE
        frequency = cycles * self.RATE / n
        return np.cos(2.0 * np.pi * frequency * times)

    def cut(self, n=2000):
        """The bins of a 500 Hz notch at 2 kHz, for periods of ``n`` samples at this rate."""
        config = make_config(f_c=self.RATE / n)
        assert config.sample_rate == self.RATE and config.samples_per_bit == n
        return Notch(500.0, notch_center=2000.0).bins(config)

    def test_kills_centered_tone(self):
        trace = self.tone(cycles=20)  # 2 kHz on this grid
        out = notch_filter(trace, self.cut())
        assert rms(out) < 1e-12

    def test_preserves_distant_tone(self):
        trace = self.tone(cycles=300)  # 30 kHz
        out = notch_filter(trace, self.cut())
        np.testing.assert_allclose(out, trace, atol=1e-12)
        # A batch of periods, one per row, is filtered row by row.
        batch = notch_filter(np.stack([trace, self.tone(cycles=20)]), self.cut())
        np.testing.assert_allclose(batch[0], trace, atol=1e-12)
        assert rms(batch[1]) < 1e-12

    def test_energy_bookkeeping_on_noise(self):
        n = 1 << 16
        trace = generate_unit_gbwn(n, seed=3)
        out = notch_filter(trace, self.cut(n))
        bins = periodogram(trace)
        freqs = np.arange(bins.size) * self.RATE / n
        weights = np.full(bins.size, 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        removed = (np.abs(freqs - 2000.0) <= 500.0)
        removed_power = float(np.sum((weights * bins)[removed]))
        in_ms = float(np.mean(trace**2))
        out_ms = float(np.mean(out**2))
        assert out_ms == pytest.approx(in_ms - removed_power, rel=1e-10)
        # A 1 kHz notch out of 100 kHz removes ~1% of the power.
        assert rms(out) / rms(trace) == pytest.approx(math.sqrt(0.99), rel=0.02)

    def test_rejects_center_outside_band(self):
        config = make_config()
        for center in (1.0e5, 1.5e5):
            with pytest.raises(ConfigurationError, match="notch center"):
                Notch(500.0, notch_center=center).bins(config)
        # A center that defaults to a source frequency of zero.
        silent = make_config(source=PeriodicSource(amplitude=1.0, frequency=0.0))
        with pytest.raises(ConfigurationError, match="notch center"):
            Notch(500.0).bins(silent)

    def test_rejects_a_notch_that_holds_no_bin(self):
        config = make_config()  # 200 samples per period: bins 1 kHz apart
        with pytest.raises(ConfigurationError, match="notch_halfwidth = 5 of 318.3"):
            Notch(5.0).bins(config)
        # Wide enough to reach DC, 318.3 Hz below the source frequency.
        assert np.flatnonzero(Notch(320.0).bins(config)).tolist() == [0]
        # The grid is m * f_s / N, the one the highfreq band is drawn on.
        assert np.array_equal(config.bin_frequencies, np.arange(101) * 1.0e3)


class TestAttackOutcome:
    def test_p_is_correct_over_guessed(self):
        outcome = AttackOutcome(make_config(n_secure_bits=10), "lowfreq", n_guessed=8, n_correct=6)
        assert outcome.p == pytest.approx(0.75)

    def test_empty_guess_set_scores_chance(self):
        outcome = AttackOutcome(make_config(n_secure_bits=10), "lowfreq", n_guessed=0, n_correct=0)
        assert outcome.p == 0.5

    def test_count_consistency_enforced(self):
        config = make_config(n_secure_bits=5)
        with pytest.raises(ConfigurationError):
            AttackOutcome(config, "lowfreq", n_guessed=6, n_correct=0)
        with pytest.raises(ConfigurationError):
            AttackOutcome(config, "lowfreq", n_guessed=3, n_correct=4)


class TestDefenseSpec:
    """``Notch`` and ``RaiseTemperature`` each check only their own fields."""

    def test_notch_requires_halfwidth(self):
        with pytest.raises(TypeError):
            Notch()
        for halfwidth in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="notch_halfwidth"):
                Notch(halfwidth)
        with pytest.raises(ConfigurationError, match="notch_center"):
            Notch(500.0, notch_center=0.0)
        assert Notch(500.0).notch_center is None  # filled from the source frequency later

    def test_raise_temperature_requires_target(self):
        with pytest.raises(TypeError):
            RaiseTemperature()
        with pytest.raises(ConfigurationError, match="target_t_eff"):
            RaiseTemperature(-1.0)
        assert RaiseTemperature(0.0).target_t_eff == 0.0

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_fields(self, value):
        for build, field in [
            (lambda: Notch(500.0, notch_center=value), "notch_center"),
            (lambda: Notch(value), "notch_halfwidth"),
            (lambda: RaiseTemperature(value), "target_t_eff"),
            (lambda: PeriodicSource(1.0, 318.30, value), "phase"),
        ]:
            with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
                build()


class TestRunPoint:
    def test_lf_easy_point_is_nearly_perfect(self):
        config = make_config(t_eff=teff_of_ueff(0.01, PAIR, 1.0e5))
        outcome = run_point(config, ThresholdAttack())
        assert outcome.n_secure == 200
        assert outcome.p >= 0.95

    def test_lf_loud_noise_hits_chance(self):
        config = make_config(t_eff=teff_of_ueff(100.0, PAIR, 1.0e5))
        outcome = run_point(config, ThresholdAttack())
        assert 0.35 <= outcome.p <= 0.65

    def test_lf_null_control_guesses_nothing(self):
        config = make_config(source=PeriodicSource(amplitude=0.0, frequency=318.30))
        outcome = run_point(config, ThresholdAttack())
        assert outcome.n_guessed == 0
        assert outcome.p == 0.5

    def test_hf_guesses_every_secure_bit(self):
        config = make_config(
            f_c=500.0,
            source=PeriodicSource(amplitude=1.0, frequency=2000.0),
            t_eff=teff_of_ueff(0.01, PAIR, 1.0e5),
        )
        attack = SpectralAttack(ensemble_size=200)
        outcome = run_point(config, attack)
        assert outcome.n_guessed == outcome.n_secure == 200
        assert outcome.p >= 0.95

    def test_hf_null_control_near_chance(self):
        config = make_config(
            f_c=500.0,
            source=PeriodicSource(amplitude=0.0, frequency=2000.0),
            n_secure_bits=300,
        )
        attack = SpectralAttack(ensemble_size=200)
        outcome = run_point(config, attack)
        assert 0.38 <= outcome.p <= 0.62

    def test_raise_temperature_defense_restores_chance(self):
        attack = ThresholdAttack()
        defense = RaiseTemperature(teff_of_ueff(100.0, PAIR, 1.0e5))
        (defended,) = sweep(make_config(), attack, [0.01], [318.30], defense=defense)
        assert defended.u_eff == pytest.approx(100.0, rel=1e-12)
        assert 0.35 <= defended.p <= 0.65

    def test_notch_defense_blinds_lf_attack(self):
        config = make_config(t_eff=teff_of_ueff(0.1, PAIR, 1.0e5))
        attack = ThresholdAttack()
        defended = run_point(config, attack, Notch(1.0e3))
        assert 0.35 <= defended.p <= 0.65

    def test_notch_defense_blinds_hf_attack(self):
        config = make_config(
            f_c=500.0,
            source=PeriodicSource(amplitude=1.0, frequency=2000.0),
            t_eff=teff_of_ueff(0.1, PAIR, 1.0e5),
        )
        attack = SpectralAttack(ensemble_size=200)
        defended = run_point(config, attack, Notch(500.0))
        assert 0.35 <= defended.p <= 0.65

    def test_deterministic(self):
        config = make_config(n_secure_bits=100)
        attack = ThresholdAttack()
        assert run_point(config, attack) == run_point(config, attack)

    def test_notch_center_checked_before_any_work(self, monkeypatch):
        def never(*args):
            pytest.fail("the cell started before its notch center was checked")

        monkeypatch.setattr(experiment, "simulate_session", never)
        monkeypatch.setattr(experiment, "hf_prepare", never)
        config = make_config(f_c=500.0, source=PeriodicSource(amplitude=1.0, frequency=2000.0))
        attack = SpectralAttack(ensemble_size=100)
        with pytest.raises(ConfigurationError, match="notch center"):
            run_point(config, attack, Notch(10.0, notch_center=2.0e5))


class TestSweep:
    def test_single_cell_matches_run_point(self):
        base = make_config(n_secure_bits=100)
        attack = ThresholdAttack()
        points = sweep(base, attack, u_eff_grid=[0.05], f_a_list=[318.30])
        cell_config = dataclasses.replace(
            base,
            t_eff=teff_of_ueff(0.05, PAIR, base.f_b),
            seed=mix_seed(base.seed, 0),
            source=dataclasses.replace(base.source, frequency=318.30),
        )
        direct = run_point(cell_config, attack)
        assert points[0] == direct

    def test_row_ordering(self):
        base = make_config(n_secure_bits=10)
        attack = ThresholdAttack()
        points = sweep(base, attack, u_eff_grid=[0.1, 1.0], f_a_list=[318.30, 101.32])
        assert [p.config.source.frequency for p in points] == [318.30, 318.30, 101.32, 101.32]
        assert [p.u_eff for p in points] == pytest.approx([0.1, 1.0, 0.1, 1.0], rel=1e-15)

    def test_reports_requested_levels(self):
        base = make_config(n_secure_bits=10)
        attack = ThresholdAttack()
        points = sweep(base, attack, u_eff_grid=[0.5], f_a_list=[318.30])
        # A record states the rms it ran at, the requested level to within rounding.
        t_eff = points[0].config.t_eff
        assert points[0].u_eff == u_eff_of_teff(t_eff, PAIR, base.f_b)
        assert points[0].u_eff == pytest.approx(0.5, rel=1e-15)
        assert t_eff == pytest.approx(teff_of_ueff(0.5, PAIR, base.f_b), rel=1e-12)
        assert points[0].mode == "lowfreq"

    @pytest.mark.parametrize("grid,frequencies", [([], [318.30]), ([0.5], [])])
    def test_empty_grid_rejected(self, grid, frequencies):
        with pytest.raises(ConfigurationError, match="at least one u_eff and one f_a"):
            sweep(make_config(), ThresholdAttack(), grid, frequencies)

    def test_parallel_equals_serial(self):
        base = make_config(n_secure_bits=40)
        attack = ThresholdAttack()
        serial = sweep(base, attack, u_eff_grid=[0.1, 1.0, 10.0], f_a_list=[318.30, 101.32])
        parallel = sweep(
            base, attack, u_eff_grid=[0.1, 1.0, 10.0], f_a_list=[318.30, 101.32], max_workers=3
        )
        assert serial == parallel

    def test_cell_seeds_stable_under_grid_growth(self):
        base = make_config(n_secure_bits=20)
        attack = ThresholdAttack()
        short = sweep(base, attack, u_eff_grid=[0.1, 1.0], f_a_list=[318.30])
        grown = sweep(
            base, attack, u_eff_grid=[0.01, 0.1, 1.0, 10.0], f_a_list=[318.30, 101.32]
        )
        assert short == grown[1:3]
        # A column's rows depend on its index in f_a_list, not on its neighbours.
        other = sweep(base, attack, u_eff_grid=[0.1], f_a_list=[32.25, 101.32])
        assert grown[5] == other[1]

    @pytest.mark.parametrize("attack", ATTACKS, ids=MODES)
    @pytest.mark.parametrize(
        "defense",
        # the raise lifts the two cooler cells to 1 V and keeps the hottest
        [Notch(500.0), RaiseTemperature(teff_of_ueff(1.0, PAIR, 1.0e5))],
        ids=["notch", "raise_temperature"],
    )
    def test_defended_rows_equal_run_point_at_column_seed(self, attack, defense):
        if isinstance(attack, ThresholdAttack):
            base, frequencies = make_config(n_secure_bits=80), [318.30, 101.32]
        else:
            base, frequencies = hf_config(n_secure_bits=80), [2000.0, 16000.0]
        notch = defense if isinstance(defense, Notch) else None
        grid = [0.05, 0.5, 5.0]
        points = sweep(base, attack, u_eff_grid=grid, f_a_list=frequencies, defense=defense)
        for i, f_a in enumerate(frequencies):
            column = dataclasses.replace(
                base, seed=mix_seed(base.seed, i), source=PeriodicSource(1.0, f_a)
            )
            for u_eff, point in zip(grid, points[3 * i : 3 * i + 3]):
                t_eff = teff_of_ueff(u_eff, PAIR, base.f_b)
                if notch is None:
                    t_eff = max(t_eff, defense.target_t_eff)
                cell = dataclasses.replace(column, t_eff=t_eff)
                assert point.config == cell
                assert point == run_point(cell, attack, notch)
        if notch is None:
            assert [pt.u_eff for pt in points[:3]] == pytest.approx([1.0, 1.0, 5.0], rel=1e-12)


def hf_config(**overrides):
    return make_config(
        f_c=500.0, source=PeriodicSource(amplitude=1.0, frequency=2000.0), **overrides
    )


def band_noise(band, mask, spb):
    """Samples whose 1/N band is ``band`` on ``mask`` and zero elsewhere."""
    full = np.zeros(band.shape[:-1] + mask.shape, dtype=complex)
    full[..., mask] = band
    return spb * np.fft.irfft(full, spb, axis=-1)


def secure_parts(session):
    """Index, codes, wire and source part of every secure period, from ``chunks()``."""
    chunks = list(session.chunks())
    return [
        np.concatenate([getattr(chunk, name)[secure_mask(chunk.situations)] for chunk in chunks])
        for name in ("index", "situations", "wire_voltage", "ac_part")
    ]


def secure_band_noise(session, mask):
    """The unit band noise of every secure period, stacked."""
    index, _, bands = (np.concatenate(a) for a in zip(*session.secure_bands(mask)))
    assert np.array_equal(index, np.flatnonzero(secure_mask(session.situations)))
    return bands


def sampled_wires(config, prep):
    """Every secure period's index, codes and sampled wire, from ``chunks()``.

    For the spectral attack the noise is synthesized from the band the
    session draws, so the reference sees the engine's random numbers.
    """
    session = simulate_session(config)
    index, codes, wire, ac = secure_parts(session)
    if prep is None:
        return index, codes, wire
    sigma = johnson_rms(PAIR.parallel, config.t_eff, config.f_b)
    noise = band_noise(secure_band_noise(session, prep.mask), prep.mask, config.samples_per_bit)
    return index, codes, ac + sigma * noise


def sampled_cell(config, attack, notch):
    """Reference: classify each period's sampled wire, notched on the source if asked."""
    prep = hf_prepare(config, attack) if isinstance(attack, SpectralAttack) else None
    index, codes, wire = sampled_wires(config, prep)
    if notch is not None:
        wire = notch_filter(wire, notch.bins(config))
    if prep is None:
        threshold = lf_threshold(config.source, index, config.period_duration, attack.kappa)
        guess = lf_decide(threshold, lf_gamma(wire, threshold)).guess
    else:
        guess = hf_decide(hf_ac_power(hf_band(wire, prep), prep, config.t_eff), prep)
    guessed = int(np.count_nonzero(guess != UNDETERMINED))
    correct = int(np.count_nonzero(guess == codes))
    return AttackOutcome(config, attack.mode, guessed, correct)


class TestColumnAlgebra:
    def test_unit_rehearsal_scales_to_direct_rehearsal(self):
        config = hf_config(t_eff=9.0e15)
        attack = SpectralAttack(ensemble_size=150)
        prep = hf_prepare(config, attack)
        # Reference: the rehearsal stream's band bins drawn straight at the
        # cell's sigma, two normals per bin (the band stops short of Nyquist).
        assert not prep.mask[-1]
        rng = stream(config.seed, Stream.EAVESDROPPER)
        sigma = johnson_rms(PAIR.parallel, config.t_eff, config.f_b)
        draws = rng.standard_normal((150, 2 * np.count_nonzero(prep.mask)))
        noise = sigma * math.sqrt(0.5 / config.samples_per_bit) * draws.view(complex)
        direct = np.mean(np.abs(noise) ** 2, axis=0)
        np.testing.assert_allclose(config.t_eff * prep.noise_background, direct, rtol=1e-12)
        # One rehearsal serves every temperature.
        other = hf_prepare(dataclasses.replace(config, t_eff=1.0), attack)
        assert np.array_equal(other.noise_background, prep.noise_background)
        assert other.ac_threshold == prep.ac_threshold

    def test_background_is_the_member_by_member_sum(self, monkeypatch):
        config = hf_config()
        attack = SpectralAttack(ensemble_size=300)
        prep = hf_prepare(config, attack)
        rng = stream(config.seed, Stream.EAVESDROPPER)
        rms = johnson_rms(PAIR.parallel, 1.0, config.f_b)
        noise = rms * unit_band_noise(rng, 300, config.samples_per_bit, prep.mask)
        total = np.zeros(noise.shape[1])
        for bins in noise.real**2 + noise.imag**2:
            total += bins
        assert np.array_equal(prep.noise_background, total / 300)
        for size in (1, 7):
            monkeypatch.setattr(channel, "CHUNK_PERIODS", size)
            assert np.array_equal(hf_prepare(config, attack).noise_background, total / 300)

    def test_closed_form_source_band_matches_sampled_source(self):
        config = make_config(f_c=500.0, source=PeriodicSource(0.7, 16000.0, 0.3), n_secure_bits=150)
        prep = hf_prepare(config, SpectralAttack(ensemble_size=100))
        gains = divider_ac(np.array([1.0e3, 1.0e4]), np.array([1.0e4, 1.0e3]), 1.0)[:, None]
        spb = config.samples_per_bit
        for index, codes, _ in simulate_session(config).secure_noise():
            closed = gains[codes - 1] * hf_source_band(config, index, prep.mask)
            times = (index[:, None] * spb + np.arange(spb)) / config.sample_rate
            source = 0.7 * np.cos(2.0 * math.pi * 16000.0 * times + 0.3)
            sampled = hf_band(gains[codes - 1] * source, prep)
            # Both round the phase omega * t + phi to within an ulp of itself.
            theta = 2.0 * math.pi * 16000.0 * (index[-1] + 1) * config.period_duration
            peak = np.max(np.abs(sampled), axis=1, keepdims=True)
            assert np.all(np.abs(closed - sampled) <= 4.0 * np.finfo(float).eps * theta * peak)

    @pytest.mark.parametrize("notched", [False, True])
    def test_band_bins_match_wire_periodogram(self, notched):
        config = hf_config(t_eff=teff_of_ueff(1.0, PAIR, 1.0e5), n_secure_bits=150)
        prep = hf_prepare(config, SpectralAttack(ensemble_size=100))
        sigma = johnson_rms(PAIR.parallel, config.t_eff, config.f_b)
        spb = config.samples_per_bit
        freqs = np.fft.rfftfreq(spb, d=1.0 / config.sample_rate)
        cut = np.abs(freqs - 2000.0) <= 500.0
        assert 0 < np.count_nonzero(cut[prep.mask]) < np.count_nonzero(prep.mask)
        session = simulate_session(config)
        ac_part = secure_parts(session)[3]
        z = secure_band_noise(session, prep.mask)
        noise = band_noise(z, prep.mask, spb)
        np.testing.assert_allclose(hf_band(noise, prep), z, rtol=0, atol=1e-12 * np.abs(z).max())
        ac = hf_band(ac_part, prep)
        wire = ac_part + sigma * noise
        if notched:
            ac[..., cut[prep.mask]] = 0.0
            z[..., cut[prep.mask]] = 0.0
            wire = notch_filter(wire, cut)
        coeffs = ac + sigma * z
        expected = periodogram(wire)[..., prep.mask]
        np.testing.assert_allclose(
            coeffs.real**2 + coeffs.imag**2, expected, rtol=1e-12, atol=1e-12 * expected.max()
        )

    @pytest.mark.parametrize("attack", ATTACKS, ids=MODES)
    @pytest.mark.parametrize("notched", [False, True])
    def test_column_equals_classifying_each_sampled_wire(self, attack, notched):
        lowfreq = isinstance(attack, ThresholdAttack)
        config = make_config(n_secure_bits=150) if lowfreq else hf_config(n_secure_bits=150)
        # Each notch removes bins: DC and 1 kHz for lowfreq, 2 kHz for highfreq.
        notch = Notch(700.0 if lowfreq else 200.0) if notched else None
        t_effs = [teff_of_ueff(u, PAIR, config.f_b) for u in (0.01, 0.3, 3.0)]
        outcomes = run_column(config, attack, t_effs, notch)
        for t_eff, outcome in zip(t_effs, outcomes):
            cell = dataclasses.replace(config, t_eff=t_eff)
            assert outcome == sampled_cell(cell, attack, notch)

    def test_zero_temperature_runs_on_the_bare_source(self):
        config = hf_config(t_eff=0.0, n_secure_bits=60)
        for chunk in simulate_session(config).chunks():
            assert np.array_equal(chunk.wire_voltage, chunk.ac_part)
        attack = SpectralAttack(ensemble_size=100)
        cold, warm = run_column(config, attack, [0.0, teff_of_ueff(10.0, PAIR, config.f_b)])
        assert cold.n_guessed == cold.n_correct == 60
        assert cold == run_point(config, attack)
        lowfreq = ThresholdAttack()
        assert run_column(make_config(n_secure_bits=60), lowfreq, [0.0])[0].n_secure == 60

    @pytest.mark.parametrize("t_effs", [[-1.0], [1.0, math.nan], [math.inf]])
    def test_bad_temperatures_rejected(self, t_effs):
        with pytest.raises(ConfigurationError, match="t_eff"):
            run_column(make_config(), ThresholdAttack(), t_effs)

    def test_empty_column_has_no_cells(self):
        assert run_column(make_config(), SpectralAttack(), []) == []

    @pytest.mark.parametrize("attack", ATTACKS, ids=MODES)
    def test_too_hot_cell_refused_before_any_cell_runs(self, attack, monkeypatch):
        calls = []
        monkeypatch.setattr(experiment, "run_point", lambda *args: calls.append(args))
        base = make_config(n_secure_bits=50)
        # 9e99 V is in range, but its HH wire noise rms is above SCALE_LIMIT.
        with pytest.raises(ConfigurationError, match="t_eff"):
            sweep(base, attack, [0.01, 9.0e99], [318.30, 101.32])
        with pytest.raises(ConfigurationError, match="t_eff"):
            run_column(base, attack, [0.0, teff_of_ueff(9.0e99, PAIR, base.f_b)])
        assert calls == []


class TestSweepCsv:
    def test_format(self):
        base = make_config(n_secure_bits=10)
        attack = ThresholdAttack()
        points = sweep(base, attack, u_eff_grid=[0.5], f_a_list=[318.30])
        buffer = io.StringIO()
        write_sweep_csv(points, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "lowfreq"
        assert float(row[1]) == pytest.approx(318.30)
        assert float(row[2]) == pytest.approx(1.0e3)
        assert float(row[3]) == pytest.approx(1.0e5)
        assert float(row[4]) == pytest.approx(0.5)
        assert int(row[6]) == 10
        assert int(row[7]) >= int(row[8])
        assert 0.0 <= float(row[9]) <= 1.0

    def test_clock_column_states_the_clock_the_run_keeps(self):
        # 2e5 / 3000 = 66.67 samples per bit rounds to 67, so the run
        # clocks at 2e5 / 67 = 2985.07 Hz, not at the requested 3 kHz.
        base = make_config(f_c=3000.0, n_secure_bits=10)
        assert base.samples_per_bit == 67
        points = sweep(base, ThresholdAttack(), u_eff_grid=[0.5], f_a_list=[318.30])
        buffer = io.StringIO()
        write_sweep_csv(points, buffer)
        assert buffer.getvalue().splitlines()[1].split(",")[2] == "2985.074627"


SCALE_LIMIT = channel.SCALE_LIMIT


class TestScaleLimit:
    """Every voltage scale of an accepted point is at most ``SCALE_LIMIT``, so no run overflows.

    The loudest wire noise is HH's, so the hottest accepted point is where
    the HH wire noise rms equals ``SCALE_LIMIT``; the secure rms is then
    sqrt(2 r_low / (r_low + r_high)) of that, 1 / 2.35 for ``PAIR``.
    """

    @staticmethod
    def edge_t_eff(pair, f_b=1.0e5):
        """The temperature at which ``pair``'s HH wire noise rms is ``SCALE_LIMIT``."""
        loudest = float(pair.table[0, channel.Situation.HH])
        return SCALE_LIMIT**2 / (4.0 * BOLTZMANN * loudest * f_b)

    @classmethod
    def edge_config(cls, attack, pair=PAIR):
        """A config at the largest accepted source amplitude and wire noise rms."""
        make = make_config if isinstance(attack, ThresholdAttack) else hf_config
        config = make(resistors=pair, t_eff=cls.edge_t_eff(pair), n_secure_bits=150)
        source = dataclasses.replace(config.source, amplitude=SCALE_LIMIT)
        return dataclasses.replace(config, source=source)

    EDGE_ATTACKS = [ThresholdAttack(kappa=SCALE_LIMIT), SpectralAttack(ensemble_size=100)]

    def test_each_scale_is_bounded_where_it_is_built(self):
        above = np.nextafter(SCALE_LIMIT, math.inf)
        assert PeriodicSource(SCALE_LIMIT, 318.30).amplitude == SCALE_LIMIT
        assert ThresholdAttack(kappa=SCALE_LIMIT).kappa == SCALE_LIMIT
        assert ResistorPair(1.0e3, SCALE_LIMIT).r_high == SCALE_LIMIT
        assert ResistorPair(1.0 / SCALE_LIMIT, 1.0).r_low == 1.0 / SCALE_LIMIT
        config = self.edge_config(ThresholdAttack())
        assert johnson_rms(PAIR.r_high / 2.0, config.t_eff, config.f_b) == SCALE_LIMIT
        with pytest.raises(ConfigurationError, match="amplitude"):
            PeriodicSource(above, 318.30)
        with pytest.raises(ConfigurationError, match="kappa"):
            ThresholdAttack(kappa=above)
        with pytest.raises(ConfigurationError, match="r_high"):
            ResistorPair(1.0e3, above)
        with pytest.raises(ConfigurationError, match="r_low"):
            ResistorPair(np.nextafter(1.0 / SCALE_LIMIT, 0.0), 1.0)
        with pytest.raises(ConfigurationError, match="u_eff"):
            teff_of_ueff(above, PAIR, 1.0e5)
        with pytest.raises(ConfigurationError, match="t_eff"):
            dataclasses.replace(config, t_eff=config.t_eff * 1.0000001)
        # The secure rms at the edge is SCALE_LIMIT / 2.35, so a secure u_eff
        # below SCALE_LIMIT can already be refused.
        edge_u_eff = u_eff_of_teff(config.t_eff, PAIR, config.f_b)
        assert edge_u_eff == pytest.approx(SCALE_LIMIT / math.sqrt(5.5), rel=1e-12)
        with pytest.raises(ConfigurationError, match="t_eff"):
            dataclasses.replace(config, t_eff=teff_of_ueff(1.01 * edge_u_eff, PAIR, 1.0e5))

    def test_resistors_whose_product_overflows_are_refused(self):
        # Above SCALE_LIMIT ohm the product of two resistances can overflow to
        # inf, and inf / inf is NaN; neither is a loop resistance.
        for r_low, r_high in [(1.0e-10, 1.0e300), (1.0e200, 1.0e250), (1.0e308, 1.7e308)]:
            with pytest.raises(ConfigurationError, match="r_high"):
                ResistorPair(r_low, r_high)

    def test_rehearsal_noise_is_bounded_below_one_kelvin(self):
        # hf_prepare rehearses at 1 K, where this pair's HH noise rms is
        # 5e113 V; at 0 K the session itself is noise-free.
        pair = ResistorPair(1.0e99, 1.0e100)
        with pytest.raises(ConfigurationError, match="t_eff"):
            make_config(resistors=pair, f_b=1.0e150, t_eff=0.0)

    @pytest.mark.parametrize("attack", EDGE_ATTACKS, ids=MODES)
    @pytest.mark.parametrize("notched", [False, True], ids=["bare", "notch"])
    def test_run_point_raises_no_floating_point_error(self, attack, notched):
        config = self.edge_config(attack)
        notch = Notch(config.f_c) if notched else None
        with np.errstate(all="raise"):
            outcome = run_point(config, attack, notch)
        assert outcome.n_secure == 150

    def test_lowfreq_threshold_stays_finite(self):
        # kappa times the amplitude is a product of Python floats, which
        # overflows to inf without a floating-point error.
        config = self.edge_config(ThresholdAttack())
        index = np.arange(1000)
        threshold = lf_threshold(config.source, index, config.period_duration, SCALE_LIMIT)
        assert np.all(np.isfinite(threshold)) and np.max(np.abs(threshold)) > 1e199

    @pytest.mark.parametrize("attack", EDGE_ATTACKS, ids=MODES)
    def test_sweep_raises_no_floating_point_error(self, attack):
        config = self.edge_config(attack)
        # One ulp below the edge u_eff, whose temperature rounds to one ulp above the edge.
        top = float(np.nextafter(u_eff_of_teff(config.t_eff, PAIR, config.f_b), 0.0))
        with np.errstate(all="raise"):
            points = sweep(config, attack, [1.0, top], [config.source.frequency])
        u_effs = [point.u_eff for point in points]
        assert u_effs == [u_eff_of_teff(point.config.t_eff, PAIR, config.f_b) for point in points]
        assert u_effs == pytest.approx([1.0, top], rel=1e-15)

    def test_session_chunks_raise_no_floating_point_error(self):
        # At r_high = SCALE_LIMIT ohm, HH's product of resistances is 1e200.
        config = self.edge_config(ThresholdAttack(), ResistorPair(1.0e3, SCALE_LIMIT))
        with np.errstate(all="raise"):
            session = simulate_session(config)
            for chunk in session.chunks():
                assert np.all(np.isfinite(chunk.wire_voltage))
