"""Tests for noise-level conversions, defenses, single points, and sweeps."""

import dataclasses
import io
import math

import numpy as np
import pytest

from kljnsim import (
    AttackConfig,
    AttackMode,
    AttackOutcome,
    BOLTZMANN,
    ConfigurationError,
    DefenseKind,
    DefenseSpec,
    KljnConfig,
    PeriodicSource,
    ResistorPair,
    SWEEP_CSV_COLUMNS,
    UNDETERMINED,
    default_u_eff_grid,
    divider_ac,
    generate_unit_gbwn,
    hf_ac_power,
    hf_band,
    hf_decide,
    hf_prepare,
    hf_source_band,
    johnson_rms,
    lf_decide,
    lf_gamma,
    lf_threshold,
    mix_seed,
    notch_filter,
    periodogram,
    power_spectrum,
    run_column,
    run_point,
    simulate_session,
    sweep,
    teff_of_ueff,
    u_eff_of_teff,
    write_sweep_csv,
)
import kljnsim.experiment as experiment
from kljnsim.noise import NoiseSpec

# rms of the wire noise at T_eff = 9e15 K over a 100 kHz band with the
# 1 kOhm / 10 kOhm pair (909.09 ohm in parallel), frozen from
# sqrt(4 k T R_parallel B).
WIRE_RMS_9E15 = 6.7219696788691605

PAIR = ResistorPair(r_low=1.0e3, r_high=1.0e4)


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
        with pytest.raises(ConfigurationError):
            u_eff_of_teff(-1.0, PAIR, 1.0e5)
        with pytest.raises(ConfigurationError):
            teff_of_ueff(-1.0, PAIR, 1.0e5)


def rms(samples):
    return math.sqrt(np.mean(np.square(samples)))


class TestNotchFilter:
    RATE = 2.0e5

    def tone(self, cycles, n=2000):
        times = np.arange(n) / self.RATE
        frequency = cycles * self.RATE / n
        return np.cos(2.0 * np.pi * frequency * times)

    def test_kills_centered_tone(self):
        trace = self.tone(cycles=20)  # 2 kHz on this grid
        out = notch_filter(trace, self.RATE, center=2000.0, halfwidth=500.0)
        assert rms(out) < 1e-12

    def test_preserves_distant_tone(self):
        trace = self.tone(cycles=300)  # 30 kHz
        out = notch_filter(trace, self.RATE, center=2000.0, halfwidth=500.0)
        np.testing.assert_allclose(out, trace, atol=1e-12)
        # A batch of periods, one per row, is filtered row by row.
        batch = notch_filter(np.stack([trace, self.tone(cycles=20)]), self.RATE, 2000.0, 500.0)
        np.testing.assert_allclose(batch[0], trace, atol=1e-12)
        assert rms(batch[1]) < 1e-12

    def test_energy_bookkeeping_on_noise(self):
        spec = NoiseSpec(n_samples=1 << 16, sample_rate=self.RATE, noise_bandwidth=1.0e5, seed=3)
        trace = generate_unit_gbwn(spec)
        out = notch_filter(trace.samples, self.RATE, center=2000.0, halfwidth=500.0)
        spectrum = periodogram(trace)
        freqs = spectrum.frequencies()
        weights = np.full(len(spectrum), 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        removed = (np.abs(freqs - 2000.0) <= 500.0)
        removed_power = float(np.sum((weights * spectrum.bins)[removed]))
        in_ms = float(np.mean(trace.samples**2))
        out_ms = float(np.mean(out**2))
        assert out_ms == pytest.approx(in_ms - removed_power, rel=1e-10)
        # A 1 kHz notch out of 100 kHz removes ~1% of the power.
        assert rms(out) / trace.rms() == pytest.approx(math.sqrt(0.99), rel=0.02)

    def test_rejects_center_outside_band(self):
        trace = self.tone(cycles=20)
        with pytest.raises(ConfigurationError):
            notch_filter(trace, self.RATE, center=0.0, halfwidth=500.0)
        with pytest.raises(ConfigurationError):
            notch_filter(trace, self.RATE, center=1.5e5, halfwidth=500.0)
        with pytest.raises(ConfigurationError):
            notch_filter(trace, self.RATE, center=2000.0, halfwidth=0.0)


class TestAttackOutcome:
    def test_from_counts(self):
        outcome = AttackOutcome.from_counts(n_secure=10, n_guessed=8, n_correct=6)
        assert outcome.p == pytest.approx(0.75)

    def test_empty_guess_set_scores_chance(self):
        outcome = AttackOutcome.from_counts(n_secure=10, n_guessed=0, n_correct=0)
        assert outcome.p == 0.5

    def test_count_consistency_enforced(self):
        with pytest.raises(ConfigurationError):
            AttackOutcome.from_counts(n_secure=5, n_guessed=6, n_correct=0)
        with pytest.raises(ConfigurationError):
            AttackOutcome.from_counts(n_secure=5, n_guessed=3, n_correct=4)


class TestDefenseSpec:
    def test_notch_requires_halfwidth(self):
        with pytest.raises(ConfigurationError):
            DefenseSpec(kind=DefenseKind.NOTCH)
        spec = DefenseSpec(kind=DefenseKind.NOTCH, notch_halfwidth=500.0)
        assert spec.notch_center is None  # filled from the source frequency later

    def test_raise_temperature_requires_target(self):
        with pytest.raises(ConfigurationError):
            DefenseSpec(kind=DefenseKind.RAISE_TEMPERATURE)
        with pytest.raises(ConfigurationError):
            DefenseSpec(kind=DefenseKind.RAISE_TEMPERATURE, target_t_eff=-1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_fields(self, value):
        for kind, field in [
            (DefenseKind.NOTCH, {"notch_center": value, "notch_halfwidth": 500.0}),
            (DefenseKind.NOTCH, {"notch_halfwidth": value}),
            (DefenseKind.RAISE_TEMPERATURE, {"target_t_eff": value}),
        ]:
            with pytest.raises(ConfigurationError, match="finite"):
                DefenseSpec(kind=kind, **field)

    def test_none_rejects_leftover_fields(self):
        with pytest.raises(ConfigurationError):
            DefenseSpec(kind=DefenseKind.NONE, notch_halfwidth=500.0)


class TestRunPoint:
    def test_lf_easy_point_is_nearly_perfect(self):
        config = make_config(t_eff=teff_of_ueff(0.01, PAIR, 1.0e5))
        outcome = run_point(config, AttackConfig(mode=AttackMode.LOW_FREQ))
        assert outcome.n_secure == 200
        assert outcome.p >= 0.95

    def test_lf_loud_noise_hits_chance(self):
        config = make_config(t_eff=teff_of_ueff(100.0, PAIR, 1.0e5))
        outcome = run_point(config, AttackConfig(mode=AttackMode.LOW_FREQ))
        assert 0.35 <= outcome.p <= 0.65

    def test_lf_null_control_guesses_nothing(self):
        config = make_config(source=PeriodicSource(amplitude=0.0, frequency=318.30))
        outcome = run_point(config, AttackConfig(mode=AttackMode.LOW_FREQ))
        assert outcome.n_guessed == 0
        assert outcome.p == 0.5

    def test_hf_guesses_every_secure_bit(self):
        config = make_config(
            f_c=500.0,
            source=PeriodicSource(amplitude=1.0, frequency=2000.0),
            t_eff=teff_of_ueff(0.01, PAIR, 1.0e5),
        )
        attack = AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=200)
        outcome = run_point(config, attack)
        assert outcome.n_guessed == outcome.n_secure == 200
        assert outcome.p >= 0.95

    def test_hf_null_control_near_chance(self):
        config = make_config(
            f_c=500.0,
            source=PeriodicSource(amplitude=0.0, frequency=2000.0),
            n_secure_bits=300,
        )
        attack = AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=200)
        outcome = run_point(config, attack)
        assert 0.38 <= outcome.p <= 0.62

    def test_raise_temperature_defense_restores_chance(self):
        config = make_config(t_eff=teff_of_ueff(0.01, PAIR, 1.0e5))
        attack = AttackConfig(mode=AttackMode.LOW_FREQ)
        defense = DefenseSpec(
            kind=DefenseKind.RAISE_TEMPERATURE,
            target_t_eff=teff_of_ueff(100.0, PAIR, 1.0e5),
        )
        defended = run_point(config, attack, defense)
        assert 0.35 <= defended.p <= 0.65

    def test_notch_defense_blinds_lf_attack(self):
        config = make_config(t_eff=teff_of_ueff(0.1, PAIR, 1.0e5))
        attack = AttackConfig(mode=AttackMode.LOW_FREQ)
        defense = DefenseSpec(kind=DefenseKind.NOTCH, notch_halfwidth=1.0e3)
        defended = run_point(config, attack, defense)
        assert 0.35 <= defended.p <= 0.65

    def test_notch_defense_blinds_hf_attack(self):
        config = make_config(
            f_c=500.0,
            source=PeriodicSource(amplitude=1.0, frequency=2000.0),
            t_eff=teff_of_ueff(0.1, PAIR, 1.0e5),
        )
        attack = AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=200)
        defense = DefenseSpec(kind=DefenseKind.NOTCH, notch_halfwidth=500.0)
        defended = run_point(config, attack, defense)
        assert 0.35 <= defended.p <= 0.65

    def test_deterministic(self):
        config = make_config(n_secure_bits=100)
        attack = AttackConfig(mode=AttackMode.LOW_FREQ)
        assert run_point(config, attack) == run_point(config, attack)

    def test_notch_center_checked_before_any_work(self, monkeypatch):
        def never(*args):
            pytest.fail("the cell started before its notch center was checked")

        monkeypatch.setattr(experiment, "simulate_session", never)
        monkeypatch.setattr(experiment, "hf_prepare", never)
        config = make_config(f_c=500.0, source=PeriodicSource(amplitude=1.0, frequency=2000.0))
        attack = AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=100)
        defense = DefenseSpec(kind=DefenseKind.NOTCH, notch_center=2.0e5, notch_halfwidth=10.0)
        with pytest.raises(ConfigurationError, match="notch center"):
            run_point(config, attack, defense)


class TestSweep:
    def test_single_cell_matches_run_point(self):
        base = make_config(n_secure_bits=100)
        attack = AttackConfig(mode=AttackMode.LOW_FREQ)
        points = sweep(base, attack, u_eff_grid=[0.05], f_a_list=[318.30])
        cell_config = dataclasses.replace(
            base,
            t_eff=teff_of_ueff(0.05, PAIR, base.f_b),
            seed=mix_seed(base.seed, 0),
            source=dataclasses.replace(base.source, frequency=318.30),
        )
        direct = run_point(cell_config, attack)
        assert points[0].outcome == direct

    def test_row_ordering(self):
        base = make_config(n_secure_bits=10)
        attack = AttackConfig(mode=AttackMode.LOW_FREQ)
        points = sweep(base, attack, u_eff_grid=[0.1, 1.0], f_a_list=[318.30, 101.32])
        keys = [(p.f_a, p.u_eff) for p in points]
        assert keys == [(318.30, 0.1), (318.30, 1.0), (101.32, 0.1), (101.32, 1.0)]

    def test_reports_requested_levels(self):
        base = make_config(n_secure_bits=10)
        attack = AttackConfig(mode=AttackMode.LOW_FREQ)
        points = sweep(base, attack, u_eff_grid=[0.5], f_a_list=[318.30])
        assert points[0].u_eff == 0.5
        assert points[0].t_eff == pytest.approx(teff_of_ueff(0.5, PAIR, base.f_b), rel=1e-12)
        assert points[0].mode is AttackMode.LOW_FREQ

    def test_parallel_equals_serial(self):
        base = make_config(n_secure_bits=40)
        attack = AttackConfig(mode=AttackMode.LOW_FREQ)
        serial = sweep(base, attack, u_eff_grid=[0.1, 1.0, 10.0], f_a_list=[318.30, 101.32])
        parallel = sweep(
            base, attack, u_eff_grid=[0.1, 1.0, 10.0], f_a_list=[318.30, 101.32], max_workers=3
        )
        assert serial == parallel

    def test_cell_seeds_stable_under_grid_growth(self):
        base = make_config(n_secure_bits=20)
        attack = AttackConfig(mode=AttackMode.LOW_FREQ)
        short = sweep(base, attack, u_eff_grid=[0.1, 1.0], f_a_list=[318.30])
        grown = sweep(
            base, attack, u_eff_grid=[0.01, 0.1, 1.0, 10.0], f_a_list=[318.30, 101.32]
        )
        assert short == grown[1:3]
        # A column's rows depend on its index in f_a_list, not on its neighbours.
        other = sweep(base, attack, u_eff_grid=[0.1], f_a_list=[32.25, 101.32])
        assert grown[5] == other[1]

    @pytest.mark.parametrize("mode", list(AttackMode))
    @pytest.mark.parametrize("kind", [DefenseKind.NOTCH, DefenseKind.RAISE_TEMPERATURE])
    def test_defended_rows_equal_run_point_at_column_seed(self, mode, kind):
        if mode is AttackMode.LOW_FREQ:
            base, frequencies = make_config(n_secure_bits=80), [318.30, 101.32]
        else:
            base, frequencies = hf_config(n_secure_bits=80), [2000.0, 16000.0]
        attack = AttackConfig(mode=mode, ensemble_size=100)
        if kind is DefenseKind.NOTCH:
            defense = DefenseSpec(kind=kind, notch_halfwidth=500.0)
        else:  # raises the two cooler cells to 1 V, keeps the hottest
            defense = DefenseSpec(kind=kind, target_t_eff=teff_of_ueff(1.0, PAIR, base.f_b))
        grid = [0.05, 0.5, 5.0]
        points = sweep(base, attack, u_eff_grid=grid, f_a_list=frequencies, defense=defense)
        for i, f_a in enumerate(frequencies):
            column = dataclasses.replace(
                base, seed=mix_seed(base.seed, i), source=PeriodicSource(1.0, f_a)
            )
            for u_eff, point in zip(grid, points[3 * i : 3 * i + 3]):
                t_eff = teff_of_ueff(u_eff, PAIR, base.f_b)
                cell = dataclasses.replace(column, t_eff=t_eff)
                assert point.outcome == run_point(cell, attack, defense)
                assert point.t_eff == defense.applied_t_eff(t_eff)
        if kind is DefenseKind.RAISE_TEMPERATURE:
            assert [pt.u_eff for pt in points[:3]] == pytest.approx([1.0, 1.0, 5.0], rel=1e-12)

    def test_default_grid(self):
        grid = default_u_eff_grid()
        assert len(grid) == 25
        assert grid[0] == pytest.approx(0.01, rel=1e-12)
        assert grid[-1] == pytest.approx(100.0, rel=1e-12)
        assert np.all(np.diff(np.log(grid)) > 0)


def hf_config(**overrides):
    return make_config(
        f_c=500.0, source=PeriodicSource(amplitude=1.0, frequency=2000.0), **overrides
    )


def band_noise(band, mask, spb):
    """Samples whose 1/N band is ``band`` on ``mask`` and zero elsewhere."""
    full = np.zeros(band.shape[:-1] + mask.shape, dtype=complex)
    full[..., mask] = band
    return spb * np.fft.irfft(full, spb, axis=-1)


def sampled_wires(config, prep):
    """Each secure chunk's period index, codes and sampled wire.

    For the spectral attack the noise is synthesized from the band the
    session draws, so the reference sees the engine's random numbers.
    """
    session = simulate_session(config)
    chunks = session.chunks(secure_only=True)
    if prep is None:
        for chunk in chunks:
            yield chunk.index, chunk.situations, chunk.wire_voltage
        return
    sigma = johnson_rms(PAIR.parallel, config.t_eff, config.f_b)
    for chunk, (index, codes, band) in zip(chunks, session.secure_bands(prep.mask)):
        assert np.array_equal(index, chunk.index)
        noise = band_noise(band, prep.mask, config.samples_per_bit)
        yield index, codes, chunk.ac_part + sigma * noise


def sampled_cell(config, attack, defense):
    """Reference: classify each period's sampled wire, notched if the defense is a notch."""
    prep = hf_prepare(config, attack) if attack.mode is AttackMode.HIGH_FREQ else None
    guessed = correct = 0
    for index, codes, wire in sampled_wires(config, prep):
        if defense.kind is DefenseKind.NOTCH:
            wire = notch_filter(wire, config.sample_rate, config.source.frequency,
                                defense.notch_halfwidth)
        if prep is None:
            threshold = lf_threshold(config.source, index + 1, config.period_duration, attack.kappa)
            guess = lf_decide(threshold, lf_gamma(wire, threshold)).guess
        else:
            guess = hf_decide(hf_ac_power(hf_band(wire, prep), prep, config.t_eff), prep)
        guessed += int(np.count_nonzero(guess != UNDETERMINED))
        correct += int(np.count_nonzero(guess == codes))
    return AttackOutcome.from_counts(config.n_secure_bits, guessed, correct)


class TestColumnAlgebra:
    def test_unit_rehearsal_scales_to_direct_rehearsal(self):
        config = hf_config(t_eff=9.0e15)
        attack = AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=150)
        prep = hf_prepare(config, attack)
        # Reference: the rehearsal stream's band bins drawn straight at the
        # cell's sigma, two normals per bin (the band stops short of Nyquist).
        assert not prep.mask[-1]
        rng = np.random.Generator(np.random.Philox(key=mix_seed(config.seed, 3)))
        sigma = johnson_rms(PAIR.parallel, config.t_eff, config.f_b)
        draws = rng.standard_normal((150, 2 * np.count_nonzero(prep.mask)))
        noise = sigma * math.sqrt(0.5 / config.samples_per_bit) * draws.view(complex)
        direct = np.mean(np.abs(noise) ** 2, axis=0)
        np.testing.assert_allclose(config.t_eff * prep.noise_background, direct, rtol=1e-12)
        # One rehearsal serves every temperature.
        other = hf_prepare(dataclasses.replace(config, t_eff=1.0), attack)
        assert np.array_equal(other.noise_background, prep.noise_background)
        assert other.ac_threshold == prep.ac_threshold

    def test_closed_form_source_band_matches_sampled_source(self):
        config = make_config(f_c=500.0, source=PeriodicSource(0.7, 16000.0, 0.3), n_secure_bits=150)
        prep = hf_prepare(config, AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=100))
        gains = divider_ac(np.array([1.0e3, 1.0e4]), np.array([1.0e4, 1.0e3]), 1.0)[:, None]
        spb = config.samples_per_bit
        for chunk in simulate_session(config).chunks(secure_only=True):
            closed = gains[chunk.situations - 1] * hf_source_band(config, chunk.index, prep.mask)
            times = (chunk.index[:, None] * spb + np.arange(spb)) / config.sample_rate
            source = 0.7 * np.cos(2.0 * math.pi * 16000.0 * times + 0.3)
            sampled = hf_band(gains[chunk.situations - 1] * source, prep)
            # Both round the phase omega * t + phi to within an ulp of itself.
            theta = 2.0 * math.pi * 16000.0 * (chunk.index[-1] + 1) * config.period_duration
            peak = np.max(np.abs(sampled), axis=1, keepdims=True)
            assert np.all(np.abs(closed - sampled) <= 4.0 * np.finfo(float).eps * theta * peak)

    @pytest.mark.parametrize("notched", [False, True])
    def test_band_bins_match_wire_periodogram(self, notched):
        config = hf_config(t_eff=teff_of_ueff(1.0, PAIR, 1.0e5), n_secure_bits=150)
        prep = hf_prepare(config, AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=100))
        sigma = johnson_rms(PAIR.parallel, config.t_eff, config.f_b)
        spb = config.samples_per_bit
        center, halfwidth = 2000.0, 500.0
        freqs = np.fft.rfftfreq(spb, d=1.0 / config.sample_rate)
        cut = (np.abs(freqs - center) <= halfwidth)[prep.mask]
        assert 0 < np.count_nonzero(cut) < cut.size
        session = simulate_session(config)
        chunks = session.chunks(secure_only=True)
        for chunk, (_, _, z) in zip(chunks, session.secure_bands(prep.mask)):
            noise = band_noise(z, prep.mask, spb)
            np.testing.assert_allclose(hf_band(noise, prep), z, rtol=0, atol=1e-12 * np.abs(z).max())
            ac = hf_band(chunk.ac_part, prep)
            wire = chunk.ac_part + sigma * noise
            if notched:
                ac[..., cut] = 0.0
                z = z.copy()
                z[..., cut] = 0.0
                wire = notch_filter(wire, config.sample_rate, center, halfwidth)
            coeffs = ac + sigma * z
            expected = power_spectrum(wire)[..., prep.mask]
            np.testing.assert_allclose(
                coeffs.real**2 + coeffs.imag**2, expected, rtol=1e-12, atol=1e-12 * expected.max()
            )

    @pytest.mark.parametrize("mode", list(AttackMode))
    @pytest.mark.parametrize("notched", [False, True])
    def test_column_equals_classifying_each_sampled_wire(self, mode, notched):
        lowfreq = mode is AttackMode.LOW_FREQ
        config = make_config(n_secure_bits=150) if lowfreq else hf_config(n_secure_bits=150)
        attack = AttackConfig(mode=mode, ensemble_size=100)
        defense = DefenseSpec()
        if notched:
            defense = DefenseSpec(kind=DefenseKind.NOTCH, notch_halfwidth=200.0)
        t_effs = [teff_of_ueff(u, PAIR, config.f_b) for u in (0.01, 0.3, 3.0)]
        outcomes = run_column(config, attack, t_effs, defense)
        for t_eff, outcome in zip(t_effs, outcomes):
            cell = dataclasses.replace(config, t_eff=t_eff)
            assert outcome == sampled_cell(cell, attack, defense)

    def test_zero_temperature_runs_on_the_bare_source(self):
        config = hf_config(t_eff=0.0, n_secure_bits=60)
        for chunk in simulate_session(config).chunks(secure_only=True):
            assert np.array_equal(chunk.wire_voltage, chunk.ac_part)
        attack = AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=100)
        cold, warm = run_column(config, attack, [0.0, teff_of_ueff(10.0, PAIR, config.f_b)])
        assert cold.n_guessed == cold.n_correct == 60
        assert cold == run_point(config, attack)
        lowfreq = AttackConfig(mode=AttackMode.LOW_FREQ)
        assert run_column(make_config(n_secure_bits=60), lowfreq, [0.0])[0].n_secure == 60

    @pytest.mark.parametrize("t_effs", [[-1.0], [1.0, math.nan], [math.inf]])
    def test_bad_temperatures_rejected(self, t_effs):
        with pytest.raises(ConfigurationError, match="t_eff"):
            run_column(make_config(), AttackConfig(mode=AttackMode.LOW_FREQ), t_effs)

    def test_empty_column_has_no_cells(self):
        assert run_column(make_config(), AttackConfig(mode=AttackMode.HIGH_FREQ), []) == []


class TestSweepCsv:
    def test_format(self):
        base = make_config(n_secure_bits=10)
        attack = AttackConfig(mode=AttackMode.LOW_FREQ)
        points = sweep(base, attack, u_eff_grid=[0.5], f_a_list=[318.30])
        buffer = io.StringIO()
        write_sweep_csv(points, base, buffer)
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

    def test_writes_to_path(self, tmp_path):
        base = make_config(n_secure_bits=5)
        attack = AttackConfig(mode=AttackMode.LOW_FREQ)
        points = sweep(base, attack, u_eff_grid=[0.5], f_a_list=[318.30])
        target = tmp_path / "sweep.csv"
        write_sweep_csv(points, base, target)
        assert target.read_text().startswith(",".join(SWEEP_CSV_COLUMNS))
