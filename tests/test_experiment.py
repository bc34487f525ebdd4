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
    default_u_eff_grid,
    generate_unit_gbwn,
    mix_seed,
    notch_filter,
    periodogram,
    run_point,
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

    def test_lf_requires_source_knowledge(self):
        config = make_config()
        attack = AttackConfig(mode=AttackMode.LOW_FREQ, eve_knows_source=False)
        with pytest.raises(ConfigurationError):
            run_point(config, attack)

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
            seed=mix_seed(base.seed, 0, 0),
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
        grown = sweep(base, attack, u_eff_grid=[0.1, 1.0, 10.0], f_a_list=[318.30])
        assert short == grown[:2]

    def test_default_grid(self):
        grid = default_u_eff_grid()
        assert len(grid) == 25
        assert grid[0] == pytest.approx(0.01, rel=1e-12)
        assert grid[-1] == pytest.approx(100.0, rel=1e-12)
        assert np.all(np.diff(np.log(grid)) > 0)


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
