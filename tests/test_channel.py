"""Tests for the two-party loop model and session simulator."""

import io
import math

import numpy as np
import pytest
from scipy import stats

import kljnsim.channel as channel
from kljnsim import (
    ConfigurationError,
    KljnConfig,
    PeriodicSource,
    ResistorPair,
    ShapeMismatchError,
    simulate_session,
)
from kljnsim.channel import SESSION_CSV_COLUMNS, Situation, dump_session_csv
from kljnsim.noise import BOLTZMANN, generate_unit_gbwn, johnson_rms

from reference import divider_ac, wire_noise

PAIR = ResistorPair(r_low=1.0e3, r_high=1.0e4)


def make_config(**overrides):
    defaults = dict(
        resistors=PAIR,
        t_eff=9.0e15,
        f_b=1.0e5,
        f_c=1.0e3,
        source=PeriodicSource(amplitude=1.0, frequency=318.30),
        seed=42,
        n_secure_bits=50,
    )
    defaults.update(overrides)
    return KljnConfig(**defaults)


class TestSituation:
    def test_letters_and_security(self):
        codes = np.array([Situation.LL, Situation.LH, Situation.HL, Situation.HH])
        assert [Situation(code).name for code in codes] == ["LL", "LH", "HL", "HH"]
        assert channel.secure_mask(codes).tolist() == [False, True, True, False]


class TestResistorPair:
    def test_lookup_and_parallel(self):
        assert (PAIR.r_low, PAIR.r_high) == (1.0e3, 1.0e4)
        assert PAIR.parallel == pytest.approx(1.0e3 * 1.0e4 / 1.1e4, rel=1e-15)

    def test_table_is_the_long_way_algebra(self):
        resistance, gain = PAIR.table
        for code in Situation:
            r_alice = (PAIR.r_low, PAIR.r_high)[code >> 1]
            r_bob = (PAIR.r_low, PAIR.r_high)[code & 1]
            assert gain[code] == divider_ac(r_alice, r_bob, 1.0)
            # Each end's Johnson noise, with variance proportional to its
            # resistance, reaches the wire weighted by the far end's ratio.
            alice = wire_noise(r_alice, r_bob, math.sqrt(r_alice), 0.0)
            bob = wire_noise(r_alice, r_bob, 0.0, math.sqrt(r_bob))
            assert resistance[code] == pytest.approx(alice**2 + bob**2, rel=1e-15)
        assert PAIR.parallel == resistance[Situation.LH] == resistance[Situation.HL]

    def test_table_is_built_once_and_read_only(self):
        pair = ResistorPair(r_low=1.0e3, r_high=1.0e4)
        assert pair.table is pair.table
        assert not pair.table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pair.table[1, Situation.LH] = 0.0

    def test_rejects_bad_ordering(self):
        with pytest.raises(ConfigurationError):
            ResistorPair(r_low=1.0e4, r_high=1.0e3)
        with pytest.raises(ConfigurationError):
            ResistorPair(r_low=0.0, r_high=1.0e3)


class TestKljnConfig:
    def test_samples_per_bit_resolution(self):
        assert make_config().samples_per_bit == 200
        # 2e5 / 300 = 666.67 rounds to nearest integer.
        assert make_config(f_c=300.0).samples_per_bit == 667

    def test_sample_rate_and_period(self):
        config = make_config()
        assert config.sample_rate == 2.0e5
        assert config.period_duration == pytest.approx(1.0e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_config(f_b=400.0)  # below the clock rate
        with pytest.raises(ConfigurationError):
            make_config(t_eff=-1.0)
        with pytest.raises(ConfigurationError):
            make_config(n_secure_bits=0)
        with pytest.raises(ConfigurationError):
            make_config(f_c=0.0)
        with pytest.raises(ConfigurationError, match="frequency"):
            make_config(source=PeriodicSource(amplitude=1.0, frequency=2.0e5))  # above f_b
        # The quietest loop's noise power per kelvin, 4 k_B f_b (r_low / 2), is ~3e-422
        # W/K here, below float64's least subnormal; at 1 kOhm it is subnormal, and runs.
        tiny = dict(f_c=1e-300, f_b=1e-299, source=PeriodicSource(1.0, 1e-300), t_eff=1e10)
        with pytest.raises(ConfigurationError, match=r"r_low = 1e-100 ohm, f_b = 1e-299 Hz"):
            make_config(resistors=ResistorPair(1e-100, 1e-99), **tiny)
        config = make_config(**tiny)
        assert johnson_rms(config.resistors.parallel, config.t_eff, config.f_b) > 0


def session_arrays(session):
    """Every period of a session, with its decomposition, as whole arrays."""
    chunks = list(session.chunks())
    return {
        name: np.concatenate([getattr(chunk, name) for chunk in chunks])
        for name in ("index", "situations", "wire_voltage", "ac_part", "noise_part")
    }


class TestDividerAc:
    def test_equal_resistors_halve(self):
        out = divider_ac(1.0e3, 1.0e3, np.ones(8))
        np.testing.assert_allclose(out, 0.5, rtol=1e-15)

    def test_low_high_ratio(self):
        lh = divider_ac(1.0e3, 1.0e4, np.ones(8))
        hl = divider_ac(1.0e4, 1.0e3, np.ones(8))
        np.testing.assert_allclose(lh, 10.0 / 11.0, rtol=1e-15)
        np.testing.assert_allclose(hl, 1.0 / 11.0, rtol=1e-15)


class TestWireNoise:
    def test_identical_sources_pass_through(self):
        x = generate_unit_gbwn(512, seed=31)
        out = wire_noise(1.0e3, 1.0e4, x, x)
        np.testing.assert_allclose(out, x, rtol=1e-15)

    def test_each_side_weighted_by_far_resistor(self):
        ones = np.ones(16)
        zeros = np.zeros(16)
        from_alice = wire_noise(1.0e3, 1.0e4, ones, zeros)
        from_bob = wire_noise(1.0e3, 1.0e4, zeros, ones)
        np.testing.assert_allclose(from_alice, 10.0 / 11.0, rtol=1e-15)
        np.testing.assert_allclose(from_bob, 1.0 / 11.0, rtol=1e-15)

    def test_rms_matches_parallel_resistance_formula(self):
        n = 1 << 18
        t_eff = 9.0e15
        f_b = 1.0e5
        alice = johnson_rms(1.0e3, t_eff, f_b) * generate_unit_gbwn(n, seed=32)
        bob = johnson_rms(1.0e4, t_eff, f_b) * generate_unit_gbwn(n, seed=33)
        mixed = wire_noise(1.0e3, 1.0e4, alice, bob)
        parallel = 1.0e3 * 1.0e4 / 1.1e4
        expected = math.sqrt(4.0 * BOLTZMANN * t_eff * parallel * f_b)
        assert math.sqrt(np.mean(mixed**2)) == pytest.approx(expected, rel=0.02)


class TestSimulateSession:
    def test_reaches_requested_secure_count(self):
        session = simulate_session(make_config(n_secure_bits=200))
        secure = channel.secure_mask(session.situations)
        assert np.count_nonzero(secure) == 200
        assert secure[-1]  # the session ends on its last secure bit
        # Secure periods arrive at rate ~1/2, so the total sits near double.
        assert 340 <= len(session) <= 480

    def test_situation_frequencies_balanced(self):
        session = simulate_session(make_config(n_secure_bits=500, f_c=1.0e4))
        counts = np.bincount(session.situations, minlength=4)
        for situation in Situation:
            assert 0.20 < counts[situation] / len(session) < 0.30, situation

    def test_deterministic_replay(self):
        a = session_arrays(simulate_session(make_config(n_secure_bits=20)))
        b = session_arrays(simulate_session(make_config(n_secure_bits=20)))
        assert np.array_equal(a["situations"], b["situations"])
        assert np.array_equal(a["wire_voltage"], b["wire_voltage"])

    def test_seed_changes_everything(self):
        a = session_arrays(simulate_session(make_config(n_secure_bits=20, seed=1)))
        b = session_arrays(simulate_session(make_config(n_secure_bits=20, seed=2)))
        assert not np.array_equal(a["wire_voltage"][0], b["wire_voltage"][0])

    def test_wire_is_exact_superposition(self):
        arrays = session_arrays(simulate_session(make_config(n_secure_bits=50)))
        scale = arrays["wire_voltage"].max()
        residual = arrays["wire_voltage"] - (arrays["ac_part"] + arrays["noise_part"])
        assert np.max(np.abs(residual)) <= 1e-12 * scale

    def test_ac_part_follows_divider(self):
        arrays = session_arrays(simulate_session(make_config(n_secure_bits=50)))
        rms = np.sqrt(np.mean(arrays["ac_part"] ** 2, axis=1))
        situations = arrays["situations"]
        assert rms[situations == Situation.LH].min() > rms[situations == Situation.HL].max()

    def test_ac_phase_is_globally_continuous(self):
        config = make_config(n_secure_bits=30)
        arrays = session_arrays(simulate_session(config))
        spb = config.samples_per_bit
        dividers = {
            Situation.LL: 0.5,
            Situation.LH: 10.0 / 11.0,
            Situation.HL: 1.0 / 11.0,
            Situation.HH: 0.5,
        }
        for index, situation, ac in zip(
            arrays["index"], arrays["situations"], arrays["ac_part"]
        ):
            times = (index * spb + np.arange(spb)) / config.sample_rate
            expected = dividers[situation] * np.cos(2.0 * math.pi * config.source.frequency * times)
            np.testing.assert_allclose(ac, expected, atol=1e-12)

    def test_zero_amplitude_silences_ac_part(self):
        config = make_config(source=PeriodicSource(amplitude=0.0, frequency=318.30))
        assert np.all(session_arrays(simulate_session(config))["ac_part"] == 0.0)

    def test_every_chunk_carries_its_parts(self):
        session = simulate_session(make_config(n_secure_bits=5))
        for chunk in session.chunks():
            assert chunk.noise_part.shape == chunk.wire_voltage.shape

    def test_noise_level_tracks_parallel_resistance(self):
        arrays = session_arrays(simulate_session(make_config(n_secure_bits=300)))
        power = np.mean(arrays["noise_part"] ** 2, axis=1)
        mean_power = {s: np.mean(power[arrays["situations"] == s]) for s in Situation}
        # LL parallel resistance is 500 ohm, HH is 5000 ohm: power ratio 10.
        assert mean_power[Situation.HH] / mean_power[Situation.LL] == pytest.approx(10.0, rel=0.15)
        # Both secure situations share the same 909.1 ohm parallel value.
        assert mean_power[Situation.LH] / mean_power[Situation.HL] == pytest.approx(1.0, rel=0.15)


@pytest.fixture(scope="module")
def silent_source_session():
    """Parts of a source-free session, long enough for over 3e5 samples per situation."""
    config = make_config(source=PeriodicSource(amplitude=0.0, frequency=318.30), n_secure_bits=3600)
    return config, session_arrays(simulate_session(config))


class TestDecomposition:
    """Each situation's noise part against the loop's closed form."""

    @pytest.mark.parametrize("situation", list(Situation))
    def test_matches_closed_form(self, situation, silent_source_session):
        config, arrays = silent_source_session
        noise = arrays["noise_part"][arrays["situations"] == situation].ravel()
        assert noise.size >= 3e5
        r_alice = (PAIR.r_low, PAIR.r_high)[situation >> 1]
        r_bob = (PAIR.r_low, PAIR.r_high)[situation & 1]
        scale = 4.0 * BOLTZMANN * config.t_eff * config.f_b
        # 2% is about 7 standard errors of a variance over 3e5 samples.
        parallel = r_alice * r_bob / (r_alice + r_bob)
        assert np.var(noise) == pytest.approx(scale * parallel, rel=0.02)


def band_mask(spb, lo, hi):
    """rfft bins lo..hi (inclusive) of a spb-sample period."""
    mask = np.zeros(spb // 2 + 1, dtype=bool)
    mask[lo : hi + 1] = True
    return mask


@pytest.fixture(scope="module", params=[500.0, 2.0e5 / 401], ids=["even-N", "odd-N"])
def drawn_band(request):
    """10^5 secure periods' band draws over the top 11 bins, reaching f_b."""
    config = make_config(f_c=request.param, n_secure_bits=100_000)
    spb = config.samples_per_bit
    mask = band_mask(spb, spb // 2 - 10, spb // 2)
    bands = [band for _, _, band in simulate_session(config).secure_bands(mask)]
    return spb, np.concatenate(bands)


class TestSecureBands:
    """The drawn band against the law of the 1/N DFT of N standard normals.

    Bounds are fixed at a family-wise false-alarm rate under 1e-3: each
    variance and correlation check is a 5-sigma test (two-sided tail 6e-7,
    about 490 of them) and each KS test rejects below p = 1e-5 (22 tests).
    """

    def test_component_variances(self, drawn_band):
        spb, bands = drawn_band
        n = bands.shape[0]
        assert n >= 100_000
        interior = bands[:, :-1] if spb % 2 == 0 else bands
        components = np.concatenate([interior.real, interior.imag], axis=1)
        variance = 1.0 / (2 * spb)
        # The mean square of n normals of variance v has standard error v sqrt(2/n).
        error = np.mean(components**2, axis=0) - variance
        assert np.all(np.abs(error) < 5.0 * variance * math.sqrt(2.0 / n))
        if spb % 2 == 0:  # the Nyquist bin is real with variance 1/N
            nyquist = bands[:, -1]
            assert np.all(nyquist.imag == 0.0)
            error = np.mean(nyquist.real**2) - 1.0 / spb
            assert abs(error) < 5.0 / spb * math.sqrt(2.0 / n)

    def test_components_uncorrelated(self, drawn_band):
        spb, bands = drawn_band
        n = bands.shape[0]
        parts = [bands.real, bands.imag[:, :-1] if spb % 2 == 0 else bands.imag]
        correlation = np.corrcoef(np.concatenate(parts, axis=1), rowvar=False)
        off_diagonal = correlation[~np.eye(correlation.shape[0], dtype=bool)]
        assert np.all(np.abs(off_diagonal) < 5.0 / math.sqrt(n))

    def test_bin_powers_follow_chi_square(self, drawn_band):
        spb, bands = drawn_band
        power = np.abs(bands) ** 2
        if spb % 2 == 0:
            assert stats.kstest(spb * power[:, -1], "chi2", args=(1,)).pvalue > 1e-5
            power = power[:, :-1]
        for column in 2 * spb * power.T:
            assert stats.kstest(column, "chi2", args=(2,)).pvalue > 1e-5

    def test_does_not_depend_on_chunk_size(self, monkeypatch):
        session = simulate_session(make_config(f_c=500.0, n_secure_bits=300))
        secure = np.flatnonzero(channel.secure_mask(session.situations))
        mask = band_mask(400, 190, 200)
        draws = []
        for size in (1, 7, 128):
            monkeypatch.setattr(channel, "CHUNK_PERIODS", size)
            index, codes, bands = (np.concatenate(a) for a in zip(*session.secure_bands(mask)))
            assert np.array_equal(index, secure)
            assert np.array_equal(codes, session.situations[index])
            draws.append(bands)
        assert np.array_equal(draws[0], draws[1]) and np.array_equal(draws[0], draws[2])

    def test_each_run_holds_one_block_of_periods(self):
        session = simulate_session(make_config(f_c=500.0, n_secure_bits=300))
        block = 2 * channel.CHUNK_PERIODS
        runs = [index for index, _, _ in session.secure_bands(band_mask(400, 190, 200))]
        blocks = range(-(-len(session) // block))  # one run per block, the last one partial
        assert [(run[0] // block, run[-1] // block) for run in runs] == [(k, k) for k in blocks]
        secure = np.flatnonzero(channel.secure_mask(session.situations))
        assert np.array_equal(np.concatenate(runs), secure)

    @pytest.mark.parametrize("mask", [band_mask(402, 1, 3), band_mask(400, 0, 3)], ids=["shape", "dc"])
    def test_mask_outside_the_non_dc_bins_rejected(self, mask):
        session = simulate_session(make_config(f_c=500.0, n_secure_bits=3))
        with pytest.raises(ShapeMismatchError, match="DC excluded"):
            next(session.secure_bands(mask))


class TestSessionCsv:
    def test_header_and_roundtrip(self):
        session = simulate_session(make_config(n_secure_bits=3))
        buffer = io.StringIO()
        dump_session_csv(session, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == ",".join(SESSION_CSV_COLUMNS)
        spb = make_config().samples_per_bit
        assert len(lines) == 1 + spb * len(session)
        arrays = session_arrays(session)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == Situation(arrays["situations"][0]).name
        assert first[2] == "0"
        # 17 significant digits reproduce float64 exactly.
        assert float(first[3]) == arrays["wire_voltage"][0, 0]
        assert float(first[4]) == arrays["ac_part"][0, 0]
        assert float(first[5]) == arrays["noise_part"][0, 0]
