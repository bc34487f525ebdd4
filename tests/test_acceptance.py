"""End-to-end acceptance gate.

Each test exercises one committed behavior of the simulator at its stated
tolerance and queues a one-line verdict; pytest prints the collected lines
as an "acceptance criteria" block after the run.  The fixed seeds make
every verdict reproducible.
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from kljnsim import (
    KljnConfig,
    Notch,
    PeriodicSource,
    ResistorPair,
    SpectralAttack,
    ThresholdAttack,
    run_point,
    simulate_session,
    sweep,
    teff_of_ueff,
)
from kljnsim.attacks import (
    hf_ac_power,
    hf_decide,
    hf_prepare,
    hf_source_band,
    lf_gamma,
    lf_threshold,
)
from kljnsim.channel import Situation, secure_mask, source_samples
from kljnsim.cli import resolve
from kljnsim.experiment import notch_filter, u_eff_of_teff
from kljnsim.noise import johnson_rms, mix_seed, periodogram

from reference import divider_ac, hf_band

PAIR = ResistorPair(r_low=1.0e3, r_high=1.0e4)
CHANCE_BAND = (0.45, 0.55)  # binomial 3 sigma around 0.5 at 1000 bits

# Wire noise rms at T_eff = 9e15 K, 100 kHz band, 909.09 ohm parallel pair.
WIRE_RMS_9E15 = 6.7219696788691605


def lf_base(**overrides):
    """Channel at the threshold-attack operating point (318.30 Hz source)."""
    defaults = dict(
        resistors=PAIR,
        t_eff=9.0e15,
        f_b=1.0e5,
        f_c=1.0e3,
        source=PeriodicSource(amplitude=1.0, frequency=318.30),
        seed=42,
        n_secure_bits=1000,
    )
    defaults.update(overrides)
    return KljnConfig(**defaults)


def hf_base(**overrides):
    """Channel at the spectral-attack operating point (2 kHz source)."""
    defaults = dict(
        resistors=PAIR,
        t_eff=9.0e15,
        f_b=1.0e5,
        f_c=500.0,
        source=PeriodicSource(amplitude=1.0, frequency=2000.0),
        seed=42,
        n_secure_bits=1000,
    )
    defaults.update(overrides)
    return KljnConfig(**defaults)


def at_noise_level(config, u_eff):
    return dataclasses.replace(config, t_eff=teff_of_ueff(u_eff, PAIR, config.f_b))


def verdict(log, name, ok, detail):
    log(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def spectral_sweep():
    """Full spectral-attack sweep: 25 noise levels x 3 source frequencies."""
    return sweep(
        hf_base(),
        SpectralAttack(),
        u_eff_grid=[float(u) for u in np.logspace(-2.0, 2.0, 25)],
        f_a_list=[2000.0, 16000.0, 32000.0],
        max_workers=4,
    )


def test_null_control_both_modes(acceptance_log):
    lf = run_point(
        lf_base(source=PeriodicSource(amplitude=0.0, frequency=318.30)),
        ThresholdAttack(),
    )
    hf = run_point(
        hf_base(source=PeriodicSource(amplitude=0.0, frequency=2000.0)),
        SpectralAttack(),
    )
    ok = (
        CHANCE_BAND[0] <= lf.p <= CHANCE_BAND[1]
        and CHANCE_BAND[0] <= hf.p <= CHANCE_BAND[1]
    )
    verdict(
        acceptance_log,
        "null control at zero amplitude",
        ok,
        f"LF p={lf.p:.3f} with {lf.n_guessed} guesses, HF p={hf.p:.3f}, bounds [0.45, 0.55]",
    )


def test_threshold_attack_low_noise_endpoint(acceptance_log):
    start = time.perf_counter()
    outcome = run_point(at_noise_level(lf_base(), 0.01), ThresholdAttack())
    elapsed = time.perf_counter() - start
    ok = outcome.p >= 0.99 and elapsed < 10.0
    verdict(
        acceptance_log,
        "threshold attack at u_eff = 0.01 V",
        ok,
        f"p={outcome.p:.4f} >= 0.99, runtime {elapsed:.2f} s < 10 s",
    )


def test_threshold_attack_high_noise_endpoint(acceptance_log):
    outcome = run_point(at_noise_level(lf_base(), 100.0), ThresholdAttack())
    ok = CHANCE_BAND[0] <= outcome.p <= CHANCE_BAND[1]
    verdict(
        acceptance_log,
        "threshold attack at u_eff = 100 V",
        ok,
        f"p={outcome.p:.4f} in [0.45, 0.55]",
    )


def test_spectral_attack_endpoints(acceptance_log, spectral_sweep):
    curve = [pt for pt in spectral_sweep if pt.config.source.frequency == 2000.0]
    low, high = curve[0], curve[-1]
    ok = (
        low.u_eff == pytest.approx(0.01)
        and high.u_eff == pytest.approx(100.0)
        and low.p >= 0.99
        and CHANCE_BAND[0] <= high.p <= CHANCE_BAND[1]
    )
    verdict(
        acceptance_log,
        "spectral attack endpoints at 2 kHz",
        ok,
        f"p={low.p:.4f} at 0.01 V, p={high.p:.4f} at 100 V",
    )


def spectral_oracle(config, prep):
    """Closed-form p of the spectral attack, conditioned on the rehearsal ``prep``.

    Over the M band bins, sum |W_m|^2 / v with v = sigma^2 / (2N) is
    noncentral chi-square with 2M degrees of freedom and noncentrality
    lambda = gain^2 sum |A_m|^2 / v (Kay 1998), for source band A_m.  The
    attack says LH when that sum exceeds x = (M ac_threshold + t_eff sum
    background) / v; LH and HL are equally likely.
    """
    assert not prep.mask[-1]  # no real Nyquist bin, which would add a chi-square_1 term
    m = np.count_nonzero(prep.mask)
    sigma = johnson_rms(PAIR.parallel, config.t_eff, config.f_b)
    v = sigma**2 / (2 * config.samples_per_bit)
    band = hf_source_band(config, np.arange(1000), prep.mask)
    power = np.sum(np.abs(band) ** 2, axis=1)
    # The sources sit on a bin, so lambda is the same in every period.
    assert np.ptp(power) <= 1e-9 * power.mean()
    x = (m * prep.ac_threshold + config.t_eff * np.sum(prep.noise_background)) / v
    lam_lh, lam_hl = PAIR.table[1, [Situation.LH, Situation.HL]] ** 2 * power.mean() / v
    return 0.5 * (stats.ncx2.sf(x, 2 * m, lam_lh) + stats.ncx2.cdf(x, 2 * m, lam_hl))


def test_dc_limit_matches_the_binomial_law(acceptance_log):
    # At f_a = 0 the source is the constant A and the threshold the constant
    # theta = kappa A (phase 0).  A sample of a secure period in situation s
    # crosses theta with q_s = Phi((g_s A - theta) / sigma), so the period's
    # crossing count is Binomial(N, q_s): LH above N/2, HL below it and
    # undetermined at exactly N/2.  Given the session's LH and HL counts,
    # n_guessed and n_correct are sums of independent Bernoullis.  Max |z| of
    # both counts over 16 cells, each at its own seed, two-sided with
    # Bonferroni at family-wise alpha = 1e-3.
    alpha, grid = 1e-3, np.logspace(-1.0, 2.0, 16)
    bound = float(stats.norm.isf(alpha / (2 * 2 * grid.size)))
    attack = ThresholdAttack()
    base = lf_base(source=PeriodicSource(amplitude=1.0, frequency=0.0), n_secure_bits=4000)
    n = base.samples_per_bit
    theta = attack.kappa * base.source.amplitude
    worst, worst_at = 0.0, ""
    for cell, u_eff in enumerate(grid):
        config = dataclasses.replace(at_noise_level(base, u_eff), seed=mix_seed(42, cell))
        sigma = johnson_rms(PAIR.parallel, config.t_eff, config.f_b)
        situations = simulate_session(config).situations
        moments = np.zeros((2, 2))  # mean and variance of n_guessed, then of n_correct
        for code in (Situation.LH, Situation.HL):
            q = stats.norm.cdf((PAIR.table[1, code] * base.source.amplitude - theta) / sigma)
            tie = stats.binom.pmf(n // 2, n, q)
            if code == Situation.LH:
                right = stats.binom.sf(n // 2, n, q)  # more than N/2 crossings
            else:
                right = stats.binom.cdf(n // 2 - 1, n, q)  # fewer than N/2
            count = np.count_nonzero(situations == code)
            for row, p in enumerate((1.0 - tie, right)):
                moments[row] += count * p, count * p * (1.0 - p)
        outcome = run_point(config, attack)
        for name, observed, (mean, variance) in zip(
            ("n_guessed", "n_correct"), (outcome.n_guessed, outcome.n_correct), moments
        ):
            gap = abs(observed - mean)
            z = gap / math.sqrt(variance) if variance > 0.0 else (0.0 if gap < 1e-9 else math.inf)
            if z >= worst:
                worst, worst_at = z, f"{name} {observed} vs {mean:.1f} at {u_eff:.3g} V"
    verdict(
        acceptance_log,
        "threshold attack at f_a = 0 against the binomial law",
        worst <= bound,
        f"max |z| {worst:.2f} ({worst_at}) over 2 counts x {grid.size} cells; bound "
        f"{bound:.2f} (alpha {alpha:g})",
    )


def test_spectral_crossover_ordering(acceptance_log):
    # Near p = 0.75, 4 V.  The 2 kHz default band is clipped at the first
    # non-DC bin to 9 bins against 11 at 16 and 32 kHz; fewer noise bins
    # make 2 kHz the stronger attack, so its p must be the higher one.
    attack = SpectralAttack()
    base = at_noise_level(hf_base(seed=3, n_secure_bits=40_000), 4.0)
    measured, details, ok = {}, [], True
    for f_a in (2000.0, 16000.0, 32000.0):
        config = dataclasses.replace(base, source=PeriodicSource(amplitude=1.0, frequency=f_a))
        prep = hf_prepare(config, attack)
        outcome = run_point(config, attack, rehearsal=prep)
        predicted = spectral_oracle(config, prep)
        sd = math.sqrt(predicted * (1.0 - predicted) / outcome.n_guessed)
        ok &= abs(outcome.p - predicted) <= 4.0 * sd
        measured[f_a] = outcome.p
        details.append(f"{f_a/1000:g} kHz p={outcome.p:.4f} vs {predicted:.4f}")
    ok &= measured[2000.0] > measured[16000.0]
    verdict(
        acceptance_log,
        "spectral attack at 4 V against the closed form",
        ok,
        ", ".join(details) + " (4 binomial sd), and 2 kHz above 16 kHz",
    )


def secure_rows(session, name):
    """One array per chunk of the session, secure periods only, stacked."""
    return np.concatenate(
        [getattr(chunk, name)[secure_mask(chunk.situations)] for chunk in session.chunks()]
    )


def test_wire_noise_level_matches_formula(acceptance_log):
    secure = secure_rows(simulate_session(lf_base(n_secure_bits=600)), "noise_part")
    assert len(secure) >= 500
    measured = float(np.sqrt(np.mean(secure**2)))
    ok = abs(measured / WIRE_RMS_9E15 - 1.0) < 0.02
    verdict(
        acceptance_log,
        "wire noise rms over secure periods",
        ok,
        f"measured {measured:.4f} V vs {WIRE_RMS_9E15:.4f} V over {len(secure)} periods, 2%",
    )


def test_wire_voltage_superposition(acceptance_log):
    worst = 0.0
    for chunk in simulate_session(lf_base(n_secure_bits=200)).chunks():
        residual = np.max(
            np.abs(chunk.wire_voltage - (chunk.ac_part + chunk.noise_part)), axis=1
        )
        scale = np.maximum(1.0, np.max(np.abs(chunk.wire_voltage), axis=1))
        worst = max(worst, float(np.max(residual / scale)))
    ok = worst <= 1e-12
    verdict(
        acceptance_log,
        "wire voltage superposition",
        ok,
        f"worst per-period relative residual {worst:.2e} <= 1e-12",
    )


def test_noise_generator_quality(acceptance_log):
    # The unit wire noise runs draw: 2^20 samples of a fig5-geometry
    # session's secure periods, 200 samples each, read as one trace.
    n, f_b = 1 << 20, 1.0e5
    session = simulate_session(lf_base(seed=1, n_secure_bits=5243))
    x = np.concatenate([unit.ravel() for _, _, unit in session.secure_noise()])[:n]
    assert x.size == n
    bins = periodogram(x)
    x = x - x.mean()
    kurtosis = float(np.mean(x**4) / np.mean(x**2) ** 2 - 3.0)

    freqs = np.arange(bins.size) * (2.0 * f_b) / n
    out_fraction = float(bins[freqs > f_b].sum() / bins.sum())

    keep = (freqs >= f_b / 1000.0) & (freqs <= f_b)
    level = bins[keep].mean()
    flatness = max(
        abs(bins[(freqs >= lo) & (freqs <= hi)].mean() / level - 1.0)
        for lo, hi in [(f_b / 1000.0, f_b / 100.0), (f_b / 100.0, f_b / 10.0), (f_b / 10.0, f_b)]
    )
    ok = abs(kurtosis) < 0.05 and out_fraction < 1e-3 and flatness < 0.05
    verdict(
        acceptance_log,
        "secure-period unit noise quality at 2^20 samples",
        ok,
        f"excess kurtosis {kurtosis:+.4f} (|.|<0.05), out-of-band {out_fraction:.1e} (<1e-3), "
        f"flatness {flatness:.3f} (<0.05)",
    )


def test_attack_micro_oracles(acceptance_log):
    checks = []

    gamma = lf_gamma(np.array([0.2, -0.1, 0.5, 0.3]), 0.25)
    checks.append(("gamma hand count", gamma == 0.5))

    omega_tau = 2.0 * math.pi * 318.30 * 1.0e-3
    analytic = math.sin(omega_tau) / omega_tau
    got = lf_threshold(PeriodicSource(amplitude=1.0, frequency=318.30), 0, 1.0e-3, 1.0)
    checks.append(("threshold analytic", abs(got / analytic - 1.0) < 1e-9))

    ones = np.ones(8)
    checks.append(
        (
            "divider amplitudes",
            np.allclose(divider_ac(1.0e3, 1.0e4, ones), 10.0 / 11.0, rtol=1e-15)
            and np.allclose(divider_ac(1.0e4, 1.0e3, ones), 1.0 / 11.0, rtol=1e-15),
        )
    )

    noise_free = hf_base(t_eff=0.0, n_secure_bits=30)
    prep = hf_prepare(noise_free, SpectralAttack(ensemble_size=100))
    session = simulate_session(noise_free)
    perfect = np.array_equal(
        hf_decide(hf_ac_power(hf_band(secure_rows(session, "wire_voltage"), prep), prep, 0), prep),
        session.situations[secure_mask(session.situations)],
    )
    checks.append(("noise-free spectral count", perfect))

    level = u_eff_of_teff(9.0e15, PAIR, 1.0e5)
    checks.append(("noise level formula", abs(level / WIRE_RMS_9E15 - 1.0) < 1e-9))

    failed = [name for name, ok in checks if not ok]
    verdict(
        acceptance_log,
        "attack micro-oracles",
        not failed,
        "all of "
        + ", ".join(name for name, _ in checks)
        + (f"; failed: {failed}" if failed else ""),
    )


def phi(x):
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def sweep_ceilings(base, f_a_list, points, notch=None):
    """Matched-filter ceiling on p of each point of ``sweep(base, ..., f_a_list, ...)``.

    In secure period i Eve sees g s_i + w: g one of the two secure gains,
    s_i the known sampled source and w white noise of rms sigma, alike in
    LH and HL.  With equal priors the best test is the matched filter,
    right with probability Phi(|g_LH - g_HL| ||P s_i|| / (2 sigma)) (Kay
    1998, ch. 4), where P is the notch's projection or the identity.  A
    cell's ceiling is the mean over its column's secure periods.
    """
    g_lh, g_hl = base.resistors.table[1, [Situation.LH, Situation.HL]].tolist()
    gap = abs(g_lh - g_hl)
    half_gaps = {}
    for i, f_a in enumerate(f_a_list):
        periodic = dataclasses.replace(base.source, frequency=f_a)
        column = dataclasses.replace(base, seed=mix_seed(base.seed, i), source=periodic)
        secure = secure_mask(simulate_session(column).situations)
        samples = source_samples(column, np.flatnonzero(secure))
        if notch is not None:
            samples = notch_filter(samples, notch.bins(column))
        half_gaps[f_a] = (gap / 2.0 * np.linalg.norm(samples, axis=1)).tolist()
    ceilings = []
    for point in points:
        f_a = point.config.source.frequency
        ceilings.append(float(np.mean([phi(x / point.u_eff) for x in half_gaps[f_a]])))
    return ceilings


def test_no_cell_beats_the_matched_filter(acceptance_log):
    # One-sided over the 300 cells of the four preset grids at seed 42, with
    # Bonferroni at family-wise alpha = 1e-3.  An undetermined bit counts as
    # a coin flip: a rule that abstains can beat the Bayes accuracy on the
    # bits it does guess, but not once its abstentions are guessed.
    alpha, n_cells = 1e-3, 300
    bound = float(stats.norm.isf(alpha / n_cells))
    details, worst, cells = [], -math.inf, 0
    for command in ("sweep", "defend"):
        for preset in ("fig5", "fig6"):
            setup = resolve(command, preset=preset)
            notch = setup.defense if isinstance(setup.defense, Notch) else None
            points = sweep(setup.config, setup.attack, setup.u_eff_grid, setup.f_a_list,
                           defense=setup.defense)
            ceilings = sweep_ceilings(setup.config, setup.f_a_list, points, notch)
            z_max = -math.inf
            for out, ceiling in zip(points, ceilings):
                p_flip = (out.n_correct + 0.5 * (out.n_secure - out.n_guessed)) / out.n_secure
                variance = ceiling * (1.0 - ceiling)
                if variance == 0.0:
                    z = 0.0 if p_flip <= ceiling else math.inf
                else:
                    z = (p_flip - ceiling) / math.sqrt(variance / out.n_secure)
                z_max = max(z_max, z)
            cells += len(points)
            worst = max(worst, z_max)
            details.append(f"{command} {preset} {z_max:+.2f}")
    verdict(
        acceptance_log,
        "no cell beats its matched-filter ceiling",
        cells == n_cells and worst <= bound,
        f"max z by grid: {', '.join(details)}; bound {bound:.2f} "
        f"(alpha {alpha:g} over {cells} cells)",
    )


def test_notch_defense_stops_threshold_and_spectral_attacks(acceptance_log):
    grid = [float(u) for u in np.logspace(-2.0, 2.0, 25)[6:]]
    assert grid[0] == pytest.approx(0.1)
    lf_points = sweep(
        lf_base(),
        ThresholdAttack(),
        u_eff_grid=grid,
        f_a_list=[318.30],
        defense=Notch(1.0e3),
        max_workers=4,
    )
    hf_points = sweep(
        hf_base(),
        SpectralAttack(),
        u_eff_grid=grid,
        f_a_list=[2000.0],
        defense=Notch(500.0),
        max_workers=4,
    )
    lf_p = [pt.p for pt in lf_points]
    hf_p = [pt.p for pt in hf_points]
    # The notch stops the threshold attack, not the leak: the fig5 source
    # sits off the bin grid, so part of it survives the notch.
    lf_ceiling = sweep_ceilings(lf_base(), [318.30], lf_points, Notch(1.0e3))
    ok = all(CHANCE_BAND[0] <= p <= CHANCE_BAND[1] for p in lf_p + hf_p)
    verdict(
        acceptance_log,
        "notch defense stops the threshold and spectral attacks across u_eff >= 0.1 V",
        ok,
        f"LF p in [{min(lf_p):.3f}, {max(lf_p):.3f}], "
        f"HF p in [{min(hf_p):.3f}, {max(hf_p):.3f}], bounds [0.45, 0.55], "
        f"{len(lf_p) + len(hf_p)} cells; notched LF matched-filter ceiling "
        f"in [{min(lf_ceiling):.3f}, {max(lf_ceiling):.3f}]",
    )


def test_cli_byte_identical_reruns(acceptance_log, tmp_path):
    outputs = []
    for threads, name in ((1, "serial.csv"), (4, "parallel.csv")):
        target = tmp_path / name
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "kljnsim",
                "sweep",
                "--preset",
                "fig5",
                "--seed",
                "42",
                "--threads",
                str(threads),
                "--out",
                str(target),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(target.read_bytes())
    identical = outputs[0] == outputs[1]
    rows = outputs[0].decode().count("\n") - 1
    verdict(
        acceptance_log,
        "byte-identical sweep reruns across --threads",
        identical and rows == 75,
        f"{rows} data rows, serial vs 4-thread outputs "
        + ("match byte for byte" if identical else "differ"),
    )
