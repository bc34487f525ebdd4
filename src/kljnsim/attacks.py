"""Eavesdropper protocols exploiting the parasitic periodic source.

Two regimes, split by where the source frequency sits relative to the
clock frequency:

* Below the clock (many periods per source cycle) the source is nearly
  constant within a period, so it shifts the wire voltage's mean.  Eve
  integrates the known source over each period to form a threshold and
  compares the fraction of wire samples above it against one half.

* Above the clock (many source cycles per period) the shift averages
  out, but the source stands out spectrally.  Eve rehearses offline on
  her own simulations (she knows every public parameter, only the
  resistor coins are secret): she tabulates the expected noise spectrum
  and the two possible divider-scaled source band powers, then classifies
  each measured period by background-subtracted band power against the
  midpoint of the two.

Eve's rehearsal uses a seed stream disjoint from the victim session, so
she never replays the exact noise she is attacking.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, floor, pi
from typing import ClassVar

import numpy as np

from .channel import (
    SCALE_LIMIT, KljnConfig, PeriodicSource, Situation, period_batches, source_basis
)
from .errors import ConfigurationError
from .noise import Stream, johnson_rms, stream, unit_band_noise
from .noise import generate_unit_gbwn, periodogram  # noqa: F401  (bench/child.py traces them here)

__all__ = [
    "HfPreparation",
    "LfDecision",
    "SpectralAttack",
    "ThresholdAttack",
    "UNDETERMINED",
    "default_band",
    "hf_ac_power",
    "hf_decide",
    "hf_prepare",
    "hf_source_band",
    "lf_decide",
    "lf_gamma",
    "lf_threshold",
    "resolve_band",
]

UNDETERMINED = -1  # guess of a period either attack cannot call, on its decision boundary


@dataclass(frozen=True)
class ThresholdAttack:
    """The low-frequency protocol: a threshold test on each period's samples.

    Attributes:
        kappa: Threshold scale.  One half places the threshold between the
            two divider-scaled source means; the textbook value 1.0 sits
            above both and is kept available for comparison runs.
    """

    mode: ClassVar[str] = "lowfreq"  # its name in CSV rows and config files
    kappa: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.kappa <= SCALE_LIMIT:
            raise ConfigurationError(f"kappa must lie in (0, {SCALE_LIMIT:g}], got {self.kappa}")


@dataclass(frozen=True)
class SpectralAttack:
    """The high-frequency protocol: band power against a rehearsed midpoint.

    Attributes:
        ensemble_size: Rehearsal periods for the spectral background,
            at least 100.
        band_lo, band_hi: Optional explicit spectral window in Hz, given
            together; when omitted the window is centered on the source
            frequency, see :func:`default_band`.
    """

    mode: ClassVar[str] = "highfreq"  # its name in CSV rows and config files
    ensemble_size: int = 1000
    band_lo: float | None = None
    band_hi: float | None = None

    def __post_init__(self) -> None:
        if self.ensemble_size < 100:
            raise ConfigurationError(
                f"ensemble_size must be at least 100, got {self.ensemble_size}"
            )
        if (self.band_lo is None) != (self.band_hi is None):
            raise ConfigurationError("band_lo and band_hi must be given together")
        if self.band_lo is not None and not 0 < self.band_lo < self.band_hi:
            raise ConfigurationError(
                f"band needs 0 < band_lo < band_hi, got {self.band_lo}, {self.band_hi}"
            )


@dataclass(frozen=True)
class LfDecision:
    """Outcome of the threshold-crossing test, one entry per period.

    ``guess`` holds the guessed situation code (LH or HL), or UNDETERMINED
    where the threshold is exactly zero or the crossing fraction exactly
    one half; those periods are discarded from the accuracy accounting
    entirely.
    """

    guess: np.ndarray
    gamma: np.ndarray
    threshold: np.ndarray


@dataclass(frozen=True)
class HfPreparation:
    """Eve's rehearsed spectral reference.

    Attributes:
        noise_background: Ensemble-averaged power of the noise-only wire
            voltage in each band bin of one bit period, at unit temperature
            (1 K); noise power is proportional to t_eff.
        ac_threshold: Midpoint of the band-averaged source power in the
            two secure situations.
        ensemble_size: Number of rehearsal periods averaged.
        mask: The rfft bins of one period inside the band, DC excluded;
            ``noise_background`` holds one value per bin it selects.
    """

    noise_background: np.ndarray
    ac_threshold: float
    ensemble_size: int
    mask: np.ndarray


def lf_threshold(
    source: PeriodicSource, period_index, tau: float, kappa: float
) -> np.ndarray:
    """Decision threshold per period: kappa times the source's mean.

    Period ``i`` spans [i*tau, (i+1)*tau] with i counted from 0.  The mean
    is evaluated in closed form; when a period holds an exactly integer
    number of source cycles the mean is exactly zero, and zero is returned
    as such so downstream discarding triggers reliably.

    Args:
        source: The known parasitic source.
        period_index: 0-based period number, or an array of them.
        tau: Period length in seconds, positive.
        kappa: Threshold scale, positive.

    Returns:
        Thresholds in volts, shaped like ``period_index``; sign matters,
        zero means "cannot decide".
    """
    index = np.asarray(period_index)
    if source.frequency == 0.0:
        return np.full(index.shape, kappa * source.amplitude * cos(source.phase))
    cycles = source.frequency * tau
    if cycles == floor(cycles):
        return np.zeros(index.shape)
    omega = 2.0 * pi * source.frequency
    t_end = (index + 1) * tau
    t_start = t_end - tau
    mean = (np.sin(omega * t_end + source.phase) - np.sin(omega * t_start + source.phase)) / (
        omega * tau
    )
    return kappa * source.amplitude * mean


def lf_gamma(wire: np.ndarray, threshold) -> np.ndarray:
    """Fraction of each period's wire samples strictly above its threshold.

    ``wire`` holds one period per row (samples along the last axis) and
    ``threshold`` one value per row.
    """
    wire = np.asarray(wire)
    above = wire > np.asarray(threshold)[..., None]
    return np.count_nonzero(above, axis=-1) / wire.shape[-1]


def lf_decide(threshold, gamma) -> LfDecision:
    """Classify periods from their thresholds and crossing fractions.

    A positive threshold with a majority of samples above it (or a negative
    threshold with a minority) points to the situation where Bob holds the
    high resistor and the divider passes most of the source.  Exact zero
    threshold or exact half crossing leaves the period undetermined.
    """
    threshold = np.asarray(threshold, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    called = np.where((threshold > 0.0) == (gamma > 0.5), Situation.LH, Situation.HL)
    guess = np.where((threshold == 0.0) | (gamma == 0.5), UNDETERMINED, called)
    return LfDecision(guess, gamma, threshold)


def default_band(f_a: float, bin_width: float, f_b: float) -> tuple[float, float]:
    """Spectral window of five bins on each side of the source frequency.

    Clipped to the open-DC interval (0, f_b]: the lower edge never goes
    below the first non-DC bin and the upper edge never beyond the noise
    bandwidth.  For source frequencies within five bins of DC this makes
    the usable window asymmetric and smaller, which genuinely weakens the
    spectral protocol near the clock frequency.
    """
    if not 0 < f_a <= f_b:
        raise ConfigurationError(f"source frequency f_a must lie in (0, {f_b:g}], got {f_a}")
    lo = max(f_a - 5.0 * bin_width, bin_width)
    hi = min(f_b, f_a + 5.0 * bin_width)
    if not lo < hi:
        raise ConfigurationError(
            f"degenerate spectral window [{lo}, {hi}] for f_a={f_a}"
        )
    return (lo, hi)


def resolve_band(config: KljnConfig, attack: SpectralAttack) -> np.ndarray:
    """The rfft bins, DC excluded, of the attack's explicit band, else of :func:`default_band`.

    Raises:
        ConfigurationError: If the band reaches outside (0, f_b] or holds
            no bins.
    """
    lo, hi, freqs = attack.band_lo, attack.band_hi, config.bin_frequencies
    if lo is None:
        lo, hi = default_band(config.source.frequency, freqs[1], config.f_b)
    elif hi > config.f_b:
        raise ConfigurationError(f"band_hi {hi} exceeds noise bandwidth {config.f_b}")
    mask = (freqs >= lo) & (freqs <= hi)
    mask[0] = False  # DC bin never contributes to band averages
    if not np.any(mask):
        raise ConfigurationError(f"band_lo..band_hi [{lo}, {hi}] holds no spectrum bins")
    return mask


def hf_prepare(config: KljnConfig, attack: SpectralAttack) -> HfPreparation:
    """Rehearse the spectral attack offline.

    Simulates ``attack.ensemble_size`` secure periods from one rehearsal
    stream disjoint from the session's, batch by batch like a session.  LH
    and HL share the same wire noise, one Johnson noise of r_low and r_high
    in parallel, so each member draws its band bins once, as a session
    period does.  Produces the ensemble-averaged noise power per band bin
    and the midpoint threshold between the band-averaged source power with
    the divider the two situations would apply.  The divider only scales
    the source, so each member needs one source band power, scaled by both
    squared divider ratios.  Noise is rehearsed at unit temperature, so
    ``config.t_eff`` is not used and one rehearsal serves every temperature
    (see :func:`hf_ac_power`).

    Raises:
        ConfigurationError: As :func:`resolve_band`, or if no array of
            ``attack.ensemble_size`` source powers can be allocated.
    """
    spb = config.samples_per_bit
    mask = resolve_band(config, attack)
    rng = stream(config.seed, Stream.EAVESDROPPER)
    rms = johnson_rms(config.resistors.parallel, 1.0, config.f_b)
    m_count = attack.ensemble_size
    background_sum = np.zeros(np.count_nonzero(mask))
    try:
        source_power = np.empty(m_count)
    except (MemoryError, ValueError) as error:  # a size numpy cannot allocate
        raise ConfigurationError(f"ensemble_size = {m_count}: {error}") from None
    for members in period_batches(m_count):
        noise = rms * unit_band_noise(rng, members.size, spb, mask)
        # Add member by member so the sum does not depend on the batching.
        stacked = np.vstack([background_sum, noise.real**2 + noise.imag**2])
        background_sum = np.add.accumulate(stacked)[-1]
        source = hf_source_band(config, members, mask)
        source_power[members] = np.mean(source.real**2 + source.imag**2, axis=1)
    gains = config.resistors.table[1, [Situation.LH, Situation.HL]]
    ac_threshold = float(np.mean(gains**2) * np.mean(source_power))
    return HfPreparation(background_sum / m_count, ac_threshold, m_count, mask)


def hf_source_band(config: KljnConfig, index: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The source's band coefficients over the 0-based periods ``index``.

    They equal the ``mask`` bins of the 1/N-normalized DFT of the sampled
    source, one period per row, but come in closed form: by linearity the
    band of A (cos theta_i c_k - sin theta_i s_k) (see :func:`source_basis`)
    is A (cos theta_i C - sin theta_i S), with C and S the bands of c and s.
    """
    a_cos, a_sin, c, s = source_basis(config, index)
    cos_band, sin_band = np.fft.rfft([c, s], axis=-1)[:, mask] / config.samples_per_bit
    return a_cos * cos_band - a_sin * sin_band


def hf_ac_power(coeffs: np.ndarray, prep: HfPreparation, t_eff: float) -> np.ndarray:
    """Background-subtracted band power of each measured period.

    ``coeffs`` holds each period's 1/N-normalized DFT coefficients on the
    bins of ``prep.mask``, one period per row, measured at temperature
    ``t_eff``.  Subtracts the rehearsed noise spectrum, scaled to ``t_eff``,
    bin by bin and averages over the window without clipping, so the
    estimator stays unbiased; negative values simply mean the period held
    less band power than the noise average.
    """
    coeffs = np.asarray(coeffs)
    return np.mean(coeffs.real**2 + coeffs.imag**2 - t_eff * prep.noise_background, axis=-1)


def hf_decide(ac_power, prep: HfPreparation) -> np.ndarray:
    """Classify periods by band power against the rehearsed midpoint.

    Above the midpoint means the strong divider (Bob high); below means the
    weak one.  Returns situation codes shaped like ``ac_power``.  A power
    exactly on the midpoint leaves the period UNDETERMINED, as
    :func:`lf_decide` leaves a period on its boundary.
    """
    power = np.asarray(ac_power, dtype=np.float64)
    called = np.where(power > prep.ac_threshold, Situation.LH, Situation.HL)
    return np.where(power == prep.ac_threshold, UNDETERMINED, called)
