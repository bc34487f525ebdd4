"""Attack evaluation: single points, grids over noise level, defenses.

The independent variable throughout is the wire noise level expressed as
the rms voltage ``u_eff`` the loop would show across the parallel resistor
combination; it maps bijectively to the effective temperature.  A sweep
replays one session per source frequency, a column, at every u_eff, so
the cells of a column share their random numbers.  Column seeds derive
from the base seed and the column index, so columns are independent and
safe to run in parallel.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .attacks import (
    UNDETERMINED,
    AttackConfig,
    AttackMode,
    HfPreparation,
    hf_ac_power,
    hf_decide,
    hf_prepare,
    hf_source_band,
    lf_decide,
    lf_gamma,
    lf_threshold,
)
from .channel import KljnConfig, ResistorPair, divider_ac, simulate_session
from .errors import ConfigurationError
from .noise import BOLTZMANN, johnson_rms, mix_seed

__all__ = [
    "AttackOutcome",
    "DefenseKind",
    "DefenseSpec",
    "SWEEP_CSV_COLUMNS",
    "SweepPoint",
    "default_u_eff_grid",
    "notch_filter",
    "run_column",
    "run_point",
    "sweep",
    "teff_of_ueff",
    "u_eff_of_teff",
    "write_sweep_csv",
]


class DefenseKind(Enum):
    NONE = "none"
    NOTCH = "notch"
    RAISE_TEMPERATURE = "raise_temperature"


@dataclass(frozen=True)
class DefenseSpec:
    """Countermeasure applied during evaluation.

    The notch acts on the eavesdropper's observation path: every wire trace
    she taps is filtered before her statistics run.  ``notch_center`` of
    None tracks the source frequency of whatever cell is being evaluated,
    which is what a sweep over source frequencies needs.  Raising the
    temperature runs the session at ``target_t_eff`` wherever that is
    hotter than the operating point; see :meth:`applied_t_eff`.
    """

    kind: DefenseKind = DefenseKind.NONE
    notch_center: float | None = None
    notch_halfwidth: float | None = None
    target_t_eff: float | None = None

    def __post_init__(self) -> None:
        for name in ("notch_center", "notch_halfwidth", "target_t_eff"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.kind is DefenseKind.NOTCH:
            if self.notch_halfwidth is None or not self.notch_halfwidth > 0:
                raise ConfigurationError(
                    f"notch defense needs a positive notch_halfwidth, got {self.notch_halfwidth}"
                )
            if self.notch_center is not None and not self.notch_center > 0:
                raise ConfigurationError(
                    f"notch_center must be positive when given, got {self.notch_center}"
                )
            if self.target_t_eff is not None:
                raise ConfigurationError("target_t_eff does not apply to the notch defense")
        if self.kind is DefenseKind.RAISE_TEMPERATURE:
            if self.target_t_eff is None or self.target_t_eff < 0:
                raise ConfigurationError(
                    f"raise_temperature needs a non-negative target_t_eff, got {self.target_t_eff}"
                )
            if self.notch_center is not None or self.notch_halfwidth is not None:
                raise ConfigurationError(
                    "notch fields do not apply to the raise_temperature defense"
                )
        if self.kind is DefenseKind.NONE:
            leftovers = [
                name
                for name, value in (
                    ("notch_center", self.notch_center),
                    ("notch_halfwidth", self.notch_halfwidth),
                    ("target_t_eff", self.target_t_eff),
                )
                if value is not None
            ]
            if leftovers:
                raise ConfigurationError(
                    f"defense kind 'none' takes no parameters, got {', '.join(leftovers)}"
                )

    def applied_t_eff(self, t_eff: float) -> float:
        """Temperature a session at ``t_eff`` actually runs at under this defense.

        Raising the temperature never cools the loop: an operating point
        already hotter than the target keeps its own temperature.
        """
        if self.kind is DefenseKind.RAISE_TEMPERATURE:
            return max(t_eff, self.target_t_eff)
        return t_eff


@dataclass(frozen=True)
class AttackOutcome:
    """Bit-level bookkeeping for one evaluated point.

    ``p`` is correct guesses over made guesses.  When every bit was
    discarded the attack extracted nothing and ``p`` is reported at the
    chance level 0.5; ``n_guessed`` stays visible so the discard rate is
    never hidden.
    """

    n_secure: int
    n_guessed: int
    n_correct: int
    p: float

    def __post_init__(self) -> None:
        if not 0 <= self.n_correct <= self.n_guessed <= self.n_secure:
            raise ConfigurationError(
                f"inconsistent counts: {self.n_correct} correct, "
                f"{self.n_guessed} guessed, {self.n_secure} secure"
            )

    @classmethod
    def from_counts(cls, n_secure: int, n_guessed: int, n_correct: int) -> "AttackOutcome":
        p = n_correct / n_guessed if n_guessed > 0 else 0.5
        return cls(n_secure, n_guessed, n_correct, p)


@dataclass(frozen=True)
class SweepPoint:
    """One sweep cell: operating point plus its outcome."""

    t_eff: float
    u_eff: float
    f_a: float
    mode: AttackMode
    outcome: AttackOutcome


def u_eff_of_teff(t_eff: float, resistors: ResistorPair, f_b: float) -> float:
    """Wire noise rms implied by an effective temperature.

    Uses the parallel resistor combination, the loop's Thevenin source
    resistance in either secure situation.
    """
    if not 0 <= t_eff < math.inf:
        raise ConfigurationError(f"t_eff must be finite and non-negative, got {t_eff}")
    if not f_b > 0:
        raise ConfigurationError(f"f_b must be positive, got {f_b}")
    return math.sqrt(4.0 * BOLTZMANN * t_eff * resistors.parallel * f_b)


def teff_of_ueff(u_eff: float, resistors: ResistorPair, f_b: float) -> float:
    """Exact algebraic inverse of :func:`u_eff_of_teff`."""
    if not 0 <= u_eff < math.inf:
        raise ConfigurationError(f"u_eff must be finite and non-negative, got {u_eff}")
    if not f_b > 0:
        raise ConfigurationError(f"f_b must be positive, got {f_b}")
    return u_eff * u_eff / (4.0 * BOLTZMANN * resistors.parallel * f_b)


def _check_notch(sample_rate: float, center: float, halfwidth: float) -> None:
    nyquist = sample_rate / 2.0
    if not 0 < center < nyquist:
        raise ConfigurationError(
            f"notch center must lie inside (0, {nyquist}), got {center}"
        )
    if not halfwidth > 0:
        raise ConfigurationError(f"notch halfwidth must be positive, got {halfwidth}")


def notch_filter(
    samples: np.ndarray, sample_rate: float, center: float, halfwidth: float
) -> np.ndarray:
    """Zero all spectral bins within halfwidth of the center frequency.

    A frequency-domain brick wall along the last axis, so an array of
    periods (one per row) is filtered by one batched FFT pair; energy
    outside the notch survives the round trip to numerical precision.
    """
    _check_notch(sample_rate, center, halfwidth)
    n = np.shape(samples)[-1]
    coeffs = np.fft.rfft(samples, axis=-1)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    coeffs[..., np.abs(freqs - center) <= halfwidth] = 0.0
    return np.fft.irfft(coeffs, n, axis=-1)


def run_point(
    config: KljnConfig,
    attack: AttackConfig,
    defense: DefenseSpec | None = None,
    rehearsal: HfPreparation | None = None,
) -> AttackOutcome:
    """Simulate one session and run the chosen attack over its secure bits.

    The session's secure periods stream through in chunks, and the LL/HH
    periods the attack never reads are not synthesized at all; memory stays
    bounded whatever the bit count.  Scoring compares the guessed situation
    against the ground truth.  Undetermined low-frequency bits are dropped
    from numerator and denominator alike.  A notch center outside the band
    is rejected before any of that work starts.  ``rehearsal`` is
    ``hf_prepare(config, attack)`` when the caller has drawn it already.
    """
    if defense is None:
        defense = DefenseSpec()
    lowfreq = attack.mode is AttackMode.LOW_FREQ
    notched = defense.kind is DefenseKind.NOTCH
    config = replace(config, t_eff=defense.applied_t_eff(config.t_eff))
    notch_center = defense.notch_center
    if notch_center is None:
        notch_center = config.source.frequency
    halfwidth = defense.notch_halfwidth
    if notched:
        _check_notch(config.sample_rate, notch_center, halfwidth)

    session = simulate_session(config)
    if lowfreq:
        chunks = ((c.index, c.situations, c.wire_voltage) for c in session.chunks(secure_only=True))
    else:
        prep = rehearsal if rehearsal is not None else hf_prepare(config, attack)
        sigma = johnson_rms(config.resistors.parallel, config.t_eff, config.f_b)
        r_low, r_high = config.resistors.r_low, config.resistors.r_high
        gains = divider_ac(np.array([r_low, r_high]), np.array([r_high, r_low]), 1.0)[:, None]
        if notched:
            band_freqs = np.flatnonzero(prep.mask) * (config.sample_rate / config.samples_per_bit)
            cut = np.abs(band_freqs - notch_center) <= halfwidth
        chunks = session.secure_bands(prep.mask)
    tau = config.period_duration

    n_guessed = 0
    n_correct = 0
    for index, codes, observed in chunks:
        if lowfreq:
            wire = observed
            if notched:
                wire = notch_filter(wire, config.sample_rate, notch_center, halfwidth)
            threshold = lf_threshold(config.source, index + 1, tau, attack.kappa)
            guess = lf_decide(threshold, lf_gamma(wire, threshold)).guess
        else:
            # The wire's band: gain * source band (closed form) + sigma *
            # unit noise band (drawn); codes 1 and 2 are LH and HL.
            coeffs = gains[codes - 1] * hf_source_band(config, index, prep.mask) + sigma * observed
            if notched:
                coeffs[..., cut] = 0.0
            power = hf_ac_power(coeffs, prep, config.t_eff)
            if not (np.all(np.isfinite(power)) and math.isfinite(prep.ac_threshold)):
                raise ConfigurationError(
                    "band power overflows float64; lower t_eff or the source amplitude"
                )
            guess = hf_decide(power, prep)
        n_guessed += int(np.count_nonzero(guess != UNDETERMINED))
        n_correct += int(np.count_nonzero(guess == codes))

    # The session ends at the period that completes its secure bits.
    return AttackOutcome.from_counts(config.n_secure_bits, n_guessed, n_correct)


def run_column(
    config: KljnConfig,
    attack: AttackConfig,
    t_effs: Sequence[float],
    defense: DefenseSpec | None = None,
) -> list[AttackOutcome]:
    """:func:`run_point` at each of ``t_effs``, sharing one rehearsal.

    Every cell replays the coins and unit noise of ``config.seed`` at its
    own temperature (common random numbers): cells are correlated, but
    each has the distribution of a session of its own.
    """
    rehearsal = hf_prepare(config, attack) if attack.mode is AttackMode.HIGH_FREQ else None
    return [run_point(replace(config, t_eff=t), attack, defense, rehearsal) for t in t_effs]


def default_u_eff_grid(n_points: int = 25) -> np.ndarray:
    """Logarithmic noise-level grid from 0.01 to 100 V rms."""
    return np.logspace(-2.0, 2.0, n_points)


def sweep(
    base: KljnConfig,
    attack: AttackConfig,
    u_eff_grid: Sequence[float] | None = None,
    f_a_list: Sequence[float] | None = None,
    defense: DefenseSpec | None = None,
    max_workers: int = 1,
) -> list[SweepPoint]:
    """Evaluate the attack over a (source frequency, noise level) grid.

    Each source frequency is one column, seeded from the base seed and the
    column's index in ``f_a_list`` and scored at every u_eff by
    :func:`run_column`.  Each row equals :func:`run_point` at the column
    seed and the row's temperature, so appending to either list never
    changes an existing row.  A raise_temperature defense can run a cell
    hotter than its grid point; the cell then reports the temperature and
    u_eff it actually ran at.  The pool runs whole columns, and results
    are ordered by (f_a, u_eff) and identical whatever ``max_workers``.
    """
    grid = [float(u) for u in (u_eff_grid if u_eff_grid is not None else default_u_eff_grid())]
    frequencies = [float(f) for f in (f_a_list if f_a_list is not None else [base.source.frequency])]
    if not grid or not frequencies:
        raise ConfigurationError("sweep needs at least one u_eff and one f_a")
    if defense is None:
        defense = DefenseSpec()

    t_effs = [teff_of_ueff(u_eff, base.resistors, base.f_b) for u_eff in grid]
    labels = [  # the (t_eff, u_eff) each cell actually runs at
        (ran, u_eff if ran == t_eff else u_eff_of_teff(ran, base.resistors, base.f_b))
        for u_eff, t_eff, ran in zip(grid, t_effs, map(defense.applied_t_eff, t_effs))
    ]
    columns = [
        replace(base, seed=mix_seed(base.seed, i), source=replace(base.source, frequency=f_a))
        for i, f_a in enumerate(frequencies)
    ]

    def evaluate(config: KljnConfig) -> list[SweepPoint]:
        outcomes = run_column(config, attack, t_effs, defense)
        f_a = config.source.frequency
        return [SweepPoint(t, u, f_a, attack.mode, o) for (t, u), o in zip(labels, outcomes)]

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(evaluate, columns))
    else:
        results = [evaluate(config) for config in columns]
    return [point for column in results for point in column]


SWEEP_CSV_COLUMNS = (
    "mode",
    "f_a_hz",
    "f_c_hz",
    "f_b_hz",
    "u_eff_vrms",
    "t_eff_k",
    "n_secure",
    "n_guessed",
    "n_correct",
    "p",
)


def write_sweep_csv(
    points: Iterable[SweepPoint],
    config: KljnConfig,
    destination: str | Path | io.TextIOBase,
) -> None:
    """Write sweep results as CSV, one row per point, header always.

    Floats carry 10 significant digits.  ``config`` supplies the clock and
    bandwidth columns shared by every row.
    """

    def emit(handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for point in points:
            writer.writerow(
                (
                    point.mode.value,
                    f"{point.f_a:.10g}",
                    f"{config.f_c:.10g}",
                    f"{config.f_b:.10g}",
                    f"{point.u_eff:.10g}",
                    f"{point.t_eff:.10g}",
                    point.outcome.n_secure,
                    point.outcome.n_guessed,
                    point.outcome.n_correct,
                    f"{point.outcome.p:.10g}",
                )
            )

    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as handle:
            emit(handle)
    else:
        emit(destination)
