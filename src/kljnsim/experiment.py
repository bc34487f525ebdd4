"""Attack evaluation: single points, grids over noise level, defenses.

The independent variable throughout is the wire noise level expressed as
the rms voltage ``u_eff`` the loop would show across the parallel resistor
combination; it maps bijectively to the effective temperature.  Every
evaluated cell is one :class:`AttackOutcome`, which holds the config it
ran at, so a CSV row is read from the record alone.  A sweep replays one
session per source frequency, a column, at every u_eff, so the cells of
a column share their random numbers.  Column seeds derive from the base
seed and the column index, so columns are independent and safe to run
in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Sequence, TextIO

import numpy as np

from .attacks import (
    UNDETERMINED,
    HfPreparation,
    SpectralAttack,
    ThresholdAttack,
    hf_ac_power,
    hf_decide,
    hf_prepare,
    hf_source_band,
    lf_decide,
    lf_gamma,
    lf_threshold,
)
from .channel import SCALE_LIMIT, KljnConfig, ResistorPair, simulate_session, source_samples
from .errors import ConfigurationError
from .noise import BOLTZMANN, johnson_rms, mix_seed

__all__ = [
    "AttackOutcome",
    "Notch",
    "RaiseTemperature",
    "SWEEP_CSV_COLUMNS",
    "notch_filter",
    "run_column",
    "run_point",
    "sweep",
    "teff_of_ueff",
    "u_eff_of_teff",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class Notch:
    """A notch on the eavesdropper's observation path.

    Every wire trace she taps is filtered before her statistics run.  A
    ``notch_center`` of None tracks the source frequency of whatever cell
    is being evaluated, which is what a sweep over source frequencies needs.
    """

    notch_halfwidth: float
    notch_center: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.notch_halfwidth < math.inf:
            raise ConfigurationError(
                f"notch_halfwidth must be finite and positive, got {self.notch_halfwidth}"
            )
        if self.notch_center is not None and not 0 < self.notch_center < math.inf:
            raise ConfigurationError(
                f"notch_center must be finite and positive when given, got {self.notch_center}"
            )

    def bins(self, config: KljnConfig) -> np.ndarray:
        """The rfft bins of one of ``config``'s periods that the notch removes.

        Those within ``notch_halfwidth`` of the center, on the grid of
        ``config.bin_frequencies``; the center defaults to the source frequency.

        Raises:
            ConfigurationError: If the center lies outside (0, f_b), or no
                bin lies close enough to it, so the notch would remove nothing.
        """
        center = config.source.frequency if self.notch_center is None else self.notch_center
        if not 0 < center < config.f_b:
            raise ConfigurationError(
                f"notch center must lie inside (0, {config.f_b:g}), got notch_center = {center:g}"
            )
        freqs = config.bin_frequencies
        cut = np.abs(freqs - center) <= self.notch_halfwidth
        if not np.any(cut):
            raise ConfigurationError(
                f"no spectrum bin lies within notch_halfwidth = {self.notch_halfwidth:g} "
                f"of {center:g}; the bins are {freqs[1]:g} Hz apart"
            )
        return cut


@dataclass(frozen=True)
class RaiseTemperature:
    """Run every sweep cell at least as hot as ``target_t_eff``.

    Raising the temperature never cools the loop: a grid point already
    hotter than the target keeps its own temperature.  Only :func:`sweep`
    reads it, to move its grid.
    """

    target_t_eff: float

    def __post_init__(self) -> None:
        if not 0 <= self.target_t_eff < math.inf:
            raise ConfigurationError(
                f"target_t_eff must be finite and non-negative, got {self.target_t_eff}"
            )


@dataclass(frozen=True)
class AttackOutcome:
    """One evaluated cell: the config it ran at, the attack's mode and its bit counts.

    ``n_guessed`` stays visible beside ``p`` so the discard rate is never hidden.
    """

    config: KljnConfig
    mode: str  # the attack's mode, as the cell's CSV row states it
    n_guessed: int
    n_correct: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_correct <= self.n_guessed <= self.n_secure:
            raise ConfigurationError(
                f"inconsistent counts: {self.n_correct} correct, "
                f"{self.n_guessed} guessed, {self.n_secure} secure"
            )

    @property
    def n_secure(self) -> int:
        """The secure bits the session ran to, ``config.n_secure_bits``."""
        return self.config.n_secure_bits

    @property
    def u_eff(self) -> float:
        """The wire noise rms the cell ran at: :func:`u_eff_of_teff` of its temperature."""
        return u_eff_of_teff(self.config.t_eff, self.config.resistors, self.config.f_b)

    @property
    def p(self) -> float:
        """Correct guesses over made guesses, or the chance level 0.5 when none was made."""
        return self.n_correct / self.n_guessed if self.n_guessed > 0 else 0.5


def u_eff_of_teff(t_eff: float, resistors: ResistorPair, f_b: float) -> float:
    """Wire noise rms implied by an effective temperature.

    Uses the parallel resistor combination, the loop's Thevenin source
    resistance in either secure situation.
    """
    return float(johnson_rms(resistors.parallel, t_eff, f_b))


def teff_of_ueff(u_eff: float, resistors: ResistorPair, f_b: float) -> float:
    """Exact algebraic inverse of :func:`u_eff_of_teff`."""
    if not 0 <= u_eff <= SCALE_LIMIT:
        raise ConfigurationError(f"u_eff must lie in [0, {SCALE_LIMIT:g}] V, got {u_eff}")
    denominator = 4.0 * BOLTZMANN * resistors.parallel * f_b
    if not denominator > 0:  # f_b is not positive, or the product underflows float64
        raise ConfigurationError(
            f"4 k_B f_b r_low r_high / (r_low + r_high) must be a positive float64, "
            f"got {denominator:g} at f_b = {f_b:g} Hz"
        )
    t_eff = u_eff * u_eff / denominator
    if not t_eff < math.inf:
        raise ConfigurationError(f"u_eff = {u_eff} implies a temperature that overflows float64")
    return t_eff


def notch_filter(samples: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Zero the rfft bins that the mask ``cut`` selects, such as :meth:`Notch.bins`.

    A frequency-domain brick wall along the last axis, so an array of
    periods (one per row) is filtered by one batched FFT pair; energy
    outside the notch survives the round trip to numerical precision.
    """
    n = np.shape(samples)[-1]
    coeffs = np.fft.rfft(samples, axis=-1)
    coeffs[..., cut] = 0.0
    return np.fft.irfft(coeffs, n, axis=-1)


def run_point(
    config: KljnConfig,
    attack: ThresholdAttack | SpectralAttack,
    notch: Notch | None = None,
    rehearsal: HfPreparation | None = None,
) -> AttackOutcome:
    """Simulate one session and run the chosen attack over its secure bits.

    The session's secure periods stream through in chunks, and the LL/HH
    periods the attack never reads are not synthesized at all; memory stays
    bounded whatever the bit count.  Scoring compares the guessed situation
    against the ground truth.  Undetermined bits of either attack are dropped
    from numerator and denominator alike.  ``notch`` filters what the
    eavesdropper taps; its :meth:`Notch.bins` are checked before any of that
    work starts.  ``rehearsal`` is ``hf_prepare(config, attack)`` when the
    caller has drawn it already.  ``config`` and ``attack`` bound every
    voltage scale by ``SCALE_LIMIT``, so no step of the run overflows.
    """
    lowfreq = isinstance(attack, ThresholdAttack)
    cut = None if notch is None else notch.bins(config)

    session = simulate_session(config)
    # Both attacks observe gains[codes] * source + sigma * unit, as samples or band bins.
    sigma = u_eff_of_teff(config.t_eff, config.resistors, config.f_b)
    gains = config.resistors.table[1, :, None]
    if lowfreq:
        draws, source_of = session.secure_noise(), partial(source_samples, config)
    else:
        prep = rehearsal if rehearsal is not None else hf_prepare(config, attack)
        if cut is not None:
            cut = cut[prep.mask]
        draws = session.secure_bands(prep.mask)
        source_of = partial(hf_source_band, config, mask=prep.mask)

    n_guessed = n_correct = 0
    for index, codes, unit in draws:
        source = source_of(index)  # both fresh arrays, so the chunk is built in place
        source *= gains[codes]
        observed = np.multiply(unit, sigma, out=unit)
        observed += source
        if lowfreq:
            if cut is not None:
                observed = notch_filter(observed, cut)
            threshold = lf_threshold(config.source, index, config.period_duration, attack.kappa)
            guess = lf_decide(threshold, lf_gamma(observed, threshold)).guess
        else:
            if cut is not None:
                observed[..., cut] = 0.0
            guess = hf_decide(hf_ac_power(observed, prep, config.t_eff), prep)
        n_guessed += int(np.count_nonzero(guess != UNDETERMINED))
        n_correct += int(np.count_nonzero(guess == codes))

    # The session ends at the period that completes its secure bits.
    return AttackOutcome(config, attack.mode, n_guessed, n_correct)


def run_column(
    config: KljnConfig,
    attack: ThresholdAttack | SpectralAttack,
    t_effs: Sequence[float],
    notch: Notch | None = None,
) -> list[AttackOutcome]:
    """:func:`run_point` at each of ``t_effs``, sharing one rehearsal.

    Every cell replays the coins and unit noise of ``config.seed`` at its
    own temperature (common random numbers): cells are correlated, but
    each has the distribution of a session of its own.
    """
    cells = [replace(config, t_eff=t) for t in t_effs]  # so a bad cell fails before any runs
    rehearsal = hf_prepare(config, attack) if isinstance(attack, SpectralAttack) else None
    return [run_point(cell, attack, notch, rehearsal) for cell in cells]


def sweep(
    base: KljnConfig,
    attack: ThresholdAttack | SpectralAttack,
    u_eff_grid: Sequence[float],
    f_a_list: Sequence[float],
    defense: Notch | RaiseTemperature | None = None,
    max_workers: int = 1,
) -> list[AttackOutcome]:
    """Evaluate the attack over a (source frequency, noise level) grid.

    Each source frequency is one column, seeded from the base seed and the
    column's index in ``f_a_list`` and scored at every u_eff by
    :func:`run_column`.  Each record equals :func:`run_point` at the column
    seed and the cell's temperature, so appending to either list never
    changes an existing record.  :class:`RaiseTemperature` runs each cell
    at least as hot as its target; a :class:`Notch` is passed on to every
    cell.  A record's ``config`` is the cell as it ran, so its ``u_eff`` is
    the rms it ran at, which matches the grid value to within rounding.
    The pool runs whole columns, and results are ordered by (f_a, u_eff)
    and identical whatever ``max_workers``.
    """
    grid = [float(u) for u in u_eff_grid]
    frequencies = [float(f) for f in f_a_list]
    if not grid or not frequencies:
        raise ConfigurationError("sweep needs at least one u_eff and one f_a")

    t_effs = [teff_of_ueff(u_eff, base.resistors, base.f_b) for u_eff in grid]
    if isinstance(defense, RaiseTemperature):
        t_effs = [max(t_eff, defense.target_t_eff) for t_eff in t_effs]
    notch = defense if isinstance(defense, Notch) else None
    columns = [
        replace(base, seed=mix_seed(base.seed, i), source=replace(base.source, frequency=f_a))
        for i, f_a in enumerate(frequencies)
    ]
    run = partial(run_column, attack=attack, t_effs=t_effs, notch=notch)
    if max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # so one thread never pays its import
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(run, columns))
    else:
        results = [run(config) for config in columns]
    return [outcome for column in results for outcome in column]


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


def write_sweep_csv(outcomes: Iterable[AttackOutcome], handle: TextIO) -> None:
    """Write evaluated cells as CSV to a text handle, one row per record, header always.

    Every column is read from the record.  Floats carry 10 significant
    digits; the clock is the one the run keeps, f_s / N with N samples per
    bit, not the requested ``f_c``.  Rows end in ``\r\n``, as :mod:`csv`
    writes them.
    """
    handle.write(",".join(SWEEP_CSV_COLUMNS) + "\r\n")
    for outcome in outcomes:
        config = outcome.config
        handle.write(",".join((
            outcome.mode, f"{config.source.frequency:.10g}",
            f"{config.sample_rate / config.samples_per_bit:.10g}", f"{config.f_b:.10g}",
            f"{outcome.u_eff:.10g}", f"{config.t_eff:.10g}", str(outcome.n_secure),
            str(outcome.n_guessed), str(outcome.n_correct), f"{outcome.p:.10g}",
        )) + "\r\n")
