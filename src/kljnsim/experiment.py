"""Attack evaluation: single points, grids over noise level, defenses.

The independent variable throughout is the wire noise level expressed as
the rms voltage ``u_eff`` the loop would show across the parallel resistor
combination; it maps bijectively to the effective temperature.  A sweep
runs one full session plus attack per (source frequency, u_eff) cell with
a per-cell seed derived from the base seed and the cell indices, so cells
are independent, order-insensitive, and safe to execute in parallel.
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
    hf_ac_power,
    hf_decide,
    hf_prepare,
    lf_decide,
    lf_gamma,
    lf_threshold,
)
from .channel import KljnConfig, ResistorPair, simulate_session
from .errors import ConfigurationError
from .noise import BOLTZMANN, mix_seed

__all__ = [
    "AttackOutcome",
    "DefenseKind",
    "DefenseSpec",
    "SWEEP_CSV_COLUMNS",
    "SweepPoint",
    "default_u_eff_grid",
    "notch_filter",
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
        if self.kind is DefenseKind.NOTCH:
            if self.notch_halfwidth is None or not self.notch_halfwidth > 0:
                raise ConfigurationError(
                    f"notch defense needs a positive halfwidth, got {self.notch_halfwidth}"
                )
            if self.notch_center is not None and not self.notch_center > 0:
                raise ConfigurationError(
                    f"notch center must be positive when given, got {self.notch_center}"
                )
            if self.target_t_eff is not None:
                raise ConfigurationError("target_t_eff does not apply to the notch defense")
        if self.kind is DefenseKind.RAISE_TEMPERATURE:
            if self.target_t_eff is None or self.target_t_eff < 0:
                raise ConfigurationError(
                    f"raise_temperature needs a non-negative target, got {self.target_t_eff}"
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
    config: KljnConfig, attack: AttackConfig, defense: DefenseSpec | None = None
) -> AttackOutcome:
    """Simulate one session and run the chosen attack over its secure bits.

    The session's secure periods stream through in chunks, and the LL/HH
    periods the attack never reads are not synthesized at all; memory stays
    bounded whatever the bit count.  Scoring compares the guessed situation
    against the ground truth.  Undetermined low-frequency bits are dropped
    from numerator and denominator alike.  A notch center outside the band
    is rejected before any of that work starts.
    """
    if defense is None:
        defense = DefenseSpec()
    if attack.mode is AttackMode.LOW_FREQ and not attack.eve_knows_source:
        raise ConfigurationError(
            "the threshold protocol needs the source waveform; "
            "set eve_knows_source or use the spectral mode"
        )
    config = replace(config, t_eff=defense.applied_t_eff(config.t_eff))
    notch_center = defense.notch_center
    if notch_center is None:
        notch_center = config.source.frequency
    if defense.kind is DefenseKind.NOTCH:
        _check_notch(config.sample_rate, notch_center, defense.notch_halfwidth)

    session = simulate_session(config)
    if attack.mode is AttackMode.HIGH_FREQ:
        prep = hf_prepare(config, attack)
    tau = config.period_duration

    n_guessed = 0
    n_correct = 0
    for chunk in session.chunks(secure_only=True):
        wire = chunk.wire_voltage
        if defense.kind is DefenseKind.NOTCH:
            wire = notch_filter(wire, config.sample_rate, notch_center, defense.notch_halfwidth)
        if attack.mode is AttackMode.LOW_FREQ:
            threshold = lf_threshold(config.source, chunk.index + 1, tau, attack.kappa)
            guess = lf_decide(threshold, lf_gamma(wire, threshold)).guess
        else:
            guess = hf_decide(hf_ac_power(wire, prep), prep)
        n_guessed += int(np.count_nonzero(guess != UNDETERMINED))
        n_correct += int(np.count_nonzero(guess == chunk.situations))

    n_secure = int(np.count_nonzero(session.secure))
    return AttackOutcome.from_counts(n_secure, n_guessed, n_correct)


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

    Each cell reruns the full session at the temperature implied by its
    u_eff, with the cell seed mixed from the base seed and the cell's
    (u_eff index, f_a index); extending either list never changes the
    seeds of existing cells.  A raise_temperature defense can run a cell
    hotter than its grid point; the cell then reports the temperature and
    u_eff it actually ran at.  Results are ordered by (f_a, u_eff)
    regardless of ``max_workers``, and the outputs are identical whether
    cells run sequentially or in parallel.
    """
    grid = [float(u) for u in (u_eff_grid if u_eff_grid is not None else default_u_eff_grid())]
    frequencies = [float(f) for f in (f_a_list if f_a_list is not None else [base.source.frequency])]
    if not grid or not frequencies:
        raise ConfigurationError("sweep needs at least one u_eff and one f_a")
    if defense is None:
        defense = DefenseSpec()

    cells: list[tuple[float, float, float, KljnConfig]] = []
    for i, f_a in enumerate(frequencies):
        for j, u_eff in enumerate(grid):
            grid_t_eff = teff_of_ueff(u_eff, base.resistors, base.f_b)
            t_eff = defense.applied_t_eff(grid_t_eff)
            if t_eff != grid_t_eff:
                u_eff = u_eff_of_teff(t_eff, base.resistors, base.f_b)
            cell_config = replace(
                base,
                t_eff=t_eff,
                seed=mix_seed(base.seed, j, i),
                source=replace(base.source, frequency=f_a),
            )
            cells.append((f_a, u_eff, t_eff, cell_config))

    def evaluate(cell: tuple[float, float, float, KljnConfig]) -> SweepPoint:
        f_a, u_eff, t_eff, cell_config = cell
        outcome = run_point(cell_config, attack, defense)
        return SweepPoint(t_eff, u_eff, f_a, attack.mode, outcome)

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(evaluate, cells))
    return [evaluate(cell) for cell in cells]


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
