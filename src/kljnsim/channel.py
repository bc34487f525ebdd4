"""Two-party resistor-switching loop with a parasitic periodic source.

Alice and Bob each pick one of two resistor values per clock period and
connect its noise generator to a shared wire.  The mixed-choice periods
(one low, one high) are the secure ones; an eavesdropper measuring wire
quantities cannot tell the two apart from noise statistics alone because
the loop is symmetric under swapping the ends.  A periodic source hiding
in series with Alice's resistor breaks that symmetry: the wire picks up
the source through a resistive divider whose ratio depends on who holds
the high resistor.

All wire quantities follow from two-resistor circuit algebra, and
:attr:`ResistorPair.table` is its one owner: per situation it holds the
divider gain that carries the source onto the wire and the loop resistance
whose Johnson noise the wire carries.  Sessions draw that one Gaussian
directly instead of the two ends' noises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterator, TextIO

import numpy as np

from .errors import ConfigurationError, ShapeMismatchError
from .noise import BOLTZMANN, Stream, johnson_rms, stream, unit_band_noise
from .noise import generate_unit_gbwn  # noqa: F401  (bench/child.py traces it here)

__all__ = [
    "CHUNK_PERIODS",
    "KljnConfig",
    "PeriodicSource",
    "ResistorPair",
    "SCALE_LIMIT",
    "SESSION_CSV_COLUMNS",
    "Session",
    "SessionChunk",
    "Situation",
    "dump_session_csv",
    "period_batches",
    "secure_mask",
    "simulate_session",
    "source_basis",
    "source_samples",
]

# Periods synthesized per batch.  It bounds memory and never changes a
# result: coins and noise come from sequential streams, so any batching
# draws the same numbers in the same order.
CHUNK_PERIODS = 128

# The largest source amplitude, lowfreq kappa and wire noise rms (in volts) a
# point accepts.  Every sample, square, band power, notch sum and kappa times
# amplitude of a run then stays far below float64's largest value, 1.8e308.
SCALE_LIMIT = 1e100


class Situation(IntEnum):
    """Joint resistor choice for one period; first letter Alice, second Bob.

    The value is the period's code in session arrays: Alice's choice in the
    high bit and Bob's in the low bit, 0 for L and 1 for H.
    """

    LL = 0
    LH = 1
    HL = 2
    HH = 3


def period_batches(count: int) -> Iterator[np.ndarray]:
    """The 0-based indices ``0 .. count - 1`` in consecutive runs of ``CHUNK_PERIODS``."""
    for start in range(0, count, CHUNK_PERIODS):
        yield np.arange(start, min(start + CHUNK_PERIODS, count))


def secure_mask(situations: np.ndarray) -> np.ndarray:
    """True where an array of situation codes holds LH or HL."""
    return (situations >> 1) != (situations & 1)


@dataclass(frozen=True)
class ResistorPair:
    """Switchable resistor values in ohms, 1 / SCALE_LIMIT <= r_low < r_high <= SCALE_LIMIT."""

    r_low: float
    r_high: float

    def __post_init__(self) -> None:
        if not 0 < self.r_low < self.r_high:
            raise ConfigurationError(f"need 0 < r_low < r_high, got {self.r_low}, {self.r_high}")
        # So every product of two resistances lies in [1e-200, 1e200].
        if self.r_low < 1 / SCALE_LIMIT:
            raise ConfigurationError(f"need r_low >= {1 / SCALE_LIMIT:g} ohm, got {self.r_low}")
        if not self.r_high <= SCALE_LIMIT:
            raise ConfigurationError(f"need r_high <= {SCALE_LIMIT:g} ohm, got {self.r_high}")

    @cached_property
    def table(self) -> np.ndarray:
        """Loop resistance (row 0) and divider gain (row 1) of each situation, by its code.

        Each end's generator reaches the wire through the far end's ratio:
        Alice's source as r_bob / (r_alice + r_bob), and the two ends'
        independent noises as one Johnson noise of the loop resistance
        r_alice * r_bob / (r_alice + r_bob) (Kish, Phys. Lett. A 352, 2006).
        Built once per pair, and read-only, so every reader shares it.
        """
        r_alice = np.array([self.r_low, self.r_low, self.r_high, self.r_high])
        r_bob = np.array([self.r_low, self.r_high, self.r_low, self.r_high])
        table = np.array([r_alice * r_bob / (r_alice + r_bob), r_bob / (r_alice + r_bob)])
        table.flags.writeable = False
        return table

    @property
    def parallel(self) -> float:
        """Loop resistance of both secure situations, r_low * r_high / (r_low + r_high)."""
        return float(self.table[0, Situation.LH])


@dataclass(frozen=True)
class PeriodicSource:
    """Cosine source in series with Alice's resistor.

    ``amplitude`` is the peak value in volts; zero switches the source off.
    Phase is referenced to the session's global t = 0, so the waveform is
    continuous across period boundaries.
    """

    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.amplitude <= SCALE_LIMIT:
            raise ConfigurationError(
                f"amplitude must lie in [0, {SCALE_LIMIT:g}] V, got {self.amplitude}"
            )
        if not 0 <= self.frequency < math.inf:
            raise ConfigurationError(
                f"source frequency f_a must be finite and non-negative, got {self.frequency}"
            )
        if not math.isfinite(self.phase):
            raise ConfigurationError(f"phase must be finite, got {self.phase}")


@dataclass(frozen=True)
class KljnConfig:
    """Full description of one key-exchange session.

    ``samples_per_bit`` is derived, never passed: it is the rounded ratio
    of the sample rate (twice the noise bandwidth ``f_b``) to the clock
    frequency ``f_c``.
    """

    resistors: ResistorPair
    t_eff: float
    f_b: float
    f_c: float
    source: PeriodicSource
    seed: int
    n_secure_bits: int

    def __post_init__(self) -> None:
        if not 0 < self.f_c < math.inf:
            raise ConfigurationError(f"f_c must be finite and positive, got {self.f_c}")
        if not self.f_c < self.f_b < math.inf:
            raise ConfigurationError(
                f"f_b must be finite and exceed f_c, got f_b={self.f_b}, f_c={self.f_c}"
            )
        # LL's loop, r_low / 2, is the quietest; were its noise power 0, every wire's would be.
        if not 4.0 * BOLTZMANN * (self.resistors.r_low / 2) * self.f_b > 0:
            raise ConfigurationError(
                f"the quietest loop's noise power per kelvin, 4 k_B f_b (r_low / 2), must be "
                f"a positive float64, not 0 at r_low = {self.resistors.r_low:g} ohm, "
                f"f_b = {self.f_b:g} Hz"
            )
        if self.source.frequency > self.f_b:
            raise ConfigurationError(
                "source frequency f_a must not exceed f_b, where the sampled source "
                f"aliases; got f_a={self.source.frequency}, f_b={self.f_b}"
            )
        # HH's wire noise is the loudest, and at 1 K or more also bounds the highfreq
        # rehearsal's; as a Python float, an overflowing product warns of nothing.
        loudest = float(self.resistors.table[0, Situation.HH])
        rms = johnson_rms(loudest, max(self.t_eff, 1.0), self.f_b)
        if not (self.t_eff >= 0 and rms <= SCALE_LIMIT):
            raise ConfigurationError(
                f"t_eff must be non-negative, with an HH wire noise rms at max(t_eff, 1 K) of "
                f"at most {SCALE_LIMIT:g} V; t_eff = {self.t_eff:g} K across {loudest:g} ohm "
                f"gives {rms:g} V"
            )
        if self.n_secure_bits < 1:
            raise ConfigurationError(
                f"n_secure_bits must be at least 1, got {self.n_secure_bits}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must fit in 64 bits")

    @property
    def samples_per_bit(self) -> int:
        """Samples in one bit period: the sample rate over f_c, rounded."""
        return int(round(2.0 * self.f_b / self.f_c))

    @property
    def sample_rate(self) -> float:
        """Nyquist rate of the noise band: twice f_b."""
        return 2.0 * self.f_b

    @property
    def period_duration(self) -> float:
        """Length of one bit period on the sample grid, in seconds."""
        return self.samples_per_bit / self.sample_rate

    @property
    def bin_frequencies(self) -> np.ndarray:
        """Frequency of each rfft bin of one period: m * f_s / N for m = 0 .. N // 2."""
        spb = self.samples_per_bit
        return np.arange(spb // 2 + 1) * (self.sample_rate / spb)


def source_basis(config: KljnConfig, index: np.ndarray) -> tuple[np.ndarray, ...]:
    """A cos theta_i and A sin theta_i as columns, c_k and s_k as rows.

    Period i of ``index`` starts at phase theta_i = omega i N / f_s + phi, so
    its sample k is A cos(theta_i + omega k / f_s) = A (cos theta_i c_k -
    sin theta_i s_k): two cosines per period and N per call, not one per sample.
    """
    source, f_s, spb = config.source, config.sample_rate, config.samples_per_bit
    omega = 2.0 * math.pi * source.frequency
    theta = omega * (np.asarray(index)[:, None] * spb / f_s) + source.phase
    steps = omega * np.arange(spb) / f_s
    a = source.amplitude
    return a * np.cos(theta), a * np.sin(theta), np.cos(steps), np.sin(steps)


def source_samples(config: KljnConfig, index: np.ndarray) -> np.ndarray:
    """The source's samples over the 0-based periods ``index``, one row each."""
    a_cos, a_sin, c, s = source_basis(config, index)
    return a_cos * c - a_sin * s


@dataclass(frozen=True, eq=False)
class SessionChunk:
    """Consecutive bit periods as arrays, one row per period.

    ``wire_voltage``, what an eavesdropper can tap, is ``ac_part`` plus ``noise_part``, the
    Johnson noise of the period's loop resistance.
    """

    index: np.ndarray  # 0-based period numbers
    situations: np.ndarray  # Situation codes
    wire_voltage: np.ndarray
    ac_part: np.ndarray
    noise_part: np.ndarray


@dataclass(frozen=True, eq=False)
class Session:
    """One session: every period's situation, with samples made on demand.

    The resistor coins are drawn up front, so the period count is known
    before any sample exists.  :meth:`chunks` then synthesizes the wire
    ``CHUNK_PERIODS`` periods at a time, so memory stays bounded whatever
    the session length; iterating again replays the same samples.
    """

    config: KljnConfig
    situations: np.ndarray  # Situation codes, one per period

    def __len__(self) -> int:
        return self.situations.size

    def chunks(self) -> Iterator[SessionChunk]:
        """Yield every period in order, ``CHUNK_PERIODS`` at a time, with its parts.

        Each period draws fresh wire noise (independent across periods,
        emulating generators re-seeded per clock cycle): one Johnson noise
        segment of the period's loop resistance.  Secure and LL/HH
        periods draw from separate streams, each in its own period order,
        so the secure rows are those :meth:`secure_noise` builds.  The
        source's phase runs on from the session's start, so it never resets.
        """
        config = self.config
        spb = config.samples_per_bit
        resistance, gain = config.resistors.table[:, :, None]  # one row per situation
        rms = johnson_rms(resistance, config.t_eff, config.f_b)
        secure_rng = stream(config.seed, Stream.SECURE_WIRE)
        public_rng = stream(config.seed, Stream.PUBLIC_WIRE)
        for index in period_batches(len(self)):
            codes = self.situations[index]
            secure = secure_mask(codes)
            unit = np.empty((index.size, spb))
            for rows, rng in ((secure, secure_rng), (~secure, public_rng)):
                unit[rows] = rng.standard_normal((np.count_nonzero(rows), spb))
            noise = rms[codes] * unit
            ac = gain[codes] * source_samples(config, index)
            yield SessionChunk(index, codes, ac + noise, ac, noise)

    def secure_noise(self) -> Iterator[tuple[np.ndarray, ...]]:
        """Yield (period index, codes, unit wire noise) of the secure periods.

        One run per ``2 * CHUNK_PERIODS`` periods holds their secure ones:
        about ``CHUNK_PERIODS``, as a period is secure with probability one
        half.  Times the Johnson rms of r_low and r_high in parallel, the
        unit noise is what :meth:`chunks` adds to those periods.
        """
        spb = self.config.samples_per_bit
        return self._secure_draws(Stream.SECURE_WIRE, lambda rng, n: rng.standard_normal((n, spb)))

    def secure_bands(self, mask: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
        """Yield (period index, codes, unit band noise) in the runs of :meth:`secure_noise`.

        Each period draws its ``mask`` bins by :func:`unit_band_noise`, from
        a stream of its own in period order: alike in law to the band of
        what :meth:`secure_noise` draws, not equal to it.

        Raises:
            ShapeMismatchError: If ``mask`` is not one flag per rfft bin of
                a period, with DC excluded.
        """
        spb = self.config.samples_per_bit
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (spb // 2 + 1,) or mask[0]:
            raise ShapeMismatchError(f"band mask must span {spb // 2 + 1} rfft bins, DC excluded")
        return self._secure_draws(
            Stream.SECURE_BAND, lambda rng, n: unit_band_noise(rng, n, spb, mask)
        )

    def _secure_draws(self, label: Stream, draw) -> Iterator[tuple[np.ndarray, ...]]:
        """Each ``2 * CHUNK_PERIODS`` periods' secure ones, drawn by ``draw(rng, count)``."""
        rng = stream(self.config.seed, label)
        for start in range(0, len(self), 2 * CHUNK_PERIODS):
            block = secure_mask(self.situations[start : start + 2 * CHUNK_PERIODS])
            index = start + np.flatnonzero(block)
            yield index, self.situations[index], draw(rng, index.size)


def simulate_session(config: KljnConfig) -> Session:
    """Flip both parties' resistor coins until enough secure bits accumulated.

    Per period Alice and Bob flip independent fair coins.  The flips are
    drawn in blocks from their own stream, which gives the same sequence
    as flipping period by period, and the session ends at the period that
    completes ``config.n_secure_bits`` secure bits.
    """
    chooser = stream(config.seed, Stream.COINS)
    blocks = []
    needed = config.n_secure_bits
    while needed > 0:
        picks = chooser.integers(0, 2, size=(CHUNK_PERIODS, 2))
        codes = (2 * picks[:, 0] + picks[:, 1]).astype(np.uint8)
        secure = np.flatnonzero(secure_mask(codes))
        if secure.size >= needed:
            codes = codes[: secure[needed - 1] + 1]
        blocks.append(codes)
        needed -= secure.size
    situations = np.concatenate(blocks)
    situations.flags.writeable = False
    return Session(config, situations)


SESSION_CSV_COLUMNS = (
    "period_index",
    "situation",
    "sample_index",
    "u_wire",
    "u_ac",
    "u_noise",
)


def dump_session_csv(session: Session, handle: TextIO) -> None:
    """Write one row per sample to a text handle: the wire voltage and its decomposition.

    Voltages are printed with 17 significant digits, enough to reconstruct
    the exact float64 values.  Rows end in ``\r\n``, as :mod:`csv` writes them.
    """
    handle.write(",".join(SESSION_CSV_COLUMNS) + "\r\n")
    for chunk in session.chunks():
        names = [Situation(code).name for code in chunk.situations.tolist()]
        parts = (chunk.wire_voltage.tolist(), chunk.ac_part.tolist(), chunk.noise_part.tolist())
        handle.write("".join(
            f"{index},{name},{k},{wire:.17g},{ac:.17g},{noise:.17g}\r\n"
            for index, name, *period in zip(chunk.index.tolist(), names, *parts)
            for k, (wire, ac, noise) in enumerate(zip(*period))
        ))
