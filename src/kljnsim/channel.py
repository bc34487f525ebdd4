"""Two-party resistor-switching loop with a parasitic periodic source.

Alice and Bob each pick one of two resistor values per clock period and
connect its noise generator to a shared wire.  The mixed-choice periods
(one low, one high) are the secure ones; an eavesdropper measuring wire
quantities cannot tell the two apart from noise statistics alone because
the loop is symmetric under swapping the ends.  A periodic source hiding
in series with Alice's resistor breaks that symmetry: the wire picks up
the source through a resistive divider whose ratio depends on who holds
the high resistor.

All wire quantities follow from two-resistor circuit algebra:

* divider:  u_ac   = r_bob * source / (r_alice + r_bob)
* noise:    u_wire = (r_alice * u_bob_n + r_bob * u_alice_n) / (r_alice + r_bob)

The two ends' generators are independent, so the wire noise is itself one
Johnson noise of the parallel resistance r_alice * r_bob / (r_alice + r_bob)
(Kish, Phys. Lett. A 352, 2006).  Sessions draw that Gaussian directly
instead of the ends' noises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, TextIO

import numpy as np

from .errors import ConfigurationError, ShapeMismatchError
from .noise import Stream, johnson_rms, stream, unit_band_noise
from .noise import generate_unit_gbwn  # noqa: F401  (bench/child.py traces it here)

__all__ = [
    "CHUNK_PERIODS",
    "KljnConfig",
    "PeriodicSource",
    "ResistorPair",
    "SESSION_CSV_COLUMNS",
    "Session",
    "SessionChunk",
    "Situation",
    "divider_ac",
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
    """The two switchable resistor values, in ohms, with r_low < r_high."""

    r_low: float
    r_high: float

    def __post_init__(self) -> None:
        if not 0 < self.r_low < self.r_high < math.inf:
            raise ConfigurationError(
                f"need finite 0 < r_low < r_high, got {self.r_low}, {self.r_high}"
            )

    @property
    def parallel(self) -> float:
        """Parallel combination r_low * r_high / (r_low + r_high)."""
        return self.r_low * self.r_high / (self.r_low + self.r_high)

    @property
    def secure_gains(self) -> np.ndarray:
        """Divider ratios of LH and HL, so entry ``code - 1`` is that situation's."""
        low_high = np.array([self.r_low, self.r_high])
        return divider_ac(low_high, low_high[::-1], 1.0)


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
        if not 0 <= self.amplitude < math.inf:
            raise ConfigurationError(
                f"amplitude must be finite and non-negative, got {self.amplitude}"
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
        if self.source.frequency > self.f_b:
            raise ConfigurationError(
                "source frequency f_a must not exceed f_b, where the sampled source "
                f"aliases; got f_a={self.source.frequency}, f_b={self.f_b}"
            )
        if not 0 <= self.t_eff < math.inf:
            raise ConfigurationError(
                f"t_eff must be finite and non-negative, got {self.t_eff}"
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


# The loop algebra below works on arrays of any shape that broadcast
# together: scalars for one configuration, or a column of per-period
# resistances against one row of samples per period.


def _check_finite(values, what: str, remedy: str = "t_eff or the source amplitude") -> None:
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"{what} overflows float64; lower {remedy}")


def divider_ac(r_alice, r_bob, source: np.ndarray) -> np.ndarray:
    """Periodic source as seen on the wire, through the resistive divider."""
    return r_bob / (r_alice + r_bob) * source


@dataclass(frozen=True, eq=False)
class SessionChunk:
    """Consecutive bit periods as arrays, one row per period.

    ``wire_voltage``, what an eavesdropper can tap, is ``ac_part`` plus ``noise_part``, the
    Johnson noise of the period's parallel resistance.
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
        segment of the period's parallel resistance.  Secure and LL/HH
        periods draw from separate streams, each in its own period order,
        so the secure rows are those :meth:`secure_noise` builds.  The
        source's phase runs on from the session's start, so it never resets.
        """
        config = self.config
        spb = config.samples_per_bit
        resistors = np.array([config.resistors.r_low, config.resistors.r_high])
        secure_rng = stream(config.seed, Stream.SECURE_WIRE)
        public_rng = stream(config.seed, Stream.PUBLIC_WIRE)
        for index in period_batches(len(self)):
            codes = self.situations[index]
            secure = secure_mask(codes)
            unit = np.empty((index.size, spb))
            for rows, rng in ((secure, secure_rng), (~secure, public_rng)):
                unit[rows] = rng.standard_normal((np.count_nonzero(rows), spb))
            r_alice = resistors[codes[:, None] >> 1]
            r_bob = resistors[codes[:, None] & 1]
            parallel = r_alice * r_bob / (r_alice + r_bob)
            noise = johnson_rms(parallel, config.t_eff, config.f_b) * unit
            ac = divider_ac(r_alice, r_bob, source_samples(config, index))
            wire = ac + noise
            _check_finite(wire, "wire voltage")
            yield SessionChunk(index, codes, wire, ac, noise)

    def secure_noise(self) -> Iterator[tuple[np.ndarray, ...]]:
        """Yield (period index, codes, unit wire noise) of the secure periods.

        Times the Johnson rms of r_low and r_high in parallel, the unit
        noise is what :meth:`chunks` adds to those periods.
        """
        spb = self.config.samples_per_bit
        return self._secure_draws(Stream.SECURE_WIRE, lambda rng, n: rng.standard_normal((n, spb)))

    def secure_bands(self, mask: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
        """Yield (period index, codes, unit band noise) like :meth:`secure_noise`.

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
        """Runs of up to ``CHUNK_PERIODS`` secure periods, each drawn by ``draw(rng, count)``."""
        rng = stream(self.config.seed, label)
        pending = np.empty(0, dtype=np.intp)
        for start in range(0, len(self), CHUNK_PERIODS):
            block = secure_mask(self.situations[start : start + CHUNK_PERIODS])
            pending = np.concatenate([pending, start + np.flatnonzero(block)])
            if pending.size >= CHUNK_PERIODS:  # a block adds at most one run
                index, pending = pending[:CHUNK_PERIODS], pending[CHUNK_PERIODS:]
                yield index, self.situations[index], draw(rng, index.size)
        if pending.size:
            yield pending, self.situations[pending], draw(rng, pending.size)


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
