"""Band-limited Gaussian noise: Johnson levels, random streams and band draws.

The emulated thermal sources are Gaussian band-limited white noise (GBWN):
zero mean, flat one-sided spectrum from DC to the noise bandwidth, and no
power above it.  Wire noise is sampled at the Nyquist rate of that band
(sample rate equal to twice the noise bandwidth), so consecutive samples
are statistically independent and a bit period of N samples carries N
independent observations.

Everything here is deterministic: a session seed and a :class:`Stream`
label fix a generator's output exactly, independent of platform.  Each
consumer of draws opens its own stream with :func:`stream` rather than
sharing one generator, which keeps parallel execution byte-reproducible.
Runs use neither :func:`generate_unit_gbwn` nor :func:`periodogram`.  They
stay only because ``bench/child.py`` patches them, under these names, on
every traced run; the tests use them as plain-array references.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

__all__ = [
    "BOLTZMANN",
    "Stream",
    "generate_unit_gbwn",
    "johnson_rms",
    "mix_seed",
    "periodogram",
    "stream",
    "unit_band_noise",
]

BOLTZMANN = 1.380649e-23  # J/K, exact SI value

_MASK64 = (1 << 64) - 1
# splitmix64 constants (Steele, Lea, Flood 2014); stable across releases.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix_seed(base: int, *parts: int) -> int:
    """Derive a 64-bit sub-seed from a base seed and integer stream labels.

    Folds each label into the state and applies the splitmix64 finalizer,
    so (base, labels) -> seed is stable, order sensitive, and free of the
    accidental collisions plain addition would produce.

    Args:
        base: Base seed, any non-negative int (only the low 64 bits count).
        *parts: Stream labels, e.g. (period_index, end_index).

    Returns:
        A deterministic integer in [0, 2**64).
    """
    z = base & _MASK64
    for part in parts:
        z = (z + _GAMMA + (part & _MASK64)) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z ^= z >> 31
    return z


class Stream(IntEnum):
    """Disjoint stream labels under one session seed, one per consumer of draws."""

    COINS = 1  # resistor coin flips
    SECURE_WIRE = 2  # wire noise of the LH/HL periods, in their order
    EAVESDROPPER = 3  # rehearsal band noise, disjoint from the victim's streams
    PUBLIC_WIRE = 4  # wire noise of the LL/HH periods, in their order
    SECURE_BAND = 6  # band noise of the LH/HL periods, in their order


def stream(seed: int, label: Stream) -> np.random.Generator:
    """SFC64 keyed by ``mix_seed(seed, label)``; streams are read in order, never by offset."""
    return np.random.Generator(np.random.SFC64(mix_seed(seed, label)))


def generate_unit_gbwn(n_samples: int, seed: int) -> np.ndarray:
    """``n_samples`` unit-variance GBWN samples from Philox keyed by ``seed``.

    At the pinned rate i.i.d. standard Gaussians already are band-limited
    white noise with every DFT bin inside the band.  Runs draw through
    :func:`stream`; this is the tests' reference generator.
    """
    return np.random.Generator(np.random.Philox(key=seed)).standard_normal(n_samples)


def johnson_rms(resistance, t_eff: float, bandwidth: float):
    """Integrated Johnson voltage noise ``sqrt(4 * k * t_eff * R * bandwidth)``.

    ``resistance`` may be a scalar or an array of resistor values.  Scalars
    multiply as Python floats, so :class:`~kljnsim.channel.KljnConfig` can
    bound the result without a warning when their product overflows.
    """
    return np.sqrt(4.0 * BOLTZMANN * t_eff * resistance * bandwidth)


def periodogram(samples: np.ndarray) -> np.ndarray:
    """One-sided rectangular-window periodogram bins along the last axis.

    Bin m holds ``|(1/N) * sum_n x[n] exp(-2j*pi*m*n/N)|**2`` and covers
    frequency m * sample_rate / N, for m = 0 .. N//2.  Summing the bins
    with interior bins counted twice returns the mean square (Parseval).
    For an array of periods (one per row) this is one batched FFT.
    """
    samples = np.asarray(samples, dtype=np.float64)
    coeffs = np.fft.rfft(samples, axis=-1) / samples.shape[-1]
    return coeffs.real**2 + coeffs.imag**2


def unit_band_noise(rng, count: int, samples_per_bit: int, mask: np.ndarray) -> np.ndarray:
    """The ``mask`` bins of the 1/N DFT of ``count`` periods of N standard normals.

    Those bins are independent and complex with variance 1/(2N) per
    component strictly between DC and Nyquist; a Nyquist bin is real with
    variance 1/N (Kay 1998).  So each period draws two normals per bin,
    in order, instead of N samples and an FFT: alike in law, not equal.
    ``mask`` spans the N // 2 + 1 rfft bins with DC excluded.
    """
    draws = rng.standard_normal((count, 2 * np.count_nonzero(mask)))
    band = np.sqrt(0.5 / samples_per_bit) * draws.view(np.complex128)
    if samples_per_bit % 2 == 0 and mask[-1]:  # real, carrying both parts' variance
        band[:, -1] = np.sqrt(2.0) * band[:, -1].real
    return band
