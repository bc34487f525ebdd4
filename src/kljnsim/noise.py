"""Band-limited Gaussian noise synthesis and single-window spectral estimation.

The emulated thermal sources are Gaussian band-limited white noise (GBWN):
zero mean, flat one-sided spectrum from DC to the noise bandwidth, and no
power above it.  Traces are generated at the Nyquist rate of that band
(sample rate equal to twice the noise bandwidth), so consecutive samples
are statistically independent and a bit period of N samples carries N
independent observations.

Everything here is deterministic: a 64-bit seed plus a ``NoiseSpec`` fixes
the output exactly, independent of platform.  Sub-streams for different
consumers are derived with :func:`mix_seed` rather than by sharing one
generator, which keeps parallel execution byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeMismatchError

__all__ = [
    "BOLTZMANN",
    "NoiseSpec",
    "SampledTrace",
    "Spectrum",
    "generate_unit_gbwn",
    "johnson_rms",
    "johnson_scale",
    "mix_seed",
    "periodogram",
    "power_spectrum",
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


@dataclass(frozen=True)
class SampledTrace:
    """A uniformly sampled real-valued signal.

    Attributes:
        samples: float64 array of sample values (volts or amperes).
        sample_rate: Sampling rate in Hz, strictly positive.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ConfigurationError("trace must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise ConfigurationError("trace contains non-finite samples")
        if not self.sample_rate > 0:
            raise ConfigurationError(
                f"sample_rate must be positive, got {self.sample_rate}"
            )
        samples.flags.writeable = False  # traces are immutable values
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Trace length in seconds."""
        return self.samples.size / self.sample_rate

    def rms(self) -> float:
        """Root mean square of the samples."""
        return float(np.sqrt(np.mean(np.square(self.samples))))


@dataclass(frozen=True)
class NoiseSpec:
    """Recipe for one GBWN trace.

    The sample rate must equal exactly twice the noise bandwidth; the
    band-limited model only holds on that grid.
    """

    n_samples: int
    sample_rate: float
    noise_bandwidth: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ConfigurationError(
                f"n_samples must be at least 2, got {self.n_samples}"
            )
        if not self.noise_bandwidth > 0:
            raise ConfigurationError(
                f"noise_bandwidth must be positive, got {self.noise_bandwidth}"
            )
        if self.sample_rate != 2.0 * self.noise_bandwidth:
            raise ConfigurationError(
                "sample_rate must equal twice the noise bandwidth exactly: "
                f"got {self.sample_rate} vs 2 * {self.noise_bandwidth}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must fit in 64 bits")


@dataclass(frozen=True)
class Spectrum:
    """One-sided periodogram of a real trace.

    ``bins[m]`` holds ``|(1/N) * sum_n x[n] exp(-2j*pi*m*n/N)|**2`` for
    m = 0 .. N//2, i.e. squared magnitudes of the normalized DFT.  Summing
    the bins with interior bins counted twice returns the mean square of
    the trace (Parseval).
    """

    bins: np.ndarray
    bin_width: float
    band: tuple[float, float]

    def __post_init__(self) -> None:
        bins = np.asarray(self.bins, dtype=np.float64)
        if bins.ndim != 1 or bins.size == 0:
            raise ConfigurationError("spectrum bins must be a non-empty 1-D array")
        if not self.bin_width > 0:
            raise ConfigurationError(
                f"bin_width must be positive, got {self.bin_width}"
            )
        bins.flags.writeable = False
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "band", (float(self.band[0]), float(self.band[1])))

    def __len__(self) -> int:
        return self.bins.size

    def frequencies(self) -> np.ndarray:
        """Center frequency of each bin in Hz."""
        return np.arange(self.bins.size) * self.bin_width


def generate_unit_gbwn(spec: NoiseSpec) -> SampledTrace:
    """Generate one unit-variance GBWN trace.

    At the pinned rate the represented band ends exactly at the noise
    bandwidth, so i.i.d. standard Gaussians drawn at that rate already are
    band-limited white noise with every DFT bin inside the band; no
    frequency-domain shaping is needed.  The sample variance keeps its
    natural chi-square fluctuation; consumers that need a fixed power must
    average over enough samples.

    Args:
        spec: Trace length, grid, and seed.

    Returns:
        A ``SampledTrace`` of ``spec.n_samples`` values at ``spec.sample_rate``.
    """
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    return SampledTrace(rng.standard_normal(spec.n_samples), spec.sample_rate)


def johnson_rms(resistance, t_eff: float, bandwidth: float):
    """Integrated Johnson voltage noise ``sqrt(4 * k * t_eff * R * bandwidth)``.

    ``resistance`` may be a scalar or an array of resistor values.

    Raises:
        ConfigurationError: On a negative resistance or temperature, or a
            non-positive bandwidth.
    """
    if np.any(np.less(resistance, 0)):
        raise ConfigurationError(f"resistance must be non-negative, got {resistance}")
    if t_eff < 0:
        raise ConfigurationError(f"t_eff must be non-negative, got {t_eff}")
    if not bandwidth > 0:
        raise ConfigurationError(f"bandwidth must be positive, got {bandwidth}")
    resistance = np.asarray(resistance, dtype=np.float64)
    return np.sqrt(4.0 * BOLTZMANN * t_eff * resistance * bandwidth)


def johnson_scale(
    trace: SampledTrace, resistance: float, t_eff: float, bandwidth: float
) -> SampledTrace:
    """Scale a unit-variance trace to a thermal-noise amplitude.

    The target rms is :func:`johnson_rms` of the resistor over the band;
    zero temperature yields an all-zero trace (generator switched off).
    """
    return SampledTrace(
        trace.samples * johnson_rms(resistance, t_eff, bandwidth), trace.sample_rate
    )


def power_spectrum(samples: np.ndarray) -> np.ndarray:
    """One-sided rectangular-window periodogram bins along the last axis.

    No tapering and no averaging: single window, 1/N-normalized DFT,
    squared magnitudes.  For an array of periods (one per row) this is one
    batched FFT.
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
    """
    mask = np.asarray(mask, dtype=bool)
    bins = samples_per_bit // 2 + 1
    if mask.shape != (bins,) or mask[0]:
        raise ShapeMismatchError(f"band mask must span {bins} rfft bins, DC excluded")
    draws = rng.standard_normal((count, 2 * np.count_nonzero(mask)))
    band = np.sqrt(0.5 / samples_per_bit) * draws.view(np.complex128)
    if samples_per_bit % 2 == 0 and mask[-1]:  # real, carrying both parts' variance
        band[:, -1] = np.sqrt(2.0) * band[:, -1].real
    return band


def periodogram(trace: SampledTrace) -> Spectrum:
    """Periodogram of one trace; bin m covers frequency m * sample_rate / N."""
    n = len(trace)
    return Spectrum(
        bins=power_spectrum(trace.samples),
        bin_width=trace.sample_rate / n,
        band=(0.0, trace.sample_rate / 2.0),
    )
