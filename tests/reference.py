"""Plain-array references for the tests; the package itself never needs them.

Runs read each situation's divider gain and loop resistance from
``ResistorPair.table``, draw the wire noise of a period as one Johnson
noise of that resistance, and draw highfreq periods' band bins directly.
These rebuild the same quantities the long way, from the two ends'
resistors and noises and from sampled periods.
"""

import numpy as np


def divider_ac(r_alice, r_bob, source):
    """Periodic source as seen on the wire, through the resistive divider."""
    return r_bob / (r_alice + r_bob) * source


def wire_noise(r_alice, r_bob, alice_noise, bob_noise):
    """Superposed thermal noise on the wire.

    Each end's generator reaches the wire through the opposite end's
    resistor ratio, so Alice's noise is weighted by r_bob and vice versa.
    """
    return (r_alice * bob_noise + r_bob * alice_noise) / (r_alice + r_bob)


def hf_band(samples, prep):
    """1/N-normalized DFT coefficients of each period inside ``prep``'s band.

    ``samples`` holds one period of N samples per row.  The DFT is linear,
    so the band of ``ac + sigma * z`` is ``hf_band(ac) + sigma * hf_band(z)``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    return np.fft.rfft(samples, axis=-1)[..., prep.mask] / samples.shape[-1]
