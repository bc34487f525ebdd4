"""Properties of the batched session engine.

Results must be pure functions of (config, seed): independent of the
batch size the engine works in, of the number of sweep threads and of
whether a session is iterated over every period or its secure periods
only.  The resistor coin stream must match the period-by-period draws it
replaced, and memory must not grow with the number of secure bits.
"""

import dataclasses
import hashlib
import io
import math
import tracemalloc
from functools import partial

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kljnsim.channel as channel
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
    HfPreparation,
    UNDETERMINED,
    hf_decide,
    lf_decide,
    lf_gamma,
    lf_threshold,
)
from kljnsim.channel import Situation, secure_mask
from kljnsim.cli import resolve
from kljnsim.experiment import AttackOutcome, write_sweep_csv
from kljnsim.noise import Stream, johnson_rms, mix_seed, stream

PAIR = ResistorPair(r_low=1.0e3, r_high=1.0e4)
SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
LOWFREQ, HIGHFREQ = ThresholdAttack(), SpectralAttack(ensemble_size=100)
ATTACKS = st.sampled_from([LOWFREQ, HIGHFREQ])


def make_config(attack, seed, bits, u_eff=1.0):
    lowfreq = isinstance(attack, ThresholdAttack)
    return KljnConfig(
        resistors=PAIR,
        t_eff=teff_of_ueff(u_eff, PAIR, 1.0e5),
        f_b=1.0e5,
        f_c=1.0e3 if lowfreq else 500.0,
        source=PeriodicSource(amplitude=1.0, frequency=318.30 if lowfreq else 2000.0),
        seed=seed,
        n_secure_bits=bits,
    )


def wire_of(session):
    return np.concatenate([chunk.wire_voltage for chunk in session.chunks()])


@settings(max_examples=6, deadline=None)
@given(seed=SEEDS, attack=ATTACKS, notch=st.booleans())
def test_results_do_not_depend_on_chunk_size(seed, attack, notch):
    config = make_config(attack, seed, bits=60)
    defense = Notch(500.0) if notch else None
    outcomes, wires = [], []
    default = channel.CHUNK_PERIODS
    try:
        for size in (1, 7, default):
            channel.CHUNK_PERIODS = size
            outcomes.append(run_point(config, attack, defense))
            wires.append(wire_of(simulate_session(config)))
    finally:
        channel.CHUNK_PERIODS = default
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert np.array_equal(wires[0], wires[1]) and np.array_equal(wires[0], wires[2])


@settings(max_examples=3, deadline=None)
@given(seed=SEEDS)
def test_sweep_csv_does_not_depend_on_threads(seed):
    base = make_config(LOWFREQ, seed, bits=30)
    attack = ThresholdAttack()
    texts = []
    for workers in (1, 3):
        points = sweep(
            base, attack, u_eff_grid=[0.1, 1.0, 10.0], f_a_list=[318.30, 101.32],
            max_workers=workers,
        )
        buffer = io.StringIO()
        write_sweep_csv(points, buffer)
        texts.append(buffer.getvalue())
    assert texts[0] == texts[1]


def period_by_period_situations(config):
    """Reference: one coin pair per period, as sessions were once drawn."""
    chooser = stream(config.seed, Stream.COINS)
    codes = []
    secure = 0
    while secure < config.n_secure_bits:
        alice, bob = chooser.integers(0, 2, size=2)
        codes.append(2 * alice + bob)
        secure += int(alice != bob)
    return np.array(codes)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, bits=st.integers(min_value=1, max_value=700))
def test_coin_stream_matches_period_by_period_draws(seed, bits):
    config = make_config(LOWFREQ, seed, bits)
    session = simulate_session(config)
    assert np.array_equal(session.situations, period_by_period_situations(config))
    assert np.count_nonzero(secure_mask(session.situations)) == bits


def test_coin_stream_pinned():
    # Situation letters of seed 42 at 200 secure bits from the SFC64 coin
    # stream: 379 periods, "HLLLLHLHHH..." hashed.
    session = simulate_session(make_config(LOWFREQ, 42, 200))
    letters = "".join(Situation(code).name for code in session.situations)
    assert len(session) == 379
    assert letters.startswith("HLLLLHLHHHHLHHHLHLLL")
    assert (
        hashlib.sha256(letters.encode()).hexdigest()
        == "5b0cb00aa0acc94fb9ba1e60e8c6ae0a8c95dfc352d16cb0b4c98bfb62fbeec8"
    )


def scalar_hf_decide(power, threshold):
    """Reference: the per-period decision; a tie is undetermined."""
    if power > threshold:
        return Situation.LH
    if power < threshold:
        return Situation.HL
    return UNDETERMINED


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=200, deadline=None)
@given(threshold=FINITE, offsets=st.lists(st.sampled_from([0.0, 1.0, -1.0]), max_size=8))
def test_vectorised_hf_decide_matches_scalar_reference(threshold, offsets):
    mask = np.array([False, True, True])
    prep = HfPreparation(np.zeros(2), threshold, 100, mask=mask)
    # Zero offsets give exact ties; a zero threshold also ties with -0.0.
    powers = np.array([threshold + offset for offset in offsets], dtype=np.float64)
    if threshold == 0.0:
        powers = np.append(powers, [-0.0, 0.0])
    expected = [scalar_hf_decide(p, threshold) for p in powers]
    assert hf_decide(powers, prep).tolist() == expected


@settings(max_examples=100, deadline=None)
@given(
    cycles=st.integers(min_value=1, max_value=10**6),
    tau=st.floats(min_value=1e-6, max_value=1.0),
    phase=st.floats(min_value=-3.2, max_value=3.2),
)
def test_integer_cycle_periods_are_discarded(cycles, tau, phase):
    source = PeriodicSource(amplitude=1.0, frequency=cycles / tau, phase=phase)
    assume(source.frequency * tau == math.floor(source.frequency * tau))
    threshold = lf_threshold(source, np.arange(299), tau, 0.5)
    assert np.all(threshold == 0.0)
    wire = np.random.default_rng(cycles).standard_normal((threshold.size, 16))
    decision = lf_decide(threshold, lf_gamma(wire, threshold))
    assert np.all(decision.guess == UNDETERMINED)


def traced_peak(run, config):
    tracemalloc.start()
    try:
        run(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def simulate_every_chunk(config):
    """What ``simulate`` holds while it writes: the coin array and one chunk."""
    for _ in simulate_session(config).chunks():
        pass


def test_memory_bounded_in_secure_bits():
    # fig5's chunk buffers dwarf its per-period state, so it needs more bits to show growth.
    cases = [("attack", "fig6", 4), ("attack", "fig5", 32)]
    cases += [("simulate", "fig6", 32), ("simulate", "fig5", 32)]
    for command, preset, factor in cases:
        setup = resolve("attack", preset=preset)
        attack = partial(run_point, attack=setup.attack)
        run = simulate_every_chunk if command == "simulate" else attack
        one = setup.config
        many = dataclasses.replace(one, n_secure_bits=factor * one.n_secure_bits)
        traced_peak(run, one)  # first call pays one-off allocations
        peak_one = traced_peak(run, one)
        peak_many = traced_peak(run, many)
        assert peak_many <= 1.10 * peak_one, (command, preset, factor, peak_one, peak_many)


def chunk_secure_rows(session):
    """Index, situation and wire voltage of the secure rows of ``chunks()``, as bytes."""
    chunks = list(session.chunks())
    return [
        np.concatenate(
            [getattr(chunk, name)[secure_mask(chunk.situations)] for chunk in chunks]
        ).tobytes()
        for name in ("index", "situations", "wire_voltage")
    ]


def secure_noise_rows(session):
    """The same rows built as gain * source + sigma * unit from ``secure_noise()``."""
    config = session.config
    r_low, r_high = PAIR.r_low, PAIR.r_high
    gains = np.array([[r_high / (r_low + r_high)], [r_low / (r_high + r_low)]])  # LH, HL
    sigma = johnson_rms(PAIR.parallel, config.t_eff, config.f_b)
    rows = []
    for index, codes, unit in session.secure_noise():
        a_cos, a_sin, c, s = channel.source_basis(config, index)
        rows.append((index, codes, gains[codes - 1] * (a_cos * c - a_sin * s) + sigma * unit))
    return [np.concatenate(column).tobytes() for column in zip(*rows)]


@settings(max_examples=6, deadline=None)
@given(seed=SEEDS, attack=ATTACKS, bits=st.integers(min_value=1, max_value=300))
def test_secure_rows_do_not_depend_on_iteration(seed, attack, bits):
    config = make_config(attack, seed, bits)
    session = simulate_session(config)
    assert np.array_equal(session.situations, period_by_period_situations(config))
    reference = secure_noise_rows(session)
    assert reference[0] == np.flatnonzero(secure_mask(session.situations)).tobytes()
    default = channel.CHUNK_PERIODS
    try:
        for size in (1, 7, default):
            channel.CHUNK_PERIODS = size
            assert secure_noise_rows(session) == reference, size
            assert chunk_secure_rows(session) == reference, size
    finally:
        channel.CHUNK_PERIODS = default


def all_period_outcome(config, attack):
    """Reference: score the secure rows of an iteration over every period."""
    guessed = correct = 0
    for chunk in simulate_session(config).chunks():
        secure = secure_mask(chunk.situations)
        threshold = lf_threshold(
            config.source, chunk.index[secure], config.period_duration, attack.kappa
        )
        guess = lf_decide(threshold, lf_gamma(chunk.wire_voltage[secure], threshold)).guess
        guessed += int(np.count_nonzero(guess != UNDETERMINED))
        correct += int(np.count_nonzero(guess == chunk.situations[secure]))
    return AttackOutcome(config, attack.mode, guessed, correct)


@settings(max_examples=3, deadline=None)
@given(seed=SEEDS)
def test_sweep_scores_the_secure_rows_of_every_period(seed):
    base = make_config(LOWFREQ, seed, bits=40)
    attack = ThresholdAttack()
    grid, frequencies = [0.3, 3.0], [318.30, 101.32]
    expected = [
        all_period_outcome(
            dataclasses.replace(
                base,
                t_eff=teff_of_ueff(u_eff, PAIR, base.f_b),
                seed=mix_seed(base.seed, i),
                source=dataclasses.replace(base.source, frequency=f_a),
            ),
            attack,
        )
        for i, f_a in enumerate(frequencies)
        for u_eff in grid
    ]
    for workers in (1, 3):
        points = sweep(base, attack, u_eff_grid=grid, f_a_list=frequencies, max_workers=workers)
        assert points == expected
