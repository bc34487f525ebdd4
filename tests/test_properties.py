"""Properties of the batched session engine.

Results must be pure functions of (config, seed): independent of the
batch size the engine works in and of the number of sweep threads.  The
resistor coin stream must match the period-by-period draws it replaced,
and memory must not grow with the number of secure bits.  The helper
thread that draws noise ahead must neither change a number nor outlive
the iteration that started it.
"""

import dataclasses
import hashlib
import io
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kljnsim.channel as channel
from kljnsim import (
    AttackConfig,
    AttackMode,
    ConfigurationError,
    DefenseKind,
    DefenseSpec,
    UNDETERMINED,
    HfPreparation,
    KljnConfig,
    PeriodicSource,
    ResistorPair,
    Situation,
    Spectrum,
    hf_decide,
    lf_decide,
    lf_gamma,
    lf_threshold,
    mix_seed,
    run_point,
    simulate_session,
    sweep,
    teff_of_ueff,
    write_sweep_csv,
)
from kljnsim.cli import parse_config

PAIR = ResistorPair(r_low=1.0e3, r_high=1.0e4)
SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


def make_config(mode, seed, bits, u_eff=1.0):
    lowfreq = mode is AttackMode.LOW_FREQ
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
@given(seed=SEEDS, mode=st.sampled_from(AttackMode), notch=st.booleans())
def test_results_do_not_depend_on_chunk_size(seed, mode, notch):
    config = make_config(mode, seed, bits=60)
    attack = AttackConfig(mode=mode, ensemble_size=100)
    defense = DefenseSpec(kind=DefenseKind.NOTCH, notch_halfwidth=500.0) if notch else None
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
    base = make_config(AttackMode.LOW_FREQ, seed, bits=30)
    attack = AttackConfig(mode=AttackMode.LOW_FREQ)
    texts = []
    for workers in (1, 3):
        points = sweep(
            base, attack, u_eff_grid=[0.1, 1.0, 10.0], f_a_list=[318.30, 101.32],
            max_workers=workers,
        )
        buffer = io.StringIO()
        write_sweep_csv(points, base, buffer)
        texts.append(buffer.getvalue())
    assert texts[0] == texts[1]


def period_by_period_situations(config):
    """Reference: one coin pair per period, as sessions were once drawn."""
    chooser = np.random.Generator(np.random.Philox(key=mix_seed(config.seed, 1)))
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
    config = make_config(AttackMode.LOW_FREQ, seed, bits)
    session = simulate_session(config)
    assert np.array_equal(session.situations, period_by_period_situations(config))
    assert np.count_nonzero(session.secure) == bits


def test_coin_stream_pinned():
    # Situation letters of seed 42 at 200 secure bits as simulated before
    # the engine was batched: 399 periods, "LHLLHHLHHH..." hashed.
    session = simulate_session(make_config(AttackMode.LOW_FREQ, 42, 200))
    letters = "".join(Situation(code).name for code in session.situations)
    assert len(session) == 399
    assert letters.startswith("LHLLHHLHHHHHLHHHHLLH")
    assert (
        hashlib.sha256(letters.encode()).hexdigest()
        == "25327f733e387bdeec2e82e50ac26aee986fff5340679b0bb9e004ce5c00b0d7"
    )


def scalar_hf_decide(power, threshold):
    """Reference: the per-period decision with its exact-tie coin."""
    if power > threshold:
        return Situation.LH
    if power < threshold:
        return Situation.HL
    bits = int(np.float64(power).view(np.uint64))
    return Situation.LH if mix_seed(0x7E5EEDC011, bits) & 1 else Situation.HL


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=200, deadline=None)
@given(threshold=FINITE, offsets=st.lists(st.sampled_from([0.0, 1.0, -1.0]), max_size=8))
def test_vectorised_hf_decide_matches_scalar_tie_coin(threshold, offsets):
    background = Spectrum(bins=np.zeros(3), bin_width=1.0, band=(0.0, 2.0))
    prep = HfPreparation(background, threshold, (1.0, 2.0), 100, samples_per_bit=4)
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
    threshold = lf_threshold(source, np.arange(1, 300), tau, 0.5)
    assert np.all(threshold == 0.0)
    wire = np.random.default_rng(cycles).standard_normal((threshold.size, 16))
    decision = lf_decide(threshold, lf_gamma(wire, threshold))
    assert np.all(decision.guess == UNDETERMINED)


def traced_peak(config, attack):
    tracemalloc.start()
    try:
        run_point(config, attack)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_bounded_in_secure_bits():
    setup = parse_config(None, preset="fig6")
    one = setup.config
    four = dataclasses.replace(one, n_secure_bits=4 * one.n_secure_bits)
    traced_peak(one, setup.attack)  # first call pays one-off allocations
    peak_one = traced_peak(one, setup.attack)
    peak_four = traced_peak(four, setup.attack)
    assert peak_four <= 1.10 * peak_one, (peak_one, peak_four)


def consume_blocks(rng, count):
    """Every (index, unit) pair, and the most threads alive beside the consumer's."""
    baseline = threading.active_count()
    pairs, extra = [], 0
    for pair in channel.unit_noise_blocks(rng, count, 5):
        extra = max(extra, threading.active_count() - baseline)
        pairs.append(pair)
    return pairs, extra


@settings(max_examples=10, deadline=None)
@given(
    seed=SEEDS,
    count=st.integers(min_value=1, max_value=300),
    on_main_thread=st.booleans(),
)
def test_blocks_continue_one_inline_stream(seed, count, on_main_thread):
    # On the main thread one helper draws ahead; sweep pool workers draw inline.
    def philox():
        return np.random.Generator(np.random.Philox(key=seed))

    if on_main_thread:
        pairs, extra = consume_blocks(philox(), count)
    else:
        with ThreadPoolExecutor(max_workers=1) as pool:
            pairs, extra = pool.submit(consume_blocks, philox(), count).result(timeout=60)
    assert extra == (1 if on_main_thread else 0)
    assert np.array_equal(np.concatenate([index for index, _ in pairs]), np.arange(count))
    drawn = np.concatenate([unit for _, unit in pairs])
    assert np.array_equal(drawn, philox().standard_normal((count, 2, 5)))


def test_noise_helper_thread_never_outlives_iteration():
    baseline = threading.active_count()
    session = simulate_session(make_config(AttackMode.HIGH_FREQ, 7, bits=400))
    assert len(session) > 2 * channel.CHUNK_PERIODS
    first = wire_of(session)
    assert threading.active_count() == baseline
    for chunk in session.chunks():
        assert threading.active_count() == baseline + 1
        break
    assert threading.active_count() == baseline
    assert np.array_equal(wire_of(session), first)
    assert threading.active_count() == baseline


@pytest.mark.parametrize(
    "attack, defense",
    [
        # The notch rejects its center on the first chunk, with the next
        # chunk's noise already in flight.
        (
            AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=100),
            DefenseSpec(kind=DefenseKind.NOTCH, notch_center=2.0e5, notch_halfwidth=10.0),
        ),
        # The rehearsal rejects the band before drawing anything.
        (AttackConfig(mode=AttackMode.HIGH_FREQ, ensemble_size=100, band=(10.0, 2.0e5)), None),
    ],
)
def test_noise_helper_thread_never_outlives_failed_run(attack, defense):
    baseline = threading.active_count()
    with pytest.raises(ConfigurationError):
        run_point(make_config(AttackMode.HIGH_FREQ, 7, bits=400), attack, defense)
    assert threading.active_count() == baseline
