"""The ensemble trajectory kernels against the scalar one-sample oracle, bit
for bit; the row-vectorized ``integers(0, m)`` replay against numpy's own
calls; and the re-keyed streams both draw from.

The oracle (``oracles.scalar_ensemble_profile`` / ``scalar_ensemble_chunk``)
shares only ``rng.stream`` with the engine: it reads placements by their raw
fields and rescans every server at every step.
"""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsched import (
    MdsPlacement,
    ReplicationPlacement,
    ensemble_monte_carlo,
    large_storage_scheme,
    simulate_ensemble_profile,
)
from fragsched import engine, rng
from oracles import scalar_ensemble_chunk, scalar_ensemble_profile

MODES = [engine.SERVER_UNIFORM, engine.FRAGMENT_UNIFORM]


def assert_same_state(gen, ref):
    """The full bit-generator state, a pending half-word included."""
    np.testing.assert_equal(gen.bit_generator.state, ref.bit_generator.state)


def assert_same_download(placement, mode, index):
    """Same profile from the same stream, and the same draws."""
    gen = rng.stream(41, rng.DOMAIN_TRAJECTORY, index)
    ref = rng.stream(41, rng.DOMAIN_TRAJECTORY, index)
    got = simulate_ensemble_profile(placement, mode, gen)
    want = scalar_ensemble_profile(placement, mode, ref)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert_same_state(gen, ref)
    assert gen.bit_generator.random_raw() == ref.bit_generator.random_raw()


@st.composite
def rep_placements(draw):
    """Up to 8 fragments with up to 8 replicas on up to 6 servers: replicas
    may share a server, R may exceed B, and a server may hold nothing."""
    B = draw(st.integers(1, 6))
    V = draw(st.integers(1, 8))
    R = draw(st.integers(1, 8))
    theta = draw(st.lists(st.lists(st.integers(1, B), min_size=R, max_size=R),
                          min_size=V, max_size=V))
    return ReplicationPlacement(B=B, V=V, R=R, theta=tuple(map(tuple, theta)))


@st.composite
def mds_placements(draw):
    B = draw(st.integers(1, 6))
    V = draw(st.integers(1, 6))
    R = draw(st.integers(1, 4))
    chi = draw(st.lists(st.integers(1, B), min_size=V * R, max_size=V * R))
    return MdsPlacement(B=B, V=V, R=R, chi=tuple(chi))


@settings(max_examples=150, deadline=None)
@given(rep_placements(), st.sampled_from(MODES), st.integers(0, 1000))
def test_replication_matches_oracle(placement, mode, index):
    assert_same_download(placement, mode, index)


@settings(max_examples=150, deadline=None)
@given(mds_placements(), st.sampled_from(MODES), st.integers(0, 1000))
def test_mds_matches_oracle(placement, mode, index):
    assert_same_download(placement, mode, index)


@pytest.mark.parametrize("V,B,K", [(4, 3, 8), (2, 2, 4), (3, 1, 3), (5, 4, 5)])
@pytest.mark.parametrize("mode", MODES)
def test_large_storage_matches_oracle(V, B, K, mode):
    placement = large_storage_scheme(V, B, K)
    for index in range(20):
        assert_same_download(placement, mode, index)


@pytest.mark.parametrize("kind", ["rep", "mds"])
@pytest.mark.parametrize("mode", MODES)
def test_chunk_matches_oracle(kind, mode):
    # B=3 < R=4: most replication samples hold a duplicate
    for B, V, R in [(3, 5, 4), (7, 6, 2), (1, 3, 2)]:
        args = (B, V, R, kind, mode, 29, 5, 45)
        psum, psumsq, dup = engine._ensemble_chunk(args)
        want = scalar_ensemble_chunk(args)
        assert np.array_equal(psum, want[0]) and np.array_equal(psumsq, want[1])
        assert dup == want[2]


@pytest.mark.parametrize("kind", ["rep", "mds"])
@pytest.mark.parametrize("B,V,R", [(20, 50, 5), (100, 200, 3)])
def test_chunk_matches_oracle_at_benchmark_shapes(B, V, R, kind):
    """Server order at the benchmark's shapes, where many servers run dry in
    one step of a batch; the samples fill one ``BATCH_RUNS`` batch and spill
    into the next."""
    start = 3 * engine.BATCH_RUNS - 5
    args = (B, V, R, kind, engine.SERVER_UNIFORM, 17, start, start + engine.BATCH_RUNS + 9)
    psum, psumsq, dup = engine._ensemble_chunk(args)
    want = scalar_ensemble_chunk(args)
    assert np.array_equal(psum, want[0]) and np.array_equal(psumsq, want[1])
    assert dup == want[2]


@pytest.mark.parametrize("kind", ["rep", "mds"])
@pytest.mark.parametrize("B,V,R", [(20, 50, 5), (100, 200, 3)])
def test_fragment_chunk_matches_oracle_at_benchmark_shapes(B, V, R, kind):
    """Fragment order over the same samples: the batched pass places up to
    256 x 600 items at once, more flat positions than 16 bits hold."""
    start = 3 * engine.BATCH_RUNS - 5
    args = (B, V, R, kind, engine.FRAGMENT_UNIFORM, 17, start, start + engine.BATCH_RUNS + 9)
    psum, psumsq, dup = engine._ensemble_chunk(args)
    want = scalar_ensemble_chunk(args)
    assert np.array_equal(psum, want[0]) and np.array_equal(psumsq, want[1])
    assert dup == want[2]


SUMMARY_FIELDS = ["kind", "order_mode", "B", "V", "R", "samples", "master_seed",
                  "normalized_aggregate", "duplicate_frequency"]


@pytest.mark.parametrize("kind,mode", [("rep", "server"), ("rep", "fragment"),
                                       ("mds", "server"), ("mds", "fragment")])
def test_summary_matches_oracle(kind, mode, monkeypatch):
    # one worker runs all samples as one task, and w workers share 4w tasks
    # of ceil(samples / 4w), so only the threads > 1 cases cross chunk edges:
    # 2 samples split 1 + 1, 9 split 2 + 2 + 2 + 2 + 1, 17 split 5 x 3 + 2,
    # 10 split ten tasks of 1
    cases = [(1, 1), (4, 1), (5, 1), (9, 1), (2, 2), (9, 2), (17, 2), (10, 3)]
    got = {c: ensemble_monte_carlo(4, 5, 3, kind, mode, c[0], 31, threads=c[1]) for c in cases}
    monkeypatch.setattr(engine, "_ensemble_chunk", scalar_ensemble_chunk)
    for (samples, threads), summary in got.items():
        want = ensemble_monte_carlo(4, 5, 3, kind, mode, samples, 31, threads=1)
        for field in SUMMARY_FIELDS:
            assert getattr(summary, field) == getattr(want, field), field
        assert np.array_equal(summary.mean_profile, want.mean_profile)
        assert np.array_equal(summary.se_profile, want.se_profile, equal_nan=True)


def test_streams_equal_fresh_generators():
    domain = rng.DOMAIN_TRAJECTORY
    for index, gen in zip(range(200), rng.streams(8, domain, range(200))):
        fresh = rng.stream(8, domain, index)
        # the raw words after in-place re-keying, as ``stream_words`` reads them
        assert np.array_equal(gen.bit_generator.random_raw(5), fresh.bit_generator.random_raw(5))
        assert np.array_equal(gen.permutation(17), fresh.permutation(17))
        for m in (1, 2, 7, 100, 2**31):
            assert gen.integers(0, m) == fresh.integers(0, m)
        assert np.array_equal(gen.integers(0, 9, size=(4, 3)), fresh.integers(0, 9, size=(4, 3)))


DOMAINS = [getattr(rng, name) for name in dir(rng) if name.startswith("DOMAIN_")]
EDGE_SEEDS = [0, -1, 2**63 + 5, 2**64 - 1, 2**70 + 3]
EDGE_INDICES = range(0, 2**56, 2**56 - 1)  # 0 and 2**56 - 1


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_streams_equal_fresh_generators_at_edge_keys(seed, domain):
    """Seeds that wrap modulo 2**64 and indices at both ends of their range:
    both key words reach 2**63 or more, which the re-keyed state holds as
    Python ints."""
    assert list(EDGE_INDICES) == [0, 2**56 - 1]
    for index, gen in zip(EDGE_INDICES, rng.streams(seed, domain, EDGE_INDICES)):
        fresh = rng.stream(seed, domain, index)
        np.testing.assert_equal(gen.bit_generator.state, fresh.bit_generator.state)
        assert np.array_equal(gen.bit_generator.random_raw(5), fresh.bit_generator.random_raw(5))
        for m in (1, 7, 2**31 + 1, 2**32, 2**62 + 3):
            assert gen.integers(0, m) == fresh.integers(0, m)
        assert np.array_equal(gen.permutation(23), fresh.permutation(23))
    key = rng.stream(seed, domain, 2**56 - 1).bit_generator.state["state"]["key"]
    assert int(key[1]) >= 2**63


@pytest.mark.parametrize("indices", [range(-1, 3), range(2**56 - 2, 2**56 + 1),
                                     range(2**56, -1, -1)])
def test_streams_refuse_indices_out_of_range(indices):
    with pytest.raises(ValueError):
        next(rng.streams(3, rng.DOMAIN_RUN, indices))


# Lemire's rejection threshold (2**32 - m) % m is about 2**30 and 2**31 - 1
# for the two middle ranges, so they reject a quarter and a half of their
# half-words; 2**32 - 1 rejects only a zero low half.
REPLAY_RANGES = [1, 2, 3, 7, 100, 3 * 2**30, 2**31 + 1, 2**32 - 1]
ROWS = 10


def replay_streams(index, pending):
    """Two equal streams; ``pending`` leaves a buffered high half-word."""
    gen, ref = (rng.stream(47, rng.DOMAIN_TRAJECTORY, index) for _ in range(2))
    if pending:
        gen.integers(0, 5)
        ref.integers(0, 5)
    assert gen.bit_generator.state["has_uint32"] == int(pending)
    return gen, ref


def generator_replay(gens, block):
    """A replay with one row per generator, reading its half-words ``block``
    at a time: a short block makes the replay extend every row many times."""
    def read(h):
        return np.array([rng.half_words(g, h) for g in gens])

    return rng.IntegersReplay(read(block), read)


def assert_rows_match(ranges, pending, block):
    """Round r draws ``integers(0, ranges[r][i])`` in row i: the replay gives
    numpy's scalar values, and a fresh stream advanced by the half-words row
    i used ends in the state the scalar calls leave."""
    pairs = [replay_streams(index, pending) for index in range(len(ranges[0]))]
    replay = generator_replay([gen for gen, _ in pairs], block)
    for m in ranges:
        got = replay.integers(np.array(m, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [int(ref.integers(0, mi)) for (_, ref), mi in zip(pairs, m)]
    for index, (_, ref) in enumerate(pairs):
        gen, _ = replay_streams(index, pending)
        rng.half_words(gen, int(replay.used[index]))
        assert_same_state(gen, ref)
    return replay


@pytest.mark.parametrize("pending", [False, True], ids=["fresh", "pending"])
@pytest.mark.parametrize("m", REPLAY_RANGES)
def test_integers_replay_matches_numpy(m, pending):
    """The vectorized replay against numpy's own scalar ``integers(0, m)``
    calls, row by row: if a NumPy release changes how it draws them, this
    fails."""
    calls = 40
    # a 3-half-word block makes the replay extend its blocks many times
    replay = assert_rows_match([[m] * ROWS] * calls, pending, 3)
    if m == 1:
        assert not replay.used.any()
    elif m in (3 * 2**30, 2**31 + 1):  # the calls did reject half-words
        assert (replay.used > calls).all()
    else:
        assert (replay.used >= calls).all()


@pytest.mark.parametrize("pending", [False, True], ids=["fresh", "pending"])
def test_integers_replay_mixed_ranges(pending):
    """Every round mixes ranges across rows, so some rows reject while others
    read nothing; only the rejecting rows redraw."""
    ranges = np.random.default_rng(5).choice(REPLAY_RANGES, size=(300, ROWS)).tolist()
    for block in (1, 64, 1000):
        assert_rows_match(ranges, pending, block)


# per row: reads nothing, rejects a quarter, rejects a half, small ranges
EDGE_RANGES = [1, 3 * 2**30, 2**31 + 1, 2, 7, 100, 1, 3]


@pytest.mark.parametrize("pending", [False, True], ids=["fresh", "pending"])
def test_integers_replay_fast_path_ends_at_the_block_edge(pending):
    """A block of one half-word per call: rows whose draws are never rejected
    read exactly their block and leave it as it was, while a rejection makes
    its row read past the edge, which extends every block."""
    calls = 30
    small = [m for m in EDGE_RANGES if m < 2**30]
    replay = assert_rows_match([small] * calls, pending, calls)
    assert replay.half.shape[1] == calls
    assert replay.used.tolist() == [0 if m == 1 else calls for m in small]

    replay = assert_rows_match([EDGE_RANGES] * calls, pending, calls)
    assert replay.half.shape[1] > calls
    for m, used in zip(EDGE_RANGES, replay.used.tolist()):
        if m == 1:
            assert used == 0
        elif m < 2**30:
            assert used == calls
        else:  # these rows rejected some of their half-words
            assert used > calls


@pytest.mark.parametrize("words", [1, 40])
def test_stream_replay_reads_each_stream(words):
    """The chunk path's replay reads stream i from its start; one word per
    row runs out at once, so its rows are extended from the streams."""
    ranges = np.random.default_rng(6).choice(REPLAY_RANGES, size=(60, ROWS)).tolist()
    indices = range(30, 30 + ROWS)
    replay = rng.stream_replay(47, rng.DOMAIN_TRAJECTORY, indices, words)
    refs = [rng.stream(47, rng.DOMAIN_TRAJECTORY, i) for i in indices]
    for m in ranges:
        got = replay.integers(np.array(m, dtype=np.uint64))
        assert got.tolist() == [int(ref.integers(0, mi)) for ref, mi in zip(refs, m)]
    if words == 1:
        assert replay.half.shape[1] > 2
    for index, ref in zip(indices, refs):
        gen = rng.stream(47, rng.DOMAIN_TRAJECTORY, index)
        rng.half_words(gen, int(replay.used[index - 30]))
        assert_same_state(gen, ref)


@pytest.mark.parametrize("pending", [False, True], ids=["fresh", "pending"])
def test_integers_replay_leaves_the_generator_as_scalar_calls(pending):
    ranges = np.random.default_rng(7).choice(REPLAY_RANGES, size=200).tolist()
    gen, ref = replay_streams(3, pending)
    with rng.integers_replay(gen, 5) as replay:
        got = [int(replay.integers(np.array([m], dtype=np.uint64))[0]) for m in ranges]
    assert got == [int(ref.integers(0, m)) for m in ranges]
    assert_same_state(gen, ref)


def test_integers_replay_without_draws_keeps_state():
    gen, ref = replay_streams(3, True)
    with rng.integers_replay(gen, 8) as replay:
        for _ in range(5):
            assert replay.integers(np.ones(1, dtype=np.uint64)).tolist() == [0]
    assert_same_state(gen, ref)


# (V, R) with V*R odd and even: an odd count leaves the last word's high half
# unread
FILL_SHAPES = [(1, 1), (3, 1), (5, 2), (7, 3)]
FILL_SAMPLES = range(engine.BATCH_RUNS - 30, engine.BATCH_RUNS + 30)


@pytest.mark.parametrize("V, R", FILL_SHAPES)
@pytest.mark.parametrize("B", REPLAY_RANGES + [2**32, 2**32 + 1])
def test_placements_equal_numpy_draws(B, V, R):
    """The batched Lemire fill with its fallback gives every sample
    ``integers(0, B, size=(V, R))`` from its placement stream, over samples
    on both sides of a ``BATCH_RUNS`` boundary: the rejecting ranges mix
    rows of the fast path and redrawn rows, and beyond 2**32, where numpy
    draws whole words, every row is redrawn."""
    got = engine._placements(B, V, R, 43, FILL_SAMPLES)
    for i, s in enumerate(FILL_SAMPLES):
        want = rng.stream(43, rng.DOMAIN_PLACEMENT, s).integers(0, B, size=(V, R))
        assert np.array_equal(got[i], want), (s, got[i], want)
    words = rng.stream_words(43, rng.DOMAIN_PLACEMENT, FILL_SAMPLES, (V * R + 1) // 2)
    redraw = rng.lemire_fill(words.T, B, np.empty((len(FILL_SAMPLES), V * R), np.int64))
    if B > 2**32:
        assert redraw.all()
    elif B in (3 * 2**30, 2**31 + 1) and V * R <= 3:  # a longer row rarely escapes
        assert redraw.any() and not redraw.all()
    elif B < 2**30:
        assert not redraw.any()


def crafted_stream(words):
    """A generator whose next words are ``words`` (at most four), then its
    own Philox stream."""
    gen = np.random.Generator(np.random.Philox(key=99))
    state = gen.bit_generator.state
    state["buffer_pos"] = 4 - len(words)
    state["buffer"][state["buffer_pos"]:] = words
    gen.bit_generator.state = state
    return gen


def low_product_half_word(m, target):
    """A half-word u with (u * m) mod 2**32 == target, or None if there is
    none."""
    g = gcd(m, 2**32)
    if target < 0 or target % g:
        return None
    u = (target // g) * pow(m // g, -1, 2**32 // g) % (2**32 // g)
    assert u * m % 2**32 == target
    return u


@pytest.mark.parametrize("m", REPLAY_RANGES[1:] + [2**32, 5, 2**31 - 1])
def test_lemire_fill_at_the_threshold(m):
    """Half-words whose low product lies just below, at and just above
    numpy's threshold, in every position of a row: ``lemire_fill`` masks
    exactly the rows where numpy's own draw rejects a half-word, which read
    more than their four half-words, and gives numpy's values elsewhere."""
    t, g = rng.lemire_threshold(m), gcd(m, 2**32)  # low products are multiples of g
    keep = low_product_half_word(m, 2**32 - g)  # never rejected
    rows = [[keep] * 4]
    for target in sorted({t - g, t - 1, t, t + 1}):
        u = low_product_half_word(m, target)
        if u is not None:
            rows += [[keep] * pos + [u] + [keep] * (3 - pos) for pos in range(4)]
    half = np.array(rows, dtype=np.uint64)
    words = half[:, 0::2] | half[:, 1::2] << np.uint64(32)
    out = np.empty((len(rows), 4), dtype=np.int64)
    redraw = rng.lemire_fill(words, m, out)
    for i, row in enumerate(words.tolist()):
        gen, ref = crafted_stream(row), crafted_stream(row)
        want = gen.integers(0, m, size=4)
        rng.half_words(ref, 4)
        try:
            assert_same_state(gen, ref)
            rejected = False
        except AssertionError:
            rejected = True
        assert redraw[i] == rejected, (rows[i], t)
        if not rejected:
            assert out[i].tolist() == want.tolist()
    assert redraw.any() == (t > 0)
