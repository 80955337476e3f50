"""The ensemble trajectory kernels against the scalar one-sample oracle, bit
for bit; the version-2 half-word draw; and the re-keyed streams both draw
from.

The oracle (``oracles.scalar_ensemble_profile`` / ``scalar_ensemble_chunk``)
shares only ``rng.stream`` with the engine: it reads placements by their raw
fields, makes its own half-word draws in Python ints, and rescans every
server at every step.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsched import (
    MdsPlacement,
    ReplicationPlacement,
    ensemble_monte_carlo,
    large_storage_scheme,
    sample_random_mds,
    sample_random_replication,
    simulate_ensemble_profile,
)
from fragsched import engine, rng
from fragsched.constructions import placement_servers
from fragsched.errors import InvalidParams
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
@pytest.mark.parametrize("B,V,R", [(20, 50, 5), (100, 200, 3), (100, 200, 1)])
def test_chunk_matches_oracle_at_benchmark_shapes(B, V, R, kind):
    """Server order at the benchmark's shapes, where many servers run dry in
    one step of a batch; the samples fill one ``BATCH_RUNS`` batch and spill
    into the next. With R = 1 every item has one host, so both kinds run the
    count-only kernel."""
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


# sha256 of mean_profile's and se_profile's bytes, and duplicate_frequency,
# of the benchmark's eight ensemble configurations at reduced sample counts
# (300 samples at B = 20 and 270 at B = 100, each past one ``BATCH_RUNS``
# batch), seed 2026, one worker. The server-order pins were computed by
# ``oracles.scalar_ensemble_chunk``, not by the kernels they check.
GOLDEN_SAMPLES = {20: 300, 100: 270}
GOLDEN = {
    ("rep", "server", 20, 50, 5): (
        "5bb1b147299d25d51c503b31640f83457622b9f04e32b97779091f6b4cd115f7",
        "bb7c19d13d598b28a57caed3166177400c912fd0c16b2c50eb1a8aec0f0517dd", 0.4214),
    ("rep", "fragment", 20, 50, 5): (
        "21849378e044e3e3555b3eeb5cbc01fe9f23bd17eb7b9ada27102217b47add9a",
        "44a1354ebaddd2048a40cc804cd681efd0c01b2810ca640d2fb38676329cf906", 0.4214),
    ("mds", "server", 20, 50, 5): (
        "721b82f766cb493ac0735bfa164da3668cc7bade552fae69e0f4da9a66ecde00",
        "aaea736520a0032727b94e82821d174f29d8aa7fb306ec53932d227499294fe7", None),
    ("mds", "fragment", 20, 50, 5): (
        "a187b9df60a865d7a6f11ab65b8ebc2db4ae1333fd7987122dd29498bf7176b6",
        "7a12e561363385e9dfeeab326368731c030ed4b374e7f5897ac819159d2884c5", None),
    ("rep", "server", 100, 200, 3): (
        "3cc5300beb03bbe161d3e2088fe2750206451c6aeef9196370cda49cd988e9d3",
        "c870a00e5f0e6c3dd0c4de5403acdd8c344e688764b7f3b6b387cd2d6e0bfcb9", 0.03088888888888889),
    ("rep", "fragment", 100, 200, 3): (
        "ef8e5651c01b7a66d0cd505eb8b863f773d651f572da49cb57d19861b6fbca72",
        "2afd2f016e0a50e1693c5686f2bf29d015513651c8163f4cd9cdc678f4ead203", 0.03088888888888889),
    ("mds", "server", 100, 200, 3): (
        "cef8551dc7b82c06f108f0d3f7d2ec6cc235de1cd02692dbf89428124d419565",
        "ae0ef268892069b48ac871880bfe00e290fa6e77f84fabb6be3c8ca91d0a1ba1", None),
    ("mds", "fragment", 100, 200, 3): (
        "8dbc0a48c68ccc0a4e77e8e2d2365e85d6c30ba5843f38f215002669034f285c",
        "0ee9c1edca2934c7627db3f7e3273bf5105878bc2ae897b82c945f92de9d5738", None),
}


@pytest.mark.parametrize("config", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_benchmark_configurations_match_golden(config):
    """The summaries of the benchmark's configurations, pinned bit for bit."""
    kind, mode, B, V, R = config
    summary = ensemble_monte_carlo(B, V, R, kind, mode, GOLDEN_SAMPLES[B], 2026, threads=1)
    mean_sha, se_sha, dup = GOLDEN[config]
    assert hashlib.sha256(summary.mean_profile.tobytes()).hexdigest() == mean_sha
    assert hashlib.sha256(summary.se_profile.tobytes()).hexdigest() == se_sha
    assert summary.duplicate_frequency == dup


SUMMARY_FIELDS = ["kind", "order_mode", "B", "V", "R", "samples", "master_seed",
                  "normalized_aggregate", "duplicate_frequency"]


@pytest.mark.parametrize("kind,mode", [("rep", "server"), ("rep", "fragment"),
                                       ("mds", "server"), ("mds", "fragment")])
def test_summary_matches_oracle(kind, mode, monkeypatch):
    # one worker runs all samples as one task; w workers share
    # k = min(4w, max(w, ceil(samples / BATCH_RUNS))) tasks of
    # ceil(samples / k), so only the threads > 1 cases cross chunk edges:
    # 2 samples split 1 + 1, 9 split 5 + 4, 17 split 9 + 8, 10 split 4 + 4 + 2,
    # 257 (one past a batch) split 129 + 128, and 513 (one past two batches)
    # at three workers split 171 x 3
    cases = [(1, 1), (4, 1), (5, 1), (9, 1), (2, 2), (9, 2), (17, 2), (10, 3), (257, 2),
             (513, 3)]
    got = {c: ensemble_monte_carlo(4, 5, 3, kind, mode, c[0], 31, threads=c[1]) for c in cases}
    monkeypatch.setattr(engine, "_ensemble_chunk", scalar_ensemble_chunk)
    for (samples, threads), summary in got.items():
        want = ensemble_monte_carlo(4, 5, 3, kind, mode, samples, 31, threads=1)
        for field in SUMMARY_FIELDS:
            assert getattr(summary, field) == getattr(want, field), field
        assert np.array_equal(summary.mean_profile, want.mean_profile)
        assert np.array_equal(summary.se_profile, want.se_profile, equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(B=st.integers(1, 6), R=st.integers(1, 6), data=st.data())
def test_drop_repeats_keeps_each_first_replica(B, R, data):
    """Every replica that repeats an earlier replica's server becomes the
    dummy server B and is marked; the first of each stays where it was."""
    rows = data.draw(st.lists(st.lists(st.integers(0, B - 1), min_size=R, max_size=R),
                              min_size=1, max_size=6))
    servers = np.array(rows, dtype=np.int16)[None]
    turned = engine._drop_repeats(servers, B)
    want = [[b if b not in row[:j] else B for j, b in enumerate(row)] for row in rows]
    assert servers[0].tolist() == want
    assert turned[0].tolist() == [[b in row[:j] for j, b in enumerate(row)][1:] for row in rows]


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


# every domain value the contract has used, the retired 3 included: a stream
# is keyed the same way whatever its domain byte
DOMAINS = sorted({getattr(rng, name) for name in dir(rng) if name.startswith("DOMAIN_")} | {3})
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


HALF_WORDS = [0, 1, 2, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1]


@pytest.mark.parametrize("m", [1, 2**32 - 1])
def test_half_picks_at_the_range_ends(m):
    """``(h * m) >> 32`` in 64-bit words equals the Python-int value at the
    smallest and the largest range a draw serves, for half-words at both
    ends: m = 1 always gives 0, and 2**32 - 1 gives h - 1 for every h > 0."""
    got = rng.half_picks(np.array(HALF_WORDS, dtype=np.uint32), np.uint64(m))
    assert got.dtype == np.uint64
    assert got.tolist() == [(h * m) >> 32 for h in HALF_WORDS]
    want = [0] * len(HALF_WORDS) if m == 1 else [max(h - 1, 0) for h in HALF_WORDS]
    assert got.tolist() == want


# (V, R) with V*R odd and even: an odd count leaves the last word's high half
# unread
PLACEMENT_SHAPES = [(1, 1), (3, 1), (5, 2), (7, 3)]
PLACEMENT_SAMPLES = range(226, 286)


@pytest.mark.parametrize("V, R", PLACEMENT_SHAPES)
@pytest.mark.parametrize("B", [1, 2, 7, 2**31 + 1, 2**32 - 1])
def test_placements_read_one_half_word_per_server(B, V, R):
    """Entry k of a sample's placement is half-word k of its stream, low
    half of a word first, mapped onto [0, B) in Python ints, at every B, one
    included."""
    got = placement_servers(43, PLACEMENT_SAMPLES, B, V, R)
    assert got.shape == (len(PLACEMENT_SAMPLES), V, R)
    for i, s in enumerate(PLACEMENT_SAMPLES):
        words = rng.stream(43, rng.DOMAIN_PLACEMENT, s).bit_generator.random_raw((V * R + 1) // 2)
        halves = [h for u in words.tolist() for h in (u & 0xFFFFFFFF, u >> 32)]
        want = [(h * B) >> 32 for h in halves[:V * R]]
        assert got[i].reshape(-1).tolist() == want, s


@pytest.mark.parametrize("V, R", PLACEMENT_SHAPES)
@pytest.mark.parametrize("B", [1, 2, 3, 7, 100, 3 * 2**30, 2**31 + 1, 2**32 - 1])
def test_placements_equal_numpy_draws(B, V, R):
    """The version-2 draw is numpy's Lemire step without its rejection: each
    sample's placement equals ``integers(0, B, size=(V, R))`` from its
    placement stream up to the first half-word numpy would reject, and so
    in full where numpy rejects none. Below 2**30 numpy rejects nothing
    here; at 3 * 2**30 and 2**31 + 1 it rejects a quarter and a half of the
    half-words, so short rows show both kinds of sample."""
    threshold = (2**32 - B) % B
    got = placement_servers(43, PLACEMENT_SAMPLES, B, V, R)
    rejected, compared = [], 0
    for i, s in enumerate(PLACEMENT_SAMPLES):
        words = rng.stream(43, rng.DOMAIN_PLACEMENT, s).bit_generator.random_raw((V * R + 1) // 2)
        halves = [h for u in words.tolist() for h in (u & 0xFFFFFFFF, u >> 32)][:V * R]
        k = next((j for j, h in enumerate(halves) if (h * B) & 0xFFFFFFFF < threshold), V * R)
        want = rng.stream(43, rng.DOMAIN_PLACEMENT, s).integers(0, B, size=(V, R)).reshape(-1)
        assert got[i].reshape(-1)[:k].tolist() == want[:k].tolist(), s
        rejected.append(k < V * R)
        compared += k
    assert compared > 0
    if B < 2**30 or B == 2**32 - 1:  # threshold 1 at 2**32 - 1: only h = 0
        assert not any(rejected)
    elif V * R <= 3:  # a longer row rarely escapes
        assert any(rejected) and not all(rejected)


@pytest.mark.parametrize("B", [2**32, 2**32 + 1, 2**40])
def test_servers_beyond_one_half_word_are_refused(B):
    """B >= 2**32 is refused before any draw or task, by the ensemble and by
    both samplers."""
    with pytest.raises(InvalidParams, match="2\\*\\*32"):
        ensemble_monte_carlo(B, 3, 2, "rep", engine.SERVER_UNIFORM, 4, 1, threads=2)
    with pytest.raises(InvalidParams, match="2\\*\\*32"):
        sample_random_replication(B, 3, 2, seed=1)
    with pytest.raises(InvalidParams, match="2\\*\\*32"):
        sample_random_mds(B, 3, 2, seed=1)
