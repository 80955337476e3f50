"""The ensemble trajectory kernel against the scalar one-sample oracle, bit for
bit, and the re-keyed streams it draws from.

The oracle (``oracles.scalar_ensemble_profile`` / ``scalar_ensemble_chunk``)
shares only ``rng.stream`` with the engine: it reads placements by their raw
fields and rescans every server at every step.
"""

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


def assert_same_download(placement, mode, index):
    """Same profile from the same stream, and the same number of draws."""
    gen = rng.stream(41, rng.DOMAIN_TRAJECTORY, index)
    ref = rng.stream(41, rng.DOMAIN_TRAJECTORY, index)
    got = simulate_ensemble_profile(placement, mode, gen)
    want = scalar_ensemble_profile(placement, mode, ref)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
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


SUMMARY_FIELDS = ["kind", "order_mode", "B", "V", "R", "samples", "master_seed",
                  "normalized_aggregate", "duplicate_frequency"]


@pytest.mark.parametrize("kind,mode", [("rep", "server"), ("rep", "fragment"),
                                       ("mds", "server"), ("mds", "fragment")])
def test_summary_matches_oracle(kind, mode, monkeypatch):
    # one worker runs all samples as one task, so only the threads=2 cases
    # (up to 8 tasks of ceil(samples / 8)) cross chunk edges
    cases = [(1, 1), (4, 1), (5, 1), (9, 1), (8, 2), (9, 2), (17, 2)]
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
        assert np.array_equal(gen.permutation(17), fresh.permutation(17))
        for m in (1, 2, 7, 100, 2**31):
            assert gen.integers(0, m) == fresh.integers(0, m)
        assert np.array_equal(gen.integers(0, 9, size=(4, 3)), fresh.integers(0, 9, size=(4, 3)))
