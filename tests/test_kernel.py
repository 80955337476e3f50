"""The batched jump-chain kernel against the scalar one-run oracle, bit for
bit, and the seeding contract the kernel reads its words by.

The oracle (``oracles.scalar_trajectory``) shares only ``rng.stream`` with the
engine: it draws its words, exponentials and picks itself.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fragsched import (
    MdpPolicy,
    NonadaptivePolicy,
    RandomWorkConserving,
    RankedPolicy,
    SimulationConfig,
    build_scheme,
    cyclic_shift,
    mdp_solve,
    monte_carlo,
    projective_plane,
    pushback,
    simulate_run,
    smallest_index_first,
    uniform_diversity,
)
from fragsched import engine, rng
from fragsched.scheduling import compile_policy
from oracles import ScalarRuntime, scalar_trajectory

BATCH = engine.BATCH_RUNS
POLICY_KINDS = [
    "sif", "ud", "sif+pushback", "ud+pushback", "random",
    "greedy-low", "greedy-seeded", "greedy-init",
    "harmonic-low", "harmonic-seeded", "harmonic-init", "mdp",
]


def make_policy(scheme, kind: str):
    if kind == "random":
        return RandomWorkConserving()
    if kind == "mdp":
        return MdpPolicy(mdp_solve(scheme))
    if kind.startswith(("greedy", "harmonic")):
        rank, tie = kind.split("-")
        if tie == "init":
            return RankedPolicy(rank=rank, tie="low", init_order=uniform_diversity(scheme))
        return RankedPolicy(rank=rank, tie=tie)
    base, _, push = kind.partition("+")
    order = smallest_index_first(scheme) if base == "sif" else uniform_diversity(scheme)
    if push:
        order = pushback(order, scheme, scheme.B)
    return NonadaptivePolicy(order)


def batched_choices(rule, masks):
    """Per state of the int64 array ``masks``, the batched decision map the
    forward DP reads, in the form of the scalar ``choices``: ``decide`` on
    the useful servers under a deterministic rule, the marked slots of
    ``choice_slots`` under a uniform one."""
    if rule.uniform:
        slots = rule.choice_slots(masks)
        assert slots.shape == (len(masks), rule.B, rule.K)
        return [{b: rule.slot_frags[b][row[b]].tolist() for b in range(rule.B) if row[b].any()}
                for row in slots]
    chosen = rule.decide(masks)
    assert chosen.shape == (len(masks), rule.B)
    useful = (rule.server_bits & ~masks[:, None]) != 0
    return [{b: [v] for b, v in enumerate(row) if use[b]}
            for row, use in zip(chosen.tolist(), useful.tolist())]


@st.composite
def small_schemes(draw):
    """Up to 7 fragments on up to 6 servers; replica counts and server sizes
    vary, and a server may hold nothing."""
    B = draw(st.integers(1, 6))
    V = draw(st.integers(1, 7))
    occupancy = [draw(st.sets(st.integers(1, B), min_size=1, max_size=B)) for _ in range(V)]
    return build_scheme(occupancy, mu=1.0, B=B)


def oracle_runs(scheme, policy, mu, seed, runs):
    rt = ScalarRuntime(scheme, policy)
    return [scalar_trajectory(rt, mu, rng.stream(seed, rng.DOMAIN_RUN, r)) for r in range(runs)]


def oracle_summary(trajectories):
    """The summary fields monte_carlo reduces, from oracle trajectories."""
    dv = np.asarray([instants[-1] for instants, _, _ in trajectories])
    profiles = np.asarray([profile for _, _, profile in trajectories], dtype=np.int64)
    aggregates = profiles.sum(axis=1)
    return (
        float(dv.mean()),
        float(dv.std(ddof=1) / np.sqrt(len(dv))) if len(dv) > 1 else None,
        profiles.sum(axis=0) / len(dv),
        profiles.min(axis=0),
        profiles.max(axis=0),
        int(aggregates.min()),
        int(aggregates.max()),
    )


def assert_summary_matches(summary, expected):
    mean, stderr, mean_profile, min_profile, max_profile, min_agg, max_agg = expected
    assert summary.mean_download_time == mean
    assert summary.stderr == stderr
    assert np.array_equal(summary.mean_profile, mean_profile)
    assert np.array_equal(summary.min_profile, min_profile)
    assert np.array_equal(summary.max_profile, max_profile)
    assert (summary.min_trajectory_aggregate, summary.max_trajectory_aggregate) == (min_agg, max_agg)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scheme=small_schemes(), kind=st.sampled_from(POLICY_KINDS),
       runs=st.integers(1, BATCH + 1), seed=st.integers(0, 2**63 - 1),
       mu=st.sampled_from([1.0, 0.37, 1e-5]))
def test_kernel_trajectories_match_oracle(scheme, kind, runs, seed, mu):
    policy = make_policy(scheme, kind)
    rule = compile_policy(scheme, policy)
    words = rng.stream_words(seed, rng.DOMAIN_RUN, range(runs), rule.draws * scheme.V)
    instants, order, profile = engine._jump_chain(rule, mu, words)
    for r, (d, o, p) in enumerate(oracle_runs(scheme, policy, mu, seed, runs)):
        assert [0.0, *instants[:, r].tolist()] == d
        assert (order[:, r] + 1).tolist() == o
        assert profile[:, r].tolist() == p


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scheme=small_schemes(), kind=st.sampled_from(POLICY_KINDS), seed=st.integers(0, 2**32))
def test_simulate_run_matches_oracle(scheme, kind, seed):
    policy = make_policy(scheme, kind)
    rec = simulate_run(scheme, policy, 0.5, rng.stream(seed, rng.DOMAIN_RUN, 3))
    instants, order, profile = scalar_trajectory(
        ScalarRuntime(scheme, policy), 0.5, rng.stream(seed, rng.DOMAIN_RUN, 3))
    assert rec.download_instants == tuple(instants)
    assert rec.download_instants[-1] == instants[-1]
    assert rec.fragment_order == tuple(order)
    assert rec.useful_profile == tuple(profile)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scheme=small_schemes(), kind=st.sampled_from(POLICY_KINDS), seed=st.integers(0, 2**32))
def test_monte_carlo_matches_oracle_across_batch_edges(scheme, kind, seed):
    policy = make_policy(scheme, kind)
    trajectories = oracle_runs(scheme, policy, 1.0, seed, BATCH + 1)
    for runs in (1, BATCH - 1, BATCH, BATCH + 1):
        summary = monte_carlo(SimulationConfig(scheme, policy, 1.0, runs, seed))
        assert_summary_matches(summary, oracle_summary(trajectories[:runs]))


IRREGULAR = [{1, 2}, {2, 3, 4}, {1}, {3, 4, 5}, {2, 5}, {1, 4}, {5}]


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_monte_carlo_threads_match_oracle(kind):
    scheme = build_scheme(IRREGULAR, mu=1.0, B=6)
    policy = make_policy(scheme, kind)
    expected = oracle_summary(oracle_runs(scheme, policy, 1.0, 11, BATCH + 1))
    cfg = SimulationConfig(scheme, policy, 1.0, BATCH + 1, 11)
    assert_summary_matches(monte_carlo(cfg, threads=1), expected)
    assert_summary_matches(monte_carlo(cfg, threads=2), expected)


# every fragment on one server (R = 1), so ranked slots have no peers;
# server sizes 2, 2, 3 and 0
SINGLE_HOST = [{1}, {1}, {2}, {3}, {3}, {3}, {2}]


@pytest.mark.parametrize("kind", [k for k in POLICY_KINDS if k.startswith(("greedy", "harmonic"))])
def test_ranked_kernel_without_peers_matches_oracle(kind):
    scheme = build_scheme(SINGLE_HOST, mu=1.0, B=4)
    policy = make_policy(scheme, kind)
    rule = compile_policy(scheme, policy)
    assert rule.peers.shape == (0, 4, 3)
    runs = 40
    words = rng.stream_words(23, rng.DOMAIN_RUN, range(runs), rule.draws * scheme.V)
    instants, order, profile = engine._jump_chain(rule, 1.0, words)
    for r, (d, o, p) in enumerate(oracle_runs(scheme, policy, 1.0, 23, runs)):
        assert [0.0, *instants[:, r].tolist()] == d
        assert (order[:, r] + 1).tolist() == o
        assert profile[:, r].tolist() == p


@pytest.mark.parametrize("k", [20, 23, 43])
@pytest.mark.parametrize("tie", ["low", "seeded"])
def test_wide_servers_keep_exact_harmonic_keys(k, tie):
    # R * lcm(1..k) fits int32 at k = 20; at k = 23 it overflows int32, and
    # lcm(1..43) overflows int64, so the rank values move to int64 and to
    # Python integers
    occupancy = [{1, 2} if v % 3 else {1, 2, 3} for v in range(k)]
    scheme = build_scheme(occupancy, mu=1.0)
    policy = RankedPolicy(rank="harmonic", tie=tie)
    rule = compile_policy(scheme, policy)
    assert rule.rank_values.dtype == {20: np.int32, 23: np.int64, 43: object}[k]
    words = rng.stream_words(5, rng.DOMAIN_RUN, range(4), rule.draws * k)
    instants, order, profile = engine._jump_chain(rule, 1.0, words)
    for r, (d, o, p) in enumerate(oracle_runs(scheme, policy, 1.0, 5, 4)):
        assert [0.0, *instants[:, r].tolist()] == d
        assert (order[:, r] + 1).tolist() == o
        assert profile[:, r].tolist() == p
    masks = [0, 1, (1 << k) - 2, sum(1 << v for v in range(0, k, 2)), 0b101101 << (k - 9)]
    assert batched_choices(rule, np.array(masks, dtype=np.int64)) == list(map(rule.choices, masks))


# Schemes on which up to 12 servers run dry in one step before the last, so a
# run removes them from its useful list in up to 12 rank passes. MDP policies
# run on the third only (V = 5; the others have 2^133 states): fragment 3 sits
# on all of servers 1-12, which hold nothing else but fragment 1 or 2.
BENCHMARK_SHAPES = {
    "pp11": lambda: projective_plane(11),
    "cyclic133/12": lambda: cyclic_shift(133, 12),
    "blocks14": lambda: build_scheme(
        [set(range(1, 7)), set(range(7, 13)), set(range(1, 13)), {13}, {13, 14}], mu=1.0, B=14),
}


@functools.cache
def benchmark_shape(name):
    return BENCHMARK_SHAPES[name]()


@pytest.mark.parametrize("name,kind", [(name, kind) for name in BENCHMARK_SHAPES
                                       for kind in POLICY_KINDS
                                       if kind != "mdp" or name == "blocks14"])
def test_kernel_matches_oracle_at_benchmark_shapes(name, kind):
    scheme = benchmark_shape(name)
    policy = make_policy(scheme, kind)
    rule = compile_policy(scheme, policy)
    runs = 4
    words = rng.stream_words(17, rng.DOMAIN_RUN, range(runs), rule.draws * scheme.V)
    instants, order, profile = engine._jump_chain(rule, 1e-5, words)
    for r, (d, o, p) in enumerate(oracle_runs(scheme, policy, 1e-5, 17, runs)):
        assert [0.0, *instants[:, r].tolist()] == d
        assert (order[:, r] + 1).tolist() == o
        assert profile[:, r].tolist() == p
    # some run lost at least 6 servers in one step before the last
    assert (profile[:-1] - profile[1:]).max() >= 6


class TestSeedingContract:
    @pytest.mark.parametrize("blocks", [2, 3])
    def test_single_draw_equals_separate_draws(self, blocks):
        V = 13
        gen = rng.stream(7, rng.DOMAIN_RUN, 4)
        exps = rng.standard_exponentials(gen, V)
        separate = [rng.bounded_picks(gen, V) for _ in range(blocks - 1)]
        single = rng.words(rng.stream(7, rng.DOMAIN_RUN, 4), blocks * V)
        assert np.array_equal(rng.word_exponentials(single[:V]), exps)
        assert [single[(b + 1) * V:(b + 2) * V].tolist() for b in range(blocks - 1)] == separate
        column = rng.stream_words(7, rng.DOMAIN_RUN, range(2, 6), blocks * V)[:, 2]
        assert np.array_equal(column, single)

    @pytest.mark.parametrize("domain", [rng.DOMAIN_RUN, rng.DOMAIN_TRAJECTORY])
    @pytest.mark.parametrize("count", [1, 7, 133])
    def test_stream_words_columns_equal_fresh_streams(self, domain, count):
        """The kernel reads run words and the ensemble trajectory words through
        ``stream_words``; each column is its index's fresh stream."""
        got = rng.stream_words(29, domain, range(300), count)
        assert got.shape == (count, 300)
        for i in range(300):
            assert np.array_equal(got[:, i], rng.words(rng.stream(29, domain, i), count))

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_kernel_reads_any_word_layout(self, kind):
        """``_jump_chain`` gives the same outputs for the transposed view
        ``stream_words`` returns and for a C-contiguous copy, and writes to
        neither."""
        scheme = projective_plane(2)
        rule = compile_policy(scheme, make_policy(scheme, kind))
        view = rng.stream_words(23, rng.DOMAIN_RUN, range(40), rule.draws * scheme.V)
        contiguous = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous and contiguous.flags.c_contiguous
        before = contiguous.copy()
        for got, want in zip(engine._jump_chain(rule, 0.3, view),
                             engine._jump_chain(rule, 0.3, contiguous)):
            assert np.array_equal(got, want)
        assert np.array_equal(view, before) and np.array_equal(contiguous, before)

    def test_stream_words_rejects_bad_index(self):
        with pytest.raises(ValueError):
            rng.stream_words(7, rng.DOMAIN_RUN, range(-1, 2), 4)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 133, 2**31 - 1, 2**31])
    def test_picks_match_pick_on_edge_words(self, m):
        edges = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]
        words = edges + rng.bounded_picks(rng.stream(3, rng.DOMAIN_RUN, m), 50)
        got = rng.picks(np.asarray(words, dtype=np.uint64), np.full(len(words), m, np.uint64))
        assert got.tolist() == [rng.pick(u, m) for u in words]
        assert int(got.max()) < m
