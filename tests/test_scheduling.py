import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fragsched import (
    MdpPolicy,
    NonadaptivePolicy,
    PlacementOrder,
    RandomWorkConserving,
    RankedPolicy,
    SimulationConfig,
    affine_plane,
    build_scheme,
    cyclic_shift,
    exact_mean_download,
    mdp_solve,
    monte_carlo,
    projective_plane,
    pushback,
    simulate_run_clocks,
    smallest_index_first,
    uniform_diversity,
)
from fragsched.errors import InvalidParams
from fragsched.scheduling import compile_policy
from oracles import (all_decision_maps, immediate_reward, order_matches, rule_tables,
                     uniform_diversity_orders, useful_count)
from test_kernel import IRREGULAR, assert_choices_match_oracle, small_schemes

from conftest import FANO_OCCUPANCY


def mask_of(downloads) -> int:
    """The bitmask of a collection of 1-based fragments."""
    return sum(1 << (v - 1) for v in downloads)


def residual_on(scheme, downloads, server: int) -> set[int]:
    return set(scheme.fragments_on(server)) - set(downloads)


def decide(scheme, policy, downloads) -> dict[int, int]:
    """The 1-based decision map of a deterministic policy after ``downloads``:
    per useful server, the fragment it serves next."""
    choices = compile_policy(scheme, policy).choices(mask_of(downloads))
    assert all(len(vs) == 1 for vs in choices.values())
    return {b + 1: vs[0] + 1 for b, vs in choices.items()}


def ranks(scheme, rank: str, downloads) -> dict[int, Fraction]:
    """The exact rank of every fragment not in ``downloads``: the score of
    any of its free slots plus the rank value of the slot's own server, over
    the rule's scale, the rank value of a residual of size 1. Every free slot
    of a fragment must give the same rank."""
    rule = compile_policy(scheme, RankedPolicy(rank=rank))
    free, residual = rule._state(np.array([mask_of(downloads)], dtype=np.int64))
    scores = rule._slot_scores(free, residual)
    out: dict[int, Fraction] = {}
    for b, k in zip(*np.nonzero(free[0])):
        full = Fraction(int(scores[0, b, k]) + rule.values[residual[0, b]], rule.values[1])
        assert out.setdefault(int(rule.slot_frags[b, k]) + 1, full) == full
    return out


class TestSmallestIndexFirst:
    def test_fano_layers(self, fano):
        order = smallest_index_first(fano)
        assert order.layer(1) == (1, 3, 1, 1, 2, 3, 2)
        assert order.layer(2) == (2, 4, 5, 4, 5, 6, 4)
        assert order.layer(3) == (3, 5, 6, 7, 7, 7, 6)

    def test_single_fragment_server(self):
        order = smallest_index_first(build_scheme([{1}, {2}], B=2))
        assert order.orders == ((1,), (2,))

    def test_cyclic_orders_sorted(self, cyclic73):
        order = smallest_index_first(cyclic73)
        # wrap-around servers sort their fragments ascending: server 7 stores
        # {7,1,2} and therefore schedules 1 first
        assert order.order_of(1) == (1, 2, 3)
        assert order.order_of(7) == (1, 2, 7)
        assert order.layer(1) == (1, 2, 3, 4, 5, 1, 1)


class TestUniformDiversity:
    def test_fano_layers_are_permutations(self, fano):
        order = uniform_diversity(fano)
        assert order.perfect
        for r in (1, 2, 3):
            assert sorted(v for v in order.layer(r)) == list(range(1, 8))

    def test_cyclic_layers_are_rotations(self, cyclic73):
        order = uniform_diversity(cyclic73)
        assert order.perfect
        for r in (1, 2, 3):
            expected = tuple((b - 1 + r - 1) % 7 + 1 for b in range(1, 8))
            assert order.layer(r) == expected

    def test_orders_are_permutations_of_fragment_sets(self, fano):
        order = uniform_diversity(fano)
        for b in range(1, 8):
            assert sorted(order.order_of(b)) == sorted(fano.fragments_on(b))

    def test_imperfect_layering_flagged(self):
        # both servers store only fragment 1: the single layer must repeat it
        scheme = build_scheme([{1, 2}], B=2)
        order = uniform_diversity(scheme)
        assert order.perfect is False
        assert order.layer(1) == (1, 1)

    def test_unequal_capacities_flagged(self):
        # server 2 stores a single fragment, so it cannot appear in layer 2
        scheme = build_scheme([{1, 2}, {1}], B=2)
        assert uniform_diversity(scheme).perfect is False


def assert_ud_matches_oracle(scheme):
    order = uniform_diversity(scheme)
    assert (order.orders, order.perfect) == uniform_diversity_orders(scheme.fragment_sets, scheme.V)
    return order


class TestUniformDiversityAgainstSetLoop:
    """``uniform_diversity`` against ``oracles.uniform_diversity_orders``,
    the per-layer dict copies and per-search visited sets it replaced,
    which share no code with it."""

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_planes(self, q):
        assert assert_ud_matches_oracle(projective_plane(q)).perfect
        assert_ud_matches_oracle(affine_plane(q))

    @pytest.mark.parametrize("V", [1, 2, 5, 9, 16, 24])
    def test_cyclic_grid(self, V):
        for R in range(1, V + 1):
            assert assert_ud_matches_oracle(cyclic_shift(V, R)).perfect

    @pytest.mark.parametrize("occupancy, B", [
        ([{1, 2}], 2),                                  # both servers hold only fragment 1
        ([{1, 2, 3}, {1, 2, 3}], 3),                    # three servers, two fragments
        ([{1, 2}, {2, 3, 4}, {1}, {3, 4, 5}, {2, 5}, {1, 4}, {5}], 6),
        ([{1, 3}, {1}, {2}, {3}], 5),                   # server 4 and 5 hold one each, B > V
    ])
    def test_fallback_layers(self, occupancy, B):
        # some layer has no perfect matching: an unmatched server repeats
        # its first remaining fragment
        order = assert_ud_matches_oracle(build_scheme(occupancy, B=B))
        assert order.perfect is False

    @settings(max_examples=300, deadline=None)
    @given(scheme=small_schemes())
    def test_unequal_servers(self, scheme):
        # sizes and replica counts vary, B may exceed V, and a server may
        # hold nothing
        assert_ud_matches_oracle(scheme)

    @pytest.mark.parametrize("make, digest", [
        (lambda: projective_plane(11),
         "71e44cfd1b34644d72089db75cbb8f47bdbd158d9ec74d5c8081b8abe89341ae"),
        (lambda: cyclic_shift(133, 12),
         "0f4b9f7ead6585a5d5b6992523734eb432c8e351ba3a87ef5a507ea3dab1fee3"),
    ], ids=["pp11", "cyclic133-12"])
    def test_table_orders_pinned(self, make, digest):
        # written before the stamp-marked search replaced the set loop
        order = uniform_diversity(make())
        assert hashlib.sha256(repr((order.orders, order.perfect)).encode()).hexdigest() == digest


class TestPushback:
    def test_on_uniform_diversity_table(self, fano):
        # the worked 7-server example: uniform-diversity layers
        # (1,3,5,7,2,6,4)/(3,4,6,1,5,7,2)/(2,5,1,4,7,3,6), pushing back server 1
        base = (
            (1, 3, 2), (3, 4, 5), (5, 6, 1), (7, 1, 4), (2, 5, 7), (6, 7, 3), (4, 2, 6),
        )
        from fragsched.scheduling import PlacementOrder

        order = pushback(PlacementOrder(orders=base, label="ud"), fano, 1)
        assert order.layer(3) == (2, 3, 1, 1, 2, 3, 2)
        assert order.order_of(1) == (1, 3, 2)
        assert order.order_of(2) == (4, 5, 3)

    def test_on_smallest_index(self, fano):
        order = pushback(smallest_index_first(fano), fano, 1)
        assert order.layer(3) == (3, 3, 1, 1, 2, 3, 2)
        assert order.layer(1) == (1, 4, 5, 4, 5, 6, 4)

    def test_disjoint_server_noop(self):
        scheme = build_scheme([{1}, {2}], B=2)
        base = smallest_index_first(scheme)
        assert pushback(base, scheme, 1).orders == base.orders

    def test_preserves_relative_order(self, cyclic73):
        base = smallest_index_first(cyclic73)
        pushed = pushback(base, cyclic73, 1)
        target = set(cyclic73.fragments_on(1))
        for b in range(2, 8):
            o = pushed.order_of(b)
            deferred = [v for v in o if v in target]
            assert list(o[len(o) - len(deferred):]) == deferred
            assert deferred == [v for v in base.order_of(b) if v in target]


class TestNonadaptiveDecide:
    def test_skips_downloaded(self, fano):
        policy = NonadaptivePolicy(smallest_index_first(fano))
        assert decide(fano, policy, [1])[1] == 2

    def test_initial_head(self, fano):
        order = smallest_index_first(fano)
        decisions = decide(fano, NonadaptivePolicy(order), [])
        for b in range(1, 8):
            assert decisions[b] == order.order_of(b)[0]

    def test_useless_server(self, fano):
        # server 1 stores {1, 2, 3}: it gets no decision once they are fetched
        decisions = decide(fano, NonadaptivePolicy(smallest_index_first(fano)), [1, 2, 3])
        assert 1 not in decisions
        assert set(decisions) == {b for b in range(1, 8) if residual_on(fano, [1, 2, 3], b)}


class TestGreedyRank:
    def test_zero_at_start(self, fano, cyclic73):
        for scheme in (fano, cyclic73):
            assert set(ranks(scheme, "greedy", []).values()) == {0}

    def test_counts_dying_servers(self, fano):
        downloads = [1, 2]  # server 1 residual {3}
        rank = ranks(fano, "greedy", downloads)[3]
        assert rank >= 1
        assert rank == sum(1 for b in fano.occupancy_of(3)
                           if len(residual_on(fano, downloads, b)) == 1)

    def test_last_fragment_rank_R(self, fano):
        assert ranks(fano, "greedy", [1, 2, 3, 4, 5, 6]) == {7: fano.params.R}

    def test_downloaded_rejected(self, fano):
        # a fetched fragment is never chosen, whatever its raw score says
        for rank in ("greedy", "harmonic"):
            rule = compile_policy(fano, RankedPolicy(rank=rank))
            for mask in range(1 << fano.V):
                for vs in rule.choices(mask).values():
                    assert all(not mask >> v & 1 for v in vs)


class TestHarmonicRank:
    def test_uniform_at_start(self, fano):
        assert ranks(fano, "harmonic", []) == {v: Fraction(3, 3) for v in range(1, 8)}

    def test_after_first_download_all_tie(self, fano):
        # every remaining fragment shares exactly one host with fragment 1,
        # so each sums 1/2 + 1/3 + 1/3
        assert ranks(fano, "harmonic", [1]) == {v: Fraction(7, 6) for v in range(2, 8)}

    def test_rank_sum_equals_useful_count(self, fano, cyclic73):
        # sum over remaining fragments of the harmonic rank telescopes to N
        rng = random.Random(3)
        for scheme in (fano, cyclic73):
            blocks = [set(s) for s in scheme.fragment_sets]
            for _ in range(20):
                downloads = rng.sample(range(1, 8), rng.randrange(0, 7))
                total = sum(ranks(scheme, "harmonic", downloads).values())
                assert total == useful_count(blocks, set(downloads))

    def test_single_fragment_scheme(self):
        scheme = build_scheme([{1, 2, 3}])
        assert ranks(scheme, "harmonic", [])[1] == 3  # R hosts each with residual {1}

    def test_monotone_in_host_sizes(self, cyclic73):
        # pointwise-smaller hosting residuals imply a larger-or-equal rank
        rng = random.Random(11)
        for _ in range(60):
            downloads = rng.sample(range(1, 8), rng.randrange(0, 6))
            rank = ranks(cyclic73, "harmonic", downloads)
            for v, w in itertools.permutations(rank, 2):
                sizes_v = sorted(len(residual_on(cyclic73, downloads, b))
                                 for b in cyclic73.occupancy_of(v))
                sizes_w = sorted(len(residual_on(cyclic73, downloads, b))
                                 for b in cyclic73.occupancy_of(w))
                if all(sw <= sv for sv, sw in zip(sizes_v, sizes_w)):
                    assert rank[v] <= rank[w]


class TestRankedDecide:
    def test_worked_example_decisions(self, fano):
        decisions = decide(fano, RankedPolicy(rank="harmonic", tie="low"), [1])
        assert decisions[2] == 3
        assert decisions[4] == 4
        assert decisions[7] == 2
        assert decisions[1] in (2, 3) and decisions[3] in (5, 6)

    def test_single_residual_forced(self, fano):
        for rank in ("greedy", "harmonic"):
            assert decide(fano, RankedPolicy(rank=rank), [1, 2])[1] == 3  # residual {3}

    def test_greedy_at_start_lowest_index(self, fano):
        decisions = decide(fano, RankedPolicy(rank="greedy", tie="low"), [])
        for b in range(1, 8):
            assert decisions[b] == min(fano.fragments_on(b))

    def test_decisions_work_conserving(self, fano, cyclic73):
        rng = random.Random(23)
        for scheme in (fano, cyclic73):
            blocks = [set(s) for s in scheme.fragment_sets]
            for _ in range(40):
                downloads = rng.sample(range(1, 8), rng.randrange(0, 7))
                for rank in ("greedy", "harmonic"):
                    for tie in ("low", "seeded"):
                        rule = compile_policy(scheme, RankedPolicy(rank=rank, tie=tie))
                        choices = rule.choices(mask_of(downloads))
                        assert len(choices) == useful_count(blocks, set(downloads))
                        for b, vs in choices.items():
                            assert {v + 1 for v in vs} <= residual_on(scheme, downloads, b + 1)

    def test_init_order_breaks_ties(self, fano):
        ud = uniform_diversity(fano)
        decisions = decide(fano, RankedPolicy(rank="harmonic", init_order=ud), [])
        for b in range(1, 8):
            assert decisions[b] == ud.order_of(b)[0]

    def test_rejects_unknown_tie_rule(self):
        with pytest.raises(InvalidParams, match="tie rule"):
            RankedPolicy(tie="bogus")

    def test_rejects_seeded_ties_with_init_order(self, pp2):
        with pytest.raises(InvalidParams, match="init order"):
            RankedPolicy(rank="greedy", tie="seeded", init_order=uniform_diversity(pp2))

    def test_seeded_ties_need_rng(self, pp2):
        # seeded ties give the whole tied set, and a run draws one more
        # stream word per step to pick from it
        low = compile_policy(pp2, RankedPolicy(tie="low"))
        seeded = compile_policy(pp2, RankedPolicy(tie="seeded"))
        assert (low.uniform, low.draws) == (False, 2)
        assert (seeded.uniform, seeded.draws) == (True, 3)
        assert all(len(vs) == 3 for vs in seeded.choices(0).values())

    def test_policy_rejects_seeded_ties_with_init_order(self, fano):
        ud = uniform_diversity(fano)
        with pytest.raises(InvalidParams, match="init order"):
            RankedPolicy(rank="harmonic", tie="seeded", init_order=ud)
        assert RankedPolicy(rank="harmonic", tie="low", init_order=ud).init_order is ud


class TestGreedyMaximizesImmediateReward:
    @pytest.mark.parametrize("downloads", [[], [1], [1, 2], [3, 6, 7], [1, 2, 3, 4]])
    def test_brute_force_over_decision_maps(self, fano, downloads):
        blocks = [set(s) for s in fano.fragment_sets]
        decisions = decide(fano, RankedPolicy(rank="greedy", tie="low"), downloads)
        got = immediate_reward(blocks, set(downloads), decisions)
        best = max(
            immediate_reward(blocks, set(downloads), m)
            for m in all_decision_maps(blocks, set(downloads))
        )
        assert got == best

    def test_brute_force_cyclic_random_states(self, cyclic73):
        rng = random.Random(17)
        blocks = [set(s) for s in cyclic73.fragment_sets]
        for _ in range(6):
            ell = rng.randrange(0, 5)
            downloads = rng.sample(range(1, 8), ell)
            decisions = decide(cyclic73, RankedPolicy(rank="greedy", tie="low"), downloads)
            got = immediate_reward(blocks, set(downloads), decisions)
            best = max(
                immediate_reward(blocks, set(downloads), m)
                for m in all_decision_maps(blocks, set(downloads))
            )
            assert got == best


class TestCompilePolicyRejectsForeignInputs:
    """An order or MDP solution made for another scheme is refused, not read
    as if it fitted: the cyclic 7/3 orders and decisions name fragments that
    the Fano plane's servers do not store."""

    @pytest.fixture(params=["nonadaptive", "ranked-init", "order-B", "mdp-V", "mdp-same-V"])
    def foreign(self, request, pp2):
        cyclic = cyclic_shift(7, 3)
        return {
            "nonadaptive": NonadaptivePolicy(uniform_diversity(cyclic)),
            "ranked-init": RankedPolicy(init_order=smallest_index_first(cyclic)),
            "order-B": NonadaptivePolicy(smallest_index_first(cyclic_shift(8, 3))),
            "mdp-V": MdpPolicy(mdp_solve(cyclic_shift(5, 2))),
            "mdp-same-V": MdpPolicy(mdp_solve(cyclic)),
        }[request.param]

    def test_compile_policy(self, pp2, foreign):
        with pytest.raises(InvalidParams):
            compile_policy(pp2, foreign)

    def test_monte_carlo_and_exact(self, pp2, foreign):
        with pytest.raises(InvalidParams):
            monte_carlo(SimulationConfig(pp2, foreign, 1.0, 10, 1))
        with pytest.raises(InvalidParams):
            exact_mean_download(pp2, foreign, 1.0)


DIFFERENTIAL_SCHEMES = {
    "fano": lambda: build_scheme(FANO_OCCUPANCY),
    "cyclic73": lambda: cyclic_shift(7, 3),
    "irregular": lambda: build_scheme(IRREGULAR, B=6),
    "pp2": lambda: projective_plane(2),
}


@pytest.mark.parametrize("name", DIFFERENTIAL_SCHEMES)
def test_choices_match_oracles(name):
    """``choices(mask)`` on every downloaded set equals the oracles' decision
    maps, state by state, for every policy kind, and every choice is a Python
    int: a numpy scalar would leak into trajectory records and their JSON."""
    scheme = DIFFERENTIAL_SCHEMES[name]()
    orders = {}
    for label, order in (("sif", smallest_index_first(scheme)), ("ud", uniform_diversity(scheme))):
        orders[label] = order
        orders[label + "+pushback"] = pushback(order, scheme, 1)
    solution = mdp_solve(scheme)
    policies = [RandomWorkConserving(), MdpPolicy(solution)]
    policies += [NonadaptivePolicy(order) for order in orders.values()]
    for rank in ("greedy", "harmonic"):
        policies += [RankedPolicy(rank=rank, tie=tie) for tie in ("low", "seeded")]
        policies += [RankedPolicy(rank=rank, init_order=orders[label]) for label in ("sif", "ud")]
    for policy in policies:
        assert_choices_match_oracle(scheme, policy, range(1 << scheme.V))
    record = simulate_run_clocks(scheme, MdpPolicy(solution), 1.0, np.random.default_rng(0))
    assert all(type(v) is int for v in record.fragment_order)
    assert sorted(record.fragment_order) == list(range(1, scheme.V + 1))


def draw_order(data, scheme) -> PlacementOrder:
    """A placement order with every server's fragments in a drawn order."""
    return PlacementOrder(tuple(tuple(data.draw(st.permutations(sorted(s))))
                                for s in scheme.fragment_sets))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), scheme=small_schemes(), ordered=st.booleans(),
       rank=st.sampled_from([None, "greedy", "harmonic"]), tie=st.sampled_from(["low", "seeded"]))
def test_rule_tables_match_list_oracle(data, scheme, ordered, rank, tie):
    """The numpy-built tables of a rule equal ``oracles.rule_tables``, built
    from lists, on schemes whose servers and fragments pad, with and without
    a placement order; and its ``choices`` still give the oracles' decision
    maps in every state."""
    order = draw_order(data, scheme) if ordered else None
    if order is not None:
        policy = NonadaptivePolicy(order) if rank is None else RankedPolicy(rank=rank,
                                                                            init_order=order)
    else:
        policy = RandomWorkConserving() if rank is None else RankedPolicy(rank=rank, tie=tie)
    rule = compile_policy(scheme, policy)
    want = rule_tables(scheme.fragment_sets, None if order is None else order.orders)
    for name in ("slot_frags", "hosts", "peers"):
        got = getattr(rule, name)
        assert got.dtype == np.intp and np.array_equal(got, want[name]), name
    assert_choices_match_oracle(scheme, policy, range(1 << scheme.V))


@st.composite
def ranked_schemes(draw):
    """Up to 7 fragments on up to 6 servers, each fragment on one server
    (R = 1: no peer rows) or on up to B; server sizes and replica counts
    vary, and a server may hold nothing."""
    B = draw(st.integers(1, 6))
    V = draw(st.integers(1, 7))
    most = draw(st.sampled_from([1, B]))
    occupancy = [draw(st.sets(st.integers(1, B), min_size=1, max_size=most)) for _ in range(V)]
    return build_scheme(occupancy, mu=1.0, B=B)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), scheme=ranked_schemes(), rank=st.sampled_from(["greedy", "harmonic"]),
       tie=st.sampled_from(["low", "seeded"]), ordered=st.booleans())
def test_choice_slots_over_peers_match_choices(data, scheme, rank, tie, ordered):
    """Slot scores summed over the peer table, which leaves out the slot's
    own server, give the oracles' ranked decisions (full per-fragment ranks
    in rationals) in every state, through the slot-pick code of ``decide``
    (lowest-index ties) and ``choice_slots`` (seeded ties) that ``choices``
    runs, with and without an init order."""
    order = draw_order(data, scheme) if ordered and tie == "low" else None
    policy = RankedPolicy(rank=rank, tie=tie, init_order=order)
    rule = compile_policy(scheme, policy)
    R = max(len(s) for s in scheme.occupancy)
    assert rule.peers.shape == (R - 1, rule.B, rule.K)
    assert_choices_match_oracle(scheme, policy, range(1 << scheme.V))


ORDER_EDITS = ["none", "drop server", "add server", "replace", "repeat", "drop", "append"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), scheme=small_schemes(), edit=st.sampled_from(ORDER_EDITS))
def test_order_refusals_match_set_oracle(data, scheme, edit):
    """A placement order is refused with ``InvalidParams``, by
    ``compile_policy`` and by ``pushback``, exactly when it does not list,
    server by server, a permutation of the scheme's fragments: a server too
    few or too many, or a fragment missing, foreign, repeated or out of
    range."""
    rows = [list(o) for o in draw_order(data, scheme).orders]
    stored = [b for b, row in enumerate(rows) if row]
    value = st.integers(-1, scheme.V + 2)
    b = data.draw(st.sampled_from(stored))
    if edit == "drop server":
        del rows[b]
    elif edit == "add server":
        rows.append(data.draw(st.lists(value, max_size=3)))
    elif edit == "replace":
        rows[b][data.draw(st.integers(0, len(rows[b]) - 1))] = data.draw(value)
    elif edit == "repeat":
        rows[b][data.draw(st.integers(0, len(rows[b]) - 1))] = rows[b][0]
    elif edit == "drop":
        del rows[b][data.draw(st.integers(0, len(rows[b]) - 1))]
    elif edit == "append":
        rows[b].append(data.draw(value))
    order = PlacementOrder(tuple(tuple(row) for row in rows))
    calls = [lambda: compile_policy(scheme, NonadaptivePolicy(order)),
             lambda: compile_policy(scheme, RankedPolicy(init_order=order)),
             lambda: pushback(order, scheme, 1)]
    for call in calls:
        if order_matches(scheme.fragment_sets, order.orders):
            call()
        else:
            with pytest.raises(InvalidParams):
                call()


@pytest.mark.parametrize("occupancy, orders", [
    # fragment 1 on servers 1 and 2: shifted by server, fragments 2 and 0
    # would sort into the other server's row as fragment 1
    ([{1, 2}], ((2,), (0,))),
    # server 1 holds fragments 1 and 2: a repeat of the right size
    ([{1, 2}, {1}], ((1, 1), (1,))),
])
def test_order_refusals_with_matching_sizes(occupancy, orders):
    scheme = build_scheme(occupancy)
    with pytest.raises(InvalidParams, match="order for server 1 is not a permutation"):
        compile_policy(scheme, NonadaptivePolicy(PlacementOrder(orders)))
