import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from fragsched import (
    RankedPolicy,
    advance_state,
    build_scheme,
    greedy_rank,
    harmonic_rank,
    initial_state,
    nonadaptive_decide,
    pushback,
    ranked_decide,
    smallest_index_first,
    uniform_diversity,
)
from fragsched.errors import FragmentAlreadyDownloaded, InvalidParams, ServerUseless
from oracles import all_decision_maps, immediate_reward, useful_count


def state_after(scheme, downloads):
    st = initial_state(scheme)
    for v in downloads:
        advance_state(scheme, st, v)
    return st


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
        order = smallest_index_first(fano)
        st = state_after(fano, [1])
        assert nonadaptive_decide(order, st, 1) == 2

    def test_initial_head(self, fano):
        order = smallest_index_first(fano)
        st = initial_state(fano)
        for b in range(1, 8):
            assert nonadaptive_decide(order, st, b) == order.order_of(b)[0]

    def test_useless_server(self, fano):
        st = state_after(fano, [1, 2, 3])
        assert 1 not in st.useful
        with pytest.raises(ServerUseless):
            nonadaptive_decide(smallest_index_first(fano), st, 1)


class TestGreedyRank:
    def test_zero_at_start(self, fano, cyclic73):
        for scheme in (fano, cyclic73):
            st = initial_state(scheme)
            assert all(greedy_rank(scheme, st, v) == 0 for v in range(1, 8))

    def test_counts_dying_servers(self, fano):
        st = state_after(fano, [1, 2])  # server 1 residual {3}
        assert greedy_rank(fano, st, 3) >= 1
        assert greedy_rank(fano, st, 3) == sum(
            1 for b in fano.occupancy_of(3) if len(st.residual_on(b)) == 1
        )

    def test_last_fragment_rank_R(self, fano):
        st = state_after(fano, [1, 2, 3, 4, 5, 6])
        assert greedy_rank(fano, st, 7) == fano.params.R

    def test_downloaded_rejected(self, fano):
        st = state_after(fano, [4])
        with pytest.raises(FragmentAlreadyDownloaded):
            greedy_rank(fano, st, 4)


class TestHarmonicRank:
    def test_uniform_at_start(self, fano):
        st = initial_state(fano)
        for v in range(1, 8):
            assert harmonic_rank(fano, st, v) == Fraction(3, 3) == 1

    def test_after_first_download_all_tie(self, fano):
        # every remaining fragment shares exactly one host with fragment 1,
        # so each sums 1/2 + 1/3 + 1/3
        st = state_after(fano, [1])
        ranks = [harmonic_rank(fano, st, v) for v in range(2, 8)]
        assert ranks == [Fraction(7, 6)] * 6

    def test_rank_sum_equals_useful_count(self, fano, cyclic73):
        # sum over remaining fragments of the harmonic rank telescopes to N
        rng = random.Random(3)
        for scheme in (fano, cyclic73):
            for _ in range(20):
                ell = rng.randrange(0, 7)
                st = state_after(scheme, rng.sample(range(1, 8), ell))
                total = sum(
                    harmonic_rank(scheme, st, v)
                    for v in range(1, 8)
                    if v not in st.downloaded_set
                )
                assert total == st.n_useful

    def test_single_fragment_scheme(self):
        scheme = build_scheme([{1, 2, 3}])
        st = initial_state(scheme)
        assert harmonic_rank(scheme, st, 1) == 3  # R hosts each with residual {1}

    def test_monotone_in_host_sizes(self, cyclic73):
        # pointwise-smaller hosting residuals imply a larger-or-equal rank
        rng = random.Random(11)
        for _ in range(60):
            ell = rng.randrange(0, 6)
            st = state_after(cyclic73, rng.sample(range(1, 8), ell))
            remaining = [v for v in range(1, 8) if v not in st.downloaded_set]
            for v, w in itertools.permutations(remaining, 2):
                sizes_v = sorted(len(st.residual_on(b)) for b in cyclic73.occupancy_of(v))
                sizes_w = sorted(len(st.residual_on(b)) for b in cyclic73.occupancy_of(w))
                if all(sw <= sv for sv, sw in zip(sizes_v, sizes_w)):
                    assert harmonic_rank(cyclic73, st, v) <= harmonic_rank(cyclic73, st, w)


class TestRankedDecide:
    def test_worked_example_decisions(self, fano):
        st = state_after(fano, [1])
        decisions = ranked_decide(fano, st, rank="harmonic", tie="low")
        assert decisions[2] == 3
        assert decisions[4] == 4
        assert decisions[7] == 2
        assert decisions[1] in (2, 3) and decisions[3] in (5, 6)

    def test_single_residual_forced(self, fano):
        st = state_after(fano, [1, 2])  # server 1 residual {3}
        for rank in ("greedy", "harmonic"):
            assert ranked_decide(fano, st, rank=rank)[1] == 3

    def test_greedy_at_start_lowest_index(self, fano):
        st = initial_state(fano)
        decisions = ranked_decide(fano, st, rank="greedy", tie="low")
        for b in range(1, 8):
            assert decisions[b] == min(fano.fragments_on(b))

    def test_decisions_work_conserving(self, fano, cyclic73):
        rng = random.Random(23)
        gen = np.random.default_rng(5)
        for scheme in (fano, cyclic73):
            for _ in range(40):
                ell = rng.randrange(0, 7)
                st = state_after(scheme, rng.sample(range(1, 8), ell))
                for rank in ("greedy", "harmonic"):
                    for tie in ("low", "seeded"):
                        decisions = ranked_decide(scheme, st, rank=rank, tie=tie, rng=gen)
                        assert set(decisions) == st.useful
                        for b, v in decisions.items():
                            assert v in st.residual_on(b)

    def test_init_order_breaks_ties(self, fano):
        ud = uniform_diversity(fano)
        st = initial_state(fano)
        decisions = ranked_decide(fano, st, rank="harmonic", init_order=ud)
        for b in range(1, 8):
            assert decisions[b] == ud.order_of(b)[0]

    def test_rejects_unknown_tie_rule(self, pp2):
        with pytest.raises(InvalidParams, match="tie rule"):
            ranked_decide(pp2, initial_state(pp2), tie="bogus")

    def test_rejects_seeded_ties_with_init_order(self, pp2):
        gen = np.random.default_rng(1)
        with pytest.raises(InvalidParams, match="init order"):
            ranked_decide(pp2, initial_state(pp2), tie="seeded", rng=gen,
                          init_order=uniform_diversity(pp2))

    def test_seeded_ties_need_rng(self, pp2):
        with pytest.raises(InvalidParams, match="rng"):
            ranked_decide(pp2, initial_state(pp2), tie="seeded")

    def test_policy_rejects_seeded_ties_with_init_order(self, fano):
        ud = uniform_diversity(fano)
        with pytest.raises(InvalidParams, match="init order"):
            RankedPolicy(rank="harmonic", tie="seeded", init_order=ud)
        assert RankedPolicy(rank="harmonic", tie="low", init_order=ud).init_order is ud


class TestGreedyMaximizesImmediateReward:
    @pytest.mark.parametrize("downloads", [[], [1], [1, 2], [3, 6, 7], [1, 2, 3, 4]])
    def test_brute_force_over_decision_maps(self, fano, downloads):
        st = state_after(fano, downloads)
        blocks = [set(s) for s in fano.fragment_sets]
        decisions = ranked_decide(fano, st, rank="greedy", tie="low")
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
            st = state_after(cyclic73, downloads)
            decisions = ranked_decide(cyclic73, st, rank="greedy", tie="low")
            got = immediate_reward(blocks, set(downloads), decisions)
            best = max(
                immediate_reward(blocks, set(downloads), m)
                for m in all_decision_maps(blocks, set(downloads))
            )
            assert got == best
