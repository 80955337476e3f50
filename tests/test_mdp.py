import dataclasses
import gc
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fragsched import (
    MdpPolicy,
    NonadaptivePolicy,
    RandomWorkConserving,
    RankedPolicy,
    affine_plane,
    build_scheme,
    cyclic_shift,
    exact_mean_download,
    mdp_solve,
    policy_evaluate_exact,
    projective_plane,
    pushback,
    smallest_index_first,
    uniform_diversity,
)
from fragsched.errors import InvalidParams, TooManyFragments
from oracles import (
    chain_expectations,
    decision_items,
    enumerate_completion_sequences,
    nonadaptive_decisions,
    profile_expectations,
    random_decisions,
    ranked_decisions,
    table_decisions,
    useful_count,
)
from test_kernel import POLICY_KINDS, make_policy
from test_kernel import small_schemes as drawn_schemes

from conftest import FANO_OCCUPANCY, PAIRED_OCCUPANCY, RING_OCCUPANCY


def small_schemes():
    return [
        build_scheme(FANO_OCCUPANCY),
        build_scheme(RING_OCCUPANCY),
        build_scheme(PAIRED_OCCUPANCY),
        projective_plane(2),
        cyclic_shift(7, 3),
        cyclic_shift(4, 2),
        cyclic_shift(5, 3),
        affine_plane(2),
        build_scheme([{1, 2}, {2, 3}, {1, 3}]),  # lopsided 3-server triangle
    ]


def policies_for(scheme):
    sif = smallest_index_first(scheme)
    ud = uniform_diversity(scheme)
    pols = [
        RandomWorkConserving(),
        NonadaptivePolicy(sif),
        NonadaptivePolicy(ud),
        NonadaptivePolicy(pushback(ud, scheme, 1)),
        RankedPolicy(rank="greedy", tie="low"),
        RankedPolicy(rank="harmonic", tie="low"),
        RankedPolicy(rank="harmonic", tie="seeded"),
        RankedPolicy(rank="harmonic", tie="low", init_order=ud),
    ]
    return pols


class TestMdpSolve:
    def test_terminal_and_penultimate_values(self, fano):
        sol = mdp_solve(fano)
        assert sol.reward_to_go(range(1, 8)) == 0
        for sub in itertools.combinations(range(1, 8), 6):
            assert sol.reward_to_go(sub) == 0
        R, V = fano.params.R, fano.params.V
        for sub in itertools.combinations(range(1, 8), 5):
            assert sol.reward_to_go(sub) == Fraction(R, V)

    def test_penultimate_any_completely_utilizing(self):
        for scheme in (cyclic_shift(5, 2), affine_plane(2), build_scheme(RING_OCCUPANCY)):
            sol = mdp_solve(scheme)
            R, V = scheme.params.R, scheme.params.V
            for sub in itertools.combinations(range(1, V + 1), V - 2):
                assert sol.reward_to_go(sub) == Fraction(R, V)

    def test_single_fragment_value_zero(self):
        sol = mdp_solve(build_scheme([{1, 2}]))
        assert sol.optimal_value == 0

    def test_decisions_are_work_conserving(self, fano):
        sol = mdp_solve(fano)
        for (mask, b), v in decision_items(sol.decisions).items():
            assert not mask >> v & 1
            assert (v + 1) in fano.fragments_on(b + 1)

    def test_mask_outside_the_state_space_refused(self, fano):
        sol = mdp_solve(fano)
        for mask in (-1, 1 << fano.V):
            with pytest.raises(InvalidParams, match=rf"mask {mask} outside \[0, 2\*\*7\)"):
                sol.reward_to_go(mask)

    def test_numpy_integer_mask_reads_like_an_int(self, pp2):
        sol = mdp_solve(pp2)
        assert sol.reward_to_go(np.int64(5)) == sol.reward_to_go(5) == sol.reward_to_go({1, 3})
        assert sol.reward_to_go(np.uint8(0)) == sol.optimal_value
        with pytest.raises(InvalidParams, match=r"mask 128 outside \[0, 2\*\*7\)"):
            sol.reward_to_go(np.int64(128))

    @pytest.mark.parametrize("subset", [True, False, np.True_], ids=repr)
    def test_bool_mask_refused(self, pp2, subset):
        # numpy would read a bool as a boolean index into the numerators
        with pytest.raises(InvalidParams, match="neither an int mask nor 1-based fragments"):
            mdp_solve(pp2).reward_to_go(subset)

    @pytest.mark.parametrize("subset", [5.0, np.float64(5.0), np.float32(0.0)], ids=repr)
    def test_float_mask_refused(self, pp2, subset):
        with pytest.raises(InvalidParams, match="neither an int mask nor 1-based fragments"):
            mdp_solve(pp2).reward_to_go(subset)

    @pytest.mark.parametrize("fragment", [True, np.True_], ids=repr)
    def test_bool_fragment_refused(self, pp2, fragment):
        # Python would read True as the fragment 1
        with pytest.raises(InvalidParams, match="is not an integer"):
            mdp_solve(pp2).reward_to_go([fragment])

    @pytest.mark.parametrize("fragment", [2.0, np.float64(2.0)], ids=repr)
    def test_float_fragment_refused(self, pp2, fragment):
        with pytest.raises(InvalidParams, match="is not an integer"):
            mdp_solve(pp2).reward_to_go([fragment])

    def test_string_fragment_refused(self, pp2):
        with pytest.raises(InvalidParams, match="fragment '1' is not an integer"):
            mdp_solve(pp2).reward_to_go(["1"])

    def test_numpy_integer_fragments_read_like_ints(self):
        sol = mdp_solve(affine_plane(3))
        # at V = 9 a uint8 fragment 9 would shift to 1 << 8, which wraps to 0
        assert sol.reward_to_go([np.uint8(9)]) == sol.reward_to_go([9])
        assert sol.reward_to_go(np.array([1, 9])) == sol.reward_to_go({1, 9})

    @pytest.mark.parametrize("name", ["fano", "pp2"])
    def test_values_hold_reward_plus_value(self, name, request):
        # values[I] is the numerator of W(I) = N(I)/V + u*(I), the quantity
        # the recursion ranks, over the level's denominator
        scheme = request.getfixturevalue(name)
        sol = mdp_solve(scheme)
        V, blocks = scheme.V, [set(s) for s in scheme.fragment_sets]
        for mask in range(1 << V):
            done = {v + 1 for v in range(V) if mask >> v & 1}
            W = sol.reward_to_go(mask) + Fraction(useful_count(blocks, done), V)
            assert sol.values[mask] == W * sol.denominators[len(done)]

    def test_solution_arrays_are_read_only(self, fano):
        # a write would change optimal_value, or every MdpPolicy built from it
        sol = mdp_solve(fano)
        value = sol.optimal_value
        with pytest.raises(ValueError, match="read-only"):
            sol.values[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            sol.decisions[0, 0] = 0
        assert sol.optimal_value == value

    def test_solution_keeps_one_numerator_per_state(self):
        # no Fraction per state: the solution of cyclic 15/3 retains its
        # numerators, their level denominators and the int8 decisions
        scheme = cyclic_shift(15, 3)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sol = mdp_solve(scheme)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sol.values) == 2**15
        assert retained <= 4 * 2**20

    def test_cap_enforced(self):
        with pytest.raises(TooManyFragments):
            mdp_solve(cyclic_shift(25, 3))

    def test_cap_refusal_states_the_cost(self, monkeypatch):
        # the refusal comes before any table is built
        def no_work(*args):
            raise AssertionError("solver started")

        monkeypatch.setattr("fragsched.mdp.compile_policy", no_work)
        with pytest.raises(TooManyFragments, match=r"V=21 exceeds the solver cap 20: "
                                                   r"2,097,152 states, estimated peak memory 0\.5 GiB"):
            mdp_solve(cyclic_shift(21, 3))
        with pytest.raises(TooManyFragments, match=r"V=25 exceeds the evaluation cap 24: "
                                                   r"33,554,432 states, estimated peak memory [\d.]+ GiB"):
            policy_evaluate_exact(cyclic_shift(25, 2), RandomWorkConserving())

    def test_refusal_beyond_physical_memory(self, monkeypatch):
        # on a 128 MiB machine, schemes within the caps are refused by their
        # estimated peak memory, before any table is built
        def no_work(*args):
            raise AssertionError("solver started")

        monkeypatch.setattr("fragsched.mdp.compile_policy", no_work)
        monkeypatch.setattr("fragsched.engine.compile_policy", no_work)
        machine = {"SC_PHYS_PAGES": 2**15, "SC_PAGE_SIZE": 2**12}
        monkeypatch.setattr("os.sysconf", machine.__getitem__)
        with pytest.raises(TooManyFragments, match=r"V=20, B=20: 1,048,576 states, estimated peak "
                                                   r"memory 0\.2 GiB exceeds the 0\.1 GiB of "
                                                   r"physical memory"):
            mdp_solve(cyclic_shift(20, 3))
        with pytest.raises(TooManyFragments, match=r"V=21, B=21: .* exceeds the 0\.1 GiB"):
            policy_evaluate_exact(cyclic_shift(21, 3), RandomWorkConserving())
        with pytest.raises(TooManyFragments, match=r"V=23, B=23: .* exceeds the 0\.1 GiB"):
            exact_mean_download(cyclic_shift(23, 3), RandomWorkConserving(), 1.0, exact=False)

    def test_optimal_dominates_all_policies(self):
        for scheme in small_schemes():
            sol = mdp_solve(scheme)
            for policy in policies_for(scheme):
                ev = policy_evaluate_exact(scheme, policy)
                assert sol.optimal_value >= ev.aggregate_reward, (
                    scheme.params,
                    policy,
                )

    def test_mdp_policy_achieves_optimal_value(self):
        for scheme in small_schemes():
            sol = mdp_solve(scheme)
            ev = policy_evaluate_exact(scheme, MdpPolicy(sol))
            assert ev.aggregate_reward == sol.optimal_value

    def test_penultimate_decisions_interchangeable(self, fano):
        # altering decisions only at (V-2)-subsets cannot change the value
        sol = mdp_solve(fano)
        V = fano.params.V
        altered = sol.decisions.copy()
        changed = 0
        for (mask, b), v in decision_items(sol.decisions).items():
            if bin(mask).count("1") == V - 2:
                residual = [
                    w - 1 for w in fano.fragments_on(b + 1) if not mask >> (w - 1) & 1
                ]
                alt = max(residual)
                changed += alt != v
                altered[mask, b] = alt
        assert changed > 0
        twisted = dataclasses.replace(sol, decisions=altered)
        ev = policy_evaluate_exact(fano, MdpPolicy(twisted))
        assert ev.aggregate_reward == sol.optimal_value


class TestPolicyEvaluateExact:
    def test_single_fragment(self):
        scheme = build_scheme([{1, 2, 3}])
        ev = policy_evaluate_exact(scheme, RandomWorkConserving())
        assert ev.per_ell_useful == (Fraction(3),)
        assert ev.aggregate_reward == 0

    def test_last_stage_useful_is_R(self, fano):
        for policy in policies_for(fano):
            ev = policy_evaluate_exact(fano, policy)
            assert ev.per_ell_useful[-1] == fano.params.R

    def test_matches_sequence_enumeration_ring(self, ring4):
        blocks = [set(s) for s in ring4.fragment_sets]
        want = profile_expectations(blocks, 4)
        ev = policy_evaluate_exact(ring4, RandomWorkConserving())
        assert list(ev.per_ell_useful) == want

    def test_matches_sequence_enumeration_fano(self, fano):
        blocks = [set(s) for s in fano.fragment_sets]
        want = profile_expectations(blocks, 7)
        ev = policy_evaluate_exact(fano, RandomWorkConserving())
        assert list(ev.per_ell_useful) == want

    def test_ring_profile_rows(self, ring4):
        # the two reachable profiles are (4,4,4,2) w.p. 1/4 and (4,4,3,2)
        # w.p. 3/4; check both the mixture and the stagewise means
        blocks = [set(s) for s in ring4.fragment_sets]
        profs = {}
        for _, prob, profile, _ in enumerate_completion_sequences(blocks, 4):
            profs[profile] = profs.get(profile, Fraction(0)) + prob
        assert profs == {
            (4, 4, 4, 2): Fraction(1, 4),
            (4, 4, 3, 2): Fraction(3, 4),
        }
        ev = policy_evaluate_exact(ring4, RandomWorkConserving())
        assert list(ev.per_ell_useful) == [4, 4, Fraction(13, 4), 2]

    def test_probabilities_sum_to_one(self, fano):
        for policy in policies_for(fano):
            ev = policy_evaluate_exact(fano, policy)
            # the inverse-useful column integrates the chain: each stage must
            # carry total probability 1, so E[1/N] is within [1/B, 1]
            for x in ev.per_ell_inverse_useful:
                assert Fraction(1, fano.params.B) <= x <= 1

    def test_cap_enforced(self):
        with pytest.raises(TooManyFragments):
            policy_evaluate_exact(cyclic_shift(30, 2), RandomWorkConserving())


def oracle_decisions(kind: str, policy, blocks):
    """The oracle decision map of a ``make_policy`` policy, from its fields."""
    if kind == "random":
        return lambda done: random_decisions(blocks, done)
    if kind == "mdp":
        table = decision_items(policy.solution.decisions)
        return lambda done: table_decisions(blocks, done, table)
    if kind.startswith(("greedy", "harmonic")):
        init = policy.init_order.orders if policy.init_order else None
        return lambda done: ranked_decisions(blocks, done, policy.rank, policy.tie, init)
    return lambda done: nonadaptive_decisions(blocks, done, policy.order.orders)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scheme=drawn_schemes(), kind=st.sampled_from(POLICY_KINDS))
def test_policy_evaluate_exact_matches_oracle(scheme, kind):
    policy = make_policy(scheme, kind)
    blocks = [set(s) for s in scheme.fragment_sets]
    useful, inverse = chain_expectations(blocks, scheme.V, oracle_decisions(kind, policy, blocks))
    ev = policy_evaluate_exact(scheme, policy)
    assert ev.per_ell_useful == tuple(useful)
    assert ev.per_ell_inverse_useful == tuple(inverse)
    assert ev.aggregate_reward == sum(useful[1:], start=Fraction(0)) / scheme.V
