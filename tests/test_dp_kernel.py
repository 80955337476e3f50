"""The level-synchronous subset DPs of ``fragsched.mdp`` against their
one-state-at-a-time loops (``oracles.scalar_forward_dp`` and
``oracles.scalar_mdp_solve``, which read the oracles' decision maps, not the
package's ``DecisionRule``), the rule's ``choices`` against those decision
maps, ``mdp_solve`` against a brute-force backward induction over frozensets
that shares no solver code, and the forward DP's sort-free numbering of
first-seen states against the sorted one it replaced.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fragsched import affine_plane, build_scheme, cyclic_shift, mdp, mdp_solve
from fragsched.mdp import _first_seen, _forward_dp
from fragsched.scheduling import compile_policy
from oracles import (decision_items, optimal_reward_to_go, scalar_forward_dp, scalar_mdp_solve,
                     sorted_first_seen, useful_count, value_items)
from conftest import FANO_OCCUPANCY, PAIRED_OCCUPANCY
from test_kernel import (IRREGULAR, POLICY_KINDS, assert_choices_match_oracle, make_policy,
                         small_schemes)

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# wider levels than the drawn schemes reach, and residuals of size 3, whose
# weight 1/3 is inexact in floats
FIXED_SCHEMES = {
    "fano": lambda: build_scheme(FANO_OCCUPANCY, mu=1.0),
    "cyclic73": lambda: cyclic_shift(7, 3),
    "irregular": lambda: build_scheme(IRREGULAR, mu=1.0, B=6),
    "affine3": lambda: affine_plane(3),
}


def check_forward_dp(scheme, kind, rational):
    policy = make_policy(scheme, kind)
    got = _forward_dp(compile_policy(scheme, policy), rational)
    want = scalar_forward_dp(scheme, policy, rational)
    assert got == want
    assert repr(got) == repr(want)  # same types, and every float to the last bit


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scheme=small_schemes(), kind=st.sampled_from(POLICY_KINDS), rational=st.booleans())
def test_forward_dp_matches_scalar_loop(scheme, kind, rational):
    check_forward_dp(scheme, kind, rational)


@pytest.mark.parametrize("name", FIXED_SCHEMES)
def test_forward_dp_matches_scalar_loop_on_fixed_schemes(name):
    scheme = FIXED_SCHEMES[name]()
    for kind in POLICY_KINDS:
        for rational in (True, False):
            check_forward_dp(scheme, kind, rational)


@pytest.mark.parametrize("states", [1, 3], ids=["one-state", "three-states"])
@pytest.mark.parametrize("name", FIXED_SCHEMES)
def test_forward_dp_matches_scalar_loop_across_batch_edges(monkeypatch, name, states):
    # batches of one or three states split every level past the first, so a
    # parent's weight read at another batch's offset shows in the result
    scheme = FIXED_SCHEMES[name]()
    policies = [make_policy(scheme, kind) for kind in POLICY_KINDS]
    rules = [compile_policy(scheme, policy) for policy in policies]
    monkeypatch.setattr(mdp, "_SLOTS", states * rules[0].B * rules[0].K)
    for policy, rule in zip(policies, rules):
        for rational in (True, False):
            assert repr(_forward_dp(rule, rational)) == repr(
                scalar_forward_dp(scheme, policy, rational))


@st.composite
def child_batches(draw):
    """V and a level's batches of child masks, drawn from few masks so that
    they repeat within a batch and across batches; then an empty batch and
    the first batch again, every mask of which is numbered by then."""
    V = draw(st.integers(1, 8))
    pool = draw(st.lists(st.integers(0, (1 << V) - 1), min_size=1, max_size=12, unique=True))
    batches = draw(st.lists(st.lists(st.sampled_from(pool), max_size=40), min_size=1, max_size=5))
    return V, batches + [[], batches[0]]


@settings(max_examples=200, deadline=None)
@given(case=child_batches())
def test_first_seen_matches_sorted_numbering(case):
    V, batches = case
    got_index = np.full(1 << V, -1, dtype=np.intp)
    want_index = got_index.copy()
    seen = 0
    for batch in batches:
        child = np.array(batch, dtype=np.int64)
        got_ids, got_fresh = _first_seen(child, got_index, seen)
        want_ids, want_fresh = sorted_first_seen(child, want_index, seen)
        assert got_ids.tolist() == want_ids.tolist()
        assert got_fresh.tolist() == want_fresh.tolist()
        seen += len(want_fresh)
    assert len(got_fresh) == 0  # every mask of the repeated first batch was numbered
    assert got_index.tolist() == want_index.tolist()
    # no marker is left behind: every entry is unseen or a position in the level
    assert ((got_index == -1) | ((got_index >= 0) & (got_index < seen))).all()


def test_mdp_solve_matches_scalar_loop_on_affine_plane():
    scheme = affine_plane(3)
    sol = mdp_solve(scheme)
    assert (value_items(sol), decision_items(sol.decisions)) == scalar_mdp_solve(scheme)


# children that tie exactly: servers that repeat (paired), a design's
# symmetries (fano, cyclic 10/3), and uneven K and R with an empty server
TIED_SCHEMES = {
    "paired4": lambda: build_scheme(PAIRED_OCCUPANCY, mu=1.0),
    "fano": FIXED_SCHEMES["fano"],
    "cyclic103": lambda: cyclic_shift(10, 3),
    "irregular": FIXED_SCHEMES["irregular"],
}


@pytest.mark.parametrize("name", TIED_SCHEMES)
def test_mdp_solve_matches_scalar_loop_where_siblings_tie(name):
    scheme = TIED_SCHEMES[name]()
    sol = mdp_solve(scheme)
    assert (value_items(sol), decision_items(sol.decisions)) == scalar_mdp_solve(scheme)


@SETTINGS
@given(scheme=small_schemes())
def test_mdp_solve_matches_scalar_loop(scheme):
    sol = mdp_solve(scheme)
    values, decisions = scalar_mdp_solve(scheme)
    assert value_items(sol) == values
    assert decision_items(sol.decisions) == decisions
    assert sol.optimal_value == values[0]


@SETTINGS
@given(scheme=small_schemes(), kind=st.sampled_from(POLICY_KINDS))
def test_choice_slots_match_choices(scheme, kind):
    # ``choices`` runs the slot-pick code of ``decide`` and ``choice_slots``
    # on one state
    assert_choices_match_oracle(scheme, make_policy(scheme, kind), range(1 << scheme.V))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scheme=small_schemes().filter(lambda s: s.V <= 6))
def test_mdp_solve_matches_brute_force(scheme):
    V = scheme.V
    blocks = [set(s) for s in scheme.fragment_sets]
    want = optimal_reward_to_go(blocks, V)
    sol = mdp_solve(scheme)
    assert value_items(sol) == {sum(1 << (v - 1) for v in done): u for done, u in want.items()}

    decisions = decision_items(sol.decisions)
    useful_pairs = set()
    for done in want:
        mask = sum(1 << (v - 1) for v in done)
        for b, block in enumerate(blocks):
            residual = sorted(block - done)
            if not residual:
                continue
            useful_pairs.add((mask, b))
            # the recorded fragment is the lowest-index maximizer of
            # reward plus reward-to-go of the successor
            gains = [Fraction(useful_count(blocks, done | {v}), V) + want[done | {v}]
                     for v in residual]
            assert decisions[mask, b] + 1 == residual[gains.index(max(gains))]
    assert set(decisions) == useful_pairs
