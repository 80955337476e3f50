import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fragsched import (
    asymptotic_compare,
    bound_envelope,
    build_scheme,
    duplicate_prob_lb,
    mds_aggregate_bounds,
    mds_useful_bounds,
    projective_plane,
    random_mds_expected,
    random_rep_expected,
    useful_lower_bound_early,
    useful_lower_bound_late,
    useful_upper_bound,
)
from oracles import useful_count


class TestUpperBound:
    def test_seven_server_values(self):
        prof = useful_upper_bound(7, 7, 3)  # m = 3
        assert prof.upper[0] == 7
        assert prof.upper[5] == 6
        assert prof.upper[6] == 3

    def test_remark_value_q11(self):
        prof = useful_upper_bound(133, 133, 12)  # m = 12
        assert prof.normalized_sum_remark == 1 - Fraction(13, 266)

    def test_profile_sum_ceiling_exact(self):
        prof = useful_upper_bound(7, 7, 3)
        assert prof.normalized_sum_upper == Fraction(int(prof.upper.sum()), 49)

    def test_shape_flat_then_linear(self):
        # alpha = 1/4 at several sizes: constant B then a strictly
        # decreasing linear tail of m steps
        for V in (50, 100, 500, 1000):
            K = V // 4
            B, R = V, K  # symmetric layout with alpha = K/V
            prof = useful_upper_bound(B, V, R)
            m = -(-B // R)
            head, tail = prof.upper[: V - m + 1], prof.upper[V - m + 1 :]
            assert np.all(head == B)
            assert np.all(np.diff(tail) == -R)

    def test_upper_holds_on_every_fano_trajectory(self, fano):
        blocks = [set(s) for s in fano.fragment_sets]
        prof = useful_upper_bound(7, 7, 3)
        for order in itertools.permutations(range(1, 8)):
            seen = set()
            for ell, v in enumerate(order):
                assert useful_count(blocks, seen) <= prof.upper[ell]
                seen.add(v)


class TestLowerBoundEarly:
    def test_fano_values(self):
        assert useful_lower_bound_early(7, 3, 1, 0) == 7
        assert useful_lower_bound_early(7, 3, 1, 2) == 6

    def test_q11_value(self):
        assert useful_lower_bound_early(133, 12, 1, 20) == 131

    def test_vacuous_region_returns_zero(self):
        # beyond l >= K(K+tau)/(2 tau) no i qualifies
        assert useful_lower_bound_early(7, 3, 1, 6) == 0
        assert useful_lower_bound_early(7, 3, 1, 50) == 0

    def test_empty_server_is_vacuous_from_the_start(self):
        # a server of no fragments is never useful, so not even l = 0 gives B
        assert useful_lower_bound_early(7, 0, 1, 0) == 0
        assert useful_lower_bound_early(7, 0, 1, 3) == 0

    def test_agrees_with_inequality_scan(self):
        # the returned bound is B - (smallest i satisfying the inequality)
        for B, K, tau in ((7, 3, 1), (13, 4, 1), (133, 12, 1), (9, 4, 2), (7, 3, 2)):
            for ell in range(1, K * (K + tau) // (2 * tau) + 4):
                valid = [
                    i
                    for i in range(1, K // tau + 2)
                    if 2 * ell < 2 * i * K - i * (i - 1) * tau
                ]
                want = B - min(valid) if valid else 0
                assert useful_lower_bound_early(B, K, tau, ell) == want


class TestLowerBoundLate:
    def test_last_fragment_is_R(self):
        assert useful_lower_bound_late(3, 1, 7, 6) == 3
        assert useful_lower_bound_late(12, 1, 133, 132) == 12

    def test_fano_two_left(self):
        assert useful_lower_bound_late(3, 1, 7, 5) == 5

    def test_cyclic_two_left(self):
        assert useful_lower_bound_late(3, 2, 7, 5) == 4

    def test_vacuous_outside_range(self):
        assert useful_lower_bound_late(3, 1, 7, 1) == 0  # i = 6 > floor(R)+1
        assert useful_lower_bound_late(3, 1, 7, 7) == 0  # i = 0


class TestDesignProfile:
    def test_fano_profile_values(self, fano):
        prof = bound_envelope(fano)
        assert prof.lower[0] == 7
        assert prof.lower[1] == 7  # single-overlap recursion keeps all alive
        assert prof.lower[6] == 3

    def test_dominates_general_bounds_on_projective(self):
        for q in (2, 3):
            scheme = projective_plane(q)
            p = scheme.params
            prof = bound_envelope(scheme)
            for ell in range(p.V):
                general = max(
                    useful_lower_bound_early(p.B, p.K, 1, ell),
                    useful_lower_bound_late(p.R, 1, p.V, ell),
                )
                assert prof.lower_general[ell] == general
                assert prof.lower[ell] >= general

    def test_envelope_holds_on_every_fano_trajectory(self, fano):
        blocks = [set(s) for s in fano.fragment_sets]
        env = bound_envelope(fano)
        for order in itertools.permutations(range(1, 8)):
            seen = set()
            for ell, v in enumerate(order):
                n = useful_count(blocks, seen)
                assert env.lower[ell] <= n <= env.upper[ell]
                seen.add(v)

    def test_cyclic_fallback_uses_general_bounds(self, cyclic73):
        prof = bound_envelope(cyclic73)
        assert prof.lower[6] == 3   # one fragment left
        assert prof.lower[5] == 4   # lambda = 2, i = 2
        assert prof.lower[0] == 7
        assert np.array_equal(prof.lower, prof.lower_general)  # tau = 2: no recursion


class TestEnsembleClosedForms:
    def test_rep_degenerate_cases(self):
        for one in (random_rep_expected(1, 5, 2), random_mds_expected(1, 5, 2)):
            assert np.all(one.per_ell == 1.0) and one.aggregate == 1.0
        tiny = random_rep_expected(2, 1, 1)
        assert tiny.per_ell[0] == pytest.approx(1.0)

    def test_rep_aggregate_consistent_with_profile(self):
        for B, V, R in ((2, 3, 2), (20, 50, 5), (7, 9, 3), (133, 133, 12)):
            e = random_rep_expected(B, V, R)
            assert e.aggregate == pytest.approx(e.per_ell.sum() / (B * V), rel=1e-12)

    def test_mds_aggregate_consistent_with_profile(self):
        for B, V, R in ((2, 2, 2), (20, 50, 5), (7, 9, 3)):
            e = random_mds_expected(B, V, R)
            assert e.aggregate == pytest.approx(e.per_ell.sum() / (B * V), rel=1e-12)

    def test_mds_second_step_value(self):
        e = random_mds_expected(2, 2, 2)
        assert e.per_ell[1] == pytest.approx(1.75)

    def test_mds_dominates_rep_pointwise(self):
        for B, V, R in ((2, 2, 2), (5, 8, 3), (20, 50, 5), (133, 133, 12)):
            rep = random_rep_expected(B, V, R)
            mds = random_mds_expected(B, V, R)
            assert np.all(mds.per_ell >= rep.per_ell - 1e-12)
            assert mds.aggregate >= rep.aggregate - 1e-12

    def test_boundary_meanings(self):
        B, V, R = 9, 12, 3
        rep = random_rep_expected(B, V, R)
        y = 1 - 1 / B
        assert rep.per_ell[V - 1] == pytest.approx(B * (1 - y**R))
        prof = useful_upper_bound(B, V, R)
        assert prof.upper[0] == B


class TestMdsBounds:
    def test_start(self):
        assert mds_useful_bounds(5, 4, 3, 2, 0) == (5, 5)
        assert mds_useful_bounds(50, 4, 3, 2, 0) == (50, 12)

    def test_q11_like_value(self):
        lo, hi = mds_useful_bounds(133, 133, 12, 12, 24)
        assert lo == 131 and hi == 133

    def test_aggregate_lower(self):
        lo, hi = mds_aggregate_bounds(133, 133, 12)
        assert lo == pytest.approx(1 - (1 / 24) * (132 / 133))
        assert hi == 1.0

    def test_aggregate_vacuous_when_rate_too_low(self):
        # 1/R > V/(B+V): premise fails, lower bound degrades to 0
        assert mds_aggregate_bounds(100, 2, 3)[0] == 0.0


class TestDuplicateBound:
    def test_single_replica_zero(self):
        assert duplicate_prob_lb(0.3, 1) == 0.0

    def test_worked_value(self):
        assert duplicate_prob_lb(0.25, 5) == pytest.approx(1 - math.exp(-0.5))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            duplicate_prob_lb(0.0, 3)


class TestAsymptoticCompare:
    def test_gap_identity(self):
        # gap = (1/V) [ln((x^{VR}-1)/(x^R-1)) - ln((x^V-1)/(x-1))], x = 1/(1-1/B)
        for B, V, R in ((4, 10, 2), (20, 50, 5), (10, 30, 3)):
            cmp_ = asymptotic_compare(B, V, R)
            x = 1 / (1 - 1 / B)
            want = (
                math.log((x ** (V * R) - 1) / (x**R - 1))
                - math.log((x**V - 1) / (x - 1))
            ) / V
            assert cmp_.gap == pytest.approx(want, rel=1e-9)

    def test_aggregate_gap_shrinks_with_V(self):
        gaps = [abs(asymptotic_compare(8, V, 2).aggregate_gap) for V in (10, 100, 1000)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.01

    def test_log_gap_limit(self):
        # the log-side gap approaches (R-1)*ln(1/(1-1/B)) from below
        B, R = 8, 2
        limit = (R - 1) * math.log(1 / (1 - 1 / B))
        gaps = [asymptotic_compare(B, V, R).gap for V in (10, 100, 1000)]
        assert gaps[0] < gaps[1] < gaps[2] < limit
        assert gaps[2] == pytest.approx(limit, rel=0.05)

    def test_tiny_system_no_singularity(self):
        cmp_ = asymptotic_compare(2, 1, 1)
        assert math.isfinite(cmp_.rep_exact) and math.isfinite(cmp_.mds_exact)

    def test_exact_sides_match_direct_logs(self):
        B, V, R = 20, 50, 5
        cmp_ = asymptotic_compare(B, V, R)
        rep = random_rep_expected(B, V, R)
        mds = random_mds_expected(B, V, R)
        assert cmp_.rep_exact == pytest.approx(math.log(1 - rep.aggregate) / V, rel=1e-9)
        assert cmp_.mds_exact == pytest.approx(math.log(1 - mds.aggregate) / V, rel=1e-9)

    def test_approx_sides(self):
        B, V, R = 20, 50, 5
        cmp_ = asymptotic_compare(B, V, R)
        assert cmp_.rep_approx == pytest.approx(-0.25 + math.log(250) / 50)
        assert cmp_.mds_approx == pytest.approx(-0.25 + math.log(50) / 50)

    def test_b1_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_compare(1, 5, 2)


@st.composite
def uneven_schemes(draw):
    """Up to 6 fragments on up to 6 servers, not completely utilizing: replica
    counts and server sizes vary, and a server may hold nothing."""
    B, V = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    occupancy = [draw(st.sets(st.integers(1, B), min_size=1, max_size=B)) for _ in range(V)]
    scheme = build_scheme(occupancy, B=B)
    assume(not scheme.params.completely_utilizing)
    return scheme


class TestUnevenSchemes:
    def test_smallest_replica_count_bounds_the_last_step(self):
        # server 3 holds fragments 1 and 2, servers 1 and 2 fragment 1 only:
        # downloading fragment 1 first leaves server 3 alone useful
        scheme = build_scheme([{1, 2, 3}, {3}])
        env = bound_envelope(scheme)
        assert (scheme.params.K, scheme.params.R) == (2, 3)
        assert env.lower[1] == env.lower_general[1] == 1
        assert useful_count([set(s) for s in scheme.fragment_sets], {1}) == 1

    @settings(max_examples=150, deadline=None)
    @given(scheme=uneven_schemes())
    def test_lower_holds_on_every_download_order(self, scheme):
        blocks = [set(s) for s in scheme.fragment_sets]
        env = bound_envelope(scheme)
        assert np.all(env.lower_general <= env.lower)
        for order in itertools.permutations(range(1, scheme.V + 1)):
            for ell in range(scheme.V):
                assert env.lower[ell] <= useful_count(blocks, set(order[:ell])), (order, ell)
