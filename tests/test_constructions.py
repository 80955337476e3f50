import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from fragsched import (
    affine_plane,
    conservation_check,
    cyclic_shift,
    large_storage_scheme,
    overlap_profile,
    projective_plane,
    sample_random_mds,
    sample_random_replication,
    scheme_to_design,
    verify_t_design,
)
from fragsched.constructions import MdsPlacement, ReplicationPlacement
from fragsched.errors import CapacityMismatch, InvalidParams, NotPrime


class TestPrimeField:
    """The planes are built over the prime field F_q, so a non-prime order is
    refused."""

    @pytest.mark.parametrize("q", [0, 1, 4, 6, 8, 9, 25, 27])
    def test_nonprime_rejected(self, q):
        with pytest.raises(NotPrime):
            projective_plane(q)
        with pytest.raises(NotPrime):
            affine_plane(q)


class TestProjectivePlane:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_parameters_and_design(self, q):
        scheme = projective_plane(q)
        n = q * q + q + 1
        p = scheme.params
        assert (p.B, p.V, p.R, p.K) == (n, n, q + 1, q + 1)
        assert p.completely_utilizing
        assert verify_t_design(scheme_to_design(scheme), 2) == 1
        assert conservation_check(scheme_to_design(scheme), 2, 1) == (True, True)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_pairwise_intersections(self, q):
        scheme = projective_plane(q)
        # any two blocks meet in exactly one point; any two points share one block
        for sa, sb in itertools.combinations(scheme.fragment_sets, 2):
            assert len(sa & sb) == 1
        for pa, pb in itertools.combinations(scheme.occupancy, 2):
            assert len(pa & pb) == 1

    def test_q11_shape(self):
        scheme = projective_plane(11)
        p = scheme.params
        assert (p.V, p.B, p.K, p.R) == (133, 133, 12, 12)

    def test_overlap_maxima(self):
        ov = overlap_profile(projective_plane(2))
        assert ov.tau_max == 1 and ov.lambda_max == 1

    def test_prime_power_rejected(self):
        with pytest.raises(NotPrime):
            projective_plane(4)

    def test_deterministic(self):
        assert projective_plane(3).occupancy == projective_plane(3).occupancy


class TestAffinePlane:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_parameters_and_design(self, q):
        scheme = affine_plane(q)
        p = scheme.params
        assert (p.V, p.B, p.K, p.R) == (q * q, q * q + q, q, q + 1)
        assert p.completely_utilizing
        assert verify_t_design(scheme_to_design(scheme), 2) == 1

    def test_q2_every_pair_once(self):
        scheme = affine_plane(2)
        blocks = [set(b) for b in scheme.fragment_sets]
        for pair in itertools.combinations(range(1, 5), 2):
            assert sum(1 for b in blocks if set(pair) <= b) == 1

    def test_conservation_q3(self):
        scheme = affine_plane(3)
        assert scheme.params.B * scheme.params.K == 36 == scheme.params.V * scheme.params.R

    def test_parallel_classes_exist(self):
        # an affine plane has disjoint block pairs; occupancy overlap max is 1
        scheme = affine_plane(3)
        disjoint = sum(
            1 for a, b in itertools.combinations(scheme.fragment_sets, 2) if not a & b
        )
        assert disjoint > 0
        assert overlap_profile(scheme).lambda_max == 1

    def test_nonprime_rejected(self):
        with pytest.raises(NotPrime):
            affine_plane(9)


class TestCyclicShift:
    def test_fragment_sets(self):
        scheme = cyclic_shift(7, 3)
        assert sorted(scheme.fragments_on(1)) == [1, 2, 3]
        assert sorted(scheme.fragments_on(7)) == [1, 2, 7]
        assert scheme.occupancy_of(3) == frozenset({1, 2, 3})
        assert scheme.params.completely_utilizing

    def test_consecutive_overlaps(self):
        V, R = 9, 4
        scheme = cyclic_shift(V, R)
        sets = [set(s) for s in scheme.fragment_sets]
        for b in range(V):
            for j in range(1, R):
                assert len(sets[b] & sets[(b + j) % V]) == R - j

    def test_trivial(self):
        scheme = cyclic_shift(1, 1)
        assert scheme.params.B == scheme.params.V == 1

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            cyclic_shift(3, 4)
        with pytest.raises(InvalidParams):
            cyclic_shift(3, 0)


class TestLargeStorage:
    def test_equal_capacity(self):
        placement = large_storage_scheme(2, 2, 2)
        assert placement.R == 2
        assert all(set(t) == {1, 2} for t in placement.theta)

    def test_double_capacity(self):
        placement = large_storage_scheme(2, 2, 4)
        assert placement.R == 4
        for v in (1, 2):
            for b in (1, 2):
                assert placement.multiplicity(v, b) == 2

    def test_every_fragment_everywhere(self):
        placement = large_storage_scheme(3, 4, 6)
        for occ in placement.occupancy:
            assert occ == frozenset(range(1, 5))

    def test_all_servers_useful_all_orders(self):
        # exhaustively: any download order keeps all B servers useful
        for V, B, K in ((2, 2, 2), (2, 2, 4), (3, 2, 3), (4, 3, 4)):
            if (B * K) % V:
                continue
            placement = large_storage_scheme(V, B, K)
            for order in itertools.permutations(range(1, V + 1)):
                remaining = [set(range(1, V + 1)) for _ in range(B)]
                for ell, v in enumerate(order):
                    useful = sum(1 for r in remaining if r)
                    assert useful == B, (V, B, K, order, ell)
                    for r in remaining:
                        r.discard(v)

    def test_capacity_mismatch(self):
        with pytest.raises(CapacityMismatch):
            large_storage_scheme(3, 2, 2)
        with pytest.raises(CapacityMismatch):
            large_storage_scheme(4, 3, 5)


class TestRandomReplication:
    def test_forced_single_server(self):
        placement = sample_random_replication(1, 3, 4, seed=0)
        assert all(set(t) == {1} for t in placement.theta)
        assert placement.alpha_per_server == (Fraction(12, 3),)

    def test_replay_identical(self):
        a = sample_random_replication(20, 50, 5, seed=123)
        b = sample_random_replication(20, 50, 5, seed=123)
        assert a.theta == b.theta
        assert a.theta != sample_random_replication(20, 50, 5, seed=124).theta

    def test_replica_budget(self):
        placement = sample_random_replication(6, 9, 4, seed=2)
        for v in range(1, 10):
            assert len(placement.theta[v - 1]) == 4
            assert len(placement.occupancy[v - 1]) <= 4
        total = sum(a * placement.V for a in placement.alpha_per_server)
        assert total == placement.V * placement.R

    def test_alpha_converges_statistically(self):
        # mean of alpha_b over many seeds approaches R/B within 3 SE
        B, V, R = 8, 60, 4
        samples = 400
        vals = []
        for s in range(samples):
            placement = sample_random_replication(B, V, R, seed=s)
            vals.append(float(placement.alpha_per_server[0]))
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / np.sqrt(samples)
        assert abs(vals.mean() - R / B) <= 3 * se + 1e-12

    def test_duplicate_probability_exceeds_bound(self):
        # frequency of a fragment doubling up on a server vs the closed-form
        # floor 1 - exp(-alpha(R-1)/2) at alpha = 1/4
        from fragsched import duplicate_prob_lb

        B, V, R = 20, 50, 5
        n = 300
        hits = total = 0
        for s in range(n):
            placement = sample_random_replication(B, V, R, seed=s)
            for v in range(1, V + 1):
                hits += placement.has_duplicate(v)
                total += 1
        freq = hits / total
        bound = duplicate_prob_lb(0.25, 5)
        assert bound == pytest.approx(1 - np.exp(-0.5))
        se = np.sqrt(freq * (1 - freq) / total)
        assert freq >= bound - 3 * se


class TestRandomMds:
    def test_forced_single_server(self):
        placement = sample_random_mds(1, 2, 3, seed=0)
        assert set(placement.chi) == {1}
        assert len(placement.chi) == 6

    def test_distinct_server_mean(self):
        # E[#servers used] = 2 * (1 - (1/2)^4) = 15/8 for B=2, V=2, R=2
        n = 4000
        used = [len(set(sample_random_mds(2, 2, 2, seed=9, index=i).chi)) for i in range(n)]
        used = np.asarray(used, dtype=float)
        se = used.std(ddof=1) / np.sqrt(n)
        assert abs(used.mean() - 15 / 8) <= 3 * se

    def test_replay_identical(self):
        assert sample_random_mds(5, 4, 3, seed=7).chi == sample_random_mds(5, 4, 3, seed=7).chi


class TestPlacementFields:
    """A placement's per-server fields are sized by B: a B whose fields
    cannot fit in physical memory is refused before they are built, and
    every server id must be an integer in [1, B]."""

    @pytest.mark.parametrize("sample", [sample_random_replication, sample_random_mds])
    def test_largest_drawable_B_is_refused_quickly(self, sample):
        start = time.perf_counter()
        with pytest.raises(InvalidParams, match=r"B=4294967295: .*\(549,755,813,760 bytes\)"):
            sample(2**32 - 1, 3, 2, seed=1)
        assert time.perf_counter() - start < 1.0

    def test_refusal_reads_physical_memory(self, monkeypatch):
        machine = {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr("os.sysconf", machine.__getitem__)
        with pytest.raises(InvalidParams, match=r"B=40000: .* physical memory"):
            sample_random_mds(40_000, 3, 2, seed=1)
        assert len(sample_random_mds(30_000, 3, 2, seed=1).alpha_per_server) == 30_000

    @pytest.mark.parametrize("ids, match", [
        ((0, 1, 2, 3, 1, 1), "server id 0 outside"),
        ((1, 2, 3, 4, 5, 7), "server id 7 outside"),
        ((1.0,) * 6, "integers"),
        ((2**70,) + (1,) * 5, "integers"),
    ])
    def test_ids_outside_the_servers_are_refused(self, ids, match):
        with pytest.raises(InvalidParams, match=match):
            MdsPlacement(B=6, V=3, R=2, chi=ids)
        with pytest.raises(InvalidParams, match=match):
            ReplicationPlacement(B=6, V=3, R=2, theta=(ids[:2], ids[2:4], ids[4:]))

    def test_alpha_counts_each_servers_replicas(self):
        mds = MdsPlacement(B=6, V=3, R=2, chi=(1, 2, 2, 6, 6, 6))
        assert mds.alpha_per_server == tuple(Fraction(c, 3) for c in (1, 2, 0, 0, 0, 3))
        rep = ReplicationPlacement(B=4, V=2, R=2, theta=((1, 1), (4, 2)))
        assert rep.alpha_per_server == tuple(Fraction(c, 2) for c in (2, 1, 0, 1))
        assert rep.occupancy == (frozenset({1}), frozenset({2, 4}))
