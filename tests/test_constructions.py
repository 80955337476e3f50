import itertools
import time

import numpy as np
import pytest

from fragsched import (
    SystemParams,
    affine_plane,
    conservation_check,
    cyclic_shift,
    duplicate_prob_lb,
    ensemble_monte_carlo,
    large_storage_scheme,
    overlap_profile,
    projective_plane,
    sample_random_mds,
    scheme_to_design,
    verify_t_design,
)
from fragsched.constructions import placement_servers
from fragsched.engine import FRAGMENT_UNIFORM
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
    """Large storage (K >= V) is the distinct-replica scheme: every fragment
    on every server once, so R = B and K = V."""

    def test_equal_capacity(self):
        scheme = large_storage_scheme(2, 2, 2)
        assert (scheme.params.R, scheme.params.K) == (2, 2)
        assert all(occ == {1, 2} for occ in scheme.occupancy)

    def test_double_capacity(self):
        # K = 2V fills each server with two replicas of every fragment; the
        # second changes no download, so the scheme is K = V's
        assert large_storage_scheme(2, 2, 4) == large_storage_scheme(2, 2, 2)

    def test_every_fragment_everywhere(self):
        scheme = large_storage_scheme(3, 4, 6, mu=2.5)
        assert scheme.params == SystemParams(B=4, V=3, R=4, K=3, mu=2.5,
                                             completely_utilizing=True)
        for occ in scheme.occupancy:
            assert occ == frozenset(range(1, 5))

    def test_capacity_far_past_the_file_is_linear_in_B_and_V(self):
        # the scheme takes O(B*V), not the B*K slots of the placement
        start = time.perf_counter()
        scheme = large_storage_scheme(2, 2, 10**12)
        assert time.perf_counter() - start < 1.0
        assert (scheme.params.R, scheme.params.K) == (2, 2)

    def test_all_servers_useful_all_orders(self):
        # exhaustively: any download order keeps all B servers useful
        for V, B, K in ((2, 2, 2), (2, 2, 4), (3, 2, 3), (4, 3, 4)):
            if (B * K) % V:
                continue
            scheme = large_storage_scheme(V, B, K)
            for order in itertools.permutations(range(1, V + 1)):
                remaining = [set(fs) for fs in scheme.fragment_sets]
                for ell, v in enumerate(order):
                    useful = sum(1 for r in remaining if r)
                    assert useful == B, (V, B, K, order, ell)
                    for r in remaining:
                        r.discard(v)

    @pytest.mark.parametrize("V, B, K", [(0, 2, 3), (3, 0, 3), (3, 2, 0), (-1, 2, 3), (3, -2, 3)])
    def test_non_positive_sizes_rejected(self, V, B, K):
        # V = 0 divided by zero in the capacity check, and B = 0 gave a
        # placement with no servers
        with pytest.raises(InvalidParams, match="V, B and K must be positive"):
            large_storage_scheme(V, B, K)

    def test_capacity_mismatch(self):
        with pytest.raises(CapacityMismatch):
            large_storage_scheme(3, 2, 2)
        with pytest.raises(CapacityMismatch):
            large_storage_scheme(4, 3, 5)


class TestRandomReplication:
    """Replication placements as the ensembles draw them: row v of a
    sample's ``placement_servers`` holds the 0-based servers of fragment v's
    R replicas."""

    def test_forced_single_server(self):
        servers = placement_servers(0, range(1), 1, 3, 4)
        assert servers.shape == (1, 3, 4)
        assert not servers.any()

    def test_replay_identical(self):
        a = placement_servers(123, range(1), 20, 50, 5)
        assert np.array_equal(a, placement_servers(123, range(1), 20, 50, 5))
        assert not np.array_equal(a, placement_servers(124, range(1), 20, 50, 5))

    def test_replica_budget(self):
        servers = placement_servers(2, range(1), 6, 9, 4)[0]
        assert servers.shape == (9, 4)
        assert servers.min() >= 0 and servers.max() < 6

    def test_alpha_converges_statistically(self):
        # alpha_b = (1/V) * #replicas on server b; its mean over many
        # samples approaches R/B within 3 SE
        B, V, R = 8, 60, 4
        samples = 400
        servers = placement_servers(0, range(samples), B, V, R)
        vals = (servers == 0).sum(axis=(1, 2)) / V
        se = vals.std(ddof=1) / np.sqrt(samples)
        assert abs(vals.mean() - R / B) <= 3 * se + 1e-12

    def test_duplicate_probability_exceeds_bound(self):
        # frequency of a fragment doubling up on a server, as the ensemble
        # reports it, vs the closed-form floor 1 - exp(-alpha(R-1)/2) at
        # alpha = 1/4
        B, V, R = 20, 50, 5
        n = 300
        freq = ensemble_monte_carlo(B, V, R, "rep", FRAGMENT_UNIFORM, n, seed=0).duplicate_frequency
        bound = duplicate_prob_lb(0.25, 5)
        assert bound == pytest.approx(1 - np.exp(-0.5))
        se = np.sqrt(freq * (1 - freq) / (n * V))
        assert freq >= bound - 3 * se


class TestRandomMds:
    """The one-sample draw ``sample_random_mds``: sample ``index``'s
    ``placement_servers``, flat, one 0-based server per coded fragment."""

    def test_forced_single_server(self):
        servers = sample_random_mds(1, 2, 3, seed=0)
        assert servers.shape == (6,)
        assert not servers.any()

    def test_distinct_server_mean(self):
        # E[#servers used] = 2 * (1 - (1/2)^4) = 15/8 for B=2, V=2, R=2
        n = 4000
        used = [len(set(sample_random_mds(2, 2, 2, seed=9, index=i).tolist())) for i in range(n)]
        used = np.asarray(used, dtype=float)
        se = used.std(ddof=1) / np.sqrt(n)
        assert abs(used.mean() - 15 / 8) <= 3 * se

    def test_replay_identical(self):
        a = sample_random_mds(5, 4, 3, seed=7, index=3)
        assert np.array_equal(a, sample_random_mds(5, 4, 3, seed=7, index=3))
        assert np.array_equal(a, placement_servers(7, range(3, 4), 5, 4, 3).reshape(-1))
