from fractions import Fraction

import numpy as np
import pytest

from fragsched import (
    ensemble_monte_carlo,
    large_storage_scheme,
    random_mds_expected,
    random_rep_expected,
    sample_random_mds,
    sample_random_replication,
    simulate_ensemble_profile,
)
from fragsched import engine
from fragsched.engine import FRAGMENT_UNIFORM, SERVER_UNIFORM
from fragsched.errors import InvalidParams
from fragsched.rng import stream
from oracles import mds_exact_second_step, profile_tolerance


class TestSimulateEnsembleProfile:
    def test_single_fragment_both_modes(self):
        placement = sample_random_replication(2, 1, 1, seed=4)
        for mode in (SERVER_UNIFORM, FRAGMENT_UNIFORM):
            profile = simulate_ensemble_profile(placement, mode, stream(1, 9, 0))
            assert profile.tolist() == [1]

    def test_profile_lengths(self):
        rep = sample_random_replication(5, 8, 3, seed=1)
        mds = sample_random_mds(5, 8, 3, seed=1)
        for placement in (rep, mds):
            profile = simulate_ensemble_profile(placement, FRAGMENT_UNIFORM, stream(2, 9, 0))
            assert len(profile) == 8
            assert profile[0] <= 5

    def test_large_storage_placement_keeps_all_servers(self):
        placement = large_storage_scheme(4, 3, 8)
        for mode in (SERVER_UNIFORM, FRAGMENT_UNIFORM):
            for idx in range(200):
                profile = simulate_ensemble_profile(placement, mode, stream(3, 9, idx))
                assert np.all(profile == 3)

    def test_deterministic_given_stream(self):
        placement = sample_random_mds(4, 5, 2, seed=6)
        a = simulate_ensemble_profile(placement, SERVER_UNIFORM, stream(8, 9, 1))
        b = simulate_ensemble_profile(placement, SERVER_UNIFORM, stream(8, 9, 1))
        assert np.array_equal(a, b)


class TestModeGap:
    def test_exhaustive_second_step_values(self):
        # all 16 placements of 4 coded fragments on 2 servers, exactly
        assert mds_exact_second_step(2, 2, 2, "fragment") == Fraction(7, 4)
        assert mds_exact_second_step(2, 2, 2, "server") == Fraction(13, 8)

    @pytest.mark.parametrize(
        "mode,expected", [(FRAGMENT_UNIFORM, 1.75), (SERVER_UNIFORM, 1.625)]
    )
    def test_monte_carlo_matches_enumeration(self, mode, expected):
        s = ensemble_monte_carlo(2, 2, 2, "mds", mode, samples=40000, seed=13)
        se = s.se_profile[1]
        assert abs(s.mean_profile[1] - expected) <= 3 * se


class TestClosedFormAgreement:
    def test_replication_per_ell_and_aggregate(self):
        B, V, R = 20, 50, 5
        mc = ensemble_monte_carlo(B, V, R, "rep", FRAGMENT_UNIFORM, samples=4000,
                                  seed=17, threads=2)
        want = random_rep_expected(B, V, R)
        diff = np.abs(mc.mean_profile - want.per_ell)
        assert np.all(diff <= profile_tolerance(mc.se_profile, want.per_ell, B, 4000))
        assert mc.normalized_aggregate == pytest.approx(want.aggregate, rel=0.005)

    def test_mds_per_ell_and_aggregate(self):
        B, V, R = 20, 50, 5
        mc = ensemble_monte_carlo(B, V, R, "mds", FRAGMENT_UNIFORM, samples=4000,
                                  seed=19, threads=2)
        want = random_mds_expected(B, V, R)
        diff = np.abs(mc.mean_profile - want.per_ell)
        assert np.all(diff <= profile_tolerance(mc.se_profile, want.per_ell, B, 4000))
        assert mc.normalized_aggregate == pytest.approx(want.aggregate, rel=0.005)

    def test_duplicate_frequency_reported(self):
        mc = ensemble_monte_carlo(20, 50, 5, "rep", FRAGMENT_UNIFORM, samples=500, seed=23)
        # true per-fragment duplicate probability: 1 - prod_{r<5}(1 - r/20)
        truth = 1.0 - np.prod([1 - r / 20 for r in range(1, 5)])
        assert mc.duplicate_frequency == pytest.approx(truth, abs=0.02)
        mds = ensemble_monte_carlo(3, 4, 2, "mds", FRAGMENT_UNIFORM, samples=50, seed=2)
        assert mds.duplicate_frequency is None


class TestEnsembleDeterminism:
    def test_threads_do_not_change_results(self):
        a = ensemble_monte_carlo(6, 12, 3, "rep", SERVER_UNIFORM, samples=600, seed=3, threads=1)
        b = ensemble_monte_carlo(6, 12, 3, "rep", SERVER_UNIFORM, samples=600, seed=3, threads=2)
        assert np.array_equal(a.mean_profile, b.mean_profile)
        assert a.duplicate_frequency == b.duplicate_frequency

    def test_seed_replay_bit_identical(self):
        a = ensemble_monte_carlo(6, 12, 3, "mds", FRAGMENT_UNIFORM, samples=300, seed=5)
        b = ensemble_monte_carlo(6, 12, 3, "mds", FRAGMENT_UNIFORM, samples=300, seed=5)
        assert np.array_equal(a.mean_profile, b.mean_profile)
        assert np.array_equal(a.se_profile, b.se_profile)


class TestEnsembleArguments:
    @pytest.mark.parametrize("B,V,R,mode", [
        (0, 4, 2, SERVER_UNIFORM), (3, 0, 2, FRAGMENT_UNIFORM), (3, 4, 0, SERVER_UNIFORM),
        (-1, 4, 2, FRAGMENT_UNIFORM), (3, 4, 2, "bogus"),
    ])
    @pytest.mark.parametrize("kind", ["rep", "mds"])
    def test_rejected_before_any_task(self, B, V, R, mode, kind, monkeypatch):
        def no_tasks(*args):
            raise AssertionError("tasks started")

        monkeypatch.setattr(engine, "_run_tasks", no_tasks)
        with pytest.raises(InvalidParams):
            ensemble_monte_carlo(B, V, R, kind, mode, samples=10, seed=1, threads=2)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads, monkeypatch):
        def no_chunks(args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(engine, "_ensemble_chunk", no_chunks)
        with pytest.raises(InvalidParams, match="threads must be >= 1"):
            ensemble_monte_carlo(3, 4, 2, "rep", SERVER_UNIFORM, samples=10, seed=1,
                                 threads=threads)

    def test_profile_rejects_unknown_mode(self):
        placement = sample_random_mds(3, 4, 2, seed=1)
        with pytest.raises(InvalidParams, match="order mode"):
            simulate_ensemble_profile(placement, "bogus", stream(1, 9, 0))
