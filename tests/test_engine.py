import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from fragsched import (
    MdpPolicy,
    NonadaptivePolicy,
    RandomWorkConserving,
    RankedPolicy,
    SimulationConfig,
    bound_envelope,
    build_scheme,
    cyclic_shift,
    exact_mean_download,
    mdp_solve,
    mean_download_lower_bound,
    monte_carlo,
    policy_evaluate_exact,
    pushback,
    run_stream,
    simulate_run,
    simulate_run_clocks,
    smallest_index_first,
    uniform_diversity,
)
from fragsched import affine_plane, engine, projective_plane
from fragsched.errors import EmptyProfile, InvalidParams, InvalidRate, TooManyFragments
from test_kernel import IRREGULAR, make_policy

NON_FINITE = [float("nan"), float("inf"), float("-inf")]

# server fragment sets: six servers of three, every fragment on three servers
SIX_SERVERS = [{1, 2, 3}, {2, 3, 4}, {4, 5, 6}, {1, 5, 6}, {1, 3, 5}, {2, 4, 6}]


class TestSimulateRun:
    def test_trajectory_shape(self, fano):
        rec = simulate_run(fano, RandomWorkConserving(), 1.0, run_stream(1, 0))
        assert len(rec.download_instants) == 8
        assert rec.download_instants[0] == 0.0
        assert sorted(rec.fragment_order) == list(range(1, 8))
        assert rec.useful_profile[0] == fano.params.B

    @pytest.mark.parametrize("simulate", [simulate_run, simulate_run_clocks])
    @pytest.mark.parametrize("mu", [-1.0, float("nan"), float("inf"), 0.0])
    def test_bad_rate_rejected(self, fano, simulate, mu):
        # unchecked, -1 gave negative instants, nan and inf nan and zero
        # instants, and 0 inf with a warning (clock mode: ZeroDivisionError)
        with pytest.raises(InvalidRate, match="mu must be positive and finite"):
            simulate(fano, RandomWorkConserving(), mu, run_stream(1, 0))

    def test_instants_strictly_increase(self, fano):
        for r in range(50):
            rec = simulate_run(fano, RandomWorkConserving(), 1.0, run_stream(2, r))
            d = rec.download_instants
            assert all(b > a for a, b in zip(d, d[1:]))

    def test_same_stream_same_trajectory(self, fano):
        a = simulate_run(fano, RandomWorkConserving(), 1.0, run_stream(9, 4))
        b = simulate_run(fano, RandomWorkConserving(), 1.0, run_stream(9, 4))
        assert a == b

    def test_single_fragment_mean(self):
        # D_1 is the minimum of B exponentials: mean 1/(B*mu)
        scheme = build_scheme([{1, 2, 3, 4}])
        mu = 2.0
        times = [
            simulate_run(scheme, RandomWorkConserving(), mu, run_stream(3, r)).download_instants[-1]
            for r in range(20000)
        ]
        times = np.asarray(times)
        se = times.std(ddof=1) / math.sqrt(len(times))
        assert abs(times.mean() - 1 / (4 * mu)) <= 3 * se

    def test_all_policies_reach_full_download(self, fano):
        policies = [
            RandomWorkConserving(),
            NonadaptivePolicy(smallest_index_first(fano)),
            NonadaptivePolicy(pushback(uniform_diversity(fano), fano, 1)),
            RankedPolicy(rank="greedy", tie="low"),
            RankedPolicy(rank="harmonic", tie="seeded"),
            RankedPolicy(rank="harmonic", tie="low", init_order=uniform_diversity(fano)),
            MdpPolicy(mdp_solve(fano)),
        ]
        for pol in policies:
            for r in range(30):
                rec = simulate_run(fano, pol, 1.0, run_stream(12, r))
                assert sorted(rec.fragment_order) == list(range(1, 8))
                assert rec.useful_profile[-1] == fano.params.R

    def test_harmonic_trajectories_respect_design_bound(self, fano):
        lower = bound_envelope(fano).lower
        pol = RankedPolicy(rank="harmonic", tie="low")
        for r in range(400):
            rec = simulate_run(fano, pol, 1.0, run_stream(21, r))
            assert np.all(np.asarray(rec.useful_profile) >= lower)


# sha256 of a jump-chain summary at mu = 1 and master seed 2026: the repr of
# (mean_download_time, stderr), then the bytes of mean_profile, min_profile
# and max_profile. pp11's row is the table's pp/harmonic-ud.
JUMP_CHAIN_RUNS = {
    "pp2-random": (lambda: projective_plane(2), "random", 600),
    "pp2-harmonic-seeded": (lambda: projective_plane(2), "harmonic-seeded", 600),
    "cyclic123-ud": (lambda: cyclic_shift(12, 3), "ud", 600),
    "pp11-harmonic-ud": (lambda: projective_plane(11), "harmonic-init", 256),
}
JUMP_CHAIN_PINS = {
    "pp2-random": "98873395bf75b105dfd9f30e5382e31984fe74bde9ca66a2ec0fbb6b01590510",
    "pp2-harmonic-seeded": "1c9b1518fd13aec09a9f7936a3668a805704d22b7fad003a0e435f44503f1bb9",
    "cyclic123-ud": "236082ebdeaa248ed68c372388a00abd744a73c4beb1f7fa5f1f52c19e934b61",
    "pp11-harmonic-ud": "1d55c856e873f46eed2b8a06c559e2573b9dcd3043139fbfc65fd67b4ea698a8",
}


class TestMonteCarlo:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", JUMP_CHAIN_PINS)
    def test_summaries_pinned(self, name, threads):
        """Jump-chain summaries at fixed seeds, pinned as a SHA-256, so a
        change to a stream, a draw or a decision cannot pass the
        kernel-vs-oracle tests by changing both sides alike."""
        make_scheme, kind, runs = JUMP_CHAIN_RUNS[name]
        scheme = make_scheme()
        cfg = SimulationConfig(scheme=scheme, policy=make_policy(scheme, kind), mu=1.0,
                               runs=runs, master_seed=2026)
        s = monte_carlo(cfg, threads=threads)
        digest = hashlib.sha256(repr((s.mean_download_time, s.stderr)).encode())
        for profile in (s.mean_profile, s.min_profile, s.max_profile):
            digest.update(profile.tobytes())
        assert digest.hexdigest() == JUMP_CHAIN_PINS[name]

    def test_threads_do_not_change_results(self, fano):
        cfg = SimulationConfig(scheme=fano, policy=RandomWorkConserving(), mu=1.0,
                               runs=3000, master_seed=5)
        s1 = monte_carlo(cfg, threads=1)
        s2 = monte_carlo(cfg, threads=2)
        assert s1.mean_download_time == s2.mean_download_time
        assert np.array_equal(s1.mean_profile, s2.mean_profile)
        assert s1.max_trajectory_aggregate == s2.max_trajectory_aggregate

    @pytest.mark.parametrize("runs", [257, 513])
    @pytest.mark.parametrize("threads", [2, 3])
    def test_split_past_a_batch_keeps_every_field(self, cyclic73, runs, threads):
        # 257 runs split 129 + 128 at two workers and 86 + 86 + 85 at three,
        # 513 split 171 x 3 at both: task edges away from the batch edges
        cfg = SimulationConfig(scheme=cyclic73, policy=RankedPolicy(rank="harmonic", tie="seeded"),
                               mu=1.0, runs=runs, master_seed=9)
        one, many = monte_carlo(cfg, threads=1), monte_carlo(cfg, threads=threads)
        for field in dataclasses.fields(one):
            a, b = getattr(one, field.name), getattr(many, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            else:
                assert a == b, field.name

    def test_seed_changes_results(self, fano):
        base = dict(scheme=fano, policy=RandomWorkConserving(), mu=1.0, runs=500)
        a = monte_carlo(SimulationConfig(master_seed=1, **base))
        b = monte_carlo(SimulationConfig(master_seed=2, **base))
        assert a.mean_download_time != b.mean_download_time

    def test_single_run_flags_ci(self, fano):
        cfg = SimulationConfig(scheme=fano, policy=RandomWorkConserving(), mu=1.0,
                               runs=1, master_seed=0)
        s = monte_carlo(cfg)
        assert s.stderr is None and s.ci95 is None and not s.ci_reliable

    def test_ci_widens_as_runs_shrink(self, fano):
        widths = []
        for runs in (4000, 500, 60):
            cfg = SimulationConfig(scheme=fano, policy=RandomWorkConserving(), mu=1.0,
                                   runs=runs, master_seed=3)
            s = monte_carlo(cfg)
            widths.append(s.ci95[1] - s.ci95[0])
        assert widths[0] < widths[1] < widths[2]

    def test_normalized_aggregate_in_unit_interval(self, fano, cyclic73):
        for scheme in (fano, cyclic73):
            cfg = SimulationConfig(scheme=scheme, policy=RandomWorkConserving(), mu=1.0,
                                   runs=2000, master_seed=8)
            s = monte_carlo(cfg)
            assert 0.0 <= s.normalized_aggregate <= 1.0
            assert s.max_trajectory_aggregate <= scheme.B * scheme.V

    @pytest.mark.parametrize("mu", NON_FINITE)
    def test_non_finite_rate_rejected(self, fano, mu):
        with pytest.raises(InvalidParams, match="mu must be positive and finite"):
            SimulationConfig(scheme=fano, policy=RandomWorkConserving(), mu=mu, runs=10,
                             master_seed=1)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, fano, threads, monkeypatch):
        def no_chunks(args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(engine, "_simulate_chunk", no_chunks)
        cfg = SimulationConfig(scheme=fano, policy=RandomWorkConserving(), mu=1.0, runs=10,
                               master_seed=1)
        with pytest.raises(InvalidParams, match="threads must be >= 1"):
            monte_carlo(cfg, threads=threads)


def _policy_matrix(fano, cyclic73, ring4):
    return [
        (fano, RandomWorkConserving()),
        (fano, RankedPolicy(rank="harmonic", tie="low")),
        (fano, MdpPolicy(mdp_solve(fano))),
        (ring4, RandomWorkConserving()),
        (cyclic73, NonadaptivePolicy(pushback(uniform_diversity(cyclic73), cyclic73, 1))),
        (cyclic73, RankedPolicy(rank="greedy", tie="seeded")),
    ]


class TestExactVsMonteCarlo:
    def test_exact_mean_inside_99ci(self, fano, cyclic73, ring4):
        for scheme, policy in _policy_matrix(fano, cyclic73, ring4):
            cfg = SimulationConfig(scheme=scheme, policy=policy, mu=1.0,
                                   runs=100000, master_seed=31)
            s = monte_carlo(cfg, threads=2)
            exact = float(exact_mean_download(scheme, policy, 1.0).mean)
            half = 2.576 * s.stderr
            assert abs(s.mean_download_time - exact) <= half, (scheme.params, policy)

    def test_exact_profile_matches_mc(self, fano):
        policy = RankedPolicy(rank="harmonic", tie="low")
        cfg = SimulationConfig(scheme=fano, policy=policy, mu=1.0, runs=100000,
                               master_seed=77)
        s = monte_carlo(cfg, threads=2)
        ev = policy_evaluate_exact(fano, policy)
        got = np.asarray([float(x) for x in ev.per_ell_useful])
        assert np.max(np.abs(got - s.mean_profile)) < 0.02


CLOCK_KINDS = ["random", "sif", "ud+pushback", "greedy-low", "greedy-seeded", "greedy-init",
               "harmonic-low", "harmonic-seeded", "harmonic-init", "mdp"]
CLOCK_SCHEMES = {
    "pp2": lambda: (projective_plane(2), CLOCK_KINDS),
    "cyclic73": lambda: (cyclic_shift(7, 3), CLOCK_KINDS),
    "affine3": lambda: (affine_plane(3), CLOCK_KINDS),
    "irregular": lambda: (build_scheme(IRREGULAR, mu=1.0, B=6), CLOCK_KINDS),
    "pp11": lambda: (projective_plane(11), ["harmonic-init", "greedy-seeded"]),
}
CLOCK_PINS = {
    "pp2": "e24b9f699eda87ec2cb7c6b2d75d801a4396c301f670b6cd16d1dd7eb08ea06f",
    "cyclic73": "e60b5c3fca70a9efacce05f11b070260e39e5704e650b756166f0e3c3fc7383a",
    "affine3": "7d6f5c69167e82eeff0c5159c3e0d4d1a0f83bb79ec7f543749ce38832b843dd",
    "irregular": "09afc3b2adca677b6ff842f753455ac6572098773424a2ae0d733dadbb63bbce",
    "pp11": "a22bcb10b1e16ca26e3fd6b756a6e214eff3b04227551871a27922532c93ed02",
}


class TestClockModeEquivalence:
    def test_clock_and_jump_chain_agree(self, fano):
        # same physical system, two samplers: means agree within 3 sigma
        policy = RandomWorkConserving()
        runs = 100000
        cfg = SimulationConfig(scheme=fano, policy=policy, mu=1.0, runs=runs,
                               master_seed=41)
        jump = monte_carlo(cfg, threads=2)
        times = np.empty(runs)
        for r in range(runs):
            rec = simulate_run_clocks(fano, policy, 1.0, run_stream(42, r))
            times[r] = rec.download_instants[-1]
        se = math.hypot(jump.stderr, times.std(ddof=1) / math.sqrt(runs))
        assert abs(times.mean() - jump.mean_download_time) <= 3 * se

    @pytest.mark.parametrize("kind", ["harmonic", "greedy", "mdp"])
    def test_clock_profile_matches_exact_under_adaptive_policies(self, kind):
        # adaptive decisions go stale as other fragments arrive, so a clock
        # sampler that decides only when a server starts drifts from the DP
        scheme = build_scheme(
            [{b for b, s in enumerate(SIX_SERVERS, start=1) if v in s} for v in range(1, 7)])
        policy = MdpPolicy(mdp_solve(scheme)) if kind == "mdp" else RankedPolicy(rank=kind)
        runs = 4000
        profiles = np.array([simulate_run_clocks(scheme, policy, 1.0, run_stream(9, r)).useful_profile
                             for r in range(runs)])
        exact = np.array([float(x) for x in policy_evaluate_exact(scheme, policy).per_ell_useful])
        se = profiles.std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(profiles.mean(axis=0) - exact) <= 4 * se)

    @pytest.mark.parametrize("name", CLOCK_PINS)
    def test_clock_mode_records_pinned(self, name):
        """Clock-mode trajectories at fixed run streams, pinned as a SHA-256
        of the ``repr`` of their records, so a change to how the validator
        reads its decisions cannot move a fragment, a draw or the last bit of
        an instant unnoticed. Every policy kind runs on the small schemes
        (the MDP where V <= 12); pp11 (V = 133) runs past the 62 fragments an
        int64 mask holds."""
        scheme, kinds = CLOCK_SCHEMES[name]()
        records = [simulate_run_clocks(scheme, make_policy(scheme, kind), 0.7, run_stream(2026, r))
                   for kind in kinds for r in range(3 if scheme.V <= 12 else 1)]
        assert hashlib.sha256(repr(records).encode()).hexdigest() == CLOCK_PINS[name]

    def test_clock_mode_trajectory_sanity(self, fano):
        rec = simulate_run_clocks(fano, NonadaptivePolicy(smallest_index_first(fano)),
                                  1.0, run_stream(4, 0))
        assert sorted(rec.fragment_order) == list(range(1, 8))
        d = rec.download_instants
        assert all(b > a for a, b in zip(d, d[1:]))


class TestExactMeanDownload:
    def test_ring_and_paired_exact_values(self, ring4, paired4):
        a = exact_mean_download(ring4, RandomWorkConserving(), 1.0)
        b = exact_mean_download(paired4, RandomWorkConserving(), 1.0)
        assert a.exact and b.exact
        assert a.mean == Fraction(21, 16)
        assert b.mean == Fraction(11, 8)

    def test_single_fragment_closed_form(self):
        scheme = build_scheme([{1, 2, 3}])
        res = exact_mean_download(scheme, RandomWorkConserving(), 4.0)
        assert res.mean == Fraction(1, 12)

    def test_float_mode_close_to_exact(self, fano):
        pol = RankedPolicy(rank="harmonic", tie="low")
        exact = exact_mean_download(fano, pol, 1.0, exact=True)
        approx = exact_mean_download(fano, pol, 1.0, exact=False)
        assert not approx.exact
        assert float(exact.mean) == pytest.approx(approx.mean, rel=1e-12)

    def test_mu_scaling(self, ring4):
        slow = exact_mean_download(ring4, RandomWorkConserving(), 1.0)
        fast = exact_mean_download(ring4, RandomWorkConserving(), 2.0)
        assert float(slow.mean) == pytest.approx(2 * float(fast.mean))

    def test_cap(self):
        with pytest.raises(TooManyFragments):
            exact_mean_download(cyclic_shift(25, 2), RandomWorkConserving(), 1.0)

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("mu", NON_FINITE)
    def test_non_finite_rate_rejected(self, pp2, mu, exact):
        with pytest.raises(InvalidParams, match="mu must be positive and finite"):
            exact_mean_download(pp2, RandomWorkConserving(), mu, exact=exact)


class TestJensenBound:
    def test_constant_profile_equality(self):
        # N identically B: bound V/(B*mu) equals the exact mean
        B, V, mu = 5, 6, 2.0
        bound = mean_download_lower_bound([B] * V, mu)
        assert bound == pytest.approx(V / (B * mu))

    def test_ring_bound_below_exact(self, ring4):
        ev = policy_evaluate_exact(ring4, RandomWorkConserving())
        bound = mean_download_lower_bound([float(x) for x in ev.per_ell_useful], 1.0)
        assert bound <= 21 / 16

    def test_bound_below_simulated_mean(self, cyclic73):
        # Jensen bound from the simulated profile never exceeds the simulated
        # mean beyond noise
        policy = RankedPolicy(rank="harmonic", tie="low")
        cfg = SimulationConfig(scheme=cyclic73, policy=policy, mu=1.0, runs=4000,
                               master_seed=55)
        s = monte_carlo(cfg)
        bound = mean_download_lower_bound(s.mean_profile, 1.0)
        assert bound <= s.mean_download_time + 3 * s.stderr

    @pytest.mark.parametrize("mu", NON_FINITE + [0.0])
    def test_non_finite_rate_rejected(self, mu):
        with pytest.raises(InvalidParams, match="mu must be positive and finite"):
            mean_download_lower_bound([3, 2, 1], mu)

    def test_empty_profile_rejected(self):
        with pytest.raises(EmptyProfile):
            mean_download_lower_bound([], 1.0)
        with pytest.raises(EmptyProfile):
            mean_download_lower_bound([3, 0, 2], 1.0)
