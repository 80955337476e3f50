"""Acceptance battery: every criterion as one test with a printed verdict.

Monte Carlo cells use fixed master seeds; tolerances are pinned in this file
and nowhere else. Brute-force oracles come from tests/oracles.py and never
share code with the engine paths they check.
"""

import itertools
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from fragsched import (
    MdpPolicy,
    NonadaptivePolicy,
    RandomWorkConserving,
    RankedPolicy,
    SimulationConfig,
    affine_plane,
    bound_envelope,
    build_scheme,
    conservation_check,
    cyclic_shift,
    ensemble_monte_carlo,
    exact_mean_download,
    large_storage_scheme,
    mdp_solve,
    monte_carlo,
    policy_evaluate_exact,
    projective_plane,
    pushback,
    random_mds_expected,
    random_rep_expected,
    scheme_to_design,
    smallest_index_first,
    uniform_diversity,
    verify_t_design,
)
from fragsched.engine import FRAGMENT_UNIFORM, SERVER_UNIFORM
from fragsched.rng import stream
from oracles import grouped_mean_time, mds_exact_second_step, profile_tolerance
from test_ensemble_kernel import kernel_profile, large_storage_servers

from conftest import FANO_OCCUPANCY, PAIRED_OCCUPANCY, RING_OCCUPANCY

THREADS = max(1, os.cpu_count() or 1)
SEED = 20260809


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# ---------------------------------------------------------------------------


def test_exact_four_fragment_means(ring4, paired4):
    """Exact rational means of the two 4-fragment layouts, against the
    completion-sequence enumeration oracle."""
    t0 = time.perf_counter()
    got_ring = exact_mean_download(ring4, RandomWorkConserving(), 1.0, exact=True).mean
    got_paired = exact_mean_download(paired4, RandomWorkConserving(), 1.0, exact=True).mean
    oracle_ring = grouped_mean_time([set(s) for s in ring4.fragment_sets], 4)
    oracle_paired = grouped_mean_time([set(s) for s in paired4.fragment_sets], 4)
    elapsed = time.perf_counter() - t0
    ok = (
        got_ring == Fraction(21, 16) == oracle_ring
        and got_paired == Fraction(11, 8) == oracle_paired
        and elapsed < 1.0
    )
    report(
        "exact-4-fragment-means",
        ok,
        f"ring={got_ring} (oracle {oracle_ring}), paired={got_paired} "
        f"(oracle {oracle_paired}), {elapsed:.3f}s",
    )
    assert got_ring == Fraction(21, 16) and oracle_ring == Fraction(21, 16)
    assert got_paired == Fraction(11, 8) and oracle_paired == Fraction(11, 8)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------

TABLE_RUNS = 10_000
TABLE_TOL = 0.015
TABLE_TARGETS = {
    "pp/ud+pushback": 121678.81,
    "pp/sif": 122378.76,
    "pp/harmonic-ud": 120886.04,
    "cyclic/ud": 139629.39,
}


def test_download_time_table():
    """Order-11 projective plane and 133-cyclic at mu=1e-5: four reference
    means within 1.5 percent, plus the two ordering properties."""
    t0 = time.perf_counter()
    mu = 1e-5
    pp = projective_plane(11, mu=mu)
    cy = cyclic_shift(133, 12, mu=mu)
    ud_pp = uniform_diversity(pp)
    policies = {
        "pp/ud+pushback": (pp, NonadaptivePolicy(pushback(ud_pp, pp, 1))),
        "pp/sif": (pp, NonadaptivePolicy(smallest_index_first(pp))),
        "pp/harmonic-ud": (pp, RankedPolicy(rank="harmonic", tie="low", init_order=ud_pp)),
        "cyclic/ud": (cy, NonadaptivePolicy(uniform_diversity(cy))),
    }
    means = {}
    details = []
    for name, (scheme, policy) in policies.items():
        cfg = SimulationConfig(scheme=scheme, policy=policy, mu=mu,
                               runs=TABLE_RUNS, master_seed=SEED)
        summary = monte_carlo(cfg, threads=THREADS)
        means[name] = summary.mean_download_time
        rel = (summary.mean_download_time - TABLE_TARGETS[name]) / TABLE_TARGETS[name]
        details.append(f"{name}={summary.mean_download_time:.1f} ({rel:+.2%})")
    elapsed = time.perf_counter() - t0
    within = all(
        abs(means[n] - TABLE_TARGETS[n]) <= TABLE_TOL * TABLE_TARGETS[n] for n in means
    )
    design_beats_cyclic = means["pp/ud+pushback"] < means["cyclic/ud"]
    adaptive_improves = means["pp/harmonic-ud"] <= means["pp/ud+pushback"]
    ok = within and design_beats_cyclic and adaptive_improves and elapsed <= 600
    report("download-time-table", ok, "; ".join(details) + f"; {elapsed:.0f}s")
    for name, mean in means.items():
        assert abs(mean - TABLE_TARGETS[name]) <= TABLE_TOL * TABLE_TARGETS[name], name
    assert design_beats_cyclic
    assert adaptive_improves
    assert elapsed <= 600


# ---------------------------------------------------------------------------


def test_ensemble_closed_forms():
    """Fragment-uniform ensembles at B=20, V=50, R=5: per-step means within
    3 standard errors, aggregates within 0.5 percent relative."""
    t0 = time.perf_counter()
    B, V, R = 20, 50, 5
    samples = 10_000
    ok = True
    details = []
    for kind, expected in (
        ("rep", random_rep_expected(B, V, R)),
        ("mds", random_mds_expected(B, V, R)),
    ):
        mc = ensemble_monte_carlo(B, V, R, kind, FRAGMENT_UNIFORM, samples,
                                  seed=SEED, threads=THREADS)
        tol = profile_tolerance(mc.se_profile, expected.per_ell, B, samples)
        worst = float(np.max(np.abs(mc.mean_profile - expected.per_ell) - tol))
        rel = abs(mc.normalized_aggregate - expected.aggregate) / expected.aggregate
        ok &= worst <= 0 and rel <= 0.005
        details.append(f"{kind}: agg rel {rel:.2e}, per-ell slack {worst:+.2e}")
        assert np.all(np.abs(mc.mean_profile - expected.per_ell) <= tol), kind
        assert rel <= 0.005, kind
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    report("ensemble-closed-forms", ok, "; ".join(details) + f"; {elapsed:.0f}s")
    assert elapsed < 60


# ---------------------------------------------------------------------------


def test_mode_gap_regression():
    """A 2x2x2 MDS placement: fragment-uniform downloads keep 1.75 servers
    useful in expectation after one fetch, the physical server-uniform chain
    only 1.625. Exhaustive over all 16 placements, then Monte Carlo."""
    frag = mds_exact_second_step(2, 2, 2, "fragment")
    serv = mds_exact_second_step(2, 2, 2, "server")
    ok = frag == Fraction(7, 4) and serv == Fraction(13, 8)
    for mode, exact in ((FRAGMENT_UNIFORM, 1.75), (SERVER_UNIFORM, 1.625)):
        mc = ensemble_monte_carlo(2, 2, 2, "mds", mode, samples=30_000, seed=SEED)
        assert abs(mc.mean_profile[1] - exact) <= 3 * mc.se_profile[1], mode
    report("mode-gap", ok, f"fragment-uniform={frag}, server-uniform={serv}")
    assert frag == Fraction(7, 4)
    assert serv == Fraction(13, 8)


# ---------------------------------------------------------------------------

ENVELOPE_RUNS = 1_000


def _envelope_matrix():
    mu = 1e-5
    schemes = {
        "pp2": projective_plane(2, mu=mu),
        "pp3": projective_plane(3, mu=mu),
        "pp11": projective_plane(11, mu=mu),
        "cyclic133": cyclic_shift(133, 12, mu=mu),
    }
    cells = []
    for name, scheme in schemes.items():
        sif = smallest_index_first(scheme)
        ud = uniform_diversity(scheme)
        policies = {
            "random": RandomWorkConserving(),
            "sif": NonadaptivePolicy(sif),
            "ud": NonadaptivePolicy(ud),
            "sif+pb": NonadaptivePolicy(pushback(sif, scheme, 1)),
            "ud+pb": NonadaptivePolicy(pushback(ud, scheme, 1)),
            "greedy": RankedPolicy(rank="greedy", tie="low"),
            "harmonic": RankedPolicy(rank="harmonic", tie="low", init_order=ud),
        }
        if scheme.V <= 13:
            policies["mdp"] = MdpPolicy(mdp_solve(scheme))
        for pname, policy in policies.items():
            cells.append((f"{name}/{pname}", scheme, policy))
    return cells


@pytest.fixture(scope="module")
def envelope_summaries():
    out = {}
    for cell, scheme, policy in _envelope_matrix():
        cfg = SimulationConfig(scheme=scheme, policy=policy, mu=scheme.params.mu,
                               runs=ENVELOPE_RUNS, master_seed=SEED)
        out[cell] = (scheme, monte_carlo(cfg, threads=THREADS))
    return out


def test_bound_envelope_profiles(envelope_summaries):
    """Every trajectory of the matrix respects the upper profile and the
    design/general lower profiles at every step, and stays below the
    always-valid profile-sum aggregate ceiling."""
    violations = []
    for cell, (scheme, summary) in envelope_summaries.items():
        env = bound_envelope(scheme)
        if not np.all(summary.min_profile >= env.lower):
            violations.append(f"{cell}: lower profile broken")
        if not np.all(summary.max_profile <= env.upper):
            violations.append(f"{cell}: upper profile broken")
        ceiling = float(env.normalized_sum_upper)
        worst = summary.max_trajectory_aggregate / (scheme.B * scheme.V)
        if worst > ceiling + 1e-12:
            violations.append(f"{cell}: profile-sum ceiling broken ({worst:.4f} > {ceiling:.4f})")
    report(
        "bound-envelope-profiles",
        not violations,
        f"{len(envelope_summaries)} cells x {ENVELOPE_RUNS} runs, "
        + ("zero violations" if not violations else "; ".join(violations)),
    )
    assert not violations


def test_bound_envelope_aggregate_remark(envelope_summaries):
    """The claimed aggregate ceiling 1-(m+1)/(2V) against every trajectory.

    This ceiling is stricter than the profile-sum ceiling and is not
    attainable on small symmetric designs: for the 7-fragment plane every
    download order yields an aggregate of at least 41/49 > 5/7, so the
    criterion fails there by construction. Kept faithful rather than
    weakened; the always-valid ceiling is asserted in the profiles test.
    """
    violations = []
    for cell, (scheme, summary) in envelope_summaries.items():
        remark = float(bound_envelope(scheme).normalized_sum_remark)
        worst = summary.max_trajectory_aggregate / (scheme.B * scheme.V)
        if worst > remark + 1e-12:
            violations.append(f"{cell}: {worst:.4f} > {remark:.4f}")
    report(
        "bound-envelope-aggregate-ceiling",
        not violations,
        "zero violations" if not violations else "; ".join(sorted(violations)[:6]) + " ...",
    )
    assert not violations, (
        "trajectory aggregates exceed the 1-(m+1)/(2V) ceiling; for these "
        "designs the ceiling lies below the minimum attainable aggregate "
        "(7-fragment plane: every order achieves >= 41/49 vs ceiling 5/7)"
    )


# ---------------------------------------------------------------------------


def _v8_schemes():
    return {
        "fano-table": build_scheme(FANO_OCCUPANCY),
        "pp2": projective_plane(2),
        "ring4": build_scheme(RING_OCCUPANCY),
        "paired4": build_scheme(PAIRED_OCCUPANCY),
        "affine2": affine_plane(2),
        "cyclic73": cyclic_shift(7, 3),
        "cyclic52": cyclic_shift(5, 2),
        "cyclic84": cyclic_shift(8, 4),
        "triangle": build_scheme([{1, 2}, {2, 3}, {1, 3}]),
    }


def _all_policies(scheme):
    sif = smallest_index_first(scheme)
    ud = uniform_diversity(scheme)
    return {
        "random": RandomWorkConserving(),
        "sif": NonadaptivePolicy(sif),
        "ud": NonadaptivePolicy(ud),
        "sif+pb": NonadaptivePolicy(pushback(sif, scheme, 1)),
        "ud+pb": NonadaptivePolicy(pushback(ud, scheme, 1)),
        "greedy": RankedPolicy(rank="greedy", tie="low"),
        "harmonic": RankedPolicy(rank="harmonic", tie="low"),
        "harmonic-seeded": RankedPolicy(rank="harmonic", tie="seeded"),
        "harmonic-ud": RankedPolicy(rank="harmonic", tie="low", init_order=ud),
    }


def test_mdp_near_optimality(fano):
    """Backward induction dominates every implemented policy on every scheme
    with at most 8 fragments; the harmonic gap on the 7-fragment plane is
    reported; the value at every (V-2)-subset equals R/V exactly."""
    sol = mdp_solve(fano)
    harmonic = policy_evaluate_exact(fano, RankedPolicy(rank="harmonic", tie="low"))
    assert sol.optimal_value >= harmonic.aggregate_reward
    gap = float(
        (sol.optimal_value - harmonic.aggregate_reward) / sol.optimal_value
    )

    worst = None
    for name, scheme in _v8_schemes().items():
        if scheme.V > 8:
            continue
        s = mdp_solve(scheme)
        for pname, policy in _all_policies(scheme).items():
            ev = policy_evaluate_exact(scheme, policy)
            assert s.optimal_value >= ev.aggregate_reward, (name, pname)
            rel = float((s.optimal_value - ev.aggregate_reward) / s.optimal_value)
            if worst is None or rel > worst[0]:
                worst = (rel, f"{name}/{pname}")
        R, V = scheme.params.R, scheme.params.V
        if scheme.params.completely_utilizing:
            for sub in itertools.combinations(range(1, V + 1), V - 2):
                assert s.reward_to_go(sub) == Fraction(R, V), name
    report(
        "mdp-near-optimality",
        True,
        f"harmonic relative gap on 7-fragment plane = {gap:.6f}; "
        f"largest policy gap = {worst[0]:.4f} ({worst[1]})",
    )


# ---------------------------------------------------------------------------


def test_design_integrity():
    """Projective planes of prime orders up to 11 verify as 2-(n, q+1, 1)
    designs with both conservation laws; affine planes up to order 5 verify
    as 2-(q^2, q, 1)."""
    details = []
    for q in (2, 3, 5, 7, 11):
        design = scheme_to_design(projective_plane(q))
        lam = verify_t_design(design, 2)
        assert lam == 1, q
        assert conservation_check(design, 2, lam) == (True, True), q
        details.append(f"pp({q})")
    for q in (2, 3, 5):
        scheme = affine_plane(q)
        design = scheme_to_design(scheme)
        assert verify_t_design(design, 2) == 1, q
        assert (scheme.params.V, scheme.params.K) == (q * q, q), q
        details.append(f"affine({q})")
    report("design-integrity", True, " ".join(details))


# ---------------------------------------------------------------------------


def test_full_replication_optimality():
    """Placements with K >= V keep every server useful until the download
    completes: exhaustively over all orders for V <= 6, by simulation above."""
    exhaustive = 0
    for V, B, K in ((2, 2, 2), (2, 2, 4), (3, 2, 3), (4, 4, 4), (5, 2, 5), (6, 3, 8)):
        if (B * K) % V:
            continue
        scheme = large_storage_scheme(V, B, K)
        assert all(occ == frozenset(range(1, B + 1)) for occ in scheme.occupancy)
        for order in itertools.permutations(range(1, V + 1)):
            remaining = [set(fs) for fs in scheme.fragment_sets]
            for v in order:
                assert sum(1 for r in remaining if r) == B
                for r in remaining:
                    r.discard(v)
            exhaustive += 1

    servers = large_storage_servers(8, 3, 16)  # R = 6 > B
    for mode in (SERVER_UNIFORM, FRAGMENT_UNIFORM):
        for idx in range(1_000):
            profile = kernel_profile(servers, 3, 8, mode, stream(SEED, 5, idx))
            assert np.all(profile == 3)
    report(
        "full-replication-optimality",
        True,
        f"{exhaustive} exhaustive orders, 1000 sampled runs per order mode at V=8,B=3,K=16",
    )
