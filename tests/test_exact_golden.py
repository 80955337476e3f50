"""Exact solver outputs pinned to fixed values, so a change to how policies
are evaluated cannot move a rational, the last digit of a float mean or an
MDP decision unnoticed.

The values were produced by the subset DP before the policy decision rules
were merged into ``scheduling.compile_policy``: the aggregate reward as a
fraction, the ``repr`` of the float-mode mean download time at mu = 1, and a
SHA-256 of ``repr((per_ell_useful, per_ell_inverse_useful, aggregate_reward))``;
for ``mdp_solve``, the optimal value and a SHA-256 of
``repr(sorted(decisions.items()))`` over the (mask, server) -> fragment dict
that ``oracles.decision_items`` reads from the decision array.

The pins at benchmark sizes (V = 9 and 10, where the popcount levels of the
subset DP are widest) were produced by the one-state-at-a-time dict loops
before the level-synchronous kernels replaced them; they add a SHA-256 of
``repr(sorted(values.items()))`` over the mask -> reward-to-go dict that
``oracles.value_items`` reads from the solution.

The pins on cyclic 15/3 (``mdp_solve``) and cyclic 16/4 (float forward DP)
cover popcount levels that the solvers split across many batches of
``mdp._SLOTS`` order slots; they were produced by the solvers before each
child state's value was combined once per level and before first-seen
states were numbered without a sort.
"""

import hashlib
from fractions import Fraction

import pytest

from fragsched import (
    affine_plane,
    build_scheme,
    cyclic_shift,
    exact_mean_download,
    mdp_solve,
    policy_evaluate_exact,
)
from conftest import FANO_OCCUPANCY
from oracles import decision_items, value_items
from test_kernel import IRREGULAR, make_policy

SCHEMES = {
    "fano": lambda: build_scheme(FANO_OCCUPANCY, mu=1.0),
    "cyclic73": lambda: cyclic_shift(7, 3),
    "irregular": lambda: build_scheme(IRREGULAR, mu=1.0, B=6),
}

MDP_SOLUTIONS = {
    "fano": ("1726/343", "f7e7cd75332902c9db9dc26b8581266299bbfb1470dba3f9cb01e8c8b91faa8e"),
    "cyclic73": ("3842051/756315", "29c0d9aac94c1789d56eea157068531eee116bd123c8da45d73c872d6c2ff676"),
    "irregular": ("6049469/1750000", "374e577f5f47377223234c9450dd0845b5607c49d9902981382ac1c29f24463d"),
}

# (aggregate reward, repr of the float mean, SHA-256 of the rationals)
EVALUATIONS = {
    ("fano", "sif"): (
        "83520/16807", "1.2765355704964203",
        "159d93fb8226e3e2a0befdf4f15beb6cbe4d957e40a1613e2ea9b6607d2bdda5"),
    ("fano", "ud"): (
        "11973/2401", "1.2736498681105095",
        "bf87b8f1e178fd20f6acc489d8516befc2232f9f5f4efafe5f368f04c323bf94"),
    ("fano", "sif+pushback"): (
        "84046/16807", "1.2713194898950833",
        "a90abc80483f91b882da3b798e2c0e53b44f2cc8f87a1c167d2e1e283eecadbb"),
    ("fano", "ud+pushback"): (
        "84130/16807", "1.2704865036393567",
        "dc0f7929556a73b934ac18dc20eb3d2d531e769dad0c9f25a9a81363db451e75"),
    ("fano", "random"): (
        "5134/1029", "1.2732102364755429",
        "32fdb381d9110f785e226957068a1020eebafb82e2119f2c742b1511a2421584"),
    ("fano", "greedy-low"): (
        "1726/343", "1.266083576287658",
        "4ba57434c10ae14b7fb19fbffdf235ce6d77f51767c7a2b810449fe0058eb93f"),
    ("fano", "greedy-seeded"): (
        "1726/343", "1.2660835762876577",
        "4ba57434c10ae14b7fb19fbffdf235ce6d77f51767c7a2b810449fe0058eb93f"),
    ("fano", "greedy-init"): (
        "1726/343", "1.266083576287658",
        "4ba57434c10ae14b7fb19fbffdf235ce6d77f51767c7a2b810449fe0058eb93f"),
    ("fano", "harmonic-low"): (
        "1726/343", "1.266083576287658",
        "4ba57434c10ae14b7fb19fbffdf235ce6d77f51767c7a2b810449fe0058eb93f"),
    ("fano", "harmonic-seeded"): (
        "1726/343", "1.2660835762876577",
        "4ba57434c10ae14b7fb19fbffdf235ce6d77f51767c7a2b810449fe0058eb93f"),
    ("fano", "harmonic-init"): (
        "1726/343", "1.266083576287658",
        "4ba57434c10ae14b7fb19fbffdf235ce6d77f51767c7a2b810449fe0058eb93f"),
    ("fano", "mdp"): (
        "1726/343", "1.266083576287658",
        "4ba57434c10ae14b7fb19fbffdf235ce6d77f51767c7a2b810449fe0058eb93f"),
    ("cyclic73", "sif"): (
        "25890283/5294205", "1.30491169354039",
        "94186ac24c167df70dcfd961ad1633a85877179d276e9a7c047a856c5610a758"),
    ("cyclic73", "ud"): (
        "529352/108045", "1.3027747697718546",
        "d112c384b835e3050fbdc8bdd0de57e87a7f6ea858b8cf8a29a237397ab42fa2"),
    ("cyclic73", "sif+pushback"): (
        "103354513/21176820", "1.3052240193129405",
        "4e73361a748b378dc9d1168ee10d55e98d78b85734e2b08b58b9b26be640d7c0"),
    ("cyclic73", "ud+pushback"): (
        "25890283/5294205", "1.3049116935403897",
        "94186ac24c167df70dcfd961ad1633a85877179d276e9a7c047a856c5610a758"),
    ("cyclic73", "random"): (
        "20092840/4084101", "1.2976912911801153",
        "6e448cde7736fd8efd89ecfe02575c41b05b45f00b3ed41a3347d5a96a5b3464"),
    ("cyclic73", "greedy-low"): (
        "169153/33614", "1.2723547728129152",
        "3fbdcb4863d1b8463aee765793c7ace949a16394c7410f17a985a93dc773bb8a"),
    ("cyclic73", "greedy-seeded"): (
        "11432117/2268945", "1.270677032717849",
        "44869f8f8961745ff40f3abb12a9e504f3b4156e8897deda116864323ca61fd1"),
    ("cyclic73", "greedy-init"): (
        "3806746/756315", "1.2719973159331759",
        "e1b6d2d959f5afdbee291043768f032cbe1ceee414db2c243eafab8e9131359a"),
    ("cyclic73", "harmonic-low"): (
        "3839846/756315", "1.2633058315648902",
        "5d8425bde2987695d3fe587a12065f8bc1b7846598d0c67f833685014f958a6b"),
    ("cyclic73", "harmonic-seeded"): (
        "1280147/252105", "1.2628761164329676",
        "7c430358831034cc45fc5d3bd3677520bbf77b7159500c101687f50cad8a8d49"),
    ("cyclic73", "harmonic-init"): (
        "3839651/756315", "1.2634406960062936",
        "fd3461dc61f08cc35cce396eeabab02ed081b3b84834619b3a78ccebccb1718f"),
    ("cyclic73", "mdp"): (
        "3842051/756315", "1.2613165810541902",
        "c59ca311e6ae09cd92cab9569c418d03741cef0075d4b0cbdf0c7dac581071ca"),
    ("irregular", "sif"): (
        "18655601/6300000", "2.5161461111111114",
        "c4bd61fe9ae6410325c7190568470c30c0130b143df1be7de4ff649b1bfb6a57"),
    ("irregular", "ud"): (
        "2434973/787500", "2.4512705555555554",
        "908bbc30f987dd47e8f361213a60943f3b144c38d644d19325e8774e55290a16"),
    ("irregular", "sif+pushback"): (
        "18655601/6300000", "2.5161461111111114",
        "c4bd61fe9ae6410325c7190568470c30c0130b143df1be7de4ff649b1bfb6a57"),
    ("irregular", "ud+pushback"): (
        "2434973/787500", "2.4512705555555554",
        "908bbc30f987dd47e8f361213a60943f3b144c38d644d19325e8774e55290a16"),
    ("irregular", "random"): (
        "3025465339/972000000", "2.3776652579089506",
        "bc91e6a404fd328f85e9cbd452895a912b062939512fffbb0b91d3451a4a8021"),
    ("irregular", "greedy-low"): (
        "101332117/31500000", "2.2623103333333336",
        "ce89fba3d19642eadedfa07cbf22c7f00f1d0287454b6179d10813dc4bd05e8c"),
    ("irregular", "greedy-seeded"): (
        "22178788757/6804000000", "2.2316644254115223",
        "8f385728100bb3c8f18c17a55fdc36dc26edb4ede48daa5e635f71721d0772c8"),
    ("irregular", "greedy-init"): (
        "4853549/1500000", "2.2792951111111117",
        "fd76e02c4b6ad0ba7f67324866c212d6a86e07b78cdc914d324a5194de283df3"),
    ("irregular", "harmonic-low"): (
        "36270979/10500000", "2.0238598240740746",
        "8df750bdb72e0eb11aad30210aaa9a1f2da58238435b6c123c150c991f34083e"),
    ("irregular", "harmonic-seeded"): (
        "48336739/14000000", "2.0263385601851853",
        "bb4360a67659832bc0abb26a892a03895267a76eec1dbc8e7bbd8003220834fa"),
    ("irregular", "harmonic-init"): (
        "36259861/10500000", "2.0268881851851854",
        "f7c8c3f76cc7533908c24d1d05775c7f72ce173fd3076f513889efa87da1cc39"),
    ("irregular", "mdp"): (
        "6049469/1750000", "2.025722185185185",
        "acceaf2df211fba93fc8d51765eccda2a422cbce7bb402f0ec333b7a17ed4465"),
}


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("name", MDP_SOLUTIONS)
def test_mdp_solve_matches_pinned(name):
    value, digest = MDP_SOLUTIONS[name]
    sol = mdp_solve(SCHEMES[name]())
    assert sol.optimal_value == Fraction(value)
    assert _sha256(sorted(decision_items(sol.decisions).items())) == digest


@pytest.mark.parametrize("name, kind", EVALUATIONS)
def test_exact_evaluation_matches_pinned(name, kind):
    aggregate, float_mean, digest = EVALUATIONS[name, kind]
    scheme = SCHEMES[name]()
    policy = make_policy(scheme, kind)
    ev = policy_evaluate_exact(scheme, policy)
    assert ev.aggregate_reward == Fraction(aggregate)
    assert _sha256((ev.per_ell_useful, ev.per_ell_inverse_useful, ev.aggregate_reward)) == digest
    assert repr(exact_mean_download(scheme, policy, 1.0, exact=False).mean) == float_mean


# (optimal value, SHA-256 of the decisions, SHA-256 of the values)
LARGE_MDP_SOLUTIONS = {
    "affine3": (
        lambda: affine_plane(3), "913675/104544",
        "b6a996d24e07031e403746f81f1f3bc2c40d2e6dd93da2e2fd42c617419d4e88",
        "4d3bd2f12cc285b219aa2a23910769c026134aafbdbcfe3c9ced70111a0e5a54"),
    "cyclic103": (
        lambda: cyclic_shift(10, 3), "18828427592311/2571912000000",
        "571751a2be7dcad70e177d0692f8243fbe41173c3800670230f17381aec880fe",
        "0ec13c73b52721f04330241f9d2a8e4820d2a181bbe34466861f6927abf2a6e0"),
    # 182 states per batch: the widest levels (6,435 sets) take 36 batches
    "cyclic153": (
        lambda: cyclic_shift(15, 3),
        "15001809488901628084622491250291897/1360895781004568592451668000000000",
        "7a26e9a93e06dfcdec40452aabe3714a5c6fa7a3692edd04e39b2b7f88b8d5f9",
        "98323cc3fffcfb2dce7192492fdc5e10a24bd07597986fbe777907c19c29bae7"),
}

# repr of the float-mode mean download time on cyclic 10/4 at mu = 1
CYCLIC_10_4_FLOAT_MEANS = {
    "random": "1.2666497770567235",
    "harmonic-low": "1.2225889262297123",
}

# repr of the float-mode mean download time on cyclic 16/4 at mu = 1: 128
# states per batch, so the widest levels span about 100 batches
CYCLIC_16_4_FLOAT_MEANS = {
    "random": "1.4287732623752",
    "harmonic-low": "1.36852732982893",
}


@pytest.mark.parametrize("name", LARGE_MDP_SOLUTIONS)
def test_mdp_solve_matches_pinned_at_benchmark_size(name):
    build, value, decisions_digest, values_digest = LARGE_MDP_SOLUTIONS[name]
    sol = mdp_solve(build())
    assert sol.optimal_value == Fraction(value)
    assert _sha256(sorted(decision_items(sol.decisions).items())) == decisions_digest
    assert _sha256(sorted(value_items(sol).items())) == values_digest


@pytest.mark.parametrize("kind", CYCLIC_10_4_FLOAT_MEANS)
def test_float_mean_matches_pinned_at_benchmark_size(kind):
    scheme = cyclic_shift(10, 4)
    mean = exact_mean_download(scheme, make_policy(scheme, kind), 1.0, exact=False).mean
    assert repr(mean) == CYCLIC_10_4_FLOAT_MEANS[kind]


@pytest.mark.parametrize("kind", CYCLIC_16_4_FLOAT_MEANS)
def test_float_mean_matches_pinned_across_batches(kind):
    scheme = cyclic_shift(16, 4)
    mean = exact_mean_download(scheme, make_policy(scheme, kind), 1.0, exact=False).mean
    assert repr(mean) == CYCLIC_16_4_FLOAT_MEANS[kind]
