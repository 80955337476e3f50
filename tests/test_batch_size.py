"""Monte Carlo results do not depend on how many runs the jump-chain kernel
moves in one batch: every summary field and every run's trajectory is the
same at any ``engine.BATCH_RUNS``, including a last batch smaller than the
others."""

import dataclasses

import numpy as np
import pytest

from fragsched import SimulationConfig, cyclic_shift, engine, monte_carlo, projective_plane, rng
from fragsched.scheduling import compile_policy
from test_kernel import POLICY_KINDS, make_policy

DEFAULT = engine.BATCH_RUNS
SIZES = (1, 3, 64, DEFAULT)
RUNS = DEFAULT + 7  # the default makes a full batch and a 7-run one
SCHEMES = {"pp3": lambda: projective_plane(3), "cyclic13/4": lambda: cyclic_shift(13, 4)}


@pytest.fixture(scope="module", params=list(SCHEMES))
def scheme(request):
    return SCHEMES[request.param]()


@pytest.fixture(scope="module")
def policies(scheme):
    return {kind: make_policy(scheme, kind) for kind in POLICY_KINDS}


def summary_fields(summary) -> dict:
    return {f.name: getattr(summary, f.name) for f in dataclasses.fields(summary)}


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_summary_independent_of_batch_size(scheme, policies, kind, monkeypatch):
    cfg = SimulationConfig(scheme, policies[kind], 0.37, RUNS, 29)
    expected = summary_fields(monte_carlo(cfg))
    for size in SIZES:
        monkeypatch.setattr(engine, "BATCH_RUNS", size)
        got = summary_fields(monte_carlo(cfg))
        for name, value in expected.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(got[name], value), (size, name)
                assert got[name].dtype == value.dtype, (size, name)
            else:
                assert got[name] == value, (size, name)


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_jump_chain_columns_independent_of_batch_size(scheme, policies, kind):
    rule = compile_policy(scheme, policies[kind])
    words = rng.stream_words(31, rng.DOMAIN_RUN, range(RUNS), rule.draws * scheme.V)
    whole = [a.copy() for a in engine._jump_chain(rule, 0.37, words)]
    for size in SIZES:
        parts = []
        for lo in range(0, RUNS, size):
            out = engine._jump_chain(rule, 0.37, words[:, lo:lo + size].copy())
            parts.append([a.copy() for a in out])
        for i, name in enumerate(("instants", "order", "profile")):
            got = np.concatenate([p[i] for p in parts], axis=1)
            assert got.dtype == whole[i].dtype, (size, name)
            for col in range(RUNS):
                assert np.array_equal(got[:, col], whole[i][:, col]), (size, name, col)
