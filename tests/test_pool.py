"""The worker pool that ``engine._run_tasks`` keeps for the life of a process:
reused across calls, replaced when the worker count changes or a worker dies,
and shut down at exit. No test starts more than 3 workers."""

import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import fragsched
from fragsched import (
    RandomWorkConserving,
    SimulationConfig,
    engine,
    ensemble_monte_carlo,
    monte_carlo,
)


def worker_pid(args):
    return os.getpid()


def kill_worker(args):
    os._exit(3)


def bounds(args):
    return args


@pytest.fixture()
def fresh_pool():
    """Start and end without a pool, so no other test's workers are reused."""
    engine._shutdown_pool()
    yield
    engine._shutdown_pool()


def ensemble(threads):
    return ensemble_monte_carlo(5, 6, 2, "rep", "server", 24, 7, threads=threads)


def test_calls_reuse_the_workers(fresh_pool, fano):
    first = ensemble(2)
    pool = engine._pool
    pids = set(pool._processes)
    assert len(pids) == 2
    second = ensemble(2)
    monte_carlo(SimulationConfig(fano, RandomWorkConserving(), 1.0, 40, 3), threads=2)
    assert engine._pool is pool and set(pool._processes) == pids
    assert set(engine._run_tasks(worker_pid, (), 16, 2)) <= pids
    assert np.array_equal(first.mean_profile, second.mean_profile)


def test_new_worker_count_replaces_the_pool(fresh_pool):
    two = set(engine._run_tasks(worker_pid, (), 16, 2))
    three = set(engine._run_tasks(worker_pid, (), 24, 3))
    assert engine._pool_workers == 3 and len(engine._pool._processes) == 3
    assert three <= set(engine._pool._processes) and not two & three


# ``_run_tasks``'s chunks of range(n) per worker count: one worker runs one
# chunk; w workers share k = min(4w, max(w, ceil(n / BATCH_RUNS))) chunks of
# ceil(n / k), so a chunk holds a full batch where n allows it
SPLITS = {
    (1, 1): [(0, 1)], (2, 1): [(0, 1)], (3, 1): [(0, 1)],
    (1, 2): [(0, 2)], (2, 2): [(0, 1), (1, 2)], (3, 2): [(0, 1), (1, 2)],
    (1, 9): [(0, 9)], (2, 9): [(0, 5), (5, 9)], (3, 9): [(0, 3), (3, 6), (6, 9)],
    (1, 255): [(0, 255)], (2, 255): [(0, 128), (128, 255)],
    (3, 255): [(0, 85), (85, 170), (170, 255)],
    (1, 256): [(0, 256)], (2, 256): [(0, 128), (128, 256)],
    (3, 256): [(0, 86), (86, 172), (172, 256)],
    (1, 257): [(0, 257)], (2, 257): [(0, 129), (129, 257)],
    (3, 257): [(0, 86), (86, 172), (172, 257)],
    (1, 400): [(0, 400)], (2, 400): [(0, 200), (200, 400)],
    (3, 400): [(0, 134), (134, 268), (268, 400)],
    (1, 1000): [(0, 1000)],
    (2, 1000): [(lo, lo + 250) for lo in range(0, 1000, 250)],
    (3, 1000): [(lo, lo + 250) for lo in range(0, 1000, 250)],
    (1, 2000): [(0, 2000)],
    (2, 2000): [(lo, lo + 250) for lo in range(0, 2000, 250)],
    (3, 2000): [(lo, lo + 250) for lo in range(0, 2000, 250)],
    (1, 4000): [(0, 4000)],
    (2, 4000): [(lo, lo + 500) for lo in range(0, 4000, 500)],
    (3, 4000): [(lo, lo + 334) for lo in range(0, 3674, 334)] + [(3674, 4000)],
}


def test_chunks_hold_a_full_batch_and_at_most_four_per_worker():
    # a worker that finishes early takes the next chunk
    assert engine.BATCH_RUNS == 256
    for (threads, n), chunks in SPLITS.items():
        assert engine._run_tasks(bounds, (), n, threads) == chunks, (threads, n)
    assert engine._run_tasks(bounds, ("x",), 9, 2) == [("x", 0, 5), ("x", 5, 9)]


def test_dead_worker_fails_one_call_only(fresh_pool):
    with pytest.raises(BrokenProcessPool):
        engine._run_tasks(kill_worker, (), 8, 2)
    assert engine._pool is None
    got = ensemble(2)
    want = ensemble(1)
    assert np.array_equal(got.mean_profile, want.mean_profile)
    assert np.array_equal(got.se_profile, want.se_profile)


def test_command_exits_cleanly(tmp_path):
    """The pool shuts down at exit without a word on stderr beyond the
    command's timing line."""
    src = str(Path(fragsched.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "ens.csv"
    done = subprocess.run(
        [sys.executable, "-m", "fragsched", "ensemble", "--kind", "mds", "--mode", "server",
         "--B", "6", "--V", "8", "--R", "2", "--samples", "200", "--seed", "2",
         "--threads", "2", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"ensemble: 200 samples in \d+\.\d{3} s \([\d,]+ samples/s\)\n",
                        done.stderr), done.stderr
    assert out.exists()
