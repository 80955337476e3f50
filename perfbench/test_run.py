"""Self-test of the benchmark's own logic.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def test_fast_cost():
    assert run.fast_cost([5.0]) == 5.0
    # a slow majority of the samples does not move it off the fast ones
    assert run.fast_cost([1.9, 2.0, 1.0, 1.8, 1.1, 1.95]) == 1.0
    with pytest.raises(ValueError):
        run.fast_cost(iter([]))


def test_paired_cost_cancels_the_speed_around_each_repetition():
    # the same unit at three machine speeds: the reference slowed with it
    samples = [(2.0, 1.0, 1.0), (3.6, 1.8, 1.8), (2.2, 1.0, 1.2)]
    assert run.paired_cost(samples) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        run.paired_cost([])


def test_bench_cost_pairs_each_call_with_the_references_around_it():
    bench = run.Bench(trace=False, seconds=0, setup=lambda b: None)
    bench.refs = [1.0, 2.0, 4.0]
    bench.samples["k"] = [(3.0, False, 0), (6.0, False, 1), (8.0, False, 2)]
    # ratios 3/1.5, 6/3 and 8/4 (the last call has no reference after it)
    assert bench.cost("k") == pytest.approx(2.0)
    assert bench.cost_s("k") == pytest.approx(2.0)


def test_trace_overhead_compares_traced_and_untraced_repetitions():
    bench = run.Bench(trace=True, seconds=0, setup=lambda b: None)
    bench.refs = [1.0, 1.0, 1.0, 1.0]
    bench.samples["a"] = [(1.1, True, 0), (1.0, False, 1)]
    bench.samples["b"] = [(2.2, True, 2), (2.0, False, 3)]
    bench.samples["c"] = [(9.0, True, 0)]  # never untraced: left out
    assert bench.trace_overhead(["a", "b", "c"]) == pytest.approx(0.1)
    assert bench.trace_overhead(["c"]) == 0.0


def test_first_setup_builds_the_state_and_is_not_recorded():
    calls = []
    bench = run.Bench(trace=False, seconds=0, setup=lambda b: calls.append(1) or len(calls))
    rounds = bench.run(lambda r: [("u", lambda: None)], 1)
    assert rounds == 1 and bench.state == 1
    # a short run still records one set-up, made after its last unit
    assert len(bench.samples["setup"]) == len(calls) - 1 >= 1
    assert len(bench.refs) == 2  # before the first unit and after it


def _fake_call(cv: float, mean: float = 100.0, fail_at=None):
    calls = []

    def call(runs):
        calls.append(runs)
        if runs == fail_at:
            return None
        return SimpleNamespace(mean_download_time=mean, stderr=cv * mean / runs ** 0.5)

    return call, calls


def test_ladder_stops_at_first_rung_within_target():
    # half-width 1.96 * 0.2 / sqrt(n) <= 0.01 first holds at n = 1600
    call, calls = _fake_call(0.2)
    rungs, summary, reached = run.run_ladder(call, 100, 0.01, 10_000)
    assert reached and rungs == calls == [100, 200, 400, 800, 1600]
    assert run.ladder_reached(summary.mean_download_time, summary.stderr, 0.01)
    assert not run.ladder_reached(100.0, summary.stderr * 2, 0.01)


def test_ladder_gives_up_past_max_and_on_failure():
    call, _ = _fake_call(0.2)
    rungs, _, reached = run.run_ladder(call, 100, 0.01, 800)
    assert not reached and rungs == [100, 200, 400, 800]
    call, _ = _fake_call(0.2, fail_at=200)
    rungs, summary, reached = run.run_ladder(call, 100, 0.01, 10_000)
    assert (rungs, summary, reached) == ([100, 200], None, False)
    assert not run.ladder_reached(1.0, None, 0.5)


def test_self_times_subtract_covered_child_time():
    S = run.Span
    spans = [
        S("bench.round", 0.0, 10.0, None, "r0"),
        S("engine.monte_carlo", 1.0, 4.0, 0, "a"),
        S("engine.monte_carlo", 3.0, 6.0, 0, "b"),      # overlaps its sibling
        S("rng.stream", 9.0, 12.0, 0, "c"),            # runs past its parent
        S("mdp.mdp_solve", 20.0, 21.5, None, "d"),
    ]
    got = run.self_times(spans)
    assert got["bench"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got["engine"] == pytest.approx(6.0)
    assert got["rng"] == pytest.approx(3.0)
    assert got["mdp"] == pytest.approx(1.5)


def test_tracer_nests_and_can_be_disabled():
    tracer = run.Tracer()
    with tracer.span("bench.round", "r"):
        pass
    assert tracer.spans == []
    tracer.enabled = True
    with tracer.span("bench.round", "r"):
        with tracer.span("engine.monte_carlo", "x"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("bench.round", None), ("engine.monte_carlo", 0)]
    assert tracer.spans[0].end >= tracer.spans[1].end >= tracer.spans[1].start


def test_tally_counts_checks_and_raised_errors():
    tally = run.Tally()
    assert tally.check("engine", True, "fine")
    assert not tally.check("mdp", False, "bad")
    assert tally.call("rng", lambda: 7) == (7, True)

    def boom():
        raise RuntimeError("boom")

    assert tally.call("engine", boom) == (None, False)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.errors == {"mdp": 1, "engine": 1}


def test_bench_timed_records_only_successful_calls():
    bench = run.Bench(trace=False, seconds=0, setup=lambda b: None)
    assert bench.timed("k", lambda: None) is None
    bench.timed("k", lambda: 1 / 0)
    assert len(bench.samples["k"]) == 1
    assert (bench.tally.attempted, bench.tally.failed) == (2, 1)


def test_benchmark_json_lists_what_the_runs_print():
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_refs", "items_per_ref", "peak_rss_mib"}
    units = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units


@pytest.mark.parametrize("trace", [False, True])
def test_ensemble_result_when_every_call_fails(monkeypatch, trace):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from fragsched import engine

    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    broken.__module__ = engine.__name__  # spans and errors are filed by module
    monkeypatch.setattr(engine, "ensemble_monte_carlo", broken)
    monkeypatch.setattr(run, "write_trace", lambda *args: None)
    result = run.run_workload("ensemble", 1, 0, trace)
    assert not result["correct"]
    # two rounds of failed calls (the traced run adds a threads=1 call of each
    # configuration in round 0), then one failed check per configuration
    failed = (4 if trace else 3) * len(run._configs())
    assert result["failed"] == failed
    if not trace:
        assert result["metrics"]["items_per_ref"]["value"] == 0.0
    else:
        assert result["metrics"]["engine.errors"]["value"] == failed
