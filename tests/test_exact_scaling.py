"""``tools/exact_scaling.py``: its child records, table rows and main loop, on
canned child output, and one real measurement of a small solve."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from fragsched import mdp_solve

_PATH = Path(__file__).resolve().parent.parent / "tools" / "exact_scaling.py"
_spec = importlib.util.spec_from_file_location("exact_scaling", _PATH)
exact_scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exact_scaling)


def child_line(solver="mdp", V=10, B=10, wall=0.0123, rss_kib=2048, peak_kib=40960):
    return json.dumps({"solver": solver, "V": V, "B": B, "wall_s": wall, "rss_kib": rss_kib,
                       "peak_kib": peak_kib, "sha256": "ab" * 32})


def traced_line(traced_bytes=3 * 2**19):
    return json.dumps({"traced_bytes": traced_bytes})


def full_record(traced_bytes=3 * 2**19, **kwargs):
    """A timed child's record with a traced child's peak added."""
    return dict(json.loads(child_line(**kwargs)), traced_bytes=traced_bytes)


def test_parse_child_reads_the_last_line():
    record = exact_scaling.parse_child("warming up\n" + child_line() + "\n")
    assert record == json.loads(child_line())
    assert exact_scaling.parse_child(traced_line() + "\n", 0, "traced_bytes") == \
        json.loads(traced_line())
    # each child's record must hold its own key
    assert exact_scaling.parse_child(traced_line() + "\n") is None
    assert exact_scaling.parse_child(child_line() + "\n", 0, "traced_bytes") is None


@pytest.mark.parametrize("stdout, returncode", [
    (child_line(), 1),
    ("", 0),
    ("Traceback (most recent call last):\n", 0),
    ("[1, 2]\n", 0),
    ('{"solver": "mdp"}\n', 0),
], ids=["exit-1", "empty", "not-json", "not-an-object", "no-rss"])
def test_parse_child_of_a_failed_child_is_none(stdout, returncode):
    assert exact_scaling.parse_child(stdout, returncode) is None


def test_row_reports_growth_per_state_and_peak():
    row = exact_scaling.row(full_record(V=10, rss_kib=2048, peak_kib=40960))
    # 2 MiB over 2^10 states, and 1.5 MiB traced
    assert row == {"solver": "mdp", "V": 10, "B": 10, "wall_s": "0.012", "rss_mib": "2.00",
                   "bytes_per_state": "2048", "peak_mib": "40.00", "traced_mib": "1.500",
                   "sha256": "ab" * 8}


def test_format_table_aligns_every_column():
    rows = [exact_scaling.row(r) for r in (
        full_record(V=9, B=27, wall=0.5, rss_kib=100),
        full_record(12_181_000, solver="float", V=18, B=72, wall=12.25, rss_kib=66000,
                    peak_kib=103000),
    )]
    lines = exact_scaling.format_table(rows).splitlines()
    assert lines[0].split() == list(exact_scaling.COLUMNS)
    assert [line.split() for line in lines[1:]] == [
        ["mdp", "9", "27", "0.500", "0.10", "200", "40.00", "1.500", "ab" * 8],
        ["float", "18", "72", "12.250", "64.45", "258", "100.59", "11.617", "ab" * 8],
    ]
    # every cell starts where its header does
    starts = [lines[0].index(name) for name in exact_scaling.COLUMNS]
    for line in lines[1:]:
        assert all(line[i - 1] == " " and line[i] != " " for i in starts[1:])


def test_main_runs_one_child_per_case_and_reports_failures(monkeypatch, capsys, tmp_path):
    # one timed and one traced child per case
    calls = []

    def fake_run(cmd, env, **kwargs):
        calls.append((cmd[-5:], env["PYTHONPATH"]))
        solver, V, repeat, mode = cmd[-4], int(cmd[-3]), int(cmd[-2]), cmd[-1]
        if V == 16 and repeat == 3 and mode == "trace":
            return subprocess.CompletedProcess(cmd, 1, "", "MemoryError\n")
        line = child_line(solver, V, repeat * V) if mode == "time" else traced_line(V * 2**20)
        return subprocess.CompletedProcess(cmd, 0, line + "\n", "")

    monkeypatch.setattr(exact_scaling.subprocess, "run", fake_run)
    assert exact_scaling.main(["--src", str(tmp_path), "--V", "15", "16",
                               "--repeat", "1", "3", "--solver", "mdp"]) == 1
    assert calls == [(["--child", "mdp", str(V), str(r), mode], str(tmp_path))
                     for r in (1, 3) for V in (15, 16) for mode in ("time", "trace")]
    out, err = capsys.readouterr()
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [r[:3] + r[-2:-1] for r in rows] == [
        ["mdp", "15", "15", "15.000"], ["mdp", "16", "16", "16.000"], ["mdp", "15", "45", "15.000"]]
    assert err == "MemoryError\nmdp V=16 repeat=3: failed\n"


def test_build_repeats_every_server():
    scheme = exact_scaling.build(7, 3)
    assert (scheme.B, scheme.V, scheme.params.K, scheme.params.R) == (21, 7, 3, 9)
    assert scheme.fragment_sets[:7] == scheme.fragment_sets[7:14] == scheme.fragment_sets[14:]


@pytest.mark.parametrize("solver", exact_scaling.SOLVERS)
def test_measure_times_one_solve_and_digests_it(solver):
    record = exact_scaling.measure(solver, 6, 2)
    assert (record["solver"], record["V"], record["B"]) == (solver, 6, 12)
    assert record["wall_s"] > 0 and 0 <= record["rss_kib"] <= record["peak_kib"]
    assert exact_scaling.parse_child(json.dumps(record)) == record
    # the digest is the result's: the same solve gives it again
    result = exact_scaling.solve(solver, exact_scaling.build(6, 2))
    assert record["sha256"] == exact_scaling.digest(solver, result)
    traced = exact_scaling.measure(solver, 6, 2, traced=True)
    assert list(traced) == ["traced_bytes"] and traced["traced_bytes"] > 0
    if solver == "mdp":
        other = mdp_solve(exact_scaling.build(6, 1))
    else:  # the two forward-DP solvers evaluate different policies
        other = exact_scaling.solve({"float": "harmonic", "harmonic": "float"}[solver],
                                    exact_scaling.build(6, 2))
    assert exact_scaling.digest(solver, other) != record["sha256"]
