"""``tools/bench_record.py`` aggregation, on canned benchmark output."""

import argparse
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def result_line(wall_refs, rss, failed=0):
    return json.dumps({
        "correct": failed == 0, "attempted": 60, "failed": failed,
        "metrics": {
            "setup_s": {"value": 0.03, "unit": "s"},
            "wall_refs": {"value": wall_refs, "unit": "refs"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
        },
    })


def facts_line(digest="ab" * 32, load=0.5):
    return json.dumps({
        "cpu_model": "Test CPU", "digest_sha256": digest, "items_per_ref": 100.0,
        "loadavg_at_start": [load, load, load], "nproc": 2, "numpy": "2.4.6",
        "python": "3.11.7", "reference_s": 0.009, "references": 400, "seed": 1,
        "wall_refs": 1.0, "workload": "table",
    })


def record(wall_refs, rss=40.0, failed=0, digest="ab" * 32, returncode=0):
    stdout = "row pp/ud ok\n" + result_line(wall_refs, rss, failed) + "\n"
    stderr = "tolerance note\n" + facts_line(digest) + "\n"
    return bench_record.parse_run(stdout, stderr, returncode)


def test_parse_run_reads_result_and_facts():
    rec = record(300.5, rss=44.5)
    assert rec["metrics"] == {"setup_s": (0.03, "s"), "wall_refs": (300.5, "refs"),
                              "peak_rss_mib": (44.5, "MiB")}
    assert rec["digest"] == "ab" * 32
    assert rec["machine"] == {"nproc": 2, "cpu_model": "Test CPU", "python": "3.11.7",
                              "numpy": "2.4.6"}
    assert (rec["correct"], rec["attempted"], rec["failed"]) == (True, 60, 0)


def test_parse_run_of_a_crash_is_empty_and_counts_as_failed():
    rec = bench_record.parse_run("", "Traceback (most recent call last):\n", 1)
    assert rec["metrics"] == {} and rec["digest"] is None and not rec["correct"]
    summary = bench_record.summarize([rec, record(10.0)])
    assert summary["runs"] == 2 and summary["runs_failed"] == 1
    assert summary["metrics"]["wall_refs"]["values"] == [10.0]


def test_summarize_median_and_quartiles():
    walls = [460.0, 440.0, 450.0, 470.0, 480.0]
    summary = bench_record.summarize([record(w) for w in walls])
    wall = summary["metrics"]["wall_refs"]
    assert wall["unit"] == "refs"
    assert wall["values"] == walls  # run order kept
    assert wall["median"] == 460.0
    # linear interpolation between order statistics: q1 at rank 1, q3 at rank 3
    assert (wall["q1"], wall["q3"], wall["iqr"]) == (450.0, 470.0, 20.0)
    assert summary["digests"] == ["ab" * 32]
    assert (summary["runs"], summary["runs_failed"], summary["failed"]) == (5, 0, 0)


def test_summarize_interpolates_even_counts_and_one_run():
    wall = bench_record.summarize([record(w) for w in (1.0, 2.0, 3.0, 4.0)])["metrics"]["wall_refs"]
    assert (wall["q1"], wall["median"], wall["q3"]) == (1.75, 2.5, 3.25)
    one = bench_record.summarize([record(7.0)])["metrics"]["wall_refs"]
    assert (one["q1"], one["median"], one["q3"], one["iqr"]) == (7.0, 7.0, 7.0, 0.0)


def test_summarize_keeps_every_distinct_digest_and_failure():
    recs = [record(1.0, digest="aa"), record(2.0, digest="bb", failed=2), record(3.0, digest="aa")]
    summary = bench_record.summarize(recs)
    assert summary["digests"] == ["aa", "bb"]
    assert (summary["failed"], summary["runs_failed"]) == (2, 1)


def test_bench_doc_layout():
    doc = bench_record.bench_doc("after", "abc123", ["python3", "perfbench/run.py"], ["before"],
                                 {"table": [record(1.0), record(3.0)], "exact": [record(2.0)]})
    assert doc["label"] == "after" and doc["version"] == "abc123"
    assert doc["paired_with"] == ["before"]
    assert doc["machine"]["cpu_model"] == "Test CPU"
    assert doc["workloads"]["table"]["metrics"]["wall_refs"]["median"] == 2.0
    assert doc["workloads"]["exact"]["runs"] == 1
    json.dumps(doc)  # serializable as written


def test_pair_wins_follow_each_metric_direction():
    first = [record(100.0, rss=40.0), record(100.0, rss=40.0), record(100.0, rss=40.0)]
    later = [record(90.0, rss=40.0), record(100.0, rss=41.0), record(110.0, rss=39.0)]
    later.append(bench_record.parse_run("", "Traceback\n", 1))  # a crash pairs with nothing
    better = {"wall_refs": "lower", "peak_rss_mib": "lower", "items_per_ref": "higher"}
    wins = bench_record.pair_wins(first + [record(100.0)], later, better)
    # ties count for neither side
    assert wins["wall_refs"] == {"wins": 1, "losses": 1, "pairs": 3}
    assert wins["peak_rss_mib"] == {"wins": 1, "losses": 1, "pairs": 3}
    assert wins["items_per_ref"] == {"wins": 0, "losses": 0, "pairs": 0}  # not reported
    flipped = bench_record.pair_wins(first, later, {"wall_refs": "higher"})
    assert flipped["wall_refs"] == {"wins": 1, "losses": 1, "pairs": 3}
    assert bench_record.pair_wins(later[:1], first[:1], better)["wall_refs"]["losses"] == 1


def test_same_digest_counts_equal_rounds():
    first = [record(1.0, digest="aa"), record(1.0, digest="aa"), record(1.0, digest="aa")]
    later = [record(1.0, digest="aa"), record(1.0, digest="bb"),
             bench_record.parse_run("", "Traceback\n", 1)]  # a crash has no digest
    assert bench_record.same_digest(first, later) == {"equal": 1, "pairs": 2}
    assert bench_record.same_digest(first, first) == {"equal": 3, "pairs": 3}
    assert bench_record.same_digest(first, []) == {"equal": 0, "pairs": 0}


def test_directions_read_the_benchmark_declaration():
    better = bench_record.directions()
    assert better["wall_refs"] == "lower" and better["items_per_ref"] == "higher"
    assert set(better) == {"setup_s", "wall_refs", "items_per_ref", "peak_rss_mib"}


@pytest.mark.parametrize("text", ["nolabel", "=path", "label="])
def test_targets_need_label_and_checkout(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_record.parse_target(text)


def test_main_alternates_checkouts_and_records_the_command_it_ran(tmp_path, monkeypatch):
    calls = []
    runs_of = Counter()

    def fake_run(cmd, cwd=None, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 128, "", "not a git repository")
        name = Path(cwd).name
        calls.append((name, cmd))
        stdout = result_line(100.0 if name == "a" else 200.0, 40.0) + "\n"
        # b's ensemble digest differs from a's in its first three runs
        workload = cmd[cmd.index("--workload") + 1]
        runs_of[name, workload] += 1
        differs = (name, workload) == ("b", "ensemble") and runs_of[name, workload] <= 3
        digest = "cd" if differs else "ab"
        return subprocess.CompletedProcess(cmd, 0, stdout, facts_line(digest) + "\n")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    assert bench_record.main([f"x={tmp_path / 'a'}", f"y={tmp_path / 'b'}",
                              "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 2 * 10 * len(bench_record.WORKLOADS)  # --runs defaults to 10
    table = [name for name, cmd in calls if cmd[cmd.index("--workload") + 1] == "table"]
    assert table[:4] == ["a", "b", "b", "a"]  # odd rounds reverse the order
    doc = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert doc["command"] == bench_record.bench_command("W", 1, 30)
    assert doc["command"][0] == sys.executable == calls[0][1][0]
    assert doc["version"] is None and doc["paired_with"] == ["y"]
    assert doc["workloads"]["exact"]["metrics"]["wall_refs"]["median"] == 100.0
    assert "pair_wins" not in doc and "same_digest" not in doc  # the first is the baseline
    later_doc = json.loads((tmp_path / "BENCH_y.json").read_text())
    later = later_doc["pair_wins"]
    assert later["against"] == "x" and set(later["workloads"]) == set(bench_record.WORKLOADS)
    # y's wall_refs of 200 lose every round to x's 100; its setup_s ties
    assert later["workloads"]["table"]["wall_refs"] == {"wins": 0, "losses": 10, "pairs": 10}
    assert later["workloads"]["ensemble"]["setup_s"] == {"wins": 0, "losses": 0, "pairs": 10}
    same = later_doc["same_digest"]
    assert same["against"] == "x"
    assert same["workloads"] == {"table": {"equal": 10, "pairs": 10},
                                 "exact": {"equal": 10, "pairs": 10},
                                 "ensemble": {"equal": 7, "pairs": 10}}
    with pytest.raises(SystemExit):  # trajectory files are never overwritten
        bench_record.main([f"x={tmp_path / 'a'}", "--out-dir", str(tmp_path)])


def test_main_prints_the_comparison_after_writing_identical_files(tmp_path, monkeypatch, capsys):
    walls = {"a": [100.0, 104.0, 96.0, 100.0], "b": [90.0, 92.0, 99.0, 99.0]}
    runs_of = Counter()

    def fake_run(cmd, cwd=None, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 128, "", "not a git repository")
        name, workload = Path(cwd).name, cmd[cmd.index("--workload") + 1]
        wall = walls[name][runs_of[name, workload]]  # every workload sees these runs
        runs_of[name, workload] += 1
        return subprocess.CompletedProcess(cmd, 0, result_line(wall, 40.0) + "\n",
                                           facts_line() + "\n")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    assert bench_record.main([f"base={tmp_path / 'a'}", f"new={tmp_path / 'b'}", "--runs", "4",
                              "--out-dir", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    base = json.loads((tmp_path / "BENCH_base.json").read_text())
    new = json.loads((tmp_path / "BENCH_new.json").read_text())
    lines = err[err.index(f"wrote {tmp_path / 'BENCH_new.json'}\n"):].splitlines()[1:]
    assert lines == bench_record.comparison_lines(base, new)
    # the file bytes are those of the documents the lines were made from
    for label, doc in (("base", base), ("new", new)):
        text = (tmp_path / f"BENCH_{label}.json").read_text()
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # three workloads x the three metrics both report (items_per_ref is not)
    assert len(lines) == 9
    # medians 100 and 95.5, q1/q3 of a at 99 and 101; b wins 3 rounds, loses 1
    assert ("table wall_refs (refs): base 100 (IQR 2) -> new 95.5 (-4.5%); "
            "wins 3, losses 1 of 4 pairs") in lines
    assert ("ensemble setup_s (s): base 0.03 (IQR 0) -> new 0.03 (+0.0%); "
            "wins 0, losses 0 of 4 pairs") in lines


def test_comparison_lines_skip_missing_metrics_and_zero_medians():
    def doc(label, metrics, wins=None):
        out = {"label": label, "workloads": {"exact": {"metrics": {
            name: {"unit": "s", "median": m, "iqr": 0.5} for name, m in metrics.items()}}}}
        if wins is not None:
            out["pair_wins"] = {"against": "a", "workloads": {"exact": wins}}
        return out

    tally = {"wins": 1, "losses": 0, "pairs": 1}
    first = doc("a", {"setup_s": 0.0, "wall_refs": 2.0})
    later = doc("b", {"setup_s": 0.1}, {"setup_s": tally, "wall_refs": tally})
    assert bench_record.comparison_lines(first, later) == [
        "exact setup_s (s): a 0 (IQR 0.5) -> b 0.1 (n/a); wins 1, losses 0 of 1 pairs"]


@pytest.mark.parametrize("out", ["missing", "a-file"])
def test_main_refuses_an_out_dir_that_is_not_a_directory_before_any_run(tmp_path, monkeypatch,
                                                                         capsys, out):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, result_line(1.0, 40.0) + "\n",
                                           facts_line() + "\n")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    (tmp_path / "a-file").write_text("")
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main([f"x={tmp_path}", "--runs", "1", "--out-dir", str(tmp_path / out)])
    assert exit_info.value.code == 2
    assert "not an existing directory" in capsys.readouterr().err
    assert calls == []  # no run started
