"""Record a benchmark trajectory point: ``BENCH_<label>.json``.

Runs ``perfbench/run.py`` of one or more checkouts, each workload N times at
a fixed seed, and writes per checkout the median and quartiles of every
end-to-end metric, the result digests and the machine facts. With several
checkouts the runs are paired: each round runs every checkout once per
workload, and odd rounds reverse the order, so a slow spell of the machine
falls on both sides alike. Each later checkout's file also counts, per
workload and end-to-end metric, the rounds in which it beat the first
checkout, by the metric's ``better`` direction in ``BENCHMARK.json``; ties
count for neither side. It also counts, per workload, the rounds in which its
result digest equalled the first checkout's, so whether two checkouts compute
the same results is read from the file. After writing the files, the tool
prints on stderr one line per later checkout, workload and end-to-end metric:
the first checkout's median and IQR, the later one's median, the change in
percent, and the wins and losses.

    python3 tools/bench_record.py before=../parent after=. --runs 10 --seed 1 --seconds 30

writes ``BENCH_before.json`` and ``BENCH_after.json`` into ``--out-dir``
(default: the repository root), which must exist. The files are meant to be
committed and never overwritten, so the tool refuses to replace one. Both
checks run before the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table", "exact", "ensemble")
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy")


def parse_run(stdout: str, stderr: str, returncode: int = 0) -> dict:
    """One run's record from its output: the result line (the last line of
    stdout) and the facts line (the last JSON object on stderr that carries
    ``digest_sha256``)."""
    lines = stdout.strip().splitlines()
    result = _json_object(lines[-1]) if lines else {}
    facts = {}
    for line in stderr.splitlines():
        doc = _json_object(line)
        if "digest_sha256" in doc:
            facts = doc
    return {
        "returncode": returncode,
        "correct": bool(result.get("correct", False)),
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": {k: (v["value"], v["unit"]) for k, v in result.get("metrics", {}).items()},
        "digest": facts.get("digest_sha256"),
        "machine": {k: facts[k] for k in MACHINE_KEYS if k in facts},
        "loadavg_at_start": facts.get("loadavg_at_start"),
    }


def _json_object(line: str) -> dict:
    """``line`` as a JSON object, or {} if it is not one (a crash's output)."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return {}
    return doc if isinstance(doc, dict) else {}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(records: list[dict]) -> dict:
    """Median, quartiles and raw values of each end-to-end metric over the
    runs of one workload, with their digests and failure counts."""
    metrics = {}
    for name in sorted({m for r in records for m in r["metrics"]}):
        values = [r["metrics"][name][0] for r in records if name in r["metrics"]]
        unit = next(r["metrics"][name][1] for r in records if name in r["metrics"])
        q1, median, q3 = quartiles(values)
        metrics[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                         "iqr": q3 - q1, "values": values}
    return {
        "runs": len(records),
        "runs_failed": sum(1 for r in records if r["returncode"] != 0 or not r["correct"]),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "digests": sorted({r["digest"] for r in records if r["digest"]}),
        "loadavg_at_start": [r["loadavg_at_start"] for r in records],
        "metrics": metrics,
    }


def directions() -> dict[str, str]:
    """Each end-to-end metric's ``better`` direction in ``BENCHMARK.json``,
    ``lower`` or ``higher``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in doc["end_to_end"]}


def pair_wins(first: list[dict], later: list[dict], better: dict[str, str]) -> dict:
    """Per metric of ``better``, over the rounds where both runs report it:
    the rounds ``later`` won and lost against ``first`` (run i against run
    i), and how many rounds were compared."""
    out = {}
    for name, direction in sorted(better.items()):
        sign = 1 if direction == "higher" else -1
        diffs = [sign * (b["metrics"][name][0] - a["metrics"][name][0])
                 for a, b in zip(first, later) if name in a["metrics"] and name in b["metrics"]]
        out[name] = {"wins": sum(d > 0 for d in diffs), "losses": sum(d < 0 for d in diffs),
                     "pairs": len(diffs)}
    return out


def same_digest(first: list[dict], later: list[dict]) -> dict:
    """Over the rounds where both runs report a result digest: the rounds in
    which ``later``'s digest equalled ``first``'s (run i against run i), and
    how many rounds were compared."""
    pairs = [(a["digest"], b["digest"]) for a, b in zip(first, later)
             if a["digest"] and b["digest"]]
    return {"equal": sum(a == b for a, b in pairs), "pairs": len(pairs)}


def bench_doc(label: str, version: str | None, command: list[str], paired_with: list[str],
              by_workload: dict[str, list[dict]], against_first: dict | None = None) -> dict:
    """The ``BENCH_<label>.json`` document of one checkout; ``against_first``,
    if given, holds its ``pair_wins`` and ``same_digest`` fields against the
    first checkout."""
    machine = next((r["machine"] for recs in by_workload.values() for r in recs if r["machine"]),
                   {})
    doc = {
        "label": label,
        "version": version,
        "command": command,
        "paired_with": paired_with,
        "machine": machine,
        "workloads": {w: summarize(recs) for w, recs in by_workload.items()},
    }
    doc.update(against_first or {})
    return doc


def comparison_lines(first: dict, later: dict) -> list[str]:
    """One line per workload (in ``WORKLOADS`` order) and end-to-end metric
    that both ``BENCH_*.json`` documents report: ``first``'s median and IQR,
    ``later``'s median, the change in percent of ``first``'s median, and
    ``later``'s wins and losses from its ``pair_wins``."""
    lines = []
    by_workload = later["pair_wins"]["workloads"]
    for workload in [w for w in WORKLOADS if w in by_workload]:
        wins = by_workload[workload]
        before = first["workloads"][workload]["metrics"]
        after = later["workloads"][workload]["metrics"]
        for name, count in wins.items():
            if name not in before or name not in after:
                continue
            a, b = before[name], after[name]
            change = (f"{100 * (b['median'] - a['median']) / a['median']:+.1f}%"
                      if a["median"] else "n/a")
            lines.append(
                f"{workload} {name} ({a['unit']}): {first['label']} {a['median']:.4g} "
                f"(IQR {a['iqr']:.3g}) -> {later['label']} {b['median']:.4g} ({change}); "
                f"wins {count['wins']}, losses {count['losses']} of {count['pairs']} pairs")
    return lines


def bench_command(workload: str, seed: int, seconds: float) -> list[str]:
    """The command that measures ``workload`` in a checkout."""
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(bench_command(workload, seed, seconds), cwd=checkout,
                          capture_output=True, text=True, check=False)
    return parse_run(proc.stdout, proc.stderr, proc.returncode)


def git_version(checkout: Path) -> str | None:
    """The checkout's commit, suffixed ``-dirty`` if its tracked files differ
    from it; None outside a git work tree."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty",
                           "--abbrev=12"], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def parse_target(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=CHECKOUT, got {text!r}")
    return label, Path(path).resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", type=parse_target, metavar="LABEL=CHECKOUT")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and checkout")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    labels = [label for label, _ in args.targets]
    if len(set(labels)) != len(labels):
        parser.error("labels must differ")
    if not args.out_dir.is_dir():
        parser.error(f"--out-dir {args.out_dir} is not an existing directory")
    outs = {label: args.out_dir / f"BENCH_{label}.json" for label in labels}
    for path in outs.values():
        if path.exists():
            parser.error(f"{path} exists; trajectory files are never overwritten")

    records = {label: {w: [] for w in WORKLOADS} for label in labels}
    for r in range(args.runs):
        order = args.targets if r % 2 == 0 else args.targets[::-1]
        for workload in WORKLOADS:
            for label, checkout in order:
                rec = run_once(checkout, workload, args.seed, args.seconds)
                records[label][workload].append(rec)
                wall = rec["metrics"].get("wall_refs", (float("nan"),))[0]
                print(f"round {r} {workload} {label}: wall_refs={wall:.1f} "
                      f"failed={rec['failed']} exit={rec['returncode']}", file=sys.stderr)

    command = bench_command("W", args.seed, args.seconds)
    better = directions()
    first = labels[0]
    docs = {}
    for label, checkout in args.targets:
        against_first = None
        if label != first:
            against_first = {
                "pair_wins": {"against": first, "workloads": {
                    w: pair_wins(records[first][w], records[label][w], better) for w in WORKLOADS}},
                "same_digest": {"against": first, "workloads": {
                    w: same_digest(records[first][w], records[label][w]) for w in WORKLOADS}},
            }
        doc = bench_doc(label, git_version(checkout), command,
                        [other for other in labels if other != label], records[label],
                        against_first)
        outs[label].write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {outs[label]}", file=sys.stderr)
        docs[label] = doc
    for label in labels[1:]:
        for line in comparison_lines(docs[first], docs[label]):
            print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
