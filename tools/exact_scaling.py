"""Wall time and memory of the exact solvers, one solve per fresh process.

For each scheme of a fixed list, cyclic V/3 for V = 15..18 and the same
schemes with every server repeated 3 and 4 times (B = V, 3V, 4V), and each
solver, ``mdp_solve`` and the float forward DP (``exact_mean_download``) of
the random scheduler (``float``) and of the harmonic rank with lowest-index
ties (``harmonic``), two child processes each first run the solver on the
V = 8 scheme of the same kind, so that the code pages and numpy's buffers it
touches are already counted, then run one solve: the first times it, the
second traces it with ``tracemalloc``, so the wall time is untraced. Each
case prints one table row: the wall time, the growth of ``ru_maxrss`` over
that solve, the growth per state (bytes per 2^V subsets), the process's
``ru_maxrss`` after it, the ``tracemalloc`` peak of the solve and a SHA-256
of the result, so two checkouts' tables can be compared line by line.

    python3 tools/exact_scaling.py                       # this checkout's package
    python3 tools/exact_scaling.py --src ../parent/src   # another checkout's
    python3 tools/exact_scaling.py --V 15 16 --repeat 1 --solver mdp

The ``ru_maxrss`` growth of one and the same package moves by up to about
1 MiB with how its child is started (the ``--src`` path, the environment),
and between two packages with the heap layout their warm-ups leave; the
traced peak counts the solve's own allocations and moves with neither, so
compare two checkouts' memory by it.

The ``mdp`` digest covers, through the public API, the optimal value, the
reward-to-go of every ``MDP_STRIDE``-th mask and the decision bytes; the
``float`` and ``harmonic`` digests cover the repr of the mean and of both
per-level expectation tuples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVERS = ("mdp", "float", "harmonic")
WARM_V = 8
MDP_STRIDE = 61  # masks apart whose reward-to-go the mdp digest reads: every level, 2^V/61 reads
COLUMNS = ("solver", "V", "B", "wall_s", "rss_mib", "bytes_per_state", "peak_mib", "traced_mib",
           "sha256")


def build(V: int, repeat: int):
    """Cyclic V/3 with every server repeated ``repeat`` times: B = repeat * V."""
    from fragsched import build_scheme, cyclic_shift

    base = cyclic_shift(V, 3)
    B = base.B
    return build_scheme([{b + r * B for b in hosts for r in range(repeat)}
                         for hosts in base.occupancy])


def solve(solver: str, scheme):
    from fragsched import RandomWorkConserving, RankedPolicy, exact_mean_download, mdp_solve

    if solver == "mdp":
        return mdp_solve(scheme)
    policy = RandomWorkConserving() if solver == "float" else RankedPolicy("harmonic", tie="low")
    return exact_mean_download(scheme, policy, 1.0, exact=False)


def digest(solver: str, result) -> str:
    h = hashlib.sha256()
    if solver == "mdp":
        h.update(f"{result.optimal_value};".encode())
        for mask in range(0, 1 << result.V, MDP_STRIDE):
            h.update(f"{result.reward_to_go(mask)},".encode())
        h.update(result.decisions.tobytes())
    else:
        h.update(repr((result.mean, result.per_ell_useful,
                       result.per_ell_inverse_useful)).encode())
    return h.hexdigest()


def measure(solver: str, V: int, repeat: int, traced: bool = False) -> dict:
    """One solve in this process, after a V = 8 warm-up of the same kind:
    timed, with its ``ru_maxrss`` growth in KiB (Linux) and its digest, or,
    ``traced``, only its ``tracemalloc`` peak in bytes."""
    import gc
    import resource
    import time
    import tracemalloc

    solve(solver, build(WARM_V, repeat))
    scheme = build(V, repeat)
    gc.collect()
    if traced:
        tracemalloc.start()
        solve(solver, scheme)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"traced_bytes": peak}
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    result = solve(solver, scheme)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"solver": solver, "V": V, "B": scheme.B, "wall_s": wall,
            "rss_kib": after - before, "peak_kib": after, "sha256": digest(solver, result)}


def parse_child(stdout: str, returncode: int = 0, key: str = "rss_kib") -> dict | None:
    """The child's record from its last stdout line, or None if the child
    failed or printed no JSON object holding ``key``."""
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and key in doc else None


def row(record: dict) -> dict:
    """A table row: the growth in MiB and in bytes per state (2^V), the
    process's peak after the solve and the traced peak, both in MiB."""
    growth = record["rss_kib"] * 1024
    return {"solver": record["solver"], "V": record["V"], "B": record["B"],
            "wall_s": f"{record['wall_s']:.3f}", "rss_mib": f"{growth / 2**20:.2f}",
            "bytes_per_state": f"{growth / 2 ** record['V']:.0f}",
            "peak_mib": f"{record['peak_kib'] / 1024:.2f}",
            "traced_mib": f"{record['traced_bytes'] / 2**20:.3f}",
            "sha256": record["sha256"][:16]}


def format_table(rows: list[dict]) -> str:
    """``rows`` under a header, each column left-aligned to its widest cell."""
    cells = [list(COLUMNS)] + [[str(r[c]) for c in COLUMNS] for r in rows]
    widths = [max(len(line[i]) for line in cells) for i in range(len(COLUMNS))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
                     for line in cells) + "\n"


def run_child(src: Path, solver: str, V: int, repeat: int) -> dict | None:
    """The timed child's record with the traced child's peak added, or None
    if either child failed."""
    env = dict(os.environ, PYTHONPATH=str(src))
    record = {}
    for mode, key in (("time", "rss_kib"), ("trace", "traced_bytes")):
        proc = subprocess.run([sys.executable, __file__, "--child", solver, str(V), str(repeat),
                               mode], env=env, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        part = parse_child(proc.stdout, proc.returncode, key)
        if part is None:
            return None
        record.update(part)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory holding the fragsched package to measure")
    parser.add_argument("--V", type=int, nargs="+", default=[15, 16, 17, 18])
    parser.add_argument("--repeat", type=int, nargs="+", default=[1, 3, 4],
                        help="times each server of cyclic V/3 appears")
    parser.add_argument("--solver", choices=SOLVERS, nargs="+", default=list(SOLVERS))
    parser.add_argument("--child", nargs=4, metavar=("SOLVER", "V", "REPEAT", "MODE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        solver, V, repeat, mode = args.child
        print(json.dumps(measure(solver, int(V), int(repeat), traced=mode == "trace")))
        return 0
    rows, failed = [], 0
    for solver in args.solver:
        for repeat in args.repeat:
            for V in args.V:
                record = run_child(args.src.resolve(), solver, V, repeat)
                if record is None:
                    failed += 1
                    print(f"{solver} V={V} repeat={repeat}: failed", file=sys.stderr)
                else:
                    rows.append(row(record))
    sys.stdout.write(format_table(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
