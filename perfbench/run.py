"""Benchmark for fragsched: three workloads, one JSON result line each.

Run from the repository root:

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0

``--workload`` is ``table``, ``exact``, ``ensemble`` or ``all`` (each of the
three in its own child process, one after the other). ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics and writes the spans to
``perfbench/out/``. The last line of standard output is the JSON result;
machine facts, the result digest and any failed check go to standard error.

Workloads, and why each was chosen:

* ``table``: the 15-row reproduction matrix (order-11 projective plane and
  133-fragment cyclic scheme, ``mu = 1e-5``, one process), with the reference
  tolerance and ordering checks of ``fragsched reproduce table-download-times``,
  then two doubling ladders to a 0.5% CI half-width. The jump chain, the
  Philox streams and the ranked decisions do the work; ``mdp`` does none.
* ``exact``: ``mdp_solve`` on the affine plane of order 3 (V=9) and cyclic
  10/3, the float forward DP on cyclic 10/4, exact rational evaluation of the
  harmonic and the MDP policy on the affine plane, and the two appendix means,
  repeated; plus one ``mdp_solve`` on cyclic 15/3 per run for the memory
  high-water mark. The subset DP does the work and Monte Carlo none; memory
  matters here. The repeated calls are small (0.02-0.15 s) because the
  machine's speed changes within a call that lasts seconds, where the
  references around it cannot follow (see Timing).
* ``ensemble``: ``ensemble_monte_carlo`` for both placement kinds and both
  download-order modes at two sizes, through the two-worker process pool that
  ``table`` bypasses.

End-to-end metrics, printed by every workload:

* ``setup_s``: building the schemes, placement orders, policies and bound
  profiles (``table``, ``exact``) or the closed-form expectations
  (``ensemble``).
* ``wall_refs``: one pass of the workload's work, in units of
  ``reference_loop``. ``table``: the 1,000-run matrix plus the runs both
  ladders spend, each priced at its row's per-run cost. ``exact``: one call
  of each repeated unit. ``ensemble``: one call of each configuration.
* ``items_per_ref``: Monte Carlo runs of the matrix (``table``), subset-DP
  states solved by ``mdp_solve`` (``exact``) or ensemble samples
  (``ensemble``) per ``reference_loop``.
* ``peak_rss_mib``: the process's memory high-water mark.

Timing. The machines this runs on are small and shared: back-to-back calls of
one fixed piece of work alternate between two speeds about 1.8x apart, for
seconds at a time, and the share of slow time drifts over minutes. So every
workload repeats units of work of 0.02-0.8 s across the whole run,
interleaved, and ``reference_loop``, a fixed 10 ms job, runs between every
two units. A unit's cost is the median over its repetitions of its time
divided by the mean of the two reference times around it (``paired_cost``):
the references ran at the speed the unit ran at. On a 2-vCPU VM this cut the
run-to-run spread of the matrix time from 13% (fastest repetition over
fastest reference) to 5%. A time that is built from several units adds their
costs. Per-layer times are these costs at the fastest reference time
(``fast_cost``). The set-up time must stay in seconds, so it is the fastest
of its repetitions after the first, each made between two units as a user's
set-up follows other work: its median moved by a third between two sets of
runs as the share of slow spells drifted, its fastest repetition by a few
percent. Counts (states, runs to the target CI) are exact.

Spans are recorded only around this file's calls into the package's public
functions, never inside the package. In ``--trace 1`` runs, even rounds are
traced and odd rounds are not; the difference between the two gives
``trace_overhead_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("table", "exact", "ensemble")

# Layers named in the per-layer metrics; ``model``, ``schemefile``, ``errors``
# and ``cli`` do no measurable work in these workloads.
LAYERS = ("engine", "rng", "mdp", "constructions", "scheduling", "analytics")

# ---------------------------------------------------------------------------
# Statistics, spans and failure counting (pure; covered by test_run.py)


def fast_cost(values) -> float:
    """The fastest of the repetitions: the reference loop's time and the
    set-up time at the machine's fast speed."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return min(values)


def paired_cost(samples) -> float:
    """The median, over the repetitions of a unit, of its time divided by the
    mean of the ``reference_loop`` times just before and just after it.

    ``samples`` holds (seconds, reference before, reference after). The
    machine's speed changes over seconds, so the two references ran at the
    speed the unit ran at, and the ratio cancels it.
    """
    ratios = [d / ((before + after) / 2) for d, before, after in samples]
    if not ratios:
        raise ValueError("no samples")
    return statistics.median(ratios)


def ladder_reached(mean: float, stderr: float | None, target: float) -> bool:
    """The ladder stop rule: the 95% CI half-width is at most target * mean."""
    return stderr is not None and 1.96 * stderr <= target * mean


def run_ladder(call, start: int, target: float, max_runs: int):
    """Call ``call(runs)`` for runs = start, 2*start, ... until the returned
    summary meets ``ladder_reached`` or ``max_runs`` is passed.

    Returns (rung sizes, last summary, reached). ``call`` returns an object
    with ``mean_download_time`` and ``stderr``, or None if the call failed.
    """
    rungs: list[int] = []
    runs = start
    summary = None
    while runs <= max_runs:
        rungs.append(runs)
        summary = call(runs)
        if summary is None:
            return rungs, None, False
        if ladder_reached(summary.mean_download_time, summary.stderr, target):
            return rungs, summary, True
        runs *= 2
    return rungs, summary, False


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str


class Tracer:
    """Spans kept in memory; a disabled tracer records nothing."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        now = time.perf_counter()
        self.spans.append(Span(name, now, now, parent, request))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer (the span name up to its first dot), the summed span
    durations minus the parts of each span that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        inner = [(max(c.start, s.start), min(c.end, s.end)) for c in children[i]]
        out[s.name.split(".", 1)[0]] += (s.end - s.start) - _covered(inner)
    return dict(out)


class Tally:
    """Operations and checks attempted, and failures per layer."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()

    def check(self, layer: str, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors[layer] += 1
            print(f"perfbench: check failed [{layer}]: {what}", file=sys.stderr)
        return ok

    def call(self, layer: str, fn, *args, **kwargs):
        """Run one operation; return (result, ok). An exception counts as a
        failure of ``layer``."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs), True
        except Exception:  # the benchmark keeps running and reports the failure
            self.failed += 1
            self.errors[layer] += 1
            print(f"perfbench: {layer} call {fn.__name__} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None, False


# ---------------------------------------------------------------------------
# The measuring loop


class Bench:
    """Times units of work, records spans and counts failures for one run."""

    def __init__(self, trace: bool, seconds: float, setup) -> None:
        self.trace = trace
        self.seconds = seconds
        self.tracer = Tracer()
        self.tally = Tally()
        # key -> [(seconds, traced, index in ``refs`` of the reference before)]
        self.samples: dict[str, list[tuple[float, bool, int]]] = defaultdict(list)
        self.refs: list[float] = []  # reference_loop times, in the order run
        self._setup_fn = setup
        self._last_setup = 0.0
        self._setup_dt = 0.0
        self._setup_reps = 0
        self.state = None

    def timed(self, key: str, fn, *args, span: str | None = None, request: str = "", **kwargs):
        """Call fn once, record its wall time under ``key``; None on failure."""
        name = span or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        t0 = time.perf_counter()
        with self.tracer.span(name, request or key):
            result, ok = self.tally.call(name.split(".", 1)[0], fn, *args, **kwargs)
        dt = time.perf_counter() - t0
        if ok:
            self.samples[key].append((dt, self.tracer.enabled, len(self.refs) - 1))
        return result

    def reference(self) -> None:
        t0 = time.perf_counter()
        with self.tracer.span("bench.reference", "reference"):
            reference_loop()
        self.refs.append(time.perf_counter() - t0)

    def cost(self, key: str, traced: bool | None = None) -> float:
        """``paired_cost`` of ``key``, in reference loops (optionally over only
        the traced or untraced repetitions)."""
        last = len(self.refs) - 1
        return paired_cost((d, self.refs[i], self.refs[min(i + 1, last)])
                           for d, t, i in self.samples[key] if traced is None or t == traced)

    def cost_s(self, key: str, traced: bool | None = None) -> float:
        """``cost`` in seconds, at the reference loop's fastest time."""
        return self.cost(key, traced) * fast_cost(self.refs)

    def fast_s(self, key: str) -> float:
        """``fast_cost`` of the seconds recorded under ``key``."""
        return fast_cost(d for d, _, _ in self.samples[key])

    def has(self, key: str) -> bool:
        return bool(self.samples.get(key))

    def setup_rep(self, request: str) -> None:
        """One repetition of the workload's set-up. The first builds the state
        the units use and pays one-time costs (imports, first calls), so it
        is not recorded; each later one puts its total under ``setup`` and
        its per-layer totals under ``setup.<layer>``."""
        before = {k: len(v) for k, v in self.samples.items()}
        t0 = time.perf_counter()
        with self.tracer.span("bench.setup", request):
            state = self._setup_fn(self)
        dt = time.perf_counter() - t0
        per_layer: dict[str, float] = defaultdict(float)
        for key in [k for k in self.samples if k.startswith("setup.")]:
            new = self.samples[key][before.get(key, 0):]
            del self.samples[key][before.get(key, 0):]
            per_layer[key] += sum(d for d, _, _ in new)
        self._last_setup = time.perf_counter()
        self._setup_dt = dt
        if self._setup_reps:
            for key, total in per_layer.items():
                self.samples[key].append((total, self.tracer.enabled, -1))
            self.samples["setup"].append((dt, self.tracer.enabled, -1))
        else:
            self.state = state
        self._setup_reps += 1

    def run(self, round_units, min_rounds: int) -> int:
        """Run rounds of units until ``seconds`` have passed and at least
        ``min_rounds`` rounds are complete; return the complete rounds.

        ``round_units(r)`` lists (key, thunk) pairs. Past ``min_rounds`` a
        unit starts only if its last time still fits before the deadline.
        ``reference_loop`` runs before the first unit and after every unit.
        The set-up runs once first and then again between two units whenever
        a quarter of a second, or twenty set-up times if that is longer, has
        passed since it last ran, and once more at the end if it has not.
        """
        self.tracer.enabled = self.trace
        self.setup_rep("setup#0")
        self.reference()
        rounds = self._rounds(round_units, min_rounds)
        if not self.has("setup"):
            self.setup_rep("setup@end")
        return rounds

    def _rounds(self, round_units, min_rounds: int) -> int:
        deadline = time.perf_counter() + self.seconds
        r = 0
        while True:
            self.tracer.enabled = self.trace and r % 2 == 0
            with self.tracer.span("bench.round", f"round#{r}"):
                for key, thunk in round_units(r):
                    now = time.perf_counter()
                    if r >= min_rounds:
                        last = self.samples[key][-1][0] if self.has(key) else 0.0
                        if now + last > deadline:
                            return r
                    if now - self._last_setup >= max(0.25, 20 * self._setup_dt):
                        self.setup_rep(f"setup@round#{r}")
                    thunk()
                    self.reference()
            r += 1
            if r >= min_rounds and time.perf_counter() >= deadline:
                return r

    def trace_overhead(self, keys) -> float:
        """(traced - untraced) / untraced, over the units timed both ways."""
        both = [k for k in keys
                if any(t for _, t, _ in self.samples[k]) and any(not t for _, t, _ in self.samples[k])]
        if not both:
            return 0.0
        traced = sum(self.cost(k, True) for k in both)
        untraced = sum(self.cost(k, False) for k in both)
        return (traced - untraced) / untraced


def reference_loop() -> Fraction:
    """A fixed pure-Python job that shares no code with fragsched: dict and
    list churn with integer and rational arithmetic, the mix the workloads
    run. Its time is the run's unit of machine speed."""
    values = {}
    for mask in range(1 << 11):
        values[mask] = Fraction(mask % 7, 1 + mask % 5) + Fraction(1, 1 + mask.bit_count())
    counts = [0] * 64
    for i in range(20_000):
        counts[(i * 7919) % 64] += i & 3
    return sum(values.values(), start=Fraction(sum(counts)))


def derive_seed(*parts) -> int:
    """A 63-bit master seed that is a pure function of ``parts``."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def setup_call(bench: Bench, fn, *args, **kwargs):
    """A timed set-up call, filed under ``setup.<layer>``."""
    layer = fn.__module__.rsplit(".", 1)[-1]
    return bench.timed(f"setup.{layer}", fn, *args, **kwargs)


def metric_name(row: str) -> str:
    """Row label as a metric-name suffix: pp/harmonic-ud+pushback ->
    pp_harmonic_ud_pushback."""
    return row.replace("/", "_").replace("-", "_").replace("+", "_")


# ---------------------------------------------------------------------------
# Workload: table

MU = 1e-5
# Each monte_carlo call pays a fixed 1.5-2.4 ms (four tasks that each build
# the run-time tables, then the numpy reduction): 1-2.5% of a 250-run chunk,
# against 0.3-0.6% of the single 1,000-run call ``reproduce`` makes per row.
CHUNK_RUNS = 250
MATRIX_ROUNDS = 4           # 4 chunks of 250 runs: 1,000 runs per row
LADDER_SEED = 20260809      # fixed, so the runs to the target are an exact count
LADDER_START = 250
LADDER_MAX = 64_000
TARGET_REL_HALF_WIDTH = 0.005
LADDERS = {"pp_harmonic_ud": "pp/harmonic-ud", "cyclic_ud": "cyclic/ud"}


def table_setup(bench: Bench):
    from fragsched import analytics, constructions, scheduling
    from fragsched.cli import REFERENCE_MEANS

    schemes = {
        "pp": setup_call(bench, constructions.projective_plane, 11, mu=MU),
        "cyclic": setup_call(bench, constructions.cyclic_shift, 133, 12, mu=MU),
    }
    orders, envelopes = {}, {}
    for key, scheme in schemes.items():
        sif = setup_call(bench, scheduling.smallest_index_first, scheme)
        ud = setup_call(bench, scheduling.uniform_diversity, scheme)
        orders[key] = {
            "sif": sif,
            "ud": ud,
            "sif+pushback": setup_call(bench, scheduling.pushback, sif, scheme, 1),
            "ud+pushback": setup_call(bench, scheduling.pushback, ud, scheme, 1),
        }
        envelopes[key] = setup_call(bench, analytics.bound_envelope, scheme)
    rows = {}
    for name in REFERENCE_MEANS:
        key, spec = name.split("/", 1)
        rank, base = spec.split("-", 1) if spec.startswith(("harmonic-", "greedy-")) else (None, spec)
        base = "sif+pushback" if base == "pushback" else base
        order = orders[key][base]
        policy = (scheduling.RankedPolicy(rank=rank, tie="low", init_order=order) if rank
                  else scheduling.NonadaptivePolicy(order))
        rows[name] = (key, schemes[key], policy)
    return SimpleNamespace(schemes=schemes, envelopes=envelopes, rows=rows)


def _probe(fn, n: int, *args):
    for i in range(n):
        fn(*args, i)


def _draws(gen_fn, rng, n: int, V: int):
    gen = gen_fn(0)
    for _ in range(n):
        rng.standard_exponentials(gen, V)
        rng.bounded_picks(gen, V)


def _simulate(fn, scheme, policy, run_stream, n: int):
    for i in range(n):
        fn(scheme, policy, MU, run_stream(LADDER_SEED, i))


def workload_table(bench: Bench, seed: int):
    from fragsched import engine, rng
    from fragsched.cli import ACCEPTANCE_ROWS, REFERENCE_MEANS, TABLE_TOLERANCE

    chunks: dict[str, list] = defaultdict(list)  # row -> summaries in round order
    ladders = {}

    def ladder(label: str) -> None:
        _, scheme, policy = bench.state.rows[LADDERS[label]]

        def call(runs):
            cfg = engine.SimulationConfig(scheme, policy, MU, runs, LADDER_SEED)
            return bench.timed(f"ladder:{label}:{runs}", engine.monte_carlo, cfg,
                               request=f"{label}:{runs}")

        ladders[label] = run_ladder(call, LADDER_START, TARGET_REL_HALF_WIDTH, LADDER_MAX)

    def round_units(r):
        units = []
        round_seed = derive_seed("table", seed, r)  # shared by all rows: common random numbers
        for name, (_, scheme, policy) in bench.state.rows.items():
            def chunk(name=name, scheme=scheme, policy=policy):
                cfg = engine.SimulationConfig(scheme, policy, MU, CHUNK_RUNS, round_seed)
                s = bench.timed(f"row:{name}", engine.monte_carlo, cfg, request=f"{name}#{r}")
                if s is not None:
                    chunks[name].append((r, s))
            units.append((f"row:{name}", chunk))
        if r == 0:
            units += [(f"ladder:{label}", lambda label=label: ladder(label)) for label in LADDERS]
        if bench.trace:
            pp, pol = bench.state.schemes["pp"], bench.state.rows["pp/harmonic-ud"][2]
            units += [
                ("probe:rng.stream", lambda: bench.timed(
                    "probe:rng.stream", _probe, rng.stream, 200, seed, rng.DOMAIN_RUN,
                    span="rng.stream")),
                ("probe:rng.draw", lambda: bench.timed(
                    "probe:rng.draw", _draws, lambda i: rng.stream(seed, rng.DOMAIN_RUN, i),
                    rng, 50, pp.V, span="rng.draw")),
                ("probe:simulate_run", lambda: bench.timed(
                    "probe:simulate_run", _simulate, engine.simulate_run, pp, pol,
                    engine.run_stream, 5, span="engine.simulate_run")),
                ("probe:simulate_run_clocks", lambda: bench.timed(
                    "probe:simulate_run_clocks", _simulate, engine.simulate_run_clocks, pp, pol,
                    engine.run_stream, 2, span="engine.simulate_run_clocks")),
            ]
        return units

    rounds = bench.run(round_units, MATRIX_ROUNDS)
    tally = bench.tally
    rows = bench.state.rows

    # Checks, over the rounds every row completed (rows share each round's seed).
    complete = {r for r in range(rounds) if all(any(rr == r for rr, _ in chunks[n]) for n in rows)}
    means = {}
    for name, (key, scheme, _) in rows.items():
        used = [s for r, s in chunks[name] if r in complete]
        if not used:
            continue
        means[name] = statistics.fmean(s.mean_download_time for s in used)
        env = bench.state.envelopes[key]
        tally.check("analytics", all((s.min_profile >= env.lower).all()
                                     and (s.max_profile <= env.upper).all() for s in used),
                    f"{name}: useful-server profile outside the bound envelope")
        if name in ACCEPTANCE_ROWS:
            ref = REFERENCE_MEANS[name]
            tally.check("engine", abs(means[name] - ref) <= TABLE_TOLERANCE * ref,
                        f"{name}: mean {means[name]:.2f} vs reference {ref:.2f}")
    if {"pp/ud+pushback", "cyclic/ud", "pp/harmonic-ud"} <= means.keys():
        tally.check("engine", means["pp/ud+pushback"] < means["cyclic/ud"],
                    "ordering: design-based did not beat cyclic")
        tally.check("engine", means["pp/harmonic-ud"] <= means["pp/ud+pushback"],
                    "ordering: adaptive did not improve on nonadaptive")
    else:
        tally.check("engine", False, "ordering: a compared row has no complete round")
    for label, (rungs, summary, reached) in ladders.items():
        ref = REFERENCE_MEANS[LADDERS[label]]
        tally.check("engine", reached and abs(summary.mean_download_time - ref)
                    <= TABLE_TOLERANCE * ref,
                    f"ladder {label}: target not reached within {LADDER_MAX} runs or mean off")
    tally.check("engine", set(ladders) == set(LADDERS), "a ladder did not run")

    digest = hashlib.sha256()
    for name in rows:
        for r, s in chunks[name]:
            if r < MATRIX_ROUNDS:
                digest.update(_summary_bytes(name, r, s))
    for label, (rungs, summary, _) in sorted(ladders.items()):
        if summary is not None:
            digest.update(_summary_bytes(label, rungs[-1], summary))

    # per-run costs in reference loops
    per_run = {name: bench.cost(f"row:{name}") / CHUNK_RUNS for name in rows if bench.has(f"row:{name}")}
    matrix = sum(per_run.values()) * CHUNK_RUNS * MATRIX_ROUNDS
    ladder_runs = {label: sum(rungs) for label, (rungs, _, _) in ladders.items()}
    ladder = sum(ladder_runs[label] * per_run[LADDERS[label]] for label in ladders
                 if LADDERS[label] in per_run)
    e2e = {
        "wall_refs": matrix + ladder,
        "items_per_ref": len(per_run) * CHUNK_RUNS * MATRIX_ROUNDS / matrix if matrix else 0.0,
    }

    layer = {}
    if bench.trace:
        V = bench.state.schemes["pp"].V
        us = fast_cost(bench.refs) * 1e6  # one reference loop in microseconds
        for name, cost in per_run.items():
            V_row = rows[name][1].V
            layer[f"engine.run_us.{metric_name(name)}"] = (cost * us, "us")
            layer[f"engine.step_us.{metric_name(name)}"] = (cost * us / V_row, "us")
        for rank in ("harmonic", "greedy"):
            adaptive = per_run.get(f"pp/{rank}-ud")
            if adaptive is not None and "pp/ud" in per_run:
                layer[f"engine.decision_us.{rank}"] = ((adaptive - per_run["pp/ud"]) * us / V, "us")
        spent = final = 0
        for label, (rungs, _, _) in ladders.items():
            layer[f"engine.runs_to_ci.{label}"] = (rungs[-1], "count")
            layer[f"engine.time_to_ci_s.{label}"] = (
                sum(bench.cost_s(f"ladder:{label}:{n}") for n in rungs), "s")
            spent += sum(rungs)
            final += rungs[-1]
        if spent:
            layer["engine.ladder_useful_frac"] = (final / spent, "ratio")
        for key, metric, per in (("probe:rng.stream", "rng.stream_us", 200),
                                 ("probe:rng.draw", "rng.draw_us", 50),
                                 ("probe:simulate_run", "engine.simulate_run_us", 5),
                                 ("probe:simulate_run_clocks", "engine.clock_run_us", 2)):
            if bench.has(key):
                layer[metric] = (bench.cost_s(key) * 1e6 / per, "us")
        layer["trace_overhead_frac"] = (bench.trace_overhead(f"row:{n}" for n in rows), "ratio")
    return e2e, layer, digest.hexdigest()


def _summary_bytes(label, index, s) -> bytes:
    fields = (label, index, s.runs, s.master_seed, repr(s.mean_download_time), repr(s.stderr),
              repr(s.normalized_aggregate), s.min_trajectory_aggregate, s.max_trajectory_aggregate,
              s.mean_profile.tobytes().hex())
    return "|".join(str(f) for f in fields).encode()


# ---------------------------------------------------------------------------
# Workload: exact


def exact_setup(bench: Bench):
    from fragsched import analytics, constructions, model, scheduling

    schemes = {
        "affine3": setup_call(bench, constructions.affine_plane, 3),
        "cyclic10": setup_call(bench, constructions.cyclic_shift, 10, 3),
        "cyclic10r4": setup_call(bench, constructions.cyclic_shift, 10, 4),
        MEMORY_SCHEME: setup_call(bench, constructions.cyclic_shift, 15, 3),
        # the appendix's two 4-fragment schemes, 21/16 and 11/8
        "ring": setup_call(bench, model.build_scheme, [{1, 4}, {1, 2}, {2, 3}, {3, 4}]),
        "paired": setup_call(bench, model.build_scheme, [{1, 3}, {2, 4}, {1, 3}, {2, 4}]),
    }
    envelope = setup_call(bench, analytics.bound_envelope, schemes[DESIGN])
    policies = {"harmonic": scheduling.RankedPolicy(rank="harmonic", tie="low"),
                "random": scheduling.RandomWorkConserving()}
    return SimpleNamespace(schemes=schemes, envelope=envelope, policies=policies)


APPENDIX = {"ring": Fraction(21, 16), "paired": Fraction(11, 8)}
DESIGN = "affine3"              # the 2-design whose MDP policy is evaluated exactly
TIMED_MDP = (DESIGN, "cyclic10")
MEMORY_SCHEME = "cyclic15"      # solved once per run: 32,768 stored states
MDP_SCHEMES = TIMED_MDP + (MEMORY_SCHEME,)


def workload_exact(bench: Bench, seed: int):
    # The exact workload has no random inputs: the seed changes nothing.
    from fragsched import engine, mdp, scheduling

    out: dict[str, object] = {}
    tally = bench.tally

    def appendix(name):
        res = bench.timed(f"appendix:{name}", engine.exact_mean_download,
                          bench.state.schemes[name], bench.state.policies["random"], 1.0, exact=True)
        if res is not None:
            out[f"appendix:{name}"] = res.mean
            tally.check("engine", res.mean == APPENDIX[name],
                        f"appendix {name}: {res.mean} != {APPENDIX[name]}")

    def solve(name):
        out.pop(f"solve:{name}", None)  # so a repeated solve does not hold two tables
        sol = bench.timed(f"solve:{name}", mdp.mdp_solve, bench.state.schemes[name])
        if sol is not None:
            V = bench.state.schemes[name].V
            out[f"states:{name}"] = len(sol.values)
            out[f"value:{name}"] = sol.optimal_value
            if name == DESIGN:
                out[f"solve:{name}"] = sol
            tally.check("mdp", len(sol.values) == 2 ** V,
                        f"mdp_solve {name}: {len(sol.values)} states, want {2 ** V}")

    def evaluate(label):
        sol = out.get(f"solve:{DESIGN}")
        if label == "mdp" and sol is None:
            tally.check("mdp", False, f"no {DESIGN} MDP solution to evaluate")
            return
        policy = scheduling.MdpPolicy(sol) if label == "mdp" else bench.state.policies[label]
        ev = bench.timed(f"eval:{label}", mdp.policy_evaluate_exact, bench.state.schemes[DESIGN], policy)
        if ev is None:
            return
        out[f"eval:{label}"] = (ev.aggregate_reward, ev.per_ell_useful, ev.per_ell_inverse_useful)
        env = bench.state.envelope
        tally.check("analytics", all(int(env.lower[i]) <= x <= int(env.upper[i])
                                     for i, x in enumerate(ev.per_ell_useful)),
                    f"{DESIGN} {label}: expected useful counts outside the bound envelope")
        if sol is not None and label == "mdp":
            tally.check("mdp", ev.aggregate_reward == sol.optimal_value,
                        f"{DESIGN}: the MDP policy's exact reward differs from the optimal value")
        elif sol is not None:
            tally.check("mdp", ev.aggregate_reward <= sol.optimal_value,
                        f"{DESIGN}: harmonic beats the optimal value")

    def float_vs_rational():
        res = bench.timed(f"float:{DESIGN}", engine.exact_mean_download, bench.state.schemes[DESIGN],
                          bench.state.policies["harmonic"], 1.0, exact=False)
        ev = out.get("eval:harmonic")
        if res is None or ev is None:
            tally.check("engine", False, f"{DESIGN} float-vs-rational: an input is missing")
            return
        want = sum(ev[2], start=Fraction(0))
        out[f"float:{DESIGN}"] = res.mean
        tally.check("engine", abs(res.mean - float(want)) <= 1e-12 * float(want),
                    f"{DESIGN} float mean {res.mean!r} vs rational {want}")

    def exact_cyclic(label):
        res = bench.timed(f"exact:{label}", engine.exact_mean_download, bench.state.schemes["cyclic10r4"],
                          bench.state.policies[label], 1.0, exact=False)
        if res is not None:
            out[f"exact:{label}"] = res.mean
            jensen = engine.mean_download_lower_bound(res.per_ell_useful, 1.0)
            tally.check("engine", res.mean >= jensen * (1 - 1e-12),
                        f"cyclic10r4 {label}: mean {res.mean} below the Jensen bound {jensen}")

    units = [
        ("appendix:ring", lambda: appendix("ring")),
        ("appendix:paired", lambda: appendix("paired")),
        (f"solve:{DESIGN}", lambda: solve(DESIGN)),
        ("eval:harmonic", lambda: evaluate("harmonic")),
        ("eval:mdp", lambda: evaluate("mdp")),
        (f"float:{DESIGN}", float_vs_rational),
        ("solve:cyclic10", lambda: solve("cyclic10")),
        ("exact:random", lambda: exact_cyclic("random")),
        ("exact:harmonic", lambda: exact_cyclic("harmonic")),
    ]
    memory = (f"solve:{MEMORY_SCHEME}", lambda: solve(MEMORY_SCHEME))
    bench.run(lambda r: [memory] + units if r == 0 else units, 1)

    digest = hashlib.sha256()
    for key in sorted(k for k in out if not k.startswith("solve:")):
        digest.update(f"{key}={out[key]!r}".encode())

    keys = [k for k, _ in units]
    solve = sum(bench.cost(f"solve:{n}") for n in TIMED_MDP if bench.has(f"solve:{n}"))
    states = sum(out.get(f"states:{n}", 0) for n in TIMED_MDP)
    e2e = {
        # the once-per-run memory solve is left out: a single multi-second
        # call gives no median
        "wall_refs": sum(bench.cost(k) for k in keys if bench.has(k)),
        "items_per_ref": states / solve if solve else 0.0,
    }
    layer = {}
    if bench.trace:
        for n in MDP_SCHEMES:
            if bench.has(f"solve:{n}"):
                count = out[f"states:{n}"]
                cost = bench.cost_s(f"solve:{n}")
                layer[f"mdp.solve_s.{n}"] = (cost, "s")
                layer[f"mdp.states.{n}"] = (count, "count")
                layer[f"mdp.us_per_state.{n}"] = (cost * 1e6 / count, "us")
        for label in ("harmonic", "mdp"):
            if bench.has(f"eval:{label}"):
                layer[f"mdp.eval_s.{label}"] = (bench.cost_s(f"eval:{label}"), "s")
        for label in ("random", "harmonic"):
            if bench.has(f"exact:{label}"):
                layer[f"engine.exact_s.{label}"] = (bench.cost_s(f"exact:{label}"), "s")
        layer["trace_overhead_frac"] = (bench.trace_overhead(keys), "ratio")
    return e2e, layer, digest.hexdigest()


# ---------------------------------------------------------------------------
# Workload: ensemble

# Each call opens and closes a two-worker pool, a fixed 18-26 ms; at these
# sample counts that is 3-12% of a call, so sampling dominates.
ENSEMBLE_SIZES = ((20, 50, 5, 2000), (100, 200, 3, 400))  # B, V, R, samples per call
ENSEMBLE_THREADS = 2
ENSEMBLE_Z = 4.0


def _configs():
    return [(kind, mode, B, V, R, n) for B, V, R, n in ENSEMBLE_SIZES
            for kind in ("rep", "mds") for mode in ("server", "fragment")]


def _config_name(kind, mode, B) -> str:
    return f"{kind}-{mode}.B{B}"


def ensemble_setup(bench: Bench):
    # the closed-form expectations ``fragsched ensemble`` reports with a run
    from fragsched import analytics

    expected = {}
    for B, V, R, _ in ENSEMBLE_SIZES:
        expected[("rep", B)] = setup_call(bench, analytics.random_rep_expected, B, V, R)
        expected[("mds", B)] = setup_call(bench, analytics.random_mds_expected, B, V, R)
    return expected


def workload_ensemble(bench: Bench, seed: int):
    import numpy as np
    from fragsched import constructions, engine

    results: dict[str, list] = defaultdict(list)

    def call(cfg, r, threads):
        kind, mode, B, V, R, n = cfg
        name = _config_name(kind, mode, B)
        key = f"{'t1' if threads == 1 else 'cfg'}:{name}"
        s = bench.timed(key, engine.ensemble_monte_carlo, B, V, R, kind, mode, n,
                        derive_seed("ensemble", seed, name, r), threads=threads,
                        request=f"{name}#{r}")
        if s is not None and threads == ENSEMBLE_THREADS:
            results[name].append((r, s))

    def round_units(r):
        units = [(f"cfg:{_config_name(*c[:3])}", lambda c=c: call(c, r, ENSEMBLE_THREADS))
                 for c in _configs()]
        if bench.trace and r % 2 == 0:
            units += [(f"t1:{_config_name(*c[:3])}", lambda c=c: call(c, r, 1)) for c in _configs()]
            units.append(("probe:sample_mds", lambda: bench.timed(
                "probe:sample_mds", _probe, lambda i: constructions.sample_random_mds(
                    100, 200, 3, seed, i), 10, span="constructions.sample_random_mds")))
        return units

    bench.run(round_units, 2)
    tally = bench.tally
    expected = bench.state
    digest = hashlib.sha256()
    for kind, mode, B, V, R, n in _configs():
        name = _config_name(kind, mode, B)
        got = results[name]
        tally.check("engine", bool(got), f"{name}: no completed call")
        if not got:
            continue
        aggs = [s.normalized_aggregate for _, s in got]
        tally.check("engine", all(0 < a <= 1 for a in aggs), f"{name}: aggregate outside (0, 1]")
        for r, s in got:
            if r < 2:
                digest.update(f"{name}|{r}|{s.normalized_aggregate!r}|".encode()
                              + s.mean_profile.tobytes() + s.se_profile.tobytes())
        if mode == "fragment":
            # sd of a sum is at most the sum of sds, so this SE is conservative
            se = (sum((s.se_profile.sum() / (B * V)) ** 2 for _, s in got)) ** 0.5 / len(got)
            mean = statistics.fmean(aggs)
            want = expected[(kind, B)].aggregate
            # When a server rarely runs dry (mds at B=20) the sample SE rests
            # on a handful of events, or none. Floor it by the SE the closed
            # form gives if servers ran dry independently of each other.
            e = expected[(kind, B)].per_ell
            floor = float(np.sqrt(np.maximum(e * (1 - e / B), 0)).sum()) / (B * V)
            se = max(se, floor / (n * len(got)) ** 0.5)
            tally.check("engine", abs(mean - want) <= ENSEMBLE_Z * se,
                        f"{name}: aggregate {mean:.6f} vs closed form {want:.6f} "
                        f"(> {ENSEMBLE_Z} x SE {se:.2e})")

    names = [_config_name(*c[:3]) for c in _configs()]
    wall = sum(bench.cost(f"cfg:{n}") for n in names if bench.has(f"cfg:{n}"))
    samples = sum(c[5] for c in _configs())
    e2e = {"wall_refs": wall, "items_per_ref": samples / wall if wall else 0.0}
    layer = {}
    if bench.trace:
        for kind, mode, B, V, R, n in _configs():
            name = _config_name(kind, mode, B)
            if bench.has(f"cfg:{name}"):
                layer[f"engine.ensemble_sample_us.{name}"] = (bench.cost_s(f"cfg:{name}") * 1e6 / n, "us")
        pairs = [n for n in names if bench.has(f"cfg:{n}") and bench.has(f"t1:{n}")]
        layer["engine.pool_overhead_s"] = (
            sum(bench.cost_s(f"cfg:{n}") - bench.cost_s(f"t1:{n}") / ENSEMBLE_THREADS
                for n in pairs), "s")
        if bench.has("probe:sample_mds"):
            layer["constructions.sample_mds_us"] = (bench.cost_s("probe:sample_mds") * 1e6 / 10, "us")
        layer["trace_overhead_frac"] = (bench.trace_overhead(f"cfg:{n}" for n in names), "ratio")
    return e2e, layer, digest.hexdigest()


RUNNERS = {
    "table": (table_setup, workload_table),
    "exact": (exact_setup, workload_exact),
    "ensemble": (ensemble_setup, workload_ensemble),
}

SETUP_LAYERS = {"constructions.build_s": ("constructions", "model"),
                "scheduling.orders_s": ("scheduling",),
                "analytics.bounds_s": ("analytics",)}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in the order they are listed."""
    from fragsched.cli import REFERENCE_MEANS

    units = {"rng.stream_us": "us", "rng.draw_us": "us"}
    for row in REFERENCE_MEANS:
        units[f"engine.run_us.{metric_name(row)}"] = "us"
    for row in REFERENCE_MEANS:
        units[f"engine.step_us.{metric_name(row)}"] = "us"
    units.update({"engine.decision_us.harmonic": "us", "engine.decision_us.greedy": "us"})
    for label in LADDERS:
        units[f"engine.runs_to_ci.{label}"] = "count"
        units[f"engine.time_to_ci_s.{label}"] = "s"
    units.update({"engine.ladder_useful_frac": "ratio", "engine.clock_run_us": "us",
                  "engine.simulate_run_us": "us"})
    for n in MDP_SCHEMES:
        units.update({f"mdp.solve_s.{n}": "s", f"mdp.states.{n}": "count",
                      f"mdp.us_per_state.{n}": "us"})
    units.update({"mdp.eval_s.harmonic": "s", "mdp.eval_s.mdp": "s",
                  "engine.exact_s.random": "s", "engine.exact_s.harmonic": "s"})
    for c in _configs():
        units[f"engine.ensemble_sample_us.{_config_name(*c[:3])}"] = "us"
    units.update({"engine.pool_overhead_s": "s", "constructions.sample_mds_us": "us"})
    for metric in SETUP_LAYERS:
        units[metric] = "s"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace_overhead_frac"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Machine facts and the entry point


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object the contract asks for."""
    facts = machine_facts()
    setup, workload = RUNNERS[name]
    bench = Bench(trace, seconds, setup)
    e2e, layer, digest = workload(bench, seed)
    facts["digest_sha256"] = digest
    ref = fast_cost(bench.refs)
    facts.update(reference_s=ref, references=len(bench.refs), **e2e)
    facts["workload"] = name
    facts["seed"] = seed
    print(json.dumps(facts, sort_keys=True), file=sys.stderr)

    if trace:
        # a metric the workload does not exercise reads 0
        metrics = {m: (0, unit) for m, unit in per_layer_units().items()}
        for metric, layers in SETUP_LAYERS.items():
            keys = [f"setup.{lay}" for lay in layers if bench.has(f"setup.{lay}")]
            metrics[metric] = (sum(bench.fast_s(k) for k in keys), "s")
        for lay in LAYERS:
            metrics[f"{lay}.errors"] = (bench.tally.errors[lay], "count")
        selfs = self_times(bench.tracer.spans)
        for lay in LAYERS:
            metrics[f"{lay}.self_s"] = (selfs.get(lay, 0.0), "s")
        metrics.update(layer)
        write_trace(name, seed, facts, bench.tracer.spans)
    else:
        metrics = {
            "setup_s": (bench.fast_s("setup"), "s"),
            "wall_refs": (e2e["wall_refs"], "refs"),
            "items_per_ref": (e2e["items_per_ref"], "1/ref"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    return {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_trace(name: str, seed: int, facts: dict, spans: list[Span]) -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"trace-{name}-seed{seed}.jsonl", "w") as f:
        f.write(json.dumps({"facts": facts}, sort_keys=True) + "\n")
        for i, s in enumerate(spans):
            f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                "parent": s.parent, "request": s.request}) + "\n")


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS stays its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        print(lines[-1])
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fragsched" / "__init__.py").is_file():
        print(f"perfbench: no fragsched package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
