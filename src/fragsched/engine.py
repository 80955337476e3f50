"""Download-process simulation.

The continuous-time download is simulated as its jump chain: while the
downloaded set is I, the next fetch completes after an Exponential(N(I)*mu)
interval, the finishing server is uniform over the useful set (all residual
download times are i.i.d. memoryless), and the fetched fragment is whatever
the policy has scheduled there. A per-server-clock mode that races explicit
exponential timers is kept as a validation path: after each download it
re-decides every useful server, and a server whose fragment changes restarts
its timer. The two agree in distribution. Both, and ``mdp``'s exact DP, read
the policy's decision rule from ``scheduling.compile_policy``: the clock mode
its ``choices``, the batched slot-pick code run on one state at any V, the
jump chain its padded tables.

Monte Carlo runs draw from per-run derived streams, so results are
reproducible and independent of worker count. With more than one worker,
calls share one process pool that lives as long as the process. The runs or
samples are split into contiguous chunks of at least one batch where there
are enough of them, at least one chunk and at most four per worker, and a
worker takes one chunk at a time.
One numpy kernel moves a batch of runs through the chain in lockstep, one
step per iteration; per run it does the arithmetic of a one-run loop, so
results are also independent of the batch size. Exact expectations are
``mdp``'s: ``exact_mean_download`` is re-exported here.

Random-ensemble samples run on their drawn server arrays, a batch at a
time. A batch's placements come from one read of its placement streams,
turned into servers by one multiply-shift
(``constructions.placement_servers``). Fragment-uniform order draws each sample's
permutation from its stream and does the rest in one numpy pass over the
batch; server-uniform order is a second lockstep kernel that moves the batch
through the steps together, reading one word per sample and step. When every
item has one host (coded fragments, or replication with R = 1), the items a
server holds are interchangeable: which one it delivers changes no other
server. So server order then runs on per-server item counts alone
(``_server_counts``), with no item table and no item draw; its results are
those of the full kernel (``_server_chain``).
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import rng as _rng
from .constructions import check_ensemble_params, placement_servers
from .errors import EmptyProfile, InvalidParams
from .mdp import exact_mean_download
from .model import StorageScheme, check_rate
from .scheduling import DecisionRule, compile_policy

__all__ = [
    "SimulationConfig",
    "TrajectoryRecord",
    "SimulationSummary",
    "EnsembleSummary",
    "simulate_run",
    "simulate_run_clocks",
    "monte_carlo",
    "exact_mean_download",
    "mean_download_lower_bound",
    "ensemble_monte_carlo",
]

# Runs the jump-chain kernel, or ensemble samples the ensemble kernels, move
# in lockstep. Each step costs a fixed number of numpy calls whatever the
# batch, so a larger batch spreads them over more runs; its buffers grow with
# it (a 256-run batch of the order-11 plane peaks at 2.2 MB under a ranked
# policy, 1.5 MB under a nonadaptive one, plus 0.55 MB of stream words; a
# 256-sample ensemble batch at B = 100, V = 200, R = 3 at 5.5 MB in server
# order with replicas, 2.8 MB with coded fragments, and 2.9 MB in fragment
# order, tracemalloc). Calls with more than one worker split their work into
# chunks of at least this many items where there are enough (``_run_tasks``),
# so that their batches are full too. Results do not depend on this value.
BATCH_RUNS = 256

SERVER_UNIFORM = "server"
FRAGMENT_UNIFORM = "fragment"


@dataclass(frozen=True)
class SimulationConfig:
    """A Monte Carlo experiment: scheme, policy, rate, runs, master seed."""

    scheme: StorageScheme
    policy: object
    mu: float
    runs: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise InvalidParams("runs must be >= 1")
        check_rate(self.mu)


@dataclass(frozen=True)
class TrajectoryRecord:
    """One simulated download: instants D_0..D_V, the fragment order, and the
    useful-server counts N(I_0)..N(I_{V-1})."""

    download_instants: tuple[float, ...]
    fragment_order: tuple[int, ...]
    useful_profile: tuple[int, ...]


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregates over independent runs.

    Profiles are per-download-index means of the useful-server count;
    ``normalized_aggregate`` is their sum over B*V. Extremes over individual
    trajectories are kept for bound checking. The CI uses the normal
    approximation and is flagged unreliable under 30 runs.
    """

    mean_download_time: float
    stderr: float | None
    ci95: tuple[float, float] | None
    ci_reliable: bool
    runs: int
    master_seed: int
    mu: float
    policy_label: str
    mean_profile: np.ndarray
    normalized_profile: np.ndarray
    normalized_aggregate: float
    min_profile: np.ndarray
    max_profile: np.ndarray
    min_trajectory_aggregate: int
    max_trajectory_aggregate: int


def _nth_true(mask: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Per row, the column of the j-th (0-based) True entry."""
    return (mask.cumsum(axis=1) > j.view(np.intp)[:, None]).argmax(axis=1)


def _jump_chain(rule: DecisionRule, mu: float, words: np.ndarray):
    """Move one batch of runs through the V steps of the jump chain in lockstep.

    Column i of ``words`` holds the ``rule.draws * V`` words of run i, laid
    out as the seeding contract in ``rng`` says; the array may be any view,
    such as the transposed one ``rng.stream_words`` returns, and is only
    read. Every run takes exactly V steps, and each step does per run the
    arithmetic of a one-run loop in the same order, so results do not depend
    on the batch size. Returns the instants D_1..D_V, the 0-based fragment
    order and the useful profile, each V x n; column i is run i.

    The steps (``_chain_steps``) fill the order and the profile; the holding
    times are divided after the loop, once for the whole batch: holding time l
    is ``word_exponentials`` of word l divided by ``profile[l] * mu``, the
    same two roundings per element as a division at step l, so the instants
    are bit-identical to a step-by-step division. The step state is freed
    before the two (V, n) float64 arrays of that division are made, so the
    batch peaks in the loop as long as the step state outweighs one of them,
    as it does on the paper's schemes: a 256-run batch of the order-11 plane
    peaks at 2.2 MB under a ranked policy and 1.5 MB under a nonadaptive one,
    besides its words (tracemalloc).
    """
    n = words.shape[1]
    V = rule.V
    order = np.empty((V, n), dtype=np.int32)
    profile = np.empty((V, n), dtype=np.int32)
    _chain_steps(rule, words, order, profile)
    exps = _rng.word_exponentials(words[:V])
    exps /= profile * mu
    # D_l: the holding times added up in step order (add.accumulate is sequential)
    return np.cumsum(exps, axis=0, out=exps), order, profile


def _chain_steps(rule: DecisionRule, words: np.ndarray, order: np.ndarray,
                 profile: np.ndarray) -> None:
    """Run the V steps of ``_jump_chain``, writing step l's fragment and
    useful count into row l of ``order`` and ``profile``.

    Until then, row l of those two int32 arrays holds the high and the low
    32-bit halves of the winner words of step l, split once for the batch:
    each step reads its row of both before it writes either, so the split
    takes no storage of its own.

    The kernel reads the rule's padded tables: every server has K order
    slots, filled up with the dummy fragment V (always downloaded), and every
    fragment R hosts, filled up with the dummy server B (never useful, rank
    value 0). A ranked slot of the winner b scores ``sum_r
    rank_values[residual[peers[r, b, k]]]`` over its fragment's hosts other
    than b, as in ``DecisionRule.decide``, and the first minimum
    (``argmin``) is the lowest slot. An MDP policy's decisions are read from
    the rule's dense (2^V, B) table with one gather per step.

    Per-server state (int32 residual counts, rank values, the useful list and
    its position index) and the downloaded mask are flat arrays with one row
    per run, addressed through per-run offsets; every row starts as one run's
    starting state. The useful list holds flat rows (``run * (B+1) + server``)
    and the position index flat list slots, both as intp: they index each
    other, and a narrower index would be cast on every use. So a removal needs
    no offsets: a server that runs dry is swap-removed by moving its run's
    last entry into its slot. A run that loses several servers in one step
    removes them one at a time in host order, as a one-run loop does: each
    removal's list-end slot is known up front (the run's end less its rank
    among the run's removals), so one pass of four indexed ops per rank moves
    every run's removal of that rank. The offsets are spelled out to the full
    shape of the (n, K), (n, R) and, for a ranked policy, (R - 1, n, K) index
    arrays once: broadcasting them over rows of K or R entries costs more than
    the gather itself. Arrays are indexed through their own methods
    (``a.take``, ``a.nonzero``): numpy's function forms add a Python call
    per use. A ``take`` whose indices are in range by construction reads with
    ``mode="wrap"``, which leaves such indices as they are and, like
    ``"clip"`` and unlike the default, writes into ``out`` without a
    temporary buffer; on numpy 2.4 a (12, 250, 12) int32 gather took about a
    quarter less time than with ``"clip"`` and 35-50% less than with the
    default. The two ``rank_values`` lookups use ``mode="clip"``, where
    clipping is the lookup's meaning: the dummy server's residual, above
    K + 1, reads the 0 at K + 1.
    """
    V, n = order.shape
    B1, K = rule.B + 1, rule.K
    R = rule.hosts.shape[1]
    ranked = rule.values is not None
    high, low = order.view(np.uint32), profile.view(np.uint32)
    _rng.split_words(words[V:2 * V], high, low)

    runs = np.arange(n)
    off_b = runs * B1
    off_v = runs * (V + 1)
    off_k = runs * K
    cand_off = np.repeat(off_v, K).reshape(n, K)
    host_off = np.repeat(off_b, R).reshape(n, R)
    host_run = np.repeat(runs, R)
    sizes = rule.sizes
    useful0 = sizes.nonzero()[0]
    downloaded = np.tile(np.arange(V + 1) == V, n)
    # the dummy server's residual stays above K for all V * R decrements
    residual = np.tile(np.append(sizes, K + 1 + V * R).astype(np.int32), n)
    useful = np.zeros((n, B1), dtype=np.intp)
    useful[:, :len(useful0)] = useful0 + off_b[:, None]
    pos = np.full((n, B1), -1, dtype=np.intp)
    pos[:, useful0] = np.arange(len(useful0)) + off_b[:, None]
    useful, pos = useful.ravel(), pos.ravel()
    nuse = np.full(n, len(useful0), dtype=np.int64)
    nuse_u = nuse.view(np.uint64)

    # buffers reused by every step
    cand = np.empty((n, K), dtype=np.intp)
    cand_idx = np.empty((n, K), dtype=np.intp)
    cand_flat = cand_idx.ravel()
    taken = np.empty((n, K), dtype=bool)
    hosts = np.empty((n, R), dtype=np.intp)
    hosts_flat = hosts.ravel()
    if ranked:
        rank_values = rule.rank_values
        values = rank_values.take(residual, mode="clip")
        peer_off = np.tile(np.repeat(off_b, K), R - 1).reshape(R - 1, n, K)
        peer_idx = np.empty((R - 1, n, K), dtype=np.intp)
        peer_val = np.empty((R - 1, n, K), dtype=rank_values.dtype)
        score = np.empty((n, K), dtype=rank_values.dtype)
    elif rule.table is not None:
        masks = np.zeros(n, dtype=np.int64)

    for ell in range(V):
        j = _rng.split_picks(high[ell], low[ell], nuse_u)
        profile[ell] = nuse
        w = useful[off_b + j.view(np.intp)] - off_b

        if rule.table is not None:
            v = rule.table[masks, w].astype(np.intp)
            masks |= np.left_shift(1, v)
            order[ell] = v
        else:
            rule.slot_frags.take(w, axis=0, out=cand, mode="wrap")
            np.add(cand, cand_off, out=cand_idx)
            downloaded.take(cand_idx, out=taken, mode="wrap")
            if ranked:
                rule.peers.take(w, axis=1, out=peer_idx, mode="wrap")
                peer_idx += peer_off
                values.take(peer_idx, out=peer_val, mode="wrap")
                np.add.reduce(peer_val, axis=0, out=score)
                np.putmask(score, taken, rule.key_none)
            if rule.uniform:  # uniform over the tied (ranked) or the free candidates
                pool = score == score.min(axis=1)[:, None] if ranked else ~taken
                count = pool.sum(axis=1)
                col = _nth_true(pool, _rng.picks(words[2 * V + ell], count.view(np.uint64)))
            else:  # the first candidate of least score, or the first not downloaded
                col = (score if ranked else taken).argmin(axis=1)
            flat = cand_flat.take(off_k + col, mode="wrap")  # the chosen fragment's downloaded row
            downloaded[flat] = True
            v = np.subtract(flat, off_v, out=order[ell])

        rule.hosts.take(v, axis=0, out=hosts, mode="wrap")
        hosts += host_off
        left = residual.take(hosts_flat, mode="wrap")
        left -= 1
        residual[hosts_flat] = left
        if ranked:
            values[hosts_flat] = rank_values.take(left, mode="clip")
        if ell < V - 1:  # the list is not read after the last step
            dead = (left == 0).nonzero()[0]  # row-major: host order within each run
            if len(dead):
                _remove_useful(useful, pos, nuse, off_b, host_run[dead], hosts_flat[dead])


def _remove_useful(useful, pos, nuse, off_b, runs, rows) -> None:
    """Swap-remove the flat ``rows`` from their runs' useful lists, one at a
    time in the given order within each run; ``runs`` is ascending.

    The k-th removal of a run (its rank k) moves the entry at the run's list
    end less k, so every removal's end slot is known up front, and one pass
    of four indexed ops moves the removals of one rank in every run."""
    count = np.bincount(runs, minlength=len(nuse))
    most = count.max()
    if most == 1:
        nuse -= count
        end = (off_b + nuse)[runs]  # each run's last slot before its removal
        bounds = [len(rows)]
    else:
        first = count.cumsum() - count  # each run's first removal
        at = np.arange(len(runs))
        end = (off_b + nuse + first - 1)[runs] - at
        nuse -= count
        # ranks are small, so a stable sort on a narrow type is a radix sort
        rank = (at - first[runs]).astype(np.min_scalar_type(most))
        by_rank = rank.argsort(kind="stable")
        rows, end = rows[by_rank], end[by_rank]
        bounds = np.bincount(rank).cumsum().tolist()
    lo = 0
    for hi in bounds:
        i = pos[rows[lo:hi]]
        last = useful[end[lo:hi]]
        useful[i] = last
        pos[last] = i
        lo = hi


def simulate_run(
    scheme: StorageScheme, policy, mu: float, run_rng: np.random.Generator
) -> TrajectoryRecord:
    """Simulate one download as the jump chain of the Markov process.

    Inter-download times are Exponential(N(I_l)*mu) and the finishing server
    is uniform over the useful set; this matches i.i.d. exponential fragment
    clocks with instant cancellation exactly, by memorylessness. A rate
    that is not positive and finite is refused with ``InvalidRate``.
    """
    check_rate(mu)
    rule = compile_policy(scheme, policy)
    words = _rng.words(run_rng, rule.draws * rule.V)
    instants, order, profile = _jump_chain(rule, mu, words[:, None])
    return TrajectoryRecord(
        download_instants=(0.0, *instants[:, 0].tolist()),
        fragment_order=tuple((order[:, 0] + 1).tolist()),
        useful_profile=tuple(profile[:, 0].tolist()),
    )


def run_stream(master_seed: int, run_index: int) -> np.random.Generator:
    """The derived stream feeding run ``run_index`` of an experiment."""
    return _rng.stream(master_seed, _rng.DOMAIN_RUN, run_index)


def simulate_run_clocks(
    scheme: StorageScheme, policy, mu: float, run_rng: np.random.Generator
) -> TrajectoryRecord:
    """Validation mode: race explicit per-server exponential clocks.

    Every useful server downloads a fragment under its own Exponential(mu)
    timer. After each download every useful server reads the policy's
    choices again and draws one; a server whose fragment changes (it was
    fetched elsewhere, or an adaptive rule now prefers another) restarts on
    the new one with a fresh timer, which by memorylessness costs nothing.
    Slower than the jump chain but structurally faithful to the modeled
    system. A rate that is not positive and finite is refused with
    ``InvalidRate``.
    """
    check_rate(mu)
    rule = compile_policy(scheme, policy)
    mask = 0
    current: dict[int, int] = {}
    fire: dict[int, float] = {}
    t = 0.0
    instants = [0.0]
    order: list[int] = []
    profile: list[int] = []
    for _ in range(scheme.V):
        choices = rule.choices(mask)
        for b in current.keys() - choices.keys():  # ran dry
            del current[b], fire[b]
        for b, vs in choices.items():
            v = vs[0] if len(vs) == 1 else vs[int(run_rng.integers(0, len(vs)))]
            if current.get(b) != v:
                current[b] = v
                fire[b] = t + float(run_rng.exponential(1.0 / mu))
        profile.append(len(choices))
        w = min(fire, key=lambda b: (fire[b], b))
        t = fire[w]
        v = current[w]
        instants.append(t)
        order.append(v + 1)
        mask |= 1 << v
    return TrajectoryRecord(
        download_instants=tuple(instants),
        fragment_order=tuple(order),
        useful_profile=tuple(profile),
    )


def _simulate_chunk(args):
    scheme, policy, mu, master_seed, start, stop = args
    rule = compile_policy(scheme, policy)
    V = scheme.V
    dv = np.empty(stop - start, dtype=np.float64)
    aggregate = np.empty(stop - start, dtype=np.int64)
    profile_sum = np.zeros(V, dtype=np.int64)
    min_profile = np.full(V, np.iinfo(np.int64).max, dtype=np.int64)
    max_profile = np.zeros(V, dtype=np.int64)
    for lo in range(start, stop, BATCH_RUNS):
        hi = min(lo + BATCH_RUNS, stop)
        words = _rng.stream_words(master_seed, _rng.DOMAIN_RUN, range(lo, hi), rule.draws * V)
        instants, _, profile = _jump_chain(rule, mu, words)
        dv[lo - start : hi - start] = instants[-1]
        aggregate[lo - start : hi - start] = profile.sum(axis=0, dtype=np.int64)
        profile_sum += profile.sum(axis=1, dtype=np.int64)
        np.minimum(min_profile, profile.min(axis=1), out=min_profile)
        np.maximum(max_profile, profile.max(axis=1), out=max_profile)
    return dv, profile_sum, min_profile, max_profile, int(aggregate.min()), int(aggregate.max())


# The process pool of ``_run_tasks`` and its worker count, kept for the life
# of the process.
_pool = None
_pool_workers = 0


def _worker_pool(threads: int):
    """The process's pool of ``threads`` workers, made on first use and
    replaced when the count changes.

    Workers start by the platform's default method (fork on Linux): a pool
    forks them before it starts its own threads, and a replaced or broken
    pool is joined first, so no thread of ours is alive at a fork. Spawned
    workers would import numpy afresh, about 0.9 s per pool of two on 2 vCPUs.
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != threads:
        _shutdown_pool()
    if _pool is None:
        # imported here: the process-pool machinery costs ~2 MiB of memory
        from concurrent.futures import ProcessPoolExecutor

        _pool, _pool_workers = ProcessPoolExecutor(max_workers=threads), threads
    return _pool


@atexit.register
def _shutdown_pool() -> None:
    """Shut the pool down and drop it. Registered with ``atexit``, so the
    workers are joined while the interpreter is whole, not left to its
    teardown."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool, None
        pool.shutdown()


def _run_tasks(fn, args: tuple, n: int, threads: int) -> list:
    """``fn(args + (lo, hi))`` over consecutive chunks ``[lo, hi)`` of
    ``range(n)``, results in chunk order. One process runs ``range(n)`` as one
    chunk. ``threads`` workers share up to ``k = min(4 * threads,
    max(threads, ceil(n / BATCH_RUNS)))`` chunks of ``ceil(n / k)`` items.
    So a chunk holds at least one full batch wherever ``n`` allows it: every
    batch costs the kernels' fixed numpy calls on every step, and a
    half-empty one wastes most of them. Every worker still gets a chunk
    wherever ``n`` allows it, and up to four once ``n`` is large. A worker
    that finishes early takes the next chunk, so a call does not wait on the
    one worker the machine happens to run slowly. (On a 2-vCPU VM, with one
    chunk per worker, the throughput of two-worker ensemble calls moved by
    about 20% between the machine's slow and fast spells; with four, by
    6-9%.)

    The workers are one pool per process, kept across calls, so a command
    that makes many calls starts its workers once. A pool whose worker died
    raises ``BrokenProcessPool`` and is dropped; the next call starts a new
    one. ``threads`` must be at least 1.
    """
    if threads < 1:
        raise InvalidParams(f"threads must be >= 1, got {threads}")
    if threads == 1:
        chunk = n
    else:
        chunk = -(-n // min(4 * threads, max(threads, -(-n // BATCH_RUNS))))
    tasks = [args + (lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if threads > 1 and len(tasks) > 1:
        from concurrent.futures.process import BrokenProcessPool

        try:
            return list(_worker_pool(threads).map(fn, tasks))
        except BrokenProcessPool:
            _shutdown_pool()
            raise
    return [fn(t) for t in tasks]


def monte_carlo(config: SimulationConfig, threads: int = 1) -> SimulationSummary:
    """Aggregate ``config.runs`` independent trajectories.

    Run r draws from the stream derived from (master_seed, r), and partial
    results are reduced in run order, so the summary is identical for any
    ``threads`` value and any batch size.
    """
    scheme, policy = config.scheme, config.policy
    runs = config.runs
    parts = _run_tasks(_simulate_chunk, (scheme, policy, config.mu, config.master_seed),
                       runs, threads)

    dv = np.concatenate([p[0] for p in parts])
    profile_sum = np.sum([p[1] for p in parts], axis=0)
    min_profile = np.min([p[2] for p in parts], axis=0)
    max_profile = np.max([p[3] for p in parts], axis=0)
    min_agg = min(p[4] for p in parts)
    max_agg = max(p[5] for p in parts)

    mean = float(dv.mean())
    if runs > 1:
        stderr = float(dv.std(ddof=1) / sqrt(runs))
        ci = (mean - 1.96 * stderr, mean + 1.96 * stderr)
    else:
        stderr, ci = None, None
    mean_profile = profile_sum / runs
    B = scheme.B
    label = getattr(policy, "describe", lambda: str(policy))()
    return SimulationSummary(
        mean_download_time=mean,
        stderr=stderr,
        ci95=ci,
        ci_reliable=runs >= 30,
        runs=runs,
        master_seed=config.master_seed,
        mu=config.mu,
        policy_label=label,
        mean_profile=mean_profile,
        normalized_profile=mean_profile / B,
        normalized_aggregate=float(profile_sum.sum()) / (B * scheme.V * runs),
        min_profile=min_profile,
        max_profile=max_profile,
        min_trajectory_aggregate=min_agg,
        max_trajectory_aggregate=max_agg,
    )


def mean_download_lower_bound(per_ell_useful, mu: float) -> float:
    """Jensen bound on the mean download time: E[D_V] >= V^2/(mu*sum E[N])."""
    check_rate(mu)
    profile = list(per_ell_useful)
    if not profile:
        raise EmptyProfile("need at least one expected useful count")
    if any(x <= 0 for x in profile):
        raise EmptyProfile("expected useful counts must be positive")
    V = len(profile)
    return V * V / (mu * float(sum(profile)))


# ---------------------------------------------------------------------------
# Random-ensemble trajectory simulation


def _check_order_mode(order_mode: str) -> None:
    if order_mode not in (SERVER_UNIFORM, FRAGMENT_UNIFORM):
        raise InvalidParams(f"unknown order mode {order_mode!r}")


def _drop_repeats(servers: np.ndarray, B: int) -> np.ndarray:
    """Turn, in place, every replica of an item (the last axis) that repeats
    an earlier replica's server into the dummy server B; returns the mask of
    the entries turned, ``servers[..., 1:]``'s shape. Each replica is compared
    with the earlier ones, R(R-1)/2 compares, instead of sorting the item:
    no kernel reads an item's servers in order."""
    repeat = np.empty(servers[..., 1:].shape, dtype=bool)
    for j in range(1, servers.shape[-1]):
        same = np.equal(servers[..., j], servers[..., 0], out=repeat[..., j - 1])
        for i in range(1, j):
            same |= servers[..., j] == servers[..., i]
    servers[..., 1:][repeat] = B
    return repeat


def _fragment_order(hosts: np.ndarray, B: int, steps: int, gens) -> np.ndarray:
    """Useful-server counts of the first ``steps`` downloads of a batch of
    samples in fragment-uniform order, (steps, n) int64, column i for sample
    i.

    ``hosts[i]`` lists sample i's items as ``_server_chain`` reads them, and
    ``gens`` yields each sample's trajectory stream, which draws that
    sample's order: shuffling ``arange(items)`` makes the draws of
    ``permutation(items)`` and gives its values. A server is useful while it
    holds an item not yet taken; items leave in permutation order, so a
    server stays useful up to the position of its last item. The rest is one
    pass over the batch: each item's position, each server's last position
    (the dummy server's is never read), and per sample the count of servers
    whose last position lies at or past each step.
    """
    n, items, R = hosts.shape
    B1 = B + 1
    order = np.empty((n, items), dtype=np.intp)
    order[:] = np.arange(items)
    for i, gen in enumerate(gens):
        gen.shuffle(order[i])
    order += np.arange(0, n * items, items)[:, None]
    pt = np.int16 if items < 2**15 else np.intp
    pos = np.empty((n, items), dtype=pt)
    pos.reshape(-1)[order] = np.arange(items, dtype=pt)
    del order
    last = np.full((n, B1), -1, dtype=pt)
    at = hosts + np.arange(0, n * B1, B1)[:, None, None]
    np.maximum.at(last.reshape(-1), at.reshape(-1),
                  np.broadcast_to(pos[:, :, None], hosts.shape).reshape(-1))
    # a server whose last item leaves at step l or later is useful through
    # step l; bin each server at min(last, steps - 1) + 1 in its sample's row
    keys = np.minimum(last[:, :B], steps - 1, dtype=np.intp)
    keys += np.arange(1, n * (steps + 1), steps + 1)[:, None]
    gone = np.bincount(keys.reshape(-1), minlength=n * (steps + 1)).reshape(n, steps + 1)
    profile = gone[:, :steps].T.cumsum(axis=0)
    return np.subtract(B, profile, out=profile)


def _server_order(hosts: np.ndarray, B: int, words: np.ndarray) -> np.ndarray:
    """The server-uniform useful-server counts of a batch, (steps, n) int64,
    column i for sample i, from its trajectory words, (steps, n) uint64, one
    word per sample and step (any view, only read): ``_server_counts`` when
    every item has one host (``hosts.shape[2] == 1``: coded fragments, or a
    single replica), else ``_server_chain``. The words are split once: the
    low halves pick the winners, the high halves the items."""
    high = np.empty(words.shape, dtype=np.uint32)
    low = np.empty(words.shape, dtype=np.uint32)
    _rng.split_words(words, high, low)
    del words  # not held through the steps, which read only the halves
    if hosts.shape[2] == 1:
        return _server_counts(hosts, B, low)
    return _server_chain(hosts, B, low, high)


def _server_steps(residual: np.ndarray, low: np.ndarray, take) -> np.ndarray:
    """The lockstep loop both server-order kernels run; returns the
    useful-server counts, (steps, n) int64, column i for sample i.

    Row i of ``residual``, (n, width), holds sample i's per-server item
    counts; the kernel's ``take`` updates them in place. The loop keeps the
    running count of useful servers along each row, offset to ascend across
    samples, so that one ``searchsorted`` finds every winner. Step l records
    the useful count, picks the winner's position among the useful servers
    from row l of ``low``, finds its flat row w, and calls ``take(l, w)``: it
    removes the winner's item and returns the samples where a server ran
    dry, the only ones whose useful servers are counted again.
    """
    n, width = residual.shape
    steps = len(low)
    rank_off = np.arange(n) * (width + 1)
    rank = (residual > 0).cumsum(axis=1)
    nuse = rank[:, -1].copy()
    nuse_u = nuse.view(np.uint64)
    rank += rank_off[:, None]
    rank_flat = rank.reshape(-1)
    profile = np.empty((steps, n), dtype=np.int64)
    for ell in range(steps):
        profile[ell] = nuse
        j = _rng.half_picks(low[ell], nuse_u).view(np.int64)
        w = rank_flat.searchsorted(rank_off + j, side="right")  # the winner's row
        s = take(ell, w)
        if len(s) and ell < steps - 1:  # the counts are not read after the last step
            c = (residual.take(s, axis=0) > 0).cumsum(axis=1)
            nuse[s] = c[:, -1]
            c += rank_off[s, None]
            rank[s] = c
            del c  # not held through the next step's ``take``
    return profile


def _server_counts(hosts: np.ndarray, B: int, low: np.ndarray) -> np.ndarray:
    """``_server_chain`` for items with one host each, from item counts alone.

    A server's items are then interchangeable: whichever of them the winner
    delivers, the winner loses one item and no other server loses any, so the
    useful-server counts depend only on how many items each server holds.
    The state is those counts, B per sample, from one ``bincount``, and the
    item is never drawn: its half-word is fixed by the contract, so skipping
    it moves no other draw.
    """
    n = len(hosts)
    rows = hosts.reshape(n, -1) + np.arange(0, n * B, B)[:, None]
    residual = np.bincount(rows.reshape(-1), minlength=n * B)

    def take(ell, w):
        left = residual.take(w)
        left -= 1
        residual[w] = left
        return (left == 0).nonzero()[0]

    return _server_steps(residual.reshape(n, B), low, take)


def _server_chain(hosts: np.ndarray, B: int, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Move a batch of samples through the server-uniform jump chain in
    lockstep, one step per row of ``low`` and ``high``; returns their
    useful-server counts, (steps, n) int64, column i for sample i.

    Row j of ``hosts[i]`` lists the 0-based servers holding sample i's item
    j, in any order: the R replicas of a fragment, each server once and each
    repeat turned into the dummy server B (``_drop_repeats``), or the one
    server of a coded fragment, though ``_server_counts`` serves items with
    one host faster. Each server's items are listed by a stable sort on
    their rows, so their order comes from the item index alone.
    Step l picks, as the seeding contract says, the winner's position among
    the useful servers from the low half of sample i's word l and a position
    among the winner's remaining items from its high half, both in ascending
    order.

    Per-sample state is flat, B+1 rows per sample: each server's ascending
    item list as a table row of L entries, with a mask of the entries not yet
    taken, and residual item counts, from which ``_server_steps`` finds the
    winners. The dummy server's count starts at 0 and only falls, so it is
    never useful and its row is never read.
    """
    n, items, R = hosts.shape
    B1 = B + 1
    # each entry's row, in the narrowest unsigned type that holds it
    rows = np.add(hosts.reshape(n, -1), np.arange(0, n * B1, B1)[:, None],
                  dtype=np.min_scalar_type(n * B1), casting="unsafe").reshape(-1)
    # the entries are in (sample, item) order, so a stable sort by row lists
    # each row's items in ascending order (a radix sort on narrow keys)
    by_row = np.argsort(rows, kind="stable")
    residual = np.bincount(rows, minlength=n * B1)
    it = np.int32 if residual.max() * n * B1 < 2**31 else np.int64  # holds every slot
    firsts = np.cumsum(residual, dtype=it)
    firsts -= residual
    residual[B::B1] = 0
    L = int(residual.max())
    # each entry's slot: its row times L plus its rank in the row, which only
    # the dummy server's row can push past L - 1
    sorted_rows = rows[by_row]
    slot = np.arange(len(rows), dtype=it)
    slot -= firsts[sorted_rows]
    np.minimum(slot, L - 1, out=slot)
    slot += np.multiply(sorted_rows, L, dtype=it)
    entry = np.empty_like(slot)
    entry[by_row] = slot
    free = np.zeros((n * B1, L), dtype=bool)
    free_flat = free.reshape(-1)
    free_flat[slot] = True
    del by_row, sorted_rows, slot
    # a slot names its item by the item's first entry
    table = np.empty(n * B1 * L, dtype=it)
    table[entry.reshape(-1, R)] = np.arange(0, len(rows), R, dtype=it)[:, None]
    replicas = np.arange(R)[:, None]

    def take(ell, w):
        k = _rng.half_picks(high[ell], residual.take(w).view(np.uint64))
        c = _nth_true(free.take(w, axis=0), k)
        c += w * L
        e = table.take(c) + replicas  # the entries of the item taken, (R, n)
        free_flat[entry.take(e).astype(np.intp)] = False
        h = rows.take(e).astype(np.intp)
        left = residual.take(h)
        left -= 1
        residual[h] = left
        return (left == 0).any(axis=0).nonzero()[0]

    return _server_steps(residual.reshape(n, B1), low, take)


@dataclass(frozen=True)
class EnsembleSummary:
    """Per-step means over freshly sampled placements, with standard errors,
    the normalized aggregate, and (replication) the observed frequency of a
    fragment having two replicas share a server."""

    kind: str
    order_mode: str
    B: int
    V: int
    R: int
    samples: int
    master_seed: int
    mean_profile: np.ndarray
    se_profile: np.ndarray
    normalized_aggregate: float
    duplicate_frequency: float | None


def _ensemble_chunk(args):
    B, V, R, kind, order_mode, seed, start, stop = args
    psum = np.zeros(V, dtype=np.int64)
    psumsq = np.zeros(V, dtype=np.int64)
    dup = 0
    for lo in range(start, stop, BATCH_RUNS):
        samples = range(lo, min(lo + BATCH_RUNS, stop))
        servers = placement_servers(seed, samples, B, V, R).astype(
            np.int16 if B < 2**15 else np.intp)
        if kind == "rep":
            dup += int(_drop_repeats(servers, B).any(axis=2).sum())
        else:
            servers = servers.reshape(len(samples), V * R, 1)
        if order_mode == SERVER_UNIFORM:
            profile = _server_order(
                servers, B, _rng.stream_words(seed, _rng.DOMAIN_TRAJECTORY, samples, V))
        else:
            profile = _fragment_order(servers, B, V,
                                      _rng.streams(seed, _rng.DOMAIN_TRAJECTORY, samples))
        psum += profile.sum(axis=1)
        psumsq += (profile * profile).sum(axis=1)
    return psum, psumsq, dup


def ensemble_monte_carlo(
    B: int,
    V: int,
    R: int,
    kind: str,
    order_mode: str,
    samples: int,
    seed: int,
    threads: int = 1,
) -> EnsembleSummary:
    """Sample fresh placements and average their useful-server profiles.

    ``order_mode='server'`` runs the physical jump chain: the winner is
    uniform over useful servers and delivers a uniformly chosen one of its
    remaining fragments. ``order_mode='fragment'`` instead downloads a
    uniformly random remaining (distinct, or coded for MDS) fragment each
    step, the idealization under which the ensemble closed forms are exact.
    Placement and trajectory of sample s derive from (seed, s) streams, so
    the result is independent of chunking and worker count.
    """
    if kind not in ("rep", "mds"):
        raise InvalidParams(f"unknown ensemble kind {kind!r}")
    check_ensemble_params(B, V, R)
    _check_order_mode(order_mode)
    if samples < 1:
        raise InvalidParams("samples must be >= 1")
    parts = _run_tasks(_ensemble_chunk, (B, V, R, kind, order_mode, seed), samples, threads)
    psum = np.sum([p[0] for p in parts], axis=0)
    psumsq = np.sum([p[1] for p in parts], axis=0)
    dup = sum(p[2] for p in parts)
    mean = psum / samples
    if samples > 1:
        var = (psumsq - samples * mean**2) / (samples - 1)
        se = np.sqrt(np.maximum(var, 0.0) / samples)
    else:
        se = np.full(V, np.nan)
    return EnsembleSummary(
        kind=kind,
        order_mode=order_mode,
        B=B,
        V=V,
        R=R,
        samples=samples,
        master_seed=seed,
        mean_profile=mean,
        se_profile=se,
        normalized_aggregate=float(psum.sum()) / (B * V * samples),
        duplicate_frequency=(dup / (samples * V)) if kind == "rep" else None,
    )
