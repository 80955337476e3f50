"""Download-process simulation and exact expectations.

The continuous-time download is simulated as its jump chain: while the
downloaded set is I, the next fetch completes after an Exponential(N(I)*mu)
interval, the finishing server is uniform over the useful set (all residual
download times are i.i.d. memoryless), and the fetched fragment is whatever
the policy has scheduled there. A per-server-clock mode that races explicit
exponential timers is kept as a validation path: after each download it
re-decides every useful server, and a server whose fragment changes restarts
its timer. The two agree in distribution. Both, and the exact DP, read the
policy's decision rule from ``scheduling.compile_policy``: the clock mode its
scalar ``choices``, the jump chain its padded batched tables.

Monte Carlo runs draw from per-run derived streams, so results are
reproducible and independent of worker count. With more than one worker,
calls share one process pool that lives as long as the process. One numpy
kernel moves a batch of runs through the chain in lockstep, one step per
iteration; per run it does the arithmetic of a one-run loop, so results are
also independent of the batch size. Exact expectations come from propagating subset
probabilities through the chain (2^V states).

A random-ensemble sample runs one kernel on its drawn server array, without
building a placement object: fragment-uniform order in numpy from one
permutation, server-uniform order over sorted lists edited in place, its
``integers(0, m)`` picks replayed by ``rng.integers_replay``.
"""

from __future__ import annotations

import atexit
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from . import rng as _rng
from .constructions import MdsPlacement, ReplicationPlacement, placement_servers
from .errors import EmptyProfile, InvalidParams
from .mdp import DEFAULT_EVAL_CAP, _forward_dp, check_size
from .model import StorageScheme
from .scheduling import DecisionRule, compile_policy

__all__ = [
    "SimulationConfig",
    "TrajectoryRecord",
    "SimulationSummary",
    "ExactDownload",
    "EnsembleSummary",
    "simulate_run",
    "simulate_run_clocks",
    "monte_carlo",
    "exact_mean_download",
    "mean_download_lower_bound",
    "simulate_ensemble_profile",
    "ensemble_monte_carlo",
]

# Runs the jump-chain kernel moves in lockstep. Each step costs a fixed
# number of numpy calls whatever the batch, so a larger batch spreads them over
# more runs; its buffers grow with it (a 256-run batch of the order-11 plane
# peaks at 1.9 MB under a ranked policy, 1.3 MB under a nonadaptive one, plus
# 0.55 MB of stream words). A 250-run chunk is one batch. Results do not
# depend on this value.
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
        if self.mu <= 0:
            raise InvalidParams("mu must be positive")


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
    out as the seeding contract in ``rng`` says. Every run takes exactly V
    steps, and each step does per run the arithmetic of a one-run loop in the
    same order, so results do not depend on the batch size. Returns the
    instants D_1..D_V, the 0-based fragment order and the useful profile, each
    V x n; column i is run i.

    The kernel reads the rule's padded tables: every server has K order
    slots, filled up with the dummy fragment V (always downloaded), and every
    fragment R hosts, filled up with the dummy server B (never useful, rank
    value 0). A ranked slot scores ``sum_r rank_values[residual[cand_hosts[r,
    b, k]]]`` as in ``DecisionRule.choice_slots``, and the first minimum
    (``argmin``) is the lowest slot. An MDP policy's decisions are read from
    the rule's dense (2^V, B) table with one gather per step.

    Per-server state (int32 residual counts, rank values, the swap-removed
    useful list and its position index) and the downloaded mask are flat
    arrays with one row per run, addressed through per-run offsets; every row
    starts as one run's starting state. The offsets are spelled out to the
    full shape of the (n, K) and (n, R) index arrays once: broadcasting them
    over rows of K or R entries costs more than the gather itself. The (R, n,
    K) host index of a ranked policy takes its offsets by broadcasting, which
    costs about 4% of a ranked run and saves a copy as large as the index. A
    step divides its own holding times, so no (V, n) temporary is made. A
    256-run batch of the order-11 plane peaks at 1.9 MB under a ranked policy
    and 1.3 MB under a nonadaptive one, besides its words.
    """
    n = words.shape[1]
    V, B1, K = rule.V, rule.B + 1, rule.K
    R = rule.hosts.shape[1]
    ranked = rule.values is not None
    exps = _rng.word_exponentials(words[:V])

    runs = np.arange(n)
    off_b = runs * B1
    off_v = runs * (V + 1)
    off_k = runs * K
    cand_off = np.repeat(off_v, K).reshape(n, K)
    host_off = np.repeat(off_b, R).reshape(n, R)
    host_run = np.repeat(runs, R)
    sizes = [len(s) for s in rule.frag_sets]
    useful0 = np.flatnonzero(sizes)
    downloaded = np.tile(np.arange(V + 1) == V, n)
    # the dummy server's residual stays above K for all V * R decrements
    residual = np.tile(np.array(sizes + [K + 1 + V * R], dtype=np.int32), n)
    useful = np.zeros((n, B1), dtype=np.int32)
    useful[:, :len(useful0)] = useful0
    pos = np.full((n, B1), -1, dtype=np.int32)
    pos[:, useful0] = np.arange(len(useful0))
    useful, pos = useful.ravel(), pos.ravel()
    nuse = np.full(n, len(useful0), dtype=np.int64)
    nuse_u = nuse.view(np.uint64)

    # buffers reused by every step
    cand = np.empty((n, K), dtype=np.intp)
    cand_idx = np.empty((n, K), dtype=np.intp)
    taken = np.empty((n, K), dtype=bool)
    hosts = np.empty((n, R), dtype=np.intp)
    if ranked:
        rank_values = rule.rank_values
        values = rank_values.take(residual, mode="clip")
        host_idx = np.empty((R, n, K), dtype=np.intp)
        host_val = np.empty((R, n, K), dtype=rank_values.dtype)
        score = np.empty((n, K), dtype=rank_values.dtype)
        off_b_col = off_b[:, None]
    elif rule.table is not None:
        masks = np.zeros(n, dtype=np.int64)
    order = np.empty((V, n), dtype=np.int32)
    profile = np.empty((V, n), dtype=np.int32)

    for ell in range(V):
        profile[ell] = nuse
        exps[ell] /= nuse * mu
        w = useful[off_b + _rng.picks(words[V + ell], nuse_u).view(np.intp)]

        if rule.table is not None:
            v = rule.table[masks, w].astype(np.intp)
            masks |= np.left_shift(1, v)
        else:
            np.take(rule.slot_frags, w, axis=0, out=cand, mode="clip")
            np.add(cand, cand_off, out=cand_idx)
            np.take(downloaded, cand_idx, out=taken, mode="clip")
            if ranked:
                np.take(rule.cand_hosts, w, axis=1, out=host_idx, mode="clip")
                host_idx += off_b_col
                np.take(values, host_idx, out=host_val, mode="clip")
                np.add.reduce(host_val, axis=0, out=score)
                np.putmask(score, taken, rule.key_none)
                if rule.uniform:
                    tied = score == score.min(axis=1)[:, None]
                    count = tied.sum(axis=1)
                    col = _nth_true(tied, _rng.picks(words[2 * V + ell], count.view(np.uint64)))
                else:
                    col = score.argmin(axis=1)
            elif rule.uniform:  # uniform over the candidates not downloaded
                free = ~taken
                count = free.sum(axis=1)
                col = _nth_true(free, _rng.picks(words[2 * V + ell], count.view(np.uint64)))
            else:  # first candidate not downloaded
                col = taken.argmin(axis=1)
            v = cand.ravel()[off_k + col]

        order[ell] = v
        downloaded[off_v + v] = True
        np.take(rule.hosts, v, axis=0, out=hosts, mode="clip")
        hosts += host_off
        left = residual[hosts]
        left -= 1
        residual[hosts] = left
        if ranked:
            values[hosts] = rank_values.take(left, mode="clip")
        dead = left == 0
        if ell < V - 1 and dead.any():  # the list is not read after the last step
            _remove_useful(useful, pos, nuse, off_b, dead, hosts, host_run)

    # D_l: the holding times added up in step order (add.accumulate is sequential)
    return np.cumsum(exps, axis=0, out=exps), order, profile


def _remove_useful(useful, pos, nuse, off_b, dead, hosts, host_run) -> None:
    """Swap-remove the servers that just ran dry from each run's useful list.

    A run that loses several servers in one step removes them one at a time
    in host order, as a one-run loop does, so its list keeps the same order.
    """
    at = np.flatnonzero(dead)  # row-major: host order within each run
    runs = host_run[at]
    servers = hosts.ravel()[at]
    if (runs[1:] == runs[:-1]).any():
        rank = np.arange(len(runs)) - np.searchsorted(runs, runs)
        for k in range(int(rank.max()) + 1):
            sel = rank == k
            _swap_remove(useful, pos, nuse, off_b, runs[sel], servers[sel])
    else:
        _swap_remove(useful, pos, nuse, off_b, runs, servers)


def _swap_remove(useful, pos, nuse, off_b, runs, servers) -> None:
    """Remove one server (flat index) from each of the distinct ``runs``."""
    base = off_b[runs]
    i = pos[servers]
    k = nuse[runs]
    k -= 1
    nuse[runs] = k
    last = useful[base + k]
    useful[base + i] = last
    pos[base + last] = i


def simulate_run(
    scheme: StorageScheme, policy, mu: float, run_rng: np.random.Generator
) -> TrajectoryRecord:
    """Simulate one download as the jump chain of the Markov process.

    Inter-download times are Exponential(N(I_l)*mu) and the finishing server
    is uniform over the useful set; this matches i.i.d. exponential fragment
    clocks with instant cancellation exactly, by memorylessness.
    """
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
    system.
    """
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
    chunk; ``threads`` workers get four chunks per worker.

    The workers are one pool per process, kept across calls, so a command
    that makes many calls starts its workers once. A pool whose worker died
    raises ``BrokenProcessPool`` and is dropped; the next call starts a new
    one.
    """
    chunk = n if threads <= 1 else -(-n // (threads * 4))
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


@dataclass(frozen=True)
class ExactDownload:
    """Exact mean download time and per-step expected useful counts."""

    mean: Fraction | float
    per_ell_useful: tuple
    mu: float
    exact: bool


def exact_mean_download(
    scheme: StorageScheme, policy, mu: float, exact: bool | None = None,
    cap: int = DEFAULT_EVAL_CAP,
) -> ExactDownload:
    """E[D_V] = sum over stages of E[1/(N(I_l)*mu)], by exact subset DP.

    Rational arithmetic is used for V <= 16 unless overridden; the float mode
    exists for larger V, still capped (2^V states).
    """
    if exact is None:
        exact = scheme.V <= 16
    check_size(scheme, cap, "rational" if exact else "float")
    per_ell, per_ell_inv, _ = _forward_dp(compile_policy(scheme, policy), rational=exact)
    if exact:
        mean = sum(per_ell_inv, start=Fraction(0)) / Fraction(mu)
    else:
        mean = sum(per_ell_inv) / mu
    return ExactDownload(mean=mean, per_ell_useful=tuple(per_ell), mu=mu, exact=exact)


def mean_download_lower_bound(per_ell_useful, mu: float) -> float:
    """Jensen bound on the mean download time: E[D_V] >= V^2/(mu*sum E[N])."""
    profile = list(per_ell_useful)
    if not profile:
        raise EmptyProfile("need at least one expected useful count")
    if any(x <= 0 for x in profile):
        raise EmptyProfile("expected useful counts must be positive")
    V = len(profile)
    return V * V / (mu * float(sum(profile)))


# ---------------------------------------------------------------------------
# Random-ensemble trajectory simulation


def simulate_ensemble_profile(
    placement: ReplicationPlacement | MdsPlacement,
    order_mode: str,
    gen: np.random.Generator,
) -> np.ndarray:
    """Useful-server profile N(I_0)..N(I_{V-1}) of one ensemble download.

    ``order_mode='server'`` runs the physical jump chain: the winner is
    uniform over useful servers and delivers a uniformly chosen one of its
    remaining fragments. ``order_mode='fragment'`` instead downloads a
    uniformly random remaining (distinct, or coded for MDS) fragment each
    step, the idealization under which the ensemble closed forms are exact.
    """
    _check_order_mode(order_mode)
    if isinstance(placement, ReplicationPlacement):
        servers = np.array(placement.theta, dtype=np.intp).reshape(placement.V, placement.R)
    elif isinstance(placement, MdsPlacement):
        servers = np.array(placement.chi, dtype=np.intp).reshape(-1, 1)
    else:
        raise InvalidParams(f"unsupported placement {placement!r}")
    return _ensemble_profile(servers - 1, placement.B, placement.V, order_mode, gen)


def _check_order_mode(order_mode: str) -> None:
    if order_mode not in (SERVER_UNIFORM, FRAGMENT_UNIFORM):
        raise InvalidParams(f"unknown order mode {order_mode!r}")


def _ensemble_profile(item_servers: np.ndarray, B: int, steps: int, mode: str,
                      gen: np.random.Generator) -> np.ndarray:
    """Useful-server counts of the first ``steps`` downloads (int64).

    Row i of ``item_servers`` lists the 0-based servers holding item i: the
    R replicas of a fragment (a server may repeat), or the one server of a
    coded fragment. A server is useful while it holds an item not yet taken.
    """
    items = len(item_servers)
    if mode == FRAGMENT_UNIFORM:
        # items leave in permutation order, so a server stays useful up to
        # the position of its last item
        pos = np.empty(items, dtype=np.intp)
        pos[gen.permutation(items)] = np.arange(items)
        last = np.full(B, -1, dtype=np.intp)
        np.maximum.at(last, item_servers, pos[:, None])
        ends = np.bincount(last + 1, minlength=items + 1)  # [0]: servers holding nothing
        return ends[:0:-1].cumsum()[::-1][:steps]

    # server-uniform jump chain over the ascending useful list and each
    # server's ascending list of remaining items: both picks index these lists
    rows = np.sort(item_servers, axis=1)
    distinct = np.ones(rows.shape, dtype=bool)
    distinct[:, 1:] = rows[:, 1:] != rows[:, :-1]
    servers = rows[distinct]  # by item, then server
    by_server = np.nonzero(distinct)[0][np.argsort(servers, kind="stable")]
    holders = _split(servers.tolist(), distinct.sum(axis=1))
    residual = _split(by_server.tolist(), np.bincount(servers, minlength=B))
    useful = [b for b in range(B) if residual[b]]

    profile = []
    with _rng.integers_replay(gen, 2 * steps) as draw:
        for _ in range(steps):
            n = len(useful)
            profile.append(n)
            left = residual[useful[draw(n)]]
            v = left[draw(len(left))]
            for b in holders[v]:
                left = residual[b]
                del left[bisect_left(left, v)]
                if not left:
                    del useful[bisect_left(useful, b)]
    return np.array(profile, dtype=np.int64)


def _split(flat: list, sizes: np.ndarray) -> list[list]:
    """``flat`` cut into consecutive lists of the given sizes."""
    stops = sizes.cumsum().tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + stops, stops)]


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
    samples = range(start, stop)
    for place_gen, traj_gen in zip(_rng.streams(seed, _rng.DOMAIN_PLACEMENT, samples),
                                   _rng.streams(seed, _rng.DOMAIN_TRAJECTORY, samples)):
        servers = placement_servers(place_gen, B, V, R)
        if kind == "rep":
            rows = np.sort(servers, axis=1)
            dup += int((rows[:, 1:] == rows[:, :-1]).any(axis=1).sum())
        else:
            servers = servers.reshape(V * R, 1)
        p = _ensemble_profile(servers, B, V, order_mode, traj_gen)
        psum += p
        psumsq += p * p
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

    Placement and trajectory of sample s derive from (seed, s) streams, so
    the result is independent of chunking and worker count.
    """
    if kind not in ("rep", "mds"):
        raise InvalidParams(f"unknown ensemble kind {kind!r}")
    if min(B, V, R) < 1:
        raise InvalidParams("B, V, R must be positive")
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
