"""Independent brute-force reference implementations used to check the
package. Everything here works from first principles on plain sets and exact
rationals, deliberately sharing no code with the library paths it validates;
the scalar subset DPs read only the scalar decision rule,
``DecisionRule.choices``, which the batched kernels do not use.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction


def useful_count(blocks: list[set[int]], downloaded: set[int]) -> int:
    """Servers still holding an undownloaded fragment, recomputed from scratch."""
    return sum(1 for S in blocks if S - downloaded)


def count_t_subsets(points: int, blocks: list[set[int]], t: int) -> dict[tuple, int]:
    """For every t-subset of [points], the number of blocks containing it."""
    counts = {}
    for sub in itertools.combinations(range(1, points + 1), t):
        ss = set(sub)
        counts[sub] = sum(1 for blk in blocks if ss <= blk)
    return counts


def pairwise_overlap_profile(scheme):
    """``model.overlap_profile`` by intersecting every pair of fragment sets
    and every pair of occupancy sets."""
    from fragsched.model import OverlapProfile

    tau_hist: Counter[int] = Counter()
    for sa, sb in itertools.combinations(scheme.fragment_sets, 2):
        tau_hist[len(sa & sb)] += 1
    lam_hist: Counter[int] = Counter()
    for pa, pb in itertools.combinations(scheme.occupancy, 2):
        lam_hist[len(pa & pb)] += 1
    return OverlapProfile(
        tau_max=max(tau_hist, default=0),
        lambda_max=max(lam_hist, default=0),
        tau_histogram=dict(tau_hist),
        lambda_histogram=dict(lam_hist),
    )


def random_wc_transition(blocks: list[set[int]], downloaded: set[int]) -> dict[int, Fraction]:
    """Next-fragment distribution when every useful server offers a uniformly
    random remaining fragment and the finisher is uniform over useful servers."""
    residuals = [S - downloaded for S in blocks if S - downloaded]
    n = len(residuals)
    probs: dict[int, Fraction] = {}
    for res in residuals:
        share = Fraction(1, n * len(res))
        for v in res:
            probs[v] = probs.get(v, Fraction(0)) + share
    return probs


def enumerate_completion_sequences(blocks: list[set[int]], V: int, mu: Fraction = Fraction(1)):
    """All minimal download sequences with their probability, useful-server
    profile, and exact mean duration, under uniform random work conservation.

    Yields (sequence, probability, profile, mean_time) per permutation with
    positive probability.
    """
    for order in itertools.permutations(range(1, V + 1)):
        downloaded: set[int] = set()
        prob = Fraction(1)
        profile = []
        time = Fraction(0)
        alive = True
        for v in order:
            trans = random_wc_transition(blocks, downloaded)
            n = useful_count(blocks, downloaded)
            profile.append(n)
            time += Fraction(1, n) / mu
            if v not in trans:
                alive = False
                break
            prob *= trans[v]
            downloaded.add(v)
        if alive and prob > 0:
            yield order, prob, tuple(profile), time


def grouped_mean_time(blocks: list[set[int]], V: int) -> Fraction:
    """Mean download time as sum over groups of N_s * P_s * E[T_s], grouping
    completion sequences by (profile, per-sequence probability)."""
    groups: dict[tuple, list] = {}
    for _, prob, profile, time in enumerate_completion_sequences(blocks, V):
        groups.setdefault((profile, prob), [0, time])[0] += 1
    total = Fraction(0)
    for (profile, prob), (count, time) in groups.items():
        total += count * prob * time
    return total


def profile_expectations(blocks: list[set[int]], V: int) -> list[Fraction]:
    """E[N(I_l)] for l = 0..V-1 under uniform random work conservation, by
    summing over all completion sequences."""
    acc = [Fraction(0)] * V
    for _, prob, profile, _ in enumerate_completion_sequences(blocks, V):
        for ell, n in enumerate(profile):
            acc[ell] += prob * n
    return acc


def mds_exact_second_step(B: int, V: int, R: int, mode: str) -> Fraction:
    """E[N(I_1)] for the random MDS ensemble by exhaustive enumeration of all
    B**(V*R) placements and exact one-step dynamics.

    ``mode='fragment'`` downloads a uniformly random coded fragment first;
    ``mode='server'`` picks a uniform useful server which then delivers one of
    its stored fragments.
    """
    n_items = V * R
    total = Fraction(0)
    n_placements = B**n_items
    for chi in itertools.product(range(B), repeat=n_items):
        counts = [0] * B
        for b in chi:
            counts[b] += 1
        if mode == "fragment":
            # remove each coded fragment with probability 1/n_items
            exp = Fraction(0)
            for v in range(n_items):
                after = list(counts)
                after[chi[v]] -= 1
                exp += Fraction(1, n_items) * sum(1 for c in after if c > 0)
        else:
            useful = [b for b in range(B) if counts[b] > 0]
            exp = Fraction(0)
            for b in useful:
                after = list(counts)
                after[b] -= 1
                exp += Fraction(1, len(useful)) * sum(1 for c in after if c > 0)
        total += exp
    return total / n_placements


def profile_tolerance(se_sample, expected, B: int, samples: int):
    """3-standard-error tolerance per step, flooring the sample SE with the
    binomial-model SE so steps where no rare server-death event materialized
    (sample variance exactly 0) still get a sound error bar."""
    import numpy as np

    p_dead = np.clip(1.0 - np.asarray(expected, dtype=float) / B, 0.0, 1.0)
    se_model = np.sqrt(B * p_dead * (1.0 - p_dead) / samples)
    return 3.0 * np.maximum(np.asarray(se_sample, dtype=float), se_model)


def immediate_reward(blocks: list[set[int]], downloaded: set[int], decisions: dict[int, int]) -> Fraction:
    """E[N after one more download] given a full per-server decision map;
    servers are 1-based indices into ``blocks``."""
    useful = [b for b in range(1, len(blocks) + 1) if blocks[b - 1] - downloaded]
    n = len(useful)
    exp = Fraction(0)
    for b in useful:
        v = decisions[b]
        nxt = downloaded | {v}
        exp += Fraction(1, n) * useful_count(blocks, nxt)
    return exp


def all_decision_maps(blocks: list[set[int]], downloaded: set[int]):
    """Every work-conserving decision map at the given state."""
    useful = [b for b in range(1, len(blocks) + 1) if blocks[b - 1] - downloaded]
    residuals = [sorted(blocks[b - 1] - downloaded) for b in useful]
    for combo in itertools.product(*residuals):
        yield dict(zip(useful, combo))


# ---------------------------------------------------------------------------
# Exact policy chains. Each decision map gives, per useful 1-based server, the
# distribution of the fragment it serves next at the downloaded set; the
# recursion below turns one into the exact per-step expectations.


def _useful(blocks: list[set[int]], downloaded) -> list[int]:
    return [b for b in range(1, len(blocks) + 1) if blocks[b - 1] - downloaded]


def nonadaptive_decisions(blocks, downloaded, orders) -> dict[int, dict[int, Fraction]]:
    """Each server serves the first fragment of its order not yet downloaded."""
    return {b: {next(v for v in orders[b - 1] if v not in downloaded): Fraction(1)}
            for b in _useful(blocks, downloaded)}


def random_decisions(blocks, downloaded) -> dict[int, dict[int, Fraction]]:
    """Each server serves a uniformly random fragment of its residual."""
    out = {}
    for b in _useful(blocks, downloaded):
        residual = blocks[b - 1] - downloaded
        out[b] = {v: Fraction(1, len(residual)) for v in residual}
    return out


def rank_of(blocks, downloaded, v: int, rank: str) -> Fraction:
    """Greedy: hosts of v left holding v alone. Harmonic: the sum over hosts
    of v of one over their residual size."""
    residuals = [S - downloaded for S in blocks if v in S]
    if rank == "greedy":
        return Fraction(sum(1 for r in residuals if r == {v}))
    return sum((Fraction(1, len(r)) for r in residuals), start=Fraction(0))


def ranked_decisions(blocks, downloaded, rank: str, tie: str, init_orders=None):
    """Each server serves a residual fragment of least rank. Ties go to the
    lowest index, to the earliest in ``init_orders``, or (``tie='seeded'``)
    uniformly at random."""
    out = {}
    for b in _useful(blocks, downloaded):
        ranks = {v: rank_of(blocks, downloaded, v, rank) for v in blocks[b - 1] - downloaded}
        best = min(ranks.values())
        tied = sorted(v for v, r in ranks.items() if r == best)
        if tie == "seeded":
            out[b] = {v: Fraction(1, len(tied)) for v in tied}
        elif init_orders is not None:
            out[b] = {min(tied, key=list(init_orders[b - 1]).index): Fraction(1)}
        else:
            out[b] = {tied[0]: Fraction(1)}
    return out


def decision_items(table) -> dict[tuple[int, int], int]:
    """An MDP solution's dense decision array as {(mask, 0-based server):
    0-based fragment}, leaving out the -1 entries; Python ints throughout, so
    the ``repr`` of the items is that of plain ints."""
    return {(mask, b): v for mask, row in enumerate(table.tolist())
            for b, v in enumerate(row) if v >= 0}


def value_items(solution) -> dict[int, Fraction]:
    """An MDP solution's reward-to-go as {mask: Fraction}, read one mask at a
    time through ``reward_to_go`` in descending mask order, the order in
    which ``scalar_mdp_solve`` fills its dict."""
    return {mask: solution.reward_to_go(mask) for mask in range(len(solution.values) - 1, -1, -1)}


def table_decisions(blocks, downloaded, table) -> dict[int, dict[int, Fraction]]:
    """Each server serves what an MDP table, keyed by (downloaded bitmask,
    0-based server) and holding 0-based fragments, says."""
    mask = sum(1 << (v - 1) for v in downloaded)
    return {b: {table[mask, b - 1] + 1: Fraction(1)} for b in _useful(blocks, downloaded)}


def chain_expectations(blocks: list[set[int]], V: int, decisions):
    """(E[N(I_l)], E[1/N(I_l)]) for l = 0..V-1 of the chain whose decision
    map at a downloaded set I is ``decisions(I)``, by recursion over
    downloaded frozensets: the expectations from I on are N(I), 1/N(I) at I
    itself, then the mean over the finishing server and its fragment."""
    memo: dict[frozenset, list[tuple[Fraction, Fraction]]] = {}

    def from_state(done: frozenset) -> list[tuple[Fraction, Fraction]]:
        if done not in memo:
            n = len(_useful(blocks, done))
            later = [[Fraction(0), Fraction(0)] for _ in range(V - len(done) - 1)]
            if later:
                for dist in decisions(done).values():
                    for v, q in dist.items():
                        for acc, (x, y) in zip(later, from_state(done | {v})):
                            acc[0] += q * x / n
                            acc[1] += q * y / n
            memo[done] = [(Fraction(n), Fraction(1, n))] + [tuple(acc) for acc in later]
        return memo[done]

    rows = from_state(frozenset())
    return [x for x, _ in rows], [y for _, y in rows]


def optimal_reward_to_go(blocks: list[set[int]], V: int) -> dict[frozenset, Fraction]:
    """u*(I) for every downloaded set I, by brute-force backward induction:
    the best expected sum of useful counts over V of the stages after I,
    maximized over every joint decision map (not server by server), with
    u* = 0 once at most one fragment is missing."""
    memo: dict[frozenset, Fraction] = {}

    def u(done: frozenset) -> Fraction:
        if done not in memo:
            if len(done) >= V - 1:
                memo[done] = Fraction(0)
            else:
                gain = {v: Fraction(useful_count(blocks, done | {v}), V) + u(done | {v})
                        for v in range(1, V + 1) if v not in done}
                memo[done] = max(
                    sum((gain[v] for v in decisions.values()), start=Fraction(0))
                    for decisions in all_decision_maps(blocks, set(done))
                ) / useful_count(blocks, done)
        return memo[done]

    for size in range(V + 1):
        for sub in itertools.combinations(range(1, V + 1), size):
            u(frozenset(sub))
    return memo


# ---------------------------------------------------------------------------
# Scalar subset DPs: the solvers' one-state-at-a-time loops, kept as the
# reference for the level-synchronous kernels in ``fragsched.mdp``. They read
# the scalar ``DecisionRule.choices``, not the batched ``choice_slots``.


def scalar_forward_dp(rule, rational: bool = True):
    """Propagate subset probabilities through a policy's chain.

    Returns (per_ell E[N], per_ell E[1/N], aggregate reward over stages
    1..V-1), in exact rationals or floats.
    """
    V = rule.V
    zero = Fraction(0) if rational else 0.0
    one = Fraction(1) if rational else 1.0
    probs = {0: one}
    per_ell = []
    per_ell_inv = []
    for _ in range(V):
        level_n = zero
        level_inv = zero
        nxt: dict = {}
        for mask, p in probs.items():
            choices = rule.choices(mask)
            n = len(choices)
            level_n += p * n
            level_inv += p * (Fraction(1, n) if rational else 1.0 / n)
            for vs in choices.values():
                q = Fraction(1, len(vs)) if rational else 1.0 / len(vs)
                for v in vs:
                    child = mask | 1 << v
                    nxt[child] = nxt.get(child, zero) + p * q / n
        per_ell.append(level_n)
        per_ell_inv.append(level_inv)
        probs = nxt
    aggregate = sum(per_ell[1:], start=zero) / V
    return per_ell, per_ell_inv, aggregate


def sorted_first_seen(child, index_of, count: int):
    """The forward DP's numbering of a batch of child masks as it was done
    with a sort: the masks not yet numbered (``index_of`` -1) in order of
    first appearance, by ``np.unique`` and an ``argsort`` of the first
    indices. Numbers them from ``count`` in ``index_of`` and returns every
    child's position and the new masks."""
    import numpy as np

    new = child[index_of[child] < 0]
    fresh, first = np.unique(new, return_index=True)
    fresh = fresh[np.argsort(first)]
    index_of[fresh] = np.arange(count, count + len(fresh))
    return index_of[child], fresh


def scalar_mdp_solve(scheme):
    """Backward induction over all downloaded subsets in descending mask
    order; returns (values, decisions) keyed as in ``MdpSolution``."""
    from fragsched import RandomWorkConserving
    from fragsched.scheduling import compile_policy

    V = scheme.V
    # the random baseline may serve any residual fragment, so its choices are
    # the action sets
    actions = compile_policy(scheme, RandomWorkConserving()).choices
    full = (1 << V) - 1
    values: dict[int, Fraction] = {full: Fraction(0)}
    n_use: dict[int, int] = {full: 0}
    decisions: dict[tuple[int, int], int] = {}
    # a successor's mask is larger, so descending masks meet successors first
    for mask in range(full - 1, -1, -1):
        servers = actions(mask)
        total = Fraction(0)
        for b, residual in servers.items():
            best = None
            for v in residual:  # ascending: the lowest optimal fragment is kept
                child = mask | 1 << v
                val = Fraction(n_use[child], V) + values[child]
                if best is None or val > best:
                    best, best_v = val, v
            decisions[(mask, b)] = best_v
            total += best
        n_use[mask] = len(servers)
        values[mask] = total / len(servers)
    return values, decisions


# ---------------------------------------------------------------------------
# Scalar jump chain: one run, one Python step at a time. The reference for the
# engine's batched kernel; it reads the run's stream through its own draws.


def _stream_words(gen, n):
    import numpy as np

    return gen.integers(0, 1 << 64, size=n, dtype=np.uint64)


def _standard_exponentials(gen, n):
    import numpy as np

    u = _stream_words(gen, n)
    return -np.log((u.astype(np.float64) + 0.5) * 2.0**-64)


def _bounded_picks(gen, n):
    return [int(u) for u in _stream_words(gen, n)]


def _pick(word, m):
    return (word * m) >> 64


# ---------------------------------------------------------------------------
# The decision rule's tables, built from plain Python lists one server and one
# fragment at a time: the reference for the flat numpy construction in
# ``scheduling.DecisionRule``.


def order_matches(fragment_sets, orders) -> bool:
    """Whether ``orders`` lists, server by server, a permutation of the
    scheme's fragments (1-based)."""
    return len(orders) == len(fragment_sets) and all(
        set(o) == set(s) and len(o) == len(set(o)) for o, s in zip(orders, fragment_sets))


def rule_tables(fragment_sets, orders=None) -> dict:
    """``slot_frags``, ``hosts``, ``peers``, ``orders``, ``bits`` and
    ``occ`` of the decision rule of a scheme's 1-based ``fragment_sets`` and
    an optional 1-based placement order, 0-based and padded as
    ``DecisionRule`` documents them."""
    import numpy as np

    frag_sets = [sorted(v - 1 for v in s) for s in fragment_sets]
    B = len(frag_sets)
    V = 1 + max(s[-1] for s in frag_sets if s)
    K = max(len(s) for s in frag_sets)
    occ: list[list[int]] = [[] for _ in range(V)]
    for b, s in enumerate(frag_sets):
        for v in s:
            occ[v].append(b)
    rows = frag_sets if orders is None else [[v - 1 for v in o] for o in orders]
    slot_frags = np.array([list(o) + [V] * (K - len(o)) for o in rows], dtype=np.intp)
    R = max(len(s) for s in occ)
    hosts = np.array([s + [B] * (R - len(s)) for s in occ + [[]]], dtype=np.intp)
    # per server and slot, the other hosts of the slot's fragment, ascending
    others = [[sorted(set(occ[v]) - {b}) if v < V else [] for v in row]
              for b, row in enumerate(slot_frags.tolist())]
    peers = np.array([[[hs[r] if r < len(hs) else B for hs in row] for row in others]
                      for r in range(R - 1)], dtype=np.intp).reshape(R - 1, B, K)
    return {
        "slot_frags": slot_frags,
        "hosts": hosts,
        "peers": peers,
        "orders": rows,
        "bits": [sum(1 << v for v in s) for s in frag_sets],
        "occ": occ,
    }


class ScalarRuntime:
    """0-based fragment and host lists, harmonic scale and policy tables."""

    def __init__(self, scheme, policy) -> None:
        from math import lcm

        from fragsched import MdpPolicy, NonadaptivePolicy, RandomWorkConserving, RankedPolicy

        self.V = scheme.V
        self.B = scheme.B
        self.frag_sets = [sorted(v - 1 for v in s) for s in scheme.fragment_sets]
        self.occ = [sorted(b - 1 for b in s) for s in scheme.occupancy]
        k_max = max(len(s) for s in self.frag_sets)
        scale = lcm(*range(1, k_max + 1))
        self.inv_scaled = [0] + [scale // k for k in range(1, k_max + 1)]
        if isinstance(policy, NonadaptivePolicy):
            self.kind, self.extra = "nonadaptive", [[v - 1 for v in o] for o in policy.order.orders]
        elif isinstance(policy, RandomWorkConserving):
            self.kind, self.extra = "random", None
        elif isinstance(policy, RankedPolicy):
            pos = None
            if policy.init_order is not None:
                pos = []
                for o in policy.init_order.orders:
                    m = [0] * self.V
                    for i, v in enumerate(o):
                        m[v - 1] = i
                    pos.append(m)
            self.kind, self.extra = f"ranked-{policy.rank}-{policy.tie}", pos
        elif isinstance(policy, MdpPolicy):
            self.kind, self.extra = "mdp", decision_items(policy.solution.decisions)
        else:
            raise ValueError(f"unsupported policy {policy!r}")


def scalar_trajectory(rt: ScalarRuntime, mu: float, gen):
    """One jump-chain run; returns (instants, order, profile) as lists."""
    V, B = rt.V, rt.B
    exps = _standard_exponentials(gen, V)
    winner_words = _bounded_picks(gen, V)
    needs_extra = rt.kind == "random" or rt.kind.endswith("seeded")
    extra_words = _bounded_picks(gen, V) if needs_extra else None

    frag_sets, occ = rt.frag_sets, rt.occ
    downloaded = [False] * V
    residual_count = [len(s) for s in frag_sets]
    useful = [b for b in range(B) if residual_count[b] > 0]
    pos = [-1] * B
    for i, b in enumerate(useful):
        pos[b] = i
    kind = rt.kind
    greedy_rank = kind.startswith("ranked-greedy")
    if kind == "nonadaptive":
        pointers = [0] * B
    mask = 0

    instants = [0.0]
    order: list[int] = []
    profile: list[int] = []
    t = 0.0
    for ell in range(V):
        n = len(useful)
        profile.append(n)
        t += exps[ell] / (n * mu)
        instants.append(t)
        w = useful[_pick(winner_words[ell], n)]

        if kind == "nonadaptive":
            o = rt.extra[w]
            k = pointers[w]
            while downloaded[o[k]]:
                k += 1
            pointers[w] = k
            v = o[k]
        elif kind == "random":
            j = _pick(extra_words[ell], residual_count[w])
            for v in frag_sets[w]:
                if not downloaded[v]:
                    if j == 0:
                        break
                    j -= 1
        elif kind == "mdp":
            v = rt.extra[(mask, w)]
        else:  # ranked
            inv_scaled = rt.inv_scaled
            best_s = None
            tied: list[int] = []
            for v2 in frag_sets[w]:
                if downloaded[v2]:
                    continue
                if greedy_rank:
                    s = 0
                    for a in occ[v2]:
                        if residual_count[a] == 1:
                            s += 1
                else:
                    s = 0
                    for a in occ[v2]:
                        s += inv_scaled[residual_count[a]]
                if best_s is None or s < best_s:
                    best_s = s
                    tied = [v2]
                elif s == best_s:
                    tied.append(v2)
            if len(tied) == 1:
                v = tied[0]
            elif rt.extra is not None:  # init-order tie positions
                pm = rt.extra[w]
                v = min(tied, key=lambda x: pm[x])
            elif kind.endswith("seeded"):
                v = tied[_pick(extra_words[ell], len(tied))]
            else:
                v = tied[0]

        order.append(v + 1)
        downloaded[v] = True
        mask |= 1 << v
        for b in occ[v]:
            residual_count[b] -= 1
            if residual_count[b] == 0:
                i = pos[b]
                last = useful[-1]
                useful[i] = last
                pos[last] = i
                useful.pop()
                pos[b] = -1
    return instants, order, profile


# ---------------------------------------------------------------------------
# Scalar ensemble download: one sample, one Python step at a time, rescanning
# every server per step. The reference for the engine's ensemble kernel; it
# reads placements by their raw fields and draws from ``rng.stream`` itself,
# by the version-2 contract: each draw onto [0, m) maps one 32-bit half-word
# h, low half of a word first, to (h * m) >> 32, in Python ints.


def _half_pick(h: int, m: int) -> int:
    return (h * m) >> 32


def _placement_draws(gen, B: int, count: int) -> list[int]:
    """``count`` servers on [0, B) from the stream's first half-words."""
    halves = []
    for u in _stream_words(gen, (count + 1) // 2).tolist():
        halves += [u & 0xFFFFFFFF, u >> 32]
    return [_half_pick(h, B) for h in halves[:count]]


def _ensemble_holders(placement):
    """(holders, item_count): the sorted 0-based servers of each item."""
    if hasattr(placement, "theta"):  # replication: one item per fragment
        return [sorted({b - 1 for b in t}) for t in placement.theta], placement.V
    return [[b - 1] for b in placement.chi], placement.V * placement.R


def scalar_ensemble_profile(placement, order_mode: str, gen):
    """Useful-server profile N(I_0)..N(I_{V-1}) of one ensemble download."""
    holders, item_count = _ensemble_holders(placement)
    return _scalar_profile(holders, placement.B, item_count, placement.V, order_mode, gen)


def _scalar_profile(holders, B: int, item_count: int, steps: int, order_mode: str, gen):
    import numpy as np

    count = [0] * B
    for hs in holders:
        for b in hs:
            count[b] += 1
    # count[b] = number of distinct remaining items stored on b
    profile = np.empty(steps, dtype=np.int64)
    remaining = [True] * item_count

    if order_mode == "fragment":
        order = gen.permutation(item_count)
        for taken in range(steps):
            profile[taken] = sum(1 for c in count if c > 0)
            v = int(order[taken])
            remaining[v] = False
            for b in holders[v]:
                count[b] -= 1
        return profile

    # server-uniform jump chain: step l reads word l, whose low half picks
    # the winner and whose high half picks the item
    by_server: list[list[int]] = [[] for _ in range(B)]
    for v, hs in enumerate(holders):
        for b in hs:
            by_server[b].append(v)
    for taken, word in enumerate(_stream_words(gen, steps).tolist()):
        useful = [b for b in range(B) if count[b] > 0]
        profile[taken] = len(useful)
        w = useful[_half_pick(word & 0xFFFFFFFF, len(useful))]
        residual = [v for v in by_server[w] if remaining[v]]
        v = residual[_half_pick(word >> 32, len(residual))]
        remaining[v] = False
        for b in holders[v]:
            count[b] -= 1
    return profile


def scalar_ensemble_chunk(args):
    """(psum, psumsq, duplicates) over samples start..stop-1 of an ensemble."""
    import numpy as np

    from fragsched import rng

    B, V, R, kind, order_mode, seed, start, stop = args
    psum = np.zeros(V, dtype=np.int64)
    psumsq = np.zeros(V, dtype=np.int64)
    dup = 0
    for s in range(start, stop):
        traj_gen = rng.stream(seed, rng.DOMAIN_TRAJECTORY, s)
        place_gen = rng.stream(seed, rng.DOMAIN_PLACEMENT, s)
        servers = _placement_draws(place_gen, B, V * R)
        if kind == "rep":
            holders = [sorted(set(servers[v * R:(v + 1) * R])) for v in range(V)]
            dup += sum(1 for hs in holders if len(hs) < R)
            p = _scalar_profile(holders, B, V, V, order_mode, traj_gen)
        else:
            p = _scalar_profile([[b] for b in servers], B, V * R, V, order_mode, traj_gen)
        psum += p
        psumsq += p * p
    return psum, psumsq, dup
