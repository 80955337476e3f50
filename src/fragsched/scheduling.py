"""Work-conserving schedulers: nonadaptive placement orders, adaptive ranked
policies, and the uniform-random baseline.

A nonadaptive policy fixes, per server, the order in which its fragments are
offered; after each download a server serves the first of its fragments not
yet fetched. Adaptive ranked policies instead score every remaining fragment
each step and serve the lowest-ranked one per server: the greedy rank counts
the servers that would die if the fragment were fetched next, the harmonic
rank sums reciprocals of the residual sizes of its hosts. Ranks are compared
exactly (integers / rationals), so ties are well-defined.

Each policy's decision rule is written once, in :class:`DecisionRule`, which
:func:`compile_policy` builds. Its ``choices(mask)`` maps every useful server,
in ascending order, to the fragments it may serve next in the downloaded set
``mask``, in ascending order; the server serves each of them with the same
probability. Deterministic rules give one fragment: nonadaptive orders,
ranked rules with lowest-index or init-order ties, and the MDP table. The
random baseline gives the whole residual and seeded ranked ties the tied set.
Rank scores are exact integers (harmonic ranks scaled by lcm(1..K)). The jump
chain, the clock validator, the exact forward DP and the MDP solver all read
this one rule: the clock validator through ``choices``, one state at a time,
which stays the scalar reference; the forward DP through its batched forms,
one array of states at a time: ``decide``, the one fragment of every
(state, server) under a deterministic rule, and ``choice_slots``, the
boolean masks of a uniform rule's free or tied slots; the MDP solver through
the padded slot tables; and the jump chain through the same padded tables
and slot-score formula, with residual sizes it keeps up to date itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import lcm

import numpy as np

from .errors import InvalidParams
from .model import StorageScheme

__all__ = [
    "PlacementOrder",
    "smallest_index_first",
    "uniform_diversity",
    "pushback",
    "NonadaptivePolicy",
    "RankedPolicy",
    "RandomWorkConserving",
    "MdpPolicy",
    "DecisionRule",
    "compile_policy",
]


@dataclass(frozen=True)
class PlacementOrder:
    """Per-server fragment orders: ``orders[b-1]`` is a permutation of the
    fragment set of server b. ``perfect`` records whether every layer (the
    r-th entries across servers) consists of pairwise distinct fragments."""

    orders: tuple[tuple[int, ...], ...]
    perfect: bool | None = None
    label: str = "order"

    def order_of(self, server: int) -> tuple[int, ...]:
        return self.orders[server - 1]

    def layer(self, r: int) -> tuple[int | None, ...]:
        """The r-th scheduled fragment of each server (1-based r); None where
        a server stores fewer than r fragments."""
        return tuple(o[r - 1] if len(o) >= r else None for o in self.orders)


def _flat_order(order: PlacementOrder, rows: np.ndarray, servers: np.ndarray,
                sizes: np.ndarray) -> np.ndarray:
    """The 0-based fragments of ``order``, flat in server order. ``rows``
    lists the scheme's fragments in the same layout, ascending within each
    server, ``servers`` the server of every flat entry and ``sizes`` the
    size of every server.

    Refuses an order that does not list, server by server, a permutation of
    the scheme's fragments: sorted the same way, its rows must equal the
    scheme's, which hold no repeats."""
    B, V = len(sizes), int(rows.max()) + 1
    if len(order.orders) != B:
        raise InvalidParams(f"order lists {len(order.orders)} servers, the scheme has {B}")
    bad = np.fromiter(map(len, order.orders), dtype=np.intp, count=B) != sizes
    if not bad.any():
        flat = np.fromiter(chain.from_iterable(order.orders), dtype=np.intp, count=len(servers))
        flat -= 1
        bad[servers[(flat < 0) | (flat >= V)]] = True
    if not bad.any():
        bad[servers[_sorted_pairs(flat, servers, V, B)[2] != rows]] = True
    if bad.any():
        raise InvalidParams(f"order for server {bad.argmax() + 1} is not a permutation of its fragments")
    return flat


def _sorted_pairs(frags: np.ndarray, servers: np.ndarray, V: int, B: int):
    """Flat (server, fragment) pairs, given in server order, sorted two ways:
    their fragments and servers in (fragment, server) order, and their
    fragments in (server, fragment) order.

    A stable sort by fragment gives the first order, since the pairs come in
    server order; a stable sort of that by server gives the second. On keys
    of 16 bits or fewer, numpy's stable sort is a radix sort."""
    by_frag = frags.astype(np.min_scalar_type(V)).argsort(kind="stable")
    frags, servers = frags[by_frag], servers[by_frag]
    return frags, servers, frags[servers.astype(np.min_scalar_type(B)).argsort(kind="stable")]


def _positions(sizes: np.ndarray) -> np.ndarray:
    """The position of every flat entry within its group, for consecutive
    groups of the given sizes."""
    return np.arange(sizes.sum()) - np.repeat(sizes.cumsum() - sizes, sizes)


def smallest_index_first(scheme: StorageScheme) -> PlacementOrder:
    """Every server serves its fragments in increasing index order."""
    orders = tuple(tuple(sorted(s)) for s in scheme.fragment_sets)
    layers = {len(o) for o in orders}
    perfect = len(layers) == 1 and all(
        _distinct(layer) for layer in zip(*orders)
    )
    return PlacementOrder(orders=orders, perfect=perfect, label="sif")


def _distinct(items) -> bool:
    items = [x for x in items if x is not None]
    return len(items) == len(set(items))


def _max_matching(adjacency: dict[int, list[int]]) -> dict[int, int]:
    """Maximum bipartite matching (Kuhn's augmenting paths), deterministic for
    a fixed iteration order. Returns {left: right}."""
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_right or augment(match_right[v], seen):
                match_left[u] = v
                match_right[v] = u
                return True
        return False

    for u in sorted(adjacency):
        if u not in match_left:
            augment(u, set())
    return match_left


def uniform_diversity(scheme: StorageScheme) -> PlacementOrder:
    """Placement order maximizing fragment diversity within each layer.

    Layer by layer, a maximum bipartite matching assigns distinct fragments to
    as many servers as possible; servers a matching cannot cover fall back to
    their first unassigned fragment and the order is flagged non-perfect. For
    K-regular schemes with B = V every layer is a perfect matching, hence a
    permutation of all fragments.

    Each server prefers fragments by cyclic distance from its own index, so
    on cyclic-shift schemes the layers come out as the shifted rows
    (r, r+1, ...).
    """
    V = scheme.V
    remaining = [
        sorted(s, key=lambda v, b=b: ((v - b) % V, v))
        for b, s in enumerate(scheme.fragment_sets, start=1)
    ]
    orders: list[list[int]] = [[] for _ in range(scheme.B)]
    perfect = len({len(s) for s in scheme.fragment_sets}) == 1
    max_layers = max(len(s) for s in scheme.fragment_sets)
    for _ in range(max_layers):
        active = {b: list(remaining[b - 1]) for b in range(1, scheme.B + 1) if remaining[b - 1]}
        matched = _max_matching(active)
        for b in active:
            if b in matched:
                v = matched[b]
            else:
                # under a maximum matching every fragment of an unmatched
                # server is taken by another server, so this repeats one
                v = active[b][0]
                perfect = False
            orders[b - 1].append(v)
            remaining[b - 1].remove(v)
    return PlacementOrder(
        orders=tuple(tuple(o) for o in orders), perfect=perfect, label="ud"
    )


def pushback(order: PlacementOrder, scheme: StorageScheme, server: int) -> PlacementOrder:
    """Defer the fragments of one server to the back of every other server.

    On each server a != server, the fragments shared with the chosen server
    move to the final positions of a's order, keeping their relative order;
    the chosen server's own order is untouched.
    """
    if not 1 <= server <= scheme.B:
        raise InvalidParams(f"server {server} outside [1, {scheme.B}]")
    DecisionRule(scheme.fragment_sets, order=order)  # refuses a foreign order
    target = scheme.fragment_sets[server - 1]
    new_orders = []
    for b, o in enumerate(order.orders, start=1):
        if b == server:
            new_orders.append(o)
            continue
        kept = [v for v in o if v not in target]
        deferred = [v for v in o if v in target]
        new_orders.append(tuple(kept + deferred))
    return PlacementOrder(
        orders=tuple(new_orders),
        perfect=None,
        label=f"{order.label}+pb{server}",
    )


@dataclass(frozen=True)
class NonadaptivePolicy:
    """Serve each server's fragments in a fixed placement order."""

    order: PlacementOrder

    def describe(self) -> str:
        return f"nonadaptive({self.order.label})"


@dataclass(frozen=True)
class RankedPolicy:
    """Adaptive ranked scheduler (greedy or harmonic rank).

    ``tie='low'`` breaks ties toward the lowest fragment index, ``'seeded'``
    uniformly at random from the run's stream. An ``init_order`` instead
    breaks every tie by position in that order, so it takes ``tie='low'``;
    since all ranks tie before the first download, it doubles as the initial
    schedule.
    """

    rank: str = "harmonic"
    tie: str = "low"
    init_order: PlacementOrder | None = None

    def __post_init__(self) -> None:
        if self.rank not in ("greedy", "harmonic"):
            raise InvalidParams(f"unknown rank function {self.rank!r}")
        if self.tie not in ("low", "seeded"):
            raise InvalidParams(f"unknown tie rule {self.tie!r}")
        if self.tie == "seeded" and self.init_order is not None:
            raise InvalidParams("tie='seeded' cannot be combined with an init order, "
                                "which breaks every tie")

    def describe(self) -> str:
        init = f",init={self.init_order.label}" if self.init_order else ""
        return f"ranked({self.rank},tie={self.tie}{init})"


@dataclass(frozen=True)
class RandomWorkConserving:
    """Every server offers a uniformly random remaining fragment."""

    def describe(self) -> str:
        return "random"


@dataclass(frozen=True)
class MdpPolicy:
    """Table policy produced by the exact finite-horizon solver."""

    solution: "MdpSolution"  # noqa: F821  (defined in fragsched.mdp)

    def describe(self) -> str:
        return "mdp"


class DecisionRule:
    """A policy compiled onto the 0-based scheme index every engine shares.

    Servers and fragments are 0-based and a downloaded set is a bitmask over
    fragments. ``sizes[b]`` is the number of fragments server b stores.
    ``values[k]`` is the rank value of a host with residual size k
    (k = 0..K), or None for an unranked policy; ``uniform`` draws among tied
    fragments uniformly instead of taking the first; ``table`` is an MDP
    solution's dense (2^V, B) decision array, ``table[mask, b]`` the fragment
    server b serves in state mask (-1 where b is not useful), or None.
    ``draws`` is the number of 64-bit stream words a jump-chain run takes per
    step.

    The constructor builds, in numpy from the flat fragment sets, the padded
    tables the batched engines read: ``slot_frags[b, k]`` is the k-th
    fragment of server b in tie-break order, padded to K slots with the dummy
    fragment V. That order is ascending unless the policy fixes one (a
    nonadaptive placement order or a ranked init order). ``hosts[v]`` lists
    the hosts of fragment v, ascending, padded with the dummy server B; row V,
    the dummy fragment's, holds B only. The rest is lazy, built on first
    use: ``peers`` (the hosts of every slot's fragment other than the slot's
    own server), ``slot_bits``, ``server_bits`` (each server's fragment
    mask), ``rank_values`` and ``key_none`` serve the batched :meth:`decide`
    and :meth:`choice_slots` and the jump chain; the Python lists ``orders[b]``
    (row b of ``slot_frags`` without padding), ``occ[v]`` (the hosts of
    fragment v) and ``bits[b]`` (the fragment mask of server b, so its
    residual size under ``mask`` is ``(bits[b] & ~mask).bit_count()``) serve
    only the scalar :meth:`choices`. :meth:`decide` and :meth:`choice_slots`
    need masks that fit in int64 (V <= 62).

    A ranked slot's score leaves out the slot's own server. Every real slot
    of server b holds a fragment that b stores, so b's rank value would add
    the same amount to each of b's slots and change no minimum and no tie;
    a fragment's full rank score, which the scalar :meth:`choices` keeps as
    the reference, is that of its slot plus b's rank value. Slot k of server
    b scores ``sum_r rank_values[residual[peers[r, b, k]]]``, over the R - 1
    peer rows (none at R = 1); padding slots are always downloaded.

    A placement ``order`` that is not, server by server, a permutation of the
    scheme's fragments is refused with ``InvalidParams``.
    """

    def __init__(self, fragment_sets, rank: str | None = None, order: PlacementOrder | None = None,
                 uniform: bool = False, table: np.ndarray | None = None) -> None:
        B = len(fragment_sets)
        sizes = np.fromiter(map(len, fragment_sets), dtype=np.intp, count=B)
        servers = np.repeat(np.arange(B), sizes)
        frags = np.fromiter(chain.from_iterable(fragment_sets), dtype=np.intp, count=len(servers))
        frags -= 1
        V, K = int(frags.max()) + 1, int(sizes.max())
        self.B, self.V, self.K, self.sizes = B, V, K, sizes
        host_frags, hosts, rows = _sorted_pairs(frags, servers, V, B)
        counts = np.bincount(frags, minlength=V)
        self.hosts = np.full((V + 1, int(counts.max())), B, dtype=np.intp)
        self.hosts[host_frags, _positions(counts)] = hosts
        ordered = rows if order is None else _flat_order(order, rows, servers, sizes)
        self.slot_frags = np.full((B, K), V, dtype=np.intp)
        self.slot_frags[servers, _positions(sizes)] = ordered
        if rank == "greedy":
            self.values = [0, 1] + [0] * (K - 1)
        elif rank == "harmonic":
            scale = lcm(*range(1, K + 1))
            self.values = [0] + [scale // k for k in range(1, K + 1)]
        else:
            self.values = None
        self.uniform = uniform
        self.table = table
        self.draws = 3 if uniform else 2  # holding time, winner, uniform pick

    @cached_property
    def orders(self) -> list[list[int]]:
        return [row[:k] for row, k in zip(self.slot_frags.tolist(), self.sizes.tolist())]

    @cached_property
    def occ(self) -> list[list[int]]:
        B = self.B
        return [[b for b in row if b != B] for row in self.hosts[:-1].tolist()]

    @cached_property
    def bits(self) -> list[int]:
        return [sum([1 << v for v in o]) for o in self.orders]

    def _scores(self, mask: int) -> list[int]:
        """Rank score of every fragment (meaningful for those not in ``mask``)."""
        values = self.values
        sizes = [(x & ~mask).bit_count() for x in self.bits]
        return [sum([values[sizes[b]] for b in hosts]) for hosts in self.occ]

    @cached_property
    def slot_bits(self) -> np.ndarray:
        """The bit of the fragment in each order slot; 0 in a padding slot."""
        V = self.V
        return np.array([[1 << v if v < V else 0 for v in row] for row in self.slot_frags.tolist()],
                        dtype=np.int64)

    @cached_property
    def peers(self) -> np.ndarray:
        """(R - 1, B, K): the hosts of the fragment in slot k of server b
        other than b, ascending, padded with the dummy server B; all B in a
        padding slot. Own entries are set above B, so a sort along the host
        axis moves each to the last row, which is dropped."""
        hosts = self.hosts.T.take(self.slot_frags, axis=1)
        hosts[hosts == np.arange(self.B)[:, None]] = self.B + 1
        hosts.sort(axis=0)
        return hosts[:-1]

    @cached_property
    def server_bits(self) -> np.ndarray:
        """The fragment mask of each server, int64: server b's residual
        fragments in state ``mask`` are ``server_bits[b] & ~mask``."""
        return np.bitwise_or.reduce(self.slot_bits, axis=1)

    @cached_property
    def key_none(self) -> int:
        """A score above every slot score: that of a downloaded slot."""
        return self.hosts.shape[1] * max(self.values) + 1

    @cached_property
    def rank_values(self) -> np.ndarray:
        """``values + [0]``: the rank value of a host by residual size, and 0
        at K + 1, the dummy server's size (larger sizes read it, clipped). The
        dtype is the narrowest of int32, int64 and object that holds
        ``key_none``, so slot scores stay exact."""
        dtype = next((d for d in (np.int32, np.int64) if self.key_none <= np.iinfo(d).max), object)
        return np.array(self.values + [0], dtype=dtype)

    def _free(self, masks: np.ndarray) -> np.ndarray:
        """The (len(masks), B, K) slots whose fragment is not in the state."""
        return (self.slot_bits & ~masks[:, None, None]) != 0

    def _slot_scores(self, masks: np.ndarray, free: np.ndarray) -> np.ndarray:
        """The rank score of every slot, ``key_none`` where it is not
        ``free``: ``sum_r rank_values[residual[peers[r, b, k]]]``, as in the
        jump chain, with the dummy server's residual at K + 1."""
        residual = np.full((len(masks), self.B + 1), self.K + 1)
        residual[:, :-1] = np.bitwise_count(self.server_bits & ~masks[:, None])
        scores = self.rank_values[residual][:, self.peers].sum(axis=1)
        np.putmask(scores, ~free, self.key_none)
        return scores

    def decide(self, masks: np.ndarray) -> np.ndarray:
        """The one fragment each server serves in every state of the int64
        array ``masks`` under a deterministic rule (not ``uniform``), as a
        (len(masks), B) array; an entry is meaningful only where its server
        is useful. The table's row (MDP), the first slot of least rank score
        (ranked) or the first free slot (nonadaptive)."""
        if self.table is not None:
            return self.table[masks]
        free = self._free(masks)
        if self.values is None:
            slot = free.argmax(axis=2)
        else:
            slot = self._slot_scores(masks, free).argmin(axis=2)
        return self.slot_frags[np.arange(self.B), slot]

    def choice_slots(self, masks: np.ndarray) -> np.ndarray:
        """:meth:`choices` of every state in the int64 array ``masks`` under
        a uniform rule, as a boolean (len(masks), B, K) array over the order
        slots ``slot_frags``; a deterministic rule's one choice per server is
        :meth:`decide`'s.

        Server b is useful in state i where row [i, b] has a marked slot; its
        choices are the fragments of the marked slots, in slot order: every
        free slot (random), or every free slot of least rank score (ranked,
        seeded ties)."""
        free = self._free(masks)
        if self.values is not None:
            scores = self._slot_scores(masks, free)
            free &= scores == scores.min(axis=2, keepdims=True)
        return free

    def choices(self, mask: int) -> dict[int, list[int]]:
        """Per useful server (ascending), the fragments it may serve next in
        state ``mask``, ascending; each is served with probability one over
        their number."""
        table = self.table
        scores = None if self.values is None else self._scores(mask)
        out = {}
        for b, order in enumerate(self.orders):
            if not self.bits[b] & ~mask:
                continue
            if table is not None:
                out[b] = [int(table[mask, b])]
                continue
            free = [v for v in order if not mask >> v & 1]
            if scores is not None:
                best = min([scores[v] for v in free])
                free = [v for v in free if scores[v] == best]
            out[b] = free if self.uniform else free[:1]
        return out


def compile_policy(scheme: StorageScheme, policy) -> DecisionRule:
    """The decision rule of ``policy`` on ``scheme``: the one place a policy's
    type is read. A placement order or MDP solution made for another scheme
    is refused."""
    if isinstance(policy, NonadaptivePolicy):
        return DecisionRule(scheme.fragment_sets, order=policy.order)
    if isinstance(policy, RandomWorkConserving):
        return DecisionRule(scheme.fragment_sets, uniform=True)
    if isinstance(policy, RankedPolicy):
        return DecisionRule(scheme.fragment_sets, rank=policy.rank,
                            order=policy.init_order, uniform=policy.tie == "seeded")
    if isinstance(policy, MdpPolicy):
        if policy.solution.fragment_sets != scheme.fragment_sets:
            raise InvalidParams("MDP solution made for another scheme")
        return DecisionRule(scheme.fragment_sets, table=policy.solution.decisions)
    raise InvalidParams(f"unsupported policy {policy!r}")
