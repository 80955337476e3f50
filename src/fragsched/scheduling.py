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
this one rule, through one set of padded slot tables and one slot-pick code:
the forward DP one array of states at a time, through ``decide``, the one
fragment of every (state, server) under a deterministic rule, and
``choice_slots``, the boolean masks of a uniform rule's free or tied slots;
the clock validator one state at a time through ``choices``, the same code
on a one-state batch, at any V; the MDP solver through the padded slot
tables; and the jump chain through the same tables and slot-score formula,
with residual sizes it keeps up to date itself.
"""

from __future__ import annotations

from bisect import bisect_left
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

    Each matching is Kuhn's augmenting-path search: servers in ascending
    order each start one depth-first search, which tries the server's
    unassigned fragments in preference order and, for a taken fragment,
    recurses into its owner. A fragment is visited at most once per search:
    it is marked with the search's stamp, one tick of a counter, in one
    array for the whole order, so no search allocates. Owners and matches
    are flat lists indexed by id.
    """
    V, B = scheme.V, scheme.B
    remaining = []
    for b, s in enumerate(scheme.fragment_sets, start=1):
        # by cyclic distance (v - b) % V: the fragments from b's residue
        # (b - 1) % V + 1 up, then those below it
        s = sorted(s)
        cut = bisect_left(s, (b - 1) % V + 1)
        remaining.append(s[cut:] + s[:cut])
    orders: list[list[int]] = [[] for _ in range(B)]
    perfect = len({len(s) for s in remaining}) == 1
    seen = [0] * (V + 1)  # the stamp of the last search that visited each fragment
    stamp = 0

    def augment(b: int) -> bool:
        for v in remaining[b]:
            if seen[v] != stamp:
                seen[v] = stamp
                a = owner[v]
                if a < 0 or augment(a):
                    owner[v] = b
                    match[b] = v
                    return True
        return False

    for _ in range(max(map(len, remaining))):
        owner = [-1] * (V + 1)  # the 0-based server each fragment is matched to
        match = [0] * B         # the fragment each server is matched to, 0 if none
        active = [b for b in range(B) if remaining[b]]
        for b in active:
            stamp += 1
            augment(b)
        for b in active:
            v = match[b]
            if not v:
                # under a maximum matching every fragment of an unmatched
                # server is taken by another server, so this repeats one
                v = remaining[b][0]
                perfect = False
            orders[b].append(v)
            remaining[b].remove(v)
    return PlacementOrder(
        orders=tuple(tuple(o) for o in orders), perfect=perfect, label="ud"
    )


def pushback(order: PlacementOrder, scheme: StorageScheme, server: int) -> PlacementOrder:
    """Defer the fragments of one server to the back of every other server.

    On each server a != server, the fragments shared with the chosen server
    move to the final positions of a's order, keeping their relative order;
    the chosen server's own order is untouched. An ``order`` that is not,
    server by server, a permutation of the scheme's fragments is refused
    with ``InvalidParams``, as ``compile_policy`` refuses it.
    """
    if not 1 <= server <= scheme.B:
        raise InvalidParams(f"server {server} outside [1, {scheme.B}]")
    if len(order.orders) != scheme.B:
        raise InvalidParams(f"order lists {len(order.orders)} servers, the scheme has {scheme.B}")
    for b, (o, s) in enumerate(zip(order.orders, scheme.fragment_sets), start=1):
        if len(o) != len(s) or set(o) != s:
            raise InvalidParams(f"order for server {b} is not a permutation of its fragments")
    # a stable sort on membership keeps each part in its relative order
    shared = scheme.fragment_sets[server - 1].__contains__
    return PlacementOrder(
        orders=tuple(o if b == server else tuple(sorted(o, key=shared))
                     for b, o in enumerate(order.orders, start=1)),
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
    mask), ``rank_values`` and ``key_none``. These are the rule's one set of
    tables: the batched :meth:`decide` and :meth:`choice_slots`, the
    one-state :meth:`choices` and the jump chain all read them.
    :meth:`decide` and :meth:`choice_slots` take int64 masks (V <= 62);
    :meth:`choices` takes a Python int of any width and runs its one state
    through the same slot-pick code.

    A ranked slot's score leaves out the slot's own server. Every real slot
    of server b holds a fragment that b stores, so b's rank value would add
    the same amount to each of b's slots and change no minimum and no tie;
    a fragment's full rank score is that of any of its slots plus the rank
    value of the slot's server. Slot k of server b scores
    ``sum_r rank_values[residual[peers[r, b, k]]]``, over the R - 1 peer
    rows (none at R = 1); padding slots are always downloaded.

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

    def _state(self, masks: np.ndarray):
        """The (len(masks), B, K) slots whose fragment is not in the state,
        and, for a ranked rule only, the (len(masks), B) residual sizes of
        the servers, for states given as int64 masks."""
        free = (self.slot_bits & ~masks[:, None, None]) != 0
        if self.values is None:
            return free, None
        return free, np.bitwise_count(self.server_bits & ~masks[:, None])

    def _slot_scores(self, free: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """The rank score of every slot, ``key_none`` where it is not
        ``free``: ``sum_r rank_values[residual[peers[r, b, k]]]``, as in the
        jump chain, with the dummy server's residual at K + 1."""
        sizes = np.full((len(free), self.B + 1), self.K + 1)
        sizes[:, :-1] = residual
        scores = self.rank_values[sizes][:, self.peers].sum(axis=1)
        np.putmask(scores, ~free, self.key_none)
        return scores

    def _first(self, free: np.ndarray, residual: np.ndarray | None) -> np.ndarray:
        """The fragment each server serves in every state under a
        deterministic rule other than a table: the first free slot's
        (nonadaptive) or the first of least rank score's (ranked)."""
        if self.values is None:
            slot = free.argmax(axis=2)
        else:
            slot = self._slot_scores(free, residual).argmin(axis=2)
        return self.slot_frags[np.arange(self.B), slot]

    def _marked(self, free: np.ndarray, residual: np.ndarray | None) -> np.ndarray:
        """The slots a uniform rule draws from in every state: every free
        slot (random), or every free slot of least rank score (ranked,
        seeded ties). Marks them in ``free``."""
        if self.values is not None:
            scores = self._slot_scores(free, residual)
            free &= scores == scores.min(axis=2, keepdims=True)
        return free

    def decide(self, masks: np.ndarray) -> np.ndarray:
        """The one fragment each server serves in every state of the int64
        array ``masks`` under a deterministic rule (not ``uniform``), as a
        (len(masks), B) array; an entry is meaningful only where its server
        is useful. The table's row (MDP), the first slot of least rank score
        (ranked) or the first free slot (nonadaptive)."""
        if self.table is not None:
            return self.table[masks]
        return self._first(*self._state(masks))

    def choice_slots(self, masks: np.ndarray) -> np.ndarray:
        """:meth:`choices` of every state in the int64 array ``masks`` under
        a uniform rule, as a boolean (len(masks), B, K) array over the order
        slots ``slot_frags``; a deterministic rule's one choice per server is
        :meth:`decide`'s.

        Server b is useful in state i where row [i, b] has a marked slot; its
        choices are the fragments of the marked slots, in slot order: every
        free slot (random), or every free slot of least rank score (ranked,
        seeded ties)."""
        return self._marked(*self._state(masks))

    def choices(self, mask: int) -> dict[int, list[int]]:
        """Per useful server (ascending), the fragments it may serve next in
        state ``mask``, a bitmask of any width; each is served with
        probability one over their number. Several only under a uniform
        rule, in slot order, which is ascending there.

        One state through the code of :meth:`decide` and
        :meth:`choice_slots`, with its free slots read from a 0/1 downloaded
        row (the dummy fragment V downloaded) and its residual sizes counted
        from them, so no int64 mask limits V."""
        V = self.V
        downloaded = np.unpackbits(np.frombuffer((mask | 1 << V).to_bytes(V // 8 + 1, "little"),
                                                 np.uint8), count=V + 1, bitorder="little")
        free = downloaded[self.slot_frags][None] == 0
        residual = free.sum(axis=2)
        if self.uniform:
            marked = self._marked(free, residual)[0]
            frags, counts = self.slot_frags[marked].tolist(), marked.sum(axis=1).tolist()
            ends = np.cumsum(counts).tolist()
            return {b: frags[end - n:end] for b, (n, end) in enumerate(zip(counts, ends)) if n}
        chosen = self.table[mask] if self.table is not None else self._first(free, residual)[0]
        return {b: [v] for b, (v, n) in enumerate(zip(chosen.tolist(), residual[0].tolist())) if n}


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
