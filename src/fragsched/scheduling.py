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
which stays the scalar reference; the exact solvers through its batched form
``choice_slots``, one array of states at a time; and the jump chain through
the same padded tables and slot-score formula, with residual sizes it keeps
up to date itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


def _check_order_matches(scheme: StorageScheme, order: PlacementOrder) -> None:
    if len(order.orders) != scheme.B:
        raise InvalidParams(f"order lists {len(order.orders)} servers, the scheme has {scheme.B}")
    for b, o in enumerate(order.orders, start=1):
        if set(o) != set(scheme.fragment_sets[b - 1]) or len(o) != len(set(o)):
            raise InvalidParams(f"order for server {b} is not a permutation of its fragments")


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
    _check_order_matches(scheme, order)
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
    fragments. ``frag_sets[b]`` and ``occ[v]`` are sorted; ``bits[b]`` is the
    fragment mask of server b, so its residual size under ``mask`` is
    ``(bits[b] & ~mask).bit_count()``. ``orders[b]`` lists the fragments of
    server b in tie-break order: ascending unless the policy fixes an order
    (a nonadaptive placement order or a ranked init order). ``values[k]`` is
    the rank value of a host with residual size k (k = 0..K), or None for an
    unranked policy; ``uniform`` draws among tied fragments uniformly instead
    of taking the first; ``table`` is an MDP solution's dense (2^V, B)
    decision array, ``table[mask, b]`` the fragment server b serves in state
    mask (-1 where b is not useful), or None. ``draws`` is the number of
    64-bit stream words a jump-chain run takes per step.

    The batched tables are built on first use and serve both batched
    engines, :meth:`choice_slots` and the jump chain: ``slot_frags[b, k]`` is
    ``orders[b][k]``, padded to K slots with the dummy fragment V; ``hosts``
    pads every fragment's hosts with the dummy server B; ``cand_hosts`` holds
    the hosts of every slot's fragment, and ``rank_values`` the rank value of
    every residual size. :meth:`choice_slots` needs masks that fit in int64
    (V <= 62).
    """

    def __init__(self, fragment_sets, rank: str | None = None, order: PlacementOrder | None = None,
                 uniform: bool = False, table: np.ndarray | None = None) -> None:
        self.frag_sets = [sorted(v - 1 for v in s) for s in fragment_sets]
        self.B = len(self.frag_sets)
        self.V = 1 + max(s[-1] for s in self.frag_sets if s)
        self.occ: list[list[int]] = [[] for _ in range(self.V)]
        for b, s in enumerate(self.frag_sets):
            for v in s:
                self.occ[v].append(b)
        self.bits = [sum(1 << v for v in s) for s in self.frag_sets]
        self.K = K = max(len(s) for s in self.frag_sets)
        if order is None:
            self.orders = self.frag_sets
        else:
            self.orders = [[v - 1 for v in o] for o in order.orders]
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

    def _scores(self, mask: int) -> list[int]:
        """Rank score of every fragment (meaningful for those not in ``mask``)."""
        values = self.values
        sizes = [(x & ~mask).bit_count() for x in self.bits]
        return [sum([values[sizes[b]] for b in hosts]) for hosts in self.occ]

    @cached_property
    def slot_frags(self) -> np.ndarray:
        K, V = self.K, self.V
        return np.array([list(o) + [V] * (K - len(o)) for o in self.orders], dtype=np.intp)

    @cached_property
    def slot_bits(self) -> np.ndarray:
        """The bit of the fragment in each order slot; 0 in a padding slot."""
        V = self.V
        return np.array([[1 << v if v < V else 0 for v in row] for row in self.slot_frags.tolist()],
                        dtype=np.int64)

    @cached_property
    def hosts(self) -> np.ndarray:
        """(V + 1, R) hosts of every fragment, filled up with the dummy server
        B; row V is the dummy fragment of the padding slots."""
        R = max(len(s) for s in self.occ)
        return np.array([s + [self.B] * (R - len(s)) for s in self.occ + [[]]], dtype=np.intp)

    @cached_property
    def cand_hosts(self) -> np.ndarray:
        """(R, B, K): host r of the fragment in slot k of server b."""
        return np.ascontiguousarray(self.hosts[self.slot_frags].transpose(2, 0, 1))

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

    def choice_slots(self, masks: np.ndarray) -> np.ndarray:
        """:meth:`choices` of every state in the int64 array ``masks``, as a
        boolean (len(masks), B, K) array over the order slots ``slot_frags``.

        Server b is useful in state i where row [i, b] has a marked slot; its
        choices are the fragments of the marked slots, in slot order. A slot's
        rank score is ``sum_r rank_values[residual[cand_hosts[r, b, k]]]``,
        as in the jump chain."""
        free = (self.slot_bits & ~masks[:, None, None]) != 0
        if self.table is not None:
            return free & (self.slot_frags == self.table[masks][:, :, None])
        if self.values is not None:
            residual = np.full((len(masks), self.B + 1), self.K + 1)
            residual[:, :-1] = free.sum(axis=2)
            scores = self.rank_values[residual][:, self.cand_hosts].sum(axis=1)
            scores[~free] = self.key_none
            free &= scores == scores.min(axis=2, keepdims=True)
        return free if self.uniform else free & (free.cumsum(axis=2) == 1)

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
        _check_order_matches(scheme, policy.order)
        return DecisionRule(scheme.fragment_sets, order=policy.order)
    if isinstance(policy, RandomWorkConserving):
        return DecisionRule(scheme.fragment_sets, uniform=True)
    if isinstance(policy, RankedPolicy):
        if policy.init_order is not None:
            _check_order_matches(scheme, policy.init_order)
        return DecisionRule(scheme.fragment_sets, rank=policy.rank,
                            order=policy.init_order, uniform=policy.tie == "seeded")
    if isinstance(policy, MdpPolicy):
        if policy.solution.fragment_sets != scheme.fragment_sets:
            raise InvalidParams("MDP solution made for another scheme")
        return DecisionRule(scheme.fragment_sets, table=policy.solution.decisions)
    raise InvalidParams(f"unsupported policy {policy!r}")
