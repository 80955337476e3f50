"""Exact dynamic programming over download subsets, the home of every exact
evaluation. Three entry points, with fixed caps on V: ``mdp_solve``, the
optimal scheduler (V <= 20); ``exact_mean_download``, a policy's expectations
in rationals or floats (V <= 24); and ``policy_evaluate_exact``, the same in
rationals at mu = 1. Both evaluators return a ``PolicyEvaluation``.

The downloaded set evolves as a Markov chain: from state I the next fragment
is v with probability (1/N(I)) * #{useful servers scheduled on v}. Treating
each download as a stage with reward N(I_l)/V turns optimal scheduling into a
finite-horizon decision problem solved exactly by backward induction. The
reward-to-go u(I) counts stages l = |I|+1 .. V-1, so u of any set of size
V-1 or V is zero and the optimal value reported for a scheme is u(empty).

Because the transition factorizes over servers, the optimal decision at each
useful server is simply the residual fragment maximizing reward-plus-value of
the successor state. ``mdp_solve`` returns those decisions in the dense
(2^V, B) int8 array it computes them in, -1 where a server is not useful; the
decision rule, the forward DP and the jump chain read that array as is.

Both solvers walk the 2^V downloaded sets one popcount level at a time, as
numpy arrays indexed by mask, a batch of states at a time. ``mdp_solve``
runs the levels from the full set down over every set; the forward DP
(``exact_mean_download``) runs the levels up from the empty set over the
reachable sets only, each level in first-insertion order: the order in
which a loop over parents, then servers, then fragments first meets them.
Under a deterministic rule (a nonadaptive order, a ranked rule with
lowest-index or init-order ties, an MDP table) every useful server makes
one choice, so a batch reads one fragment per (state, server) from
``DecisionRule.decide``, finds the useful servers from each server's
fragment mask, and weights every contribution of a parent alike, with one
weight per parent state. Only the uniform rules (random, seeded ranked
ties), whose servers choose among several fragments, read the batch's
boolean slot masks from ``DecisionRule.choice_slots`` and count each
server's marked slots.
``_first_seen`` numbers a batch's new sets in that order with one
``np.minimum.at`` of position markers into the mask-to-position array it
already keeps, so it needs no sort and no further array of size 2^V.
``mdp_solve`` keeps each state's reward-plus-value numerator, not its value:
W(I) = N(I)/V + u*(I) is what the recursion ranks, and the solution keeps it.
Before it solves a level, it ranks the children level's numerators once:
equal numerators share a code, counted from 1 and kept in an int32 array
indexed by mask. A parent reads its children's codes over the order slots,
so a server's choice is the first arg-max over integers, and the chosen
totals are gathered from the level's sorted distinct numerators with a 0 in
front. A downloaded or padding slot leads back to the parent itself, whose
code is still 0, so it never wins and a server that is not useful adds 0.

Rational mode keeps Python-int numerators over one common denominator per
level. The forward DP builds a Fraction only for a level's totals;
``mdp_solve`` builds none: its solution keeps the numerator array and the
level denominators, and ``reward_to_go`` takes the reward term out of the
one numerator asked for and builds its Fraction.
- Forward DP: D**l at level l, with D = lcm(1..B) * lcm(1..K). Every step
  has probability 1/(n*c) for n <= B useful servers and c <= K choices.
- ``mdp_solve``: V * L**d at depth d (d fragments missing), with
  L = lcm(1..B). All children of one level share it, so ranking their
  reward-plus-value numerators ranks their values exactly; equal ones share
  a code, so the first arg-max over a server's ascending fragment slots keeps
  the lowest optimal fragment.

Float mode replays the arithmetic of that one-state-at-a-time loop, so every
float is bit-identical to it: each contribution is p*q/n, under a
deterministic rule p/n, which equals p*1.0/n to the bit; a child sums its
contributions in order of parent, server, then fragment (``np.add.at`` adds
in index order); level totals add up in state order (``np.add.accumulate``).

The state space is 2^V, so each entry point refuses V above its cap, stating
the state count and the estimated peak memory before anything is allocated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

import numpy as np

from .errors import InvalidParams, TooManyFragments
from .model import StorageScheme, check_rate, physical_memory
from .scheduling import DecisionRule, RandomWorkConserving, compile_policy

__all__ = ["MdpSolution", "PolicyEvaluation", "mdp_solve", "exact_mean_download",
           "policy_evaluate_exact"]

DEFAULT_MDP_CAP = 20  # largest V ``mdp_solve`` accepts
DEFAULT_EVAL_CAP = 24  # largest V the forward DP accepts

_SLOTS = 1 << 13  # order slots per batch of states: bounds the per-batch arrays


def _peak_bytes(scheme: StorageScheme, solver: str) -> int:
    """Estimated peak memory of one ``solver`` run ('mdp', 'float' or
    'rational' forward DP) on ``scheme``, from bytes per state measured at
    V = 12..18 and rounded up.

    ``mdp_solve`` holds a Python-int numerator per state in ``values`` (an
    8-byte pointer and the int, of about d * log2(L) bits at depth d), a
    B-byte row of the int8 decision array, and per mask while it runs an
    8-byte level index and a 4-byte child code:
    73-109 bytes a state at B = V, 151-212 at B = 3V and 186-262 at B = 4V,
    measured as ``ru_maxrss`` growth at V = 15..18 by
    ``tools/exact_scaling.py``, which 3 * B + 170 covers (below V = 15 the
    per-batch buffers weigh more).
    log2(L) is about 1.4 B, so the numerators average about 0.09 * V * B
    bytes, under the 3 * B slope up to the cap V = 20. The forward DP holds
    two levels of reachable states and a position per mask: 32 bytes a
    state in floats, where ``tools/exact_scaling.py`` measured 0-23 bytes
    of ``ru_maxrss`` growth at V = 15..18 for the random and the harmonic
    rule, B = V..4V; plus the numerators' bytes in rationals (V * log2(D)
    bits at the widest level, D as in ``_forward_dp``).
    """
    V, B, K = scheme.V, scheme.B, scheme.params.K
    if solver == "mdp":
        per_state = 3 * B + 170
    else:
        per_state = 32
        if solver == "rational":
            per_state += V * (lcm(*range(1, B + 1)) * lcm(*range(1, K + 1))).bit_length() // 8
    return per_state << V


def check_size(scheme: StorageScheme, solver: str) -> None:
    """Refuse V above the ``solver``'s cap, or an estimated peak memory above
    this machine's physical memory, before anything is allocated, stating the
    state count and the estimated peak memory (and any memory it exceeds)."""
    V = scheme.V
    peak = _peak_bytes(scheme, solver)
    cap, what = (DEFAULT_MDP_CAP, "solver") if solver == "mdp" else (DEFAULT_EVAL_CAP, "evaluation")
    if V > cap:
        raise TooManyFragments(f"V={V} exceeds the {what} cap {cap}: {1 << V:,} states, "
                               f"estimated peak memory {peak / 2**30:,.1f} GiB")
    physical = physical_memory()  # None off POSIX, where only the cap applies
    if physical is not None and peak > physical:
        raise TooManyFragments(f"V={V}, B={scheme.B}: {1 << V:,} states, estimated peak "
                               f"memory {peak / 2**30:,.1f} GiB exceeds the "
                               f"{physical / 2**30:,.1f} GiB of physical memory")


def _as_mask(subset, V: int) -> int:
    """``subset`` as a mask: an integer (a Python or numpy int, not a bool)
    is a mask in [0, 2^V), anything else an iterable of 1-based fragments,
    each an integer by the same rule. A bool or a float is refused, as the
    subset or as a fragment, where numpy would read it as a boolean index,
    Python as the fragment 1, or it would fail as not iterable or not
    shiftable. A numpy integer is read as a Python int, so a uint8 fragment
    9 does not wrap to the empty mask in ``1 << 8``."""
    mask = _index(subset)
    if mask is not None:
        if not 0 <= mask < 1 << V:
            raise InvalidParams(f"mask {mask} outside [0, 2**{V})")
        return mask
    if isinstance(subset, (bool, np.bool_, float, np.floating)):
        raise InvalidParams(f"subset {subset!r} is neither an int mask nor 1-based fragments")
    mask = 0
    for v in subset:
        fragment = _index(v)
        if fragment is None:
            raise InvalidParams(f"fragment {v!r} is not an integer")
        if not 1 <= fragment <= V:
            raise InvalidParams(f"fragment {v} outside [1, {V}]")
        mask |= 1 << (fragment - 1)
    return mask


def _index(x) -> int | None:
    """``x`` as a Python int through ``operator.index``, or None where it is
    not an integer; a bool, Python's or numpy's, counts as none."""
    if isinstance(x, (bool, np.bool_)):
        return None
    try:
        return operator.index(x)
    except TypeError:
        return None


@dataclass(frozen=True, eq=False)
class MdpSolution:
    """Output of backward induction on the scheme with ``fragment_sets``:
    exact reward-plus-value per downloaded subset and the optimal decisions.

    ``values`` is the solver's object array of 2^V Python-int numerators,
    indexed by mask: that of W(I) = N(I)/V + u*(I), the quantity the
    recursion ranks, over ``denominators[|I|]``, V * L**d with d = V - |I|
    and L = lcm(1..B). ``reward_to_go`` takes the reward term N(I) * L**d
    out of the one numerator it is asked for and builds its Fraction, and
    ``optimal_value`` is u*(empty).

    ``decisions`` is a dense (2^V, B) int8 array: its entry at (mask, b) is
    the 0-based fragment that 0-based server b serves in state mask, or -1
    where server b is not useful there. Both arrays are read-only. Solutions
    compare by identity, as an array has no single truth value."""

    V: int
    fragment_sets: tuple[frozenset[int], ...]
    values: np.ndarray  # mask -> numerator of W(I)
    denominators: tuple[int, ...]  # popcount -> the level's denominator
    decisions: np.ndarray

    def reward_to_go(self, subset) -> Fraction:
        """u*(I) for a subset of 1-based fragments or an integer mask in
        [0, 2^V), a numpy integer included."""
        mask = _as_mask(subset, self.V)
        den = self.denominators[mask.bit_count()]
        useful = sum(any(not mask >> (v - 1) & 1 for v in s) for s in self.fragment_sets)
        return Fraction(self.values[mask] - useful * (den // self.V), den)

    @property
    def optimal_value(self) -> Fraction:
        return self.reward_to_go(0)


def mdp_solve(scheme: StorageScheme) -> MdpSolution:
    """Backward induction over all downloaded subsets, one popcount level at
    a time from the full set down.

    Each level first ranks its children's reward-plus-value numerators
    (``_rank``); a batch of parents then takes, per server, the first
    maximum of its slots' child codes, sums the chosen numerators by a
    gather from the ranked values and adds its own reward term, which gives
    its reward-plus-value. The values and decisions are those of a
    one-state-at-a-time loop, exactly.

    Refuses V > ``DEFAULT_MDP_CAP``, stating the states and estimated memory.
    At sets of size V-1 the single remaining fragment forces the decision; at
    size V-2 any decision is optimal (the value is R/V for completely
    utilizing schemes).
    """
    check_size(scheme, "mdp")
    V = scheme.V
    # the random baseline may serve any residual fragment, so its slots are
    # the action sets, each in ascending fragment order
    rule = compile_policy(scheme, RandomWorkConserving())
    B, K = rule.B, rule.K
    L = lcm(*range(1, B + 1))
    share = np.array([0] + [L // n for n in range(1, B + 1)], dtype=object)  # L/n
    full = (1 << V) - 1
    # W(I) = N(I)/V + u*(I) over V * L**d for d = V - |I|; the full set's is 0
    num = np.zeros(full + 1, dtype=object)
    code = np.zeros(full + 1, dtype=np.int32)  # a child's rank in its level
    best = np.full((full + 1, B), -1, dtype=np.int8)
    # slots on axis 0: a state's children read as (K, states, B) codes,
    # scaled by K and marked K - 1 - k, so one max over the slots also names
    # the first slot that reaches it (codes <= C(20, 10) + 1 and K <= V under
    # the cap, so the key fits int32)
    bits = rule.slot_bits.T[:, None, :]
    tail = np.arange(K - 1, -1, -1, dtype=np.int32)[:, None, None]
    frags = rule.slot_frags.T[::-1]  # by K - 1 - k
    columns = np.arange(B)
    levels = _levels(np.bitwise_count(np.arange(full + 1, dtype=np.int64)))
    for size in range(V - 1, -1, -1):
        kids = levels[size + 1]
        # a downloaded or padding slot's child is the parent itself, not yet
        # ranked: it reads code 0, below every child, and ranked[0] is 0
        ranked, code[kids] = _rank(num[kids])
        reward = _reward_terms(L, V - size, B)
        for masks in _chunks(levels[size], rule):
            key = code[masks[:, None] | bits] * K + tail
            top, col = np.divmod(np.maximum.reduce(key, axis=0), K)  # the lowest optimal slot
            n = np.count_nonzero(top, axis=1)
            num[masks] = ranked[top].sum(axis=1) * share[n] + reward[n]
            best[masks] = np.where(top != 0, frags[col, columns], -1)
    # read-only: a write would change optimal_value and every MdpPolicy built
    # from this solution
    num.flags.writeable = False
    best.flags.writeable = False
    return MdpSolution(V=V, fragment_sets=scheme.fragment_sets, values=num,
                       denominators=tuple(V * L ** (V - size) for size in range(V + 1)),
                       decisions=best)


@dataclass(frozen=True)
class PolicyEvaluation:
    """Expectations of a policy's download chain at rate ``mu``, in rationals
    if ``exact``, else in floats.

    ``mean`` is E[D_V] = sum over l of E[1/N(I_l)] / mu. ``per_ell_useful[l]``
    is E[N(I_l)] and ``per_ell_inverse_useful[l]`` is E[1/N(I_l)], l < V.
    ``aggregate_reward`` sums N(I_l)/V over the decision-dependent stages
    l = 1..V-1, matching the convention of :class:`MdpSolution.optimal_value`
    (stage 0 is constant and excluded).
    """

    V: int
    mu: float
    exact: bool
    mean: Fraction | float
    per_ell_useful: tuple
    per_ell_inverse_useful: tuple
    aggregate_reward: Fraction | float


def _forward_dp(rule: DecisionRule, rational: bool = True):
    """Propagate subset probabilities through a policy's chain, one popcount
    level at a time over the reachable sets in first-insertion order.

    Returns (per_ell E[N], per_ell E[1/N], aggregate reward over stages
    1..V-1), in exact rationals or floats.
    """
    V, B, K = rule.V, rule.B, rule.K
    if rational:
        LB = lcm(*range(1, B + 1))
        D = LB * lcm(*range(1, K + 1))
        # numerators over D of a step taken with probability 1/(n*c), and of 1/n over LB
        step = np.array([[D // (n * c) if n * c else 0 for c in range(K + 1)]
                         for n in range(B + 1)], dtype=object)
        inverse = np.array([LB // n if n else 0 for n in range(B + 1)], dtype=object)
        p = np.ones(1, dtype=object)  # probability numerators over D**level
    else:
        p = np.ones(1)
    masks = np.zeros(1, dtype=np.int64)
    index_of = np.full(1 << V, -1, dtype=np.intp)  # a child's position in its level
    per_ell = []
    per_ell_inv = []
    for level in range(V):
        n_use = np.empty(len(masks), dtype=np.intp)
        nxt = np.zeros(comb(V, level + 1), dtype=p.dtype)
        found = []
        lo = seen = 0
        for chunk in _chunks(masks, rule):
            hi = lo + len(chunk)
            if rule.uniform:  # each of a server's c marked slots with probability 1/c
                slots = rule.choice_slots(chunk)
                count = _slot_counts(slots)  # choices per server
                n = np.count_nonzero(count, axis=1)
                # contributions in order of parent, server, then slot
                i, b, k = np.nonzero(slots)
                child = chunk[i] | rule.slot_bits[b, k]
                if rational:
                    w = p[lo + i] * step[n[i], count[i, b]]
                else:
                    w = p[lo + i] * (1.0 / count[i, b]) / n[i]
            else:  # one choice per useful server, so one weight per parent
                useful = (rule.server_bits & ~chunk[:, None]) != 0
                n = np.count_nonzero(useful, axis=1)
                i, b = np.nonzero(useful)  # contributions in order of parent, then server
                child = chunk[i] | np.left_shift(1, rule.decide(chunk)[i, b], dtype=np.int64)
                w = (p[lo:hi] * step[n, 1] if rational else p[lo:hi] / n)[i]
            n_use[lo:hi] = n
            ids, fresh = _first_seen(child, index_of, seen)
            found.append(fresh)
            seen += len(fresh)
            np.add.at(nxt, ids, w)  # sequential: each child sums in contribution order
            lo = hi
        if rational:
            den = D ** level
            per_ell.append(Fraction((p * n_use).sum(), den))
            per_ell_inv.append(Fraction((p * inverse[n_use]).sum(), den * LB))
        else:
            per_ell.append(float(np.add.accumulate(p * n_use)[-1]))
            per_ell_inv.append(float(np.add.accumulate(p * (1.0 / n_use))[-1]))
        masks = np.concatenate(found)
        index_of[masks] = -1
        p = nxt[:len(masks)]
    zero = Fraction(0) if rational else 0.0
    aggregate = sum(per_ell[1:], start=zero) / V
    return per_ell, per_ell_inv, aggregate


_FIRST = np.iinfo(np.intp).min  # position j of a new mask is marked _FIRST + j, far below -1


def _first_seen(child: np.ndarray, index_of: np.ndarray, count: int):
    """Positions of the ``child`` masks in their level, numbering the masks
    not seen before from ``count`` in order of first appearance. Returns the
    positions and the new masks.

    ``index_of`` is -1 for a mask not yet seen in the level. Each new mask
    takes the least marker ``_FIRST + j`` over its positions j among the new
    masks, so the masks whose marker equals their own position are the first
    occurrences, already in order of appearance; numbering them overwrites
    every marker. No sort and no further array of size 2^V."""
    new = child[index_of[child] < 0]
    marks = np.arange(_FIRST, _FIRST + len(new))
    np.minimum.at(index_of, new, marks)
    fresh = new[index_of[new] == marks]
    index_of[fresh] = np.arange(count, count + len(fresh))
    return index_of[child], fresh


def _slot_counts(slots: np.ndarray) -> np.ndarray:
    """The marked slots of each (state, server) row of a boolean (n, B, K)
    slot array, as an (n, B) intp array: K slice adds beat a sum over the
    short last axis."""
    count = slots[:, :, 0].astype(np.intp)
    for k in range(1, slots.shape[2]):
        count += slots[:, :, k]
    return count


def _rank(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct Python ints of ``values``, ascending after a 0, and each
    entry's index in that array: its rank from 1, equal values sharing one.
    One sort of the distinct values and a dict look-up per entry; an
    ``np.unique`` sorts every entry through object compares, about 3x the
    time on the wide levels of cyclic schemes."""
    items = values.tolist()
    distinct = sorted(set(items))
    index = {x: i for i, x in enumerate(distinct, 1)}
    codes = np.fromiter(map(index.__getitem__, items), dtype=np.int32, count=len(items))
    return np.array([0] + distinct, dtype=object), codes


def _reward_terms(L: int, depth: int, B: int) -> np.ndarray:
    """N/V over the denominator V * L**depth, by N = 0..B: N * L**depth."""
    scale = L ** depth
    return np.array([n * scale for n in range(B + 1)], dtype=object)


def _levels(pop: np.ndarray) -> list[np.ndarray]:
    """The masks of each popcount 0..V, ascending."""
    order = np.argsort(pop, kind="stable")
    return np.split(order, np.cumsum(np.bincount(pop))[:-1])


def _chunks(masks: np.ndarray, rule: DecisionRule):
    """``masks`` in consecutive pieces of at most _SLOTS order slots."""
    step = max(1, _SLOTS // (rule.B * rule.K))
    for lo in range(0, len(masks), step):
        yield masks[lo:lo + step]


def exact_mean_download(
    scheme: StorageScheme, policy, mu: float, exact: bool | None = None
) -> PolicyEvaluation:
    """E[D_V] = sum over stages of E[1/(N(I_l)*mu)], by the forward DP.

    Rational arithmetic is used for V <= 16 unless overridden; the float mode
    exists for larger V, up to ``DEFAULT_EVAL_CAP`` (2^V states).
    """
    check_rate(mu)
    if exact is None:
        exact = scheme.V <= 16
    check_size(scheme, "rational" if exact else "float")
    per_ell, per_ell_inv, aggregate = _forward_dp(compile_policy(scheme, policy), rational=exact)
    mean = sum(per_ell_inv) / (Fraction(mu) if exact else mu)
    return PolicyEvaluation(V=scheme.V, mu=mu, exact=exact, mean=mean,
                            per_ell_useful=tuple(per_ell),
                            per_ell_inverse_useful=tuple(per_ell_inv),
                            aggregate_reward=aggregate)


def policy_evaluate_exact(scheme: StorageScheme, policy) -> PolicyEvaluation:
    """Exact rational evaluation of a policy's download chain at mu = 1."""
    return exact_mean_download(scheme, policy, 1.0, exact=True)
