"""Exact dynamic programming over download subsets.

The downloaded set evolves as a Markov chain: from state I the next fragment
is v with probability (1/N(I)) * #{useful servers scheduled on v}. Treating
each download as a stage with reward N(I_l)/V turns optimal scheduling into a
finite-horizon decision problem solved exactly by backward induction. The
reward-to-go u(I) counts stages l = |I|+1 .. V-1, so u of any set of size
V-1 or V is zero and the optimal value reported for a scheme is u(empty).

Because the transition factorizes over servers, the optimal decision at each
useful server is simply the residual fragment maximizing reward-plus-value of
the successor state, which keeps the per-state work at O(B*K).

Everything here computes in exact rationals; state space is 2^V, so both
entry points refuse fragment counts above a configurable cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParams, TooManyFragments
from .model import StorageScheme
from .scheduling import DecisionRule, RandomWorkConserving, compile_policy

__all__ = ["MdpSolution", "PolicyEvaluation", "mdp_solve", "policy_evaluate_exact"]

DEFAULT_MDP_CAP = 20
DEFAULT_EVAL_CAP = 24


def _as_mask(subset, V: int) -> int:
    if isinstance(subset, int):
        return subset
    mask = 0
    for v in subset:
        if not 1 <= v <= V:
            raise InvalidParams(f"fragment {v} outside [1, {V}]")
        mask |= 1 << (v - 1)
    return mask


@dataclass(frozen=True)
class MdpSolution:
    """Output of backward induction: exact reward-to-go per downloaded subset
    and the optimal per-(subset, server) decisions."""

    V: int
    optimal_value: Fraction
    values: dict[int, Fraction]           # mask -> u*(I)
    decisions: dict[tuple[int, int], int]  # (mask, server0) -> fragment0

    def reward_to_go(self, subset) -> Fraction:
        return self.values[_as_mask(subset, self.V)]

    def decision(self, subset, server: int) -> int:
        mask = _as_mask(subset, self.V)
        return self.decisions[(mask, server - 1)] + 1


def mdp_solve(scheme: StorageScheme, cap: int = DEFAULT_MDP_CAP) -> MdpSolution:
    """Backward induction over all downloaded subsets.

    Refuses V > cap: the table alone has 2^V states. At sets of size V-1 the
    single remaining fragment forces the decision; at size V-2 any decision is
    optimal (the value is R/V for completely utilizing schemes).
    """
    if scheme.V > cap:
        raise TooManyFragments(f"V={scheme.V} exceeds the solver cap {cap}")
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
    return MdpSolution(V=V, optimal_value=values[0], values=values, decisions=decisions)


@dataclass(frozen=True)
class PolicyEvaluation:
    """Exact distributional quantities of a policy's download chain.

    ``per_ell_useful[l]`` is E[N(I_l)] and ``per_ell_inverse_useful[l]`` is
    E[1/N(I_l)] for l = 0..V-1. ``aggregate_reward`` sums N(I_l)/V over the
    decision-dependent stages l = 1..V-1, matching the convention of
    :class:`MdpSolution.optimal_value` (stage 0 is constant and excluded).
    """

    V: int
    per_ell_useful: tuple[Fraction, ...]
    per_ell_inverse_useful: tuple[Fraction, ...]
    aggregate_reward: Fraction


def _forward_dp(rule: DecisionRule, rational: bool = True):
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


def policy_evaluate_exact(
    scheme: StorageScheme, policy, cap: int = DEFAULT_EVAL_CAP
) -> PolicyEvaluation:
    """Exact rational evaluation of a policy's download chain."""
    if scheme.V > cap:
        raise TooManyFragments(f"V={scheme.V} exceeds the evaluation cap {cap}")
    per_ell, per_ell_inv, aggregate = _forward_dp(compile_policy(scheme, policy), rational=True)
    return PolicyEvaluation(
        V=scheme.V,
        per_ell_useful=tuple(per_ell),
        per_ell_inverse_useful=tuple(per_ell_inv),
        aggregate_reward=aggregate,
    )
