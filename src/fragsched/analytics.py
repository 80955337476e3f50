"""Closed-form bounds on useful-server counts and random-ensemble
expectations, used as oracles against simulation.

Upper bound: a completely utilizing scheme keeps at most min(B, (V-l)*R)
servers useful after l downloads (with m = ceil(B/R), that is B up to
l = V-m and (V-l)*R beyond). Lower bounds depend on the overlap maxima: in
the early phase at most i servers can have died while l < i*K - i(i-1)*tau/2;
near the end, i remaining fragments keep at least i*R - i(i-1)*lambda/2
servers useful. Schemes with fragment-set overlap capped at 1 additionally
satisfy the recursion N(I_l) >= N(I_{l-1}) - floor((l-1)/(K-1)), which fills
the middle range. On schemes whose server sizes or replica counts vary, the
lower bounds take K and R as the smallest of them.

Vacuous regimes yield 0 (lower) or B (upper) rather than errors, so profiles
are total in l and safe to plot or assert against trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .model import OverlapProfile, StorageScheme, overlap_profile

__all__ = [
    "BoundProfile",
    "EnsembleExpectation",
    "AsymptoticComparison",
    "useful_upper_bound",
    "useful_lower_bound_early",
    "useful_lower_bound_late",
    "general_lower_profile",
    "bound_envelope",
    "random_rep_expected",
    "random_mds_expected",
    "mds_useful_bounds",
    "mds_aggregate_bounds",
    "duplicate_prob_lb",
    "asymptotic_compare",
]


@dataclass(frozen=True)
class BoundProfile:
    """Pointwise bounds on N(I_l) for l = 0..V-1, clipped to [0, B].

    ``lower_general`` is the overlap-only lower profile, before the
    single-overlap recursion that can raise it to ``lower``;
    :func:`useful_upper_bound` leaves both at zero.

    ``normalized_sum_upper`` is the profile-sum ceiling sum(upper)/(B*V),
    valid for every trajectory. Stage 0 always has N = B, so over stages
    1..V-1 the ceiling is ``normalized_sum_upper - 1/V``.
    ``normalized_sum_remark`` carries the closed form 1 - (m+1)/(2V); its
    derivation assumes B/R is an integer. Where R divides B it equals the
    stage-1..V-1 ceiling, and cyclic 12/3 reaches it (19/24). Where R does
    not, it can be exceeded: over all download orders, the largest
    stage-1..V-1 aggregate of pp2 is 36/49, against the remark 35/49 and the
    ceiling 37/49, and cyclic 7/3 reaches 37/49. So treat the remark as
    reported, not guaranteed.
    """

    B: int
    V: int
    lower: np.ndarray
    lower_general: np.ndarray
    upper: np.ndarray
    normalized_sum_upper: Fraction
    normalized_sum_remark: Fraction


def useful_upper_bound(B: int, V: int, R: int) -> BoundProfile:
    """Universal upper profile for completely utilizing schemes."""
    m = -(-B // R)  # ceil
    upper = np.array(
        [B if ell <= V - m else (V - ell) * R for ell in range(V)], dtype=np.int64
    )
    remark = Fraction(1) - Fraction(m + 1, 2 * V)
    return BoundProfile(
        B=B,
        V=V,
        lower=np.zeros(V, dtype=np.int64),
        lower_general=np.zeros(V, dtype=np.int64),
        upper=upper,
        normalized_sum_upper=Fraction(int(upper.sum()), B * V),
        normalized_sum_remark=remark,
    )


def useful_lower_bound_early(B: int, K: int, tau_max: int, ell: int) -> int:
    """Early-phase lower bound on N(I_l) from the fragment-set overlap.

    Returns B - i* for the smallest i with l < i*K - i*(i-1)*tau/2 (within
    i <= floor(K/tau)+1), via an exact integer scan; equivalently the closed
    form B - (2K+tau - sqrt((2K+tau)^2 - 8*l*tau)) / (2*tau) rounded up,
    valid while l < K*(K+tau)/(2*tau). Vacuous cases return 0, K < 1 (an
    empty server is never useful) among them. Otherwise no downloads means no
    dead servers, so l = 0 returns B outright.
    """
    if tau_max < 1 or ell < 0 or K < 1:
        return 0
    if ell == 0:
        return B
    for i in range(1, K // tau_max + 2):
        if 2 * ell < 2 * i * K - i * (i - 1) * tau_max:
            return max(0, B - i)
    return 0


def useful_lower_bound_late(R: int, lambda_max: int, V: int, ell: int) -> int:
    """Late-phase lower bound: with i = V - l fragments left, their occupancy
    sets cover at least i*R - i*(i-1)*lambda/2 servers, for
    i <= floor(R/lambda)+1. Vacuous cases return 0."""
    if lambda_max < 1:
        return 0
    i = V - ell
    if i < 1 or i > R // lambda_max + 1:
        return 0
    return max(0, i * R - i * (i - 1) * lambda_max // 2)


def general_lower_profile(scheme: StorageScheme, overlap: OverlapProfile) -> np.ndarray:
    """Pointwise max of the early and late lower bounds on N(I_l), l = 0..V-1,
    clipped to [0, B], from the scheme's ``overlap_profile``.

    Both bounds take the smallest server size and replica count: every server
    holds at least that many fragments and every fragment that many replicas,
    so the bounds hold on schemes that are not completely utilizing too. On
    completely utilizing schemes these are ``params.K`` and ``params.R``.
    """
    B, V = scheme.B, scheme.V
    K = min(len(s) for s in scheme.fragment_sets)
    R = min(len(s) for s in scheme.occupancy)
    tau, lam = max(overlap.tau_max, 1), max(overlap.lambda_max, 1)
    return np.array([min(B, max(useful_lower_bound_early(B, K, tau, ell),
                                useful_lower_bound_late(R, lam, V, ell)))
                     for ell in range(V)], dtype=np.int64)


def bound_envelope(scheme: StorageScheme) -> BoundProfile:
    """Every bound profile of a scheme, from one ``overlap_profile`` call.

    ``lower_general`` is :func:`general_lower_profile`. Where two servers
    share at most one fragment (projective/affine plane class), ``lower`` is
    the running maximum of it and the single-overlap recursion seeded from it,
    with K the smallest server size; otherwise it equals ``lower_general``.
    ``upper`` and both sums are :func:`useful_upper_bound`'s.
    """
    B, V = scheme.B, scheme.V
    K = min(len(s) for s in scheme.fragment_sets)
    ov = overlap_profile(scheme)
    general = general_lower_profile(scheme, ov)
    if ov.tau_max <= 1 and K >= 2:
        # lower[l] = max(general[l], lower[l-1] - floor((l-1)/(K-1))) unrolls
        # to max over j <= l of general[j] + D[j], less D[l], with D the
        # running sum of the decrements; it stays within [general[l], B]
        drops = np.zeros(V, dtype=np.int64)
        drops[1:] = np.cumsum(np.arange(V - 1) // (K - 1))
        lower = np.maximum.accumulate(general + drops) - drops
    else:
        lower = general.copy()
    return replace(useful_upper_bound(B, V, scheme.params.R), lower=lower, lower_general=general)


@dataclass(frozen=True)
class EnsembleExpectation:
    """Per-step expected useful counts and their normalized aggregate for a
    random placement ensemble."""

    kind: str
    B: int
    V: int
    R: int
    per_ell: np.ndarray
    aggregate: float


def random_rep_expected(B: int, V: int, R: int) -> EnsembleExpectation:
    """Replication ensemble: E[N(I_l)] = B*(1 - (1-1/B)^(R*(V-l))).

    The aggregate is the exact sum of the per-step means over B*V, i.e.
    1 - y^R*(1-y^(R*V)) / (V*(1-y^R)) with y = 1-1/B. At B = 1, y = 0 and
    both give exactly 1: the single server stays useful throughout.
    """
    y = 1.0 - 1.0 / B
    per_ell = B * (1.0 - y ** (R * (V - np.arange(V, dtype=np.float64))))
    aggregate = 1.0 - (y**R) * (1.0 - y ** (R * V)) / (V * (1.0 - y**R))
    return EnsembleExpectation(kind="rep", B=B, V=V, R=R, per_ell=per_ell, aggregate=aggregate)


def random_mds_expected(B: int, V: int, R: int) -> EnsembleExpectation:
    """MDS ensemble: E[N(I_l)] = B*(1 - (1-1/B)^(R*V-l)); the aggregate is
    1 - (B/V)*y^((R-1)*V+1)*(1-y^V), exactly 1 at B = 1 (y = 0)."""
    y = 1.0 - 1.0 / B
    per_ell = B * (1.0 - y ** (R * V - np.arange(V, dtype=np.float64)))
    aggregate = 1.0 - (B / V) * y ** ((R - 1) * V + 1) * (1.0 - y**V)
    return EnsembleExpectation(kind="mds", B=B, V=V, R=R, per_ell=per_ell, aggregate=aggregate)


def mds_useful_bounds(B: int, V: int, R: int, K: int, ell: int) -> tuple[int, int]:
    """Per-step bounds for MDS storage: every coded fragment is useful, so
    (B - floor(l/K), min(B, V*R - l)) after l < V downloads."""
    return max(0, B - ell // K), min(B, V * R - ell)


def mds_aggregate_bounds(B: int, V: int, R: int) -> tuple[float, float]:
    """Aggregate bounds for MDS storage: the lower closed form
    1 - (1/(2R))*(1-1/V) requires code rate 1/R <= V/(B+V); vacuous
    otherwise (0). Upper is always 1."""
    if Fraction(1, R) <= Fraction(V, B + V):
        lower = 1.0 - (1.0 / (2 * R)) * (1.0 - 1.0 / V)
    else:
        lower = 0.0
    return lower, 1.0


def duplicate_prob_lb(alpha: float, R: int) -> float:
    """Lower bound on the chance that some server holds two replicas of one
    fragment under random replication: 1 - exp(-alpha*(R-1)/2)."""
    if alpha <= 0 or R < 1:
        raise ValueError("need alpha > 0 and R >= 1")
    return 1.0 - math.exp(-alpha * (R - 1) / 2.0)


@dataclass(frozen=True)
class AsymptoticComparison:
    """Both sides of the large-V log comparison between ensembles.

    ``rep_exact`` and ``mds_exact`` are (1/V)*ln(1 - aggregate) computed in
    log space; the approx fields are -alpha + ln(V*R)/V and -alpha + ln(V)/V.
    ``gap`` is the difference of the exact log sides, equal to
    (1/V)*[ln((x^(V*R)-1)/(x^R-1)) - ln((x^V-1)/(x-1))] with x = 1/(1-1/B);
    it tends to (R-1)*ln(x), not zero. What vanishes as V grows at fixed
    (B, R) is ``aggregate_gap``, the difference of the aggregates themselves,
    which is the sense in which the ensembles become comparable.
    """

    rep_exact: float
    mds_exact: float
    rep_approx: float
    mds_approx: float
    gap: float
    aggregate_gap: float


def asymptotic_compare(B: int, V: int, R: int) -> AsymptoticComparison:
    """Exact and approximate log-scale comparison of the two ensembles."""
    if B < 2:
        raise ValueError("need B >= 2")
    y = 1.0 - 1.0 / B
    ln_y = math.log(y)
    # log(1 - aggregate) assembled termwise to avoid underflow at large V*R
    rep = R * ln_y + math.log1p(-(y ** (R * V))) - math.log(V * (1.0 - y**R))
    mds = math.log(B / V) + ((R - 1) * V + 1) * ln_y + math.log1p(-(y**V))
    alpha = R / B
    return AsymptoticComparison(
        rep_exact=rep / V,
        mds_exact=mds / V,
        rep_approx=-alpha + math.log(V * R) / V,
        mds_approx=-alpha + math.log(V) / V,
        gap=(rep - mds) / V,
        aggregate_gap=math.exp(rep) - math.exp(mds),
    )
