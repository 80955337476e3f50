"""Core data model for replicated fragment storage.

A file split into V fragments is replicated over B servers. The placement is
described either by occupancy sets (for each fragment, the servers holding a
replica) or equivalently by fragment sets (for each server, the fragments it
stores). A scheme that stores exactly K distinct fragments on every server and
replicates every fragment exactly R times, with V*R == B*K, uses all available
capacity and is called completely utilizing.

During a download, the set of already-fetched fragments determines which
servers are still useful (those holding at least one missing fragment); the
schedulers and engines track that on a 0-based bitmask index (see
``scheduling.DecisionRule``). This module holds the schemes themselves, their
overlap statistics, and the correspondence between storage schemes and
combinatorial block designs.

All fragment and server ids are 1-based.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isfinite

import numpy as np

from .errors import (
    DuplicateReplicaOnServer,
    EmptyOccupancy,
    IdOutOfRange,
    InvalidRate,
    NonUniformDesign,
)

__all__ = [
    "SystemParams",
    "StorageScheme",
    "check_rate",
    "OverlapProfile",
    "Design",
    "build_scheme",
    "overlap_profile",
    "verify_t_design",
    "two_design_lambda",
    "conservation_laws",
    "conservation_check",
    "scheme_to_design",
    "design_to_scheme",
]


@dataclass(frozen=True)
class SystemParams:
    """Static parameters of a storage system.

    ``alpha`` is the per-server capacity as an exact fraction K/V of the file.
    ``completely_utilizing`` records whether every server stores exactly K
    distinct fragments, every fragment has exactly R replicas, and V*R == B*K.
    """

    B: int
    V: int
    R: int
    K: int
    mu: float
    alpha: Fraction = field(init=False)
    completely_utilizing: bool = False

    def __post_init__(self) -> None:
        if min(self.B, self.V, self.R, self.K) < 1:
            raise IdOutOfRange("B, V, R, K must all be positive")
        check_rate(self.mu)
        object.__setattr__(self, "alpha", Fraction(self.K, self.V))


def check_rate(mu) -> None:
    """Refuse a download rate that is not positive and finite."""
    if not (isfinite(mu) and mu > 0):
        raise InvalidRate(f"download rate mu must be positive and finite, got {mu}")


@dataclass(frozen=True)
class StorageScheme:
    """A replication placement: occupancy sets and derived fragment sets.

    ``occupancy[v-1]`` is the set of servers holding fragment v;
    ``fragment_sets[b-1]`` is the set of fragments stored on server b.
    Both views are kept consistent (b in occupancy[v-1] iff v in
    fragment_sets[b-1]). Instances are immutable and safe to share.
    """

    params: SystemParams
    occupancy: tuple[frozenset[int], ...]
    fragment_sets: tuple[frozenset[int], ...]

    @property
    def B(self) -> int:
        return self.params.B

    @property
    def V(self) -> int:
        return self.params.V

    def occupancy_of(self, fragment: int) -> frozenset[int]:
        return self.occupancy[fragment - 1]

    def fragments_on(self, server: int) -> frozenset[int]:
        return self.fragment_sets[server - 1]


@dataclass(frozen=True)
class OverlapProfile:
    """Pairwise overlap statistics of a scheme.

    ``tau_max`` is the largest |S_a ∩ S_b| over distinct servers, ``lambda_max``
    the largest |Φ_v ∩ Φ_w| over distinct fragments. The histograms map an
    overlap value to the number of unordered pairs attaining it.
    """

    tau_max: int
    lambda_max: int
    tau_histogram: dict[int, int]
    lambda_histogram: dict[int, int]


@dataclass(frozen=True)
class Design:
    """A block design: ``points`` counts the point set [V], ``blocks`` lists
    subsets of it. Repeated blocks are allowed.

    ``t`` and ``lam`` are verification metadata filled in when the design has
    been checked to be a t-design with index lambda.
    """

    points: int
    blocks: tuple[frozenset[int], ...]
    t: int | None = None
    lam: int | None = None

    def __post_init__(self) -> None:
        if self.points < 1:
            raise EmptyOccupancy("design needs at least one point")
        if not self.blocks:
            raise EmptyOccupancy("design needs at least one block")
        for blk in self.blocks:
            if not blk:
                raise EmptyOccupancy("design blocks must be nonempty")
            if min(blk) < 1 or max(blk) > self.points:
                raise IdOutOfRange(f"block {sorted(blk)} not within [1, {self.points}]")


def build_scheme(
    occupancy: list[set[int] | frozenset[int] | list[int]],
    mu: float = 1.0,
    B: int | None = None,
) -> StorageScheme:
    """Build a scheme from occupancy sets (one per fragment).

    B defaults to the largest server id present; a caller-supplied B must
    cover every id. Duplicate server ids within one fragment's occupancy are
    rejected: a server stores at most one replica of any fragment.
    """
    if not occupancy:
        raise EmptyOccupancy("occupancy must list at least one fragment")
    occ: list[frozenset[int]] = []
    for v, servers in enumerate(occupancy, start=1):
        servers = list(servers)
        if not servers:
            raise EmptyOccupancy(f"fragment {v} has no replicas")
        if len(set(servers)) != len(servers):
            raise DuplicateReplicaOnServer(f"fragment {v} placed twice on one server")
        if min(servers) < 1:
            raise IdOutOfRange(f"fragment {v} has a non-positive server id")
        occ.append(frozenset(servers))

    max_server = max(max(s) for s in occ)
    if B is None:
        B = max_server
    elif B < max_server:
        raise IdOutOfRange(f"B={B} smaller than largest server id {max_server}")

    V = len(occ)
    frag_sets = [set() for _ in range(B)]
    for v, servers in enumerate(occ, start=1):
        for b in servers:
            frag_sets[b - 1].add(v)

    R = max(len(s) for s in occ)
    K = max(len(s) for s in frag_sets)
    uniform = all(len(s) == R for s in occ) and all(len(s) == K for s in frag_sets)
    params = SystemParams(
        B=B, V=V, R=R, K=K, mu=mu,
        completely_utilizing=uniform and V * R == B * K,
    )
    return StorageScheme(
        params=params,
        occupancy=tuple(occ),
        fragment_sets=tuple(frozenset(s) for s in frag_sets),
    )


def physical_memory() -> int | None:
    """This machine's physical memory in bytes, or None where the platform
    does not report it (``os.sysconf`` is POSIX-only). Size checks refuse
    work whose estimated memory exceeds it, before allocating anything."""
    if not hasattr(os, "sysconf"):
        return None
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def overlap_profile(scheme: StorageScheme) -> OverlapProfile:
    """Exact pairwise-overlap maxima and histograms.

    Builds the B x V incidence once and packs each server's row, and each
    fragment's row of the transpose, into uint64 words. A pair's overlap is
    the popcount of the AND of its two rows, summed over the words. Integer
    bit operations only: no float matmul, so no BLAS buffers.

    Cost: C(B,2) * ceil(V/64) + C(V,2) * ceil(B/64) word ANDs and popcounts,
    done by numpy in row blocks. Memory: the incidence, one byte per entry
    with both sides rounded up to multiples of 64, and two packings of an
    eighth of that, plus a transient per row block that stays within
    ``_PAIR_BLOCK_BYTES`` (256 KiB) while one row of 26 bytes per pair
    fits, that is up to about 10,000 servers or fragments; past that a block
    is one row.

    With fewer than two servers (or fragments) the respective maximum is 0 by
    convention and the histogram is empty.
    """
    incidence = _incidence(scheme)
    tau_hist = _pair_histogram(_packed_words(incidence[:scheme.B]))
    lam_hist = _pair_histogram(_packed_words(incidence[:, :scheme.V].T))
    return OverlapProfile(
        tau_max=max(tau_hist, default=0),
        lambda_max=max(lam_hist, default=0),
        tau_histogram=tau_hist,
        lambda_histogram=lam_hist,
    )


def _incidence(scheme: StorageScheme) -> np.ndarray:
    """The B x V boolean incidence, entry (b-1, v-1) saying whether server b
    stores fragment v, padded with False rows and columns to multiples of 64
    on both sides, so that every row and column packs into whole words."""
    sizes = [len(s) for s in scheme.fragment_sets]
    servers = np.repeat(np.arange(scheme.B), sizes)
    fragments = np.fromiter(itertools.chain.from_iterable(scheme.fragment_sets),
                            dtype=np.intp, count=len(servers))
    incidence = np.zeros((-(-scheme.B // 64) * 64, -(-scheme.V // 64) * 64), dtype=bool)
    incidence[servers, fragments - 1] = True
    return incidence


def _packed_words(rows: np.ndarray) -> np.ndarray:
    """The rows of a boolean matrix 64k columns wide as uint64 words,
    word-major: entry (w, i) holds columns 64w..64w+63 of row i, column j in
    bit j % 64."""
    return np.ascontiguousarray(np.packbits(rows, axis=1, bitorder="little").view("<u8").T)


# Bytes the arrays of one row block of ``_pair_histogram`` may hold at once.
_PAIR_BLOCK_BYTES = 1 << 18
# Bytes a block holds per pair: the ANDed word (8), its popcount (1), the
# running uint32 sum (4), the mask (1), the kept sum (4) and bincount's intp
# copy of it (8).
_BYTES_PER_PAIR = 26


def _pair_histogram(words: np.ndarray) -> dict[int, int]:
    """Map each overlap popcount(row i & row j), i < j, of the word-major
    rows ``words`` (``_packed_words``) to the number of pairs with it.

    A block of k rows goes against all later rows at once, one word at a
    time into reused buffers, and the pairs with j <= i are masked out. k is
    the largest count that keeps a block within ``_PAIR_BLOCK_BYTES``, and
    at least 1.
    """
    n_words, n = words.shape
    hist = np.zeros(64 * n_words + 1, dtype=np.int64)
    step = max(1, _PAIR_BLOCK_BYTES // (n * _BYTES_PER_PAIR))
    # row r of a block against column c, the block's (c+1)-th later row
    above = np.arange(1, n) > np.arange(min(step, n))[:, None]
    for i0 in range(0, n - 1, step):
        i1 = min(i0 + step, n - 1)
        shape = (i1 - i0, n - 1 - i0)
        anded = np.empty(shape, dtype=np.uint64)
        popcounts = np.empty(shape, dtype=np.uint8)
        overlaps = np.zeros(shape, dtype=np.uint32)
        for w in range(n_words):
            np.bitwise_and(words[w, i0:i1, None], words[w, None, i0 + 1:], out=anded)
            overlaps += np.bitwise_count(anded, out=popcounts)
        hist += np.bincount(overlaps[above[:shape[0], :shape[1]]], minlength=hist.size)
    return {k: count for k, count in enumerate(hist.tolist()) if count}


def verify_t_design(design: Design, t: int) -> int | None:
    """Return lambda if ``design`` is a t-design, else None.

    Checks that all blocks share one size K >= t and that every t-subset of
    points lies in the same number of blocks. Counting walks block t-subsets,
    so the cost is B * C(K, t) plus a C(V, t) completeness check.
    """
    if t < 1:
        return None
    sizes = {len(b) for b in design.blocks}
    if len(sizes) != 1:
        return None
    K = sizes.pop()
    if K < t or design.points < t:
        return None
    counts: Counter[tuple[int, ...]] = Counter()
    for blk in design.blocks:
        for sub in itertools.combinations(sorted(blk), t):
            counts[sub] += 1
    lams = set(counts.values())
    if len(lams) != 1:
        return None
    if len(counts) != comb(design.points, t):
        return None  # some t-subset occurs in zero blocks
    return lams.pop()


def two_design_lambda(scheme: StorageScheme, overlap: OverlapProfile) -> int | None:
    """``verify_t_design(scheme_to_design(scheme), 2)`` read off the scheme's
    ``overlap_profile``, without walking block pairs.

    The design's 2-subsets are fragment pairs, and a pair lies in as many
    blocks as servers hold both fragments, so the design is a 2-design
    exactly when every server holds the same number K >= 2 of fragments,
    V >= 2, and every fragment pair has the same overlap lambda >= 1: the
    fragment-pair histogram has the single key lambda.
    """
    sizes = {len(s) for s in scheme.fragment_sets}
    if len(sizes) != 1 or sizes.pop() < 2 or scheme.V < 2:
        return None
    if len(overlap.lambda_histogram) != 1 or overlap.lambda_max < 1:
        return None
    return overlap.lambda_max


def conservation_laws(
    B: int, K: int, V: int, R: int, t: int | None = None, lam: int | None = None
) -> tuple[bool, bool | None]:
    """Check B*K == V*R and, when the first holds and (t, lam) are given,
    B*C(K,t) == lam*C(V,t). The second entry is None when not evaluated."""
    first = B * K == V * R
    if not first or t is None or lam is None:
        return first, None
    return first, B * comb(K, t) == lam * comb(V, t)


def conservation_check(
    design: Design, t: int | None = None, lam: int | None = None
) -> tuple[bool, bool | None]:
    """Evaluate :func:`conservation_laws` on a uniform design.

    Raises NonUniformDesign when block sizes or point replication vary.
    """
    sizes = {len(b) for b in design.blocks}
    if len(sizes) != 1:
        raise NonUniformDesign(f"block sizes vary: {sorted(sizes)}")
    K = sizes.pop()
    reps = Counter()
    for blk in design.blocks:
        for p in blk:
            reps[p] += 1
    rep_counts = {reps.get(p, 0) for p in range(1, design.points + 1)}
    if len(rep_counts) != 1:
        raise NonUniformDesign(f"point replication varies: {sorted(rep_counts)}")
    R = rep_counts.pop()
    return conservation_laws(len(design.blocks), K, design.points, R, t, lam)


def scheme_to_design(scheme: StorageScheme) -> Design:
    """View a scheme as a design: fragments are points, fragment sets blocks."""
    return Design(points=scheme.V, blocks=tuple(scheme.fragment_sets))


def design_to_scheme(
    design: Design, mu: float = 1.0, require_completely_utilizing: bool = False
) -> StorageScheme:
    """Realize a design as a storage scheme (block b -> server b).

    With ``require_completely_utilizing`` the design must have uniform block
    size and point replication; otherwise NonUniformDesign is raised.
    """
    occupancy: list[set[int]] = [set() for _ in range(design.points)]
    for b, blk in enumerate(design.blocks, start=1):
        for p in blk:
            occupancy[p - 1].add(b)
    if any(not s for s in occupancy):
        raise EmptyOccupancy("design leaves some point in no block")
    scheme = build_scheme(occupancy, mu=mu, B=len(design.blocks))
    if require_completely_utilizing and not scheme.params.completely_utilizing:
        raise NonUniformDesign(
            "design does not yield a completely utilizing scheme "
            f"(B={scheme.B}, V={scheme.V}, R={scheme.params.R}, K={scheme.params.K})"
        )
    return scheme
