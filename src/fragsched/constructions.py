"""Storage-scheme constructions: algebraic designs, cyclic shifts, large
storage, and random placement ensembles.

The projective plane over F_q gives a symmetric 2-(q^2+q+1, q+1, 1) design
whose derived scheme has both overlap maxima equal to 1, the best possible for
a nontrivial replication scheme. Deleting one block (and its points) yields
the affine plane 2-(q^2, q, 1). The cyclic-shift scheme is the natural naive
baseline with maximal overlaps K-1 and R-1.

Random ensembles place replicas (or MDS-coded fragments) independently and
uniformly over servers; they are sampled through per-index derived streams so
sampling is reproducible and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng as _rng
from .errors import CapacityMismatch, InvalidParams, NotPrime
from .model import StorageScheme, build_scheme, physical_memory

__all__ = [
    "ReplicationPlacement",
    "MdsPlacement",
    "projective_plane",
    "affine_plane",
    "cyclic_shift",
    "large_storage_scheme",
    "sample_random_replication",
    "sample_random_mds",
]


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _canonical_points(q: int) -> list[tuple[int, int, int]]:
    """Representatives of the 1-dim subspaces of F_q^3: the unique scaling
    with first nonzero coordinate 1, in lexicographic order."""
    pts = [(0, 0, 1)]
    pts += [(0, 1, z) for z in range(q)]
    pts += [(1, y, z) for y in range(q) for z in range(q)]
    return sorted(pts)


def projective_plane(q: int, mu: float = 1.0) -> StorageScheme:
    """Scheme from the projective plane of prime order q.

    Points are 1-dim subspaces of F_q^3 and blocks are 2-dim subspaces; block
    b collects the points orthogonal to the b-th canonical point. The result
    is a completely utilizing scheme with V = B = q^2+q+1 and K = R = q+1,
    numbered deterministically by the lexicographic point order.
    """
    if not _is_prime(q):  # prime powers would need polynomial arithmetic
        raise NotPrime(f"{q} is not prime")
    pts = _canonical_points(q)
    index = {p: i + 1 for i, p in enumerate(pts)}
    n = len(pts)
    occupancy: list[set[int]] = [set() for _ in range(n)]
    for b, (d0, d1, d2) in enumerate(pts, start=1):
        for p in pts:
            if (d0 * p[0] + d1 * p[1] + d2 * p[2]) % q == 0:
                occupancy[index[p] - 1].add(b)
    return build_scheme(occupancy, mu=mu, B=n)


def affine_plane(q: int, mu: float = 1.0) -> StorageScheme:
    """Scheme from the affine plane of prime order q: V = q^2, B = q^2 + q,
    K = q, R = q+1.

    Constructed by deleting one projective block and its points from all
    remaining blocks. The deleted block is the one dual to (0, 0, 1), i.e.
    the points with last coordinate zero; surviving points and blocks are
    renumbered consecutively in their original order.
    """
    pp = projective_plane(q, mu=mu)
    # Block b is dual to point b; (0,0,1) is the first canonical point.
    deleted_block = 1
    deleted_points = pp.fragment_sets[deleted_block - 1]
    kept = [v for v in range(1, pp.V + 1) if v not in deleted_points]
    renumber = {v: i + 1 for i, v in enumerate(kept)}
    blocks = [
        frozenset(renumber[v] for v in blk if v not in deleted_points)
        for b, blk in enumerate(pp.fragment_sets, start=1)
        if b != deleted_block
    ]
    occupancy: list[set[int]] = [set() for _ in range(len(kept))]
    for b, blk in enumerate(blocks, start=1):
        for v in blk:
            occupancy[v - 1].add(b)
    return build_scheme(occupancy, mu=mu, B=len(blocks))


def cyclic_shift(V: int, R: int, mu: float = 1.0) -> StorageScheme:
    """Symmetric cyclic scheme with B = V and K = R: server b stores the K
    consecutive fragments {b, b+1, ..., b+K-1} (wrapping modulo V)."""
    if not 1 <= R <= V:
        raise InvalidParams(f"need 1 <= R <= V, got R={R}, V={V}")
    occupancy: list[set[int]] = [set() for _ in range(V)]
    for b in range(1, V + 1):
        for j in range(R):
            v = (b - 1 + j) % V + 1
            occupancy[v - 1].add(b)
    return build_scheme(occupancy, mu=mu, B=V)


@dataclass(frozen=True)
class ReplicationPlacement:
    """Replica placement with multiplicities: ``theta[v-1][r-1]`` is the
    server holding the r-th replica of fragment v. Unlike a StorageScheme, a
    server may hold several replicas of one fragment.

    ``occupancy`` deduplicates theta per fragment; ``alpha_per_server`` is the
    exact per-server normalized stored count (1/V) * #replicas.
    """

    B: int
    V: int
    R: int
    theta: tuple[tuple[int, ...], ...]
    occupancy: tuple[frozenset[int], ...] = field(init=False)
    alpha_per_server: tuple[Fraction, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.theta) != self.V or any(len(t) != self.R for t in self.theta):
            raise InvalidParams("theta must be V sequences of R server ids")
        alpha = _alpha_per_server(self.theta, self.B, self.V)
        object.__setattr__(self, "occupancy", tuple(frozenset(t) for t in self.theta))
        object.__setattr__(self, "alpha_per_server", alpha)

    def multiplicity(self, fragment: int, server: int) -> int:
        return sum(1 for b in self.theta[fragment - 1] if b == server)

    def has_duplicate(self, fragment: int) -> bool:
        return len(self.occupancy[fragment - 1]) < self.R


@dataclass(frozen=True)
class MdsPlacement:
    """Placement of V*R coded fragments, each stored on a single server
    ``chi[v-1]``. Any V coded fragments suffice to rebuild the file."""

    B: int
    V: int
    R: int
    chi: tuple[int, ...]
    alpha_per_server: tuple[Fraction, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.chi) != self.V * self.R:
            raise InvalidParams("chi must place V*R coded fragments")
        object.__setattr__(self, "alpha_per_server", _alpha_per_server(self.chi, self.B, self.V))


# Peak bytes per server of ``_alpha_per_server``: a count (8), its Python
# list slot (8), the tuple slot (8), the Fraction (48) and, once V or the
# counts pass 256, its own int objects (28 each). ``tracemalloc`` measured
# 73 to 106 bytes a server at B = 10**6.
_BYTES_PER_SERVER = 128


def _alpha_per_server(servers, B: int, V: int) -> tuple[Fraction, ...]:
    """(1/V) times the number of the 1-based ids ``servers`` (any nesting)
    on each server 1..B.

    Refuses, before allocating anything B-sized, a B whose per-server fields
    would exceed physical memory, and any id that is not an integer in
    [1, B]."""
    need = B * _BYTES_PER_SERVER
    physical = physical_memory()
    if physical is not None and need > physical:
        raise InvalidParams(f"B={B}: a placement's per-server fields need about "
                            f"{need / 2**30:,.1f} GiB ({need:,} bytes), more than the "
                            f"{physical / 2**30:,.1f} GiB of physical memory")
    ids = np.asarray(servers).ravel()
    if ids.size and ids.dtype.kind not in "iu":
        raise InvalidParams(f"server ids must be integers in [1, {B}]")
    outside = (ids < 1) | (ids > B)
    if outside.any():
        raise InvalidParams(f"server id {ids[outside][0]} outside [1, {B}]")
    counts = np.bincount(ids.astype(np.intp) - 1, minlength=B)
    return tuple(Fraction(c, V) for c in counts.tolist())


def large_storage_scheme(V: int, B: int, K: int) -> ReplicationPlacement:
    """Placement for servers that each hold at least the whole file (K >= V).

    The first B replicas of every fragment go to servers 1..B, so every
    fragment sits on every server and all B servers stay useful until the
    download completes, under any work-conserving choice. The remaining
    (R-B)*V replicas fill the B*(K-V) leftover slots row-major: slot s lands
    on server s // (K-V) + 1 and carries fragment s % V + 1.
    """
    if min(V, B, K) < 1:
        raise InvalidParams(f"V, B and K must be positive, got V={V}, B={B}, K={K}")
    if K < V:
        raise CapacityMismatch(f"need K >= V, got K={K} < V={V}")
    if (B * K) % V != 0:
        raise CapacityMismatch(f"B*K={B * K} not a multiple of V={V}")
    R = B * K // V
    theta = [list(range(1, B + 1)) for _ in range(V)]
    spare = K - V
    for s in range(B * spare):
        theta[s % V].append(s // spare + 1)
    return ReplicationPlacement(B=B, V=V, R=R, theta=tuple(tuple(t) for t in theta))


def check_ensemble_params(B: int, V: int, R: int) -> None:
    """Refuse ensemble sizes the version-2 draws cannot serve: B, V and R
    must be positive, and B below 2**32, the range one half-word covers."""
    if min(B, V, R) < 1:
        raise InvalidParams("B, V, R must be positive")
    if B >= 1 << 32:
        raise InvalidParams(f"B must be below 2**32, got {B}")


def sample_random_replication(B: int, V: int, R: int, seed: int) -> ReplicationPlacement:
    """Placement with every replica's server i.i.d. uniform on [1, B]: the
    ``placement_servers`` of sample 0, row v holding the R replicas of
    fragment v."""
    check_ensemble_params(B, V, R)
    servers = placement_servers(seed, range(1), B, V, R)[0]
    return ReplicationPlacement(B=B, V=V, R=R, theta=tuple(map(tuple, (servers + 1).tolist())))


def sample_random_mds(B: int, V: int, R: int, seed: int, index: int = 0) -> MdsPlacement:
    """Placement with each of the V*R coded fragments on an i.i.d. uniform
    server; ``index`` selects an independent sample stream."""
    check_ensemble_params(B, V, R)
    servers = placement_servers(seed, range(index, index + 1), B, V, R)[0]
    chi = tuple((servers.ravel() + 1).tolist())
    return MdsPlacement(B=B, V=V, R=R, chi=chi)


def placement_servers(seed: int, samples: range, B: int, V: int, R: int) -> np.ndarray:
    """The 0-based servers of the ensemble placements ``samples``, (n, V, R)
    uint64, i.i.d. uniform on [0, B) by the version-2 draw (``rng``): sample
    s reads the first ceil(V*R/2) words of its ``DOMAIN_PLACEMENT`` stream,
    whose half-words, low half first, give its servers in row-major order.

    A replication placement reads row v as the R replicas of fragment v; an
    MDS placement reads the rows in order as its V*R coded fragments (chi).
    """
    words = _rng.stream_words(seed, _rng.DOMAIN_PLACEMENT, samples, (V * R + 1) // 2)
    half = np.ascontiguousarray(words.T, dtype="<u8").view("<u4")[:, :V * R]
    return _rng.half_picks(half, np.uint64(B)).reshape(len(samples), V, R)
