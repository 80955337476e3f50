"""Storage-scheme constructions: algebraic designs, cyclic shifts, large
storage, and random placement ensembles.

The projective plane over F_q gives a symmetric 2-(q^2+q+1, q+1, 1) design
whose derived scheme has both overlap maxima equal to 1, the best possible for
a nontrivial replication scheme. Deleting one block (and its points) yields
the affine plane 2-(q^2, q, 1). The cyclic-shift scheme is the natural naive
baseline with maximal overlaps K-1 and R-1. Large storage (K >= V) puts
every fragment on every server.

Random ensembles place replicas (or MDS-coded fragments) independently and
uniformly over servers. A placement is its array of 0-based servers
(``placement_servers``), drawn from per-index derived streams, so sampling
is reproducible and order-independent.
"""

from __future__ import annotations

import numpy as np

from . import rng as _rng
from .errors import CapacityMismatch, InvalidParams, NotPrime
from .model import StorageScheme, build_scheme

__all__ = [
    "projective_plane",
    "affine_plane",
    "cyclic_shift",
    "large_storage_scheme",
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


def large_storage_scheme(V: int, B: int, K: int, mu: float = 1.0) -> StorageScheme:
    """Scheme for servers that each hold at least the whole file (K >= V):
    every fragment on every server once, so R = B and K = V, and all B
    servers stay useful until the download completes, under any
    work-conserving choice.

    A placement that fills all B*K slots holds R = B*K/V replicas of each
    fragment, so a server with K > V holds some fragments more than once. A
    second replica on a server changes no download, so the scheme keeps one
    of each. Sizes no such placement fills are refused.
    """
    if min(V, B, K) < 1:
        raise InvalidParams(f"V, B and K must be positive, got V={V}, B={B}, K={K}")
    if K < V:
        raise CapacityMismatch(f"need K >= V, got K={K} < V={V}")
    if (B * K) % V != 0:
        raise CapacityMismatch(f"B*K={B * K} not a multiple of V={V}")
    return build_scheme([range(1, B + 1)] * V, mu=mu, B=B)


def check_ensemble_params(B: int, V: int, R: int) -> None:
    """Refuse ensemble sizes the version-2 draws cannot serve: B, V and R
    must be positive, and B below 2**32, the range one half-word covers."""
    if min(B, V, R) < 1:
        raise InvalidParams("B, V, R must be positive")
    if B >= 1 << 32:
        raise InvalidParams(f"B must be below 2**32, got {B}")


def sample_random_mds(B: int, V: int, R: int, seed: int, index: int = 0) -> np.ndarray:
    """The 0-based servers of the V*R coded fragments of ensemble sample
    ``index``, flat (V*R,) uint64: that sample's ``placement_servers``.

    Nothing in the package calls it; the benchmark's ``sample_mds`` probe
    does, so it goes when that probe moves to ``placement_servers`` (ROADMAP
    item 3)."""
    check_ensemble_params(B, V, R)
    return placement_servers(seed, range(index, index + 1), B, V, R).reshape(-1)


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
