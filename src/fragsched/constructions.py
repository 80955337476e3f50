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
from .model import StorageScheme, SystemParams, build_scheme, physical_memory

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


# Bytes the arrays of one row block of ``_plane_rows`` may hold at once, as
# in ``model._pair_histogram``.
_PLANE_BLOCK_BYTES = 1 << 18
# Bytes a block holds per incidence entry: the int64 product (8) and its
# boolean zero test (1).
_BYTES_PER_INCIDENCE = 9


def _canonical_points(q: int) -> np.ndarray:
    """(q^2+q+1, 3) int64: representatives of the 1-dim subspaces of F_q^3,
    the unique scaling with first nonzero coordinate 1, in lexicographic
    order: (0, 0, 1), then (0, 1, z), then (1, y, z)."""
    pts = np.zeros((q * q + q + 1, 3), dtype=np.int64)
    pts[0, 2] = 1
    pts[1:q + 1, 1] = 1
    pts[1:q + 1, 2] = np.arange(q)
    pts[q + 1:, 0] = 1
    pts[q + 1:, 1], pts[q + 1:, 2] = np.divmod(np.arange(q * q), q)
    return pts


def _plane_rows(q: int) -> np.ndarray:
    """(n, q+1) intp, n = q^2+q+1: row i lists, ascending, the 0-based
    canonical points orthogonal to canonical point i over F_q.

    Read as an incidence, entry (i, j) of ``(P @ P.T) % q == 0`` for the
    canonical points P: symmetric, with q+1 entries in every row. The
    product is integer (no float matmul, so no BLAS) and taken in row blocks
    of reused buffers that stay within ``_PLANE_BLOCK_BYTES`` (256 KiB)
    while one row of 9 bytes per entry fits, that is up to about 29,000
    points; past that a block is one row. No n x n array is allocated."""
    if not _is_prime(q):  # prime powers would need polynomial arithmetic
        raise NotPrime(f"{q} is not prime")
    pts = _canonical_points(q)
    n = len(pts)
    step = max(1, _PLANE_BLOCK_BYTES // (n * _BYTES_PER_INCIDENCE))
    dots = np.empty((min(step, n), n), dtype=np.int64)
    orthogonal = np.empty(dots.shape, dtype=bool)
    rows = np.empty((n, q + 1), dtype=np.intp)
    for i0 in range(0, n, step):
        k = min(step, n - i0)
        np.matmul(pts[i0:i0 + k], pts.T, out=dots[:k])
        np.remainder(dots[:k], q, out=dots[:k])
        np.equal(dots[:k], 0, out=orthogonal[:k])
        rows[i0:i0 + k] = orthogonal[:k].nonzero()[1].reshape(k, q + 1)
    return rows


def _scheme_of_rows(occupancy: np.ndarray, fragment_sets: np.ndarray, mu: float) -> StorageScheme:
    """The scheme whose fragment v lies on the 0-based servers
    ``occupancy[v-1]`` and whose server b holds the 0-based fragments
    ``fragment_sets[b-1]``, two views of one incidence with distinct
    entries in every row. Every fragment has R = ``occupancy.shape[1]``
    replicas and every server K = ``fragment_sets.shape[1]`` fragments, so
    the scheme is completely utilizing. Passing one array for both views
    shares their frozensets."""
    occ = tuple(map(frozenset, (occupancy + 1).tolist()))
    frags = occ if fragment_sets is occupancy else tuple(map(frozenset, (fragment_sets + 1).tolist()))
    (V, R), (B, K) = occupancy.shape, fragment_sets.shape
    params = SystemParams(B=B, V=V, R=R, K=K, mu=mu, completely_utilizing=V * R == B * K)
    return StorageScheme(params=params, occupancy=occ, fragment_sets=frags)


def projective_plane(q: int, mu: float = 1.0) -> StorageScheme:
    """Scheme from the projective plane of prime order q.

    Points are 1-dim subspaces of F_q^3 and blocks are 2-dim subspaces; block
    b collects the points orthogonal to the b-th canonical point. The result
    is a completely utilizing scheme with V = B = q^2+q+1 and K = R = q+1,
    numbered deterministically by the lexicographic point order.

    The incidence is one integer product of the canonical points,
    ``(P @ P.T) % q == 0``, taken in row blocks within a fixed byte budget
    (``_plane_rows``). It is symmetric, since block b is dual to point b, so
    one array of rows gives both the occupancy and the fragment sets.
    """
    rows = _plane_rows(q)
    return _scheme_of_rows(rows, rows, mu)


def affine_plane(q: int, mu: float = 1.0) -> StorageScheme:
    """Scheme from the affine plane of prime order q: V = q^2, B = q^2 + q,
    K = q, R = q+1.

    Constructed by deleting one projective block and its points from all
    remaining blocks. The deleted block is the one dual to (0, 0, 1), i.e.
    the points with last coordinate zero; surviving points and blocks are
    renumbered consecutively in their original order. Both are taken from
    the projective plane's incidence rows (``_plane_rows``, the same block
    budget): a surviving point keeps its row less one, since no surviving
    point lies on block 1, and every other block loses the one deleted point
    it meets.
    """
    rows = _plane_rows(q)
    # block b is dual to point b, so row b lists block b's points; block 1
    # (row 0) is dual to (0, 0, 1), the first canonical point
    kept = np.ones(len(rows), dtype=bool)
    kept[rows[0]] = False
    renumber = np.cumsum(kept) - 1
    blocks = rows[1:]
    fragment_sets = renumber[blocks[kept[blocks]].reshape(len(blocks), q)]
    return _scheme_of_rows(rows[kept] - 1, fragment_sets, mu)


def cyclic_shift(V: int, R: int, mu: float = 1.0) -> StorageScheme:
    """Symmetric cyclic scheme with B = V and K = R: server b stores the K
    consecutive fragments {b, b+1, ..., b+K-1} (wrapping modulo V)."""
    if not 1 <= R <= V:
        raise InvalidParams(f"need 1 <= R <= V, got R={R}, V={V}")
    first, offset = np.arange(V)[:, None], np.arange(R)
    # fragment v lies on servers v, v-1, ..., v-R+1; server b holds b..b+R-1
    return _scheme_of_rows((first - offset) % V, (first + offset) % V, mu)


# Bytes ``large_storage_scheme`` holds per (server, fragment) entry: the
# ru_maxrss growth of one call in a fresh process read 122-324 bytes at
# V = 2..1000 (B*V = 2*10^5 to 2*10^6), the most at V = 2, where every
# server's frozenset of two fragments is a hash table of its own.
_LARGE_BYTES_PER_ENTRY = 330


def large_storage_scheme(V: int, B: int, K: int, mu: float = 1.0) -> StorageScheme:
    """Scheme for servers that each hold at least the whole file (K >= V):
    every fragment on every server once, so R = B and K = V, and all B
    servers stay useful until the download completes, under any
    work-conserving choice.

    A placement that fills all B*K slots holds R = B*K/V replicas of each
    fragment, so a server with K > V holds some fragments more than once. A
    second replica on a server changes no download, so the scheme keeps one
    of each. Sizes no such placement fills are refused, and so, before
    anything is built, is a B*V whose estimated memory, 330 bytes an entry
    (``_LARGE_BYTES_PER_ENTRY``), exceeds this machine's physical memory.
    """
    if min(V, B, K) < 1:
        raise InvalidParams(f"V, B and K must be positive, got V={V}, B={B}, K={K}")
    if K < V:
        raise CapacityMismatch(f"need K >= V, got K={K} < V={V}")
    if (B * K) % V != 0:
        raise CapacityMismatch(f"B*K={B * K} not a multiple of V={V}")
    estimate = _LARGE_BYTES_PER_ENTRY * B * V
    physical = physical_memory()  # None off POSIX, where nothing is refused
    if physical is not None and estimate > physical:
        raise InvalidParams(f"B={B}, V={V}: {B * V:,} server-fragment entries, estimated memory "
                            f"{estimate / 2**30:,.1f} GiB exceeds the {physical / 2**30:,.1f} GiB "
                            f"of physical memory")
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
