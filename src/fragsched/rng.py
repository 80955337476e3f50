"""Deterministic, splittable random streams.

Every stream is a Philox generator keyed by (seed, domain, index), so any
consumer can be derived independently of execution order: run r of a Monte
Carlo experiment, and the placement and the download of ensemble sample s,
each get their own stream as a pure function of the master seed. Parallel workers
therefore produce bit-identical results regardless of scheduling.

Seeding contract of a Monte Carlo run (jump chain, V fragments). Run r of an
experiment with master seed s reads the stream ``stream(s, DOMAIN_RUN, r)``
and draws 64-bit words in three blocks of V:

1. V words for the holding times: step l waits ``-log((u + 0.5) / 2**64)``
   divided by ``N(I_l) * mu``;
2. V winner words: step l picks position ``pick(u, N(I_l))`` of the useful
   list;
3. V extra words, drawn only by the uniform-random policy and by ranked
   policies with seeded ties: step l picks the ``pick(u, m)``-th of the m
   remaining fragments (random) or of the m tied fragments (seeded ties).

A single draw of 2V or 3V words yields the same words as these separate
draws, so a run may take its words in one call.

Seeding contract of an ensemble sample, version 2 (B servers with
B < 2**32, V fragments, R replicas or coded fragments per fragment). Every
ensemble draw onto [0, m) takes one 32-bit half-word h, each 64-bit word read
low half first, and returns ``(h * m) >> 32`` (``half_picks``): numpy's Lemire
step without its rejection, so a draw always reads its half-word, m = 1
included, and each value's probability lies within a factor 1 +- m / 2**32
of 1/m. Sample s of an ensemble with seed t reads two streams:

1. ``stream(t, DOMAIN_PLACEMENT, s)``: its first ceil(V*R/2) words give V*R
   half-words, each drawn onto [0, B). Entry v*R + r is the 0-based server of
   replica r of fragment v (replication); the entries in order are the
   servers of the V*R coded fragments (MDS). An odd V*R leaves the last
   word's high half unread.
2. ``stream(t, DOMAIN_TRAJECTORY, s)`` drives the download. Fragment-uniform
   order makes one numpy ``permutation(items)`` over the V fragments
   (replication) or the V*R coded fragments (MDS), and step l takes its l-th
   entry. Server-uniform order reads word l at step l: its low half picks the
   winner's position in the ascending list of useful servers, its high half a
   position in the ascending list of the winner's remaining items.

``SEEDING_CONTRACT`` numbers the contract as a whole, and artifacts record
it. Version 2 changed only the ensemble draws, which version 1 took through
numpy's ``integers``; the jump chain's draws above are those of version 1.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

SEEDING_CONTRACT = 2

# Stream domains; keep values stable, they are part of the seeding contract.
DOMAIN_RUN = 1          # one Monte Carlo simulation run
DOMAIN_PLACEMENT = 2    # one sampled ensemble placement
# 3 is retired (one fragment's replica draws, before version 2): never reuse it
DOMAIN_TRAJECTORY = 5   # the download trajectory of one ensemble sample


def _check_index(index: int) -> None:
    if index < 0 or index >= 1 << 56:
        raise ValueError(f"stream index out of range: {index}")


def _key(seed: int, domain: int, index: int) -> int:
    _check_index(index)
    return (index << 72) | ((domain & 0xFF) << 64) | (int(seed) & _MASK64)


def stream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Generator for (seed, domain, index); a pure function of its arguments."""
    return np.random.Generator(np.random.Philox(key=_key(seed, domain, index)))


def streams(seed: int, domain: int, indices: range):
    """Yield, for each index in turn, a generator whose draws equal those of
    ``stream(seed, domain, index)``.

    One Philox generator is re-keyed per index, which costs a fraction of
    building a new generator; so every yielded generator is the same object,
    valid only until the next one is taken. The re-keying writes the key into
    one state dict in place: setting the state copies it into the generator.
    The dict holds plain Python ints, not numpy arrays, because numpy's
    ``Philox`` state setter reads the counter, the buffer and the key entry by
    entry, and a numpy element costs several times an int to read. Of the
    128-bit key (``_key``) only the high word, ``(index << 8) | domain``,
    changes from index to index; both ends of the range are checked once.
    """
    if len(indices):
        _check_index(indices[0])
        _check_index(indices[-1])
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    key = [int(seed) & _MASK64, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    domain &= 0xFF
    for index in indices:
        key[1] = (index << 8) | domain
        bits.state = state
        yield gen


def stream_words(seed: int, domain: int, indices: range, count: int) -> np.ndarray:
    """The first ``count`` 64-bit words of the stream of each index, one
    column per index: column i equals ``words(stream(seed, domain, indices[i]),
    count)``.

    Each index's words are written as one contiguous row of an (n, count)
    buffer, and its transposed (count, n) view is returned: a column of the
    result is a row in memory."""
    out = np.empty((len(indices), count), dtype=np.uint64)
    for row, gen in zip(out, streams(seed, domain, indices)):
        row[:] = gen.bit_generator.random_raw(count)
    return out.T


def words(gen: np.random.Generator, n: int) -> np.ndarray:
    """n raw 64-bit words."""
    return gen.integers(0, 1 << 64, size=n, dtype=np.uint64)


def word_doubles(u: np.ndarray) -> np.ndarray:
    """Doubles in (0, 1] from 64-bit words, (u + 0.5) / 2**64 in float64.

    A word converts to the nearest double first, so the top 1,024 words give
    exactly 1.0."""
    x = u.astype(np.float64)
    x += 0.5
    x *= 2.0**-64
    return x


def word_exponentials(u: np.ndarray) -> np.ndarray:
    """Unit-rate exponentials by inverse transform of 64-bit words,
    ``-log(word_doubles(u))``: in [0, 45.1], where the top 1,024 words give
    -0.0."""
    x = word_doubles(u)
    np.log(x, out=x)
    return np.negative(x, out=x)


def standard_exponentials(gen: np.random.Generator, n: int) -> np.ndarray:
    """n unit-rate exponentials by inverse transform of 64-bit uniforms."""
    return word_exponentials(words(gen, n))


def bounded_picks(gen: np.random.Generator, n: int) -> list[int]:
    """n raw 64-bit words for later reduction onto varying ranges.

    Reduce word u onto range m with (u * m) >> 64; the bias is at most
    m / 2**64 and the draw count stays fixed per step.
    """
    return [int(u) for u in words(gen, n)]


def pick(word: int, m: int) -> int:
    """Map a 64-bit word onto [0, m) by multiply-shift."""
    return (word * m) >> 64


def picks(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise ``pick(u, m)`` for uint64 words u and uint64 ranges
    m < 2**32 (see ``split_picks``)."""
    return split_picks(u >> _SHIFT32, u & _LOW32, m)


def split_words(u: np.ndarray, high: np.ndarray, low: np.ndarray) -> None:
    """Write the high and the low 32-bit halves of the uint64 words u into
    the uint32 arrays ``high`` and ``low``, for ``split_picks`` or
    ``half_picks``."""
    np.right_shift(u, _SHIFT32, out=high, casting="unsafe")
    np.bitwise_and(u, _LOW32, out=low, casting="unsafe")


def split_picks(high: np.ndarray, low: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``picks(u, m)`` from the high and low 32-bit halves of the words u,
    as uint64, for uint64 ranges m < 2**32. Exact in 64-bit arithmetic: with
    u = hi * 2**32 + lo, (u*m) >> 64 == (hi*m + (lo*m >> 32)) >> 32, and
    neither product nor the sum reaches 2**64."""
    lo = low * m
    lo >>= _SHIFT32
    hi = high * m
    hi += lo
    hi >>= _SHIFT32
    return hi


def half_picks(h: np.ndarray, m) -> np.ndarray:
    """The version-2 ensemble draw: 32-bit half-words h mapped onto [0, m) by
    multiply-shift, ``(h * m) >> 32``, as uint64. m is a uint64 scalar or
    array of ranges up to 2**32, so the product fits in 64 bits."""
    x = h.astype(np.uint64)  # a plain cast: a mixed-type multiply would buffer
    x *= m
    x >>= _SHIFT32
    return x
