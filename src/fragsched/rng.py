"""Deterministic, splittable random streams.

Every stream is a Philox generator keyed by (seed, domain, index), so any
consumer can be derived independently of execution order: run r of a Monte
Carlo experiment, sample s of an ensemble, or fragment v of a placement each
get their own stream as a pure function of the master seed. Parallel workers
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

Seeding contract of an ensemble sample (B servers, V fragments, R replicas
or coded fragments per fragment). Sample s of an ensemble with seed t reads
two streams through numpy's ``Generator`` methods:

1. ``stream(t, DOMAIN_PLACEMENT, s)`` makes one draw,
   ``integers(0, B, size=(V, R))``: row v holds the 0-based servers of the R
   replicas of fragment v (replication), and the rows read in order are the
   servers of the V*R coded fragments (MDS; the same values as
   ``integers(0, B, size=V*R)``).
2. ``stream(t, DOMAIN_TRAJECTORY, s)`` drives the download. Fragment-uniform
   order makes one ``permutation(items)`` over the V fragments (replication)
   or the V*R coded fragments (MDS), and step l takes its l-th entry.
   Server-uniform order makes two ``integers(0, m)`` calls per step, in this
   order: the winner's position in the ascending list of useful servers,
   then a position in the ascending list of the winner's remaining items.

NumPy computes ``integers(0, m)`` for ``m <= 2**32`` from the stream's 32-bit
half-words, each 64-bit word read low half first (a high half left over by an
odd count waits in the generator's state for the next read). ``m = 1`` draws
nothing; any other m reads the next half-word u and returns ``(u * m) >> 32``
unless ``(u * m) mod 2**32 < (2**32 - m) mod m``, in which case it rejects u
and reads the next one (Lemire, ACM TOMACS 2019). ``integers_replay`` replays
such calls from one block of half-words and leaves the generator in the state
the calls would have left it in; the engine draws the server-uniform picks
through it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_HALF = 1 << 32

# Stream domains; keep values stable, they are part of the seeding contract.
DOMAIN_RUN = 1          # one Monte Carlo simulation run
DOMAIN_PLACEMENT = 2    # one sampled ensemble placement
DOMAIN_FRAGMENT = 3     # one fragment's replica draws
DOMAIN_TRAJECTORY = 5   # the download trajectory of one ensemble sample


def _key(seed: int, domain: int, index: int) -> int:
    if index < 0 or index >= 1 << 56:
        raise ValueError(f"stream index out of range: {index}")
    return (index << 72) | ((domain & 0xFF) << 64) | (int(seed) & _MASK64)


def stream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Generator for (seed, domain, index); a pure function of its arguments."""
    return np.random.Generator(np.random.Philox(key=_key(seed, domain, index)))


def streams(seed: int, domain: int, indices: range):
    """Yield, for each index in turn, a generator whose draws equal those of
    ``stream(seed, domain, index)``.

    One Philox generator is re-keyed per index, which costs a fraction of
    building a new generator; so every yielded generator is the same object,
    valid only until the next one is taken.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = {
        "bit_generator": "Philox",
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for index in indices:
        key = _key(seed, domain, index)
        state["state"] = {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([key & _MASK64, key >> 64], dtype=np.uint64),
        }
        bits.state = state
        yield gen


def stream_words(seed: int, domain: int, indices: range, count: int) -> np.ndarray:
    """The first ``count`` 64-bit words of the stream of each index, one
    column per index: column i equals ``words(stream(seed, domain, indices[i]),
    count)``."""
    out = np.empty((count, len(indices)), dtype=np.uint64)
    for i, gen in enumerate(streams(seed, domain, indices)):
        out[:, i] = gen.bit_generator.random_raw(count)
    return out


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
    m < 2**32, exact in 64-bit arithmetic: with u = hi * 2**32 + lo,
    (u*m) >> 64 == (hi*m + (lo*m >> 32)) >> 32, and neither product nor the
    sum reaches 2**64."""
    high = u >> _SHIFT32
    low = u & _LOW32
    low *= m
    low >>= _SHIFT32
    high *= m
    high += low
    high >>= _SHIFT32
    return high


def half_words(gen: np.random.Generator, n: int) -> list[int]:
    """The generator's next n 32-bit half-words, as ``integers(0, m)`` reads
    them: a pending high half first, then each word low half first."""
    return gen.integers(0, _HALF, size=n, dtype=np.uint64).tolist()


@contextmanager
def integers_replay(gen: np.random.Generator, block: int):
    """Yield ``draw(m)``, equal call for call to ``int(gen.integers(0, m))``
    for 1 <= m <= 2**32, without a numpy call per draw.

    Half-words are read ``block`` at a time; on exit the generator is reset to
    its starting state and advanced by the half-words the draws used, so it
    ends where the scalar calls would have left it.
    """
    state = gen.bit_generator.state
    half: list[int] = []
    used = 0

    def draw(m: int) -> int:
        nonlocal used
        if m == 1:
            return 0
        while True:
            if used == len(half):
                half.extend(half_words(gen, block))
            x = half[used] * m
            used += 1
            low = x & 0xFFFFFFFF
            # Lemire's rejection: threshold = (2**32 - m) % m < m
            if low >= m or low >= (_HALF - m) % m:
                return x >> 32

    try:
        yield draw
    finally:
        gen.bit_generator.state = state
        half_words(gen, used)
