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
   Where every item has one host (MDS, or replication with R = 1), the item
   taken cannot change the useful servers, so that second call's value goes
   unused; it is still made, because it reads the stream (a rejected
   half-word included), and later draws depend on where it leaves off.

NumPy computes ``integers(0, m)`` for ``m <= 2**32`` from the stream's 32-bit
half-words, each 64-bit word read low half first (a high half left over by an
odd count waits in the generator's state for the next read). ``m = 1`` draws
nothing; any other m reads the next half-word u and returns ``(u * m) >> 32``
unless ``(u * m) mod 2**32 < (2**32 - m) mod m``, in which case it rejects u
and reads the next one (Lemire, ACM TOMACS 2019). ``IntegersReplay`` replays
such calls vectorized over rows, one call per row in one numpy pass, from each
row's block of half-words; every value is the scalar call's, so the contract
above holds value for value. A batch of samples reads each sample's block
from the start of its trajectory stream (``stream_replay``); one sample read
from a caller's generator (``integers_replay``) leaves it in the state the
scalar calls would have left it in.

Placements are replayed a batch at a time as well: ``lemire_fill`` runs the
same step, with the same threshold, on the first V*R half-words of every
sample's placement stream at once. A sample with a rejected half-word, or
every sample when B > 2**32, where numpy draws whole words, is drawn again by
numpy's own call, so every placement keeps the values of the contract.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import numpy as np

_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW_HALF = 0 if sys.byteorder == "little" else 1  # the low uint32 of a uint64
_SHIFT32 = np.uint64(32)
_HALF = 1 << 32

# Stream domains; keep values stable, they are part of the seeding contract.
DOMAIN_RUN = 1          # one Monte Carlo simulation run
DOMAIN_PLACEMENT = 2    # one sampled ensemble placement
DOMAIN_FRAGMENT = 3     # one fragment's replica draws
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
    the uint32 arrays ``high`` and ``low``, for ``split_picks``."""
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


def half_words(gen: np.random.Generator, n: int) -> np.ndarray:
    """The generator's next n 32-bit half-words (uint64), as ``integers(0, m)``
    reads them: a pending high half first, then each word low half first."""
    return gen.integers(0, _HALF, size=n, dtype=np.uint64)


def lemire_threshold(m):
    """NumPy's rejection threshold ``(2**32 - m) mod m`` for ``integers(0,
    m)`` with 1 <= m <= 2**32: a half-word u is rejected when the low half of
    ``u * m`` lies below it. Works on ints and on uint64 arrays alike."""
    return (_HALF - m) % m


def lemire_fill(words: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """Write into row i of ``out``, (n, k), the values ``integers(0, m,
    size=k)`` draws from a stream whose first words are row i of ``words``
    (n, at least k/2 uint64), if none of its first k half-words is rejected;
    returns the mask of the rows where one is, whose values are wrong and
    must be drawn again.

    The half-words are read low half first, and numpy's Lemire step runs on
    the whole (n, k) block in one multiply and one shift. For m > 2**32,
    where numpy draws whole words instead, every row is masked and ``out``
    is left as it was."""
    n, k = out.shape
    if m > _HALF:
        return np.ones(n, dtype=bool)
    half = np.ascontiguousarray(words, dtype="<u8").view("<u4")[:, :k]
    x = half.astype(np.uint64)  # a plain cast: a mixed-type multiply would buffer
    x *= np.uint64(m)
    low = x.view(np.uint32)[:, _LOW_HALF::2]  # x mod 2**32, a view of x
    redraw = low.min(axis=1, initial=_HALF - 1) < lemire_threshold(m)
    x >>= _SHIFT32
    out[...] = x
    return redraw


class IntegersReplay:
    """Rows of ``Generator.integers(0, m)`` calls, one call per row per
    ``integers``, replayed by numpy's own Lemire rejection from each row's
    block of 32-bit half-words.

    Row i reads ``half[i]`` in order from ``used[i]`` on. A call reads one
    half-word in every row by one gather; only rows whose low product falls
    below their range go through the rejection loop, and only rows that
    reject read further. A scalar bound on the half-words used grows by one
    per read; only when it reaches the block's width is ``used`` read, and
    only when a row has used its whole block is every block extended:
    ``extend(h)`` returns, as an (n, h) array, the h half-words each row's
    stream holds after the h of its block. So a block with one half-word per
    call is never extended unless a draw is rejected.
    """

    def __init__(self, half: np.ndarray, extend):
        self._extend = extend
        self._set_block(half, np.zeros(len(half), dtype=np.intp))

    def _set_block(self, half: np.ndarray, used: np.ndarray) -> None:
        self.half = half
        self._flat = half.reshape(-1)
        self._base = np.arange(len(half)) * half.shape[1]
        self._pos = self._base + used  # each row's next half-word in ``_flat``
        self._top = int(used.max(initial=0))  # at least every row's ``used``

    @property
    def used(self) -> np.ndarray:
        """Per row, the half-words its calls have read so far."""
        return self._pos - self._base

    def integers(self, m: np.ndarray) -> np.ndarray:
        """Per row i, the value ``integers(0, m[i])`` returns, as uint64, for
        uint64 ranges 1 <= m < 2**32. ``m = 1`` reads nothing and gives 0; a
        row whose half-word is rejected reads its next one, and only those
        rows do."""
        self._fit()
        x = self._flat.take(self._pos) * m
        self._pos += m != 1
        low = x.view(np.uint32)[_LOW_HALF::2]  # x mod 2**32, a view of x
        maybe = (low < m).nonzero()[0]
        if len(maybe):
            self._reject(x, low, m, maybe)
        x >>= _SHIFT32
        return x

    def _reject(self, x, low, m, rows) -> None:
        """Redraw, in place in ``x``, the rows whose low product lies below
        numpy's threshold ``(2**32 - m) mod m``: ``rows`` holds every row whose
        low product lies below m, a bound on the threshold."""
        while True:
            rows = rows[low[rows] < lemire_threshold(m[rows])]
            if not len(rows):
                return
            self._fit()
            pos = self._pos[rows]
            x[rows] = self._flat.take(pos) * m[rows]
            self._pos[rows] = pos + 1
            rows = rows[low[rows] < m[rows]]

    def _fit(self) -> None:
        """Make sure every row has a half-word left to read, counting the read
        about to happen in the scalar bound."""
        if self._top >= self.half.shape[1]:
            used = self.used
            self._top = int(used.max())
            if self._top >= self.half.shape[1]:
                width = self.half.shape[1]
                self._set_block(np.concatenate((self.half, self._extend(width)), axis=1), used)
        self._top += 1


def stream_replay(seed: int, domain: int, indices: range, count: int) -> IntegersReplay:
    """An ``IntegersReplay`` with one row per index, reading that index's
    stream from its start: the first ``count`` words, extended on demand."""

    def half(first: int, stop: int) -> np.ndarray:
        # each word's little-endian halves: low half first
        block = stream_words(seed, domain, indices, stop)[first:]
        return np.ascontiguousarray(block.T, dtype="<u8").view("<u4")

    return IntegersReplay(half(0, count), lambda h: half(h // 2, h))


@contextmanager
def integers_replay(gen: np.random.Generator, block: int):
    """Yield a one-row ``IntegersReplay`` whose calls equal, call for call,
    ``int(gen.integers(0, m))``.

    Half-words are read ``block`` at a time; on exit the generator is reset to
    its starting state and advanced by the half-words the draws used, so it
    ends where the scalar calls would have left it.
    """
    state = gen.bit_generator.state
    replay = IntegersReplay(half_words(gen, block)[None], lambda h: half_words(gen, h)[None])
    try:
        yield replay
    finally:
        gen.bit_generator.state = state
        half_words(gen, int(replay.used[0]))
