"""Deterministic pseudo-random numbers.

A 64-bit seed is expanded with splitmix64 into the 256-bit state of a
xoshiro256** generator.  Doubles take the top 53 bits of each output word:
(word >> 11) * 2**-53, uniform in [0, 1).  The stream for a given seed is
identical on every platform, which is what makes weight init, dropout masks,
and therefore whole checkpoints reproducible byte for byte.

An ``Rng`` reads its one sequence ahead into a buffer of output words and
serves every draw from it in order, so no split of the draws changes a value.
A refill is the larger of the request and twice the last refill, at most
``_BLOCK`` (16,384) words; one under ``_CROSSOVER`` (1,024) steps in Python.  Larger
ones run as L lanes of S = 2**floor(log2(n) / 2) words stepping together on
arrays.  The step ``_advance`` is linear over GF(2), so lane l starts at
A^(l*S) s (Blackman & Vigna, ACM TOMS 2021), reached by ceil(log2 L) jumps by
A^(2**j) (Haramoto et al., INFORMS J. Computing 2008), built on first use
(13-18 ms on a 2-core x86 host) and kept packed, 8 KiB each.  ``Rng._s``, the
state after the last word consumed, is the buffer's start advanced likewise.
"""

import operator

import numpy as np

_MASK = (1 << 64) - 1
_TO_DOUBLE = 2.0 ** -53
_CROSSOVER = 1024
_BLOCK = 1 << 14


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; returns (new_state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, (z ^ (z >> 31))


def _advance(s0, s1, s2, s3):
    """xoshiro256**'s state transition; on Python ints, mask s2 and s3 to 64 bits after."""
    t = s1 << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3 = (s3 << 45) | (s3 >> 19)
    return s0, s1, s2, s3


def _scramble(words: np.ndarray) -> np.ndarray:
    """The ``**`` scrambler rotl(s1 * 5, 7) * 9, in place on ``uint64`` s1 words."""
    words *= 5
    np.bitwise_or(words << 7, words >> 57, out=words)
    words *= 9
    return words


def _bits(words: np.ndarray) -> np.ndarray:
    """(k, 4) uint64 states as (k, 256) float32 0/1 rows; bit j is bit j % 64 of word j // 64."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little").astype(np.float32)


def _jump(states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Apply the GF(2)-linear map whose image of state bit j is ``rows[j]`` to (k, 4) ``states``.

    A float32 GEMM on 0/1 bits is exact (no sum exceeds 256); its parity is the GF(2) product.
    """
    sums = _bits(states) @ _bits(rows)
    parity = (sums.astype(np.int32) & 1).astype(np.uint8)
    packed = np.packbits(parity, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


_POWERS: tuple[np.ndarray, ...] = ()


def _powers() -> tuple[np.ndarray, ...]:
    """A^(2**i) for i < 14 as ``_jump`` rows; built whole on first use, then published at once."""
    global _POWERS
    if not _POWERS:
        images = []
        for j in range(256):
            basis = [0, 0, 0, 0]
            basis[j // 64] = 1 << (j % 64)
            images.append([w & _MASK for w in _advance(*basis)])
        powers = [np.array(images, dtype=np.uint64)]
        while len(powers) < _BLOCK.bit_length() - 1:
            powers.append(_jump(powers[-1], powers[-1]))
        _POWERS = tuple(powers)
    return _POWERS


def _fill_scalar(s: tuple, n: int) -> tuple[np.ndarray, tuple]:
    """The n output words from state ``s``, one step at a time; returns (words, state after)."""
    (s0, s1, s2, s3), words = s, []
    for _ in range(n):
        words.append(s1)
        s0, s1, s2, s3 = _advance(s0, s1, s2, s3)
        s2, s3 = s2 & _MASK, s3 & _MASK
    return _scramble(np.array(words, dtype=np.uint64)), (s0, s1, s2, s3)


def _fill_lanes(s: tuple, n: int) -> tuple[np.ndarray, tuple]:
    """Whole lanes of output words from ``s``, n to n + S - 1; returns (words, state after)."""
    log_s = (n.bit_length() - 1) // 2
    steps, lanes = 1 << log_s, -(-n >> log_s)
    starts = np.array([s], dtype=np.uint64)
    for power in _powers()[log_s : log_s + (lanes - 1).bit_length()]:
        starts = np.concatenate([starts, _jump(starts[: lanes - len(starts)], power)])
    state = tuple(starts.T.copy())
    block = np.empty((lanes, steps), dtype=np.uint64)
    for k in range(steps):
        block[:, k] = state[1]
        state = _advance(*state)
    return _scramble(block).ravel(), tuple(int(w[-1]) for w in state)


class Rng:
    """xoshiro256** stream seeded via splitmix64 expansion.

    Single-owner object: state advances on every draw, so share one instance
    only when the draw order is itself part of the contract.
    """

    def __init__(self, seed: int):
        sm = int(seed) & _MASK
        words = []
        for _ in range(4):
            sm, w = splitmix64(sm)
            words.append(w)
        self._s = words

    @property
    def _s(self) -> list[int]:
        """The state after the last word consumed, as four ints."""
        if self._pos == self._buf.size:
            return list(self._end)
        state = np.array([self._start], dtype=np.uint64)
        for j in range(self._pos.bit_length()):
            if self._pos >> j & 1:
                state = _jump(state, _powers()[j])
        return [int(w) for w in state[0]]

    @_s.setter
    def _s(self, state) -> None:
        """Restart the stream at ``state``, dropping the words read ahead."""
        self._start = self._end = tuple(int(w) for w in state)
        self._buf, self._pos = np.empty(0, dtype=np.uint64), 0

    def _words(self, count: int):
        """Consume the next ``count`` words, yielded as slices of the buffer."""
        while count:
            if self._pos == self._buf.size:
                n = min(max(count, 2 * self._buf.size), _BLOCK)
                fill = _fill_lanes if n >= _CROSSOVER else _fill_scalar
                self._start, self._pos = self._end, 0
                self._buf, self._end = fill(self._start, n)
            part = self._buf[self._pos : self._pos + count]
            self._pos += part.size
            count -= part.size
            yield part

    def next_u64(self) -> int:
        return int(next(self._words(1))[0])

    def next_double(self) -> float:
        """Uniform double in [0, 1) with a full 53-bit mantissa."""
        return (self.next_u64() >> 11) * _TO_DOUBLE

    def doubles(self, count: int) -> np.ndarray:
        """Next ``count`` doubles as a 1-D array.  Same stream as next_double."""
        count = operator.index(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        out = np.empty(count, dtype=np.float64)
        lo = 0
        for part in self._words(count):
            np.multiply(part >> 11, _TO_DOUBLE, out=out[lo : lo + part.size])
            lo += part.size
        return out

    def uniform(self, lo: float, hi: float, rows: int, cols: int) -> np.ndarray:
        """(rows, cols) matrix of uniforms in [lo, hi), filled row-major."""
        if not (lo < hi):
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi})")
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
        u = self.doubles(rows * cols)
        vals = lo + u * (hi - lo)
        # Rounding of lo + u*(hi-lo) can land exactly on hi when the interval
        # is a few ulps wide; clamp to keep the half-open contract.
        np.minimum(vals, np.nextafter(hi, lo), out=vals)
        return vals.reshape(rows, cols)
