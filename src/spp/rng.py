"""Deterministic pseudo-random numbers.

An ``Rng`` yields the SplitMix64 sequence that starts at its seed (Steele,
Lea & Flood, OOPSLA 2014): word k, counting from 1, is the finalizer of
seed + k * 0x9E3779B97F4A7C15 modulo 2**64, which is what ``splitmix64``
gives when called k times.  Doubles take the top 53 bits of each word:
(word >> 11) * 2**-53, uniform in [0, 1).  Every step is 64-bit integer
arithmetic, so the stream for a given seed is identical on every platform,
which is what makes weight init, dropout masks, and therefore whole
checkpoints reproducible byte for byte.

Word k depends on k alone (a counter-based generator; Salmon et al., SC
2011), so a bulk draw is plain array arithmetic, ``_CHUNK`` words at a time,
and no split of the draws changes a value.  ``Rng._s``, the whole state, is
one integer: the counter after the last word consumed.
"""

import operator

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_TO_DOUBLE = 2.0 ** -53
_CHUNK = 1 << 12


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; returns (new_state, output word)."""
    state = (state + _GAMMA) & _MASK
    z = state
    for shift, factor in _MIX:
        z = ((z ^ (z >> shift)) * factor) & _MASK
    return state, (z ^ (z >> 31))


class Rng:
    """The SplitMix64 stream from ``seed``.

    Single-owner object: state advances on every draw, so share one instance
    only when the draw order is itself part of the contract.
    """

    def __init__(self, seed: int):
        self._s = int(seed) & _MASK

    def next_u64(self) -> int:
        self._s, word = splitmix64(self._s)
        return word

    def next_double(self) -> float:
        """Uniform double in [0, 1) with a full 53-bit mantissa."""
        return (self.next_u64() >> 11) * _TO_DOUBLE

    def doubles(self, count: int) -> np.ndarray:
        """Next ``count`` doubles as a 1-D array.  Same stream as next_double.

        Each chunk's words are mixed in the output's own bytes.  Beside the
        output it holds two arrays of at most ``_CHUNK`` words: the counter
        steps k * gamma and the shifted words.
        """
        count = operator.index(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        out = np.empty(count, dtype=np.float64)
        steps = np.arange(1, min(count, _CHUNK) + 1, dtype=np.uint64)
        steps *= _GAMMA
        shifted = np.empty_like(steps)
        for lo in range(0, count, _CHUNK):
            part = out[lo : lo + _CHUNK]
            z, t = part.view(np.uint64), shifted[: part.size]
            np.add(steps[: part.size], (self._s + lo * _GAMMA) & _MASK, out=z)
            for shift, factor in _MIX:
                z ^= np.right_shift(z, shift, out=t)
                z *= factor
            z ^= np.right_shift(z, 31, out=t)
            part[...] = np.right_shift(z, 11, out=t)
            part *= _TO_DOUBLE
        self._s = (self._s + count * _GAMMA) & _MASK
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
