"""Deterministic pseudo-random numbers.

A 64-bit seed is expanded with splitmix64 into the 256-bit state of a
xoshiro256** generator.  Doubles take the top 53 bits of each output word:
(word >> 11) * 2**-53, uniform in [0, 1).  The stream for a given seed is
identical on every platform, which is what makes weight init, dropout masks,
and therefore whole checkpoints reproducible byte for byte.

The step is written once, as a state transition ``_advance`` and the ``**``
output scrambler ``_scramble``; both run unchanged on Python ints and on
``uint64`` arrays.  ``_advance`` is linear over GF(2) (xors, shifts and
rotations), so the state i steps ahead is A^i s for a fixed 256 x 256 bit
matrix A (Blackman & Vigna, "Scrambled linear pseudorandom number
generators", ACM TOMS 2021).  ``Rng.doubles`` uses that to draw n doubles as
L lanes of S consecutive outputs, S = 2**floor(log2(n) / 2) and L =
ceil(n / S): lane l starts at A^(l*S) s, all lanes step together on arrays,
and the scrambler runs once on the whole (S, L) block.  The lane starts come
from ceil(log2 L) doublings, each one batched jump by A^(2**j) (Haramoto et
al., "Efficient jump ahead for F2-linear random number generators", INFORMS
J. Computing 2008).  Every output and the final state A^n s are those of the
one-at-a-time loop, bit for bit.

Requests under ``_CROSSOVER`` (1,024) draws step one state in Python and
scramble the recorded words once as an array; below that size the lanes'
fixed cost (about 0.4 ms) outweighs what they save.  Larger requests are
drawn in blocks of at most ``_BLOCK`` (16,384), which caps the transient
memory (under 1 MiB) and the highest power of A needed at A^(2**13).  The
jumps are float32 GEMMs on 0/1 bits.  The powers A^(2**i) are built by
squaring on the first lane call in a process (13-18 ms on a 2-core x86
host), never at import, and kept packed: 14 bit matrices of 8 KiB each.
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
    """xoshiro256**'s state transition.  Arrays are updated in place."""
    t = (s1 << 17) & _MASK
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
    return s0, s1, s2, s3


def _scramble(s1):
    """The ``**`` scrambler: the output word of a state, from its s1."""
    x = (s1 * 5) & _MASK
    return ((((x << 7) | (x >> 57)) & _MASK) * 9) & _MASK


def _bits(words: np.ndarray) -> np.ndarray:
    """(k, 4) uint64 states as (k, 256) float32 0/1 rows; bit j is bit j % 64 of word j // 64."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little").astype(np.float32)


def _jump(states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Apply a GF(2)-linear map to every state of ``states`` (k, 4) uint64.

    ``rows`` (256, 4) uint64 holds the map's image of each state bit.  The
    product runs as a float32 GEMM on 0/1 bits, exact because no sum exceeds
    256; its parity is the GF(2) product.
    """
    sums = _bits(states) @ _bits(rows)
    parity = (sums.astype(np.int32) & 1).astype(np.uint8)
    packed = np.packbits(parity, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


_POWERS: tuple[np.ndarray, ...] = ()


def _powers() -> tuple[np.ndarray, ...]:
    """A^(2**i) for i < 14, as the image rows ``_jump`` takes; built on first use.

    Built whole and then published in one assignment, so a caller never sees
    a partial cache.
    """
    global _POWERS
    if not _POWERS:
        images = []
        for j in range(256):
            basis = [0, 0, 0, 0]
            basis[j // 64] = 1 << (j % 64)
            images.append(_advance(*basis))
        powers = [np.array(images, dtype=np.uint64)]
        while len(powers) < _BLOCK.bit_length() - 1:
            powers.append(_jump(powers[-1], powers[-1]))
        _POWERS = tuple(powers)
    return _POWERS


def _fill_scalar(s: tuple, out: np.ndarray) -> tuple:
    """Fill ``out`` one step at a time from state ``s``; returns the state after."""
    s0, s1, s2, s3 = s
    words = []
    for _ in range(out.size):
        words.append(s1)
        s0, s1, s2, s3 = _advance(s0, s1, s2, s3)
    out[:] = (_scramble(np.array(words, dtype=np.uint64)) >> 11) * _TO_DOUBLE
    return s0, s1, s2, s3


def _fill_lanes(s: tuple, out: np.ndarray) -> tuple:
    """Fill ``out`` (at most ``_BLOCK`` long) in lanes from ``s``; returns the state after."""
    n = out.size
    log_s = (n.bit_length() - 1) // 2
    steps = 1 << log_s
    lanes = -(-n // steps)
    starts = np.array([s], dtype=np.uint64)
    j = log_s
    while len(starts) < lanes:
        ahead = _jump(starts[: lanes - len(starts)], _powers()[j])
        starts = np.concatenate([starts, ahead])
        j += 1
    state = tuple(starts.T.copy())
    last = n - (lanes - 1) * steps
    block = np.empty((steps, lanes), dtype=np.uint64)
    for k in range(steps):
        block[k] = state[1]
        state = _advance(*state)
        if k + 1 == last:
            end = tuple(int(w[-1]) for w in state)
    vals = (_scramble(block) >> 11) * _TO_DOUBLE
    out[:] = vals.T.ravel()[:n]
    return end


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

    def next_u64(self) -> int:
        result = _scramble(self._s[1])
        self._s = list(_advance(*self._s))
        return result

    def next_double(self) -> float:
        """Uniform double in [0, 1) with a full 53-bit mantissa."""
        return (self.next_u64() >> 11) * _TO_DOUBLE

    def doubles(self, count: int) -> np.ndarray:
        """Next ``count`` doubles as a 1-D array.  Same stream as next_double."""
        count = operator.index(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        out = np.empty(count, dtype=np.float64)
        s = tuple(self._s)
        for lo in range(0, count, _BLOCK):
            part = out[lo : lo + _BLOCK]
            s = (_fill_lanes if part.size >= _CROSSOVER else _fill_scalar)(s, part)
        self._s = list(s)
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
