"""Seedable xorshift64* generator with pure integer state.

Sampling must be reproducible bit-for-bit from a seed, across runs and across
platforms, so the generator is pinned down by its algorithm rather than
delegated to library defaults that may change between versions.  State
transitions use only 64-bit integer shifts and xors; floats appear only in the
final output scaling, which is an exact dyadic operation.

Algorithm, per step:

    x ^= x >> 12
    x ^= (x << 25) mod 2^64
    x ^= x >> 27
    output = (x * 0x2545F4914F6CDD1D mod 2^64) >> 11

The 53 output bits are scaled by 2^-53 to a double in [0, 1).  Seeds pass
through one round of splitmix64 so that small consecutive seeds give
decorrelated streams; a zero post-mix state falls back to the golden-ratio
constant because the all-zero state is a fixed point of xorshift.

Batches (`uniforms`) use jump-ahead and give the same stream as repeated
`uniform` calls, bit for bit.  The state step is linear over GF(2), so C
steps are one 64x64 bit matrix M^C.  A batch is cut into lanes of C = 128
draws; each lane's start state is M^C applied to the previous lane's, done
with eight 256-entry tables (one per state byte) built on first use.  All
lanes then advance together with the plain step in numpy uint64, writing
column j of an (lanes, C) view of the output at step j.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import InvalidParameterError

_MASK = (1 << 64) - 1
_STAR = 0x2545F4914F6CDD1D
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0**-53
_CHUNK = 128  # lane length C of `uniforms`


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _step(x: int) -> int:
    x ^= x >> 12
    x = (x ^ (x << 25)) & _MASK
    return x ^ (x >> 27)


@cache
def _jump_tables() -> tuple[tuple[int, ...], ...]:
    """Byte tables of M^C: M^C x is the xor of tables[j][byte j of x]."""
    cols = []
    for bit in range(64):
        x = 1 << bit
        for _ in range(_CHUNK):
            x = _step(x)
        cols.append(x)
    tables = []
    for j in range(8):
        t = [0] * 256
        for b in range(1, 256):
            low = b & -b
            t[b] = t[b ^ low] ^ cols[8 * j + low.bit_length() - 1]
        tables.append(tuple(t))
    return tuple(tables)


class Xorshift64Star:
    """Deterministic 64-bit shift-register generator."""

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise InvalidParameterError("seed must be an integer")
        self.seed = int(seed)
        self._state = _splitmix64(int(seed) & _MASK)
        if self._state == 0:
            self._state = _GOLDEN

    def next_u64(self) -> int:
        """Advance one step, return 64 scrambled bits."""
        self._state = _step(self._state)
        return (self._state * _STAR) & _MASK

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _INV_2_53

    def uniforms(self, count: int) -> np.ndarray:
        """Next `count` doubles in [0, 1) as a float64 array."""
        if count <= 0:
            return np.empty(count, dtype=np.float64)
        lanes = -(-count // _CHUNK)
        steps = min(count, _CHUNK)
        last = count - (lanes - 1) * _CHUNK  # steps taken by the last lane
        t0, t1, t2, t3, t4, t5, t6, t7 = _jump_tables()
        starts = [self._state]
        for _ in range(lanes - 1):
            s = starts[-1]
            starts.append(
                t0[s & 255] ^ t1[s >> 8 & 255] ^ t2[s >> 16 & 255] ^ t3[s >> 24 & 255]
                ^ t4[s >> 32 & 255] ^ t5[s >> 40 & 255] ^ t6[s >> 48 & 255] ^ t7[s >> 56]
            )
        x = np.array(starts, dtype=np.uint64)
        tmp = np.empty_like(x)
        buf = np.empty(lanes * steps, dtype=np.float64)
        view = buf.reshape(lanes, steps)
        for j in range(steps):
            x ^= np.right_shift(x, 12, out=tmp)
            x ^= np.left_shift(x, 25, out=tmp)
            x ^= np.right_shift(x, 27, out=tmp)
            np.multiply(x, _STAR, out=tmp)
            np.multiply(np.right_shift(tmp, 11, out=tmp), _INV_2_53, out=view[:, j])
            if j == last - 1:
                self._state = int(x[-1])
        return buf[:count]
