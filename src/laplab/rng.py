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
`uniform` calls, bit for bit.  The state step is linear over GF(2), so k
steps are one 64x64 bit matrix M^k, applied to a state as the xor of eight
256-entry tables looked up by the state's bytes, read through a uint8
view.  A batch is cut into lanes of C = 16 draws.  Lane start states are
filled by doubling: with M^(C h) the tables of level log2(h), lanes [h, 2h)
are the images of lanes [0, h), for all lanes at once in numpy.  Level 0
comes from plain stepping of the unit vectors and level k + 1 from applying
level k twice to them; each level is built on first use.  All lanes then
advance together with the plain step in numpy uint64, writing column j of a
(lanes, C) view of the output at step j.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import InvalidParameterError

_MASK = (1 << 64) - 1
_STAR = 0x2545F4914F6CDD1D
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0**-53
_CHUNK = 16  # lane length C of `uniforms`


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _step(x: int) -> int:
    x ^= x >> 12
    x = (x ^ (x << 25)) & _MASK
    return x ^ (x >> 27)


def _byte_tables(cols: np.ndarray) -> np.ndarray:
    """(8, 256) tables of the bit matrix whose column b is cols[b]: the matrix
    maps x to the xor of tables[j][byte j of x]."""
    cols = cols.reshape(8, 8)
    tables = np.zeros((8, 1), dtype=np.uint64)
    for bit in range(8):
        tables = np.concatenate([tables, tables ^ cols[:, bit:bit + 1]], axis=1)
    return tables


def _apply(tables: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The bit matrix of `tables` applied to every state in x.

    Column j of a little-endian byte view of x is byte j of every state, so
    each table is one 1-D gather with no shift or mask; xor order does not
    change bits, and the explicit '<u8' keeps big-endian hosts on the same
    stream.
    """
    b = x.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    y = tables[0][b[:, 0]]
    for j in range(1, 8):
        y ^= tables[j][b[:, j]]
    return y


@cache
def _jump(level: int) -> np.ndarray:
    """Byte tables of M^(C 2^level), M the one-step matrix and C = _CHUNK."""
    if level == 0:
        cols = [1 << bit for bit in range(64)]
        for _ in range(_CHUNK):
            cols = [_step(x) for x in cols]
        return _byte_tables(np.array(cols, dtype=np.uint64))
    half = _jump(level - 1)
    units = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    return _byte_tables(_apply(half, _apply(half, units)))


class Xorshift64Star:
    """Deterministic 64-bit shift-register generator."""

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise InvalidParameterError("seed must be an integer")
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
        x = np.empty(lanes, dtype=np.uint64)
        x[0] = self._state
        h, level = 1, 0
        while h < lanes:  # lanes [h, 2h) start C h steps after lanes [0, h)
            k = min(h, lanes - h)
            x[h:h + k] = _apply(_jump(level), x[:k])
            h, level = 2 * h, level + 1
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
