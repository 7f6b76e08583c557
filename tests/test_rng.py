"""Bit-level checks of the xorshift64* generator against an independent
reimplementation, plus determinism and range properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from laplab.errors import InvalidParameterError
from laplab.rng import Xorshift64Star

M64 = (1 << 64) - 1


def _oracle_seed(seed):
    # splitmix64 of the raw seed, written independently of the library
    z = (seed + 0x9E3779B97F4A7C15) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    z = z ^ (z >> 31)
    return z if z != 0 else 0x9E3779B97F4A7C15


def _oracle_stream(seed, count):
    return _oracle_steps(_oracle_seed(seed), count)[0]


def _oracle_steps(x, count):
    """`count` outputs (top 53 bits) from state x, and the state after them."""
    out = []
    for _ in range(count):
        x ^= x >> 12
        x = (x ^ (x << 25)) & M64
        x ^= x >> 27
        out.append(((x * 0x2545F4914F6CDD1D) & M64) >> 11)
    return out, x


def _as_uniforms(bits):
    return np.array(bits, dtype=np.float64) * 2.0**-53


# lane length of the jump-ahead in Xorshift64Star.uniforms
C = 16


def test_matches_independent_reimplementation():
    for seed in (0, 1, 42, 2**64 - 1, 0x123456789ABCDEF):
        gen = Xorshift64Star(seed)
        got = [gen.next_u64() >> 11 for _ in range(64)]
        # library next_u64 returns the full 64-bit product; compare top 53
        gen2 = Xorshift64Star(seed)
        got_full = [gen2.next_u64() for _ in range(64)]
        want = _oracle_stream(seed, 64)
        assert got == want
        for g, w in zip(got_full, want):
            assert g >> 11 == w


def test_uniform_is_top53_bits_scaled():
    gen_a = Xorshift64Star(7)
    gen_b = Xorshift64Star(7)
    for _ in range(200):
        u = gen_a.uniform()
        bits = gen_b.next_u64() >> 11
        assert u == bits * 2.0**-53


def test_uniforms_batch_equals_repeated_scalar():
    gen_a = Xorshift64Star(99)
    gen_b = Xorshift64Star(99)
    batch = gen_a.uniforms(1000)
    singles = np.array([gen_b.uniform() for _ in range(1000)])
    assert np.array_equal(batch, singles)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, C - 1, C, C + 1, 127, 128, 129, 3 * 1024, 192_000])
def test_uniforms_stream_and_state_match_oracle(seed, count):
    # 192,000 draws is sample_points' first batch at n = 64,000
    gen = Xorshift64Star(seed)
    got = gen.uniforms(count)
    bits, state = _oracle_steps(_oracle_seed(seed), count)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert np.array_equal(got, _as_uniforms(bits))
    assert gen._state == state
    assert [gen.next_u64() >> 11] == _oracle_steps(state, 1)[0]


def test_uniforms_interleaved_with_next_u64():
    gen = Xorshift64Star(2**64 - 1)
    x = _oracle_seed(2**64 - 1)
    for count in (5, 128, 1, 391, 0, 127, 1000, C, 3 * C + 7, C - 1, C + 1):
        bit, x = _oracle_steps(x, 1)
        assert [gen.next_u64() >> 11] == bit
        bits, x = _oracle_steps(x, count)
        assert np.array_equal(gen.uniforms(count), _as_uniforms(bits))
        assert gen._state == x


# 2^k - 1, 2^k and 2^k + 1 lanes for k up to 12: the start states are filled
# in doubling rounds, and these counts end a round early, on time or late
_LANES = sorted({2**k + d for k in range(13) for d in (-1, 0, 1)} - {0})


@pytest.mark.parametrize("lanes", _LANES)
def test_uniforms_at_lane_counts_match_oracle(lanes):
    gen = Xorshift64Star(lanes)
    x = _oracle_seed(lanes)
    for count in (lanes * C, lanes * C - 5):  # full last lane, then a partial one
        bits, x = _oracle_steps(x, count)
        assert np.array_equal(gen.uniforms(count), _as_uniforms(bits))
        assert gen._state == x
        bit, x = _oracle_steps(x, 1)
        assert [gen.next_u64() >> 11] == bit


def test_jump_tables_are_powers_of_the_step_matrix():
    from laplab.rng import _jump

    for level in range(4):
        # column b of M^(C 2^level): the unit vector 1 << b stepped that often
        cols = [_oracle_steps(1 << b, C * 2**level)[1] for b in range(64)]
        tables = _jump(level)
        assert tables.shape == (8, 256) and tables.dtype == np.uint64
        for j in range(8):
            for byte in range(256):
                want = 0
                for b in range(8):
                    if byte >> b & 1:
                        want ^= cols[8 * j + b]
                assert int(tables[j, byte]) == want


def _apply_by_shifts(tables, x):
    """The byte-table product as first written: byte j of each state taken
    with a shift and a mask."""
    y = tables[0][x & 255]
    for j in range(1, 8):
        y ^= tables[j][x >> 8 * j & 255]
    return y


def test_apply_byte_view_equals_shift_and_mask():
    from laplab.rng import _apply, _jump

    gen = np.random.default_rng(3)
    x = np.concatenate([np.array([0, 1, 2**64 - 1], dtype=np.uint64),
                        gen.integers(0, 2**64, 10_000, dtype=np.uint64, endpoint=False)])
    for tables in (_jump(0), _jump(3),
                   gen.integers(0, 2**64, (8, 256), dtype=np.uint64, endpoint=False)):
        got = _apply(tables, x)
        assert got.dtype == np.uint64
        assert np.array_equal(got, _apply_by_shifts(tables, x))
        assert np.array_equal(_apply(tables, x[5:37]), _apply_by_shifts(tables, x[5:37]))


def test_uniforms_zero_leaves_state_unchanged():
    gen = Xorshift64Star(42)
    gen.uniforms(3)
    before = gen._state
    out = gen.uniforms(0)
    assert out.shape == (0,) and out.dtype == np.float64
    assert gen._state == before


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 389))
def test_uniforms_match_oracle_property(seed, count):
    gen = Xorshift64Star(seed)
    bits, state = _oracle_steps(_oracle_seed(seed), count)
    assert np.array_equal(gen.uniforms(count), _as_uniforms(bits))
    assert gen._state == state


def test_zero_seed_does_not_stall():
    gen = Xorshift64Star(0)
    vals = gen.uniforms(100)
    assert len(set(vals.tolist())) > 90


@pytest.mark.parametrize("seed", [0x61C8864680B583EB, -0x9E3779B97F4A7C15])
def test_seed_whose_splitmix_value_is_zero_starts_at_golden(seed):
    # 2^64 - golden is the one masked seed that splitmix64 sends to 0, the
    # fixed point of the shift register; the state starts at golden instead
    gen = Xorshift64Star(seed)
    assert gen._state == 0x9E3779B97F4A7C15 == _oracle_seed(seed)
    scalar = Xorshift64Star(seed)
    assert np.array_equal(gen.uniforms(40), [scalar.uniform() for _ in range(40)])


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_range_and_determinism(seed):
    a = Xorshift64Star(seed).uniforms(32)
    b = Xorshift64Star(seed).uniforms(32)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(a < 1.0)


def test_seed_type_checked():
    with pytest.raises(InvalidParameterError):
        Xorshift64Star(1.5)
    with pytest.raises(InvalidParameterError):
        Xorshift64Star("7")


def test_mean_and_spread():
    vals = Xorshift64Star(1234).uniforms(100_000)
    assert abs(vals.mean() - 0.5) < 0.005
    assert abs(vals.var() - 1 / 12) < 0.002
