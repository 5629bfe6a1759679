import warnings

import numpy as np
import pytest

from gyrostat.rng import SplitMix64

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


@pytest.mark.parametrize("seed", [0, 42, 1 << 63, MASK])
@pytest.mark.parametrize("n", [0, 1, 7, 1024, 3001])
def test_block_draw_is_the_scalar_stream(seed, n):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    got = block.uniforms(n, -5.0, 5.0)
    want = [scalar.uniform(-5.0, 5.0) for _ in range(n)]
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tolist() == want  # bit for bit: == on doubles, no tolerance
    # Same state afterwards: the two streams go on identically.
    assert [block.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]


def test_block_draws_chain_and_honour_the_bounds():
    block, scalar = SplitMix64(2024), SplitMix64(2024)
    got = np.concatenate([block.uniforms(n, 0.25, 3.5) for n in (5, 0, 11)])
    assert got.tolist() == [scalar.uniform(0.25, 3.5) for _ in range(16)]
    assert np.all((got >= 0.25) & (got < 3.5))


def test_counter_wraps_at_64_bits():
    # From the top seed the first state is seed + golden mod 2**64.
    rng = SplitMix64(MASK)
    rng.uniforms(1, 0.0, 1.0)
    assert rng.next_u64() == SplitMix64((MASK + GOLDEN) & MASK).next_u64()


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        SplitMix64(1).uniforms(-1, 0.0, 1.0)


@pytest.mark.parametrize("seed", [5.7, 5.0, "5", True, None, -1, 1 << 64])
def test_seed_must_be_a_64_bit_integer(seed):
    # 5.7 used to seed 5, and "5" was accepted.
    with pytest.raises(ValueError, match="seed must be"):
        SplitMix64(seed)


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), np.uint64(MASK)])
def test_numpy_integer_seed_is_its_value(seed):
    assert SplitMix64(seed).next_u64() == SplitMix64(int(seed)).next_u64()


@pytest.mark.parametrize("n", [np.int64(3), np.uint64(3), np.int8(3)])
def test_numpy_integer_count_is_its_value(n):
    block, plain = SplitMix64(9), SplitMix64(9)
    assert block.uniforms(n, 0.0, 1.0).tolist() == plain.uniforms(3, 0.0, 1.0).tolist()
    assert block.next_u64() == plain.next_u64()


@pytest.mark.parametrize("n", [2.0, 2.5, "2", True, None, -1, 1 << 63, 1 << 64])
def test_count_must_be_a_non_negative_integer(n):
    # np.int64(3) used to overflow in `n * golden`, 2.0 failed in `&`, True
    # drew one value, and 2**63 returned no values and moved the state.
    rng = SplitMix64(9)
    with pytest.raises(ValueError, match="n must be"):
        rng.uniforms(n, 0.0, 1.0)
    assert rng.next_u64() == SplitMix64(9).next_u64()  # state untouched


@pytest.mark.parametrize(
    "low, high",
    [(-np.inf, 1.0), (0.0, np.inf), (np.inf, np.inf), (np.nan, 1.0), (-1e308, 1e308)],
)
@pytest.mark.parametrize("n", [4, 1500])
def test_bounds_that_are_not_finite_draw_quietly(low, high, n):
    # The block's arithmetic used to warn "invalid value encountered in add"
    # where the scalar draw returns NaN without a word.
    block, scalar = SplitMix64(1), SplitMix64(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block.uniforms(n, low, high)
        want = [scalar.uniform(low, high) for _ in range(n)]
    assert np.array_equal(got, want, equal_nan=True)
    assert block.next_u64() == scalar.next_u64()
