"""Deterministic 64-bit generator for audit sampling.

This is the splitmix64 sequence: state advances by a fixed odd constant
and the output mixes the state with two xor-shift-multiply rounds.  It is
pinned here (rather than delegating to a library generator) so that audit
sample streams can be reproduced bit-for-bit from the seed alone, in any
language.  Doubles take the top 53 bits of the output.

The generator is counter-based: the k-th output depends only on
``seed + k * golden`` (mod 2**64), so a block of outputs is computed at once
with numpy uint64 arithmetic, bit for bit equal to the scalar stream.
"""

from __future__ import annotations

import numpy as np

from .algebra import _as_integer

__all__ = ["SplitMix64"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# The most uint64 values an array can hold; numpy's uint64 arange comes back
# empty, not failing, for some counts past it (2**63, for one).
_MAX_COUNT = np.iinfo(np.intp).max // 8


class SplitMix64:
    """Sequence of 64-bit words from a single 64-bit seed."""

    def __init__(self, seed: int):
        self._state = _as_integer("seed", seed, lambda n: 0 <= n <= _MASK, "in [0, 2**64)")

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_double(self) -> float:
        """Uniform double in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        """Uniform double in [low, high)."""
        return low + (high - low) * self.next_double()

    def uniforms(self, n: int, low: float, high: float) -> np.ndarray:
        """The next `n` values of :meth:`uniform` as a float64 array.

        Bit for bit equal to `n` successive ``uniform(low, high)`` calls,
        and leaves the generator in the same state as they would; on an
        error the state is untouched.
        """
        n = _as_integer("n", n, lambda k: 0 <= k <= _MAX_COUNT, f"in [0, {_MAX_COUNT}]")
        # uint64 array arithmetic wraps mod 2**64, as the scalar path masks.
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        t = np.empty_like(z)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            z *= np.uint64(mix)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
        z >>= np.uint64(11)
        u = z.astype(np.float64)
        u *= 2.0**-53
        # Bounds that are not finite give inf or NaN, quietly, as uniform's.
        with np.errstate(over="ignore", invalid="ignore"):
            u *= high - low
            u += low
        self._state = (self._state + n * _GOLDEN) & _MASK
        return u
