"""SplitMix64 pseudo-random generator.

A tiny, fully specified 64-bit generator (Steele, Lea and Vigna's splitmix64
finalizer) implemented here so that seeded runs are byte-identical across
platforms and Python versions. All randomized code in the package draws from
this class; `boxrep gen` records ALGORITHM in the comment line it writes.
A seed is any integer, taken mod 2^64; anything else raises InvalidParams.
`below` is one draw of `below_many`, which makes a run of them in one call,
with the same values and the same final state, so a caller may batch its
draws without changing the stream.
"""

import numpy as np

from .errors import as_index

ALGORITHM = "splitmix64"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# the two multipliers of the splitmix64 finalizer
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# draws from which one below_many run costs less as arrays than as a loop
_BATCH_FROM = 24


class SplitMix64:
    def __init__(self, seed: int):
        self._state = as_index(seed, "seed") & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n): one draw of `below_many`."""
        return self.below_many(n, 1)[0]

    def below_many(self, n: int, count: int) -> list[int]:
        """`count` uniform integers in [0, n), by rejection (no modulo bias):
        a raw draw at or above the largest multiple of n <= 2^64 is drawn
        again, so n may be at most 2^64. `next_u64` is inlined, and the
        generator ends in the state that `count` calls of `below(n)` leave.

        A run of at least _BATCH_FROM draws is first made as one uint64
        array, whose arithmetic wraps modulo 2^64 as the scalar code masks.
        When no raw draw of it is rejected, its values are the run and its
        last state the final state; otherwise the scalar loop draws the run
        from the same starting state."""
        if not 0 < n <= _MASK64 + 1:
            raise ValueError("n must be positive and at most 2**64")
        limit = _MASK64 + 1 - (_MASK64 + 1) % n
        if count >= _BATCH_FROM and n <= _MASK64:
            drawn = self._batch(n, count, limit)
            if drawn is not None:
                return drawn
        state, gamma, mask, mix1, mix2 = self._state, _GAMMA, _MASK64, _MIX1, _MIX2
        out = []
        for _ in range(count):
            while True:
                state = (state + gamma) & mask
                z = ((state ^ (state >> 30)) * mix1) & mask
                z = ((z ^ (z >> 27)) * mix2) & mask
                z ^= z >> 31
                if z < limit:
                    break
            out.append(z % n)
        self._state = state
        return out

    def _batch(self, n: int, count: int, limit: int) -> list[int] | None:
        """The next `count` draws below n made as arrays, or None, with the
        state untouched, when one of them would be rejected."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _GAMMA
        z += self._state
        z ^= z >> 30
        z *= _MIX1
        z ^= z >> 27
        z *= _MIX2
        z ^= z >> 31
        if limit <= _MASK64 and np.count_nonzero(z >= limit):
            return None
        self._state = (self._state + count * _GAMMA) & _MASK64
        return (z % n).tolist()

    def sample(self, population: int, k: int) -> list[int]:
        """k distinct integers from range(population), via partial Fisher-Yates.

        Only touched positions are stored, so a call costs O(k); the result is
        sorted so callers iterate deterministically.
        """
        if k > population:
            raise ValueError("sample larger than population")
        moved: dict[int, int] = {}
        for i in range(k):
            j = i + self.below(population - i)
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        return sorted(moved.get(i, i) for i in range(k))
