"""Deterministic 64-bit PRNG (splitmix64).

All randomized commands and test suites draw from this generator so a run is
reproducible bit-for-bit from (config, seed) on any platform.  The stream is
the standard splitmix64 sequence: a Weyl increment of the golden-gamma
constant followed by two xor-shift multiplies.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """PRNG with 64 bits of state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection on 64-bit words."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = max(bound.bit_length(), 1)
        words = (bits + 63) // 64
        span = 1 << (64 * words)
        limit = span - span % bound
        while True:
            r = 0
            for _ in range(words):
                r = (r << 64) | self.next_u64()
            if r < limit:
                return r % bound

    def randrange(self, lo: int, hi: int) -> int:
        return lo + self.randbelow(hi - lo)
