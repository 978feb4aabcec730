"""Deterministic 64-bit xorshift-multiply generator.

All pseudorandomness in this package flows through this one generator so
that every seeded result is bit-reproducible across platforms and runs.

The recurrence is the xorshift64* construction:

    state ^= state >> 12
    state ^= (state << 25) mod 2**64
    state ^= state >> 27
    output = (state * 0x2545F4914F6CDD1D) mod 2**64

A seed of 0 (a fixed point of the xorshift step) is replaced by the
constant 0x9E3779B97F4A7C15. Derived streams are defined as:

* single bits: the top bit (bit 63) of each successive output word;
* bit blocks: each output word contributes its 64 bits most-significant
  first;
* bytes: each output word contributes its 8 bytes little-endian;
* integers below a bound: rejection sampling on output words, so the
  distribution is exactly uniform.
"""

from __future__ import annotations

import numpy as np

from .errors import require_int

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15


class XorShift64Star:
    """Stateful generator; one instance per reproducible stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        require_int(seed, "seed")  # any int: it is masked to 64 bits
        state = seed & _MASK64
        self.state = state if state != 0 else _ZERO_SEED_REPLACEMENT

    def next_word(self) -> int:
        """Advance the state and return the next 64-bit output."""
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _MULTIPLIER) & _MASK64

    def next_bit(self) -> int:
        """Top bit of the next output word."""
        return self.next_word() >> 63

    def bits(self, count: int) -> np.ndarray:
        """`count` bits as a uint8 array, 64 per word, MSB first."""
        require_int(count, "bit count", 0)
        words = (count + 63) // 64
        buf = b"".join(
            self.next_word().to_bytes(8, "big") for _ in range(words)
        )
        out = np.unpackbits(np.frombuffer(buf, dtype=np.uint8))
        return out[:count]

    def bytes(self, count: int) -> bytes:
        """`count` bytes, 8 per word, little-endian within each word."""
        require_int(count, "byte count", 0)
        words = (count + 7) // 8
        buf = b"".join(
            self.next_word().to_bytes(8, "little") for _ in range(words)
        )
        return buf[:count]

    def below(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound), by rejection."""
        require_int(bound, "bound", 1)
        limit = ((1 << 64) // bound) * bound
        while True:
            w = self.next_word()
            if w < limit:
                return w % bound
