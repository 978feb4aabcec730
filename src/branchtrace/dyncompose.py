"""A toy keyed digest driven by state-selected round functions.

Two simple ARX rounds, f and g, are composed per absorbed block: before
each of the 16 rounds the least-significant bit of w0 picks which one
runs next, and the choice is appended to a branch trace (L for f, R for
g). The trace is returned alongside the digest; :func:`replay` forces
the same schedule and reproduces the digest bit-exactly, so the trace
is a complete description of the composed function for that input.

WARNING: this is a demonstration object for studying input-dependent
composition. It is NOT a cryptographic primitive, has had no
cryptanalysis, and must not be used to protect anything.
"""

from __future__ import annotations

import struct

from .errors import BlockLengthError, DomainError, KeyLengthError, require_int

KEY_LEN = 32
BLOCK_LEN = 32
DIGEST_LEN = 32
ROUNDS_PER_BLOCK = 16

G_CONSTANT = 0xA5A5A5A5A5A5A5A5

_MASK = (1 << 64) - 1
# A block, and the digest, as four little-endian 64-bit words.
_WORDS = struct.Struct("<4Q")


class CompositionState:
    """Four 64-bit words plus the branch trace accumulated so far."""

    __slots__ = ("w0", "w1", "w2", "w3", "trace", "absorbed_bytes")

    def __init__(self, w0: int, w1: int, w2: int, w3: int):
        self.w0 = w0
        self.w1 = w1
        self.w2 = w2
        self.w3 = w3
        self.trace: list[str] = []
        self.absorbed_bytes = 0

    def words(self) -> tuple[int, int, int, int]:
        return (self.w0, self.w1, self.w2, self.w3)


def init(key: bytes) -> CompositionState:
    """State from a 32-byte key: w0..w3 little-endian, empty trace."""
    if not isinstance(key, (bytes, bytearray)):
        raise KeyLengthError(f"key must be bytes, got {type(key).__name__}")
    if len(key) != KEY_LEN:
        raise KeyLengthError(f"key must be exactly {KEY_LEN} bytes, got {len(key)}")
    words = [int.from_bytes(key[i : i + 8], "little") for i in range(0, 32, 8)]
    return CompositionState(*words)


def _drive(words, blocks, forced=None):
    """Run 16 rounds per block from ``words``; the one round driver.

    Each block is four little-endian words XORed into the state before
    its rounds. With ``forced`` None, lsb(w0) selects each round: f (L)
    when it is 0, g (R) when it is 1. Otherwise ``forced`` is an already
    validated L/R sequence consumed in order. Each round's updates are
    sequential; each line sees the ones above it. Returns the final
    words and the symbols run.
    """
    w0, w1, w2, w3 = words
    mask, constant = _MASK, G_CONSTANT
    picks = None if forced is None else iter(forced)
    schedule = bytearray()
    emit = schedule.append
    for b0, b1, b2, b3 in blocks:
        w0 ^= b0
        w1 ^= b1
        w2 ^= b2
        w3 ^= b3
        for _ in range(ROUNDS_PER_BLOCK):
            if w0 & 1 if picks is None else next(picks) == "R":
                emit(82)  # R: round g
                w0 ^= constant
                w1 = (w1 + w3) & mask
                x = w2 ^ w1
                w2 = ((x << 7) & mask) | (x >> 57)
                x = (w3 + w0) & mask
                w3 = ((x << 41) & mask) | (x >> 23)
            else:
                emit(76)  # L: round f
                w0 = (w0 + w1) & mask
                x = w3 ^ w0
                w3 = ((x << 13) & mask) | (x >> 51)
                w2 = (w2 + w3) & mask
                x = w1 ^ w2
                w1 = ((x << 29) & mask) | (x >> 35)
    return (w0, w1, w2, w3), schedule.decode("ascii")


def _bytes(data, name: str) -> bytes:
    """``data`` as bytes; anything but bytes, a bytearray or a memoryview is refused."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise DomainError(f"{name} must be bytes, got {type(data).__name__}")
    return bytes(data)


def absorb(state: CompositionState, block: bytes) -> CompositionState:
    """XOR a 32-byte block into the words, then run 16 selected rounds."""
    block = _bytes(block, "block")
    if len(block) != BLOCK_LEN:
        raise BlockLengthError(
            f"block must be exactly {BLOCK_LEN} bytes, got {len(block)}"
        )
    words, schedule = _drive(state.words(), [_WORDS.unpack(block)])
    state.w0, state.w1, state.w2, state.w3 = words
    state.trace.extend(schedule)
    state.absorbed_bytes += BLOCK_LEN
    return state


def _padded(message: bytes) -> bytes:
    """The message with 0x80-terminated padding plus a final length block.

    The length block is 16 zero bytes followed by the original message
    bit length as a little-endian 128-bit integer.
    """
    message = _bytes(message, "message")
    padded = message + b"\x80"
    padded += b"\x00" * (-len(padded) % BLOCK_LEN)
    return padded + b"\x00" * 16 + (8 * len(message)).to_bytes(16, "little")


def trace_length(message_len: int) -> int:
    """Rounds a digest of a message_len-byte message executes.

    Depends only on the length; the trace CONTENT depends on the data.
    """
    require_int(message_len, "message length", 0)
    blocks = (message_len + 1 + BLOCK_LEN - 1) // BLOCK_LEN + 1
    return ROUNDS_PER_BLOCK * blocks


def digest(key: bytes, message: bytes) -> tuple[bytes, str]:
    """32-byte keyed digest of the message plus its full branch trace."""
    state = init(key)
    words, schedule = _drive(state.words(), _WORDS.iter_unpack(_padded(message)))
    return _WORDS.pack(*words), schedule


def replay(key: bytes, message: bytes, trace: str) -> bytes:
    """Digest again with the f/g schedule forced from ``trace``.

    No selection bits are consulted; the trace alone dictates the
    composition. Fed the trace that :func:`digest` returned for the
    same (key, message), this reproduces its digest bit-exactly.
    """
    padded = _padded(message)
    rounds = ROUNDS_PER_BLOCK * (len(padded) // BLOCK_LEN)
    if len(trace) != rounds:
        raise DomainError(
            f"trace length {len(trace)} does not match {rounds} scheduled rounds"
        )
    state = init(key)
    if not {"L", "R"}.issuperset(trace):
        bad = next(sym for sym in trace if sym != "L" and sym != "R")
        raise DomainError(f"invalid branch symbol {bad!r}")
    words, _ = _drive(state.words(), _WORDS.iter_unpack(padded), trace)
    return _WORDS.pack(*words)
