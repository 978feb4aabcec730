"""A toy keyed digest driven by state-selected round functions.

The state is four 64-bit words, w0..w3, which :func:`init` reads from
the key. Each 32-byte block of the padded message is XORed into them,
and two simple ARX rounds, f and g, are composed 16 times: before each
round the least-significant bit of w0 picks which one runs next, and
the choice is appended to a branch trace (L for f, R for g). The trace
is returned alongside the digest; :func:`replay` forces the same
schedule and reproduces the digest bit-exactly, so the trace is a
complete description of the composed function for that input. Both run
every round through one driver, which reads the message's whole blocks
in place and builds only the padded tail.

WARNING: this is a demonstration object for studying input-dependent
composition. It is NOT a cryptographic primitive, has had no
cryptanalysis, and must not be used to protect anything.
"""

from __future__ import annotations

import itertools
import struct

from .errors import DomainError, KeyLengthError, require_int

KEY_LEN = 32
BLOCK_LEN = 32
DIGEST_LEN = 32
ROUNDS_PER_BLOCK = 16

G_CONSTANT = 0xA5A5A5A5A5A5A5A5

_MASK = (1 << 64) - 1
# A block, and the digest, as four little-endian 64-bit words.
_WORDS = struct.Struct("<4Q")


def init(key: bytes) -> tuple[int, int, int, int]:
    """The four state words from a 32-byte key, little-endian: the words
    :func:`_drive` starts from."""
    key = _bytes(key, "key", KeyLengthError)
    if len(key) != KEY_LEN:
        raise KeyLengthError(f"key must be exactly {KEY_LEN} bytes, got {len(key)}")
    return _WORDS.unpack(key)


def _drive(words, blocks, forced=None):
    """Run 16 rounds per block from ``words``; the one round driver.

    Each block is four little-endian words XORed into the state before
    its rounds. With ``forced`` None, lsb(w0) selects each round: f (L)
    when it is 0, g (R) when it is 1. Otherwise ``forced`` is an already
    validated L/R sequence consumed in order. Each round's updates are
    sequential; each line sees the ones above it. Returns the final
    words and the symbols run, as ASCII in a bytearray.
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
    return (w0, w1, w2, w3), schedule


def _bytes(data, name: str, error: type[DomainError] = DomainError) -> bytes:
    """``data`` as bytes; anything but bytes, a bytearray or a memoryview is
    refused with ``error``."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise error(f"{name} must be bytes, got {type(data).__name__}")
    return bytes(data)


def _blocks(message: bytes):
    """The message's blocks as word tuples: its whole blocks, unpacked in
    place, then one built tail. The tail is the last partial block, 0x80,
    zeros to a block edge, and a length block of 16 zero bytes and the
    message bit length as a little-endian 128-bit integer. ``message`` is
    the checked bytes; :func:`trace_length` counts the rounds they take.
    """
    whole = len(message) - len(message) % BLOCK_LEN
    tail = message[whole:] + b"\x80"
    tail += bytes(-len(tail) % BLOCK_LEN + 16) + (8 * len(message)).to_bytes(16, "little")
    return itertools.chain(_WORDS.iter_unpack(memoryview(message)[:whole]),
                           _WORDS.iter_unpack(tail))


def trace_length(message_len: int) -> int:
    """Rounds a digest of a message_len-byte message executes.

    Depends only on the length; the trace CONTENT depends on the data.
    """
    require_int(message_len, "message length", 0)
    blocks = (message_len + 1 + BLOCK_LEN - 1) // BLOCK_LEN + 1
    return ROUNDS_PER_BLOCK * blocks


def digest(key: bytes, message: bytes) -> tuple[bytes, str]:
    """32-byte keyed digest of the message plus its full branch trace."""
    words, schedule = _drive(init(key), _blocks(_bytes(message, "message")))
    return _WORDS.pack(*words), schedule.decode("ascii")


def replay(key: bytes, message: bytes, trace: str) -> bytes:
    """Digest again with the f/g schedule forced from ``trace``.

    No selection bits are consulted; the trace alone dictates the
    composition. Fed the trace that :func:`digest` returned for the
    same (key, message), this reproduces its digest bit-exactly.
    """
    message = _bytes(message, "message")
    rounds = trace_length(len(message))
    if len(trace) != rounds:
        raise DomainError(
            f"trace length {len(trace)} does not match {rounds} scheduled rounds"
        )
    words = init(key)
    if not {"L", "R"}.issuperset(trace):
        bad = next(sym for sym in trace if sym != "L" and sym != "R")
        raise DomainError(f"invalid branch symbol {bad!r}")
    words, _ = _drive(words, _blocks(message), trace)
    return _WORDS.pack(*words)
