import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchtrace import dyncompose as dc
from branchtrace.errors import BlockLengthError, DomainError, KeyLengthError

import oracles

keys = st.binary(min_size=32, max_size=32)
messages = st.binary(min_size=0, max_size=200)


# ------------------------------------------------------------------ init


def test_init_little_endian_layout():
    state = dc.init(bytes(range(32)))
    assert state.w0 == 0x0706050403020100
    assert state.w1 == 0x0F0E0D0C0B0A0908
    assert state.w2 == 0x1716151413121110
    assert state.w3 == 0x1F1E1D1C1B1A1918
    assert state.trace == []
    assert state.absorbed_bytes == 0


def test_init_zero_key():
    assert dc.init(bytes(32)).words() == (0, 0, 0, 0)


def test_init_is_deterministic():
    key = bytes(range(32))
    assert dc.init(key).words() == dc.init(key).words()


@pytest.mark.parametrize("bad", [b"", bytes(31), bytes(33), "0" * 32])
def test_init_rejects_bad_keys(bad):
    with pytest.raises(KeyLengthError):
        dc.init(bad)


# ---------------------------------------------------------------- absorb


def test_absorb_trace_grows_by_rounds_per_block():
    state = dc.init(bytes(32))
    dc.absorb(state, bytes(range(32)))
    dc.absorb(state, bytes(range(32)))
    assert len(state.trace) == 2 * dc.ROUNDS_PER_BLOCK


def test_absorb_distinguishes_blocks():
    a = dc.absorb(dc.init(bytes(32)), b"\x01" + bytes(31))
    b = dc.absorb(dc.init(bytes(32)), b"\x02" + bytes(31))
    assert a.words() != b.words()


@pytest.mark.parametrize("bad", [b"", bytes(31), bytes(33)])
def test_absorb_rejects_bad_blocks(bad):
    with pytest.raises(BlockLengthError):
        dc.absorb(dc.init(bytes(32)), bad)


# ---------------------------------------------------------------- digest


def test_digest_deterministic():
    key = bytes(range(32))
    msg = b"branch traces all the way down"
    assert dc.digest(key, msg) == dc.digest(key, msg)


def test_digest_empty_message_golden(golden_dir):
    expected = (golden_dir / "digest_empty_zero_key.txt").read_text().split()
    value, trace = dc.digest(bytes(32), b"")
    assert value.hex() == expected[0]
    assert trace == expected[1]


def test_digest_shape():
    value, trace = dc.digest(bytes(32), b"abc")
    assert len(value) == dc.DIGEST_LEN
    assert set(trace) <= {"L", "R"}


@pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 64, 100])
def test_trace_length_depends_only_on_message_length(length):
    _, trace = dc.digest(bytes(32), bytes(length))
    assert len(trace) == dc.trace_length(length)
    _, other = dc.digest(bytes(range(32)), b"\xaa" * length)
    assert len(other) == len(trace)


def test_single_bit_flip_changes_digest():
    key = bytes(range(32))
    a, _ = dc.digest(key, bytes(32))
    b, _ = dc.digest(key, b"\x80" + bytes(31))
    assert a != b


def test_message_padding_is_unambiguous():
    key = bytes(32)
    # A message equal to another's padding must not collide.
    a, _ = dc.digest(key, b"\x01")
    b, _ = dc.digest(key, b"\x01\x80")
    assert a != b


@given(keys, messages)
def test_digest_trace_length_formula(key, message):
    value, trace = dc.digest(key, message)
    assert len(value) == 32
    assert len(trace) == dc.trace_length(len(message))


# ---------------------------------------------------------------- replay


def test_replay_reproduces_golden_digest():
    value, trace = dc.digest(bytes(32), b"")
    assert dc.replay(bytes(32), b"", trace) == value


@given(keys, messages)
@settings(max_examples=60)
def test_replay_reproduces_any_digest(key, message):
    value, trace = dc.digest(key, message)
    assert dc.replay(key, message, trace) == value


def test_replay_rejects_wrong_length_trace():
    with pytest.raises(DomainError):
        dc.replay(bytes(32), b"", "LR")


def test_replay_rejects_bad_symbols():
    # A 100-byte message spans five blocks (80 rounds). Each case keeps
    # the error class and message of the per-round replay loop, which
    # stopped at the first bad symbol in schedule order.
    key, message = bytes(range(32)), bytes(range(100))
    value, trace = dc.digest(key, message)
    assert len(trace) == 80
    cases = [
        (trace + "L", "trace length 81 does not match 80 scheduled rounds"),
        (trace[:-1], "trace length 79 does not match 80 scheduled rounds"),
        ("X" + trace[1:], "invalid branch symbol 'X'"),
        (trace[:40] + "X" + trace[41:], "invalid branch symbol 'X'"),
        (trace[:-1] + "X", "invalid branch symbol 'X'"),
        (trace[:7] + "l" + trace[8:], "invalid branch symbol 'l'"),
        (trace[:3] + "Y" + trace[4:-1] + "X", "invalid branch symbol 'Y'"),
        (list(trace[:-1]) + [None], "invalid branch symbol None"),
    ]
    for bad, message_text in cases:
        with pytest.raises(DomainError) as err:
            dc.replay(key, message, bad)
        assert str(err.value) == message_text
    # A list of symbols is accepted and forces the same schedule.
    assert dc.replay(key, message, list(trace)) == value


def test_messages_and_blocks_must_be_bytes():
    # An iterable of ints is not a message, nor is a str or an int.
    key = bytes(32)
    for call in (lambda: dc.digest(key, [1, 2]), lambda: dc.digest(key, "abc"),
                 lambda: dc.digest(key, 5), lambda: dc.replay(key, 5, ""),
                 lambda: dc.absorb(dc.init(key), list(range(32))),
                 lambda: dc.absorb(dc.init(key), "x" * 32)):
        with pytest.raises(DomainError):
            call()
    message = bytes(range(40))
    for kind in (bytearray, memoryview):
        assert dc.digest(key, kind(message)) == dc.digest(key, message)
        block = kind(message[:32])
        assert dc.absorb(dc.init(key), block).words() == \
            dc.absorb(dc.init(key), message[:32]).words()


def test_replay_with_wrong_schedule_diverges():
    value, trace = dc.digest(bytes(32), b"")
    flipped = ("R" if trace[0] == "L" else "L") + trace[1:]
    assert dc.replay(bytes(32), b"", flipped) != value


# ------------------------------------------- reference round by round

VECTOR_KEYS = [bytes(32)] + [random.Random(f"key:{i}").randbytes(32) for i in (1, 2)]
VECTOR_LENGTHS = [0, 1, 31, 32, 33, 63, 64, 65, 1024]


@pytest.mark.parametrize("length", VECTOR_LENGTHS)
@pytest.mark.parametrize("key", VECTOR_KEYS, ids=["zero", "seeded1", "seeded2"])
def test_digest_replay_absorb_match_oracle(key, length):
    message = random.Random(length).randbytes(length)
    value, schedule = oracles.digest(key, message)
    assert dc.digest(key, message) == (value, schedule)
    assert dc.replay(key, message, schedule) == value
    state = dc.init(key)
    for block in oracles.digest_blocks(message):
        dc.absorb(state, block)
    assert b"".join(w.to_bytes(8, "little") for w in state.words()) == value
    assert "".join(state.trace) == schedule
    assert state.absorbed_bytes == 32 * len(oracles.digest_blocks(message))


@pytest.mark.parametrize("length", [0, 33, 1024])
def test_replay_follows_schedules_digest_never_selects(length):
    # g sets lsb(w0) to 0 within a block, so a selected schedule has no RR
    # inside a block; a forced one may.
    key = VECTOR_KEYS[1]
    message = random.Random(length).randbytes(length)
    rounds = dc.trace_length(length)
    rng = random.Random(f"forced:{length}")
    mixed = "".join(rng.choice("LR") for _ in range(rounds))
    assert "RR" in mixed[:16]
    for forced in ("L" * rounds, "R" * rounds, mixed):
        value, schedule = oracles.digest(key, message, forced)
        assert schedule == forced
        assert dc.replay(key, message, forced) == value


def test_digest_vectors_golden(digest_vectors):
    for key, message, value, schedule in digest_vectors:
        assert dc.digest(key, message) == (bytes.fromhex(value), schedule)
        assert dc.replay(key, message, schedule).hex() == value
