import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchtrace import _survey, collatz
from branchtrace.errors import DomainError, InconsistentTrace, ResourceError

import oracles


@pytest.mark.parametrize(
    "n, trace, steps, peak",
    [
        (1, "", 0, 1),
        (2, "L", 1, 2),
        (4, "LL", 2, 4),
        (6, "LRLRLLLL", 8, 16),
    ],
)
def test_known_traces(n, trace, steps, peak):
    rec = collatz.trace(n)
    assert rec.trace == trace
    assert rec.steps == steps
    assert rec.peak == peak
    assert rec.terminal == 1
    assert rec.stop_reason is collatz.StopReason.REACHED_ONE


def test_trace_of_three_spelled_out():
    # 3 -> 10 -> 5 -> 16 -> 8 -> 4 -> 2 -> 1
    rec = collatz.trace(3)
    assert rec.trace == "RLRLLLL"
    assert rec.steps == 7
    assert rec.peak == 16


def test_trace_27_summary():
    rec = collatz.trace(27)
    assert rec.steps == 111
    assert rec.peak == 9232


@pytest.mark.parametrize("bad", [0, -1, 1.5, "6", True, None])
def test_rejects_non_positive_inputs(bad):
    with pytest.raises(DomainError):
        collatz.trace(bad)


def test_repeat_mode_continues_past_one():
    rec = collatz.trace(1, collatz.StopRule.on_repeat())
    # 1 -> 4 -> 2 -> 1: the trivial cycle closes on the start value.
    assert rec.trace == "RLL"
    assert rec.terminal == 1
    assert rec.stop_reason is collatz.StopReason.REPEAT_DETECTED


def test_repeat_mode_matches_oracle():
    for n in (1, 2, 5, 27, 97):
        rec = collatz.trace(n, collatz.StopRule.on_repeat())
        ref = oracles.hailstone(n, stop_at_one=False)
        assert rec.trace == ref["trace"]
        assert rec.terminal == ref["terminal"]
        assert rec.stop_reason.value == ref["stop_reason"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 27, 639, 2**40, 2**40 + 1, (1 << 200) + 7,
                               random.Random(4001).getrandbits(4001) | 1 << 4000],
                         ids=lambda n: str(n) if n < 1 << 64 else f"{n.bit_length()}-bit")
def test_repeat_mode_walks_as_at_one(n, monkeypatch):
    # For n >= 3 no value repeats before the first 1, and the first repeat
    # is 1 -> 4: so a walk that reaches 1 is the AT_ONE trace plus an R, or
    # at the cap the AT_ONE trace itself. A walk capped short of 1, and
    # every walk from n <= 2, goes to the seen-set stepper. Caps fall
    # before, at and after the arrival at 1 and inside blocks.
    calls, walk_repeat = [], collatz._walk_repeat
    monkeypatch.setattr(collatz, "_walk_repeat", lambda *args: calls.append(args[0])
                        or walk_repeat(*args))
    steps = collatz.trace(n).steps
    for cap in sorted({1, 2, 7, 8, 9, 100, *range(max(1, steps - 2), steps + 4)}):
        calls.clear()
        rec = collatz.trace(n, collatz.StopRule.on_repeat(cap))
        ref = oracles.hailstone(n, stop_at_one=False, max_steps=cap)
        assert (rec.trace, rec.steps, rec.peak, rec.terminal, rec.stop_reason.value) == (
            ref["trace"], ref["steps"], ref["peak"], ref["terminal"], ref["stop_reason"]), cap
        assert calls == ([n] if n <= 2 or cap < steps else []), cap


def test_step_cap_is_exact():
    rec = collatz.trace(27, collatz.StopRule.at_one(10))
    assert rec.steps == 10
    assert rec.stop_reason is collatz.StopReason.STEP_CAP_EXCEEDED
    ref = oracles.hailstone(27, max_steps=10)
    assert rec.trace == ref["trace"]
    assert rec.terminal == ref["terminal"]


def test_stop_rule_validation():
    with pytest.raises(DomainError):
        collatz.StopRule.at_one(0)
    with pytest.raises(DomainError):
        collatz.StopRule(collatz.StopMode.AT_ONE, -3)


@pytest.mark.parametrize("n", [1, 6, 27, 97, 871, 6171, 77031, 2**40 + 1])
def test_trace_matches_oracle(n):
    rec = collatz.trace(n)
    ref = oracles.hailstone(n)
    assert rec.trace == ref["trace"]
    assert rec.steps == ref["steps"]
    assert rec.peak == ref["peak"]
    assert rec.terminal == ref["terminal"]
    assert rec.l_count == ref["l_count"]


def test_decode_examples():
    assert collatz.decode("", 7) == 7
    assert collatz.decode("LRLRLLLL", 1) == 6
    assert collatz.decode("L", 2) == 4


def test_decode_rejects_impossible_odd_step():
    with pytest.raises(InconsistentTrace) as exc:
        collatz.decode("R", 1)
    assert exc.value.index == 0


def test_decode_reports_failing_forward_index():
    # Undoing the final R of "RR" from 13 gives predecessor 4, which is
    # even, so the failure is at forward index 1 (the last symbol).
    with pytest.raises(InconsistentTrace) as exc:
        collatz.decode("RR", 13)
    assert exc.value.index == 1


def test_decode_rejects_bad_symbols():
    with pytest.raises(DomainError):
        collatz.decode("LX", 1)


def test_replay_checks_parity():
    assert collatz.replay(6, "LRLRLLLL") == (1, 16)
    with pytest.raises(InconsistentTrace) as exc:
        collatz.replay(6, "R")
    assert exc.value.index == 0
    with pytest.raises(InconsistentTrace) as exc:
        collatz.replay(6, "LLL")
    assert exc.value.index == 1


def test_replay_takes_a_list_of_symbols():
    trace = collatz.trace(27).trace
    assert collatz.replay(27, list(trace)) == collatz.replay(27, trace)
    for bad in ("X", None):
        symbols = list(trace)
        symbols[40], symbols[70] = bad, "Y"
        with pytest.raises(DomainError, match=f"^invalid branch symbol {bad!r}$"):
            collatz.replay(27, symbols)
        assert outcome(collatz.replay, 27, symbols) == oracles.replay(27, symbols)
    flipped = list(trace)
    flipped[40] = "L" if trace[40] == "R" else "R"
    assert outcome(collatz.replay, 27, flipped) == oracles.replay(27, flipped)


def test_decode_takes_a_list_of_symbols():
    assert collatz.decode(list("LRLRLLLL"), 1) == 6
    rec = collatz.trace(27)
    symbols = list(rec.trace)
    assert outcome(collatz.decode, symbols, 1) == oracles.decode(symbols, 1) == ("ok", 27)
    for bad in ("X", None, "LR"):
        symbols = list(rec.trace)
        symbols[40], symbols[70] = bad, "Y"
        with pytest.raises(DomainError, match=f"^invalid branch symbol {re.escape(repr(bad))}$"):
            collatz.decode(symbols, 1)
        assert outcome(collatz.decode, symbols, 1) == oracles.decode(symbols, 1)
    # An R undone from 1 has no odd predecessor.
    symbols = list(rec.trace) + ["R"]
    got = outcome(collatz.decode, symbols, 1)
    assert got[0] == "InconsistentTrace" and got[2] == rec.steps
    assert got == outcome(collatz.decode, "".join(symbols), 1) == oracles.decode(symbols, 1)


def test_decode_finds_bad_symbols_wherever_the_fast_path_skips_them():
    # A string is not scanned for bad symbols before its blocks are undone,
    # yet every outcome is still the one of a walk that checks every symbol
    # first. 27's trace has 8 whole blocks and 6 shortcut steps after them.
    text = collatz.trace(27).trace
    bad_r = text[:-3] + "R" + text[-2:]  # its R has no odd predecessor
    cases = [
        (text[:20] + "X" + text[21:], "X"),  # in the blocks
        (text.replace("RL", "1", 1), "1"),  # these four leave the block keys as they are
        (text.replace("LL", "L0", 1), "0"),
        ("1LLLLLLL", "1"),
        ("0LLLLLLL", "0"),
        (text[:-2] + "X" + text[-1:], "X"),  # after the last block
        (text[:-5] + "X" + text[-4:], "X"),  # in place of the last R
        (text[:20] + "Y" + text[21:-2] + "X" + text[-1:], "Y"),  # the first one counts
        (text[:-2] + "X" + text[-2:] + "R", "X"),  # before an inconsistent R
        (bad_r + "X", "X"),  # after one
        (text[:20] + "X" + bad_r[21:], "X"),  # in the blocks, before one
    ]
    for trace, sym in cases:
        want = ("DomainError", f"invalid branch symbol {sym!r}", None)
        assert outcome(collatz.decode, trace, 1) == want == oracles.decode(trace, 1), trace
    want = ("InconsistentTrace", "step 106: no odd predecessor for 2", 106)
    assert outcome(collatz.decode, bad_r, 1) == want == oracles.decode(bad_r, 1)


@pytest.mark.parametrize("sym", ["_", " ", "+", "\t", "\u0661"])
def test_decode_refuses_what_int_would_parse(sym):
    # The block keys come from int(parity, 2), which also takes underscores
    # between digits, surrounding whitespace, a sign and any Unicode digit
    # (U+0661 is ARABIC-INDIC DIGIT ONE). Each is refused like any other bad
    # symbol: inserted or substituted in the blocks and at either edge of
    # the block region.
    text = collatz.trace(27).trace  # 8 whole blocks, then LLRLLLL
    head = len(text) - 7  # the first symbol after the blocks
    for i in (0, 1, 20, head - 1, head, len(text) - 1, len(text)):
        for trace in (text[:i] + sym + text[i:], text[:i] + sym + text[i + 1:]):
            want = ("DomainError", f"invalid branch symbol {sym!r}", None)
            assert outcome(collatz.decode, trace, 1) == want == oracles.decode(trace, 1), i


# ------------------------------------------------ K-step block stepper


def test_block_table_invariants():
    table, inverse = collatz._TAB, collatz._INV
    assert len(table) == 256 == len({collatz._parity(row[0]) for row in table}) == len(inverse)
    q = collatz._THRESH >> 8  # max B + 1
    for s, (text, length, mul, add, a, b) in enumerate(table):
        # The inverse is keyed by the parity byte, the first step its high bit.
        key = sum(1 << (7 - i) for i, bit in enumerate(collatz._parity(text)) if bit == "1")
        assert inverse[key] == (s, mul, add)
        assert length == len(text) and text.count("L") == 8
        n = (q << 8) + s
        cur, peak = n, n
        for sym in text:
            assert sym == ("R" if cur & 1 else "L")
            cur = 3 * cur + 1 if cur & 1 else cur >> 1
            peak = max(peak, cur)
        assert cur == mul * q + add
        assert max(n, a * q + b) == peak
        # So decode's exact block inverse of a value >= 1 never has q < 0.
        assert add < mul
    # The key an odd block count pads with: 8 L's, whose inverse is 2^8 v.
    assert inverse[0] == (0, 1, 0)


def test_peak_bar_constants_hold_for_every_odd_step():
    # Every 3x+1 inside a block from n = 2^8 q + s is A q + B; the walker's
    # bar needs A <= _RISE 2^8 and B <= _TOP for all of them, not only for
    # the table's one candidate per residue. Both constants are tight.
    coeffs, shifts = [], []
    for s in range(256):
        coeff, t = 256, s
        for _ in range(8):
            if t & 1:
                coeffs.append(3 * coeff)
                shifts.append(3 * t + 1)
                coeff, t = 3 * coeff // 2, (3 * t + 1) // 2
            else:
                coeff, t = coeff // 2, t // 2
    assert (collatz._RISE, collatz._TOP) == (52, 13120)
    assert max(coeffs) == 2 * 3**8 and 51 * 256 < max(coeffs) <= collatz._RISE * 256
    assert max(shifts) == collatz._TOP == (collatz._THRESH >> 8) - 1


def test_walk_peak_at_the_bar():
    # Built from its parity vector (Terras, 1976): three odd shortcut steps,
    # the peak P as the 3x+1 of a fourth, 31 halvings and 45 odd steps reach
    # c = 255 mod 2^8 at the start of block 10, with 51 c + _TOP <= P < 52 c.
    # c's block of eight odd steps tops P, so the peak comes from a block
    # start that a bar of (P - _TOP) // 51 would skip.
    n = 1267929518817327650755747023631
    values = [n]
    while values[-1] > 1:
        x = values[-1]
        values.append(3 * x + 1 if x & 1 else x >> 1)
    start = [i for i, x in enumerate(values) if x & 1 == 0][79] + 1  # after 80 halvings
    c, top = values[start], max(values[:start])
    assert c % 256 == 255 and 51 * c + collatz._TOP <= top < 52 * c
    rec = collatz.trace(n)
    ref = oracles.hailstone(n)
    assert max(values[start:start + 17]) == ref["peak"] == rec.peak > top
    assert (rec.trace, rec.terminal) == (ref["trace"], ref["terminal"])


# Inputs whose bar (peak - _TOP) // _RISE lies at 546, 4565, 73180 and
# 1205709, in the band [512, _THRESH) where blocks come from the bar alone,
# and two whose bar is past the band.
LOW_BAND = [639, 703, 17439, 28287, 2**40 + 1, (1 << 200) + 12345]


@pytest.mark.parametrize("n", LOW_BAND)
def test_walks_take_blocks_below_the_threshold(n):
    full = oracles.hailstone(n)
    values = [n]
    for sym in full["trace"]:
        values.append(3 * values[-1] + 1 if sym == "R" else values[-1] >> 1)
    # Every cap whose last value lies in the band, so every block edge there,
    # and one step past it.
    band = [i for i, x in enumerate(values) if 512 <= x < collatz._THRESH and i]
    assert band and (collatz.trace(n).peak - collatz._TOP) // collatz._RISE >= 512
    for cap in sorted({*band, band[-1] + 1}):
        rec = collatz.trace(n, collatz.StopRule.at_one(cap))
        ref = oracles.hailstone(n, max_steps=cap)
        assert (rec.trace, rec.steps, rec.peak, rec.terminal, rec.stop_reason.value) == (
            ref["trace"], ref["steps"], ref["peak"], ref["terminal"], ref["stop_reason"]), cap
        assert collatz.replay(n, rec.trace) == (rec.terminal, rec.peak)
        assert collatz.decode(rec.trace, rec.terminal) == n


def test_decode_undoes_consistent_blocks_without_the_per_symbol_walk(monkeypatch):
    # The per-symbol walk undoes only what follows the last whole block:
    # fewer than 8 shortcut steps, and a trailing R.
    lengths, undo = [], collatz._undo
    monkeypatch.setattr(collatz, "_undo", lambda trace, cur: lengths.append(len(trace))
                        or undo(trace, cur))
    for n in [27, 97, 871, *LOW_BAND, random.Random(3).getrandbits(1001)]:
        for cap in (8, 15, 16, 17, 100, None):
            rec = collatz.trace(n, collatz.StopRule.at_one(*([cap] if cap else [])))
            assert collatz.decode(rec.trace, rec.terminal) == n
            if rec.terminal & 1:
                assert collatz.decode(rec.trace + "R", 3 * rec.terminal + 1) == n
    assert lengths and max(lengths) <= 2 * 7 + 1


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_trace_at_the_block_threshold(delta):
    n = collatz._THRESH + delta
    rec = collatz.trace(n)
    ref = oracles.hailstone(n)
    assert (rec.trace, rec.peak, rec.terminal) == (ref["trace"], ref["peak"], ref["terminal"])
    assert collatz.decode(rec.trace, rec.terminal) == n
    assert collatz.replay(n, rec.trace) == (rec.terminal, rec.peak)


def test_caps_inside_and_at_block_edges():
    n = (1 << 200) + 12345
    full = oracles.hailstone(n)["trace"]
    # A block ends after every eighth halving while values stay large.
    ends = [i + 1 for i, sym in enumerate(full) if sym == "L"][7:24:8]
    caps = {3, *(end + d for end in ends for d in (-1, 0, 1))}
    for cap in sorted(caps):
        rule = collatz.StopRule.at_one(cap)
        rec = collatz.trace(n, rule)
        ref = oracles.hailstone(n, max_steps=cap)
        assert (rec.trace, rec.peak, rec.terminal) == (ref["trace"], ref["peak"], ref["terminal"])
        assert rec.stop_reason is collatz.StopReason.STEP_CAP_EXCEEDED
        assert collatz.survey(n, n, rule).record(0) == collatz.TraceSummary(
            n, cap, ref["peak"], ref["l_count"], collatz.StopReason.STEP_CAP_EXCEEDED)


@pytest.mark.parametrize("bits", [64, 255, 1024, 4096])
def test_wide_inputs_match_the_oracle(bits):
    n = random.Random(bits).getrandbits(bits) | (1 << (bits - 1))
    rec = collatz.trace(n)
    ref = oracles.hailstone(n)
    assert (rec.trace, rec.steps, rec.peak, rec.terminal, rec.l_count) == (
        ref["trace"], ref["steps"], ref["peak"], ref["terminal"], ref["l_count"])
    assert collatz.decode(rec.trace, rec.terminal) == n
    assert collatz.replay(n, rec.trace) == (rec.terminal, rec.peak)


def outcome(fn, *args):
    """Result, or (error class name, message, index) as the oracles report."""
    try:
        return ("ok", fn(*args))
    except (DomainError, InconsistentTrace) as err:
        return (type(err).__name__, str(err), getattr(err, "index", None))


def damaged(trace):
    """Every single-symbol flip, X inserted, a trailing R, and RR."""
    for i, sym in enumerate(trace):
        yield trace[:i] + ("L" if sym == "R" else "R") + trace[i + 1:]
    middle = len(trace) // 2
    yield from ("X" + trace, trace[:middle] + "X" + trace[middle:], trace + "X")
    yield from (trace + "R", "RR", trace + "RR")


def assert_fails_like_the_oracles(n, trace, terminal):
    for bad in damaged(trace):
        assert outcome(collatz.decode, bad, terminal) == oracles.decode(bad, terminal), bad
        assert outcome(collatz.replay, n, bad) == oracles.replay(n, bad), bad


def test_decode_and_replay_fail_like_the_per_symbol_oracles():
    for n in range(1, 300):
        rec = collatz.trace(n)
        assert_fails_like_the_oracles(n, rec.trace, rec.terminal)


@pytest.mark.parametrize("seed", [1, 2])
def test_wide_decode_and_replay_fail_like_the_per_symbol_oracles(seed):
    n = random.Random(seed).getrandbits(256) | (1 << 255)
    rec = collatz.trace(n)
    assert_fails_like_the_oracles(n, rec.trace, rec.terminal)


def forward(n, steps, off):
    """The first ``steps`` symbols of n's trajectory and the value after
    them plus ``off`` (at least 1): a consistent pair at ``off`` 0."""
    _, _, _, cur, text = collatz._walk(n, steps, 0, True)
    return text, max(1, cur + off)


@settings(max_examples=400)
@given(st.one_of(
    st.tuples(st.lists(st.sampled_from(["L", "RL"]), max_size=120).map("".join),
              st.integers(min_value=1, max_value=1 << 80)),
    st.builds(forward, st.integers(min_value=1, max_value=1 << 300),
              st.integers(min_value=0, max_value=400), st.integers(min_value=-3, max_value=3))),
    st.booleans())
def test_decode_matches_the_per_symbol_oracle_on_fuzzed_traces(case, trailing_r):
    # L and RL tokens, a trailing R, random terminals and terminals off by
    # a few from a real trajectory's: the block inverse returns without a
    # forward check, so every outcome must still be the oracle's.
    trace, terminal = case
    trace += "R" * trailing_r
    assert outcome(collatz.decode, trace, terminal) == oracles.decode(trace, terminal)


# The range below the block threshold, plus big inputs that take the
# K-step blocks.
inputs = st.one_of(st.integers(min_value=1, max_value=200_000),
                   st.integers(min_value=collatz._THRESH, max_value=1 << 2048))


@given(inputs)
def test_roundtrip_decode_inverts_trace(n):
    rec = collatz.trace(n)
    assert rec.stop_reason is collatz.StopReason.REACHED_ONE
    assert collatz.decode(rec.trace, rec.terminal) == n


@given(inputs)
def test_replay_reproduces_terminal_and_peak(n):
    rec = collatz.trace(n)
    assert collatz.replay(n, rec.trace) == (rec.terminal, rec.peak)


@given(st.integers(min_value=2, max_value=10**9))
def test_halving_count_dominates_bit_length(n):
    rec = collatz.trace(n)
    assert rec.l_count >= n.bit_length() - 1


@given(st.integers(min_value=1, max_value=5000))
def test_trace_length_consistency(n):
    rec = collatz.trace(n)
    assert rec.steps == len(rec.trace)
    assert rec.l_count + rec.r_count == rec.steps


def test_survey_small_range_values():
    result = collatz.survey(1, 10)
    assert_descent_certificates(result)
    assert result.steps.tolist() == [0, 1, 7, 2, 5, 8, 16, 3, 19, 6]
    assert result.max_steps() == 19
    assert result.max_peak() == 52
    assert result.non_reached_count() == 0
    rows = list(result)
    assert rows[5].n == 6 and rows[5].peak == 16 and rows[5].l_count == 6


def test_survey_matches_trace_across_chunk_boundary():
    lo = (1 << 17) - 3
    hi = (1 << 17) + 3
    result = collatz.survey(lo, hi)
    for rec in result:
        ref = collatz.trace(rec.n)
        assert (rec.steps, rec.peak, rec.l_count) == (
            ref.steps,
            ref.peak,
            ref.l_count,
        )
        assert rec.stop_reason is ref.stop_reason


def test_survey_exact_path_beyond_int64():
    lo = (1 << 62) + 1
    result = collatz.survey(lo, lo + 2, collatz.StopRule.at_one(500))
    for rec in result:
        ref = collatz.trace(rec.n, collatz.StopRule.at_one(500))
        assert (rec.steps, rec.peak, rec.l_count) == (
            ref.steps,
            ref.peak,
            ref.l_count,
        )
        assert rec.stop_reason is ref.stop_reason


def test_survey_peaks_exceeding_int64_are_exact():
    # 2^62 + 1 is odd, so its first step already tops int64.
    lo = (1 << 62) + 1
    result = collatz.survey(lo, lo, collatz.StopRule.at_one(500))
    assert result.peak_of(0) == collatz.trace(lo, collatz.StopRule.at_one(500)).peak


def test_survey_step_cap_rows():
    result = collatz.survey(1, 40, collatz.StopRule.at_one(5))
    assert_rows_exact(result, range(len(result)))
    assert_descent_certificates(result)
    assert result.non_reached_count() > 0


def test_survey_rejects_bad_ranges():
    with pytest.raises(DomainError):
        collatz.survey(10, 1)
    with pytest.raises(DomainError):
        collatz.survey(0, 5)


def test_survey_refuses_ranges_above_the_cap():
    with pytest.raises(ResourceError):
        collatz.survey(1, collatz.RANGE_CAP + 1)


# ------------------------------------------ memoized descent, differential


def assert_rows_exact(result, offsets):
    """Rows agree with trace() and the oracle on every summary field."""
    rule = result.rule
    at_one = rule.mode is collatz.StopMode.AT_ONE
    for offset in offsets:
        rec = result.record(offset)
        ref = collatz.trace(rec.n, rule)
        want = oracles.hailstone(rec.n, stop_at_one=at_one, max_steps=rule.max_steps)
        got = (rec.steps, rec.l_count, rec.peak, rec.stop_reason.value)
        assert got == (ref.steps, ref.l_count, ref.peak, ref.stop_reason.value), rec.n
        assert got == (want["steps"], want["l_count"], want["peak"], want["stop_reason"]), rec.n


def assert_descent_certificates(result):
    """Every AT_ONE row that reached 1 carries its input in its branch
    counts, with no oracle. Take l halvings and r odd steps from n: each odd
    step multiplies by 3 (1 + 1/(3x)) and each halving divides by 2, so 2^l
    = 3^r n prod(1 + 1/(3x)) over its odd values x. No value repeats before
    the first 1, so these are distinct odd numbers of at least 3, and
    0 <= l - r log2 3 - log2 n <= F(r) = sum_{k=1..r} log2(1 + 1/(3(2k + 1))).
    Checked in float64 with a margin, then exactly for the rows within it:
    3^r n <= 2^l and 2^l prod(2k + 1) <= n prod(6k + 4)."""
    if result.rule.mode is not collatz.StopMode.AT_ONE:
        return
    rows = np.nonzero(result.stop_codes == 0)[0]
    if not rows.size:
        return
    halves = result.l_count[rows]
    odd = result.steps[rows] - halves
    bound = np.r_[0, np.cumsum(np.log2(1 + 1 / (3 * (2 * np.arange(1, odd.max() + 1) + 1))))]
    gap = halves - odd * np.log2(3) - np.log2(float(result.lo) + rows)
    margin = 1e-9
    bad = rows[(odd < 0) | (gap <= -margin) | (gap >= bound[odd.clip(0)] + margin)].tolist()
    assert not bad, f"inputs {[result.lo + row for row in bad[:5]]} break the certificate"
    near = (gap < margin) | (gap > bound[odd] - margin)
    for row, l, r in zip(rows[near].tolist(), halves[near].tolist(), odd[near].tolist()):
        n = result.lo + row
        assert 3**r * n <= 1 << l, n
        assert (1 << l) * math.prod(range(3, 2 * r + 2, 2)) <= (
            n * math.prod(range(10, 6 * r + 5, 6))), n


def test_descent_certificates_are_tight():
    # D = 0 on powers of two (r = 0) and D = F(r) on 3 * 2^k, whose odd
    # values are 3 and 5: both ends reach the exact check, and pass. One
    # step more or fewer in steps or in l_count moves D by log2 3 or
    # 1 + log2 3, more than F(r) for any r here, so the row breaks the
    # certificate.
    result = collatz.survey(1, 3000)
    assert_descent_certificates(result)
    for column, delta, offset in itertools.product(("steps", "l_count"), (-1, 1),
                                                   range(1, 3000, 97)):
        values = getattr(result, column)
        values[offset] += delta
        with pytest.raises(AssertionError, match="break the certificate"):
            assert_descent_certificates(result)
        values[offset] -= delta


def first_descent(n):
    """(steps, halvings, value, peak) of n's trajectory up to its first value
    below n, read off trace()."""
    cur = peak = n
    text = collatz.trace(n).trace
    for steps, sym in enumerate(text, 1):
        cur = 3 * cur + 1 if sym == "R" else cur >> 1
        peak = max(peak, cur)
        if cur < n:
            return steps, text.count("L", 0, steps), cur, peak


def descent(n):
    """First value below n on n's trajectory, and the peak before it."""
    cur = peak = n
    while cur >= n:
        cur = 3 * cur + 1 if cur & 1 else cur >> 1
        peak = max(peak, cur)
    return cur, peak


@pytest.mark.parametrize("lo, hi", [(27, 60), (1000, 1400)])
def test_survey_descents_below_lo(lo, hi):
    result = collatz.survey(lo, hi)
    assert_rows_exact(result, range(len(result)))
    assert_descent_certificates(result)
    targets = [descent(n)[0] for n in range(lo, hi + 1)]
    assert any(t < lo for t in targets) and any(t >= lo for t in targets)


# Rows per ranking block: one, 7 (no divisor of a chunk), 64 and the default.
RANKS = (1, 7, 64, _survey._RANK)


def test_survey_chunk_edges_with_earlier_and_same_chunk_targets(monkeypatch):
    chunk = _survey._CHUNK
    offsets = [*range(chunk - 60, chunk + 60), *range(2 * chunk - 60, 2 * chunk + 60)]
    for rank in RANKS:
        monkeypatch.setattr(_survey, "_RANK", rank)
        result = collatz.survey(1, 2 * chunk + 60)
        assert_rows_exact(result, offsets)
        assert_descent_certificates(result)
    same = earlier = 0
    for offset in offsets:
        target = descent(1 + offset)[0] - 1
        if target // chunk == offset // chunk:
            same += 1
        else:
            earlier += 1
    assert same and earlier


@pytest.mark.parametrize("cap", [111, 110, 118, 117])
def test_survey_cap_at_a_descending_rows_total(monkeypatch, cap):
    # With lo = 1 every row descends to a row in the range; 27 takes 111
    # steps in all and 97 takes 118.
    for rank in RANKS:
        monkeypatch.setattr(_survey, "_RANK", rank)
        result = collatz.survey(1, 120, collatz.StopRule.at_one(cap))
        assert_rows_exact(result, range(len(result)))
        assert_descent_certificates(result)
        for n, total in ((27, 111), (97, 118)):
            assert (result.stop_codes[n - 1] == 0) == (cap >= total)


@pytest.mark.parametrize("hi", [1 << 62, (1 << 62) + 1])
def test_survey_window_at_the_int64_input_limit(hi):
    # Windows that end at 2^62 and one past it run the same lockstep.
    result = collatz.survey(hi - 40, hi)
    assert_rows_exact(result, range(len(result)))
    assert len(result.big_peaks) > 10
    assert_big_placeholders(result)
    assert result.max_peak() == max(result.peak_of(offset) for offset in range(len(result)))


def test_survey_chains_through_big_peak_and_capped_rows(monkeypatch):
    # At real scale a row can only descend to a big-peak row in a range
    # wider than RANGE_CAP. Lowering the kernel's word (to 3 guard + 1, odd
    # with an even guard, as for real) and the chunk puts diverted lanes,
    # big peaks and chains through them, to targets in the same chunk and
    # in earlier ones, inside a small dense range.
    guard, chunk = 2_000, 512
    monkeypatch.setattr(_survey, "_INT64_MAX", 3 * guard + 1)
    monkeypatch.setattr(_survey, "_CHUNK", chunk)
    rules = (collatz.StopRule.at_one(), collatz.StopRule.at_one(60),
             collatz.StopRule.on_repeat(), collatz.StopRule.on_repeat(60))
    for rank, rule in itertools.product(RANKS, rules):
        monkeypatch.setattr(_survey, "_RANK", rank)
        result = collatz.survey(1, 3000, rule)
        assert_rows_exact(result, range(len(result)))
        assert_descent_certificates(result)
        same_chunk = set()
        for offset in result.big_peaks:
            target, peak = descent(1 + offset)
            if peak <= guard and target - 1 in result.big_peaks:
                same_chunk.add((target - 1) // chunk == offset // chunk)
        assert same_chunk == {True, False}
        assert_big_placeholders(result, 3 * guard + 1)
        # Lanes that passed the guard, came back without topping the
        # word, and then descended to a row in the range.
        rejoined = [n for n in range(2, 3001) if guard < descent(n)[1] <= 3 * guard + 1]
        assert any(n - 1 not in result.big_peaks for n in rejoined)


def excursions(n, max_steps=collatz.DEFAULT_MAX_STEPS):
    """[first value, peak] of each run of n's trajectory above the int64
    step guard, and whether the step cap fell inside a run."""
    guard = (_survey._INT64_MAX - 1) // 3
    runs, cur, steps = [], n, 0
    while True:
        if cur > guard:
            if not runs or runs[-1][2] != steps - 1:
                runs.append([cur, cur, steps])
            runs[-1][1:] = [max(runs[-1][1], cur), steps]
        if cur == 1 or steps == max_steps:
            return [run[:2] for run in runs], cur > guard
        cur = 3 * cur + 1 if cur & 1 else cur >> 1
        steps += 1


def assert_big_placeholders(result, top=2**63 - 1):
    """The big rows are exactly the rows whose peaks entry is 2^63 - 1."""
    assert np.nonzero(result.peaks == top)[0].tolist() == sorted(result.big_peaks)
    assert all(peak > top for peak in result.big_peaks.values())


def test_survey_lanes_rejoin_after_excursions():
    # Lanes here leave the int64 lanes up to nine times; some top int64
    # only on a later excursion.
    lo = (1 << 58) + 1000
    result = collatz.survey(lo, lo + 120)
    assert_rows_exact(result, range(len(result)))
    assert_big_placeholders(result)
    runs = {offset: excursions(lo + offset)[0] for offset in range(len(result))}
    assert max(len(r) for r in runs.values()) >= 5
    assert any(runs[offset][0][1] <= _survey._INT64_MAX for offset in result.big_peaks)


@pytest.mark.parametrize("lo, cap", [((1 << 62) - 60, 4), ((1 << 62) - 60, 40),
                                     ((1 << 58) + 1000, 50)])
def test_survey_cap_inside_an_excursion(lo, cap):
    result = collatz.survey(lo, lo + 60, collatz.StopRule.at_one(cap))
    assert_rows_exact(result, range(len(result)))
    assert_big_placeholders(result)
    inside = [offset for offset in range(len(result)) if excursions(lo + offset, cap)[1]]
    assert inside
    assert all(result.stop_codes[offset] == 2 and result.steps[offset] == cap
               for offset in inside)


@pytest.mark.parametrize("lo", [1, 2, 3])
def test_survey_on_repeat_matches_trace(lo):
    result = collatz.survey(lo, lo + 30, collatz.StopRule.on_repeat())
    assert_rows_exact(result, range(len(result)))


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=0, max_value=50))
def test_survey_agrees_with_scalar_trace(lo, span):
    result = collatz.survey(lo, lo + span)
    offset = span // 2
    rec = result.record(offset)
    ref = collatz.trace(lo + offset)
    assert (rec.steps, rec.peak, rec.l_count) == (ref.steps, ref.peak, ref.l_count)


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 7, 8, 111, 112])
def test_survey_on_repeat_rows_at_the_cap(cap):
    # ON_REPEAT rows come from the AT_ONE kernel plus the step 1 -> 4;
    # 27 reaches 1 at step 111, so it repeats within cap 112 but not 111.
    result = collatz.survey(1, 200, collatz.StopRule.on_repeat(cap))
    assert_rows_exact(result, range(len(result)))


def test_survey_on_repeat_window_at_the_int64_input_limit():
    hi = 1 << 62
    result = collatz.survey(hi - 20, hi, collatz.StopRule.on_repeat())
    assert_rows_exact(result, range(len(result)))
    assert result.big_peaks
    assert_big_placeholders(result)


@pytest.mark.parametrize("lo", [(1 << 62) + 1, 1 << 64, 1 << 100])
@pytest.mark.parametrize("cap", [1, 2, 3, 5, 50, None])
def test_survey_on_repeat_above_the_int64_input_limit(lo, cap):
    # Inputs past 2^62 step in the lockstep as below it, those past int64
    # starting as excursion lanes; the ON_REPEAT rows are the AT_ONE rows
    # plus the step 1 -> 4.
    result = collatz.survey(lo, lo + 40, collatz.StopRule.on_repeat(*([cap] if cap else [])))
    assert_rows_exact(result, range(len(result)))
    assert_big_placeholders(result)


@pytest.mark.parametrize("lo", [(1 << 62) + 1, 1 << 100])
def test_survey_on_repeat_above_the_limit_with_a_cap_at_one(lo):
    # A cap that falls on a row's arrival at 1 leaves no step for the repeat.
    cap = collatz.trace(lo + 3).steps
    result = collatz.survey(lo, lo + 40, collatz.StopRule.on_repeat(cap))
    assert_rows_exact(result, range(len(result)))
    rec = result.record(3)
    assert (rec.steps, rec.stop_reason) == (cap, collatz.StopReason.STEP_CAP_EXCEEDED)


@pytest.mark.parametrize("tail", [0, 32])
@pytest.mark.parametrize("lo", [(1 << 63) - 20, (1 << 63) - 1, 1 << 64, 3**90])
@pytest.mark.parametrize("cap", [1, 2, 3, 60, None])
def test_survey_inputs_past_int64_start_as_excursion_lanes(monkeypatch, tail, lo, cap):
    # An input past int64 reads 2^63 - 1 in the lockstep, and its lane starts
    # from the input: in the tail at round 0 (30 lanes, tail 32) or on an
    # excursion (no tail). The per-row exact stepper gets no row at all.
    monkeypatch.setattr(_survey, "_TAIL", tail)
    starts = spy_tail_starts(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(_survey, "_walk_repeat", refuse)
        result = collatz.survey(lo, lo + 29, collatz.StopRule.at_one(*([cap] if cap else [])))
    assert_rows_exact(result, range(len(result)))
    assert_big_placeholders(result)
    assert starts == (list(range(lo, lo + 30)) if tail else [])


def refuse(*args):
    raise AssertionError(f"the per-row stepper ran for {args}")


# The seed-1 exact_wide window at 2^40 of perfbench.
WIDE_2P40 = (2000264931193, 2000264931193 + 4095)


@pytest.mark.parametrize("cap", [1, 3, 50, 100, None])
@pytest.mark.parametrize("lo, hi", [(1, 3000), (1000, 5000), WIDE_2P40,
                                    ((1 << 62) - 300, (1 << 62) + 300),
                                    (1 << 64, (1 << 64) + 300)])
def test_survey_at_one_rows_never_reach_the_per_row_stepper(monkeypatch, lo, hi, cap):
    # Capped rows, their descendants and merge followers step again in the
    # lockstep; only ON_REPEAT leftovers go to the per-row stepper.
    with monkeypatch.context() as patch:
        patch.setattr(_survey, "_walk_repeat", refuse)
        result = collatz.survey(lo, hi, collatz.StopRule.at_one(*([cap] if cap else [])))
    assert_rows_exact(result, range(len(result)))


# ------------------------------------------------- merged lanes and the tail


def spy_merges(monkeypatch):
    """Record every lane merge of the survey lockstep as (follower row,
    leader row, follower's steps so far minus the leader's, leader's
    clipped peak so far); rows are offsets into the lane's chunk."""
    merges, keep = [], _survey._keep

    def spy(index, lane, span, cur, top, halves, ahead):
        if index.dtype != bool:  # a merge keeps its leaders by index
            leader = dict(zip(cur[index].tolist(), index.tolist()))
            for i in sorted(set(range(lane.size)) - set(index.tolist())):
                k = leader[int(cur[i])]
                merges.append((int(lane[i]), int(lane[k]), int(ahead[i] - ahead[k]), int(top[k])))
        return keep(index, lane, span, cur, top, halves, ahead)

    monkeypatch.setattr(_survey, "_keep", spy)
    return merges


def test_survey_followers_carry_their_own_excursion_steps(monkeypatch):
    # A parked lane steps once a round like every other, so lanes from
    # nearby inputs that meet at one large value in one round have taken the
    # same steps. A lane whose value reaches the block threshold 2^8 (guard + 1)
    # instead walks, taking its excursion's steps at once, and then meets
    # lanes with a different step count. With the word lowered, placeholder
    # inputs past it park, and some of their excursions reach the threshold,
    # in a range of 1,000 rows (at the real word that takes inputs past
    # 2^69); each follower keeps its own steps.
    guard = 2_000
    monkeypatch.setattr(_survey, "_INT64_MAX", 3 * guard + 1)
    merges = spy_merges(monkeypatch)
    result = collatz.survey(200_001, 201_000)
    assert_rows_exact(result, range(len(result)))
    assert_big_placeholders(result, 3 * guard + 1)
    assert any(delta != 0 for _, _, delta, _ in merges)


def test_survey_merges_all_big_groups(monkeypatch):
    # With the word lowered, lanes whose clipped peaks all tie at the word
    # meet; each group's leader must have the least exact peak.
    guard = 200_000
    monkeypatch.setattr(_survey, "_INT64_MAX", 3 * guard + 1)
    merges = spy_merges(monkeypatch)
    for rule in (collatz.StopRule.at_one(), collatz.StopRule.at_one(100),
                 collatz.StopRule.on_repeat()):
        merges.clear()
        result = collatz.survey(200_001, 201_000, rule)
        assert_rows_exact(result, range(len(result)))
        assert_big_placeholders(result, 3 * guard + 1)
        assert any(top == 3 * guard + 1 for _, _, _, top in merges)


@pytest.mark.parametrize("cap", [60, 100, 300])
def test_survey_followers_of_capped_leaders(monkeypatch, cap):
    # A follower's own step count (0 here) does not take it past the cap;
    # its leader's stop code does.
    merges = spy_merges(monkeypatch)
    lo = (1 << 40) + 12345
    result = collatz.survey(lo, lo + 199, collatz.StopRule.at_one(cap))
    assert_rows_exact(result, range(len(result)))
    capped = [(f, k) for f, k, delta, _ in merges
              if delta <= 0 and result.stop_codes[k] == 2]
    assert capped
    assert all(result.stop_codes[f] == 2 and result.steps[f] == cap for f, _ in capped)


@pytest.mark.parametrize("cap", [100, 110, 120, 125])
def test_survey_followers_short_of_capped_leaders(monkeypatch, cap):
    # In an all-big group the leader, of least exact peak, can have spent
    # more steps on excursions than a follower, whose chained total then
    # falls short of the cap; the leader's stop code sends the follower to
    # the redo pass. Step counts part after a walk from the block threshold
    # (see above), so the range holds placeholder inputs past the lowered
    # word. Also with ranking blocks of 512 rows, where a lane in an earlier
    # block than its leader steps on.
    # At cap 125 the range runs on to rows whose own totals fit the cap:
    # followers n = 101,545 and 101,679 (110 steps to 1) of the capped leader
    # n = 100,310 (141 steps). Their chains read code 2 and their redo reaches
    # 1, so the redo pass must reset the stop codes it inherits.
    guard = 20_000
    monkeypatch.setattr(_survey, "_INT64_MAX", 3 * guard + 1)
    merges = spy_merges(monkeypatch)
    hi = 101_999 if cap == 125 else 101_499
    for rank in (512, _survey._RANK):
        monkeypatch.setattr(_survey, "_RANK", rank)
        merges.clear()
        result = collatz.survey(100_000, hi, collatz.StopRule.at_one(cap))
        assert_rows_exact(result, range(len(result)))
        assert any(delta < 0 and result.stop_codes[k] == 2 for _, k, delta, _ in merges)
        assert all(f // rank >= k // rank for f, k, _, _ in merges)
        if cap == 125:
            assert any(delta < 0 and result.stop_codes[k] == 2 and result.stop_codes[f] == 0
                       for f, k, delta, _ in merges)


@pytest.mark.parametrize("tail", [0, 1, 32, 256])
@pytest.mark.parametrize("lo, hi, cap", [(1, 900, None), (1000, 1900, 60),
                                         ((1 << 40) + 77, (1 << 40) + 777, None),
                                         ((1 << 62) - 600, 1 << 62, 40)])
def test_survey_tail_handoff_at_chunk_edges(monkeypatch, tail, lo, hi, cap):
    # Chunks of 256 rows: the last lanes of each chunk go to the exact
    # stepper (all of them at tail 256, none at 0) and rows of the next
    # chunk descend to them.
    monkeypatch.setattr(_survey, "_CHUNK", 256)
    monkeypatch.setattr(_survey, "_TAIL", tail)
    rule = collatz.StopRule.at_one(*([cap] if cap else []))
    result = collatz.survey(lo, hi, rule)
    assert_rows_exact(result, range(len(result)))
    assert_big_placeholders(result)
    assert_descent_certificates(result)
    if hi < 2000:
        earlier = [offset for offset in range(256, len(result))
                   if lo <= descent(lo + offset)[0] < lo + offset // 256 * 256]
        assert earlier


@pytest.mark.parametrize("cap", [None, 200, 700])
def test_survey_on_repeat_over_a_merged_window(monkeypatch, cap):
    merges = spy_merges(monkeypatch)
    lo = (1 << 45) + 4321
    result = collatz.survey(lo, lo + 299, collatz.StopRule.on_repeat(*([cap] if cap else [])))
    assert_rows_exact(result, range(len(result)))
    assert len(merges) > 100


# ------------------------------------------ rows the residue mod 2^8 retires


def pre_retired(n, lo, cap, first, end):
    """Whether the survey fills row n > 1 of its chunk of inputs [first,
    end) from its residue before the lockstep. The grid holds the chunk's
    whole q-rows, n = 2^8 q + s with q >= 1, from the first q-row whose
    first n, 2^8 q, has 243 n >= 256 lo, up to the last whose last n, 2^8 q
    + 255, is at most word // 80. Its table holds each residue's first
    descent within 8 halvings, exact from q = 1 on (see
    test_descent_table_rows_match_trace), and the row is taken when that
    descent fits the cap and lands at lo or above."""
    q = n >> 8
    if not (q and first <= q << 8 and (q + 1) << 8 <= end and 243 * q >= lo
            and (q << 8) + 255 <= _survey._INT64_MAX // 80):
        return False
    steps, halvings, value, _ = first_descent(n)
    return halvings <= 8 and steps <= cap and value >= lo


def stepped_rows(lo, hi, cap, chunk):
    """The rows a survey in chunks of ``chunk`` rows, with a tail at least as
    long, hands to the exact stepper, in order: in each chunk the rows not
    pre-retired, then the pre-retired rows whose trajectory tops the cap,
    which step again from their inputs."""
    want = []
    for first in range(lo, hi + 1, chunk):
        end = min(first + chunk, hi + 1)
        rows = [(n, pre_retired(n, lo, cap, first, end)) for n in range(max(first, 2), end)]
        want += [n for n, retired in rows if not retired]
        want += [n for n, retired in rows if retired and collatz.trace(n).steps > cap]
    return want


def assert_stepped_rows(monkeypatch, lo, hi, rule, chunk):
    """With a tail at least as long as the chunk, each chunk hands all its
    lanes to the exact stepper before any round, so they are exactly the
    rows that were not pre-retired; then its pre-retired rows whose
    trajectory tops the cap step again from their inputs, in the tail too."""
    monkeypatch.setattr(_survey, "_CHUNK", chunk)
    monkeypatch.setattr(_survey, "_TAIL", max(chunk, _survey._TAIL))
    starts = spy_tail_starts(monkeypatch)
    collatz.survey(lo, hi, rule)
    assert starts == stepped_rows(lo, hi, rule.max_steps, chunk)


def spy_tail_starts(monkeypatch):
    """Record the start value of every lane the lockstep walks in its tail:
    the lockstep's one ``_walk`` site, called with floor 1 as its third
    positional argument (every other walk passes the guard there)."""
    starts, walk = [], _survey._walk

    def spy(*args, **kwargs):
        if len(args) == 3 and args[2] == 1 and not kwargs:
            starts.append(args[0])
        return walk(*args, **kwargs)

    monkeypatch.setattr(_survey, "_walk", spy)
    return starts


@pytest.mark.parametrize("chunk", [7, 256, 512, 768])
@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 6, 7, None])
@pytest.mark.parametrize("lo, hi", [(1, 300), (150, 420), (151, 420), (152, 700), (153, 420),
                                    (256, 1100), (385, 1300), (1000, 2300)])
def test_survey_pre_retired_rows_at_chunk_edges(monkeypatch, chunk, cap, lo, hi):
    # The grid takes a chunk's whole q-rows (2^8 rows), so 7-row chunks sieve
    # nothing, and 256-row chunks sieve only for lo = 0 mod 2^8. 512- and
    # 768-row chunks hold whole q-rows with q-row edges inside them, at
    # several offsets as lo moves (lo = 0 and 129 mod 2^8 among them), and
    # the grid's first q-row, from 243 q >= lo, falls inside a chunk for lo
    # = 1000. There T^i(n) straddles lo inside a q-row: the rows of a class
    # below it stay lanes. Caps 1-7 pass the fewest steps of the even rows
    # (1), of n = 1 mod 4 (3) and of n = 3 mod 4 (6); a class whose steps
    # top the cap stays a lane too.
    monkeypatch.setattr(_survey, "_CHUNK", chunk)
    rule = collatz.StopRule.at_one(*([cap] if cap else []))
    result = collatz.survey(lo, hi, rule)
    assert_rows_exact(result, range(len(result)))
    assert_descent_certificates(result)
    assert_stepped_rows(monkeypatch, lo, hi, rule, chunk)


@pytest.mark.parametrize("guard", [50_054, 50_108, 54_560, 54_588])
@pytest.mark.parametrize("chunk", [7, 256, 512, 768])
def test_survey_guard_cuts_the_pre_retired_rows(monkeypatch, guard, chunk):
    # The guard sets the word, 3 guard + 1, and so the grid's cut, word //
    # 80: 1,877, 1,879, 2,046 and 2,047. The grid starts at q-row 6 (243 q
    # >= 1,400), [1,536, 1,791], which 512- and 768-row chunks hold whole,
    # and only the cut at 2,047 lets a 768-row chunk take q-row 7, [1,792,
    # 2,047], as well. Rows past the cut stay lanes and step in the
    # lockstep, where trajectories go on excursions past the guard. The
    # guard is even, as for real.
    monkeypatch.setattr(_survey, "_INT64_MAX", 3 * guard + 1)
    monkeypatch.setattr(_survey, "_CHUNK", chunk)
    result = collatz.survey(1400, 2600)
    assert_rows_exact(result, range(len(result)))
    assert_big_placeholders(result, 3 * guard + 1)
    assert_descent_certificates(result)
    assert_stepped_rows(monkeypatch, 1400, 2600, result.rule, chunk)
    cap, last = result.rule.max_steps, min(1400 + chunk, 2601)
    sieved = [n for n in range(1400, 2601) if pre_retired(n, 1400, cap, 1400, last)]
    assert bool(sieved) == (chunk >= 512)
    assert (max(sieved, default=0) >= 1792) == (chunk == 768 and guard == 54_588)


@pytest.mark.parametrize("word", [None, (1 << 19) - 1])
def test_descent_table_rows_match_trace(monkeypatch, word):
    # Each row of the sieve's table against trace() of n = 2^8 q + s at q = 1,
    # q = 2 and the largest q whose q-row the grid takes below the word's
    # cut, word // 80, where the peak must also fit the word. Each condition
    # the row rests on (the values before T^i(n) at least n, T^i(n) below
    # it, A q + B the largest 3x + 1) is linear in q, so agreement at q = 1
    # and at the cut holds for every q between: the grid needs no least q. A
    # residue that reads zeros does not descend within 8 shortcut steps. The
    # shortcut step i of the first descent is its count of halvings. The
    # word moves only the cut; 2^19 - 1 is one of the scale model's words.
    if word:
        monkeypatch.setattr(_survey, "_INT64_MAX", word)
    word = _survey._INT64_MAX
    table = _survey._DESCENT.T.tolist()
    assert len(table) == 256 and {len(row) for row in table} == {6}
    top = ((word // 80 + 1) >> 8) - 1
    for s, row in enumerate(table):
        first, steps, c, t, a, b = row
        if not steps:
            assert row == [0] * 6 and first_descent((1 << 40) + s)[1] > 8, s
            continue
        for q in (1, 2, top):
            assert first_descent((q << 8) + s) == (steps, first, c * q + t, a * q + b), (s, q)
            assert a * q + b < word, (s, q)
    # The grid's gates: every even n descends to n / 2 in 1 step, every class
    # n = 1 mod 4 to (3n + 1) / 4 in 3 steps and 2 halvings, and every class
    # n = 3 mod 4 that descends does so in at least 6 steps; T^i(n) is at
    # most 243 q + t, and A < 16 * 2^8, so A q + B fits the word up to its
    # cut.
    assert all(row == [1, 1, 128, s >> 1, 256, s] for s, row in enumerate(table) if s % 2 == 0)
    ones = [row for s, row in enumerate(table) if s % 4 == 1]
    assert all(row[:3] == [2, 3, 192] and row[4] == 768 for row in ones)
    threes = [row for s, row in enumerate(table) if s % 4 == 3 and row[1]]
    assert len(threes) == 45 and min(row[1] for row in threes) == 6
    assert max(row[2] for row in table) == 243 and max(row[4] for row in table) < 16 << 8


@pytest.mark.parametrize("cap", [None, 13, 12])
def test_survey_word_cuts_the_sieve(monkeypatch, cap):
    # With the word lowered to 2^19 - 1 the grid stops at its cut, 6,553,
    # inside the dense range [5,830, 6,900]. It starts at q-row 24, [6,144,
    # 6,399] (243 q >= 5,830), which both chunk sizes hold whole; a 1024-row
    # chunk, [5,830, 6,853], holds q-row 25, [6,400, 6,655], whole too, but
    # the cut crosses it, so its rows whose first descent would qualify
    # step in the lockstep instead. Only the classes that descend to 243 q +
    # t, in 13 steps, land in this range from rows of the grid or past the
    # cut (216 q + t needs q >= 27, and the rest land lower), so cap 12
    # sieves no row.
    word, lo, hi = (1 << 19) - 1, 5_830, 6_900
    monkeypatch.setattr(_survey, "_INT64_MAX", word)
    rule = collatz.StopRule.at_one(*([cap] if cap else []))
    for chunk in (768, 1024):
        monkeypatch.setattr(_survey, "_CHUNK", chunk)
        result = collatz.survey(lo, hi, rule)
        assert_rows_exact(result, range(len(result)))
        assert_big_placeholders(result, word)
        assert_descent_certificates(result)
        assert_stepped_rows(monkeypatch, lo, hi, rule, chunk)
        sieved = [n for n in range(lo, hi + 1)
                  if pre_retired(n, lo, rule.max_steps, lo, min(lo + chunk, hi + 1))]
        cut = [n for n in range(word // 80 + 1, hi + 1) if n % 2
               and (d := first_descent(n))[1] <= 8 and d[0] <= rule.max_steps and d[2] >= lo]
        assert bool(sieved) == bool(cut) == (rule.max_steps >= 13)
        assert all(6_144 <= n <= 6_399 for n in sieved)


@pytest.mark.parametrize("word, lo, hi", [((1 << 11) - 1, 700, 2100), ((1 << 13) - 1, 3000, 8500)])
@pytest.mark.parametrize("chunk", [64, 512, 1 << 16])
def test_survey_ranges_hold_n_and_2n_past_the_word(monkeypatch, word, lo, hi, chunk):
    # An input past the word reads the word in ``peaks``, as 2^63 - 1 does at
    # the real word, and its lane starts from its exact input. The grid
    # stops at word // 80 and reads no input, so a range may hold both n and
    # 2n past the word: its lane descends to n, and n's row is exact.
    monkeypatch.setattr(_survey, "_INT64_MAX", word)
    monkeypatch.setattr(_survey, "_CHUNK", chunk)
    for rule in (collatz.StopRule.at_one(), collatz.StopRule.on_repeat()):
        result = collatz.survey(lo, hi, rule)
        assert_rows_exact(result, range(len(result)))
        assert_big_placeholders(result, word)


def test_survey_merge_rounds_on_dense_ranges_and_windows(monkeypatch):
    # A merge round comes every 32 rounds (each one shortcut step). In a
    # dense range such as [1, 10^6] at least an eighth of the live lanes
    # retire in each 32 rounds, so it never merges lanes. Windows retire few
    # lanes and merge at their own pace: over the benchmark's exact_wide
    # windows at seed 1, 39 of the rounds merge.
    rounds = []
    keep = _survey._keep

    def spy(index, *columns):
        if index.dtype != bool:  # a merge keeps its leaders by index
            rounds.append(index.size)
        return keep(index, *columns)

    monkeypatch.setattr(_survey, "_keep", spy)
    assert_descent_certificates(collatz.survey(1, 10**6))
    assert rounds == []
    for lo in (2000264931193, 13652651775475, 90369518052770, 698049293593410,
               6919942724769661, 48847406005547136, 328055372778564155, 2593422061856511112):
        collatz.survey(lo, lo + 4095)
    assert len(rounds) == 39


# ------------------------------------------------ one shortcut step a round


def caps_between_r_and_l(n, count):
    """``count`` step caps spread over n's trajectory, each falling between
    an R and the L after it."""
    text = collatz.trace(n).trace
    cuts = [i + 1 for i, sym in enumerate(text) if sym == "R"]
    return cuts[::len(cuts) // count][:count]


@pytest.mark.parametrize("lo, hi, n", [(1, 400, 27), ((1 << 40) + 77, (1 << 40) + 376, (1 << 40) + 77),
                                       ((1 << 62) - 300, (1 << 62) - 1, (1 << 62) - 9)])
def test_survey_caps_between_the_r_and_the_l_of_a_shortcut_step(lo, hi, n):
    # A lockstep round takes an odd value's R and L at once; a cap that
    # falls between them stops the row at 3n + 1.
    for cap in [1, 2, 3, 4, *caps_between_r_and_l(n, 4)]:
        rule = collatz.StopRule.at_one(cap)
        result = collatz.survey(lo, hi, rule)
        assert_rows_exact(result, range(len(result)))
        assert_big_placeholders(result)
        if cap > 4:
            assert collatz.trace(n, rule).trace.endswith("R")


@pytest.mark.parametrize("cap", [None, 1, 2, 3, 60])
@pytest.mark.parametrize("guard", [2_000, 2_002, None])
def test_survey_lanes_at_the_int64_step_guard(monkeypatch, guard, cap):
    # Lanes start at guard - 2 ... guard + 2, so odd and even values sit on
    # both sides of the guard, and with no tail all of them step in the
    # lockstep: an odd value at or below the guard takes its R there, one
    # above it goes on an excursion. None keeps the real guard; a lowered
    # one is even, as the real one is.
    if guard:
        monkeypatch.setattr(_survey, "_INT64_MAX", 3 * guard + 1)
    monkeypatch.setattr(_survey, "_TAIL", 0)
    guard = (_survey._INT64_MAX - 1) // 3
    result = collatz.survey(guard - 2, guard + 2, collatz.StopRule.at_one(*([cap] if cap else [])))
    assert_rows_exact(result, range(len(result)))
    assert_big_placeholders(result, _survey._INT64_MAX)


@pytest.mark.parametrize("chunk", [7, 64])
@pytest.mark.parametrize("lo, hi", [(1, 300), (100, 420), ((1 << 62) - 200, 1 << 62)])
def test_survey_shortcut_rounds_at_chunk_edges(monkeypatch, chunk, lo, hi):
    # With no tail every lane of a 7- or 64-row chunk steps in the
    # lockstep, so small caps and caps between an R and its L retire
    # lanes at chunk edges; in the dense ranges rows also descend into
    # earlier chunks.
    monkeypatch.setattr(_survey, "_CHUNK", chunk)
    monkeypatch.setattr(_survey, "_TAIL", 0)
    for cap in [None, 1, 2, 3, 4, *caps_between_r_and_l(lo + 26, 3)]:
        result = collatz.survey(lo, hi, collatz.StopRule.at_one(*([cap] if cap else [])))
        assert_rows_exact(result, range(len(result)))
        assert_big_placeholders(result)


# ------------------------------------------------ lanes parked past the guard

# A lowered word: odd values past its guard (2,000) park, and the walk's
# block threshold 2^8 (guard + 1) is 512,256.
PARK_GUARD = 2_000
PARK_WORD = 3 * PARK_GUARD + 1


def spy_walks(monkeypatch):
    """Record (start, budget, floor) of every ``_walk`` call of the survey."""
    calls, walk = [], _survey._walk

    def spy(n, budget, floor):
        calls.append((n, budget, floor))
        return walk(n, budget, floor)

    monkeypatch.setattr(_survey, "_walk", spy)
    return calls


def parked_r_caps(n, guard, count):
    """``count`` step caps spread over the R steps that n's trajectory takes
    at values past ``guard``, each falling between that R and its L."""
    cur, cuts = n, []
    for i, sym in enumerate(collatz.trace(n).trace):
        if sym == "R" and cur > guard:
            cuts.append(i + 1)
        cur = 3 * cur + 1 if sym == "R" else cur >> 1
    return cuts[::max(1, len(cuts) // count)][:count]


@pytest.mark.parametrize("tail", [64, 256])
@pytest.mark.parametrize("cap", [None, 200])
def test_survey_tail_begins_while_lanes_are_parked(monkeypatch, tail, cap):
    # With the tail raised, lanes are still parked when it begins, and each
    # walks to 1 or the cap from its exact value: a start past the word,
    # where no int64 lane and no input of the range is, is a parked value.
    monkeypatch.setattr(_survey, "_INT64_MAX", PARK_WORD)
    monkeypatch.setattr(_survey, "_TAIL", tail)
    starts = spy_tail_starts(monkeypatch)
    result = collatz.survey(1, 3000, collatz.StopRule.at_one(*([cap] if cap else [])))
    assert_rows_exact(result, range(len(result)))
    assert_big_placeholders(result, PARK_WORD)
    assert any(start > PARK_WORD for start in starts)


def test_survey_cap_falls_while_lanes_are_parked(monkeypatch):
    # Once the cap is within reach, every parked lane walks from its exact
    # value with the guard as floor and the steps it has left, then the cap
    # check runs: also for caps that fall between an R taken while parked
    # and its L.
    monkeypatch.setattr(_survey, "_INT64_MAX", PARK_WORD)
    calls = spy_walks(monkeypatch)
    caps = [1, 2, 3, 40, 100, *parked_r_caps(2_919, PARK_GUARD, 4)]
    assert len(caps) == 9
    for cap in caps:
        calls.clear()
        result = collatz.survey(1, 3000, collatz.StopRule.at_one(cap))
        assert_rows_exact(result, range(len(result)))
        assert_big_placeholders(result, PARK_WORD)
        if cap >= 40:
            assert any(floor == PARK_GUARD and n > PARK_WORD for n, _, floor in calls)


def test_survey_merges_leave_parked_lanes_alone(monkeypatch):
    # A parked lane's slot holds 0: it is in no merge group, as follower or
    # leader, and the big ranking skips it, since its peak is not final.
    monkeypatch.setattr(_survey, "_INT64_MAX", PARK_WORD)
    groups, keep = [], _survey._keep

    def spy(index, lane, span, cur, top, halves, ahead):
        if index.dtype != bool:  # a merge keeps its leaders by index
            kept = set(index.tolist())
            zero = np.nonzero(cur == 0)[0].tolist()
            groups.append((len(zero), all(i in kept for i in zero),
                           all(cur[i] != 0 for i in range(lane.size) if i not in kept)))
        return keep(index, lane, span, cur, top, halves, ahead)

    monkeypatch.setattr(_survey, "_keep", spy)
    for lo, hi, cap in [(200_001, 201_000, None), (100_000, 101_499, 120), (4_001, 6_000, None)]:
        result = collatz.survey(lo, hi, collatz.StopRule.at_one(*([cap] if cap else [])))
        assert_rows_exact(result, range(len(result)))
        assert_big_placeholders(result, PARK_WORD)
    assert any(parked for parked, _, _ in groups)
    assert all(kept and moved for _, kept, moved in groups)


@pytest.mark.parametrize("lo, hi", [(1, 3000), (200_001, 201_000), (600_001, 601_000)])
def test_survey_walks_only_past_the_block_threshold(monkeypatch, lo, hi):
    # Uncapped, outside the tail, a lane walks only from a value at or past
    # the block threshold, where 8-step blocks take it down to the guard;
    # every other excursion parks and steps in the rounds. [600,001,
    # 601,000] starts past the threshold, so every lane walks first.
    monkeypatch.setattr(_survey, "_INT64_MAX", PARK_WORD)
    monkeypatch.setattr(_survey, "_TAIL", 0)
    calls = spy_walks(monkeypatch)
    result = collatz.survey(lo, hi)
    assert_rows_exact(result, range(len(result)))
    assert_big_placeholders(result, PARK_WORD)
    block = (PARK_GUARD + 1) << 8
    assert all(n >= block and floor == PARK_GUARD for n, _, floor in calls)
    assert len(calls) >= (hi - lo + 1 if lo > block else 0)
    assert len(result.big_peaks) > 500


# ------------------------------------------------ a scale model of the kernel


def scale_model(seed):
    """Kernel constants, a range and a rule drawn from ``seed``. The word is
    2^B - 1 for an odd B in 11-25, so the guard (2^B - 2) / 3 is even and an
    input past the word is an odd placeholder, as at B = 63; the rare paths
    of the kernel (excursions, big rows, inputs past the word, all-big merge
    groups and capped leaders) then fire in ranges of a few thousand rows.
    No range holds both n and 2n with 2n past the word, as at B = 63 no
    range of RANGE_CAP rows can; the kernel needs no such bound (see
    test_survey_ranges_hold_n_and_2n_past_the_word), but the draws keep it,
    so that each seed keeps its case."""
    rng = random.Random(seed)
    word = (1 << rng.randrange(11, 26, 2)) - 1
    constants = {"_INT64_MAX": word, "_CHUNK": rng.choice([7, 64, 512, 1 << 16]),
                 "_RANK": rng.choice(RANKS), "_TAIL": rng.choice([0, 1, 32, 256])}
    lo = max(1, rng.choice([1, rng.randint(1, word), word + rng.randint(-3000, 3000)]))
    hi = lo + rng.randint(0, 2999)
    if hi > word:
        lo = max(lo, hi // 2 + 1)
    cap = rng.choice([None, int(2 ** rng.uniform(0, 17))])
    mode = rng.choice(list(collatz.StopMode))
    return constants, lo, hi, collatz.StopRule(mode, cap or collatz.DEFAULT_MAX_STEPS)


@pytest.mark.parametrize("seed", [*range(24), 85, 121, 206, 1561, 2280])
def test_survey_scale_model(monkeypatch, seed):
    # Seeds 0-23, with 85, 121 and 206, the first three to catch the kernel
    # without the deletion of a redone row's stale big_peaks entry, and 1561
    # and 2280, the only two of 0-2999 to catch it without the reset of the
    # redone rows' stop codes. No real-scale case catches either.
    constants, lo, hi, rule = scale_model(seed)
    for name, value in constants.items():
        monkeypatch.setattr(_survey, name, value)
    result = collatz.survey(lo, hi, rule)
    assert_rows_exact(result, range(len(result)))
    assert_big_placeholders(result, constants["_INT64_MAX"])
    assert_descent_certificates(result)
