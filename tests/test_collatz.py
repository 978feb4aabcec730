import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchtrace import collatz
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


def test_step_branches():
    assert collatz.step(4) == (2, "L")
    assert collatz.step(5) == (16, "R")


@pytest.mark.parametrize("bad", [0, -1, 1.5, "6", True, None])
def test_rejects_non_positive_inputs(bad):
    with pytest.raises(DomainError):
        collatz.trace(bad)
    with pytest.raises(DomainError):
        collatz.step(bad)


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


@given(st.integers(min_value=1, max_value=200_000))
def test_roundtrip_decode_inverts_trace(n):
    rec = collatz.trace(n)
    assert rec.stop_reason is collatz.StopReason.REACHED_ONE
    assert collatz.decode(rec.trace, rec.terminal) == n


@given(st.integers(min_value=1, max_value=200_000))
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
    assert result.steps.tolist() == [0, 1, 7, 2, 5, 8, 16, 3, 19, 6]
    assert result.max_steps() == 19
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
    targets = [descent(n)[0] for n in range(lo, hi + 1)]
    assert any(t < lo for t in targets) and any(t >= lo for t in targets)


def test_survey_chunk_edges_with_earlier_and_same_chunk_targets():
    chunk = collatz._CHUNK
    result = collatz.survey(1, 2 * chunk + 60)
    offsets = [*range(chunk - 60, chunk + 60), *range(2 * chunk - 60, 2 * chunk + 60)]
    assert_rows_exact(result, offsets)
    same = earlier = 0
    for offset in offsets:
        target = descent(1 + offset)[0] - 1
        if target // chunk == offset // chunk:
            same += 1
        else:
            earlier += 1
    assert same and earlier


@pytest.mark.parametrize("cap", [111, 110, 118, 117])
def test_survey_cap_at_a_descending_rows_total(cap):
    # With lo = 1 every row descends to a row in the range; 27 takes 111
    # steps in all and 97 takes 118.
    result = collatz.survey(1, 120, collatz.StopRule.at_one(cap))
    assert_rows_exact(result, range(len(result)))
    for n, total in ((27, 111), (97, 118)):
        assert (result.stop_codes[n - 1] == 0) == (cap >= total)


@pytest.mark.parametrize("hi", [1 << 62, (1 << 62) + 1])
def test_survey_window_at_the_int64_input_limit(hi):
    # hi = 2^62 is the last range on the int64 lanes; one more goes scalar.
    result = collatz.survey(hi - 40, hi)
    assert_rows_exact(result, range(len(result)))
    assert len(result.big_peaks) > 10


def test_survey_chains_through_big_peak_and_capped_rows(monkeypatch):
    # At real scale a row can only descend to a big-peak row in a range
    # wider than RANGE_CAP. Lowering the overflow guard, the int64 limit
    # (kept at 3x the guard, as for real) and the chunk puts diverted
    # lanes, big peaks and chains through them, to targets in the same
    # chunk and in earlier ones, inside a small dense range.
    guard, chunk = 2_000, 512
    monkeypatch.setattr(collatz, "_INT64_STEP_GUARD", guard)
    monkeypatch.setattr(collatz, "_INT64_MAX", 3 * guard)
    monkeypatch.setattr(collatz, "_CHUNK", chunk)
    for rule in (collatz.StopRule.at_one(), collatz.StopRule.at_one(60)):
        result = collatz.survey(1, 3000, rule)
        assert_rows_exact(result, range(len(result)))
        same_chunk = set()
        for offset in result.big_peaks:
            target, peak = descent(1 + offset)
            if peak <= guard and target - 1 in result.big_peaks:
                same_chunk.add((target - 1) // chunk == offset // chunk)
        assert same_chunk == {True, False}


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
