import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchtrace import bounds, collatz
from branchtrace.errors import DomainError, ResourceError

import oracles


def test_description_bits_examples():
    assert bounds.description_bits(1) == 1
    assert bounds.description_bits(2) == 2
    assert bounds.description_bits(10 * 2**58) == 62


@given(st.integers(min_value=1, max_value=10**30))
def test_description_bits_matches_binary_length(n):
    assert bounds.description_bits(n) == len(bin(n)) - 2


@given(st.integers(min_value=1, max_value=200))
def test_description_bits_power_boundaries(k):
    assert bounds.description_bits(2**k) == k + 1
    assert bounds.description_bits(2**k - 1) == k


@pytest.mark.parametrize("bad", [0, -5, 1.0, "3", True])
def test_description_bits_rejects_non_naturals(bad):
    with pytest.raises(DomainError):
        bounds.description_bits(bad)


def test_paths_at_depth_examples():
    assert bounds.paths_at_depth(0) == 1
    assert bounds.paths_at_depth(1) == 2
    assert bounds.paths_at_depth(2) == 4


@given(st.integers(min_value=0, max_value=300))
def test_paths_double_per_level(d):
    assert bounds.paths_at_depth(d + 1) == 2 * bounds.paths_at_depth(d)


def test_paths_rejects_negative_depth():
    with pytest.raises(DomainError):
        bounds.paths_at_depth(-1)


def test_composition_labels_depth_two():
    assert bounds.composition_labels(2) == [
        ("ff", "LL"),
        ("fg", "LR"),
        ("gf", "RL"),
        ("gg", "RR"),
    ]


def test_composition_labels_depth_zero():
    assert bounds.composition_labels(0) == [("", "")]


@given(st.integers(min_value=0, max_value=8))
def test_composition_labels_enumeration(d):
    labels = bounds.composition_labels(d)
    assert len(labels) == bounds.paths_at_depth(d)
    words = [word for word, _ in labels]
    assert len(set(words)) == len(words)
    assert words == sorted(words)
    for word, branch in labels:
        assert branch == word.replace("f", "L").replace("g", "R")


def test_composition_labels_depth_cap():
    with pytest.raises(DomainError):
        bounds.composition_labels(bounds.MAX_LABEL_DEPTH + 1)


def test_bound_report_single_input():
    report = bounds.bound_report(1, 1)
    assert report.total_bits == 1
    assert report.total_symbols == 0
    assert report.violations == ()
    assert report.capped == ()
    assert report.mean_trace_len == 0.0
    assert report.log2_set_size == 0.0
    assert list(report.records()) == [bounds.BoundRecord(1, 1, 0, 0)]


def test_bound_report_first_ten():
    report = bounds.bound_report(1, 10)
    assert report.total_symbols == 67
    assert report.total_bits == sum(n.bit_length() for n in range(1, 11))
    assert [rec.r_symbols for rec in report.records()] == [
        oracles.hailstone(n)["steps"] for n in range(1, 11)
    ]
    assert report.violations == ()


def test_bound_report_aggregates_match_records():
    report = bounds.bound_report(50, 3000)
    recs = list(report.records())
    assert report.total_bits == sum(r.b_bits for r in recs)
    assert report.total_symbols == sum(r.r_symbols for r in recs)
    assert len(report) == len(recs) == 2951


def test_bound_report_capped_inputs_are_excluded():
    report = bounds.bound_report(1, 10, max_steps=3)
    # Only 1, 2, 4, and 8 reach 1 within three steps.
    assert [rec.n for rec in report.records()] == [1, 2, 4, 8]
    assert set(report.capped) == {3, 5, 6, 7, 9, 10}
    assert report.total_symbols == 0 + 1 + 2 + 3
    assert report.mean_trace_len == pytest.approx(6 / 4)


def test_bound_report_halvings_dominate_description():
    report = bounds.bound_report(2, 4096)
    assert report.violations == ()
    recs = list(report.records())
    assert all(r.l_count >= r.b_bits - 1 for r in recs)
    assert report.mean_trace_len > report.log2_set_size


def test_bound_report_range_validation():
    with pytest.raises(DomainError):
        bounds.bound_report(0, 4)
    with pytest.raises(DomainError):
        bounds.bound_report(9, 2)
    with pytest.raises(ResourceError):
        bounds.bound_report(1, bounds.RANGE_CAP + 1)


def test_bound_report_beyond_int64_inputs():
    lo = (1 << 62) + 1
    report = bounds.bound_report(lo, lo + 1, max_steps=2000)
    refs = {n: collatz.trace(n, collatz.StopRule.at_one(2000)) for n in (lo, lo + 1)}
    reached = [
        n for n, ref in refs.items()
        if ref.stop_reason is collatz.StopReason.REACHED_ONE
    ]
    assert [rec.n for rec in report.records()] == reached
    assert sorted(report.capped) == sorted(set(refs) - set(reached))
    for rec in report.records():
        assert rec.b_bits == rec.n.bit_length() == 63
        assert rec.r_symbols == refs[rec.n].steps
        assert rec.l_count == refs[rec.n].l_count


@pytest.mark.parametrize("lo, hi", [
    ((1 << 40) - 3, (1 << 40) + 3),
    ((1 << 62) - 3, 1 << 62),
    ((1 << 62) - 3, (1 << 62) + 3),
    ((1 << 63) - 7, (1 << 63) - 1),
    ((1 << 63) - 3, (1 << 63) + 3),
    ((1 << 70) - 3, (1 << 70) + 3),
])
def test_bound_report_across_power_of_two_edges(lo, hi):
    report = bounds.bound_report(lo, hi)
    # n stays int64 while int64 holds every input, up to 2^63 - 1.
    assert report.n.dtype == (np.int64 if hi <= (1 << 63) - 1 else object)
    assert report.b_bits.dtype == np.int64
    assert [rec.n for rec in report.records()] == list(range(lo, hi + 1))
    for rec in report.records():
        ref = collatz.trace(rec.n)
        assert rec.b_bits == rec.n.bit_length()
        assert (rec.r_symbols, rec.l_count) == (ref.steps, ref.l_count)
    assert report.total_bits == sum(n.bit_length() for n in range(lo, hi + 1))


@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=0, max_value=30))
def test_bound_report_rows_match_trajectories(lo, span):
    report = bounds.bound_report(lo, lo + span)
    for rec in report.records():
        ref = oracles.hailstone(rec.n)
        assert rec.r_symbols == ref["steps"]
        assert rec.l_count == ref["l_count"]
        assert rec.b_bits == rec.n.bit_length()
