import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchtrace import randstat
from branchtrace.errors import DomainError
from branchtrace.prng import XorShift64Star

import oracles

bitstrings = st.text(alphabet="01", min_size=1, max_size=400)


# ---------------------------------------------------------------- entropy


def test_entropy_examples():
    assert randstat.shannon_entropy("LLLL") == 0.0
    assert randstat.shannon_entropy("LLRR") == 1.0
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert randstat.shannon_entropy("LLLR") == pytest.approx(expected, abs=1e-12)


def test_entropy_accepts_arrays_and_symbol_lists():
    assert randstat.shannon_entropy(np.array([0, 1, 0, 1], dtype=np.uint8)) == 1.0
    assert randstat.shannon_entropy(["a", "b", "c", "d"]) == 2.0


def test_entropy_rejects_empty():
    with pytest.raises(DomainError):
        randstat.shannon_entropy("")
    with pytest.raises(DomainError):
        randstat.shannon_entropy(np.array([], dtype=np.uint8))


@given(bitstrings)
def test_entropy_matches_oracle(text):
    assert randstat.shannon_entropy(text) == pytest.approx(
        oracles.entropy(text), abs=1e-12
    )


@given(bitstrings)
def test_entropy_reversal_and_relabel_invariance(text):
    h = randstat.shannon_entropy(text)
    assert randstat.shannon_entropy(text[::-1]) == pytest.approx(h, abs=1e-12)
    swapped = text.translate(str.maketrans("01", "10"))
    assert randstat.shannon_entropy(swapped) == pytest.approx(h, abs=1e-12)


# ---------------------------------------------------------------- monobit


def test_monobit_balanced_stream_passes():
    rep = randstat.monobit("01" * 50)
    assert rep.statistic == 0.0
    assert rep.p_value == 1.0
    assert rep.passed


def test_monobit_extreme_imbalance_fails():
    rep = randstat.monobit("1" * 100)
    assert rep.statistic == 10.0
    assert rep.p_value < 1e-20
    assert not rep.passed


def test_monobit_known_statistic():
    # 60 ones, 40 zeros: S = 20, statistic 2.0, p = erfc(sqrt(2)).
    rep = randstat.monobit("1" * 60 + "0" * 40)
    assert rep.statistic == pytest.approx(2.0, abs=1e-12)
    assert rep.p_value == pytest.approx(math.erfc(2.0 / math.sqrt(2.0)), abs=1e-12)


def test_monobit_minimum_length():
    with pytest.raises(DomainError):
        randstat.monobit("01" * 49)


# ------------------------------------------------------------------ runs


def test_runs_alternating_fails_with_max_runs():
    rep = randstat.runs_test("01" * 50)
    assert rep.statistic == 100.0
    assert rep.p_value < 0.01
    assert not rep.passed
    assert rep.note == ""


def test_runs_two_blocks_fail():
    rep = randstat.runs_test("1" * 50 + "0" * 50)
    assert rep.statistic == 2.0
    assert not rep.passed


def test_runs_prerequisite_failure_is_reported_not_raised():
    rep = randstat.runs_test("1" * 99 + "0")
    assert rep.p_value == 0.0
    assert not rep.passed
    assert "prerequisite" in rep.note


def test_runs_minimum_length():
    with pytest.raises(DomainError):
        randstat.runs_test("01" * 10)


def test_runs_passes_on_generator_stream():
    rep = randstat.runs_test(XorShift64Star(5).bits(4096))
    assert rep.passed


# ---------------------------------------------------------------- serial


def test_serial_single_pattern_fails():
    rep = randstat.serial_test("01" * 400, 2)
    assert rep.statistic == 1200.0
    assert rep.p_value < 1e-100
    assert not rep.passed


def test_serial_perfectly_uniform_blocks():
    rep = randstat.serial_test("00011011" * 100, 2)
    assert rep.statistic == 0.0
    assert rep.p_value == 1.0
    assert rep.passed


def test_serial_discards_trailing_partial_block():
    base = "00011011" * 100
    rep_even = randstat.serial_test(base, 2)
    rep_odd = randstat.serial_test(base + "1", 2)
    assert rep_even.statistic == rep_odd.statistic


def test_serial_validation():
    with pytest.raises(DomainError):
        randstat.serial_test("01" * 400, 5)
    with pytest.raises(DomainError):
        randstat.serial_test("01" * 100, 3)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_serial_passes_on_generator_stream(k):
    rep = randstat.serial_test(XorShift64Star(11).bits(4096), k)
    assert rep.passed
    assert rep.test_name == f"serial_k{k}"


# --------------------------------------------------------------- battery


def test_battery_composition_and_order():
    reports = randstat.battery(XorShift64Star(3).bits(4096))
    assert [r.test_name for r in reports] == [
        "monobit",
        "runs",
        "serial_k2",
        "serial_k3",
        "serial_k4",
    ]


def test_battery_custom_alpha_is_recorded():
    reports = randstat.battery(XorShift64Star(3).bits(4096), alpha=0.2)
    assert all(r.alpha == 0.2 for r in reports)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 2.0, math.nan], ids=repr)
def test_alpha_outside_open_unit_interval_is_refused(alpha):
    bits = XorShift64Star(3).bits(4096)
    for test in (randstat.monobit, randstat.runs_test, randstat.battery,
                 lambda stream, a: randstat.serial_test(stream, 2, a)):
        with pytest.raises(DomainError):
            test(bits, alpha)
    with pytest.raises(DomainError):
        randstat.TestReport("x", 0.0, 0.5, alpha, 0.5 >= alpha)


# ---------------------------------------------------------- report type


def test_report_invariant_enforced():
    with pytest.raises(DomainError):
        randstat.TestReport("x", 0.0, 0.5, 0.01, False)
    with pytest.raises(DomainError):
        randstat.TestReport("x", 0.0, 1.5, 0.01, True)


@given(bitstrings.filter(lambda s: len(s) >= 100))
def test_all_p_values_in_range(text):
    for rep in (randstat.monobit(text), randstat.runs_test(text)):
        assert 0.0 <= rep.p_value <= 1.0
        assert rep.passed == (rep.p_value >= rep.alpha)


# ----------------------------------------------------------- input forms


def test_streams_normalize_identically():
    text = "0110" * 50
    as_list = [int(c) for c in text]
    as_array = np.array(as_list, dtype=np.int64)
    as_bools = np.array([c == "1" for c in text])
    reference = randstat.monobit(text).p_value
    for stream in (as_list, as_array, as_bools):
        assert randstat.monobit(stream).p_value == reference


def test_bad_streams_rejected():
    with pytest.raises(DomainError):
        randstat.monobit(np.ones((10, 10), dtype=np.uint8))
    with pytest.raises(DomainError):
        randstat.monobit(np.zeros(0, dtype=np.uint8))


# Streams holding something other than 0 and 1: a character outside ASCII or
# below '0' included.
BAD_BITS = ["0 1", "0/1", "012", "01\x00", "0é1", "01\ud800", [0, 2], [-1, 0], [0.0, 1.0]]


@pytest.mark.parametrize("test", [randstat.monobit, randstat.runs_test,
                                  lambda stream: randstat.serial_test(stream, 2)],
                         ids=["monobit", "runs", "serial"])
@pytest.mark.parametrize("bad", BAD_BITS, ids=repr)
def test_bad_bits_rejected_by_every_test(test, bad):
    # Long enough for each test, so the bit check is what refuses it.
    with pytest.raises(DomainError, match="^bit stream"):
        test(bad * 400)


# -------------------------------------------------------------- avalanche


def test_avalanche_identity_function():
    rep = randstat.avalanche(lambda b: b, input_len=16, trials=100, seed=9)
    assert rep.mean == pytest.approx(1.0 / 128.0, abs=1e-15)
    assert all(f == 1.0 / 128.0 for f in rep.fractions)


def test_avalanche_constant_function():
    rep = randstat.avalanche(lambda b: b"\x00" * 8, input_len=16, trials=100, seed=9)
    assert rep.mean == 0.0
    rep = randstat.avalanche(lambda b: b"", input_len=16, trials=100, seed=9)
    assert rep.mean == 0.0 and set(rep.fractions) == {0.0}


def test_avalanche_deterministic_given_seed():
    fn = lambda b: bytes(x ^ 0xFF for x in b)
    a = randstat.avalanche(fn, input_len=8, trials=120, seed=4)
    b = randstat.avalanche(fn, input_len=8, trials=120, seed=4)
    assert a == b


def test_avalanche_validation():
    with pytest.raises(DomainError):
        randstat.avalanche(lambda b: b, input_len=8, trials=99, seed=0)
    with pytest.raises(DomainError):
        randstat.avalanche(lambda b: b, input_len=0, trials=100, seed=0)


def test_avalanche_propagates_function_errors():
    def broken(_):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        randstat.avalanche(broken, input_len=8, trials=100, seed=0)


def test_avalanche_rejects_varying_output_length():
    def varying(b):
        # Output length tracks input parity, so any single-bit flip
        # changes it.
        parity = sum(byte.bit_count() for byte in b) & 1
        return b[: 4 + parity]

    with pytest.raises(DomainError):
        randstat.avalanche(varying, input_len=8, trials=100, seed=0)
