"""Every public integer parameter goes through ``errors.require_int``: a
bool, a float, a numeric string, a numpy integer or a value one below the
least allowed raises :class:`DomainError` (a ``ValueError``). Survey row
offsets alone take numpy integers, as their int. Seeds take any int. A
``mode`` must be a member of its enum, not the member's value; a stop
rule must be a ``StopRule`` and a rule 30 row a ``Row``."""

import numpy as np
import pytest

from branchtrace import bounds, collatz, dyncompose, randstat, rule30
from branchtrace.errors import DomainError
from branchtrace.prng import XorShift64Star

EXPAND = rule30.BoundaryMode.EXPAND_ZERO
WRAP = rule30.BoundaryMode.WRAP

# (name, call taking the value under test, least allowed value)
SITES = [
    ("collatz.trace:n", collatz.trace, 1),
    ("collatz.decode:terminal", lambda v: collatz.decode("", v), 1),
    ("collatz.replay:n", lambda v: collatz.replay(v, ""), 1),
    ("collatz.survey:lo", lambda v: collatz.survey(v, 10), 1),
    ("collatz.survey:hi", lambda v: collatz.survey(3, v), 3),
    ("collatz.StopRule:max_steps", lambda v: collatz.StopRule(collatz.StopMode.AT_ONE, v), 1),
    ("collatz.StopRule.at_one:max_steps", collatz.StopRule.at_one, 1),
    ("collatz.StopRule.on_repeat:max_steps", collatz.StopRule.on_repeat, 1),
    ("collatz.SurveyResult.record:offset", lambda v: collatz.survey(1, 10).record(v), 0),
    ("collatz.SurveyResult.peak_of:offset", lambda v: collatz.survey(1, 10).peak_of(v), 0),
    ("bounds.description_bits:n", bounds.description_bits, 1),
    ("bounds.paths_at_depth:d", bounds.paths_at_depth, 0),
    ("bounds.composition_labels:d", bounds.composition_labels, 0),
    ("bounds.bound_report:lo", lambda v: bounds.bound_report(v, 10), 1),
    ("bounds.bound_report:hi", lambda v: bounds.bound_report(3, v), 3),
    ("rule30.Row:width", lambda v: rule30.Row(v, 1), 1),
    ("rule30.Row:bits", lambda v: rule30.Row(3, v), 0),
    ("rule30.Row.single:width", rule30.Row.single, 1),
    ("rule30.Row.cell:i", lambda v: rule30.Row.from01("10110").cell(v), 0),
    ("rule30.evolve:steps", lambda v: rule30.evolve(rule30.Row.single(), v, EXPAND), 0),
    ("rule30.center_column:steps",
     lambda v: rule30.center_column(rule30.Row.single(), v, EXPAND), 0),
    ("rule30.random_row:width", lambda v: rule30.random_row(v, 0), 1),
    ("dyncompose.trace_length:message_len", dyncompose.trace_length, 0),
    ("randstat.avalanche:input_len", lambda v: randstat.avalanche(bytes, v, 100, 0), 1),
    ("randstat.avalanche:trials", lambda v: randstat.avalanche(bytes, 1, v, 0), 100),
    ("randstat.serial_test:k", lambda v: randstat.serial_test("01" * 200, v), 2),
    ("prng.bits:count", lambda v: XorShift64Star(1).bits(v), 0),
    ("prng.bytes:count", lambda v: XorShift64Star(1).bytes(v), 0),
    ("prng.below:bound", lambda v: XorShift64Star(1).below(v), 1),
]


# Each bad value, given the least allowed one.
BAD = {
    "True": lambda least: True,
    "2.0": lambda least: 2.0,
    "'3'": lambda least: "3",
    "least-1": lambda least: least - 1,
}


@pytest.mark.parametrize("call,least", [pytest.param(call, least, id=name)
                                        for name, call, least in SITES])
@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
def test_public_integer_parameters_reject_non_ints(call, least, bad):
    with pytest.raises(DomainError):
        call(bad(least))
    call(least)  # the least allowed value is accepted


def test_survey_offsets_take_numpy_integers():
    # The offsets np.nonzero gives, here of a row whose peak tops int64.
    result = collatz.survey(2**62, 2**62 + 50)
    offset = np.nonzero(result.peaks == 2**63 - 1)[0][0]
    assert isinstance(offset, np.integer)
    assert result.peak_of(offset) == result.big_peaks[int(offset)] > 2**63 - 1
    assert result.record(offset) == result.record(int(offset))
    assert type(result.record(np.uint8(3)).n) is int
    for bad in (np.bool_(True), np.int64(-1), np.int64(len(result))):
        with pytest.raises(DomainError):
            result.peak_of(bad)
        with pytest.raises(DomainError):
            result.record(bad)


@pytest.mark.parametrize("call,least", [pytest.param(call, least, id=name)
                                        for name, call, least in SITES
                                        if not name.startswith("collatz.SurveyResult")])
def test_numpy_integers_are_refused_where_arithmetic_is_exact(call, least):
    with pytest.raises(DomainError):
        call(np.int64(least))


def test_survey_offsets_past_the_range_are_refused():
    result = collatz.survey(1, 10)
    for offset in (len(result), 1 << 70):
        with pytest.raises(DomainError):
            result.record(offset)
        with pytest.raises(DomainError):
            result.peak_of(offset)
    assert result.record(len(result) - 1).n == 10


# (name, call taking the mode under test, the mode's enum)
MODE_SITES = [
    ("collatz.StopRule:mode", collatz.StopRule, collatz.StopMode),
    ("rule30.evolve:mode", lambda m: rule30.evolve(rule30.Row.single(5), 4, m),
     rule30.BoundaryMode),
    ("rule30.center_column:mode", lambda m: rule30.center_column(rule30.Row.single(), 8, m),
     rule30.BoundaryMode),
    ("rule30.step_row:mode", lambda m: rule30.step_row(rule30.Row.single(5), m),
     rule30.BoundaryMode),
]


@pytest.mark.parametrize("call,kind", [pytest.param(call, kind, id=name)
                                       for name, call, kind in MODE_SITES])
def test_modes_reject_non_members(call, kind):
    # Each member's value, None, and each member of the other mode enum.
    other = rule30.BoundaryMode if kind is collatz.StopMode else collatz.StopMode
    for bad in [*(member.value for member in kind), None, *other]:
        with pytest.raises(DomainError):
            call(bad)
    for member in kind:
        call(member)


# (name, call taking the object under test, a valid object, objects it refuses)
RULES = (collatz.StopMode.AT_ONE, "one", 0, True)
ROWS = ("101", 5)
OBJECT_SITES = [
    ("collatz.trace:rule", lambda r: collatz.trace(7, r), collatz.StopRule(), RULES),
    ("collatz.survey:rule", lambda r: collatz.survey(1, 10, r), collatz.StopRule(), RULES),
    ("rule30.center_column:initial", lambda r: rule30.center_column(r, 3, WRAP),
     rule30.Row.from01("101"), ROWS),
    ("rule30.step_row:row", lambda r: rule30.step_row(r, WRAP), rule30.Row.from01("101"), ROWS),
    ("rule30.evolve:initial", lambda r: rule30.evolve(r, 2, WRAP), rule30.Row.from01("1"), ROWS),
    ("rule30.Row.from01:text", rule30.Row.from01, "01", (["0", "1"], 5)),
]


@pytest.mark.parametrize("call,good,bad", [pytest.param(call, good, bad, id=name)
                                           for name, call, good, bad in OBJECT_SITES])
def test_rules_and_rows_reject_other_objects(call, good, bad):
    for value in bad:
        with pytest.raises(DomainError):
            call(value)
    call(good)


# (name, call taking the seed under test)
SEED_SITES = [
    ("prng.XorShift64Star:seed", XorShift64Star),
    ("rule30.random_row:seed", lambda v: rule30.random_row(5, v)),
    ("randstat.avalanche:seed", lambda v: randstat.avalanche(bytes, 1, 100, v)),
]


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in SEED_SITES])
@pytest.mark.parametrize("bad", [True, 2.0, "3", None], ids=repr)
def test_seeds_reject_non_ints(call, bad):
    with pytest.raises(DomainError):
        call(bad)
    for seed in (-1, 0, 1 << 70):  # any int: seeds are masked to 64 bits
        call(seed)
