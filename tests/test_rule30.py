import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchtrace import rule30
from branchtrace.errors import DomainError, ResourceError
from branchtrace.rule30 import BoundaryMode, Row

import oracles

rows01 = st.text(alphabet="01", min_size=1, max_size=40)


def as_cells(row: Row) -> list[int]:
    return [row.cell(i) for i in range(row.width)]


@pytest.mark.parametrize("left", [0, 1])
@pytest.mark.parametrize("center", [0, 1])
@pytest.mark.parametrize("right", [0, 1])
def test_truth_table_every_neighborhood(left, center, right):
    # Width-3 wrap makes the middle cell's neighborhood exactly (l, c, r).
    row = Row.from_bits([left, center, right])
    stepped = rule30.step_row(row, BoundaryMode.WRAP)
    assert stepped.cell(1) == oracles.TRUTH_TABLE[left, center, right]


def test_wrap_step_example():
    row = Row.from01("00100")
    assert rule30.step_row(row, BoundaryMode.WRAP).to01() == "01110"


def test_expand_rows_from_single_cell():
    grid = rule30.evolve(Row.single(), 4, BoundaryMode.EXPAND_ZERO)
    assert [r.to01() for r in grid.rows] == [
        "1",
        "111",
        "11001",
        "1101111",
        "110010001",
    ]


def test_expand_matches_oracle_64_generations():
    grid = rule30.evolve(Row.single(), 64, BoundaryMode.EXPAND_ZERO)
    ref = oracles.automaton_run([1], 64, wrap=False)
    assert [as_cells(r) for r in grid.rows] == ref


def test_wrap_matches_oracle():
    row = rule30.random_row(33, 7)
    grid = rule30.evolve(row, 48, BoundaryMode.WRAP)
    ref = oracles.automaton_run(as_cells(row), 48, wrap=True)
    assert [as_cells(r) for r in grid.rows] == ref


def test_grid_shape():
    grid = rule30.evolve(Row.single(5), 3, BoundaryMode.EXPAND_ZERO)
    assert grid.height == 4
    assert [r.width for r in grid.rows] == [5, 7, 9, 11]
    wrap = rule30.evolve(Row.single(5), 3, BoundaryMode.WRAP)
    assert all(r.width == 5 for r in wrap.rows)


def test_center_column_first_bits():
    col = rule30.center_column(Row.single(), 3, BoundaryMode.EXPAND_ZERO)
    assert col.tolist() == [1, 1, 0, 1]


# Step counts around the interval of the EXPAND_ZERO light-cone trim.
_K = rule30._TRIM_EVERY
CENTER_STEPS = (0, 1, 2, 12, _K - 1, _K, _K + 1, 2 * _K + 1)


@pytest.mark.parametrize("mode", [BoundaryMode.WRAP, BoundaryMode.EXPAND_ZERO])
def test_center_column_matches_grid(mode):
    # evolve and step_row too, down to widths 1 and 2.
    wrap = mode is BoundaryMode.WRAP
    if wrap:
        initials = [rule30.random_row(w, s) for w in (1, 2, 3, 9, 1024) for s in (3, 4)]
    else:
        initials = [Row.single(), Row.single(9)] + [
            rule30.random_row(w, s) for w in (1, 2, 3, 64, 301) for s in (3, 4)]
    for initial in initials:
        rows = oracles.automaton_run(as_cells(initial), max(CENTER_STEPS), wrap)
        grid = rule30.evolve(initial, max(CENTER_STEPS), mode)
        assert [as_cells(row) for row in grid.rows] == rows, initial
        assert as_cells(rule30.step_row(initial, mode)) == rows[1], initial
        center = initial.width // 2
        expected = [row[center + (0 if wrap else t)] for t, row in enumerate(rows)]
        for steps in CENTER_STEPS:
            col = rule30.center_column(initial, steps, mode)
            assert col.dtype == np.uint8
            assert col.tolist() == expected[: steps + 1], (initial, steps)


def test_center_column_even_width_uses_right_middle():
    row = Row.from01("0110")
    col = rule30.center_column(row, 0, BoundaryMode.WRAP)
    assert col.tolist() == [row.cell(2)]


def test_wrap_center_column_memory_stays_near_its_result():
    # The bits go straight into the column's bytes: a list of steps + 1
    # ints before them took nine times the result.
    row = rule30.random_row(1024, 7)
    tracemalloc.start()
    try:
        col = rule30.center_column(row, 1 << 15, BoundaryMode.WRAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * col.nbytes


def test_row_validation():
    with pytest.raises(DomainError):
        Row(0, 0)
    with pytest.raises(DomainError):
        Row(3, 8)
    with pytest.raises(DomainError):
        Row.from01("")
    with pytest.raises(DomainError):
        Row.from01("012")
    with pytest.raises(DomainError):
        Row.from_bits([0, 2])
    for cell in (True, False, 1.0, np.float64(1.0), np.bool_(True), "1", None):
        with pytest.raises(DomainError):
            Row.from_bits([0, cell])
    assert Row.from_bits([np.int64(1), np.uint8(0), 1, 0]) == Row.from01("1010")
    with pytest.raises(DomainError):
        Row.from_bits([])
    with pytest.raises(DomainError):
        Row.single(4)
    with pytest.raises(DomainError):
        Row.from01("101").cell(3)


def test_caps_are_enforced():
    with pytest.raises(ResourceError):
        rule30.evolve(Row.single(), rule30.STEP_CAP + 1, BoundaryMode.EXPAND_ZERO)
    with pytest.raises(DomainError):
        rule30.evolve(Row.single(), -1, BoundaryMode.WRAP)
    # Growth by two cells per step can cross the width cap on its own.
    with pytest.raises(ResourceError):
        rule30.center_column(Row.single(), rule30.WIDTH_CAP // 2, BoundaryMode.EXPAND_ZERO)
    with pytest.raises(ResourceError):
        rule30.random_row(rule30.WIDTH_CAP + 1, 0)
    # Inside the width and step caps (2^20 - 1 cells wide, 2^19 rows), not the cell cap.
    with pytest.raises(ResourceError, match="cells exceeds cap"):
        rule30.evolve(Row.single(), rule30.STEP_CAP // 2 - 1, BoundaryMode.EXPAND_ZERO)


@pytest.mark.parametrize("mode", [BoundaryMode.WRAP, BoundaryMode.EXPAND_ZERO])
def test_cell_cap_counts_the_final_width_times_the_rows(monkeypatch, mode):
    # 5 steps from width 5: 6 rows of 5 cells, or of 15 cells under EXPAND_ZERO.
    cells = 6 * (15 if mode is BoundaryMode.EXPAND_ZERO else 5)
    monkeypatch.setattr(rule30, "CELL_CAP", cells)
    assert rule30.evolve(Row.single(5), 5, mode).height == 6
    monkeypatch.setattr(rule30, "CELL_CAP", cells - 1)
    with pytest.raises(ResourceError, match=f"grid of {cells} cells exceeds cap {cells - 1}"):
        rule30.evolve(Row.single(5), 5, mode)
    rule30.center_column(Row.single(5), 5, mode)  # keeps no grid, so has no cell cap


def test_random_row_is_deterministic():
    a = rule30.random_row(256, 42)
    b = rule30.random_row(256, 42)
    assert a == b
    assert a.bits.bit_count() == 122
    assert rule30.random_row(256, 43) != a


def test_zero_row_stays_zero():
    grid = rule30.evolve(Row(5, 0), 6, BoundaryMode.WRAP)
    assert all(r.bits == 0 for r in grid.rows)


@given(rows01)
def test_wrap_step_matches_oracle(text):
    row = Row.from01(text)
    stepped = rule30.step_row(row, BoundaryMode.WRAP)
    assert as_cells(stepped) == oracles.automaton_step(as_cells(row), wrap=True)


@given(rows01)
def test_expand_step_matches_oracle(text):
    row = Row.from01(text)
    stepped = rule30.step_row(row, BoundaryMode.EXPAND_ZERO)
    assert stepped.width == row.width + 2
    assert as_cells(stepped) == oracles.automaton_step(as_cells(row), wrap=False)


@given(st.text(alphabet="01", min_size=13, max_size=40), st.integers(0, 5))
def test_modes_agree_inside_the_light_cone(text, steps):
    # Boundary effects travel one cell per generation, so cells farther
    # than `steps` from both edges cannot tell wrap from expand.
    row = Row.from01(text)
    wrap = rule30.evolve(row, steps, BoundaryMode.WRAP)
    grow = rule30.evolve(row, steps, BoundaryMode.EXPAND_ZERO)
    for t in range(steps + 1):
        for i in range(t, row.width - t):
            assert wrap.rows[t].cell(i) == grow.rows[t].cell(i + t)


@given(rows01)
def test_roundtrip_text_encoding(text):
    row = Row.from01(text)
    assert row.to01() == text
    assert Row.from_bits(int(c) for c in text) == row
    assert row.to_bit_array().tolist() == [int(c) for c in text]
    assert row.bits.bit_count() == text.count("1")
