"""Rule 30 elementary cellular automaton.

Each new cell is ``left XOR (center OR right)``: when a cell and its
right-hand neighbor were both 0, the cell copies its left-hand
neighbor, otherwise it takes the opposite of that neighbor. Written as
the usual 8-entry lookup this is

    111->0  110->0  101->0  100->1  011->1  010->1  001->1  000->0

i.e. output byte 00011110 = rule number 30. The update is implemented
branch-free on whole rows: a row is stored as one Python integer with
cell i (counted from the left) at bit position ``width - 1 - i``, so a
row prints the same way it is drawn. Two boundary conventions are
supported: ``WRAP`` keeps a fixed width with cyclic neighbors, and
``EXPAND_ZERO`` grows the row by one zero-background cell per side per
step, which is how the familiar single-cell triangle develops.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, ResourceError, require_int, require_member
from .prng import XorShift64Star

RULE_NUMBER = 30

WIDTH_CAP = 1 << 20
STEP_CAP = 1 << 20
# Most cells, final width x (steps + 1), in a grid from evolve or the CLI's
# PBM: 2^28 cells are 512 MiB of PBM text, or 32 MiB of packed rows.
CELL_CAP = 1 << 28


class BoundaryMode(enum.Enum):
    WRAP = "wrap"
    EXPAND_ZERO = "expand"


@dataclass(frozen=True)
class Row:
    """One generation: ``width`` cells packed into the integer ``bits``."""

    width: int
    bits: int

    def __post_init__(self):
        require_int(self.width, "row width", 1)
        require_int(self.bits, "row bits")
        if not 0 <= self.bits < (1 << self.width):
            raise DomainError("row bits do not fit the declared width")

    @classmethod
    def from_bits(cls, cells) -> "Row":
        text = bytearray()
        for cell in cells:
            if not isinstance(cell, (int, np.integer)) or isinstance(cell, bool) or (
                    cell not in (0, 1)):
                raise DomainError(f"cell values must be 0 or 1, got {cell!r}")
            text.append(ord("0") + cell)
        if not text:
            raise DomainError("a row needs at least one cell")
        return cls(len(text), int(text, 2))  # one conversion; a shift per cell is quadratic

    @classmethod
    def from01(cls, text: str) -> "Row":
        if not isinstance(text, str) or not text or set(text) - {"0", "1"}:
            raise DomainError("row text must be a non-empty string of 0/1")
        return cls(len(text), int(text, 2))

    @classmethod
    def single(cls, width: int = 1) -> "Row":
        """A lone 1 cell centered in an odd ``width``."""
        require_int(width, "row width", 1)
        if width % 2 == 0:
            raise DomainError(f"single-cell rows need an odd width, got {width!r}")
        return cls(width, 1 << (width // 2))

    def cell(self, i: int) -> int:
        require_int(i, "cell index", 0)
        if i >= self.width:
            raise DomainError(f"cell index {i} outside width {self.width}")
        return (self.bits >> (self.width - 1 - i)) & 1

    def to01(self) -> str:
        return format(self.bits, f"0{self.width}b")

    def to_bit_array(self) -> np.ndarray:
        return np.frombuffer(self.to01().encode(), dtype=np.uint8) - ord("0")


@dataclass(frozen=True)
class Grid:
    """Generations stacked oldest-first."""

    rows: tuple[Row, ...]
    mode: BoundaryMode

    @property
    def height(self) -> int:
        return len(self.rows)


def _generations(initial: Row, mode: BoundaryMode) -> Iterator[tuple[int, int]]:
    """(width, bits) of generations 0, 1, 2, ... from ``initial``, without end.

    WRAP reads each cell's neighbors off the row rotated one cell each way.
    EXPAND_ZERO keeps the row anchored at bit 0: new bit q reads old bits
    q, q - 1 and q - 2, so the row gains two bits a step and zeros lie
    past both old edges, with no mask needed.
    """
    width, bits = initial.width, initial.bits
    yield width, bits
    if mode is BoundaryMode.WRAP:
        mask, top = (1 << width) - 1, width - 1
        while True:
            left = (bits >> 1) | ((bits & 1) << top)
            right = ((bits << 1) | (bits >> top)) & mask
            bits = left ^ (bits | right)
            yield width, bits
    while True:
        bits ^= (bits << 1) | (bits << 2)
        width += 2
        yield width, bits


def step_row(row: Row, mode: BoundaryMode) -> Row:
    """Advance one generation under the given boundary convention."""
    require_member(row, Row, "row")
    require_member(mode, BoundaryMode, "mode")
    generations = _generations(row, mode)
    next(generations)
    return Row(*next(generations))


def _check_caps(width: int, steps: int, mode: BoundaryMode, grid: bool = False) -> int:
    """Refuse a ``mode`` that is not a BoundaryMode, ``steps`` past STEP_CAP,
    a final row past WIDTH_CAP and, for a ``grid`` of every generation, more
    than CELL_CAP cells; returns the final row's width. It takes the initial
    width, not the row, so a caller can refuse sizes before building a row."""
    require_member(mode, BoundaryMode, "mode")
    require_int(steps, "steps", 0)
    if steps > STEP_CAP:
        raise ResourceError(f"steps {steps} exceeds cap {STEP_CAP}")
    final_width = width
    if mode is BoundaryMode.EXPAND_ZERO:
        final_width += 2 * steps
    if final_width > WIDTH_CAP:
        raise ResourceError(f"width {final_width} exceeds cap {WIDTH_CAP}")
    if grid and (cells := final_width * (steps + 1)) > CELL_CAP:
        raise ResourceError(f"grid of {cells} cells exceeds cap {CELL_CAP}")
    return final_width


def _grid(initial: Row, steps: int, mode: BoundaryMode) -> tuple[int, Iterator[tuple[int, int]]]:
    """The final width and the (width, bits) of generations 0..steps, once
    every cap holds: a grid past CELL_CAP is refused before any stepping."""
    require_member(initial, Row, "initial row")
    final_width = _check_caps(initial.width, steps, mode, grid=True)
    return final_width, itertools.islice(_generations(initial, mode), steps + 1)


def evolve(initial: Row, steps: int, mode: BoundaryMode) -> Grid:
    """Grid of ``steps + 1`` rows, the initial row first.

    A grid of more than CELL_CAP cells (final width x rows) raises
    :class:`ResourceError` before any stepping.
    """
    _, generations = _grid(initial, steps, mode)
    return Grid(tuple(Row(width, bits) for width, bits in generations), mode)


# Steps between trims of an EXPAND_ZERO row to the tracked site's light cone.
_TRIM_EVERY = 32


def center_column(initial: Row, steps: int, mode: BoundaryMode) -> np.ndarray:
    """Bits at the initial center cell's site for generations 0..steps.

    The tracked site is cell ``width // 2`` of the initial row (for even
    widths that is the right one of the two middle cells). Under
    EXPAND_ZERO the site shifts by one index per generation as the row
    grows on the left. Rows are not retained, so long columns are cheap.
    """
    require_member(initial, Row, "initial row")
    _check_caps(initial.width, steps, mode)
    bits, width = initial.bits, initial.width
    pos = width - 1 - width // 2  # bit position of the tracked site
    if mode is BoundaryMode.WRAP:
        generations = itertools.islice(_generations(initial, mode), steps + 1)
        out = bytearray((bits >> pos) & 1 for _, bits in generations)
    else:
        out = bytearray([(bits >> pos) & 1])
        emit = out.append
        # The EXPAND_ZERO update of _generations, so the site rises one
        # position per step. With r steps left only bits within r of the
        # site can still reach it; the trim drops the rest. Zeros shifted
        # in below corrupt two more low bits per step, as fast as the
        # cone's lower edge rises, so they never reach it.
        for t in range(1, steps + 1):
            bits ^= (bits << 1) | (bits << 2)
            pos += 1
            if t % _TRIM_EVERY == 0:
                r = steps - t
                low = max(pos - r, 0)
                pos -= low
                bits = (bits >> low) & ((1 << (pos + r + 1)) - 1)
            emit((bits >> pos) & 1)
    return np.frombuffer(out, dtype=np.uint8)


def random_row(width: int, seed: int) -> Row:
    """Deterministic pseudorandom row; cell i is the i-th generator bit."""
    require_int(width, "row width", 1)
    if width > WIDTH_CAP:
        raise ResourceError(f"width {width} exceeds cap {WIDTH_CAP}")
    gen = XorShift64Star(seed)
    # One conversion of the whole text: shifting a growing int once per bit
    # takes time quadratic in the width.
    return Row(width, int("".join([str(gen.next_bit()) for _ in range(width)]), 2))
