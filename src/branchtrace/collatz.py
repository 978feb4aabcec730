"""Half-or-triple-plus-one trajectories with branch recording.

Every step of a trajectory takes exactly one of two branches: halve an
even value (recorded as ``L``) or map an odd value to ``3n+1`` (recorded
as ``R``). The resulting L/R string pins down the whole computation for
that input, so it can be inverted: :func:`decode` walks the string
backwards from the terminal value and recovers the input.

All arithmetic is exact. Values routinely overshoot 64 bits, so inputs
and trajectory values are plain Python integers throughout. The batch
path, :func:`survey` and :class:`SurveyResult`, is the numpy kernel in
:mod:`branchtrace._survey`; it loads on first use, so this module
imports no numpy.

The exact stepper jumps K = 8 shortcut steps at a time. With T(x) = x/2
for even x and (3x+1)/2 for odd x (an ``L``, or an ``RL`` pair), the
next K parities of n depend only on s = n mod 2^K (Terras, 1976), and
for n = 2^K q + s the i-th value of the block is 3^a 2^(K-i) q + t_i,
where a counts the odd steps so far and t_i = T^i(s). So a table over
the 256 residues gives each block's branch text, 3^r and T^K(s), with
T^K(n) = 3^r q + T^K(s). Every value inside a block is at most the
start or some 3x+1 of an odd step, and those are A q + B with distinct
coefficients A = 3^(a+1) 2^(K-i). When q > max B over all residues,
the one with the largest A is the block's maximum: it beats any other
A' q + B' by at least q + B - B' > 0. The table keeps that one
candidate. Every A is at most c 2^K, with c = ceil(max A / 2^K), and
every B at most max B, so no value of a block from n <= (peak so far -
max B) / c tops the peak, and there the candidate is skipped. Blocks are
taken from values of at least (max B + 1) 2^K, and from values at or
below that bar, but only from 2^K (floor + 1) on: every value of such a
block is at least q, which is above the stop floor (1 for AT_ONE), so no
block passes the value the walk must stop at.

:func:`decode` undoes the blocks backwards, two per division: one block
is n = 2^K (v - T^K(s)) / 3^r + s, exact only for the right v.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .errors import BranchTraceError, DomainError, InconsistentTrace, require_int, require_member

DEFAULT_MAX_STEPS = 100_000

L = "L"
R = "R"

# Most inputs one survey (or bound report) takes; its columns then
# need about 0.4 GB.
RANGE_CAP = 1 << 24


class StopMode(enum.Enum):
    AT_ONE = "one"
    ON_REPEAT = "repeat"


class StopReason(enum.Enum):
    REACHED_ONE = "reached_one"
    REPEAT_DETECTED = "repeat_detected"
    STEP_CAP_EXCEEDED = "step_cap_exceeded"


@dataclass(frozen=True)
class StopRule:
    """When to stop iterating: at the value 1, or on any revisited value.

    ``max_steps`` caps every trajectory so the tool always terminates;
    hitting the cap is reported as a stop reason, not an error.
    """

    mode: StopMode = StopMode.AT_ONE
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        require_member(self.mode, StopMode, "mode")
        require_int(self.max_steps, "max_steps", 1)

    @classmethod
    def at_one(cls, max_steps: int = DEFAULT_MAX_STEPS) -> "StopRule":
        return cls(StopMode.AT_ONE, max_steps)

    @classmethod
    def on_repeat(cls, max_steps: int = DEFAULT_MAX_STEPS) -> "StopRule":
        return cls(StopMode.ON_REPEAT, max_steps)


@dataclass(frozen=True)
class TraceRecord:
    """One trajectory: its input, branch string, and summary values."""

    n: int
    trace: str
    steps: int
    peak: int
    terminal: int
    stop_reason: StopReason

    @property
    def l_count(self) -> int:
        return self.trace.count(L)

    @property
    def r_count(self) -> int:
        return self.trace.count(R)


@dataclass(frozen=True)
class TraceSummary:
    """Per-input survey row: everything but the trace string itself."""

    n: int
    steps: int
    peak: int
    l_count: int
    stop_reason: StopReason


_K = 8
_MASK = (1 << _K) - 1


def _parity(text: str) -> str:
    """One character per shortcut step: ``1`` for ``RL``, ``0`` for ``L``."""
    return text.replace("RL", "1").replace(L, "0")


def _block_table() -> tuple[tuple, list[tuple[int, int, int]], int]:
    """The K-step blocks of every residue s < 2^K, their inverse, and the
    smallest value from which blocks are exact (see the module docstring).

    A block is (text, len(text), 3^r, T^K(s), A, B) with A q + B its peak
    candidate (0, 0 when it has no odd step); the inverse maps the
    block's parity byte, its first step the high bit, to (s, 3^r, T^K(s)).
    """
    table, inverse, top_b = [], [None] * (1 << _K), 0
    for s in range(1 << _K):
        t, coeff, a, b, text = s, 1 << _K, 0, 0, ""
        for _ in range(_K):
            if t & 1:
                top_b = max(top_b, 3 * t + 1)
                if 3 * coeff > a:
                    a, b = 3 * coeff, 3 * t + 1
                t, coeff, text = (3 * t + 1) >> 1, (3 * coeff) >> 1, text + R + L
            else:
                t, coeff, text = t >> 1, coeff >> 1, text + L
        table.append((text, len(text), coeff, t, a, b))
        inverse[int(_parity(text), 2)] = (s, coeff, t)
    return tuple(table), inverse, (top_b + 1) << _K


_TAB, _INV, _THRESH = _block_table()
# Every 3x+1 inside a block from n = 2^K q + s is A q + B with A <= _RISE 2^K
# and B <= _TOP, so A q + B <= _RISE n + _TOP: no value of a block started
# from n <= (peak - _TOP) // _RISE tops ``peak``.
_RISE, _TOP = -(-max(row[4] for row in _TAB) >> _K), (_THRESH >> _K) - 1


def _walk(n: int, budget: int, floor: int = 1, text: bool = False):
    """Exact steps from ``n`` until the value is <= ``floor`` or ``budget``
    steps are taken; floor 0 never stops.

    Returns (steps, peak, halvings, final value, branch text or None).
    Whole K-step blocks are taken while the value is at least 2^K (floor
    + 1), more than 2K steps of the budget are left (a block takes at most
    2K, and a single step may follow), and the value is either at least
    ``_THRESH``, where the block's peak candidate is its maximum, or at
    most the bar (peak - _TOP) // _RISE, where no value of the block tops
    the peak so far and the candidate is skipped. The bar is recomputed
    whenever the peak rises; a stale bar is lower, so still exact.
    """
    cur = peak = n
    steps = halves = 0
    pieces = [] if text else None
    low, bar, last = (floor + 1) << _K, (n - _TOP) // _RISE, budget - 2 * _K - 1
    while cur > floor and steps < budget:
        while low <= cur and steps <= last and (cur <= bar or cur >= _THRESH):
            chunk, length, mul, add, a, b = _TAB[cur & _MASK]
            q = cur >> _K
            if cur > bar and a * q + b > peak:
                peak = a * q + b
                bar = (peak - _TOP) // _RISE
            cur, steps, halves = mul * q + add, steps + length, halves + _K
            if text:
                pieces.append(chunk)
        if cur & 1:
            cur = 3 * cur + 1
            if cur > peak:
                peak = cur
                bar = (peak - _TOP) // _RISE
            if text:
                pieces.append(R)
        else:
            cur >>= 1
            halves += 1
            if text:
                pieces.append(L)
        steps += 1
    return steps, peak, halves, cur, "".join(pieces) if text else None


def _walk_repeat(n: int, budget: int, text: bool = False):
    """Exact steps from ``n`` until a value repeats or ``budget`` steps.

    Returns (steps, peak, halvings, final value, branch text or None,
    stop code): 1 for a repeat, 2 at the cap.
    """
    seen = {n}
    cur = peak = n
    steps = halves = 0
    pieces = [] if text else None
    while steps < budget:
        if cur & 1:
            cur = 3 * cur + 1
            if text:
                pieces.append(R)
        else:
            cur >>= 1
            halves += 1
            if text:
                pieces.append(L)
        steps += 1
        if cur > peak:
            peak = cur
        if cur in seen:
            return steps, peak, halves, cur, "".join(pieces) if text else None, 1
        seen.add(cur)
    return steps, peak, halves, cur, "".join(pieces) if text else None, 2


def _exact(n: int, rule: StopRule, text: bool = False):
    """Exact steps from ``n`` until ``rule`` stops them.

    Returns (steps, peak, halvings, final value, branch text or None,
    stop code): 0 at 1, 1 for a repeat, 2 at the cap. No value repeats
    before the first 1 (a repeat starts a cycle, which would have to hold
    that 1), and for n >= 3 the first repeat is 1 -> 4, so ON_REPEAT walks
    as AT_ONE does. Only n <= 2 and a walk capped short of 1 take the
    seen-set stepper, which a value of at least 2^(cap + 1) takes at once:
    a step at most halves, so it cannot reach 1 within the cap.
    """
    if rule.mode is StopMode.ON_REPEAT and (n <= 2 or n >> rule.max_steps > 1):
        return _walk_repeat(n, rule.max_steps, text)
    steps, peak, halves, cur, symbols = _walk(n, rule.max_steps, text=text)
    if rule.mode is StopMode.AT_ONE:
        return steps, peak, halves, cur, symbols, 0 if cur == 1 else 2
    if cur != 1:
        return _walk_repeat(n, rule.max_steps, text)
    if steps < rule.max_steps:
        return steps + 1, peak, halves, 4, symbols + R if text else None, 1
    return steps, peak, halves, cur, symbols, 2


def trace(n: int, rule: StopRule | None = None) -> TraceRecord:
    """Iterate from ``n`` until the stop rule fires or the step cap hits.

    Under ``AT_ONE`` iteration halts the moment the current value is 1,
    so ``trace(1)`` is the empty trace. Under ``ON_REPEAT`` it halts when
    the current value has already been visited in this trajectory.
    """
    require_int(n, "n", 1)
    rule = StopRule() if rule is None else rule
    require_member(rule, StopRule, "rule")
    steps, peak, _, cur, symbols, code = _exact(n, rule, True)
    return TraceRecord(
        n=n,
        trace=symbols,
        steps=steps,
        peak=peak,
        terminal=cur,
        stop_reason=_REASON_CODES[code],
    )


def _undo(trace: str, cur: int) -> int:
    """Undo ``trace`` backwards from ``cur``, one symbol at a time."""
    for index in range(len(trace) - 1, -1, -1):
        if trace[index] == L:
            cur = 2 * cur
            continue
        if cur <= 1 or cur % 3 != 1:
            raise InconsistentTrace(
                f"step {index}: no odd predecessor for {cur}", index
            )
        prev = (cur - 1) // 3
        if prev % 2 == 0:
            raise InconsistentTrace(
                f"step {index}: predecessor {prev} of {cur} is even", index
            )
        cur = prev
    return cur


def _symbols(trace: str | Sequence[str]) -> str:
    """``trace`` joined into a string, once every symbol is checked."""
    for sym in trace:
        if sym not in (L, R):
            raise DomainError(f"invalid branch symbol {sym!r}")
    return "".join(trace)


def decode(trace: str | Sequence[str], terminal: int) -> int:
    """Walk a branch string, or a sequence of L/R symbols, back from ``terminal`` to its input.

    The last recorded symbol is undone first: an ``L`` came from the even
    predecessor ``2*current``; an ``R`` came from the odd predecessor
    ``(current - 1) / 3``, which must exist and be odd. A violated ``R``
    precondition raises :class:`InconsistentTrace` carrying the forward
    index of the failing symbol.

    Whole K-step blocks are undone through the inverse table, two at a
    time. If every block inverts exactly, the result is the input: the
    value is at least 1 and T^K(s) < 3^r for every residue, so a remainder
    of 0 leaves q >= 0, and T^K(2^K q + s) = 3^r q + T^K(s), with the
    parities of s, holds for every q >= 0 (Terras, 1976). So a forward walk
    from the result gives ``trace`` and ``terminal``, and the per-symbol
    walk, whose inverse is unique, would give the same value. Anything
    else is decided by the per-symbol walk, after every symbol is checked.

    The blocks' keys are the bytes of one ``int(..., 2)`` of their parity
    string, once counts show that it holds only 0 and 1 (``int`` also
    takes ``_``, whitespace, signs and other digits). For an earlier block
    (s1, m1, t1) and a later one (s2, m2, t2), undoing both from v gives
    2^K q + s1 with q = (2^K (v - t2) + m2 (s2 - t1)) / (m1 m2), exact if
    and only if both single inverses are, since 2^K and m1 m2 are coprime;
    m1 m2 <= 3^16 is one machine digit.

    A string holding no 0 or 1 is not checked first: the blocks' keys then
    came from L and RL tokens only, and the symbols after the last block
    are checked before they are undone.
    """
    require_int(terminal, "terminal", 1)
    if not isinstance(trace, str) or "0" in trace or "1" in trace:
        trace = _symbols(trace)
    parity = _parity(trace)
    blocks = (len(parity) - parity.endswith(R)) // _K
    end = _K * blocks
    ones = len(trace) - len(parity) - parity.count("1", end)  # each RL is one "1"
    if ones + parity.count("0", 0, end) < end:
        return _undo(_symbols(trace), terminal)
    try:
        cur = _undo(_symbols(trace[end + ones:]), terminal)
    except BranchTraceError:
        return _undo(_symbols(trace), terminal)
    # An odd count gains a leading block of K L's, key 0: its inverse (0, 1,
    # 0) takes v to 2^K v, exactly, and the last shift takes that back.
    keys = int(parity[:end] or "0", 2).to_bytes(blocks + (blocks & 1), "big")
    for i in range(len(keys) - 2, -1, -2):
        s1, m1, t1 = _INV[keys[i]]
        s2, m2, t2 = _INV[keys[i + 1]]
        q, rem = divmod(((cur - t2) << _K) + m2 * (s2 - t1), m1 * m2)
        if rem:
            return _undo(_symbols(trace), terminal)
        cur = (q << _K) | s1
    return cur >> _K * (blocks & 1)


def replay(n: int, trace: str | Sequence[str]) -> tuple[int, int]:
    """Apply a branch string (or a sequence of ``L``/``R`` symbols)
    forward from ``n``; return (terminal, peak).

    Raises :class:`InconsistentTrace` if a symbol disagrees with the
    parity of the current value, i.e. the string does not describe the
    trajectory of ``n``.
    """
    require_int(n, "n", 1)
    _, peak, _, cur, text = _walk(n, len(trace), 0, True)
    if text == trace or list(text) == list(trace):
        return cur, peak
    # The walk's text is the only one n admits, so the first symbol that
    # differs from it is the first bad one.
    index = next(i for i, sym in enumerate(trace) if sym != text[i])
    sym = trace[index]
    if sym not in (L, R):
        raise DomainError(f"invalid branch symbol {sym!r}")
    parity = "odd" if sym == L else "even"
    value = _walk(n, index, 0)[3]
    raise InconsistentTrace(f"step {index}: {sym} branch taken at {parity} value {value}", index)


_REASON_CODES = tuple(StopReason)  # a stop code is its reason's position


def __getattr__(name):
    """``survey`` and ``SurveyResult``, from the kernel module on first use (PEP 562)."""
    if name not in ("survey", "SurveyResult"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _survey
    return getattr(_survey, name)
