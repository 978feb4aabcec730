"""Half-or-triple-plus-one trajectories with branch recording.

Every step of a trajectory takes exactly one of two branches: halve an
even value (recorded as ``L``) or map an odd value to ``3n+1`` (recorded
as ``R``). The resulting L/R string pins down the whole computation for
that input, so it can be inverted: :func:`decode` walks the string
backwards from the terminal value and recovers the input.

All arithmetic is exact. Values routinely overshoot 64 bits, so inputs
and trajectory values are plain Python integers throughout; the batch
path in :func:`survey` uses int64 arrays only while provably safe and
falls back to exact scalar arithmetic otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, InconsistentTrace, ResourceError

DEFAULT_MAX_STEPS = 100_000

L = "L"
R = "R"

# Largest int64 value whose odd step 3n+1 still fits in int64.
_INT64_STEP_GUARD = ((1 << 63) - 2) // 3
# Ranges starting above this go straight to the exact scalar path.
_INT64_INPUT_LIMIT = 1 << 62
_INT64_MAX = (1 << 63) - 1

_CHUNK = 1 << 17

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
        if not isinstance(self.max_steps, int) or self.max_steps < 1:
            raise DomainError("max_steps must be a positive integer")

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


def _require_positive(n, name: str = "n") -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"{name} must be a positive integer, got {n!r}")


def step(n: int) -> tuple[int, str]:
    """One branch: even n halves (L branch), odd n maps to 3n+1 (R branch)."""
    _require_positive(n)
    if n & 1:
        return 3 * n + 1, R
    return n >> 1, L


def trace(n: int, rule: StopRule | None = None) -> TraceRecord:
    """Iterate from ``n`` until the stop rule fires or the step cap hits.

    Under ``AT_ONE`` iteration halts the moment the current value is 1,
    so ``trace(1)`` is the empty trace. Under ``ON_REPEAT`` it halts when
    the current value has already been visited in this trajectory.
    """
    _require_positive(n)
    if rule is None:
        rule = StopRule()
    at_one = rule.mode is StopMode.AT_ONE
    max_steps = rule.max_steps
    seen = None if at_one else {n}

    cur = n
    peak = n
    symbols: list[str] = []
    while True:
        if at_one and cur == 1:
            reason = StopReason.REACHED_ONE
            break
        if len(symbols) >= max_steps:
            reason = StopReason.STEP_CAP_EXCEEDED
            break
        if cur & 1:
            cur = 3 * cur + 1
            symbols.append(R)
        else:
            cur >>= 1
            symbols.append(L)
        if cur > peak:
            peak = cur
        if seen is not None:
            if cur in seen:
                reason = StopReason.REPEAT_DETECTED
                break
            seen.add(cur)

    return TraceRecord(
        n=n,
        trace="".join(symbols),
        steps=len(symbols),
        peak=peak,
        terminal=cur,
        stop_reason=reason,
    )


def decode(trace: str, terminal: int) -> int:
    """Walk a branch string backwards from ``terminal`` to its input.

    The last recorded symbol is undone first: an ``L`` came from the even
    predecessor ``2*current``; an ``R`` came from the odd predecessor
    ``(current - 1) / 3``, which must exist and be odd. A violated ``R``
    precondition raises :class:`InconsistentTrace` carrying the forward
    index of the failing symbol.
    """
    _require_positive(terminal, "terminal")
    for ch in trace:
        if ch not in (L, R):
            raise DomainError(f"invalid branch symbol {ch!r}")
    cur = terminal
    last = len(trace) - 1
    for k, sym in enumerate(reversed(trace)):
        index = last - k
        if sym == L:
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


def replay(n: int, trace: str) -> tuple[int, int]:
    """Apply a branch string forward from ``n``; return (terminal, peak).

    Raises :class:`InconsistentTrace` if a symbol disagrees with the
    parity of the current value, i.e. the string does not describe the
    trajectory of ``n``.
    """
    _require_positive(n)
    cur = n
    peak = n
    for index, sym in enumerate(trace):
        odd = cur & 1
        if sym == L:
            if odd:
                raise InconsistentTrace(
                    f"step {index}: L branch taken at odd value {cur}", index
                )
            cur >>= 1
        elif sym == R:
            if not odd:
                raise InconsistentTrace(
                    f"step {index}: R branch taken at even value {cur}", index
                )
            cur = 3 * cur + 1
        else:
            raise DomainError(f"invalid branch symbol {sym!r}")
        if cur > peak:
            peak = cur
    return cur, peak


_REASON_CODES = (
    StopReason.REACHED_ONE,
    StopReason.REPEAT_DETECTED,
    StopReason.STEP_CAP_EXCEEDED,
)
_REASON_VALUES = np.array([reason.value for reason in _REASON_CODES], dtype=object)


@dataclass
class SurveyResult:
    """Columnar result of :func:`survey` over a contiguous range.

    Rows are in range order. Peaks that overflow int64 (possible only
    via the exact fallback path) are kept sparsely in ``big_peaks``;
    their entries in ``peaks`` are only placeholders.
    """

    lo: int
    hi: int
    rule: StopRule
    steps: np.ndarray
    l_count: np.ndarray
    peaks: np.ndarray
    stop_codes: np.ndarray
    big_peaks: dict[int, int]

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def peak_of(self, offset: int) -> int:
        big = self.big_peaks.get(offset)
        return big if big is not None else int(self.peaks[offset])

    def record(self, offset: int) -> TraceSummary:
        return TraceSummary(
            n=self.lo + offset,
            steps=int(self.steps[offset]),
            peak=self.peak_of(offset),
            l_count=int(self.l_count[offset]),
            stop_reason=_REASON_CODES[self.stop_codes[offset]],
        )

    def __iter__(self) -> Iterator[TraceSummary]:
        for offset in range(len(self)):
            yield self.record(offset)

    def blocks(self, size: int) -> Iterator[tuple[range, list, list, list, list]]:
        """Rows in runs of ``size`` as Python columns.

        Each block is (n, steps, peak, l_count, stop reason value), with
        big peaks already merged into the peak column.
        """
        big = sorted(self.big_peaks.items())
        k = 0
        for start in range(0, len(self), size):
            stop = min(start + size, len(self))
            peaks = self.peaks[start:stop].tolist()
            while k < len(big) and big[k][0] < stop:
                offset, peak = big[k]
                peaks[offset - start] = peak
                k += 1
            yield (
                range(self.lo + start, self.lo + stop),
                self.steps[start:stop].tolist(),
                peaks,
                self.l_count[start:stop].tolist(),
                _REASON_VALUES[self.stop_codes[start:stop]].tolist(),
            )

    def max_steps(self) -> int:
        return int(self.steps.max())

    def max_peak(self) -> int:
        top = int(self.peaks.max())
        if self.big_peaks:
            top = max(top, max(self.big_peaks.values()))
        return top

    def non_reached_count(self) -> int:
        return int(np.count_nonzero(self.stop_codes))


def _summarize(n: int, max_steps: int, at_one: bool = True) -> tuple[int, int, int, int]:
    """Exact (steps, peak, l_count, stop code) of the trajectory from ``n``.

    ``n`` may also be a value met mid-trajectory, with ``max_steps`` the
    budget left. Unlike :func:`trace` it keeps no branch string.
    """
    seen = None if at_one else {n}
    cur = peak = n
    steps = l_count = 0
    while True:
        if at_one and cur == 1:
            return steps, peak, l_count, 0
        if steps >= max_steps:
            return steps, peak, l_count, 2
        if cur & 1:
            cur = 3 * cur + 1
        else:
            cur >>= 1
            l_count += 1
        steps += 1
        if cur > peak:
            peak = cur
        if seen is not None:
            if cur in seen:
                return steps, peak, l_count, 1
            seen.add(cur)


def _survey_chunk(lo: int, base: int, stop: int, max_steps: int, steps: np.ndarray,
                  l_count: np.ndarray, peaks: np.ndarray, codes: np.ndarray,
                  big: np.ndarray, big_peaks: dict[int, int]) -> None:
    """Fill rows [base, stop) of the AT_ONE columns by memoized descent.

    Every lane steps in lockstep until its value falls below its start
    while still in the range (its descent target) or reaches 1, so its
    own step count is the round it retires in. A row's totals are its
    own plus its target's: steps and halvings add, peaks take the max.
    Rows before ``base`` are final; targets inside the chunk are resolved
    by synchronous pointer jumping.

    A lane whose odd step could overflow int64 is finished by the exact
    scalar stepper. So is a row whose chain meets a ``big`` row (peak in
    ``big_peaks``), or whose total exceeds ``max_steps``; a capped row
    holds ``max_steps`` steps, so every row chained to one exceeds it.
    """
    s, lc, pk, cd, bg = (a[base:stop] for a in (steps, l_count, peaks, codes, big))
    # Offset of each row's descent target; negative for none.
    target = np.full(stop - base, -1, dtype=np.int64)
    lane = np.nonzero(pk != 1)[0]
    cur = pk[lane]
    top = cur.copy()
    # lo <= cur < start  <=>  (cur - lo) < (start - lo), compared unsigned.
    span = (cur - lo).view(np.uint64)
    halves = np.zeros(lane.size, dtype=np.int64)
    taken = 0
    while lane.size:
        if taken >= max_steps:
            s[lane], lc[lane], pk[lane], cd[lane] = taken, halves, top, 2
            break
        if int(cur.max()) > _INT64_STEP_GUARD:
            divert = cur > _INT64_STEP_GUARD
            # Earlier values were <= the guard, so the peak from here on
            # is the row's peak.
            for j, value, halved in zip(lane[divert].tolist(), cur[divert].tolist(),
                                        halves[divert].tolist()):
                extra, peak, extra_l, code = _summarize(value, max_steps - taken)
                s[j] = taken + extra
                lc[j] = halved + extra_l
                cd[j] = code
                if peak > _INT64_MAX:
                    pk[j] = value
                    bg[j] = True
                    big_peaks[base + j] = peak
                else:
                    pk[j] = peak
            keep = ~divert
            lane, span, cur, top, halves = (a[keep] for a in (lane, span, cur, top, halves))
            continue
        odd = (cur & 1).astype(bool)
        cur = np.where(odd, 3 * cur + 1, cur >> 1)
        halves += ~odd
        np.maximum(top, cur, out=top)
        taken += 1
        down = (cur - lo).view(np.uint64) < span
        if lo > 1:
            down |= cur == 1
        if down.any():
            j = lane[down]
            s[j] = taken
            lc[j] = halves[down]
            pk[j] = top[down]
            target[j] = cur[down] - lo
            keep = ~down
            lane, span, cur, top, halves = (a[keep] for a in (lane, span, cur, top, halves))

    chained = target >= 0
    early = np.nonzero(chained & (target < base))[0]
    t = target[early]
    s[early] += steps[t]
    lc[early] += l_count[t]
    pk[early] = np.maximum(pk[early], peaks[t])
    bg[early] |= big[t]
    nxt = np.where(chained & (target >= base), target - base, -1)
    pending = np.nonzero(nxt >= 0)[0]
    while pending.size:
        k = nxt[pending]
        s[pending] += s[k]
        lc[pending] += lc[k]
        pk[pending] = np.maximum(pk[pending], pk[k])
        bg[pending] |= bg[k]
        nxt[pending] = nxt[k]
        pending = pending[nxt[pending] >= 0]

    # A big row's pk is a placeholder: the first value of its trajectory
    # past the guard, as chained from the diverted lane it meets.
    for j in np.nonzero(chained & (bg | (s > max_steps)))[0].tolist():
        s[j], peak, lc[j], cd[j] = _summarize(lo + base + j, max_steps)
        bg[j] = peak > _INT64_MAX
        if bg[j]:
            big_peaks[base + j] = peak
        else:
            pk[j] = peak


def survey(lo: int, hi: int, rule: StopRule | None = None) -> SurveyResult:
    """Summarize every trajectory for n in [lo, hi], in range order.

    The result is deterministic for a given (lo, hi, rule); internal
    chunking never reorders rows. A range of more than :data:`RANGE_CAP`
    inputs raises :class:`ResourceError` before anything is allocated.
    """
    _require_positive(lo, "lo")
    _require_positive(hi, "hi")
    if lo > hi:
        raise DomainError(f"empty range: lo={lo} > hi={hi}")
    if rule is None:
        rule = StopRule()
    size = hi - lo + 1
    if size > RANGE_CAP:
        raise ResourceError(f"range size {size} exceeds cap {RANGE_CAP}")

    steps = np.zeros(size, dtype=np.int64)
    l_count = np.zeros(size, dtype=np.int64)
    codes = np.zeros(size, dtype=np.uint8)
    big_peaks: dict[int, int] = {}
    if rule.mode is StopMode.AT_ONE and hi <= _INT64_INPUT_LIMIT:
        peaks = np.arange(lo, hi + 1, dtype=np.int64)
        big = np.zeros(size, dtype=bool)
        for base in range(0, size, _CHUNK):
            _survey_chunk(lo, base, min(base + _CHUNK, size), rule.max_steps,
                          steps, l_count, peaks, codes, big, big_peaks)
    else:
        peaks = np.zeros(size, dtype=np.int64)
        at_one = rule.mode is StopMode.AT_ONE
        for offset in range(size):
            steps[offset], peak, l_count[offset], codes[offset] = _summarize(
                lo + offset, rule.max_steps, at_one)
            if peak > _INT64_MAX:
                big_peaks[offset] = peak
            else:
                peaks[offset] = peak

    return SurveyResult(
        lo=lo,
        hi=hi,
        rule=rule,
        steps=steps,
        l_count=l_count,
        peaks=peaks,
        stop_codes=codes,
        big_peaks=big_peaks,
    )
