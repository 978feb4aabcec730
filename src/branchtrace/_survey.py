"""The survey kernel: :func:`survey` and :class:`SurveyResult`, the numpy
batch path of :mod:`branchtrace.collatz`, which loads it on first use.

The batch path steps int64 lanes only while provably safe, in one
lockstep that each chunk of rows runs twice. In the first pass a row
steps until it falls to a row of the range, meets another lane at one
value, reaches 1 or hits the step cap; its totals then add up along
these links. In the second, the rows whose linked total tops the cap
step again from their own inputs, to 1 or to the cap. Lanes leave the
arrays for exact arithmetic at one walk site: an odd value past the
int64 step guard walks until back at or below it, and the last few
lanes walk to 1. Only the ON_REPEAT rows that no AT_ONE row settles,
n = 1, 2 and rows capped short of 1, are walked one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .collatz import RANGE_CAP, StopMode, StopRule, TraceSummary, _REASON_CODES, _exact, _walk
from .errors import DomainError, ResourceError, require_int, require_member

# The survey kernel's word: the largest value its int64 lanes hold.
_INT64_MAX = (1 << 63) - 1

_CHUNK = 1 << 16
_RANK = 1 << 13  # rows per block when the survey ranks descent chains in row order
_TAIL = 32  # lanes left when the survey lockstep walks each exactly to 1
_MERGE_EVERY = 32  # rounds between lane merges in the survey lockstep


@dataclass
class SurveyResult:
    """Columnar result of :func:`survey` over a contiguous range.

    Rows are in range order. ``peaks`` holds every peak clipped to
    int64: a row whose peak tops int64 (a big row) reads 2^63 - 1 there,
    which no other row can hold (see :func:`_survey_chunk`), and its
    exact peak is kept sparsely in ``big_peaks``.
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
        # A numpy integer offset, as np.nonzero gives, counts as its int.
        offset = int(offset) if isinstance(offset, np.integer) else offset
        require_int(offset, "offset", 0)
        if offset >= len(self):
            raise DomainError(f"offset {offset} outside a survey of {len(self)} rows")
        return self.big_peaks.get(offset, int(self.peaks[offset]))

    def record(self, offset: int) -> TraceSummary:
        peak = self.peak_of(offset)  # refuses an offset outside the range
        offset = int(offset)
        return TraceSummary(
            n=self.lo + offset,
            steps=int(self.steps[offset]),
            peak=peak,
            l_count=int(self.l_count[offset]),
            stop_reason=_REASON_CODES[self.stop_codes[offset]],
        )

    def __iter__(self) -> Iterator[TraceSummary]:
        for offset in range(len(self)):
            yield self.record(offset)

    def max_steps(self) -> int:
        return int(self.steps.max())

    def max_peak(self) -> int:
        # Every big peak tops every int64 entry.
        return max(self.big_peaks.values(), default=int(self.peaks.max()))

    def non_reached_count(self) -> int:
        return int(np.count_nonzero(self.stop_codes))


def _keep(index, *columns):
    """Each column at ``index``. A list, since tuple() of a generator
    leaves a spare tuple on CPython's free list at each call."""
    return [column[index] for column in columns]


def _survey_chunk(lo: int, base: int, stop: int, max_steps: int, steps: np.ndarray,
                  l_count: np.ndarray, peaks: np.ndarray, codes: np.ndarray,
                  big_peaks: dict[int, int]) -> None:
    """Fill rows [base, stop) of the columns as AT_ONE rows capped at
    ``max_steps``, by memoized descent. Rows before ``base`` are final.

    Each row's lane steps until its value falls below its start while
    still in the range (its descent target) or reaches 1. The row's
    totals are then its own plus its target's: steps and halvings add,
    peaks and stop codes take the max. A row whose total so found tops
    the cap, or meets a capped row, steps again in the same lockstep.
    """
    size, first = stop - base, lo + base
    low = min(lo, _INT64_MAX)  # lo in int64 arithmetic; no lane past int64 descends
    guard = (_INT64_MAX - 1) // 3  # the largest value whose odd step 3n + 1 fits int64
    s, lc, pk, cd = (a[base:stop] for a in (steps, l_count, peaks, codes))
    # Offset of each row's descent target or leader; negative for none.
    target = np.full(size, -1, dtype=np.int64)
    # Rows whose first descent their residue mod 4 fixes never become lanes.
    # An even n steps to n/2, and an n = 1 mod 4 to 3n + 1, (3n + 1)/2 and
    # (3n + 1)/4, with no value below n or 1 before these. So the target is
    # n/2 (1 step, 1 halving, peak n) for even n >= 2 lo, and (3n + 1)/4
    # (3 steps, 2 halvings, peak 3n + 1) for n = 1 mod 4 with 5 <= n <= the
    # guard, so that 3n + 1 fits int64, 3n + 1 >= 4 lo (n >= (4 lo + 1) // 3)
    # and a cap of at least 3. An even n past int64 reads 2^63 - 1 (see survey),
    # so no range may hold both it and n/2; no range of RANGE_CAP inputs can.
    n = max(2 * lo, first)
    even = slice(n + (n & 1) - first, size, 2)
    n = max(5, first, (4 * lo + 1) // 3)
    odd = slice(n + (1 - n) % 4 - first,
                max(0, min(size, guard + 1 - first)) if max_steps >= 3 else 0, 4)
    s[even], lc[even], target[even] = 1, 1, (pk[even] >> 1) - low
    pk[odd] = 3 * pk[odd] + 1
    s[odd], lc[odd], target[odd] = 3, 2, (pk[odd] >> 2) - low

    def lockstep(lane, cur, span, merge):
        """Step the rows ``lane`` (offsets into the chunk) from the values
        ``cur`` until each retires: at a value v with v - lo < ``span``,
        compared unsigned, or at 1, at the cap, or, when ``merge`` is set,
        as a follower of a lane at the same value."""
        top = cur.copy()
        # Each lane's steps and halvings beyond the round count ``taken``; a
        # round is one shortcut step, so one halving.
        ahead = np.zeros(lane.size, dtype=np.int64)
        halves = np.zeros(lane.size, dtype=np.int64)
        taken = wide = 0
        checked = lane.size  # live lanes at the last merge round
        while lane.size:
            # A round takes one or two steps, so a cap can fall between an R and
            # its L. A round adds at most one step beyond the round count, so
            # ``ahead - taken`` never grows in a round; ``wide`` is its largest
            # value after any walk. So no lane is past 2 * taken + wide steps,
            # and lanes need checking only once that is within two steps of the
            # cap. One with no step left, or with one left before an R that fits
            # int64, stops at the cap, with peak 3x + 1 in the second case. An
            # odd lane past the guard takes its last step on its walk; an even
            # one takes it in the round. A tail round skips the check, since its
            # walks stop at the cap themselves.
            tail = lane.size <= _TAIL
            if not tail and 2 * taken + wide + 2 > max_steps:
                left = max_steps - taken - ahead
                done = (left == 0) | (left == 1) & (cur & 1 == 1) & (cur <= guard)
                if done.any():
                    j = lane[done]
                    s[j], lc[j], cd[j], pk[j] = max_steps, taken + halves[done], 2, np.maximum(
                        top[done], 3 * np.where(left[done], cur[done], 0) + 1)
                    lane, span, cur, top, halves, ahead = _keep(
                        ~done, lane, span, cur, top, halves, ahead)
                    continue
            # Lanes are walked exactly at this one site, each from its value, or
            # from its row's input when at 2^63 - 1 (an input past int64 reads
            # 2^63 - 1, see survey; no round gives 2^62 or more). With at most
            # _TAIL lanes left (the tail), every lane walks with floor 1, to 1 or
            # to the cap, and the rows are written. Otherwise an odd value past
            # the guard would overflow int64 at its next step, so its lane walks
            # with the guard as floor (an excursion); even values halve in int64.
            # That odd step tops int64, so the row is big: a walk whose peak
            # reaches 2^63 - 1 keeps it in ``big_peaks`` and clips its lane's
            # peak to 2^63 - 1. No other row holds 2^63 - 1: the guard is even,
            # so a lockstep odd step gives at most 2^63 - 4, and 2^63 - 1 is odd,
            # so its next step leaves int64. A walk capped past the guard leaves its
            # lane at 0, a value no round reaches: the cap check next retires it,
            # or its tail row reads code 2, and the value is not used again.
            floor = 1 if tail else guard
            if tail or int(cur.max()) > floor and (
                    hot := np.nonzero((cur > floor) & (cur & 1 == 1))[0]).size:
                for k in range(lane.size) if tail else hot.tolist():
                    row, start = base + int(lane[k]), int(cur[k])
                    walked, peak, halved, end, _ = _walk(start if start < _INT64_MAX else lo + row,
                                                         max_steps - taken - int(ahead[k]), floor)
                    ahead[k], halves[k] = ahead[k] + walked, halves[k] + halved
                    top[k] = _INT64_MAX if peak >= _INT64_MAX else max(peak, int(top[k]))
                    if peak >= _INT64_MAX:
                        big_peaks[row] = max(peak, big_peaks.get(row, 0))
                    cur[k] = end if end <= guard else 0
                wide = max(wide, int(ahead.max()) - taken)
                if tail:
                    s[lane], lc[lane], pk[lane], cd[lane] = (
                        taken + ahead, taken + halves, top, 2 * (cur != 1))
                    break
                continue
            # One shortcut step, T(x) = x/2 or (3x + 1)/2 (Terras, 1976); the
            # peak candidate new << odd is 3x + 1 for an odd x, at most x else.
            odd = cur & 1
            cur = (cur >> 1) + odd * (cur + 1)
            np.maximum(top, cur << odd, out=top)
            ahead += odd
            taken += 1
            # Only a halving brings a value below the start, so the check follows
            # the round. An R from below lo into the range is passed over; a
            # later value is as exact a target.
            down = (cur - low).view(np.uint64) < span
            if lo > 1:
                down |= cur == 1
            if down.any():
                j = lane[down]
                s[j], lc[j], pk[j], target[j] = (
                    taken + ahead[down], taken + halves[down], top[down], cur[down] - low)
                lane, span, cur, top, halves, ahead = _keep(
                    ~down, lane, span, cur, top, halves, ahead)
            if not merge or taken % _MERGE_EVERY:
                continue
            # Lanes at one value share their future, so every _MERGE_EVERY rounds,
            # unless an eighth of the live lanes retired since the last merge round
            # or round 0 (as in dense ranges), only the lane of least peak so far
            # in each group steps on, big lanes ranked by exact peak and ties going
            # to the lowest row (lanes stay in row order). The rest retire with it
            # as target, keeping steps and halvings minus its own (maybe <= 0) and
            # their own peak: that is no less than the leader's peak so far, so the
            # max of it and the leader's total is exact. A lane in an earlier
            # ranking block than its leader steps on, so no target is in a later
            # block than its row.
            if 8 * (checked - lane.size) < lane.size:
                big = np.nonzero(top == _INT64_MAX)[0]
                exact = [big_peaks[base + row] for row in lane[big].tolist()]
                rank = np.zeros(lane.size, dtype=np.int64)
                rank[big[sorted(range(big.size), key=exact.__getitem__)]] = np.arange(big.size)
                order = np.lexsort((rank, top, cur))
                head = np.r_[True, np.diff(cur[order]) != 0]
                # The followers, and the leader (first in order) of each one's group.
                f, k = order[~head], order[np.nonzero(head)[0][np.cumsum(head) - 1]][~head]
                follow = lane[f] // _RANK >= lane[k] // _RANK
                f, k = f[follow], k[follow]
                j = lane[f]
                s[j], lc[j], pk[j], target[j] = (
                    ahead[f] - ahead[k], halves[f] - halves[k], top[f], base + lane[k])
                kept = np.ones(lane.size, dtype=bool)
                kept[f] = False
                lane, span, cur, top, halves, ahead = _keep(
                    np.nonzero(kept)[0], lane, span, cur, top, halves, ahead)
            checked = lane.size

    lane = np.nonzero((target < 0) & (pk != 1))[0]
    # lo <= cur < start  <=>  (cur - lo) < (start - lo), compared unsigned.
    lockstep(lane, pk[lane], (pk[lane] - low).view(np.uint64), True)

    # Rows are ranked in row order, _RANK at a time, by pointer jumping
    # (Wyllie's list ranking): each round adds every row's target's totals to
    # its own and makes the target's target its target, so d links take
    # ceil(log2 d) rounds. No target is in a later block than its row (a
    # descent target lies below it), so a target before the block is final
    # and ends its row's chain. Stop codes ride along: a row chained to a
    # capped one is redone below. So do exact big peaks: only big rows hold
    # 2^63 - 1, so a target that reads it, itself or by a link added before,
    # has a ``big_peaks`` entry, the largest exact peak on its chain so far,
    # and the row keeps the max of its own entry and that one. An entry
    # updated earlier in the same round covers more of the target's chain,
    # all of which is on the row's chain too, so the max stays exact.
    ops = (np.add, np.add, np.maximum, np.maximum)
    for start in range(base, stop, _RANK):
        link = target[start - base:start - base + _RANK].copy()
        live = np.nonzero(link >= 0)[0]
        while live.size:
            k, rows = link[live], start + live
            if big_peaks:
                big = peaks[k] == _INT64_MAX
                for row, at in zip(rows[big].tolist(), k[big].tolist()):
                    big_peaks[row] = max(big_peaks.get(row, 0), big_peaks[at])
            for column, op in zip((steps, l_count, peaks, codes), ops):
                column[rows] = op(column[rows], column[k])
            link[live] = np.where(k >= start, link[(k - start).clip(0)], -1)
            live = live[link[live] >= 0]

    # A row chained to a capped one, or whose total tops the cap, steps again
    # from its own input (clipped to int64, as in survey), with no descent
    # (span 0, or 1 for lo = 1, so that only arrival at 1 retires a lane) and
    # no merges. Its stop code is reset first, since a follower of a capped
    # leader can still reach 1 within the cap, and so is the big_peaks entry
    # of a row reading 2^63 - 1: it holds the chain's largest peak, which can
    # top the capped prefix's, and the walk site keeps the max.
    redo = np.nonzero((target >= 0) & ((cd != 0) | (s > max_steps)))[0]
    for row in (base + redo[pk[redo] == _INT64_MAX]).tolist():
        del big_peaks[row]
    cd[redo] = 0
    least = min(first, _INT64_MAX)
    lockstep(redo, np.minimum(redo, _INT64_MAX - least) + least,
             np.full(redo.size, lo == 1, dtype=np.uint64), False)


def _repeat_rows(lo: int, max_steps: int, steps: np.ndarray, codes: np.ndarray) -> list[int]:
    """Turn AT_ONE columns into ON_REPEAT ones in place.

    For n >= 3 a trajectory that reaches 1 came through 4, the only
    way into 2, so its first repeat is the next step 1 -> 4: one more
    step, with the same l_count and peak. A row that reached 1 at the
    cap has no room for it. Returns the offsets left to the exact
    seen-set stepper, rows n = 1, 2 and rows capped short of 1, so that
    no cycle is assumed.
    """
    reached = codes == 0
    more = reached & (steps < max_steps)
    steps[more] += 1
    codes[more] = 1
    codes[reached & ~more] = 2
    return [*range(min(max(0, 3 - lo), len(codes))), *np.nonzero(~reached)[0].tolist()]


def survey(lo: int, hi: int, rule: StopRule | None = None) -> SurveyResult:
    """Summarize every trajectory for n in [lo, hi], in range order.

    The result is deterministic for a given (lo, hi, rule); internal
    chunking never reorders rows. A range of more than :data:`RANGE_CAP`
    inputs raises :class:`ResourceError` before anything is allocated.
    """
    require_int(lo, "lo", 1)
    require_int(hi, "hi", lo)
    rule = StopRule() if rule is None else rule
    require_member(rule, StopRule, "rule")
    size = hi - lo + 1
    if size > RANGE_CAP:
        raise ResourceError(f"range size {size} exceeds cap {RANGE_CAP}")

    steps = np.zeros(size, dtype=np.int64)
    l_count = np.zeros(size, dtype=np.int64)
    codes = np.zeros(size, dtype=np.uint8)
    big_peaks: dict[int, int] = {}
    # Each row's input, clipped to int64: an input past it reads 2^63 - 1, as
    # a big row does, which it is, since its peak is at least its input.
    peaks = (np.arange(lo, hi + 1, dtype=np.int64) if hi <= _INT64_MAX else
             np.r_[np.arange(min(lo, _INT64_MAX), _INT64_MAX),
                   np.full(min(size, hi - _INT64_MAX + 1), _INT64_MAX)])
    for base in range(0, size, _CHUNK):
        _survey_chunk(lo, base, min(base + _CHUNK, size), rule.max_steps, steps, l_count, peaks,
                      codes, big_peaks)
    # ON_REPEAT rows are the AT_ONE rows turned by _repeat_rows; the rows it
    # leaves go to the seen-set stepper, which alone can find a cycle.
    if rule.mode is StopMode.ON_REPEAT:
        for offset in _repeat_rows(lo, rule.max_steps, steps, codes):
            steps[offset], peak, l_count[offset], _, _, codes[offset] = _exact(lo + offset, rule)
            peaks[offset] = min(peak, _INT64_MAX)
            big_peaks.pop(offset, None)
            if peak > _INT64_MAX:
                big_peaks[offset] = peak

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
