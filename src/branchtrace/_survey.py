"""The survey kernel: :func:`survey` and :class:`SurveyResult`, the numpy
batch path of :mod:`branchtrace.collatz`, which loads it on first use.

The batch path steps int64 lanes only while provably safe, in one
lockstep that each chunk of rows runs twice. Before it, a sieve on n
mod 2^8 fills the rows whose first descent the residue fixes: the low K
bits of n fix its first K shortcut steps (R. Terras, Acta Arith. 30,
1976), and verification runs sieve residue classes the same way (T.
Oliveira e Silva, Math. Comp. 68, 1999). The table _DESCENT, built
from the exact walker's block table, holds each residue's first descent,
and one broadcast writes it down a grid of the chunk's whole q-rows, n =
2^8 q + s for q >= 1 and every s: every even n descends in 1 step, every
n = 1 mod 4 in 3, and 45 of the 64 classes n = 3 mod 4 within 8. Lanes
start from their inputs, and every way out of the lockstep writes all
of a row's columns, so the grid may fill any row. In the first pass a row
steps until it falls to a row of the range, meets another lane at one
value, reaches 1 or hits the step cap; its totals then add up along
these links. In the second, the rows whose linked total tops the cap
step again from their own inputs, to 1 or to the cap. A lane whose odd
value is past the int64 step guard parks: it keeps stepping in the same
rounds as an exact Python int until back at or below the guard. Lanes
leave the rounds for exact walks at one site: the last few lanes walk
to 1, parked lanes walk once the cap is near, and a value past the
walk's block threshold walks down to the guard. The cap check follows
that site, so it meets no parked lane. Only the ON_REPEAT rows
that no AT_ONE row settles, n = 1, 2 and rows capped short of 1, are
walked one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .collatz import (RANGE_CAP, StopMode, StopRule, TraceSummary, _K, _REASON_CODES, _TAB,
                      _walk, _walk_repeat)
from .errors import DomainError, ResourceError, require_int, require_member

# The survey kernel's word: the largest value its int64 lanes hold.
_INT64_MAX = (1 << 63) - 1

_CHUNK = 1 << 16
_RANK = 1 << 13  # rows per block when the survey ranks descent chains in row order
_TAIL = 32  # lanes left when the survey lockstep walks each exactly to 1
_MERGE_EVERY = 32  # rounds between lane merges in the survey lockstep


def _descents() -> np.ndarray:
    """The first descent that n mod 2^K fixes, read off ``_TAB``'s blocks.

    For n = 2^K q + s, a block's first K shortcut steps take the parities
    of s (Terras, 1976), and each of its values is C q + t, with C and t
    following the branches from 2^K and s. Columns, one per residue s: the
    shortcut step i at which T^i(n) < n first, the steps i + a (a of them
    odd), C and t with T^i(n) = C q + t, and A and B with A q + B the peak
    (the 3x + 1 of largest A, which tops the rest once q is large, as for
    ``_TAB``). All of this holds from q = 1 on: each condition is linear in
    q, and the tests check it at q = 1 and at the largest q the survey
    sieves. A residue whose block never descends reads zeros.
    """
    rows, side = [], 1 << _K
    for s, (text, *_) in enumerate(_TAB):
        c, t, i, peaks = side, s, 0, [(side, s)]
        rows.append((0,) * 6)
        for steps, sym in enumerate(text, 1):
            c, t, i = (3 * c, 3 * t + 1, i) if sym == "R" else (c >> 1, t >> 1, i + 1)
            if sym == "R":
                peaks.append((c, t))
            elif c < side:
                rows[s] = (i, steps, c, t, *max(peaks))
                break
    return np.array(rows, dtype=np.int64).T


_DESCENT = _descents()


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
    least = min(first, _INT64_MAX)  # the chunk's first input, clipped to int64
    guard = (_INT64_MAX - 1) // 3  # the largest value whose odd step 3n + 1 fits int64
    s, lc, pk, cd = (a[base:stop] for a in (steps, l_count, peaks, codes))
    # Offset of each row's descent target or leader; negative for none.
    target = np.full(size, -1, dtype=np.int64)
    # Rows whose first descent their residue fixes never become lanes: the low
    # K bits of n fix its first K shortcut steps (Terras, 1976), so a table
    # over n mod 2^K sieves the rows, as verification runs sieve residue
    # classes mod 2^k (T. Oliveira e Silva, Math. Comp. 68, 1999). The sieve
    # is one grid: the chunk's whole q-rows, n = 2^8 q + s for every s, viewed
    # as a (rows, 2^8) block of each column, down which each residue's row of
    # _DESCENT is broadcast. It writes what the lockstep's descent check
    # would: i + a steps, i halvings, peak A q + B and target T^i(n) - lo, all
    # exact from q = 1 on. No round before i retires such a lane, since its
    # values are at least n, merges start at round _MERGE_EVERY (32) and no
    # value passes the guard, since the peak fits the word. A residue whose
    # i + a steps top the cap reads zeros, as does one that never descends,
    # so its target reads -lo; that row, like one whose T^i(n) is below lo,
    # keeps a negative target and stays a lane. The grid starts where it can
    # pay, at 243 q >= lo, since T^i(n) is about C q with C at most 3^5, and
    # ends at n <= _INT64_MAX // 80, so that A q + B fits the word (A < 16 *
    # 2^8); the word is read here, so a smaller one (see the tests) cuts it
    # too.
    end = min(first + size, _INT64_MAX // 80 + 1) >> _K
    head = min(max(-(-first >> _K), -(-lo // 243), 1), end)
    q = np.arange(head, end, dtype=np.int64)[:, None]
    whole = slice((head << _K) - first, (end << _K) - first)
    at, total, mul, add, rise, shift = _DESCENT * (_DESCENT[1] <= max_steps)
    grid = [column[whole].reshape(-1, 1 << _K) for column in (s, lc, pk, target)]
    grid[0][:], grid[1][:] = total, at
    for column, factor, offset in zip(grid[2:], (rise, mul), (shift, add - low)):
        np.multiply(factor, q, out=column)  # in place: no temporary of the grid's size
        column += offset

    def lockstep(lane, merge):
        """Step the rows ``lane`` (offsets into the chunk, ascending) from their
        inputs, clipped to int64 as in survey, until each retires: at 1, at
        the cap, or, when ``merge`` is set (the first pass), as a follower of
        a lane at the same value or at a value v with lo <= v < its input."""
        cur = np.minimum(lane, _INT64_MAX - least) + least
        # lo <= cur < start  <=>  (cur - lo) < (start - lo), compared unsigned;
        # the second pass has no descent (span 0, or 1 for lo = 1, so that only
        # arrival at 1 retires a lane).
        span = ((cur - low).view(np.uint64) if merge else
                np.full(lane.size, lo == 1, dtype=np.uint64))
        top = cur.copy()
        # Each lane's steps and halvings beyond the round count ``taken``; a
        # round is one shortcut step, so one halving.
        ahead = np.zeros(lane.size, dtype=np.int64)
        halves = np.zeros(lane.size, dtype=np.int64)
        taken = wide = 0
        checked = lane.size  # live lanes at the last merge round
        # lane: [lane, exact value, exact peak, odd steps since parking], for
        # each lane parked past the guard (see the walk site); its slot holds 0.
        # Lanes stay in row order, since _keep keeps a subsequence, so
        # np.searchsorted(lane, lanes) finds parked lanes' slots.
        parked = {}
        block = (guard + 1) << _K  # from here _walk takes 8-step blocks

        def settle(entries, floor, slots):
            """Write each [lane, value, peak, odd steps] entry back to its lane's
            slot in ``slots``, walking it first to ``floor`` or the cap if its
            value tops ``floor``; a walk updates ``wide``."""
            nonlocal wide
            for k, (j, value, peak, odd) in zip(slots, entries):
                odd += ahead.item(k)
                if value > floor:
                    walked, high, halved, value, _ = _walk(value, max_steps - taken - odd, floor)
                    odd, peak = odd + walked, high if high > peak else peak
                    halves[k] = halves.item(k) + halved
                    wide = odd - taken if odd - taken > wide else wide
                ahead[k] = odd
                if peak >= _INT64_MAX:
                    top[k] = _INT64_MAX
                    big_peaks[base + j] = max(peak, big_peaks.get(base + j, 0))
                elif peak > top.item(k):
                    top[k] = peak
                cur[k] = value if value <= guard else 0

        while lane.size:
            # A round takes one or two steps, so a cap can fall between an R and
            # its L. A round adds at most one step beyond the round count, and a
            # parked lane takes at most one odd step a round too, so ``ahead -
            # taken`` (a parked lane's odd steps included) never grows in a
            # round; ``wide`` is its largest value after any walk. So no lane is
            # past 2 * taken + wide steps, and lanes need checking only once that
            # is within two steps of the cap.
            tail = lane.size <= _TAIL
            capping = 2 * taken + wide + 2 > max_steps
            # An odd value past the guard would overflow int64 at its next step.
            # Its lane parks: the slot holds 0, a value no round reaches (T(0) =
            # 0, below every descent target, never 1, and in no merge group), and
            # the exact value takes each round's shortcut step as a Python int,
            # from the lane's value, or from its row's input at 2^63 - 1 (an
            # input past int64 reads 2^63 - 1, see survey; no round gives 2^62 or
            # more), until it is back at or below the guard and rejoins its slot.
            # Lanes are walked exactly at one site, settle, in three cases. With
            # at most _TAIL lanes left (the tail), every lane walks with floor 1,
            # to 1 or to the cap, and the rows are written. Once the cap is near,
            # parked lanes and lanes due to park walk with the guard as floor,
            # so that the cap check below sees no parked lane and no odd value
            # past the guard. A value at or past ``block`` walks to the guard,
            # since 8-step blocks take it down faster than rounds do. An odd
            # step past the guard tops int64, so the row is big: a peak reaching
            # 2^63 - 1 is kept in ``big_peaks`` and clipped to 2^63 - 1 in
            # ``top``. No other row holds 2^63 - 1: the guard is even, so a
            # lockstep odd step gives at most 2^63 - 4, and 2^63 - 1 is odd, so
            # its next step leaves int64. A walk capped past the guard leaves its
            # lane at 0 too: the cap check retires it, or its tail row reads
            # code 2.
            if tail or capping and parked or int(cur.max()) > guard:
                floor, walks, slots = 1 if tail else guard, [], []
                hot = np.nonzero((cur > floor) & (tail | (cur & 1 == 1)))[0]
                for k, j, value in zip(hot.tolist(), lane[hot].tolist(), cur[hot].tolist()):
                    value = value if value < _INT64_MAX else lo + base + j
                    if tail or capping or value >= block:
                        walks.append((j, value, value, 0))
                        slots.append(k)
                    else:
                        parked[j] = [j, value, value, 0]
                cur[hot] = 0
                if parked and (tail or capping):
                    walks += parked.values()
                    slots += lane.searchsorted(list(parked)).tolist()
                    parked = {}
                settle(walks, floor, slots)
                if tail:
                    s[lane], lc[lane], pk[lane], cd[lane] = (
                        taken + ahead, taken + halves, top, 2 * (cur != 1))
                    break
                if walks:
                    continue
            # Near the cap, the walk site has left no lane parked and every odd
            # lane at or below the guard. A lane with no step left, or with one
            # left before an R, stops at the cap, with peak 3x + 1 in the second
            # case; an even lane past the guard takes its last step in the round.
            if capping:
                left = max_steps - taken - ahead
                done = (left == 0) | (left == 1) & (cur & 1 == 1)
                if done.any():
                    j = lane[done]
                    s[j], lc[j], cd[j], pk[j] = max_steps, taken + halves[done], 2, np.maximum(
                        top[done], 3 * np.where(left[done], cur[done], 0) + 1)
                    lane, span, cur, top, halves, ahead = _keep(
                        ~done, lane, span, cur, top, halves, ahead)
                    continue
            # One shortcut step, T(x) = x/2 or (3x + 1)/2 (Terras, 1976); the
            # peak candidate new << odd is 3x + 1 for an odd x, at most x else.
            odd = cur & 1
            cur = (cur >> 1) + odd * (cur + 1)
            np.maximum(top, cur << odd, out=top)
            ahead += odd
            taken += 1
            if parked:
                home = []  # parked lanes back at or below the guard, or at ``block``
                for entry in parked.values():
                    value = entry[1]
                    if value & 1:
                        value = 3 * value + 1
                        if value > entry[2]:
                            entry[2] = value
                        entry[3] += 1
                    entry[1] = value = value >> 1
                    if not guard < value < block:
                        home.append(entry)
                if home:
                    for entry in home:
                        del parked[entry[0]]
                    settle(home, guard, lane.searchsorted([entry[0] for entry in home]).tolist())
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
            # block than its row. A lane at 0 (parked, its top not yet final) is
            # a group of its own.
            if 8 * (checked - lane.size) < lane.size:
                big = np.nonzero((top == _INT64_MAX) & (cur != 0))[0]
                exact = [big_peaks[base + row] for row in lane[big].tolist()]
                rank = np.zeros(lane.size, dtype=np.int64)
                rank[big[sorted(range(big.size), key=exact.__getitem__)]] = np.arange(big.size)
                order = np.lexsort((rank, top, cur))
                head = np.r_[True, np.diff(cur[order]) != 0] | (cur[order] == 0)
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

    # Every row with a negative target but n = 1 is a lane. The grid may have
    # written a lane's peak, steps and halvings, so lanes start from their
    # inputs, not from ``pk``, and every way out of the lockstep writes all
    # four of a row's columns.
    lockstep(np.nonzero((target < 0) & (pk != 1))[0], True)

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
    # from its own input, with no descent and no merges. Its stop code is
    # reset first, since a follower of a capped leader can still reach 1
    # within the cap, and so is the big_peaks entry of a row reading 2^63 -
    # 1: it holds the chain's largest peak, which can top the capped
    # prefix's, and settle keeps the max.
    redo = np.nonzero((target >= 0) & ((cd != 0) | (s > max_steps)))[0]
    for row in (base + redo[pk[redo] == _INT64_MAX]).tolist():
        del big_peaks[row]
    cd[redo] = 0
    lockstep(redo, False)


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
            steps[offset], peak, l_count[offset], _, _, codes[offset] = _walk_repeat(
                lo + offset, rule.max_steps)
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
