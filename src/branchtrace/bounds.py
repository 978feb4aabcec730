"""Description-length accounting for branch traces.

The guiding inequality: describing an input n takes b(n) = floor(log2 n)
+ 1 bits, and the branch string of n contains one symbol per step, at
least floor(log2 n) of which are halvings. So over any input set the
total trace length R cannot undercut the total description length B in
the halving column. :func:`bound_report` tabulates b(n), r(n), and the
halving counts over a contiguous range and cross-checks the per-input
inequality l_count(n) >= floor(log2 n), which holds for every
trajectory that reaches 1.

Path-counting helpers quantify the other side of the coin: d nested
two-way branchings yield 2^d distinct composition orders, enumerated
explicitly by :func:`composition_labels` for small d.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import collatz
from .errors import DomainError, require_int

RANGE_CAP = collatz.RANGE_CAP
MAX_LABEL_DEPTH = 20

_FG_TO_LR = str.maketrans("fg", "LR")


def description_bits(n: int) -> int:
    """Minimal binary length of n: floor(log2 n) + 1."""
    require_int(n, "n", 1)
    return n.bit_length()


def paths_at_depth(d: int) -> int:
    """Count of distinct branch paths after d two-way selections: 2^d."""
    require_int(d, "depth", 0)
    return 1 << d


def composition_labels(d: int) -> list[tuple[str, str]]:
    """All 2^d f/g composition words with their L/R branch strings.

    Enumeration is L-first lexicographic (f before g); f maps to L and
    g to R position by position. Depth is capped because the output is
    exhaustive.
    """
    require_int(d, "depth", 0)
    if d > MAX_LABEL_DEPTH:
        raise DomainError(f"depth {d} exceeds enumeration cap {MAX_LABEL_DEPTH}")
    labels = []
    for chars in itertools.product("fg", repeat=d):
        word = "".join(chars)
        labels.append((word, word.translate(_FG_TO_LR)))
    return labels


class BoundRecord(NamedTuple):
    n: int
    b_bits: int
    r_symbols: int
    l_count: int


@dataclass(frozen=True)
class BoundReport:
    """Description-length tally over [lo, hi].

    Arrays cover only inputs whose trajectory reached 1; ``capped``
    lists the rest (excluded from all aggregates). ``violations`` holds
    any n with l_count < floor(log2 n) and is empty unless the
    implementation is broken. ``mean_trace_len`` is 0.0 when every
    input hit the cap.
    """

    lo: int
    hi: int
    n: np.ndarray
    b_bits: np.ndarray
    r_symbols: np.ndarray
    l_count: np.ndarray
    total_bits: int
    total_symbols: int
    violations: tuple[int, ...]
    capped: tuple[int, ...]
    mean_trace_len: float
    log2_set_size: float

    def __len__(self) -> int:
        return int(self.n.size)

    def records(self) -> Iterator[BoundRecord]:
        columns = (self.n, self.b_bits, self.r_symbols, self.l_count)
        return map(BoundRecord, *(column.tolist() for column in columns))


def bound_report(lo: int, hi: int,
                 max_steps: int = collatz.DEFAULT_MAX_STEPS) -> BoundReport:
    """Tabulate b(n), r(n), and halving counts for every n in [lo, hi]."""
    require_int(lo, "lo", 1)
    require_int(hi, "hi", lo)
    # collatz.survey raises ResourceError for more than RANGE_CAP inputs,
    # before it allocates anything.
    result = collatz.survey(lo, hi, collatz.StopRule.at_one(max_steps))
    reached = result.stop_codes == 0
    capped = tuple(int(i) + lo for i in np.nonzero(~reached)[0])

    ns = np.arange(lo, hi + 1, dtype=np.int64 if hi <= np.iinfo(np.int64).max else object)[reached]
    # b(n) = k on each power-of-two run [2^(k-1), 2^k) of the range.
    first, last = lo.bit_length(), hi.bit_length()
    edges = [lo, *(1 << k for k in range(first, last)), hi + 1]
    runs = [end - start for start, end in zip(edges, edges[1:])]
    bits = np.repeat(np.arange(first, last + 1, dtype=np.int64), runs)[reached]
    r_symbols = result.steps[reached]
    l_count = result.l_count[reached]

    bad = l_count < (bits - 1)
    violations = tuple(int(v) for v in np.asarray(ns[bad]))

    reached_count = int(ns.size)
    return BoundReport(
        lo=lo,
        hi=hi,
        n=ns,
        b_bits=bits,
        r_symbols=r_symbols,
        l_count=l_count,
        total_bits=int(bits.sum()),
        total_symbols=int(r_symbols.sum()),
        violations=violations,
        capped=capped,
        mean_trace_len=float(r_symbols.mean()) if reached_count else 0.0,
        log2_set_size=math.log2(hi - lo + 1),
    )
