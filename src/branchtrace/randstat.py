"""Statistical battery for bitstreams and branch traces.

A small, classical set of randomness tests: monobit frequency, runs,
and serial chi-square over non-overlapping blocks, plus Shannon entropy
and an avalanche harness for byte-to-byte functions. Each hypothesis
test returns a :class:`TestReport`; ``alpha`` must lie in (0, 1), and
``passed`` is exactly ``p_value >= alpha``.

p-values come from the local :mod:`branchtrace.special` implementations
of erfc and the regularized incomplete gamma, so reports are identical
across platforms.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, require_int
from .prng import XorShift64Star
from .special import erfc, reg_gamma_upper

DEFAULT_ALPHA = 0.01
SERIAL_BLOCK_SIZES = (2, 3, 4)

BitStream = str | Sequence[int] | np.ndarray


@dataclass(frozen=True)
class TestReport:
    """Outcome of one hypothesis test on one stream."""

    test_name: str
    statistic: float
    p_value: float
    alpha: float
    passed: bool
    note: str = ""

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not 0.0 <= self.p_value <= 1.0:
            raise DomainError(f"p-value outside [0,1]: {self.p_value!r}")
        if self.passed != (self.p_value >= self.alpha):
            raise DomainError("passed flag contradicts p_value >= alpha")


def _report(name: str, statistic: float, p_value: float, alpha: float,
            note: str = "") -> TestReport:
    p = min(max(p_value, 0.0), 1.0)
    return TestReport(name, float(statistic), p, alpha, p >= alpha, note)


def _as_bits(stream: BitStream) -> np.ndarray:
    """Normalize a stream ('0'/'1' string, 0/1 ints, bools) to uint8; a
    uint8 array passes its check and is returned as it is, not copied."""
    if isinstance(stream, str):
        # Each character but '0' and '1' becomes a byte other than 0 and 1,
        # refused below: a non-ASCII one is encoded as '?', and one below
        # '0' wraps past 1.
        stream = np.frombuffer(stream.encode("ascii", "replace"), np.uint8) - ord("0")
    arr = np.asarray(stream)
    if arr.ndim != 1:
        raise DomainError("bit stream must be one-dimensional")
    if arr.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if arr.dtype != bool:
        if arr.dtype.kind not in "iu":
            raise DomainError(f"bit stream must hold integers, got dtype {arr.dtype}")
        if not np.all((arr == 0) | (arr == 1)):
            raise DomainError("bit stream values must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def shannon_entropy(symbols) -> float:
    """Empirical Shannon entropy in bits per symbol.

    Accepts any finite symbol sequence, not just bits: a branch trace
    string is scored over the alphabet {L, R}, a bit array over {0, 1}.
    Unseen symbols contribute nothing (the 0*log0 term is zero), so the
    value lies in [0, log2(distinct symbols)].
    """
    if isinstance(symbols, np.ndarray):
        if symbols.size == 0:
            raise DomainError("entropy needs at least one symbol")
        _, counts = np.unique(symbols, return_counts=True)
        counts = counts.astype(np.float64)
    else:
        tally = Counter(symbols)
        if not tally:
            raise DomainError("entropy needs at least one symbol")
        counts = np.array(list(tally.values()), dtype=np.float64)
    freq = counts / counts.sum()
    return float(-(freq * np.log2(freq)).sum()) + 0.0


def monobit(stream: BitStream, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Frequency test: are ones and zeros balanced?

    S = sum of (2b - 1); the statistic is |S|/sqrt(n) and the p-value
    erfc(|S|/sqrt(2n)).
    """
    bits = _as_bits(stream)
    n = bits.size
    if n < 100:
        raise DomainError(f"monobit needs at least 100 bits, got {n}")
    s = 2 * int(bits.sum()) - n
    s_obs = abs(s) / math.sqrt(n)
    return _report("monobit", s_obs, erfc(s_obs / math.sqrt(2.0)), alpha)


def runs_test(stream: BitStream, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Runs test: is the count of maximal same-bit runs plausible?

    Only meaningful when the ones fraction pi is already near 1/2; if
    |pi - 1/2| >= 2/sqrt(n) the report fails outright with p = 0 and a
    note, mirroring how the monobit failure would dominate anyway.
    """
    bits = _as_bits(stream)
    n = bits.size
    if n < 100:
        raise DomainError(f"runs test needs at least 100 bits, got {n}")
    pi = float(bits.mean())
    v = int(np.count_nonzero(bits[1:] != bits[:-1])) + 1
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return _report(
            "runs", float(v), 0.0, alpha,
            note="prerequisite failed: ones fraction too far from 1/2",
        )
    p = erfc(
        abs(v - 2.0 * n * pi * (1.0 - pi))
        / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi))
    )
    return _report("runs", float(v), p, alpha)


def serial_test(stream: BitStream, k: int, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Chi-square of non-overlapping k-bit block counts against uniform.

    The trailing partial block is discarded; 2^k - 1 degrees of freedom;
    p = Q((2^k - 1)/2, chi2/2).
    """
    require_int(k, "block size")
    if k not in SERIAL_BLOCK_SIZES:
        raise DomainError(f"block size must be one of {SERIAL_BLOCK_SIZES}, got {k}")
    bits = _as_bits(stream)
    n = bits.size
    need = 100 * (1 << k)
    if n < need:
        raise DomainError(f"serial test with k={k} needs at least {need} bits, got {n}")
    blocks = n // k
    # First bit of each block is its high bit.
    weights = 1 << np.arange(k - 1, -1, -1)
    values = (bits[: blocks * k].reshape(blocks, k) * weights).sum(axis=1)
    counts = np.bincount(values, minlength=1 << k)
    expected = blocks / (1 << k)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p = reg_gamma_upper(((1 << k) - 1) / 2.0, chi2 / 2.0)
    return _report(f"serial_k{k}", chi2, p, alpha)


def battery(stream: BitStream, alpha: float = DEFAULT_ALPHA) -> tuple[TestReport, ...]:
    """Monobit, runs, and serial tests (each k of SERIAL_BLOCK_SIZES) over
    one stream, in that order."""
    return (monobit(stream, alpha), runs_test(stream, alpha),
            *(serial_test(stream, k, alpha) for k in SERIAL_BLOCK_SIZES))


@dataclass(frozen=True)
class AvalancheReport:
    """Single-bit input flips vs. fraction of output bits that change."""

    trials: int
    mean: float
    fractions: tuple[float, ...]


def avalanche(fn: Callable[[bytes], bytes], input_len: int, trials: int,
              seed: int) -> AvalancheReport:
    """Measure output sensitivity of ``fn`` to single-bit input flips.

    Each trial draws a fresh ``input_len``-byte input from the seeded
    generator, flips one uniformly chosen bit, and records the Hamming
    distance between the two outputs divided by the output bit length.
    Deterministic for a given seed. Exceptions from ``fn`` propagate.
    """
    require_int(trials, "trials", 100)
    require_int(input_len, "input length", 1)
    rng = XorShift64Star(seed)
    fractions: list[float] = []
    for _ in range(trials):
        base = rng.bytes(input_len)
        bit = rng.below(8 * input_len)
        mutated = bytearray(base)
        # Bit index counts from the MSB of byte bit>>3.
        mutated[bit >> 3] ^= 0x80 >> (bit & 7)
        out_a = fn(base)
        out_b = fn(bytes(mutated))
        if len(out_a) != len(out_b):
            raise DomainError("function output length varies across inputs")
        if not out_a:
            fractions.append(0.0)
            continue
        diff = int.from_bytes(out_a, "big") ^ int.from_bytes(out_b, "big")
        fractions.append(diff.bit_count() / (8 * len(out_a)))
    mean = sum(fractions) / trials
    return AvalancheReport(trials=trials, mean=mean, fractions=tuple(fractions))
