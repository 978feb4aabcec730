"""Independent brute-force reference implementations for the tests.

Everything here is written from scratch against the definitions, not
against the package, and as plainly as possible: explicit loops, list
states, a literal truth table. Slow on purpose.
"""

import math
from collections import Counter

# new cell = left XOR (center OR right), i.e. rule number 30
TRUTH_TABLE = {
    (1, 1, 1): 0,
    (1, 1, 0): 0,
    (1, 0, 1): 0,
    (1, 0, 0): 1,
    (0, 1, 1): 1,
    (0, 1, 0): 1,
    (0, 0, 1): 1,
    (0, 0, 0): 0,
}


def hailstone(n, stop_at_one=True, max_steps=100_000):
    """Trajectory summary dict computed the naive way."""
    symbols = []
    cur = n
    peak = n
    visited = {n}
    reason = None
    while True:
        if stop_at_one and cur == 1:
            reason = "reached_one"
            break
        if len(symbols) >= max_steps:
            reason = "step_cap_exceeded"
            break
        if cur % 2 == 1:
            cur = 3 * cur + 1
            symbols.append("R")
        else:
            cur = cur // 2
            symbols.append("L")
        if cur > peak:
            peak = cur
        if not stop_at_one:
            if cur in visited:
                reason = "repeat_detected"
                break
            visited.add(cur)
    return {
        "n": n,
        "trace": "".join(symbols),
        "steps": len(symbols),
        "peak": peak,
        "terminal": cur,
        "stop_reason": reason,
        "l_count": symbols.count("L"),
    }


def automaton_step(cells, wrap):
    """One generation over a list of 0/1 cells via the truth table."""
    if wrap:
        width = len(cells)
        return [
            TRUTH_TABLE[cells[(i - 1) % width], cells[i], cells[(i + 1) % width]]
            for i in range(width)
        ]
    padded = [0, 0] + list(cells) + [0, 0]
    return [
        TRUTH_TABLE[padded[i - 1], padded[i], padded[i + 1]]
        for i in range(1, len(padded) - 1)
    ]


def automaton_run(cells, steps, wrap):
    """List of generations, the initial cells first."""
    rows = [list(cells)]
    for _ in range(steps):
        rows.append(automaton_step(rows[-1], wrap))
    return rows


def entropy(symbols):
    """Shannon entropy by direct counting, bits per symbol."""
    tally = Counter(symbols)
    total = sum(tally.values())
    h = 0.0
    for count in tally.values():
        p = count / total
        h -= p * math.log2(p)
    return h


def decode(trace, terminal):
    """Undo a branch string symbol by symbol from the last one.

    Returns ("ok", input), or (error class name, message, index) for the
    first failure: a symbol that is not L or R, or an R whose value has
    no odd predecessor (n - 1) / 3.
    """
    for ch in trace:
        if ch not in ("L", "R"):
            return ("DomainError", f"invalid branch symbol {ch!r}", None)
    cur = terminal
    for index in range(len(trace) - 1, -1, -1):
        if trace[index] == "L":
            cur = cur * 2
            continue
        if cur <= 1 or (cur - 1) % 3 != 0:
            return ("InconsistentTrace", f"step {index}: no odd predecessor for {cur}", index)
        prev = (cur - 1) // 3
        if prev % 2 == 0:
            return ("InconsistentTrace", f"step {index}: predecessor {prev} of {cur} is even",
                    index)
        cur = prev
    return ("ok", cur)


def replay(n, trace):
    """Apply a branch string symbol by symbol from n.

    Returns ("ok", (terminal, peak)), or (error class name, message,
    index) for the first symbol that is not L or R or disagrees with the
    parity of the current value.
    """
    cur = peak = n
    for index, sym in enumerate(trace):
        if sym == "L":
            if cur % 2 == 1:
                return ("InconsistentTrace", f"step {index}: L branch taken at odd value {cur}",
                        index)
            cur = cur // 2
        elif sym == "R":
            if cur % 2 == 0:
                return ("InconsistentTrace", f"step {index}: R branch taken at even value {cur}",
                        index)
            cur = 3 * cur + 1
        else:
            return ("DomainError", f"invalid branch symbol {sym!r}", None)
        peak = max(peak, cur)
    return ("ok", (cur, peak))


def digest_blocks(message):
    """The toy digest's padded message as a list of 32-byte blocks.

    0x80 ends the message, zeros fill its last block, and a final block
    holds 16 zero bytes and the message bit length, little-endian.
    """
    padded = bytes(message) + b"\x80"
    while len(padded) % 32 != 0:
        padded += b"\x00"
    padded += bytes(16) + (8 * len(message)).to_bytes(16, "little")
    return [padded[i : i + 32] for i in range(0, len(padded), 32)]


def digest(key, message, forced=None):
    """The keyed toy digest one round at a time on a list of four words.

    Each block is XORed into the words, then 16 rounds run. Before each
    round the low bit of w[0] picks f (L, even) or g (R, odd), unless
    ``forced`` names the symbol for every round. Returns (the 32-byte
    value, the schedule string).
    """
    mask = 2**64 - 1

    def rotl(x, r):
        return ((x << r) | (x >> (64 - r))) & mask

    w = [int.from_bytes(key[i : i + 8], "little") for i in range(0, 32, 8)]
    schedule = []
    for block in digest_blocks(message):
        for i in range(4):
            w[i] ^= int.from_bytes(block[8 * i : 8 * i + 8], "little")
        for _ in range(16):
            if forced is not None:
                sym = forced[len(schedule)]
            else:
                sym = "R" if w[0] % 2 == 1 else "L"
            schedule.append(sym)
            if sym == "L":
                w[0] = (w[0] + w[1]) & mask
                w[3] = rotl(w[3] ^ w[0], 13)
                w[2] = (w[2] + w[3]) & mask
                w[1] = rotl(w[1] ^ w[2], 29)
            else:
                w[0] = w[0] ^ 0xA5A5A5A5A5A5A5A5
                w[1] = (w[1] + w[3]) & mask
                w[2] = rotl(w[2] ^ w[1], 7)
                w[3] = rotl((w[3] + w[0]) & mask, 41)
    value = b"".join(x.to_bytes(8, "little") for x in w)
    return value, "".join(schedule)
