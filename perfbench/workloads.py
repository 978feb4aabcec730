"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload is a fixed list of operations built from the seed; the
program only ever sees the generated inputs. The harness runs the list
as one closed-loop client, each operation waiting for the one before.
Operations call the package through module attributes
(``collatz.survey``, ``cli.main``) so that the tracer can wrap them, and
CLI commands run in-process through ``cli.main(argv)``.

Why these workloads:

* ``survey_dense`` runs the CLI commands the README shows over a dense
  range [1, H]: a survey to CSV, a fifth of it to JSON, and a bound
  report over half of it. Every trajectory falls into rows already in
  the range, which is what a memoized descent reuses, and no value comes
  near the int64 guard. Time splits between the collatz kernel and the
  CLI's row formatting and writing, and the retained rows set peak RSS.
* ``exact_wide`` surveys short library windows between 2^40 and 2^62,
  runs a short ON_REPEAT survey, and makes trace -> decode -> replay
  round trips on 64- to 1024-bit inputs. No two inputs share a tail, so
  memoization has nothing to reuse; windows above 2^58 push lanes past
  the int64 step guard into the exact scalar fallback. No CLI
  formatting runs.
* ``bitstream_digest`` streams rule 30 center columns (EXPAND_ZERO from
  one cell, WRAP from a random row) into the randomness battery, writes
  a retained-grid PBM through the CLI, and digests seeded messages from
  0 B to 192 KiB, replaying each from its schedule. Nothing here touches
  collatz, so a rule30, randstat or dyncompose change shows only here.

Input sizes are fixed per workload; the seed picks the values and moves
H by at most 1%, so run time does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from branchtrace import cli, collatz, dyncompose, randstat, rule30


@dataclass
class Op:
    """One timed operation.

    ``run`` performs it and returns its output. ``check`` lists what is
    wrong with that output; an empty list means it is correct. ``kind``
    names the rate the operation feeds and ``work`` is how many units of
    that rate (inputs, bits or bytes) it processes.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    kind: str = ""
    work: int = 0


@dataclass
class CliRun:
    """Exit code, captured streams and output files of one CLI command."""

    code: int
    stdout: str
    stderr: str
    files: dict[str, Path] = field(default_factory=dict)


def _cli_op(name: str, argv: list[str], files: dict[str, Path], check,
            kind: str = "", work: int = 0) -> Op:
    def run() -> CliRun:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliRun(code, out.getvalue(), err.getvalue(), files)

    def checked(output: CliRun) -> list[str]:
        if output.code != 0:
            return [f"exit code {output.code}: {output.stderr.strip()}"]
        return check(output)

    return Op(name, run, checked, kind, work)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(output) -> dict[str, str]:
    """sha256 of an output; one entry per stream or file for a CLI run."""
    if isinstance(output, CliRun):
        prints = {"exit": str(output.code), "stdout": _sha256(output.stdout.encode())}
        for label, path in output.files.items():
            prints[label] = _sha256(path.read_bytes()) if path.is_file() else "missing"
        return prints
    digest = hashlib.sha256()
    _feed(digest, output)
    return {"value": digest.hexdigest()}


def _feed(digest, value) -> None:
    if isinstance(value, np.ndarray):
        digest.update(value.dtype.str.encode() + value.tobytes())
    elif isinstance(value, collatz.SurveyResult):
        for column in (value.steps, value.l_count, value.peaks, value.stop_codes):
            _feed(digest, column)
        digest.update(repr(sorted(value.big_peaks.items())).encode())
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(digest, item)
            digest.update(b"\x00")
    else:
        digest.update(repr(value).encode())


def _mismatch(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


# ---------------------------------------------------------- survey_dense

_SURVEY_HEADER = "n,steps,peak,l_count,stop_reason"
_BOUND_HEADER = "n,b_bits,r_symbols,l_count"


def _oracle_row(oracles, n: int) -> str:
    want = oracles.hailstone(n)
    return f"{n},{want['steps']},{want['peak']},{want['l_count']},{want['stop_reason']}"


def _check_survey_csv(path: Path, hi: int, sample: set[int], oracles, run: CliRun):
    """Every row by descent from a smaller row; sampled rows by the oracle.

    Row n is checked against the row of the first value its trajectory
    reaches below n: the steps and halvings add up and the peaks combine.
    With row 1 fixed, that checks every row by induction, in a few steps
    per row.
    """
    steps, peaks, halvings = [0], [0], [0]
    problems = []
    with open(path, encoding="ascii") as handle:
        problems += _mismatch("header", handle.readline().rstrip("\n"), _SURVEY_HEADER)
        for n, line in enumerate(handle, 1):
            fields = line.rstrip("\n").split(",")
            if len(fields) != 5 or fields[0] != str(n) or fields[4] != "reached_one":
                return problems + [f"row {n}: {line!r}"]
            steps.append(int(fields[1]))
            peaks.append(int(fields[2]))
            halvings.append(int(fields[3]))
            if n in sample:
                problems += _mismatch(f"row {n}", line.rstrip("\n"), _oracle_row(oracles, n))
    problems += _mismatch("row count", len(steps) - 1, hi)
    problems += _mismatch("row 1", (steps[1], peaks[1], halvings[1]), (0, 1, 0))
    for n in range(2, len(steps)):
        cur, k, lc, peak = n, 0, 0, n
        while cur >= n:
            if cur & 1:
                cur = 3 * cur + 1
                peak = max(peak, cur)
            else:
                cur >>= 1
                lc += 1
            k += 1
        want = (k + steps[cur], max(peak, peaks[cur]), lc + halvings[cur])
        if (steps[n], peaks[n], halvings[n]) != want:
            problems.append(f"row {n}: {(steps[n], peaks[n], halvings[n])}, want {want}")
    return problems


def _check_survey_json(path: Path, csv_path: Path, hi: int, sample: set[int],
                       oracles, run: CliRun):
    with open(path, encoding="ascii") as handle:
        rows = json.load(handle)
    problems = _mismatch("row count", len(rows), hi)
    keys = _SURVEY_HEADER.split(",")
    with open(csv_path, encoding="ascii") as handle:
        handle.readline()
        for n, (row, line) in enumerate(zip(rows, handle), 1):
            want = dict(zip(keys, line.rstrip("\n").split(",")))
            if row != want:
                problems.append(f"row {n}: {row!r} differs from the CSV {want!r}")
            elif n in sample:
                problems += _mismatch(f"row {n}", ",".join(row.values()),
                                        _oracle_row(oracles, n))
    return problems


def _check_bound_csv(path: Path, survey_path: Path, hi: int, run: CliRun):
    """Every row against n's bit length and the survey CSV; no violations."""
    problems = []
    with open(path, encoding="ascii") as bound, open(survey_path, encoding="ascii") as survey:
        problems += _mismatch("header", bound.readline().rstrip("\n"), _BOUND_HEADER)
        survey.readline()
        count = 0
        for count, (line, survey_line) in enumerate(zip(bound, survey), 1):
            n, b_bits, r_symbols, l_count = map(int, line.split(","))
            _, steps, _, survey_l, _ = survey_line.split(",")
            want = (count, count.bit_length(), int(steps), int(survey_l))
            if (n, b_bits, r_symbols, l_count) != want:
                problems.append(f"row {count}: {line.strip()!r}, want {want}")
            elif l_count < b_bits - 1:
                problems.append(f"row {count}: violation, {l_count} halvings "
                                f"for a {b_bits}-bit input")
    problems += _mismatch("row count", count, hi)
    return problems


def survey_dense(seed: int, scale: float, workdir: Path, oracles) -> list[Op]:
    rng = random.Random(f"survey_dense:{seed}")
    base = max(100, round(120_000 * scale))
    hi = base + rng.randrange(base // 100 + 1)
    hi_json, hi_bound = hi // 5, hi // 2
    csv_path = workdir / "survey.csv"
    json_path = workdir / "survey.json"
    bound_path = workdir / "bound.csv"
    sample = set(rng.sample(range(1, hi_json + 1), 20) + rng.sample(range(1, hi + 1), 40))
    sample |= {1, hi_json, hi}
    return [
        _cli_op("cli survey csv", ["survey", "1", str(hi), "--out", str(csv_path)],
                {"survey.csv": csv_path},
                partial(_check_survey_csv, csv_path, hi, sample, oracles),
                "survey", hi),
        _cli_op("cli survey json",
                ["survey", "1", str(hi_json), "--format", "json", "--out", str(json_path)],
                {"survey.json": json_path},
                partial(_check_survey_json, json_path, csv_path, hi_json, sample, oracles),
                "survey", hi_json),
        _cli_op("cli bound csv", ["bound", "1", str(hi_bound), "--out", str(bound_path)],
                {"bound.csv": bound_path},
                partial(_check_bound_csv, bound_path, csv_path, hi_bound),
                "survey", hi_bound),
    ]


# ------------------------------------------------------------ exact_wide

# Window starts: one octave each. 2^58 and up divert lanes past the guard.
_WINDOW_EXPONENTS = (40, 43, 46, 49, 52, 55, 58, 61)


def _check_survey(lo: int, size: int, rule: collatz.StopRule, offsets: list[int],
                  oracles, result: collatz.SurveyResult) -> list[str]:
    at_one = rule.mode is collatz.StopMode.AT_ONE
    problems = _mismatch("range", (result.lo, len(result)), (lo, size))
    if at_one and result.non_reached_count():
        problems.append(f"{result.non_reached_count()} inputs did not reach 1")
    # One diverted lane with a peak beyond int64, when there is one.
    for offset in offsets + sorted(result.big_peaks)[:1]:
        rec = result.record(offset)
        want = oracles.hailstone(lo + offset, stop_at_one=at_one, max_steps=rule.max_steps)
        problems += _mismatch(
            f"n={lo + offset}",
            (rec.steps, rec.peak, rec.l_count, rec.stop_reason.value),
            (want["steps"], want["peak"], want["l_count"], want["stop_reason"]),
        )
    return problems


def _survey_op(name: str, lo: int, size: int, rule: collatz.StopRule,
               rng: random.Random, oracles) -> Op:
    offsets = sorted({0, size - 1, *rng.sample(range(size), min(size, 6))})
    return Op(name, lambda: collatz.survey(lo, lo + size - 1, rule),
              partial(_check_survey, lo, size, rule, offsets, oracles), "survey", size)


def _roundtrip(n: int):
    rec = collatz.trace(n)
    return rec, collatz.decode(rec.trace, rec.terminal), collatz.replay(n, rec.trace)


def _check_roundtrip(n: int, oracles, output) -> list[str]:
    rec, decoded, replayed = output
    want = oracles.hailstone(n)
    return (_mismatch("trace", (rec.trace, rec.peak, rec.terminal),
                        (want["trace"], want["peak"], want["terminal"]))
            + _mismatch("decode", decoded, n)
            + _mismatch("replay", replayed, (rec.terminal, rec.peak)))


def exact_wide(seed: int, scale: float, workdir: Path, oracles) -> list[Op]:
    rng = random.Random(f"exact_wide:{seed}")
    width = max(16, round(4096 * scale))
    at_one = collatz.StopRule.at_one()
    ops = []
    for e in _WINDOW_EXPONENTS:
        lo = (1 << e) + rng.randrange((1 << e) - width)
        ops.append(_survey_op(f"survey 2^{e} window", lo, width, at_one, rng, oracles))
    repeat_lo = rng.randrange(10**6, 2 * 10**6)
    ops.append(_survey_op("survey on_repeat", repeat_lo, max(8, round(1000 * scale)),
                          collatz.StopRule.on_repeat(), rng, oracles))
    trips = max(4, round(128 * scale))
    for i in range(trips):
        bits = 64 + (1024 - 64) * i // (trips - 1)
        n = rng.getrandbits(bits) | (1 << (bits - 1))
        ops.append(Op(f"roundtrip {i} ({bits} bits)", partial(_roundtrip, n),
                      partial(_check_roundtrip, n, oracles), "roundtrip", 1))
    return ops


# ------------------------------------------------------ bitstream_digest

_BATTERY = ("monobit", "runs", "serial_k2", "serial_k3", "serial_k4")
# Generations compared with the oracle automaton.
_ORACLE_STEPS = 128


def _oracle_center(oracles, cells: list[int], steps: int, wrap: bool) -> list[int]:
    rows = oracles.automaton_run(cells, steps, wrap)
    if wrap:
        return [row[len(cells) // 2] for row in rows]
    return [row[len(cells) // 2 + t] for t, row in enumerate(rows)]


def _cells(row: rule30.Row) -> list[int]:
    return [int(c) for c in row.to01()]


def _center_op(name: str, initial: rule30.Row, steps: int,
               mode: rule30.BoundaryMode, oracles) -> Op:
    def run():
        column = rule30.center_column(initial, steps, mode)
        return column, randstat.battery(column)

    def check(output) -> list[str]:
        column, reports = output
        prefix = min(steps, _ORACLE_STEPS)
        want = _oracle_center(oracles, _cells(initial), prefix,
                              mode is rule30.BoundaryMode.WRAP)
        return (_mismatch("length", len(column), steps + 1)
                + _mismatch("prefix", column[: prefix + 1].tolist(), want)
                + _mismatch("battery", tuple(r.test_name for r in reports), _BATTERY))

    return Op(name, run, check, "bits", steps + 1)


def _check_pbm(pbm: Path, center: Path, initial: rule30.Row, steps: int, oracles,
               run: CliRun) -> list[str]:
    width = initial.width
    lines = pbm.read_text(encoding="ascii").split("\n")
    problems = (_mismatch("magic", lines[0], "P1")
                + _mismatch("size", lines[1], f"{width} {steps + 1}")
                + _mismatch("line count", len(lines), steps + 4)
                + _mismatch("final newline", lines[-1], ""))
    if problems:
        return problems
    rows = [line.split(" ") for line in lines[2:-1]]
    if any(len(row) != width or set(row) - {"0", "1"} for row in rows):
        return ["a PBM row has the wrong width or a cell other than 0/1"]
    grid = [[int(c) for c in row] for row in rows]
    want = oracles.automaton_run(_cells(initial), min(steps, _ORACLE_STEPS), True)
    problems += _mismatch("PBM rows", grid[: len(want)], want)
    column = center.read_text(encoding="ascii").split()
    problems += _mismatch("center column", column, [row[width // 2] for row in rows])
    return problems


def _digest_op(name: str, key: bytes, message: bytes, oracles, golden=None) -> Op:
    def run():
        value, schedule = dyncompose.digest(key, message)
        return (value, schedule, dyncompose.replay(key, message, schedule),
                randstat.shannon_entropy(schedule))

    def check(output) -> list[str]:
        value, schedule, replayed, entropy = output
        problems = (_mismatch("replay", replayed, value)
                    + _mismatch("schedule length", len(schedule),
                                  dyncompose.trace_length(len(message))))
        if abs(entropy - oracles.entropy(schedule)) > 1e-12:
            problems.append(f"entropy {entropy} differs from the oracle")
        if golden is not None:
            problems += _mismatch("golden", f"{value.hex()}\n{schedule}\n", golden)
        return problems

    return Op(name, run, check, "digest", len(message))


def _check_cli_digest(key: bytes, message: bytes, run: CliRun) -> list[str]:
    lines = run.stdout.split("\n")
    if len(lines) != 3 or lines[2]:
        return [f"expected two lines, got {run.stdout[:80]!r}"]
    value, schedule = dyncompose.digest(key, message)
    return (_mismatch("digest", lines[0], value.hex())
            + _mismatch("schedule", lines[1], schedule)
            + _mismatch("replay", dyncompose.replay(key, message, lines[1]).hex(),
                          lines[0]))


# Message sizes in bytes: block edges, then sizes where absorb dominates.
_MESSAGE_SIZES = (1, 31, 32, 33, 1024, 16384, 65536, 196608)


def bitstream_digest(seed: int, scale: float, workdir: Path, oracles) -> list[Op]:
    rng = random.Random(f"bitstream_digest:{seed}")
    # The serial test with k=4 needs at least 1600 bits.
    single_steps = max(1700, round(16384 * scale))
    wrap_steps = max(1700, round(32768 * scale))
    wrap_row = rule30.random_row(1024, rng.getrandbits(64))
    pbm_width, pbm_steps = max(33, round(1001 * scale)), max(16, round(600 * scale))
    pbm_seed = rng.getrandbits(32)
    pbm_initial = rule30.random_row(pbm_width, pbm_seed)
    pbm_path, center_path = workdir / "rule30.pbm", workdir / "center.txt"
    ops = [
        _center_op("center expand + battery", rule30.Row.single(), single_steps,
                   rule30.BoundaryMode.EXPAND_ZERO, oracles),
        _center_op("center wrap + battery", wrap_row, wrap_steps,
                   rule30.BoundaryMode.WRAP, oracles),
        _cli_op("cli rule30 pbm",
                ["rule30", "--init", "random", "--width", str(pbm_width),
                 "--seed", str(pbm_seed), "--steps", str(pbm_steps),
                 "--pbm", str(pbm_path), "--center", str(center_path)],
                {"rule30.pbm": pbm_path, "center.txt": center_path},
                partial(_check_pbm, pbm_path, center_path, pbm_initial, pbm_steps,
                        oracles)),
    ]
    golden_path = Path(oracles.__file__).parent / "golden" / "digest_empty_zero_key.txt"
    golden = golden_path.read_text(encoding="ascii")
    ops.append(_digest_op("digest 0 B, zero key", bytes(32), b"", oracles, golden))
    key = rng.randbytes(32)
    for size in _MESSAGE_SIZES:
        if size > 1024:
            size = max(1025, round(size * scale))
        ops.append(_digest_op(f"digest {size} B", key, rng.randbytes(size), oracles))
    message = rng.randbytes(max(1, round(32768 * scale)))
    message_path = workdir / "message.bin"
    message_path.write_bytes(message)
    ops.append(_cli_op("cli digest",
                       ["digest", "--key", key.hex(), "--in", str(message_path),
                        "--emit-trace"],
                       {}, partial(_check_cli_digest, key, message)))
    return ops


WORKLOADS = {
    "survey_dense": survey_dense,
    "exact_wide": exact_wide,
    "bitstream_digest": bitstream_digest,
}
