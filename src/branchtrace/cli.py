"""Command-line surface over the library.

One subcommand per capability, stable machine-readable outputs, and a
uniform exit-code contract:

    0  success (and, for `test`, the test passed)
    1  a statistical test ran cleanly but failed
    2  usage or domain error (bad flags, bad values, unreadable input)
    3  output I/O failure

All JSON integer fields are decimal strings so values larger than 64
bits survive every consumer; floats stay floats. Output is fully
determined by flags and seeds; nothing varies between runs.

Only the modules a subcommand needs are imported: ``trace``, ``invert``,
``digest`` and ``--help`` run without numpy, which the other subcommands
and their columnar writers import on first use.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from typing import Callable, Iterator

from . import collatz, dyncompose
from .errors import BranchTraceError, DomainError, InconsistentTrace


def _alpha(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0, 1), got {text}")
    return value


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as err:
        raise DomainError(f"cannot read {path}: {err}")


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[Callable[[bytes], object]]:
    """A write function taking ASCII bytes, for a file or, when path is
    None, for stdout, which may be a text stream with no binary buffer.

    Failures to open or write the file reach :func:`main` as exit 3.
    """
    if path is None:
        yield lambda data: sys.stdout.write(data.decode("ascii"))
        return
    with open(path, "wb") as handle:
        yield handle.write


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _decimal(value: int) -> str:
    """``str(value)``; exit 2 past the interpreter's int-to-text limit."""
    try:
        return str(value)
    except ValueError:
        raise DomainError(f"a {value.bit_length()}-bit result exceeds Python's "
                          f"{sys.get_int_max_str_digits()}-digit int-to-text limit") from None


# ---------------------------------------------------------------- trace


def _trace_payload(rec: collatz.TraceRecord) -> dict:
    return {
        "n": _decimal(rec.n),
        "trace": rec.trace,
        "steps": _decimal(rec.steps),
        "peak": _decimal(rec.peak),
        "terminal": _decimal(rec.terminal),
        "stop_reason": rec.stop_reason.value,
    }


def _cmd_trace(args) -> int:
    rec = collatz.trace(args.n, collatz.StopRule(collatz.StopMode(args.stop), args.max_steps))
    payload = _trace_payload(rec)
    if args.format == "json":
        _emit_json(payload)
    else:
        sys.stdout.write("".join(f"{k}={v}\n" for k, v in payload.items()))
    return 0


def _cmd_invert(args) -> int:
    value = collatz.decode(args.trace, args.terminal)
    sys.stdout.write(_decimal(value) + "\n")
    return 0


# --------------------------------------------------------------- survey

# Rows per written block; bounds the text held at once.
_BLOCK = 1 << 12


@functools.cache
def _quads() -> np.ndarray:
    """The digits of 0-9999 as uint32s of four ASCII bytes: as the lead of a
    number (leading zeros as zero bytes, 0 as none) and, from 10^4 on, whole."""
    import numpy as np
    digits = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
    text = (digits % 10 + 48).astype(np.uint8)
    return np.concatenate([(digits > 0) * text, text]).view(np.uint32)[:, 0]


def _write_rows(write, keys: tuple[str, ...], columns: tuple, indent: int | None = None,
                big: tuple[int, dict[int, int]] | None = None) -> None:
    """Rows of ``columns`` as CSV with a header line or, given an ``indent``,
    as a JSON array of row objects closed at ``indent``. A column is a range
    of non-negative ints or an array of them (int64 or object), or a uint8
    array of stop codes. ``big`` = (i, {row: value}) holds the values that
    column i's entries stand in for.

    Each field has one width for the whole write, so every row has one
    layout: template bytes, and zero bytes where the fields go. The template
    is laid once into a block buffer; per block of rows each field is
    written into its slice in place, int64 digits four at a time from
    :func:`_quads`, and the block is written without its zero bytes. Fields
    need no escaping, so the JSON matches json.dumps(indent=2) byte for byte.
    """
    import numpy as np
    if indent is None:
        write(",".join(keys).encode("ascii") + b"\n")
        pieces = ["", *[","] * (len(keys) - 1), "\n"]
    else:
        pad = " " * (indent + 2)
        # Each row opens with ",\n"; the first one's comma becomes "[".
        pieces = [f',\n{pad}{{\n{pad}  "{keys[0]}": "',
                  *(f'",\n{pad}  "{key}": "' for key in keys[1:]), f'"\n{pad}}}']
    size, (spliced, values) = len(columns[0]), big or (0, {})
    rows = np.array(sorted(values), dtype=np.int64)
    texts = np.array([str(values[row]) for row in rows.tolist()], "S")
    template, fields = pieces[0], []
    for i, (column, piece) in enumerate(zip(columns, pieces[1:])):
        ranged = isinstance(column, range)
        top = max(column[-1:], default=0) if ranged else column.max(initial=0)
        digits = top <= np.iinfo(np.int64).max if ranged else column.dtype == np.int64
        # A stop code indexes its reason's text; no code above top occurs.
        table = (np.array([reason.value for reason in collatz._REASON_CODES[:top + 1]], "S")
                 if not ranged and column.dtype == np.uint8 else None)
        width = max(len(str(top)) if table is None else table.itemsize,
                    texts.itemsize if i == spliced else 0)
        width += -width % 4 if digits else 0  # int fields are whole quads
        fields.append((column, len(template), width, digits, table))
        template += "\0" * width + piece
    buf = np.empty((min(_BLOCK, size), len(template)), dtype=np.uint8)
    buf[:] = np.frombuffer(template.encode("ascii"), dtype=np.uint8)
    slots = [buf[:, at:at + width].view(f"S{width}")[:, 0] for _, at, width, *_ in fields]
    for start in range(0, size, _BLOCK):
        block = buf[:min(_BLOCK, size - start)]
        for (column, at, width, digits, table), slot in zip(fields, slots):
            part = column[start:start + len(block)]
            if not digits:
                slot[:len(block)] = [str(v) for v in part] if table is None else table[part]
                continue
            if isinstance(part, range):
                part = np.arange(part.start, part.stop, dtype=np.int64)
            v, quads = part.view(np.uint64), block[:, at:at + width].view(np.uint32)
            for quad in quads.T[:0:-1]:
                q = v // 10_000
                np.take(_quads(), v - 10_000 * q + 10_000 * np.minimum(q, 1), out=quad)
                v = q
            np.take(_quads(), v, out=quads[:, 0])  # the lead quad, v < 10^4
            block[:, at + width - 1] |= ord("0")  # the last digit is always written: 0 prints as 0
        here = slice(*np.searchsorted(rows, (start, start + len(block))))
        slots[spliced][rows[here] - start] = texts[here]
        text = block.tobytes().translate(None, b"\0")
        write(b"[" + text[1:] if start == 0 and indent is not None else text)
    if indent is not None:
        write(b"\n" + b" " * indent + b"]" if size else b"[]")


_SURVEY_HEADER = ("n", "steps", "peak", "l_count", "stop_reason")


def _cmd_survey(args) -> int:
    result = collatz.survey(args.lo, args.hi)
    if result.big_peaks:
        # Refuse before writing a byte; every other field is no longer
        # than the inputs, which parsed.
        _decimal(max(result.big_peaks.values()))
    columns = (range(result.lo, result.hi + 1), result.steps, result.peaks, result.l_count,
               result.stop_codes)
    with _output(args.out) as write:
        _write_rows(write, _SURVEY_HEADER, columns, None if args.format == "csv" else 0,
                    (2, result.big_peaks))
        if args.format == "json":
            write(b"\n")
    return 0


# --------------------------------------------------------------- rule30


def _initial_row(args, mode: rule30.BoundaryMode) -> rule30.Row:
    from . import rule30
    if args.init == "single":
        if args.width is None:
            if args.mode == "wrap":
                raise DomainError("--init single with --mode wrap requires --width")
            return rule30.Row.single()
        return rule30.Row.single(args.width)
    if args.width is None:
        raise DomainError("--init random requires --width")
    # Sizes are refused first: a random row takes time linear in its width.
    rule30._check_caps(args.width, args.steps, mode, grid=args.pbm is not None)
    return rule30.random_row(args.width, args.seed)


# Bytes of PBM text formatted and written per block of rows.
_PBM_BLOCK_BYTES = 1 << 16


def _write_pbm(write, width: int, height: int, generations) -> None:
    """``height`` (width, bits) generations, the last ``width`` cells wide,
    as PBM P1, formatted and written a block of rows at a time as they
    come; no row is kept past its block.

    Rows narrower than the last one (EXPAND_ZERO) are centered on zeros.
    Each row's cells come from one to_bytes() of its bits, unpacked by
    numpy. A cell and the gap after it are one little-endian uint16: the
    digit, then a space, or a newline after the row's last cell.
    """
    import numpy as np
    write(f"P1\n{width} {height}\n".encode("ascii"))
    size = (width + 7) // 8  # bytes per row; the cells are its last width bits
    per_block = max(1, _PBM_BLOCK_BYTES // (2 * width))
    while rows := [(bits << (width - w) // 2).to_bytes(size, "big")
                   for w, bits in itertools.islice(generations, per_block)]:
        packed = np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), size)
        block = np.unpackbits(packed, axis=1)[:, -width:].astype("<u2") + 0x2030  # "0" + cell, " "
        block[:, -1] -= 0x2000 - 0x0A00  # a newline, not a space, after the last cell
        write(block.tobytes())


def _cmd_rule30(args) -> int:
    import numpy as np

    from . import rule30
    if args.pbm is None and args.center is None:
        raise DomainError("nothing to do: pass --pbm and/or --center")
    if args.mode is None:
        args.mode = "expand" if args.init == "single" else "wrap"
    mode = rule30.BoundaryMode(args.mode)
    initial = _initial_row(args, mode)
    if args.pbm is not None:
        # The caps are checked here, before the file is opened.
        width, generations = rule30._grid(initial, args.steps, mode)
        with _output(args.pbm) as write:
            _write_pbm(write, width, args.steps + 1, generations)
    if args.center is not None:
        column = rule30.center_column(initial, args.steps, mode)
        lines = np.full((len(column), 2), ord("\n"), dtype=np.uint8)
        lines[:, 0] = column + ord("0")
        with _output(args.center) as write:
            write(lines.tobytes())
    return 0


# ----------------------------------------------------------------- test


def _report_payload(report: randstat.TestReport) -> dict:
    payload = {
        "test": report.test_name,
        "statistic": report.statistic,
        "p_value": report.p_value,
        "alpha": report.alpha,
        "passed": report.passed,
    }
    if report.note:
        payload["note"] = report.note
    return payload


def _cmd_test(args) -> int:
    from . import randstat
    # A byte past ASCII becomes U+FFFD: not whitespace, and not a bit.
    stream = "".join(_read_bytes(args.infile).decode("ascii", "replace").split())
    if args.test == "entropy":
        # shannon_entropy takes any symbols; _as_bits refuses all but 0 and 1.
        entropy = randstat.shannon_entropy(randstat._as_bits(stream))
        _emit_json({"test": "entropy", "statistic": entropy})
        return 0
    if args.test == "monobit":
        report = randstat.monobit(stream, args.alpha)
    elif args.test == "runs":
        report = randstat.runs_test(stream, args.alpha)
    else:
        report = randstat.serial_test(stream, args.k, args.alpha)
    _emit_json(_report_payload(report))
    return 0 if report.passed else 1


# ---------------------------------------------------------------- bound


_BOUND_HEADER = ("n", "b_bits", "r_symbols", "l_count")


def _cmd_bound(args) -> int:
    from . import bounds
    report = bounds.bound_report(args.lo, args.hi)
    columns = (report.n, report.b_bits, report.r_symbols, report.l_count)
    with _output(args.out) as write:
        if args.format == "csv":
            _write_rows(write, _BOUND_HEADER, columns)
            return 0
        head = json.dumps({
            "lo": str(report.lo),
            "hi": str(report.hi),
            "total_bits": str(report.total_bits),
            "total_symbols": str(report.total_symbols),
            "mean_trace_len": report.mean_trace_len,
            "log2_set_size": report.log2_set_size,
            "violations": [str(v) for v in report.violations],
            "capped": [str(v) for v in report.capped],
        }, indent=2)
        # Reopen the object to append "records" as its last field.
        write(head[:-2].encode("ascii") + b',\n  "records": ')
        _write_rows(write, _BOUND_HEADER, columns, 2)
        write(b"\n}\n")
    return 0


# --------------------------------------------------------------- digest


def _cmd_digest(args) -> int:
    try:  # fromhex skips ASCII whitespace, so every character must be a digit it read
        if 2 * len(key := bytes.fromhex(args.key)) != len(args.key):
            raise ValueError
    except ValueError:
        raise DomainError("key must be 64 hexadecimal characters")
    dyncompose.init(key)  # refuses a key of the wrong length before the file is read
    message = _read_bytes(args.infile)
    value, trace = dyncompose.digest(key, message)
    sys.stdout.write(value.hex() + "\n")
    if args.emit_trace:  # written apart, since a joined line would copy the schedule again
        sys.stdout.write(trace)
        sys.stdout.write("\n")
    return 0


# --------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """argparse drops help text it cannot write; this parser, and so each
    of its subparsers, lets the OSError reach ``main``."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="branchtrace",
        description="Branch-trace experiments: trajectories, rule 30, "
        "randomness tests, description-length bounds, dynamic composition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="branch trace of one trajectory")
    p.add_argument("n", type=int)
    p.add_argument("--stop", choices=[mode.value for mode in collatz.StopMode], default="one")
    p.add_argument("--max-steps", type=int, default=collatz.DEFAULT_MAX_STEPS)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("invert", help="reconstruct the input from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--terminal", type=int, required=True)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("survey", help="per-input summaries over a range")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("rule30", help="evolve rule 30; write PBM/center column")
    p.add_argument("--init", choices=("single", "random"), default="single")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, required=True)
    # rule30.BoundaryMode's values, written out so that building the parser
    # imports no numpy; a test pins them to the enum.
    p.add_argument("--mode", choices=("wrap", "expand"), default=None,
                   help="default: expand for --init single, wrap for random")
    p.add_argument("--pbm", default=None, help="write the full grid as PBM P1")
    p.add_argument("--center", default=None,
                   help="write the center column, one bit per line")
    p.set_defaults(func=_cmd_rule30)

    p = sub.add_parser("test", help="statistical test over a 0/1 text file")
    p.add_argument("test", choices=("monobit", "runs", "serial", "entropy"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", type=_alpha, default=0.01)  # randstat.DEFAULT_ALPHA, pinned too
    p.add_argument("--k", type=int, choices=(2, 3, 4), default=2,
                   help="serial test block size")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("bound", help="description-length report over a range")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("digest", help="keyed digest of a file, with its trace")
    p.add_argument("--key", required=True, help="64 hex characters")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--emit-trace", action="store_true")
    p.set_defaults(func=_cmd_digest)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the exit code instead of raising."""
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as err:  # after --help, or a usage error on stderr
            code = int(err.code or 0)
        else:
            code = args.func(args)
        sys.stdout.flush()  # a failed write to stdout is an output failure too
        return code
    except InconsistentTrace as err:
        print(f"error: inconsistent trace: {err}", file=sys.stderr)
        return 2
    except BranchTraceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # readers turn their own failures into exit 2
        print(f"error: cannot write output: {err}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # Stdout itself failed (only a stream with a descriptor can): point
            # the descriptor at os.devnull, as the Python docs advise for SIGPIPE,
            # so the interpreter's last flush prints no second error and the
            # exit code stays 3, not 120.
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 3


def entry() -> None:
    """Console-script entry point."""
    raise SystemExit(main())
