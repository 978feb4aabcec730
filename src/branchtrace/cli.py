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
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Callable, Iterable, Iterator

from . import bounds, collatz, dyncompose, randstat, rule30
from .errors import BranchTraceError, DomainError, InconsistentTrace, ResourceError


class _CliError(Exception):
    """Carries the exit code the failure maps to."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _natural(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _seed(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer seed, got {text!r}")


def _alpha(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0, 1), got {text}")
    return value


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _CliError(2, f"cannot read {path}: {err}")


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as err:
        raise _CliError(2, f"cannot read {path}: {err}")


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[Callable[[str], object]]:
    """A write function for a file, or stdout when path is None.

    Failures to open or write the file are exit 3.
    """
    if path is None:
        yield sys.stdout.write
        return
    try:
        with open(path, "w", encoding="ascii", newline="") as handle:
            yield handle.write
    except OSError as err:
        raise _CliError(3, f"cannot write {path}: {err}")


def _write_text(path: str | None, text: str) -> None:
    with _output(path) as write:
        write(text)


def _emit_json(payload, path: str | None = None) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------- trace


def _trace_payload(rec: collatz.TraceRecord) -> dict:
    return {
        "n": str(rec.n),
        "trace": rec.trace,
        "steps": str(rec.steps),
        "peak": str(rec.peak),
        "terminal": str(rec.terminal),
        "stop_reason": rec.stop_reason.value,
    }


def _cmd_trace(args) -> int:
    mode = collatz.StopMode.AT_ONE if args.stop == "one" else collatz.StopMode.ON_REPEAT
    rec = collatz.trace(args.n, collatz.StopRule(mode, args.max_steps))
    payload = _trace_payload(rec)
    if args.format == "json":
        _emit_json(payload)
    else:
        _write_text(None, "".join(f"{k}={v}\n" for k, v in payload.items()))
    return 0


def _cmd_invert(args) -> int:
    if set(args.trace) - {"L", "R"}:
        raise _CliError(2, "trace may only hold the characters L and R")
    value = collatz.decode(args.trace, args.terminal)
    _write_text(None, f"{value}\n")
    return 0


# --------------------------------------------------------------- survey

# Rows formatted and written per block; bounds the text held at once.
_BLOCK = 1 << 16


def _write_csv(write, keys: tuple[str, ...], blocks: Iterable[tuple]) -> None:
    template = ",".join("{}" for _ in keys) + "\n"
    write(",".join(keys) + "\n")
    for columns in blocks:
        write("".join(map(template.format, *columns)))


def _write_json_rows(write, keys: tuple[str, ...], blocks: Iterable[tuple],
                     indent: int) -> None:
    """A JSON array of row objects whose closing bracket sits at ``indent``.

    The fields are decimal or enum strings, which need no escaping, so
    the text matches json.dumps(indent=2) byte for byte.
    """
    pad = " " * (indent + 2)
    fields = ",\n".join(f'{pad}  "{key}": "{{}}"' for key in keys)
    template = pad + "{{\n" + fields + "\n" + pad + "}}"
    opening = "[\n"
    for columns in blocks:
        write(opening + ",\n".join(map(template.format, *columns)))
        opening = ",\n"
    write("[]" if opening == "[\n" else "\n" + " " * indent + "]")


_SURVEY_HEADER = ("n", "steps", "peak", "l_count", "stop_reason")


def _cmd_survey(args) -> int:
    result = collatz.survey(args.lo, args.hi)
    with _output(args.out) as write:
        if args.format == "csv":
            _write_csv(write, _SURVEY_HEADER, result.blocks(_BLOCK))
        else:
            _write_json_rows(write, _SURVEY_HEADER, result.blocks(_BLOCK), 0)
            write("\n")
    return 0


# --------------------------------------------------------------- rule30


def _initial_row(args) -> rule30.Row:
    if args.init == "single":
        if args.width is None:
            if args.mode == "wrap":
                raise _CliError(2, "--init single with --mode wrap requires --width")
            return rule30.Row.single()
        return rule30.Row.single(args.width)
    if args.width is None:
        raise _CliError(2, "--init random requires --width")
    return rule30.random_row(args.width, args.seed)


def _pbm_text(grid: rule30.Grid) -> str:
    final_width = grid.rows[-1].width
    lines = ["P1", f"{final_width} {grid.height}"]
    for row in grid.rows:
        pad = (final_width - row.width) // 2
        cells = ["0"] * pad + list(row.to01()) + ["0"] * pad
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def _grid_center_bits(grid: rule30.Grid, mode: rule30.BoundaryMode) -> list[int]:
    center = grid.rows[0].width // 2
    shift = 1 if mode is rule30.BoundaryMode.EXPAND_ZERO else 0
    return [row.cell(center + shift * t) for t, row in enumerate(grid.rows)]


def _cmd_rule30(args) -> int:
    if args.pbm is None and args.center is None:
        raise _CliError(2, "nothing to do: pass --pbm and/or --center")
    if args.mode is None:
        args.mode = "expand" if args.init == "single" else "wrap"
    mode = (rule30.BoundaryMode.WRAP if args.mode == "wrap"
            else rule30.BoundaryMode.EXPAND_ZERO)
    initial = _initial_row(args)
    if args.pbm is not None:
        grid = rule30.evolve(initial, args.steps, mode)
        _write_text(args.pbm, _pbm_text(grid))
        column = _grid_center_bits(grid, mode)
    else:
        column = rule30.center_column(initial, args.steps, mode).tolist()
    if args.center is not None:
        _write_text(args.center, "".join(f"{bit}\n" for bit in column))
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
    stream = "".join(_read_text(args.infile).split())
    if not stream:
        raise _CliError(2, f"{args.infile} holds no bits")
    if set(stream) - {"0", "1"}:
        raise _CliError(2, f"{args.infile} must hold only 0/1 characters")
    if args.test == "entropy":
        _emit_json({"test": "entropy", "statistic": randstat.shannon_entropy(stream)})
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


def _bound_blocks(report: bounds.BoundReport) -> Iterator[tuple[list, ...]]:
    columns = (report.n, report.b_bits, report.r_symbols, report.l_count)
    for start in range(0, len(report), _BLOCK):
        yield tuple(column[start:start + _BLOCK].tolist() for column in columns)


def _cmd_bound(args) -> int:
    report = bounds.bound_report(args.lo, args.hi)
    with _output(args.out) as write:
        if args.format == "csv":
            _write_csv(write, _BOUND_HEADER, _bound_blocks(report))
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
        write(head[:-2] + ',\n  "records": ')
        _write_json_rows(write, _BOUND_HEADER, _bound_blocks(report), 2)
        write("\n}\n")
    return 0


# --------------------------------------------------------------- digest


def _cmd_digest(args) -> int:
    try:
        key = bytes.fromhex(args.key)
    except ValueError:
        raise _CliError(2, "key must be 64 hexadecimal characters")
    if len(key) != dyncompose.KEY_LEN:
        raise _CliError(2, f"key must be 64 hex characters, got {len(args.key)}")
    message = _read_bytes(args.infile)
    value, trace = dyncompose.digest(key, message)
    out = value.hex() + "\n"
    if args.emit_trace:
        out += trace + "\n"
    _write_text(None, out)
    return 0


# --------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchtrace",
        description="Branch-trace experiments: trajectories, rule 30, "
        "randomness tests, description-length bounds, dynamic composition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="branch trace of one trajectory")
    p.add_argument("n", type=_natural)
    p.add_argument("--stop", choices=("one", "repeat"), default="one")
    p.add_argument("--max-steps", type=_natural, default=collatz.DEFAULT_MAX_STEPS)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("invert", help="reconstruct the input from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--terminal", type=_natural, required=True)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("survey", help="per-input summaries over a range")
    p.add_argument("lo", type=_natural)
    p.add_argument("hi", type=_natural)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("rule30", help="evolve rule 30; write PBM/center column")
    p.add_argument("--init", choices=("single", "random"), default="single")
    p.add_argument("--width", type=_natural, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--steps", type=_natural, required=True)
    p.add_argument("--mode", choices=("wrap", "expand"), default=None,
                   help="default: expand for --init single, wrap for random")
    p.add_argument("--pbm", default=None, help="write the full grid as PBM P1")
    p.add_argument("--center", default=None,
                   help="write the center column, one bit per line")
    p.set_defaults(func=_cmd_rule30)

    p = sub.add_parser("test", help="statistical test over a 0/1 text file")
    p.add_argument("test", choices=("monobit", "runs", "serial", "entropy"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", type=_alpha, default=randstat.DEFAULT_ALPHA)
    p.add_argument("--k", type=int, choices=(2, 3, 4), default=2,
                   help="serial test block size")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("bound", help="description-length report over a range")
    p.add_argument("lo", type=_natural)
    p.add_argument("hi", type=_natural)
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
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.func(args)
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except InconsistentTrace as err:
        print(f"error: inconsistent trace: {err}", file=sys.stderr)
        return 2
    except (DomainError, ResourceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BranchTraceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    """Console-script entry point."""
    raise SystemExit(main())
