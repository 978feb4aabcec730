"""Spans and counters recorded around branchtrace's public functions.

A traced pass swaps each function in ``WRAPPED`` for a wrapper on its
module (``collatz.survey`` and so on) and puts the original back after
the pass, so nothing under ``src/`` changes. The package calls these
functions through the module attribute (``cli`` and ``bounds`` call
``collatz.survey``; ``cli`` calls ``rule30.*``, ``bounds.bound_report``
and ``dyncompose.digest``), so a wrapped call nests under its caller.
A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from collections import Counter

from branchtrace import bounds, cli, collatz, dyncompose, randstat, rule30


def _survey_counts(args, kwargs, result):
    return {
        "collatz.survey.inputs": len(result),
        "collatz.survey.steps": int(result.steps.sum()),
        "collatz.survey.big_peaks": len(result.big_peaks),
    }


def _trace_counts(args, kwargs, result):
    return {"collatz.trace.symbols": len(result.trace)}


def _bound_counts(args, kwargs, result):
    return {"bounds.bound_report.records": len(result)}


_CLI_OUTPUT_FLAGS = ("--out", "--pbm", "--center")


def _cli_counts(args, kwargs, result):
    """Rows (lines) and bytes the command wrote to its files and stdout."""
    argv = list(args[0] if args else kwargs.get("argv") or ())
    rows = bytes_out = 0
    for flag, value in zip(argv, argv[1:]):
        if flag in _CLI_OUTPUT_FLAGS and os.path.isfile(value):
            with open(value, "rb") as handle:
                data = handle.read()
            rows += data.count(b"\n")
            bytes_out += len(data)
    if isinstance(sys.stdout, io.StringIO):
        text = sys.stdout.getvalue()
        rows += text.count("\n")
        bytes_out += len(text.encode())
    return {"cli.main.rows_out": rows, "cli.main.bytes_out": bytes_out}


def _cell_updates(initial, steps, mode) -> int:
    if mode is rule30.BoundaryMode.WRAP:
        return initial.width * steps
    # EXPAND_ZERO: generation t has initial.width + 2t cells.
    return steps * initial.width + steps * (steps + 1)


def _rule30_counts(args, kwargs, result):
    return {"rule30.cells": _cell_updates(*args[:3])}


def _randstat_counts(args, kwargs, result):
    return {"randstat.bits": len(args[0])}


def _digest_counts(args, kwargs, result):
    return {"dyncompose.bytes": len(args[1]), "dyncompose.rounds": len(result[1])}


def _replay_counts(args, kwargs, result):
    return {"dyncompose.bytes": len(args[1]), "dyncompose.rounds": len(args[2])}


# (module, attribute, span name, counter function or None)
WRAPPED = (
    (collatz, "survey", "collatz.survey", _survey_counts),
    (collatz, "trace", "collatz.trace", _trace_counts),
    (collatz, "decode", "collatz.decode", None),
    (collatz, "replay", "collatz.replay", None),
    (bounds, "bound_report", "bounds.bound_report", _bound_counts),
    (cli, "main", "cli.main", _cli_counts),
    (rule30, "center_column", "rule30.center_column", _rule30_counts),
    (rule30, "evolve", "rule30.evolve", _rule30_counts),
    (randstat, "battery", "randstat.battery", _randstat_counts),
    (randstat, "shannon_entropy", "randstat.shannon_entropy", _randstat_counts),
    (dyncompose, "digest", "dyncompose.digest", _digest_counts),
    (dyncompose, "replay", "dyncompose.replay", _replay_counts),
)

# (counter, unit)
COUNTERS = (
    ("collatz.survey.inputs", "count"),
    ("collatz.survey.steps", "count"),
    ("collatz.survey.big_peaks", "count"),
    ("collatz.trace.symbols", "count"),
    ("bounds.bound_report.records", "count"),
    ("cli.main.rows_out", "count"),
    ("cli.main.bytes_out", "B"),
    ("rule30.cells", "count"),
    ("randstat.bits", "count"),
    ("dyncompose.bytes", "B"),
    ("dyncompose.rounds", "count"),
)


class Tracer:
    """Self time, call count and counters of the wrapped functions.

    Use one tracer per pass: ``with tracer.installed(): ...`` wraps the
    functions, and ``metrics()`` reads the totals afterwards.
    """

    def __init__(self):
        self.self_s: dict[str, float] = {span: 0.0 for _, _, span, _ in WRAPPED}
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_s: list[float] = []  # child time of each open span

    def _wrap(self, span, fn, count):
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[span] += elapsed - self._child_s.pop()
                self.calls[span] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the block, and the originals back after."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in WRAPPED]
        for (module, attr, fn), (_, _, span, count) in zip(originals, WRAPPED):
            setattr(module, attr, self._wrap(span, fn, count))
        try:
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every span's self time and calls, and every counter: (value, unit)."""
        out = {}
        for _, _, span, _ in WRAPPED:
            out[f"{span}.self_s"] = (self.self_s[span], "s")
            out[f"{span}.calls"] = (self.calls[span], "count")
        for name, unit in COUNTERS:
            out[name] = (self.counts[name], unit)
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

