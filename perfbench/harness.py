"""Timed passes over a workload's operations, and the metrics they give.

One run: set-up time from fresh interpreters (untraced runs only), one
warm-up pass that is discarded, then timed passes until the run's
seconds are spent, then the output checks. A traced run alternates
untraced and traced passes, so the tracing overhead is measured on the
same inputs in the same minute.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS, CliRun, Op, fingerprint

MIN_PASSES = 3  # timed passes, per side in a traced run
SETUP_RUNS = 11  # fresh interpreters timed for setup_s, after one discarded

# Workload-specific rates printed in the report: kind -> (name, unit, scale).
_RATES = {
    "survey": ("survey_inputs_per_s", "1/s", 1.0),
    "bits": ("bits_per_s", "bit/s", 1.0),
    "digest": ("digest_mb_per_s", "MiB/s", 1.0 / (1 << 20)),
}


@dataclass
class Pass:
    times: dict[str, float] = field(default_factory=dict)
    prints: dict[str, dict[str, str]] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


def run_pass(ops: list[Op], tracer: Tracer | None = None, keep: bool = False) -> Pass:
    """Run every op once, in order; only the op calls themselves are timed."""
    result = Pass(tracer=tracer)
    with tracer.installed() if tracer else contextlib.nullcontext():
        for op in ops:
            start = time.perf_counter()
            try:
                output = op.run()
            except Exception:  # an op that raises is counted as failed
                output = None
                result.errors[op.name] = traceback.format_exc(limit=4)
            result.times[op.name] = time.perf_counter() - start
            result.prints[op.name] = fingerprint(output)
            if keep:
                result.outputs[op.name] = output
    return result


def load_oracles(root: Path):
    """The test suite's brute-force reference implementations."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("branchtrace_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_setup(root: Path) -> tuple[list[float], list[str]]:
    """Wall times of fresh interpreters running ``branchtrace trace 1``.

    This imports the package and builds the CLI parser, the fixed cost
    every command line pays. The first run is discarded (it may compile
    bytecode). Returns the times and any problems with the outputs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "branchtrace", "trace", "1"]
    times, problems = [], []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=root, env=env, capture_output=True,
                              text=True, timeout=120)
        elapsed = time.perf_counter() - start
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["steps"] == "0"
        except (ValueError, KeyError):
            ok = False
        if not ok:
            problems.append(f"setup run {i}: exit {proc.returncode}, {proc.stderr[-200:]!r}")
        if i:
            times.append(elapsed)
    return times, problems


def _line_count(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(src.rglob("*.py")))


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 scale: float = 1.0) -> tuple[dict, dict]:
    """Run one workload; return (result line, detail record)."""
    load_start = os.getloadavg()
    oracles = load_oracles(root)
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        ops = WORKLOADS[name](seed, scale, Path(workdir), oracles)
        if len({op.name for op in ops}) != len(ops):
            raise ValueError(f"{name}: operation names must be unique")
        setup_times, setup_problems = ([], []) if trace else measure_setup(root)

        warm = run_pass(ops, keep=True)
        passes: list[Pass] = []
        deadline = time.perf_counter() + seconds
        while (len(passes) < MIN_PASSES * (2 if trace else 1)
               or time.perf_counter() < deadline):
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(ops, Tracer() if traced else None))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = {op.name: _check(op, warm) for op in ops}
        cli_sha256 = {op: prints for op, prints in warm.prints.items()
                      if isinstance(warm.outputs.get(op), CliRun)}
    with contextlib.suppress(OSError):  # left in place while another run uses it
        work_root.rmdir()

    # Every op of every pass is one attempt, and so is every set-up run.
    # An op fails when it raised, when the warm-up output it must repeat
    # failed its checks, or when its output differs from that output.
    attempted = len(ops) * (1 + len(passes)) + (0 if trace else SETUP_RUNS + 1)
    failures = list(setup_problems)
    for p in [warm] + passes:
        for op in ops:
            if op.name in p.errors:
                failures.append(f"{op.name}: {p.errors[op.name]}")
            elif problems[op.name]:
                failures.append(f"{op.name}: {problems[op.name][0]}")
            elif p.prints[op.name] != warm.prints[op.name]:
                failures.append(f"{op.name}: output differs from the warm-up pass")
    failed = len(failures)

    plain = [p for p in passes if p.tracer is None]
    metrics = {"wall_s": (statistics.median(p.wall_s for p in plain), "s")}
    if trace:
        traced = [p for p in passes if p.tracer is not None]
        per_pass = [p.tracer.metrics() for p in traced]
        for metric, (_, unit) in per_pass[0].items():
            metrics[metric] = (statistics.median(m[metric][0] for m in per_pass), unit)
        overhead = (statistics.median(p.wall_s for p in traced)
                    - statistics.median(p.wall_s for p in plain))
        metrics["bench.trace_overhead_s"] = (overhead, "s")
    else:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
        metrics.update(_rates(ops, plain))
    metrics["fail_ratio"] = (failed / attempted, "ratio")

    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "scale": scale,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_runs_s": setup_times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "cli_sha256": cli_sha256,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "src_branchtrace_lines": _line_count(root / "src" / "branchtrace"),
        },
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, record


def _check(op: Op, warm: Pass) -> list[str]:
    if op.name in warm.errors:
        return [warm.errors[op.name]]
    try:
        return op.check(warm.outputs[op.name])
    except Exception:  # a malformed output can break its parser
        return [traceback.format_exc(limit=4)]


def _rates(ops: list[Op], passes: list[Pass]) -> dict[str, tuple[float, str]]:
    """Per-kind throughput (median over passes) and round-trip latency."""
    out = {}
    for kind, (metric, unit, scale) in _RATES.items():
        mine = [op for op in ops if op.kind == kind]
        if mine:
            work = sum(op.work for op in mine) * scale
            out[metric] = (statistics.median(
                work / sum(p.times[op.name] for op in mine) for p in passes), unit)
    trips = [p.times[op.name] * 1000 for p in passes for op in ops if op.kind == "roundtrip"]
    if trips:
        out["roundtrip_p50_ms"] = (float(np.quantile(trips, 0.5)), "ms")
        out["roundtrip_p95_ms"] = (float(np.quantile(trips, 0.95)), "ms")
        out["roundtrip_samples"] = (len(trips), "count")
    return out
