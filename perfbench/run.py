"""Run one workload of the branchtrace benchmark and print its metrics.

    python3 perfbench/run.py --workload survey_dense --seed 1 --seconds 25 --trace 0

Run it from a branchtrace checkout: the package is imported from the
checkout's ``src/``, and the output checks use ``tests/oracles.py`` and
``tests/golden/``. Outside a checkout it exits with code 2 and prints no
result. ``--workload all`` runs every workload, each in its own process
so that each peak RSS is its own.

Standard output is a report, then the result as the last line:

* one line per metric the run measured, with its unit: the end-to-end
  metrics of ``BENCHMARK.json`` (``--trace 0``) or the per-layer ones
  (``--trace 1``), the workload-specific rates, and ``fail_ratio``;
* ``record: {...}``, a JSON object with the seed, the pass times, the
  sha256 of every CLI output, any failures and the run environment;
* ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
  with exactly the metrics ``BENCHMARK.json`` declares for the mode.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("survey_dense", "exact_wide", "bitstream_digest")


def _parse(argv):
    parser = argparse.ArgumentParser(description="Run a branchtrace benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply input sizes (the benchmark's tests use small ones)")
    return parser.parse_args(argv)


def _report(name: str, metrics: dict, record: dict) -> None:
    print(f"{name} seed={record['seed']} trace={record['trace']}: "
          f"{record['passes']} timed passes")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:34} {value:.6g} {unit}")
    print(f"  {'attempted':34} {record['attempted']}")
    print(f"  {'failed':34} {record['failed']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("record: " + json.dumps(record, sort_keys=True))


def _run_all(args) -> int:
    """Each workload in a child process; the last line combines them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", str(args.scale)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    needed = (spec_path, src / "branchtrace" / "__init__.py", ROOT / "tests" / "oracles.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a branchtrace checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(src))
    import branchtrace

    if Path(branchtrace.__file__).resolve().parent != (src / "branchtrace").resolve():
        print(f"error: imported branchtrace from {branchtrace.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from harness import run_workload

    declared = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), ROOT, args.scale)
    metrics = result["metrics"]
    _report(args.workload, metrics, record)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
