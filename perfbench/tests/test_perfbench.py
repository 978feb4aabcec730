"""Tests of the benchmark itself, run at small input sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from branchtrace import collatz  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.02
SEED = 7


@pytest.fixture(scope="module")
def oracles():
    return harness.load_oracles(ROOT)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    """One untraced and one traced run of each workload, as short as allowed."""
    return request.param, {
        trace: harness.run_workload(request.param, SEED, 0, trace, ROOT, SCALE)
        for trace in (False, True)
    }


def test_every_declared_metric_is_reported_with_its_unit(runs):
    _, by_trace = runs
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        metrics = by_trace[trace][0]["metrics"]
        for entry in declared:
            assert metrics[entry["name"]][1] == entry["unit"], entry["name"]


def test_outputs_are_correct(runs):
    for result, record in runs[1].values():
        assert result["attempted"] >= 1
        assert result["failed"] == 0, record["failures"]


def test_end_to_end_metrics_are_positive(runs):
    metrics = runs[1][False][0]["metrics"]
    for entry in SPEC["end_to_end"]:
        assert metrics[entry["name"]][0] > 0, entry["name"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_stay_within_the_pass(name, oracles, tmp_path):
    ops = WORKLOADS[name](SEED, SCALE, tmp_path, oracles)
    plain = harness.run_pass(ops)
    traced = harness.run_pass(ops, Tracer())
    assert 0 < traced.tracer.total_self_s() <= traced.wall_s
    assert traced.prints == plain.prints  # tracing does not change outputs


def test_layers_each_workload_should_not_touch(runs):
    name, by_trace = runs
    metrics = by_trace[True][0]["metrics"]
    calls = {m[: -len(".calls")]: v for m, (v, _) in metrics.items() if m.endswith(".calls")}
    untouched = {
        "survey_dense": ["collatz.trace", "rule30.center_column", "dyncompose.digest"],
        "exact_wide": ["cli.main", "bounds.bound_report", "rule30.center_column"],
        "bitstream_digest": ["collatz.survey", "collatz.trace", "bounds.bound_report"],
    }[name]
    assert all(calls[span] == 0 for span in untouched)
    assert sum(calls.values()) > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, oracles, tmp_path):
    def prints(seed, sub):
        (tmp_path / sub).mkdir()
        ops = WORKLOADS[name](seed, SCALE, tmp_path / sub, oracles)
        return harness.run_pass(ops).prints

    first = prints(SEED, "a")
    assert prints(SEED, "b") == first
    assert prints(SEED + 1, "c") != first


def test_a_corrupted_survey_row_counts_as_failure(monkeypatch):
    real_survey = collatz.survey

    def corrupted(lo, hi, rule=None):
        result = real_survey(lo, hi, rule)
        result.steps[5] += 2  # row n = lo + 5
        return result

    monkeypatch.setattr(collatz, "survey", corrupted)
    result, record = harness.run_workload("survey_dense", SEED, 0, False, ROOT, SCALE)
    assert result["failed"] > 0
    assert any("cli survey csv" in f for f in record["failures"])


def _run_cli(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_wide", "--seed", "3",
         "--seconds", "0", "--scale", str(SCALE), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_is_the_result(trace):
    proc = _run_cli(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert "record: " in proc.stdout


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
