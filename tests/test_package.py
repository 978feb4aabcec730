"""The package-level names: each resolves, on first use, to the object
its module defines, and ``import branchtrace`` alone loads no module.
The commands that need no numpy start without it."""

import contextlib
import importlib
import io
import json
import random
import subprocess
import sys

import pytest

import branchtrace
from branchtrace import cli, collatz

# Each public name under the module that defines it; a module listed
# among its own names is the module itself.
PUBLIC = {
    "bounds": "bounds BoundReport bound_report composition_labels description_bits paths_at_depth",
    "collatz": "collatz StopMode StopReason StopRule SurveyResult TraceRecord decode replay survey "
               "trace",
    "dyncompose": "dyncompose",
    "errors": "BranchTraceError DomainError InconsistentTrace KeyLengthError ResourceError",
    "prng": "XorShift64Star",
    "randstat": "randstat AvalancheReport TestReport avalanche battery monobit runs_test "
                "serial_test shannon_entropy",
    "rule30": "rule30 BoundaryMode Grid Row center_column evolve random_row step_row",
    "special": "special",
}


def test_import_loads_no_module_and_lists_every_name():
    code = ("import branchtrace, sys; "
            "print(sorted(m for m in sys.modules if m.startswith(('branchtrace.', 'numpy')))); "
            "print(set(branchtrace.__all__) <= set(dir(branchtrace)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nTrue\n"


def test_every_public_name_is_its_modules_object():
    names = {name: module for module, names in PUBLIC.items() for name in names.split()}
    assert sorted(branchtrace.__all__) == sorted(names)
    for name, module in names.items():
        home = importlib.import_module(f"branchtrace.{module}")
        assert getattr(branchtrace, name) is (home if name == module else getattr(home, name))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from branchtrace import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(branchtrace.__all__)
    assert namespace["TraceRecord"] is branchtrace.collatz.TraceRecord


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="no attribute 'step'"):
        branchtrace.step  # noqa: B018
    with pytest.raises(ImportError):
        from branchtrace import no_such_name  # noqa: F401


def test_collatz_imports_no_numpy():
    code = "import branchtrace.collatz, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_survey_resolves_at_its_collatz_path():
    from branchtrace.collatz import SurveyResult, survey

    assert collatz.SurveyResult is SurveyResult is branchtrace.SurveyResult
    assert collatz.survey is survey is branchtrace.survey
    assert isinstance(survey(1, 3), SurveyResult)
    with pytest.raises(AttributeError, match="no attribute '_CHUNK'"):
        collatz._CHUNK  # noqa: B018


def test_importtime_reports_the_modules_names_load():
    # cli's `from . import collatz, dyncompose` loads both through the
    # package's __getattr__, on the import path that -X importtime times.
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "branchtrace", "trace", "27"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    timed = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert {"branchtrace.cli", "branchtrace.collatz", "branchtrace.dyncompose"} <= timed


# Runs `python -m branchtrace ARGS` as -m does, then prints on stderr, as its
# last line, the modules the command left in sys.modules.
_PROBE = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))
runpy.run_module("branchtrace", run_name="__main__", alter_sys=True)
"""

NUMPY_BACKED = {"numpy", "branchtrace._survey", "branchtrace.bounds", "branchtrace.prng",
                "branchtrace.randstat", "branchtrace.rule30"}


@pytest.mark.parametrize("args, stdout", [
    (("trace", "27"), '"steps": "111"'),
    (("invert", "--trace", "RLRLLLL", "--terminal", "1"), "3\n"),
    (("digest", "--key", "0" * 64, "--in", "{tmp}/m.bin", "--emit-trace"), "LRLLL"),
    (("--help",), "usage: branchtrace"),
])
def test_commands_without_numpy_start_without_it(tmp_path, args, stdout):
    (tmp_path / "m.bin").write_bytes(b"message")
    argv = [arg.format(tmp=tmp_path) for arg in args]
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert stdout in proc.stdout
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert "branchtrace.cli" in loaded
    assert not loaded & NUMPY_BACKED


@pytest.mark.parametrize("args", [("monobit",), ("runs",), ("serial", "--k", "3"), ("entropy",)])
def test_test_in_a_fresh_interpreter_matches_in_process(tmp_path, args):
    # survey, bound and rule30 are checked against their golden files from
    # fresh interpreters in test_cli.py.
    bits = tmp_path / "bits.txt"
    rng = random.Random(7)
    bits.write_text("".join(rng.choice("01") for _ in range(5000)))
    argv = ["test", args[0], "--in", str(bits), *args[1:]]
    proc = subprocess.run([sys.executable, "-m", "branchtrace", *argv], capture_output=True,
                          text=True, timeout=60)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.getvalue(), err.getvalue())
    assert code == 0 and "statistic" in proc.stdout
