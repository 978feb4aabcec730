"""The package-level names: each resolves, on first use, to the object
its module defines, and ``import branchtrace`` alone loads no module."""

import importlib
import subprocess
import sys

import pytest

import branchtrace

# Each public name under the module that defines it; a module listed
# among its own names is the module itself.
PUBLIC = {
    "bounds": "bounds BoundReport bound_report composition_labels description_bits paths_at_depth",
    "collatz": "collatz StopMode StopReason StopRule SurveyResult TraceRecord decode replay survey "
               "trace",
    "dyncompose": "dyncompose",
    "errors": "BlockLengthError BranchTraceError DomainError InconsistentTrace KeyLengthError "
              "ResourceError",
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
