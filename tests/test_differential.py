"""The differential nets, ``tools/differential.py``, on their short case
sets against the last commit: a change to the survey kernel, or to the
bytes or exit code of a CLI subcommand, shows up here as a fingerprint
that differs from the committed tree's. A short run of the scale-model
sweep checks both trees against the exact walker."""

import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


needs_git = pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                               reason="needs git and a git checkout")


@needs_git
def test_quick_cases_match_head():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "differential.py"),
                           "--quick", "--against", "HEAD"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("34 cases against HEAD: 34 bit-identical, 0 differ\n")


@needs_git
def test_quick_cli_cases_match_head():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "differential.py"),
                           "--cli", "--quick", "--against", "HEAD"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("18 cases against HEAD: 18 bit-identical, 0 differ\n")


@needs_git
def test_scale_sweep_passes_on_both_trees():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "differential.py"),
                           "--scale", "5", "--against", "HEAD"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    theirs, ours = proc.stdout.splitlines()
    assert theirs.startswith("theirs: ") and ours.startswith("ours: ")
    assert all(line.endswith(" seeds passed in 5 s, no mismatch") for line in (theirs, ours))
