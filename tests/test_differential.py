"""The differential nets, ``tools/differential.py``, on their short case
sets against the last commit: a change to the survey kernel, or to the
bytes or exit code of a CLI subcommand, shows up here as a fingerprint
that differs from the committed tree's."""

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
    assert proc.stdout.endswith("32 cases against HEAD: 32 bit-identical, 0 differ\n")


@needs_git
def test_quick_cli_cases_match_head():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "differential.py"),
                           "--cli", "--quick", "--against", "HEAD"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("16 cases against HEAD: 16 bit-identical, 0 differ\n")
