"""The differential net, ``tools/differential.py``, on its short case set
against the last commit: a change to the survey kernel shows up here as
a fingerprint that differs from the committed tree's."""

import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_quick_cases_match_head():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "differential.py"),
                           "--quick", "--against", "HEAD"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("32 cases against HEAD: 32 bit-identical, 0 differ\n")
