"""Each demo runs cleanly and prints exactly its golden text."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo, golden_dir):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (golden_dir / "demos" / f"{demo.stem}.txt").read_bytes()
