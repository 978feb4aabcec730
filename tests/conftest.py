import os
import pathlib
import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repo",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")

GOLDEN = pathlib.Path(__file__).parent / "golden"

# Subprocesses (`python -m branchtrace`, the demos) import the package
# from this checkout, as the tests themselves do through `pythonpath`.
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@pytest.fixture
def golden_dir() -> pathlib.Path:
    return GOLDEN


@pytest.fixture
def digest_vectors() -> list[tuple[bytes, bytes, str, str]]:
    """(key, message, digest hex, schedule) for each golden digest vector."""
    vectors = []
    for line in (GOLDEN / "digest_vectors.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        key, length, value, schedule = line.split()
        message = random.Random(f"digest-message:{length}").randbytes(int(length))
        vectors.append((bytes.fromhex(key), message, value, schedule))
    return vectors
