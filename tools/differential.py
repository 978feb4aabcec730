"""Differential check of ``collatz.survey``, or of every CLI subcommand,
between this tree and a git revision, and a timed sweep of the survey
kernel's scale model.

    python3 tools/differential.py --against REV [--quick] [--cli]
    python3 tools/differential.py --scale SECONDS [--against REV]

REV is exported with ``git archive`` into a temporary directory; nothing
in the repository changes and no network is used. Each survey case runs
in a child interpreter per tree, with ``PYTHONPATH`` set to that tree's
``src``. A case's fingerprint is the sha256 of its ``steps``,
``l_count``, ``peaks`` and ``stop_codes`` columns and its sorted
``big_peaks`` (or of the exception it raised). One line per case gives
both fingerprints; the exit status is 1 if any case differs, 2 if a
tree cannot be exported or run, and 0 if every case is bit-identical.

The full set is 713 cases over the survey kernel's boundaries: the
seed-1 ``exact_wide`` windows, windows just below 2^40 ... 2^62, windows
across 2^62, across and at 2^63 - 1 (the last input int64 holds) and
wholly past it up to 2^200, windows whose lanes park past the int64 step
guard when the cap arrives, windows across the walk's block threshold
(about 2^69.4), dense ranges, chunk edges, caps that fall between the
R and the L of a shortcut step, and the edges of the survey's mod 2^8
sieve: caps 5-7, ranges that end just before and at the first row its
243 n >= 256 lo gate admits, and a range across its cut at
(2^63 - 1) // 80. ``--quick`` runs a seconds-long subset of 34.

``--cli`` checks the command line instead: each case is one argv that
each tree's child runs through ``cli.main`` in a working directory of
its own, holding the same input files. Its fingerprint is the sha256 of
the exit code, stdout, stderr and each ``--out``/``--pbm``/``--center``
file (or its absence), shown after the exit code; under a case that
differs, each tree's exit code and last stderr line follow. The full
set of 143 cases covers survey and bound across 2^62, 2^63 - 1 and
2^64 in CSV and JSON, ranges where a field's width changes inside one
block of rows, rule 30 images and center columns in both modes, every ``test``
statistic, ``digest`` of the empty message, of 1 MiB and at the block
edges (31, 32 and 33 bytes: 0x80 closes a block, starts a block of
padding alone, or follows one byte over), ``trace`` and
``invert`` at 2^200, ``--help``, zero steps, usage errors, values the
library refuses, and unreadable, non-0/1 or non-ASCII input (exit 2) and
an unwritable output (exit 3). ``--quick`` runs a subset of 18.

``--scale SECONDS`` runs seeded draws of the survey kernel's scale model,
``scale_model`` in ``tests/test_collatz.py`` (loaded by path, so there is
one copy of it): a word of 11-25 bits, where excursions, big rows, inputs
past the word and capped merge leaders occur in ranges of a few thousand
rows. Each draw's rows are checked against the exact walker and the
per-symbol oracle, and by the tests' descent certificate, seeds 0, 1,
2, ... until the time runs out. With ``--against`` the same seeds also
run on that revision, side by side.
Each tree's line gives the seeds that passed and the first failing seed;
the exit status is 1 if a seed fails or hangs, 2 if a tree cannot be
exported or run, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
UNCAPPED = None  # the default cap, collatz.DEFAULT_MAX_STEPS

# Run in each tree's child interpreter: reads the cases from the JSON file
# named by its argument and prints the package's location, then one
# fingerprint per case.
_CHILD = r"""
import hashlib, json, sys
import branchtrace
from branchtrace import collatz

print(branchtrace.__file__, flush=True)
for name, lo, hi, mode, cap in json.load(open(sys.argv[1])):
    rule = collatz.StopRule(collatz.StopMode(mode),
                            collatz.DEFAULT_MAX_STEPS if cap is None else cap)
    h = hashlib.sha256()
    try:
        result = collatz.survey(lo, hi, rule)
    except Exception as err:
        h.update(f"{type(err).__name__}: {err}".encode())
    else:
        for column in (result.steps, result.l_count, result.peaks, result.stop_codes):
            h.update(column.tobytes())
        h.update(repr(sorted(result.big_peaks.items())).encode())
    print(json.dumps([name, h.hexdigest()]), flush=True)
"""

# The CLI counterpart: the cases file and the working directory are its
# arguments. Both trees' children write the same inputs, and cases name
# them by relative paths, so even error messages that quote a path agree.
# Each line also carries the exit code and last stderr line (argparse
# prints its usage text first and the error last), shown for a case that
# differs.
_CLI_CHILD = r"""
import contextlib, hashlib, io, json, os, pathlib, random, sys
import branchtrace
from branchtrace import cli

print(branchtrace.__file__, flush=True)
os.chdir(sys.argv[2])
rng = random.Random("differential-cli")
bits = "".join(rng.choice("01") for _ in range(20000))
inputs = {"empty.bin": b"", "mib.bin": rng.randbytes(1 << 20), "ones.txt": b"1" * 1000,
          "bits.txt": "\n".join(bits[i:i + 64] for i in range(0, len(bits), 64)).encode(),
          "short.txt": b"0110", "junk.txt": b"01x10", "latin.txt": "01é10".encode(),
          **{f"b{size}.bin": rng.randbytes(size) for size in (31, 32, 33)}}
for path, data in inputs.items():
    pathlib.Path(path).write_bytes(data)
for name, argv in json.loads(pathlib.Path(sys.argv[1]).read_text()):
    files = [pathlib.Path(value) for flag, value in zip(argv, argv[1:])
             if flag in ("--out", "--pbm", "--center")]
    for path in files:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # recorded: a tree that raises differs from one that exits
            code = f"{type(exc).__name__}: {exc}"
    h = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode())
    for path in files:
        h.update(b"\0" + (path.read_bytes() if path.is_file() else b"absent"))
    last = err.getvalue().rstrip("\n").rpartition("\n")[2]
    print(json.dumps([name, f"{code} {h.hexdigest()}", f"exit {code}: {last}"]), flush=True)
"""


# The --scale counterpart: draws seeded cases from the Tier-1 scale model of
# the survey kernel (tests/test_collatz.py, loaded by path, so both trees
# draw the same cases) with the kernel's word shrunk, and checks every row
# with the tests' own exact checks until its time (the first argument) runs
# out or a seed fails. Each line is tagged: "at" before each seed, "fails"
# for a failing one, and "seeds" with the count of seeds that passed.
_SCALE_CHILD = r"""
import importlib.util, json, sys, time
import branchtrace
from branchtrace import _survey, collatz

print(branchtrace.__file__, flush=True)
sys.path.insert(0, sys.argv[2])  # the tests' oracles
spec = importlib.util.spec_from_file_location("scale_tests", sys.argv[2] + "/test_collatz.py")
tests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tests)
deadline, seed = time.monotonic() + float(sys.argv[1]), 0
saved = {name: vars(_survey)[name] for name in tests.scale_model(0)[0]}
while time.monotonic() < deadline:
    print(json.dumps(["at", seed]), flush=True)
    constants, lo, hi, rule = tests.scale_model(seed)
    vars(_survey).update(constants)
    try:
        result = collatz.survey(lo, hi, rule)
        tests.assert_rows_exact(result, range(len(result)))
        tests.assert_big_placeholders(result, constants["_INT64_MAX"])
        tests.assert_descent_certificates(result)
    except Exception as err:
        print(json.dumps(["fails", seed, f"{type(err).__name__}: {err}"[:300],
                          [lo, hi, repr(rule), constants]]), flush=True)
        break
    finally:
        vars(_survey).update(saved)
    seed += 1
print(json.dumps(["seeds", seed]), flush=True)
"""
_GRACE = 120  # seconds a scale child may run past its time before it counts as hung


def _case(lo: int, hi: int, mode: str, cap: int | None) -> tuple[str, int, int, str, int | None]:
    name = f"[{lo}, {hi}] {mode} cap={'default' if cap is None else cap}"
    return name, lo, hi, mode, cap


def _both_modes(ranges, caps):
    return [_case(lo, hi, mode, cap) for lo, hi in ranges for cap in caps
            for mode in ("one", "repeat")]


def _exact_wide_windows() -> list[tuple[int, int]]:
    """The eight 4096-input windows of ``perfbench``'s ``exact_wide`` at seed 1."""
    rng = random.Random("exact_wide:1")
    windows = []
    for e in (40, 43, 46, 49, 52, 55, 58, 61):
        lo = (1 << e) + rng.randrange((1 << e) - 4096)
        rng.sample(range(4096), 6)  # the workload's spot-check offsets
        windows.append((lo, lo + 4095))
    return windows


def _below(e: int, size: int = 1501) -> tuple[int, int]:
    return (1 << e) - size + 1, 1 << e


# Starts of 256-input ON_REPEAT windows above 2^62.
_ABOVE_2P62 = ((1 << 62) + 1, 1 << 64, 1 << 100, (1 << 200) + 7)

_INT64_MAX = (1 << 63) - 1
# Windows across 2^62, across and at 2^63 - 1, and past int64, whose inputs
# start as excursion lanes.
_PAST_INT64 = [((1 << 62) - 300, (1 << 62) + 300), (_INT64_MAX - 300, _INT64_MAX + 300),
               (_INT64_MAX - 255, _INT64_MAX),
               *((lo, lo + 300) for lo in ((1 << 63), (1 << 64) - 700, (1 << 64) + 700,
                                           (1 << 100) + 7, (1 << 123) - 600, (1 << 123) + 600,
                                           (1 << 200) + 7, 3**90))]


_MULTI_CHUNK = ((1001, 3 * 2**17 + 5000), (200003, 200002 + 3 * 2**17))


def full_cases() -> list[tuple]:
    cases = []
    for lo, hi in _exact_wide_windows():
        cases += [_case(lo, hi, "one", cap) for cap in (UNCAPPED, 100, 700)]
        cases.append(_case(lo, hi, "repeat", UNCAPPED))
    cases += _both_modes([_below(e) for e in range(40, 63)], (UNCAPPED, 3, 57, 300))
    edge = _below(62, 2001)
    cases += [_case(*edge, "one", cap)
              for cap in (1, 2, 3, 4, 5, 20, 50, 100, 101, 300, 500, 699, 700, UNCAPPED)]
    cases += [_case(*edge, "repeat", cap) for cap in (UNCAPPED, 50, 500)]
    cases += _both_modes([((1 << 62) - 100, (1 << 62) + 1)], (7, 300, UNCAPPED))
    cases += [_case(lo, lo + 255, "repeat", cap) for lo in _ABOVE_2P62
              for cap in (1, 2, 3, 5, 50, 500, UNCAPPED)]
    cases += _both_modes(_PAST_INT64, (1, 2, 3, 5, 20, 100, 250, 1000, UNCAPPED))
    cases += _both_modes([(1, 10**6), (1, 2**17 + 1000)], (1, 2, 3, 4, UNCAPPED))
    dense = [(5, 3 * 10**5), (77777, 500000), (40000, 200001), (2, 3), (3, 3), (1, 1),
             (4, 9), (1, 121000), (1, 24200), (1, 60500), (27, 60), (1000, 1400)]
    cases += _both_modes(dense, (3, UNCAPPED))
    # Dense ranges over at least three survey chunks with lo > 1; cap 50
    # redoes most rows after the chains are ranked.
    cases += [_case(lo, hi, "one", cap) for lo, hi in _MULTI_CHUNK for cap in (UNCAPPED, 3, 50)]
    # A window over several ranking blocks, whose lanes meet lanes of other blocks.
    cases += [_case(2**50 + 999, 2**50 + 999 + 3 * 2**13, "one", cap) for cap in (UNCAPPED, 100)]
    # 4096-input windows whose lanes park past the guard, with caps that fall
    # while lanes are parked; windows under and over the walk's block
    # threshold, about 2^69.4, past which values walk instead of parking; and
    # ON_REPEAT windows that park.
    parking = [(lo, lo + 4095) for lo in (1 << 61, (1 << 62) + 1, 1 << 64, 1 << 100)]
    cases += [_case(lo, hi, "one", cap) for lo, hi in parking for cap in (1, 2, 40, 100, 300)]
    cases += [_case(1 << e, (1 << e) + 4095, "one", cap)
              for e in (69, 70) for cap in (UNCAPPED, 100)]
    cases += [_case(lo, hi, "repeat", cap) for lo, hi in parking[::2] for cap in (UNCAPPED, 100)]
    # The survey's mod 2^8 sieve takes rows n = 3 mod 4 with 243 n >= 256 lo. For
    # lo = 100039 the first such row, 105391, descends into the range at step 8
    # (T^8(n) = 243 q + t); one range ends just before it, one at it. Caps 5-7
    # sit at its cap gate: its fewest steps are 6.
    cases += _both_modes([(100039, 105390), (100039, 105391)], (7, UNCAPPED))
    cases += _both_modes([(1, 70000), (30001, 100000)], (5, 6, 7))
    # At this word the ratio gate closes long before the sieve's word cut: no
    # range of RANGE_CAP inputs spans the 5% it would take. The scale model's
    # words (--scale) cross the cut with the sieve on.
    cut = _INT64_MAX // 80
    cases += _both_modes([(cut - 1500, cut + 1500)], (UNCAPPED, 100))
    for cap in (5, 10, 20, 40, 60, 80, 100, 110, 111, 112,
                117, 118, 119, 130, 150, 175, 200, 220, 240, 250):
        cases += _both_modes([(1, 3000)], (cap,))
        cases += [_case(lo, hi, "one", cap)
                  for lo, hi in [(1000, 5000), _below(40), _below(58), _below(61)]]
    return cases


def quick_cases() -> list[tuple]:
    cases = _both_modes([(1, 3000)], (5, 111, UNCAPPED))
    cases += _both_modes([(27, 60), (2, 3), (1, 1)], (3, UNCAPPED))
    cases += [_case(*_below(61, 301), "one", cap) for cap in (UNCAPPED, 100)]
    cases += _both_modes([((1 << 62) - 100, (1 << 62) + 1)], (7, UNCAPPED))
    cases.append(_case(1 << 64, (1 << 64) + 255, "repeat", UNCAPPED))
    # No more rows than the tail takes, so every lane is a placeholder in it at round 0.
    cases.append(_case((1 << 64) + 3, (1 << 64) + 32, "one", UNCAPPED))
    # Three survey chunks, uncapped and at cap 50, where most rows step again.
    cases += [_case(*_MULTI_CHUNK[0], "one", cap) for cap in (UNCAPPED, 50)]
    # A window whose lanes merge, uncapped and with followers of capped leaders.
    cases += [_case(*_exact_wide_windows()[0], "one", cap) for cap in (UNCAPPED, 100)]
    # Windows with many big rows, whose exact peaks are combined along the chains.
    cases += [_case(*_exact_wide_windows()[7], "one", UNCAPPED),
              _case(1 << 64, (1 << 64) + 4095, "one", UNCAPPED)]
    # Lanes parked past the guard when the cap arrives.
    cases.append(_case(1 << 64, (1 << 64) + 4095, "one", 40))
    # A range whose last row is the first the mod 2^8 sieve may take.
    cases.append(_case(100039, 105391, "one", UNCAPPED))
    return cases


def _hailstone(n: int) -> str:
    """n's branch string to 1, stepped one symbol at a time."""
    text = []
    while n > 1:
        text.append("R" if n & 1 else "L")
        n = 3 * n + 1 if n & 1 else n >> 1
    return "".join(text)


_ZERO_KEY = "00" * 32
# The windows the survey and bound cases cross: 2^62, 2^63 - 1 (the last
# input the kernel's int64 lanes hold) and 2^64.
_CLI_WINDOWS = (((1 << 62) - 40, (1 << 62) + 40), (_INT64_MAX - 40, _INT64_MAX + 40),
                ((1 << 64) - 40, (1 << 64) + 40))


def _cli_case(*argv) -> tuple[str, list[str]]:
    argv = [str(arg) for arg in argv]
    return " ".join(arg if len(arg) <= 40 else f"{arg[:12]}...{arg[-8:]} ({len(arg)} chars)"
                    for arg in argv) or "(no arguments)", argv


def cli_cases() -> list[tuple]:
    cases = []
    for i, (lo, hi) in enumerate(_CLI_WINDOWS):
        for command in ("survey", "bound"):
            cases += [_cli_case(command, lo, hi), _cli_case(command, lo, hi, "--format", "json"),
                      _cli_case(command, lo, hi, "--out", f"{command}{i}.csv"),
                      _cli_case(command, lo, hi, "--format", "json", "--out", f"{command}{i}.json")]
    cases += [_cli_case("survey", 1, 100000, "--out", "dense.csv"),
              _cli_case("survey", 27, 5000, "--format", "json", "--out", "dense.json"),
              _cli_case("bound", 1, 5000, "--format", "json", "--out", "dense.json"),
              _cli_case("bound", 1, 5000, "--out", "dense.csv")]
    # A field's width changes inside one block of rows: n crosses 10^4,
    # b_bits 16 -> 17, and n 10^4 again in JSON on stdout.
    cases += [_cli_case("survey", 9000, 14000, "--out", "w.csv"),
              _cli_case("bound", 65000, 70000, "--format", "json", "--out", "w.json"),
              _cli_case("survey", 1, 20000, "--format", "json")]
    for args in (("--steps", 200), ("--steps", 150, "--mode", "wrap", "--width", 101),
                 ("--init", "random", "--width", 129, "--seed", 7, "--steps", 300),
                 ("--init", "random", "--width", 64, "--seed", 3, "--steps", 100,
                  "--mode", "expand"),
                 ("--init", "random", "--width", 1001, "--seed", 42, "--steps", 2000)):
        cases += [_cli_case("rule30", *args, "--pbm", "g.pbm", "--center", "c.txt"),
                  _cli_case("rule30", *args, "--pbm", "g.pbm"),
                  _cli_case("rule30", *args, "--center", "c.txt")]
    for name in ("monobit", "runs", "entropy"):
        cases += [_cli_case("test", name, "--in", path) for path in ("bits.txt", "ones.txt")]
    cases += [_cli_case("test", "serial", "--in", "bits.txt", "--k", k) for k in (2, 3, 4)]
    cases += [_cli_case("test", "monobit", "--in", "bits.txt", "--alpha", alpha)
              for alpha in (0.2, 0.5, 1e-9)]
    cases += [_cli_case("test", name, "--in", path) for name in ("monobit", "serial")
              for path in ("short.txt", "junk.txt", "empty.bin", "no-such-file.txt")]
    cases += [_cli_case("test", "entropy", "--in", path)
              for path in ("junk.txt", "latin.txt", "empty.bin")]
    for path in ("empty.bin", "mib.bin", "b31.bin", "b32.bin", "b33.bin"):
        cases += [_cli_case("digest", "--key", key, "--in", path, *flag)
                  for key in (_ZERO_KEY, "0123456789abcdef" * 4)
                  for flag in ((), ("--emit-trace",))]
    cases += [_cli_case("digest", "--key", key, "--in", "empty.bin") for key in ("zz", "00" * 31)]
    # The key is refused before the file is read.
    cases += [_cli_case("digest", "--key", key, "--in", "no-such-file.bin")
              for key in (_ZERO_KEY, "00" * 31)]
    for n in (1 << 200, (1 << 200) + 7, (1 << 200) - 1, 27, 1):
        cases += [_cli_case("trace", n), _cli_case("trace", n, "--format", "text"),
                  _cli_case("trace", n, "--stop", "repeat", "--max-steps", 500)]
        cases.append(_cli_case("invert", "--trace", _hailstone(n), "--terminal", 1))
    cases += [_cli_case("invert", "--trace", "L" * 200, "--terminal", 5),
              _cli_case("invert", "--trace", "LLRR", "--terminal", 1),
              _cli_case("invert", "--trace", "LXL", "--terminal", 1),
              _cli_case("invert", "--trace", "L" * 15000, "--terminal", 1)]
    cases += [_cli_case(*argv) for argv in (
        (), ("--help",), ("frobnicate",), ("trace", 0), ("trace", "x"), ("survey", 5, 3),
        ("survey", 1, 1 << 25), ("bound", 1, 1 << 25), ("rule30", "--steps", 5),
        ("rule30", "--steps", 5, "--mode", "bogus", "--center", "c.txt"),
        ("rule30", "--init", "random", "--steps", 5, "--center", "c.txt"),
        ("rule30", "--init", "single", "--mode", "wrap", "--steps", 5, "--center", "c.txt"),
        ("test", "monobit", "--in", "bits.txt", "--alpha", 1.5),
        ("test", "monobit", "--in", "latin.txt"),
        ("survey", 1, 10, "--out", "no-such-dir/rows.csv"), ("survey", 0, 3),
        ("invert", "--trace", "L", "--terminal", 0),
        ("rule30", "--steps", 0, "--pbm", "g.pbm", "--center", "c.txt"),
        ("rule30", "--init", "random", "--width", 9, "--seed", "x", "--steps", 3,
         "--center", "c.txt"))]
    cases += [_cli_case(command, "--help") for command in
              ("trace", "invert", "survey", "rule30", "test", "bound", "digest")]
    return cases


def quick_cli_cases() -> list[tuple]:
    lo, hi = _CLI_WINDOWS[1]
    return [_cli_case("survey", lo, hi), _cli_case("bound", lo, hi, "--format", "json"),
            _cli_case("survey", 1, 3000, "--format", "json", "--out", "s.json"),
            _cli_case("survey", 9000, 14000, "--out", "w.csv"),
            _cli_case("rule30", "--steps", 150, "--pbm", "g.pbm", "--center", "c.txt"),
            _cli_case("rule30", "--init", "random", "--width", 129, "--seed", 7, "--steps", 300,
                      "--pbm", "g.pbm", "--center", "c.txt"),
            _cli_case("test", "serial", "--in", "bits.txt", "--k", 3),
            _cli_case("test", "monobit", "--in", "ones.txt"),
            _cli_case("test", "entropy", "--in", "bits.txt"),
            _cli_case("digest", "--key", _ZERO_KEY, "--in", "empty.bin", "--emit-trace"),
            _cli_case("digest", "--key", "0123456789abcdef" * 4, "--in", "b31.bin", "--emit-trace"),
            _cli_case("trace", (1 << 200) + 7),
            _cli_case("invert", "--trace", _hailstone((1 << 200) + 7), "--terminal", 1),
            _cli_case("invert", "--trace", "LLRR", "--terminal", 1),
            _cli_case("trace", 0), _cli_case("--help"), _cli_case("rule30", "--steps", 5),
            _cli_case("survey", 1, 10, "--out", "no-such-dir/rows.csv")]


def _export(rev: str, into: pathlib.Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def _start(tree: pathlib.Path, child: list[str], out: pathlib.Path) -> subprocess.Popen:
    with out.open("w") as handle:
        return subprocess.Popen([sys.executable, "-c", *child], cwd=tree,
                                stdout=handle, env={**os.environ, "PYTHONPATH": str(tree / "src")})


def _fingerprints(child: subprocess.Popen, tree: pathlib.Path, out: pathlib.Path) -> dict:
    code = child.wait()
    where, *lines = out.read_text().splitlines() or [""]
    if code or not pathlib.Path(where).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"the child for {tree} failed (package at {where!r})")
    # name -> [fingerprint] or, from the CLI child, [fingerprint, exit and stderr]
    return {name: rest for name, *rest in map(json.loads, lines)}


def _scale(seconds: float, against: str | None) -> int:
    """Run the scale model's seeds on this tree, and on ``against`` if given,
    side by side for ``seconds`` each. A seed still running ``_GRACE``
    seconds after the time is up counts as failing."""
    with tempfile.TemporaryDirectory() as scratch:
        trees, sides = [ROOT], ["ours"]
        if against:
            trees.insert(0, pathlib.Path(scratch, "tree"))
            sides.insert(0, "theirs")
            try:
                _export(against, trees[0])
            except (OSError, subprocess.CalledProcessError) as err:
                print(f"error: cannot export {against}: {err}", file=sys.stderr)
                return 2
        outs = [pathlib.Path(scratch, f"{side}.out") for side in sides]
        children = [_start(tree, [_SCALE_CHILD, str(seconds), str(ROOT / "tests")], out)
                    for tree, out in zip(trees, outs)]
        failed = 0
        for side, child, tree, out in zip(sides, children, trees, outs):
            try:
                code = child.wait(timeout=max(0, seconds) + _GRACE)
            except subprocess.TimeoutExpired:  # a hung seed; the "at" line names it
                child.kill()
                child.wait()
                code = 0
            where, *lines = out.read_text().splitlines() or [""]
            if code or not pathlib.Path(where).resolve().is_relative_to(tree.resolve()):
                for each in children:
                    each.kill()
                print(f"error: the child for {tree} failed (package at {where!r})", file=sys.stderr)
                return 2
            tags = {tag: rest for tag, *rest in map(json.loads, lines)}
            if "fails" in tags:
                seed, error, case = tags["fails"]
                print(f"{side}: {seed} seeds passed; seed {seed} fails on "
                      f"[lo, hi, rule, constants] = {case}: {error}")
            elif "seeds" not in tags:
                print(f"{side}: seed {tags.get('at', ['?'])[0]} still ran {_GRACE} s after "
                      "the time was up")
            else:
                print(f"{side}: {tags['seeds'][0]} seeds passed in {seconds:g} s, no mismatch")
                continue
            failed += 1
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="git revision to compare this tree with")
    parser.add_argument("--quick", action="store_true", help="run the short case set")
    parser.add_argument("--cli", action="store_true", help="check the CLI, not the survey")
    parser.add_argument("--scale", type=float, metavar="SECONDS",
                        help="run the survey kernel's scale model for SECONDS per tree")
    args = parser.parse_args(argv)
    if args.scale is not None:
        if args.quick or args.cli:
            parser.error("--scale runs the scale model alone; drop --quick and --cli")
        return _scale(args.scale, args.against)
    if args.against is None:
        parser.error("--against is required unless --scale is given")
    if args.cli:
        cases = quick_cli_cases() if args.quick else cli_cases()
    else:
        cases = quick_cases() if args.quick else full_cases()
    if len({name for name, *_ in cases}) != len(cases):
        raise AssertionError("two cases share a name")
    with tempfile.TemporaryDirectory() as scratch:
        other = pathlib.Path(scratch, "tree")
        try:
            _export(args.against, other)
        except (OSError, subprocess.CalledProcessError) as err:
            print(f"error: cannot export {args.against}: {err}", file=sys.stderr)
            return 2
        listing = pathlib.Path(scratch, "cases.json")
        listing.write_text(json.dumps(cases))
        # The two trees run side by side, one child each, each child in a
        # working directory of its own, which only the CLI child uses.
        trees, outs, children = (other, ROOT), [], []
        script = _CLI_CHILD if args.cli else _CHILD
        for tree, side in zip(trees, ("theirs", "ours")):
            work = pathlib.Path(scratch, f"{side}-work")
            work.mkdir()
            outs.append(pathlib.Path(scratch, f"{side}.out"))
            children.append(_start(tree, [script, str(listing), str(work)], outs[-1]))
        try:
            theirs, ours = map(_fingerprints, children, trees, outs)
        except RuntimeError as err:
            for child in children:
                child.kill()
            print(f"error: {err}", file=sys.stderr)
            return 2
    differ = 0
    for name, *_ in cases:
        same = theirs[name][0] == ours[name][0]
        differ += not same
        print(f"{theirs[name][0][:16]} {ours[name][0][:16]} "
              f"{'same' if same else 'DIFFERS'}  {name}")
        if not same:
            for side, (_, *notes) in (("theirs", theirs[name]), ("ours", ours[name])):
                for note in notes:
                    print(f"    {side}: {note}")
    print(f"{len(cases)} cases against {args.against}: "
          f"{len(cases) - differ} bit-identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
