"""Differential check of ``collatz.survey`` between this tree and a git revision.

    python3 tools/differential.py --against REV [--quick]

REV is exported with ``git archive`` into a temporary directory; nothing
in the repository changes and no network is used. Each survey case runs
in a child interpreter per tree, with ``PYTHONPATH`` set to that tree's
``src``. A case's fingerprint is the sha256 of its ``steps``,
``l_count``, ``peaks`` and ``stop_codes`` columns and its sorted
``big_peaks`` (or of the exception it raised). One line per case gives
both fingerprints; the exit status is 1 if any case differs, 2 if a
tree cannot be exported or run, and 0 if every case is bit-identical.

The full set is 661 cases over the survey kernel's boundaries: the
seed-1 ``exact_wide`` windows, windows just below 2^40 ... 2^62, windows
across 2^62, across and at 2^63 - 1 (the last input int64 holds) and
wholly past it up to 2^200, dense ranges, chunk edges and caps that fall
between the R and the L of a shortcut step. ``--quick`` runs a
seconds-long subset of 32.
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
    return cases


def _export(rev: str, into: pathlib.Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def _start(tree: pathlib.Path, cases: pathlib.Path, out: pathlib.Path) -> subprocess.Popen:
    with out.open("w") as handle:
        return subprocess.Popen([sys.executable, "-c", _CHILD, str(cases)], cwd=tree,
                                stdout=handle, env={**os.environ, "PYTHONPATH": str(tree / "src")})


def _fingerprints(child: subprocess.Popen, tree: pathlib.Path, out: pathlib.Path) -> dict:
    code = child.wait()
    where, *lines = out.read_text().splitlines() or [""]
    if code or not pathlib.Path(where).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"the survey child for {tree} failed (package at {where!r})")
    return dict(json.loads(line) for line in lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare this tree with")
    parser.add_argument("--quick", action="store_true", help="run the short case set")
    args = parser.parse_args(argv)
    cases = quick_cases() if args.quick else full_cases()
    with tempfile.TemporaryDirectory() as scratch:
        other = pathlib.Path(scratch, "tree")
        try:
            _export(args.against, other)
        except (OSError, subprocess.CalledProcessError) as err:
            print(f"error: cannot export {args.against}: {err}", file=sys.stderr)
            return 2
        listing = pathlib.Path(scratch, "cases.json")
        listing.write_text(json.dumps(cases))
        # The two trees run side by side, one child each.
        trees = (other, ROOT)
        outs = [pathlib.Path(scratch, f"{side}.out") for side in ("theirs", "ours")]
        children = [_start(tree, listing, out) for tree, out in zip(trees, outs)]
        try:
            theirs, ours = map(_fingerprints, children, trees, outs)
        except RuntimeError as err:
            for child in children:
                child.kill()
            print(f"error: {err}", file=sys.stderr)
            return 2
    differ = 0
    for name, *_ in cases:
        same = theirs[name] == ours[name]
        differ += not same
        print(f"{theirs[name][:16]} {ours[name][:16]} {'same' if same else 'DIFFERS'}  {name}")
    print(f"{len(cases)} cases against {args.against}: "
          f"{len(cases) - differ} bit-identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
