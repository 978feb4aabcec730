"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test measures everything first, prints a single verdict line that
survives pytest's capture, and only then asserts, so the run log always
shows the full scoreboard even when a criterion is red.
"""

import subprocess
import sys
import time

import numpy as np

from branchtrace import bounds, collatz, dyncompose, randstat, rule30
from branchtrace.prng import XorShift64Star

import oracles

CMD = [sys.executable, "-m", "branchtrace"]


def announce(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] criterion {num} {label}: {verdict} ({detail})")


def run_cli(*args):
    return subprocess.run(
        CMD + [str(a) for a in args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_criterion_01_full_sweep_reaches_one(capsys):
    t0 = time.perf_counter()
    result = collatz.survey(1, 10**6)
    elapsed = time.perf_counter() - t0
    stranded = result.non_reached_count()
    ok = stranded == 0 and elapsed < 60.0
    announce(capsys, 1, "every n in [1, 10^6] reaches 1", ok,
             f"stranded={stranded}, {elapsed:.1f}s of 60s budget")
    assert stranded == 0
    assert elapsed < 60.0


def test_criterion_02_decode_roundtrip_and_distinctness(capsys):
    mismatches = 0
    pairs = set()
    for n in range(1, 10**5 + 1):
        rec = collatz.trace(n)
        if collatz.decode(rec.trace, rec.terminal) != n:
            mismatches += 1
        if n <= 10**4:
            pairs.add((rec.trace, rec.terminal))
    ok = mismatches == 0 and len(pairs) == 10**4
    announce(capsys, 2, "decode inverts trace; keys are distinct", ok,
             f"mismatches={mismatches}, distinct pairs={len(pairs)}/10000")
    assert mismatches == 0
    assert len(pairs) == 10**4


def test_criterion_03_landmarks_against_oracle(capsys):
    rec = collatz.trace(27)
    result = collatz.survey(1, 10)
    disagreements = 0
    for summary, n in zip(result, range(1, 11)):
        ref = oracles.hailstone(n)
        if (summary.steps != ref["steps"] or summary.peak != ref["peak"]
                or summary.l_count != ref["l_count"]
                or summary.stop_reason.value != ref["stop_reason"]):
            disagreements += 1
    ok = (rec.steps == 111 and rec.peak == 9232
          and result.max_steps() == 19 and result.record(8).steps == 19
          and disagreements == 0)
    announce(capsys, 3, "known landmarks and brute-force agreement", ok,
             f"trace(27)=({rec.steps}, {rec.peak}), survey max={result.max_steps()} "
             f"at n=9, oracle disagreements={disagreements}")
    assert rec.steps == 111
    assert rec.peak == 9232
    assert result.max_steps() == 19
    assert result.record(8).steps == 19
    assert disagreements == 0


def test_criterion_04_halving_lower_bound(capsys):
    result = collatz.survey(2, 10**5)
    ns = np.arange(2, 10**5 + 1, dtype=np.int64)
    powers = np.int64(2) ** np.arange(0, 18, dtype=np.int64)
    floor_log2 = np.searchsorted(powers, ns, side="right") - 1
    sweep_violations = int(np.count_nonzero(result.l_count < floor_log2))

    report = bounds.bound_report(1, 2**16)
    ok = (sweep_violations == 0 and len(report.violations) == 0
          and report.mean_trace_len > 16.0)
    announce(capsys, 4, "halvings dominate the bit length", ok,
             f"sweep violations={sweep_violations}, report violations="
             f"{len(report.violations)}, mean trace len={report.mean_trace_len:.2f}")
    assert sweep_violations == 0
    assert len(report.violations) == 0
    assert report.mean_trace_len > 16.0


def test_criterion_05_local_rule_and_growth(capsys):
    table_errors = 0
    for (left, center, right), want in oracles.TRUTH_TABLE.items():
        row = rule30.Row.from_bits([left, center, right])
        stepped = rule30.step_row(row, rule30.BoundaryMode.WRAP)
        if stepped.cell(1) != want:
            table_errors += 1

    grid = rule30.evolve(rule30.Row.single(), 64, rule30.BoundaryMode.EXPAND_ZERO)
    reference = oracles.automaton_run([1], 64, wrap=False)
    row_errors = sum(
        1 for row, ref in zip(grid.rows, reference)
        if row.to_bit_array().tolist() != ref
    )

    head = rule30.center_column(rule30.Row.single(), 3,
                                rule30.BoundaryMode.EXPAND_ZERO).tolist()
    ok = table_errors == 0 and row_errors == 0 and head == [1, 1, 0, 1]
    announce(capsys, 5, "update rule exact; growth matches oracle", ok,
             f"table errors={table_errors}, row errors={row_errors}/65, "
             f"center head={head}")
    assert table_errors == 0
    assert row_errors == 0
    assert head == [1, 1, 0, 1]


def test_criterion_06_center_columns_look_random(capsys):
    col_a = rule30.center_column(rule30.Row.single(), 4096,
                                 rule30.BoundaryMode.EXPAND_ZERO)
    col_b = rule30.center_column(rule30.random_row(256, 42), 4096,
                                 rule30.BoundaryMode.WRAP)
    battery_a = randstat.battery(col_a)
    battery_b = randstat.battery(col_b)

    core = ("monobit", "runs", "serial_k2")
    core_ok = all(rep.passed for rep in battery_a + battery_b
                  if rep.test_name in core)
    verdicts_match = ([rep.passed for rep in battery_a]
                      == [rep.passed for rep in battery_b])
    entropy_a = randstat.shannon_entropy(col_a)
    entropy_b = randstat.shannon_entropy(col_b)
    entropy_ok = entropy_a >= 0.99 and entropy_b >= 0.99

    ok = core_ok and verdicts_match and entropy_ok
    announce(capsys, 6, "center columns pass the battery", ok,
             f"core tests pass={core_ok}, verdicts match={verdicts_match}, "
             f"entropy=({entropy_a:.5f}, {entropy_b:.5f})")
    assert core_ok
    assert verdicts_match
    assert entropy_ok


def test_criterion_07_battery_calibration(capsys):
    tallies: dict[str, int] = {}
    for seed in range(1, 201):
        stream = XorShift64Star(seed).bits(4096)
        for rep in randstat.battery(stream):
            tallies[rep.test_name] = tallies.get(rep.test_name, 0) + rep.passed
    worst = min(tallies.values())

    zeros = {rep.test_name: rep.passed
             for rep in randstat.battery(np.zeros(4096, dtype=np.uint8))}
    alternating = {rep.test_name: rep.passed
                   for rep in randstat.battery("01" * 2048)}
    degenerate_ok = (not zeros["monobit"]
                     and not alternating["runs"]
                     and not alternating["serial_k2"]
                     and alternating["monobit"])

    ok = worst >= 190 and degenerate_ok
    announce(capsys, 7, "calibrated on 200 seeded streams", ok,
             f"worst test {worst}/200 (threshold 190), "
             f"degenerate streams rejected={degenerate_ok}")
    assert worst >= 190, tallies
    assert not zeros["monobit"]
    assert not alternating["runs"]
    assert not alternating["serial_k2"]
    assert alternating["monobit"]


def test_criterion_08_avalanche_replay_balance(capsys):
    key = bytes(32)
    av = randstat.avalanche(lambda m: dyncompose.digest(key, m)[0],
                            input_len=32, trials=1000, seed=2024)

    # Regenerate the same trial inputs the avalanche run consumed and
    # check replay plus the schedule's symbol balance over all of them.
    rng = XorShift64Star(2024)
    replay_failures = 0
    l_total = symbol_total = 0
    for _ in range(1000):
        base = rng.bytes(32)
        bit = rng.below(256)
        mutated = bytearray(base)
        mutated[bit >> 3] ^= 0x80 >> (bit & 7)
        for message in (base, bytes(mutated)):
            value, schedule = dyncompose.digest(key, message)
            if dyncompose.replay(key, message, schedule) != value:
                replay_failures += 1
            l_total += schedule.count("L")
            symbol_total += len(schedule)
    l_fraction = l_total / symbol_total

    mean_ok = 0.48 <= av.mean <= 0.52
    replay_ok = replay_failures == 0
    balance_ok = 0.45 <= l_fraction <= 0.55
    ok = mean_ok and replay_ok and balance_ok
    announce(capsys, 8, "avalanche, replay, schedule balance", ok,
             f"mean flip fraction={av.mean:.5f}, replay failures={replay_failures}, "
             f"L fraction={l_fraction:.5f}")
    assert mean_ok
    assert replay_ok
    # The g round XORs the selector word with a constant whose low bit is
    # set, so the selector bit is zero after every R and an R is always
    # followed by an L inside a block. The schedule is a two-state Markov
    # chain with stationary L fraction 2/3, and no key or message moves
    # it into [0.45, 0.55]. The target is asserted as stated; this clause
    # fails by construction of the round functions.
    assert balance_ok, (
        f"schedule L fraction {l_fraction:.5f} outside [0.45, 0.55]: "
        "the g round forces the selector bit to zero, so within a block, "
        "R is always followed by L and the long-run L fraction is 2/3"
    )


def test_criterion_09_frozen_goldens(capsys, tmp_path, golden_dir):
    pbm = tmp_path / "triangle.pbm"
    proc = run_cli("rule30", "--init", "single", "--steps", "4", "--pbm", pbm)
    pbm_ok = (proc.returncode == 0
              and pbm.read_bytes() == (golden_dir / "rule30_single_4.pbm").read_bytes())

    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    proc = run_cli("digest", "--key", "0" * 64, "--in", empty, "--emit-trace")
    digest_ok = (proc.returncode == 0
                 and proc.stdout == (golden_dir / "digest_empty_zero_key.txt").read_text())

    ok = pbm_ok and digest_ok
    announce(capsys, 9, "golden outputs byte-identical", ok,
             f"pbm={pbm_ok}, digest={digest_ok}")
    assert pbm_ok
    assert digest_ok


def test_criterion_10_exit_code_contract(capsys, tmp_path):
    balanced = tmp_path / "balanced.txt"
    balanced.write_text("01" * 50)
    ones = tmp_path / "ones.txt"
    ones.write_text("1" * 100)
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")

    matrix = [
        (0, ("trace", "6")),
        (0, ("test", "monobit", "--in", balanced)),
        (1, ("test", "monobit", "--in", ones)),
        (2, ("trace", "0")),
        (2, ("survey", "10", "1")),
        (2, ("invert", "--trace", "R", "--terminal", "1")),
        (2, ("digest", "--key", "zz", "--in", empty)),
        (2, ("test", "monobit", "--in", tmp_path / "missing.txt")),
        (3, ("survey", "1", "3", "--out", tmp_path / "no" / "dir" / "out.csv")),
    ]
    wrong = []
    for expected, args in matrix:
        got = run_cli(*args).returncode
        if got != expected:
            wrong.append((args, expected, got))

    ok = not wrong
    announce(capsys, 10, "exit codes 0/1/2/3 as documented", ok,
             f"{len(matrix) - len(wrong)}/{len(matrix)} invocations correct")
    assert not wrong, wrong
