"""End-to-end runs of the installed command-line interface.

Every invocation goes through a real subprocess so argument parsing,
exit codes, stdout/stderr routing, and file outputs are all exercised
exactly as a user sees them.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from branchtrace import bounds, cli, collatz, dyncompose, randstat, rule30

CMD = [sys.executable, "-m", "branchtrace"]


def run(*args, **kwargs):
    return subprocess.run(
        CMD + [str(a) for a in args],
        capture_output=True,
        text=True,
        timeout=120,
        **kwargs,
    )


# ----------------------------------------------------------------- trace


def test_trace_json_document():
    proc = run("trace", "6")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc == {
        "n": "6",
        "trace": "LRLRLLLL",
        "steps": "8",
        "peak": "16",
        "terminal": "1",
        "stop_reason": "reached_one",
    }


def test_trace_of_one_is_empty():
    doc = json.loads(run("trace", "1").stdout)
    assert doc["steps"] == "0"
    assert doc["trace"] == ""


def test_trace_repeat_mode():
    doc = json.loads(run("trace", "1", "--stop", "repeat").stdout)
    assert doc["trace"] == "RLL"
    assert doc["stop_reason"] == "repeat_detected"


def test_trace_max_steps_flag():
    doc = json.loads(run("trace", "27", "--max-steps", "10").stdout)
    assert doc["steps"] == "10"
    assert doc["stop_reason"] == "step_cap_exceeded"


def test_trace_text_format():
    proc = run("trace", "6", "--format", "text")
    assert proc.returncode == 0
    assert "trace=LRLRLLLL" in proc.stdout


@pytest.mark.parametrize("bad", ["0", "-3", "x", "1.5"])
def test_trace_rejects_bad_input(bad):
    proc = run("trace", bad)
    assert proc.returncode == 2
    assert proc.stdout == ""


# ---------------------------------------------------------------- invert


def test_invert_roundtrip():
    proc = run("invert", "--trace", "LRLRLLLL", "--terminal", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"


def test_invert_empty_trace_returns_terminal():
    proc = run("invert", "--trace", "", "--terminal", "7")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7"


def test_invert_inconsistent_trace_names_step():
    proc = run("invert", "--trace", "R", "--terminal", "1")
    assert proc.returncode == 2
    assert "step 0" in proc.stderr


def test_invert_rejects_bad_symbols():
    proc = run("invert", "--trace", "LRX", "--terminal", "1")
    assert proc.returncode == 2
    assert proc.stderr == "error: invalid branch symbol 'X'\n"


@pytest.mark.parametrize("args", [
    ("trace", 2**14000 - 1, "--max-steps", 1000),
    ("invert", "--trace", "L" * 15000, "--terminal", 1),
    ("survey", 2**14000 - 1, 2**14000 - 1),
])
def test_results_past_the_int_to_text_limit_are_usage_errors(args):
    # Python refuses to turn ints of more than 4300 decimal digits into
    # text; the input parses, the peak or decoded value does not print.
    proc = run(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# ---------------------------------------------------------------- survey


def test_survey_csv_contract():
    proc = run("survey", "1", "10")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n,steps,peak,l_count,stop_reason"
    assert len(lines) == 11
    assert lines[9] == "9,19,52,13,reached_one"
    assert all(line.endswith("reached_one") for line in lines[1:])


def test_survey_single_row():
    lines = run("survey", "5", "5").stdout.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("5,5,16,")


def test_survey_json_rows():
    rows = json.loads(run("survey", "1", "4", "--format", "json").stdout)
    assert [row["n"] for row in rows] == ["1", "2", "3", "4"]
    assert rows[2]["steps"] == "7"


def test_survey_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    proc = run("survey", "1", "10", "--out", out)
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert out.read_text().startswith("n,steps,peak")


def test_survey_reversed_range_is_usage_error():
    assert run("survey", "10", "1").returncode == 2


_LIMIT = 1 << 62


@pytest.mark.parametrize(
    "args, golden",
    [
        (("survey", 1, 40), "survey_1_40.csv"),
        (("survey", 1, 12, "--format", "json"), "survey_1_12.json"),
        (("bound", 1, 40), "bound_1_40.csv"),
        (("bound", 1, 16, "--format", "json"), "bound_1_16.json"),
        # Peaks beyond int64, from the last range on the int64 lanes.
        (("survey", _LIMIT - 15, _LIMIT), "survey_2p62_window.csv"),
    ],
)
def test_row_writers_match_golden_bytes(tmp_path, golden_dir, args, golden):
    want = (golden_dir / golden).read_bytes()
    stdout = subprocess.run(CMD + [str(a) for a in args], capture_output=True,
                            timeout=120).stdout
    assert stdout == want
    out = tmp_path / golden
    assert run(*args, "--out", out).returncode == 0
    assert out.read_bytes() == want


@pytest.mark.parametrize("args, golden", [
    (("survey", "1", "40"), "survey_1_40.csv"),
    (("bound", "1", "16", "--format", "json"), "bound_1_16.json"),
])
def test_row_writers_in_process_match_golden_bytes(tmp_path, golden_dir, args, golden):
    # Files are written through a binary handle; stdout takes text, as a
    # captured stream such as io.StringIO has no binary buffer.
    want = (golden_dir / golden).read_bytes()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(list(args)) == 0
    assert stdout.getvalue().encode("ascii") == want
    out = tmp_path / golden
    assert cli.main([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == want


@pytest.mark.parametrize("rows", [0, 1, 3])
@pytest.mark.parametrize("indent", [0, 2])
def test_json_row_writer_lays_out_like_json_dumps(rows, indent):
    # In-process, because no CLI range yields an empty "records" list.
    records = [{"n": str(n), "b_bits": str(n.bit_length())} for n in range(1, rows + 1)]
    columns = tuple(np.array([int(r[key]) for r in records], dtype=np.int64)
                    for key in ("n", "b_bits"))
    out = io.BytesIO()
    cli._write_rows(out.write, ("n", "b_bits"), columns, indent)
    if indent == 0:
        want = json.dumps(records, indent=2)
    else:
        want = json.dumps({"records": records}, indent=2)
        want = want[len('{\n  "records": '):-len("\n}")]
    assert out.getvalue() == want.encode("ascii")


def _reference_rows(keys, rows, indent):
    """The writer's text built from str() and json.dumps of the same rows."""
    records = [dict(zip(keys, map(str, row))) for row in rows]
    if indent is None:
        return "".join(",".join(line) + "\n" for line in [keys, *map(dict.values, records)])
    if indent == 0:
        return json.dumps(records, indent=2)
    return json.dumps({"records": records}, indent=2)[len('{\n  "records": '):-len("\n}")]


def _survey_case(result):
    columns = (range(result.lo, result.hi + 1), result.steps, result.peaks, result.l_count,
               result.stop_codes)
    rows = [(r.n, r.steps, r.peak, r.l_count, r.stop_reason.value) for r in result]
    return cli._SURVEY_HEADER, columns, (2, result.big_peaks), rows


def _bound_case(report):
    columns = (report.n, report.b_bits, report.r_symbols, report.l_count)
    return cli._BOUND_HEADER, columns, (0, {}), list(report.records())


# Every decimal width edge: 0, 9/10, 99/100, ..., 10^18 - 1/10^18, 2^63 - 1.
_WIDTH_EDGES = [0, *(v for k in range(1, 19) for v in (10**k - 1, 10**k)), 2**63 - 1]
# Rows standing in for peaks past int64: the first and last row of blocks
# of 7 and of 64 rows.
_BIG = {0: 2**63, 6: 2**64 + 1, 7: 3**45, 13: 10**30, 19: 2**63 + 2**62}


def _big_case():
    peaks = np.arange(20, dtype=np.int64) * 999
    peaks[list(_BIG)] = 2**63 - 1
    columns = (range(1, 21), np.arange(20, dtype=np.int64), peaks,
               np.full(20, 10, dtype=np.int64), np.arange(20, dtype=np.uint8) % 3)
    reasons = [reason.value for reason in collatz.StopReason]
    rows = [(i + 1, i, _BIG.get(i, i * 999), 10, reasons[i % 3]) for i in range(20)]
    return cli._SURVEY_HEADER, columns, (2, _BIG), rows


_ROW_CASES = {
    "width edges": lambda: (("v", "w"), (np.array(_WIDTH_EDGES), np.array(_WIDTH_EDGES[::-1])),
                            (0, {}), list(zip(_WIDTH_EDGES, _WIDTH_EDGES[::-1]))),
    "big peaks at block edges": _big_case,
    "one row": lambda: _survey_case(collatz.survey(27, 27)),
    "repeat and cap rows": lambda: _survey_case(collatz.survey(1, 30,
                                                               collatz.StopRule.on_repeat(15))),
    "survey across 2^63": lambda: _survey_case(collatz.survey(2**63 - 9, 2**63 + 9)),
    "survey at 2^64": lambda: _survey_case(collatz.survey(2**64, 2**64 + 9)),
    "bound across 2^63": lambda: _bound_case(bounds.bound_report(2**63 - 9, 2**63 + 9)),
    # n is an int64 column here, an object one across 2^63; the bytes agree.
    "bound at 2^62 + 1": lambda: _bound_case(bounds.bound_report(2**62 + 1, 2**62 + 20)),
}


# Blocks of one row, blocks that do not divide the rows, the default, and
# 2^14 rows, more than any case holds.
@pytest.mark.parametrize("block", [1, 7, 64, cli._BLOCK, 1 << 14])
@pytest.mark.parametrize("indent", [None, 0, 2])
@pytest.mark.parametrize("case", list(_ROW_CASES))
def test_row_writer_matches_str_and_json_dumps(monkeypatch, case, indent, block):
    keys, columns, big, rows = _ROW_CASES[case]()
    monkeypatch.setattr(cli, "_BLOCK", block)
    out = io.BytesIO()
    cli._write_rows(out.write, keys, columns, indent, big)
    assert out.getvalue() == _reference_rows(keys, rows, indent).encode("ascii")


@pytest.mark.parametrize("args, case", [
    (("survey", 2**64, 2**64 + 9), "survey at 2^64"),
    (("bound", 2**63 - 9, 2**63 + 9), "bound across 2^63"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_rows_past_int64_match_str(tmp_path, args, case, fmt):
    # In-process: the columns the commands pass, n beyond int64 included.
    out = tmp_path / "rows"
    assert cli.main([*map(str, args), "--format", fmt, "--out", str(out)]) == 0
    keys, _, _, rows = _ROW_CASES[case]()
    if fmt == "csv":
        assert out.read_text() == _reference_rows(keys, rows, None)
    else:
        doc = json.loads(out.read_text())
        assert (doc if args[0] == "survey" else doc["records"]) == json.loads(
            _reference_rows(keys, rows, 0))


@pytest.mark.parametrize("command", ["survey", "bound"])
def test_range_above_cap_is_refused_before_work(command):
    proc = run(command, "1", collatz.RANGE_CAP + 1)
    assert proc.returncode == 2
    assert "exceeds cap" in proc.stderr
    assert proc.stdout == ""


def test_survey_write_failure_is_io_error(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "f.csv"
    proc = run("survey", "1", "3", "--out", missing_dir)
    assert proc.returncode == 3
    assert "cannot write" in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("args", [("survey", "1", "200000"), ("trace", "27"), ("--help",),
                                  ("survey", "--help")])
def test_stdout_write_failure_is_io_error(args):
    # A full device fails a write mid-stream (survey, help text) or at the
    # last flush (trace); either way one error line and exit 3, with no
    # traceback.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(CMD + list(args), stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: cannot write") and proc.stderr.count("\n") == 1


def test_stdout_closed_pipe_is_io_error():
    # The reader is gone before the first byte, as after `| head -c 10`.
    with subprocess.Popen(CMD + ["survey", "1", "200000"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 3
    assert stderr.startswith("error: cannot write") and stderr.count("\n") == 1


# ---------------------------------------------------------------- rule30


def test_rule30_golden_pbm(tmp_path, golden_dir):
    out = tmp_path / "t.pbm"
    proc = run("rule30", "--init", "single", "--steps", "4", "--pbm", out)
    assert proc.returncode == 0
    assert out.read_bytes() == (golden_dir / "rule30_single_4.pbm").read_bytes()


# Both are taller than one default PBM block (64 KiB of text).
RULE30_GOLDENS = [
    (("--init", "random", "--width", 129, "--seed", 7, "--steps", 300), "rule30_random_wrap"),
    (("--init", "single", "--steps", 140), "rule30_single_expand"),
]


@pytest.mark.parametrize("args, golden", RULE30_GOLDENS)
def test_rule30_pbm_and_center_match_golden_bytes(tmp_path, golden_dir, args, golden):
    pbm, center = tmp_path / "g.pbm", tmp_path / "c.txt"
    assert run("rule30", *args, "--pbm", pbm, "--center", center).returncode == 0
    assert pbm.read_bytes() == (golden_dir / f"{golden}.pbm").read_bytes()
    assert center.read_bytes() == (golden_dir / f"{golden}_center.txt").read_bytes()


@pytest.mark.parametrize("block_bytes", [1, 2500])
@pytest.mark.parametrize("args, golden", RULE30_GOLDENS)
def test_rule30_pbm_blocks_split_anywhere(monkeypatch, tmp_path, golden_dir, args, golden,
                                          block_bytes):
    # In-process, to shrink the block: one row per block, and blocks whose
    # row count does not divide the height.
    monkeypatch.setattr(cli, "_PBM_BLOCK_BYTES", block_bytes)
    pbm, center = tmp_path / "g.pbm", tmp_path / "c.txt"
    assert cli.main(["rule30", *map(str, args), "--pbm", str(pbm)]) == 0
    assert pbm.read_bytes() == (golden_dir / f"{golden}.pbm").read_bytes()
    assert cli.main(["rule30", *map(str, args), "--center", str(center)]) == 0
    assert center.read_bytes() == (golden_dir / f"{golden}_center.txt").read_bytes()


@pytest.mark.parametrize("center", [False, True])
@pytest.mark.parametrize("args, golden", RULE30_GOLDENS)
def test_rule30_pbm_streams_without_a_grid(monkeypatch, tmp_path, golden_dir, args, golden,
                                           center):
    # The PBM is formatted as the generations come, so no grid is kept.
    def refuse(*_):
        raise AssertionError("the CLI built the whole grid")

    monkeypatch.setattr(rule30, "evolve", refuse)
    monkeypatch.setattr(rule30, "Grid", refuse)
    pbm, column = tmp_path / "g.pbm", tmp_path / "c.txt"
    argv = ["rule30", *map(str, args), "--pbm", str(pbm)]
    assert cli.main(argv + ["--center", str(column)] * center) == 0
    assert pbm.read_bytes() == (golden_dir / f"{golden}.pbm").read_bytes()
    if center:
        assert column.read_bytes() == (golden_dir / f"{golden}_center.txt").read_bytes()


@pytest.mark.parametrize("center", [False, True])
@pytest.mark.parametrize("args", [
    # 2^20 - 1 cells wide and 2^19 rows: inside the width and step caps,
    # but the PBM would be about 1 TB.
    ("--steps", 524287),
    ("--init", "single", "--width", 1048575, "--mode", "wrap", "--steps", 1048576),
    # Refused from --width and --steps, before the random row is built.
    ("--init", "random", "--width", 262144, "--steps", 1048576),
])
def test_rule30_grid_over_the_cell_cap_is_refused_before_any_file(monkeypatch, tmp_path, capsys,
                                                                  args, center):
    def refuse(*_):
        raise AssertionError("the random row was built before the caps were checked")

    monkeypatch.setattr(rule30, "random_row", refuse)
    pbm, column = tmp_path / "g.pbm", tmp_path / "c.txt"
    argv = ["rule30", *map(str, args), "--pbm", str(pbm)]
    start = time.perf_counter()
    assert cli.main(argv + ["--center", str(column)] * center) == 2
    assert time.perf_counter() - start < 1
    assert "cells exceeds cap" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ("--init", "random", "--width", 10, "--seed", 5, "--steps", 40),
    ("--init", "random", "--width", 10, "--seed", 5, "--steps", 40, "--mode", "expand"),
    ("--init", "single", "--width", 7, "--mode", "wrap", "--steps", 40),
    ("--init", "single", "--width", 1, "--steps", 1),
    ("--init", "random", "--width", 9, "--seed", 3, "--steps", 6),
])
def test_rule30_center_from_pbm_matches_the_center_column(tmp_path, args):
    # The two files are computed apart; the column sits at width // 2 of
    # the image. Even widths track the right one of the two middle cells.
    pbm, center = tmp_path / "g.pbm", tmp_path / "c.txt"
    assert cli.main(["rule30", *map(str, args), "--pbm", str(pbm), "--center", str(center)]) == 0
    _, size, *rows = pbm.read_text().splitlines()
    width = int(size.split()[0])
    assert center.read_text().splitlines() == [row.split()[width // 2] for row in rows]


def test_rule30_center_column_file(tmp_path):
    out = tmp_path / "c.txt"
    proc = run(
        "rule30", "--init", "random", "--width", "256", "--seed", "42",
        "--steps", "4096", "--center", out,
    )
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4097
    assert set("".join(lines)) <= {"0", "1"}


def test_rule30_wrap_single_requires_width(tmp_path):
    proc = run("rule30", "--init", "single", "--mode", "wrap", "--steps", "4",
               "--pbm", tmp_path / "x.pbm")
    assert proc.returncode == 2


def test_rule30_random_requires_width(tmp_path):
    proc = run("rule30", "--init", "random", "--steps", "4",
               "--pbm", tmp_path / "x.pbm")
    assert proc.returncode == 2


def test_rule30_requires_an_output():
    assert run("rule30", "--init", "single", "--steps", "4").returncode == 2


def test_rule30_single_width_must_be_odd(tmp_path):
    proc = run("rule30", "--init", "single", "--width", "4", "--steps", "2",
               "--pbm", tmp_path / "x.pbm")
    assert proc.returncode == 2


# ------------------------------------------------------------------ test


def write_bits(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_test_monobit_passes(tmp_path):
    path = write_bits(tmp_path, "alt.txt", "01" * 50)
    proc = run("test", "monobit", "--in", path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["test"] == "monobit"
    assert doc["p_value"] == 1.0
    assert doc["passed"] is True


def test_test_monobit_fails(tmp_path):
    path = write_bits(tmp_path, "ones.txt", "1" * 100)
    proc = run("test", "monobit", "--in", path)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["passed"] is False


def test_test_runs_reports_prerequisite(tmp_path):
    path = write_bits(tmp_path, "ones.txt", "1" * 100)
    proc = run("test", "runs", "--in", path)
    assert proc.returncode == 1
    assert "prerequisite" in json.loads(proc.stdout)["note"]


def test_test_serial_with_block_size(tmp_path):
    path = write_bits(tmp_path, "alt.txt", "01" * 400)
    proc = run("test", "serial", "--in", path, "--k", "2")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["test"] == "serial_k2"
    assert doc["statistic"] == 1200.0


def test_test_alpha_flag_changes_verdict(tmp_path):
    # 60/40 split: p around 0.0455 sits between the two thresholds.
    path = write_bits(tmp_path, "sixty.txt", "1" * 60 + "0" * 40)
    assert run("test", "monobit", "--in", path, "--alpha", "0.01").returncode == 0
    assert run("test", "monobit", "--in", path, "--alpha", "0.2").returncode == 1


def test_test_entropy_report(tmp_path):
    path = write_bits(tmp_path, "alt.txt", "0011" * 50)
    proc = run("test", "entropy", "--in", path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc == {"test": "entropy", "statistic": 1.0}


def test_test_whitespace_in_bit_file_is_ignored(tmp_path):
    path = write_bits(tmp_path, "spaced.txt", "01 10\n" * 25)
    assert run("test", "monobit", "--in", path).returncode == 0


def test_test_malformed_file(tmp_path):
    path = write_bits(tmp_path, "bad.txt", "0102" * 50)
    assert run("test", "monobit", "--in", path).returncode == 2


def test_test_missing_file(tmp_path):
    assert run("test", "monobit", "--in", tmp_path / "nope.txt").returncode == 2


def test_test_too_short_stream_is_domain_error(tmp_path):
    path = write_bits(tmp_path, "short.txt", "01")
    assert run("test", "monobit", "--in", path).returncode == 2


# ----------------------------------------------------------------- bound


def test_bound_trivial_range():
    doc = json.loads(run("bound", "1", "1", "--format", "json").stdout)
    assert doc["total_bits"] == "1"
    assert doc["total_symbols"] == "0"
    assert doc["violations"] == []


def test_bound_first_ten_json():
    doc = json.loads(run("bound", "1", "10", "--format", "json").stdout)
    assert doc["total_symbols"] == "67"
    assert len(doc["records"]) == 10
    assert doc["records"][0] == {"n": "1", "b_bits": "1", "r_symbols": "0", "l_count": "0"}


def test_bound_csv_contract():
    lines = run("bound", "1", "10").stdout.strip().splitlines()
    assert lines[0] == "n,b_bits,r_symbols,l_count"
    assert len(lines) == 11
    assert lines[1] == "1,1,0,0"
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 67


def test_bound_reversed_range():
    assert run("bound", "9", "2").returncode == 2


# ---------------------------------------------------------------- digest


def test_digest_empty_matches_golden(tmp_path, golden_dir):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    proc = run("digest", "--key", "0" * 64, "--in", empty, "--emit-trace")
    assert proc.returncode == 0
    assert proc.stdout == (golden_dir / "digest_empty_zero_key.txt").read_text()


def test_digest_is_reproducible(tmp_path):
    blob = tmp_path / "m.bin"
    blob.write_bytes(bytes(range(100)))
    key = "ab" * 32
    first = run("digest", "--key", key, "--in", blob)
    second = run("digest", "--key", key, "--in", blob)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout.strip()) == 64


def test_digest_trace_flag(tmp_path):
    blob = tmp_path / "m.bin"
    blob.write_bytes(b"hello")
    proc = run("digest", "--key", "11" * 32, "--in", blob, "--emit-trace")
    digest_line, trace_line = proc.stdout.splitlines()
    assert len(digest_line) == 64
    assert set(trace_line) <= {"L", "R"}
    assert len(trace_line) == 32


def test_digest_vectors_through_the_cli(tmp_path, capsys, digest_vectors):
    blob = tmp_path / "m.bin"
    for key, message, value, schedule in digest_vectors:
        blob.write_bytes(message)
        assert cli.main(["digest", "--key", key.hex(), "--in", str(blob), "--emit-trace"]) == 0
        assert capsys.readouterr().out == f"{value}\n{schedule}\n"


@pytest.mark.parametrize("key", ["0" * 63, "0" * 65, "zz" * 32, ""])
def test_digest_rejects_bad_keys(tmp_path, key):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    assert run("digest", "--key", key, "--in", empty).returncode == 2


def test_digest_missing_input(tmp_path):
    proc = run("digest", "--key", "0" * 64, "--in", tmp_path / "nope.bin")
    assert proc.returncode == 2


# ------------------------------------------------------------- interface


def test_unknown_subcommand_is_usage_error():
    assert run("frobnicate").returncode == 2


def test_help_exits_zero():
    proc = run("--help")
    assert proc.returncode == 0
    for name in ("trace", "invert", "survey", "rule30", "test", "bound", "digest"):
        assert name in proc.stdout


def _option(command, dest):
    """The parser's action for ``command``'s option ``dest``."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


def test_rule30_mode_choices_are_the_boundary_modes():
    # Written out in the parser, so that building it imports no numpy.
    assert list(_option("rule30", "mode").choices) == [m.value for m in rule30.BoundaryMode]


def test_test_alpha_default_is_randstat_default(tmp_path, capsys):
    assert _option("test", "alpha").default == randstat.DEFAULT_ALPHA
    bits = write_bits(tmp_path, "alt.txt", "01" * 50)
    assert cli.main(["test", "monobit", "--in", str(bits)]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == randstat.DEFAULT_ALPHA


# The functions perfbench's tracer wraps by setattr on their module, with a
# command that must reach the wrapper: the CLI calls each through its module.
SEAMS = [
    (collatz, "survey", ["survey", "1", "10"]),
    (collatz, "survey", ["bound", "1", "10"]),  # through bounds.bound_report
    (bounds, "bound_report", ["bound", "1", "10"]),
    (rule30, "center_column", ["rule30", "--steps", "20", "--center", "{tmp}/c.txt"]),
    (randstat, "shannon_entropy", ["test", "entropy", "--in", "{tmp}/bits.txt"]),
    (dyncompose, "digest", ["digest", "--key", "0" * 64, "--in", "{tmp}/bits.txt"]),
]


@pytest.mark.parametrize("module, name, argv", SEAMS)
def test_cli_calls_reach_functions_patched_on_their_module(monkeypatch, tmp_path, capsys,
                                                           module, name, argv):
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    write_bits(tmp_path, "bits.txt", "0110" * 50)
    assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    assert len(calls) == 1


def test_console_script_installed(tmp_path):
    import shutil

    exe = shutil.which("branchtrace")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "trace", "6"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["trace"] == "LRLRLLLL"
