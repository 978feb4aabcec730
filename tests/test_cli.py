"""End-to-end runs of the installed command-line interface.

Every invocation goes through a real subprocess so argument parsing,
exit codes, stdout/stderr routing, and file outputs are all exercised
exactly as a user sees them.
"""

import io
import json
import subprocess
import sys

import pytest

from branchtrace import cli, collatz

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


@pytest.mark.parametrize("rows", [0, 1, 3])
@pytest.mark.parametrize("indent", [0, 2])
def test_json_row_writer_lays_out_like_json_dumps(rows, indent):
    # In-process, because no CLI range yields an empty "records" list.
    records = [{"n": str(n), "b_bits": str(n.bit_length())} for n in range(1, rows + 1)]
    blocks = [
        ([r["n"] for r in part], [r["b_bits"] for r in part])
        for part in (records[:1], records[1:]) if part
    ]
    out = io.StringIO()
    cli._write_json_rows(out.write, ("n", "b_bits"), blocks, indent)
    if indent == 0:
        want = json.dumps(records, indent=2)
    else:
        want = json.dumps({"records": records}, indent=2)
        want = want[len('{\n  "records": '):-len("\n}")]
    assert out.getvalue() == want


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


# ---------------------------------------------------------------- rule30


def test_rule30_golden_pbm(tmp_path, golden_dir):
    out = tmp_path / "t.pbm"
    proc = run("rule30", "--init", "single", "--steps", "4", "--pbm", out)
    assert proc.returncode == 0
    assert out.read_bytes() == (golden_dir / "rule30_single_4.pbm").read_bytes()


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


def test_rule30_center_matches_pbm_column(tmp_path):
    pbm = tmp_path / "g.pbm"
    center = tmp_path / "c.txt"
    proc = run(
        "rule30", "--init", "random", "--width", "9", "--seed", "3",
        "--steps", "6", "--pbm", pbm, "--center", center,
    )
    assert proc.returncode == 0
    rows = pbm.read_text().splitlines()[2:]
    middle = [row.split()[4] for row in rows]
    assert center.read_text().splitlines() == middle


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


def test_console_script_installed(tmp_path):
    import shutil

    exe = shutil.which("branchtrace")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "trace", "6"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["trace"] == "LRLRLLLL"
