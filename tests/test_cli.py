import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bfforms import cli

DATA = Path(__file__).parent / "data"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "bfforms", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def main_code(*args) -> int:
    """Exit code of ``cli.main`` on ``args``, run in this process."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(args))


def test_analyze_or2_text():
    result = run_cli("analyze", "--n", "2", "--tt", "E")
    assert result.returncode == 0
    assert "cfr: x2 + x1" in result.stdout
    assert "'s_ad': 2" in result.stdout
    assert "labels:" in result.stdout


def test_analyze_hex_prefix_and_case():
    plain = run_cli("analyze", "--n", "2", "--tt", "e")
    prefixed = run_cli("analyze", "--n", "2", "--tt", "0xE")
    assert plain.returncode == prefixed.returncode == 0
    assert plain.stdout == prefixed.stdout


def test_analyze_json_schema():
    result = run_cli("analyze", "--n", "3", "--tt", "0x96", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["schema"] == "bfforms.analyze/1"
    assert payload["forms"]["rm"]["cost"]["s_ad"] == 3
    assert payload["forms"]["cfr"]["cost"]["s_ad"] == 4
    assert payload["labels"]["s_s"] == "RM"


def test_analyze_csv_format():
    result = run_cli("analyze", "--n", "2", "--tt", "E", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "record,field,value"
    assert "cost,cfr.s_ad,2" in lines


def test_analyze_from_pla_output_column():
    result = run_cli(
        "analyze", "--n", "2", "--pla", str(DATA / "two_out.pla"), "--output", "1"
    )
    assert result.returncode == 0
    assert "cfr: x1*x2" in result.stdout


def test_usage_errors_exit_1(tmp_path, monkeypatch):
    assert run_cli().returncode == 1
    assert run_cli("analyze", "--n", "2").returncode == 1
    assert run_cli("analyze", "--n", "2", "--tt", "E", "--criterion", "x").returncode == 1
    assert run_cli("analyze", "--n", "9", "--tt", "E").returncode == 1
    assert run_cli("sweep", "--n", "9", "--out", "/tmp/x").returncode == 1
    # Integer options take ASCII digits after an optional '-', nothing else.
    for n in (" 2", "\uff12", "+2", "2_0"):
        assert main_code("analyze", "--n", n, "--tt", "E") == 1, n
    # --count below 1 and --seed outside 0..2**64-1 are usage errors too, and
    # an empty --out, which named the working directory.
    monkeypatch.chdir(tmp_path)
    for option, value in (("--count", "1_0"), ("--count", "0"), ("--count", "-3"),
                          ("--seed", str(1 << 64)), ("--seed", "-1"), ("--seed", " 1"),
                          ("--jobs", "+1"), ("--out", "")):
        argv = {"--count": "10", "--seed": "1", "--out": "report", option: value}
        args = [t for kv in argv.items() for t in kv]
        assert main_code("sample", "--n", "3", *args) == 1, (option, value)
    assert main_code("sweep", "--n", "1", "--out", "") == 1
    assert list(tmp_path.iterdir()) == []


def test_jobs_below_one_exits_1(tmp_path):
    out = str(tmp_path / "report")
    for jobs in ("0", "-2"):
        sample = run_cli("sample", "--n", "3", "--count", "10", "--seed", "1",
                         "--out", out, "--jobs", jobs)
        assert sample.returncode == 1
        assert "jobs" in sample.stderr
        assert run_cli("sweep", "--n", "2", "--out", out, "--jobs", jobs).returncode == 1
    assert not (tmp_path / "report").exists()


def test_input_format_errors_exit_2(tmp_path):
    bad_hex = run_cli("analyze", "--n", "2", "--tt", "zz")
    assert bad_hex.returncode == 2
    # --tt is ASCII hex after an optional 0x; int(text, 16) took all of these.
    for text in (" 8 ", "-0", "+e", "\uff11", "0x", "1_0"):
        assert main_code("analyze", "--n", "2", "--tt", text) == 2, text
    two_out = str(DATA / "two_out.pla")
    assert main_code("analyze", "--n", "2", "--pla", two_out, "--output", "-1") == 2
    out_of_range = run_cli("analyze", "--n", "1", "--tt", "FFFF")
    assert out_of_range.returncode == 2
    bad = tmp_path / "bad.pla"
    bad.write_text(".i 2\n.o 1\n111 1\n.e\n")
    result = run_cli("analyze", "--n", "2", "--pla", str(bad))
    assert result.returncode == 2
    assert "line 3" in result.stderr
    missing = run_cli("analyze", "--n", "2", "--pla", str(tmp_path / "nope.pla"))
    assert missing.returncode == 2


def test_file_errors_exit_2(tmp_path):
    # An --out that is a file and a --pla that is a directory used to escape
    # main as FileExistsError and IsADirectoryError.
    taken = tmp_path / "taken"
    taken.write_text("")
    results = [
        run_cli("sweep", "--n", "2", "--out", str(taken)),
        run_cli("analyze", "--n", "2", "--pla", str(tmp_path)),
        run_cli("convert", "--pla", str(tmp_path), "--form", "rm"),
    ]
    for result in results:
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr


def test_non_utf8_pla_exits_2(tmp_path):
    pla = tmp_path / "latin1.pla"
    pla.write_bytes(b".i 2\n.o 1\n# caf\xe9\n11 1\n.e\n")
    for args in (("analyze", "--n", "2", "--pla", str(pla)),
                 ("convert", "--pla", str(pla), "--form", "cfr")):
        result = run_cli(*args)
        assert result.returncode == 2, result.stderr
        assert "not UTF-8" in result.stderr


def test_pla_output_count_outside_range_exits_2(tmp_path):
    # .o 0 used to print nothing and exit 0; a huge .o raised MemoryError.
    for outputs in (0, 10**12):
        pla = tmp_path / f"o{outputs}.pla"
        pla.write_text(f".i 2\n.o {outputs}\n.e\n")
        result = run_cli("convert", "--pla", str(pla), "--form", "cfr")
        assert result.returncode == 2, result.stderr
        assert f".o {outputs} is outside 1..1024" in result.stderr


def test_nan_guard_exits_1():
    # On a slow function a NaN guard used to let the search run unbounded;
    # this one is fast, so the test cannot hang either way.
    import os

    for text in ("nan", "NaN"):
        env = dict(os.environ, BFFORMS_GUARD_SECS=text)
        result = run_cli("analyze", "--n", "2", "--tt", "E", env=env)
        assert result.returncode == 1, result.stderr
        assert "BFFORMS_GUARD_SECS is NaN" in result.stderr


def test_convert_rejects_input_count_outside_1_to_6(tmp_path):
    # A .i 22 file with one all-dash row used to expand 2**22 rows and ran
    # for minutes; .i 7 exited 1.  Both are input format errors.
    for inputs in (22, 7):
        pla = tmp_path / f"wide{inputs}.pla"
        pla.write_text(f".i {inputs}\n.o 1\n{'-' * inputs} 1\n.e\n")
        result = subprocess.run(
            [sys.executable, "-m", "bfforms", "convert", "--pla", str(pla),
             "--form", "cfr"],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 2, result.stderr
        assert f".i {inputs} is outside 1..6" in result.stderr


def test_guard_abort_exits_3(monkeypatch):
    import os

    env = dict(os.environ, BFFORMS_GUARD_SECS="0")
    result = run_cli("analyze", "--n", "3", "--tt", "E8", env=env)
    assert result.returncode == 3
    assert "guard" in result.stderr


def test_sweep_writes_reports(tmp_path):
    out = tmp_path / "report"
    result = run_cli("sweep", "--n", "2", "--out", str(out))
    assert result.returncode == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "losses.csv",
        "records.csv",
        "rei.csv",
        "summary.json",
        "weights.csv",
    ]
    assert result.stdout == ""  # data goes to files, diagnostics to stderr


def test_sample_flagged_and_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        result = run_cli(
            "sample", "--n", "3", "--count", "200", "--seed", "77", "--out", str(out)
        )
        assert result.returncode == 0
    for name in ("records.csv", "rei.csv", "weights.csv", "losses.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    meta = json.loads((a / "summary.json").read_text())["meta"]
    assert meta["sampled"] is True
    assert meta["seed"] == 77
    stderr_column = (a / "weights.csv").read_text().splitlines()[0]
    assert stderr_column == "criterion,label,weight,stderr"


def test_convert_cfr_emits_pla(tmp_path):
    result = run_cli("convert", "--pla", str(DATA / "xor3.pla"), "--form", "cfr")
    assert result.returncode == 0
    assert "cfr:" in result.stdout
    assert ".i 3" in result.stdout and ".e" in result.stdout


def test_convert_rm_best_and_fixed():
    best = run_cli("convert", "--pla", str(DATA / "or2.pla"), "--form", "rm")
    assert best.returncode == 0
    assert "rm (polarity=3): 1 ^ ~x1*~x2" in best.stdout
    fixed = run_cli(
        "convert", "--pla", str(DATA / "or2.pla"), "--form", "rm", "--polarity", "0"
    )
    assert "rm (polarity=0): x2 ^ x1 ^ x1*x2" in fixed.stdout
    bad = run_cli(
        "convert", "--pla", str(DATA / "or2.pla"), "--form", "rm", "--polarity", "9"
    )
    assert bad.returncode == 2
    # --polarity is ASCII decimal; int(text) took all of these.
    for polarity in (" +1", "1_0", "\uff11"):
        argv = ("convert", "--pla", str(DATA / "or2.pla"), "--form", "rm", "--polarity")
        assert main_code(*argv, polarity) == 2, polarity


def test_convert_afr():
    result = run_cli("convert", "--pla", str(DATA / "xor2.pla"), "--form", "afr",
                     "--polarity", "0")
    assert result.returncode == 0
    assert "x2 + x1 - 2*x1*x2" in result.stdout


def test_pla_warnings_on_stderr():
    result = run_cli("analyze", "--n", "2", "--pla", str(DATA / "labels.pla"))
    assert result.returncode == 0
    assert "labels ignored" in result.stderr
    assert "labels ignored" not in result.stdout


@pytest.mark.parametrize("pure, jobs", [("0", "1"), ("1", "2")])
def test_out_of_memory_exits_3(tmp_path, pure, jobs):
    # 10**8 draws do not fit under a 150 MB address-space limit, set on the
    # child process only: an error line and exit 3, not a traceback.
    import os
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (150 * 2**20, 150 * 2**20))

    env = dict(os.environ)
    if pure == "1":
        env["BFFORMS_PURE"] = "1"
    else:
        env.pop("BFFORMS_PURE", None)
    argv = ["sample", "--n", "3", "--count", "100000000", "--seed", "1",
            "--jobs", jobs, "--out", str(tmp_path / "out")]
    result = subprocess.run(
        [sys.executable, "-m", "bfforms", *argv],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=limit_memory,
    )
    assert result.returncode == 3, result.stderr
    assert result.stderr == "error: out of memory\n"
