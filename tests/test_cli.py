import contextlib
import io
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfforms import cli, kernels
from bfforms.costs import CRITERIA
from conftest import kernel_backends

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
    # A repeated .i used to exit 1 with a cube-width ValueError out of
    # truth_tables.
    bad.write_text(".i 2\n.o 1\n11 1\n.i 3\n111 1\n.e\n")
    result = run_cli("convert", "--pla", str(bad), "--form", "cfr")
    assert result.returncode == 2
    assert result.stderr == "error: line 4: repeated .i directive\n"
    missing = run_cli("analyze", "--n", "2", "--pla", str(tmp_path / "nope.pla"))
    assert missing.returncode == 2
    # --form cfr used to accept any --polarity; it is checked under every form.
    and2 = str(DATA / "and2.pla")
    for polarity, message in (("abc", "--polarity must be an integer or 'best'"),
                              ("99", "--polarity 99 out of range for n=2")):
        result = run_cli("convert", "--pla", and2, "--form", "cfr", "--polarity", polarity)
        assert result.returncode == 2
        assert result.stderr == f"error: {message}\n"


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


def test_non_numeric_guard_exits_1_and_names_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("BFFORMS_GUARD_SECS", "abc")
    assert cli.main(["analyze", "--n", "2", "--tt", "6"]) == 1
    err = capsys.readouterr().err
    assert err == "error: BFFORMS_GUARD_SECS is 'abc', not a number of seconds\n"


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


def test_zero_cost_sample_exits_1_and_writes_no_directory(tmp_path, capsys):
    # Seed 3 draws only the constant-0 function at n=1, count 1: every cost
    # is zero, so the literal efficiency index is undefined.
    out = tmp_path / "report"
    argv = ["sample", "--n", "1", "--count", "1", "--seed", "3", "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: degenerate s_mm: every cost is zero under the literal variant\n"
    assert not out.exists()


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


# Non-ASCII characters that str.isdigit accepts: superscript two, fullwidth
# two, Arabic-Indic three and circled one.
NON_ASCII_DIGITS = ("²", "２", "٣", "①")
LINE = st.integers(0, 63)
PLA_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), LINE),
    st.tuples(st.just("swap"), LINE, LINE),
    st.tuples(st.just("duplicate"), LINE),
    st.tuples(st.just("repeat"), LINE, st.integers(1, 3), LINE),
    st.tuples(st.just("digit"), LINE, st.sampled_from(NON_ASCII_DIGITS)),
    st.tuples(st.just("flip"), st.integers(0, 4095), st.integers(0, 7)),
)


def mutate_pla(data: bytes, ops) -> bytes:
    """Apply line and byte mutations, each index taken modulo its range."""
    for op, *args in ops:
        if op == "flip":
            at, bit = args
            flipped = bytearray(data)
            if flipped:
                flipped[at % len(flipped)] ^= 1 << bit
            data = bytes(flipped)
            continue
        lines = data.split(b"\n")
        if op == "drop":
            del lines[args[0] % len(lines)]
        elif op == "swap":
            i, j = (a % len(lines) for a in args)
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "duplicate":
            i = args[0] % len(lines)
            lines.insert(i, lines[i])
        elif op in ("repeat", "digit"):
            # Both act on a .i, .o or .p line with its integer.
            numbered = [
                (i, m) for i, line in enumerate(lines)
                if (m := re.match(rb"(\.[iop])\s+([0-9]+)", line))
            ]
            if not numbered:
                continue
            i, m = numbered[args[0] % len(numbered)]
            if op == "repeat":
                # The same directive again, with a larger value.
                shift, at = args[1:]
                again = b"%s %d" % (m[1], int(m[2]) + shift)
                lines.insert(at % (len(lines) + 1), again)
            else:
                digit = args[1].encode()
                lines[i] = lines[i][: m.start(2)] + digit + lines[i][m.end(2) :]
        data = b"\n".join(lines)
    return data


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    """One file that each example overwrites."""
    return tmp_path_factory.mktemp("mutants") / "mutant.pla"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    source=st.sampled_from(sorted(DATA.glob("*.pla"))),
    ops=st.lists(PLA_MUTATIONS, min_size=1, max_size=3),
)
def test_mutated_pla_keeps_the_exit_contract(mutant_path, source, ops):
    # Exit 0, 2 (a bad file) or 3 (the guard), never 1 or an exception; a
    # failure ends stderr with its one error line.
    mutant_path.write_bytes(mutate_pla(source.read_bytes(), ops))
    out, err = io.StringIO(), io.StringIO()
    with (
        pytest.MonkeyPatch.context() as patch,
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        patch.setenv("BFFORMS_GUARD_SECS", "0.5")
        code = cli.main(["convert", "--pla", str(mutant_path), "--form", "cfr"])
    assert code in (0, 2, 3), err.getvalue()
    lines = err.getvalue().splitlines()
    if code:
        assert lines[-1].startswith("error: ")
        assert sum(line.startswith("error:") for line in lines) == 1


# Option values.  Each option takes a valid-looking value three times in
# four and a hostile one otherwise, so that many examples get past the
# parser.  Path options take only paths, resolved per example by
# ``resolve_path``: a missing path, a directory or an empty file under the
# test's directory, or a file in tests/data.  ``--count`` and ``--jobs``
# take the hostile text that is no integer, and as integers only -1 to 2,
# so that no example draws more than 2 functions or starts a worker.
HOSTILE = ("", " 2", "+2", "１", "-0", "nan", "inf", str(1 << 64), str(-(1 << 64)),
           "0x", "é", "名前")
INTEGERS = ("0", "1", "3", "6")
TEXT = ("1", "6", "E8", "0xE8", "best")
DATA_FILES = tuple(sorted(p.name for p in DATA.glob("*.pla")))


def option_values(action) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(valid-looking, hostile) values of one option of a subparser."""
    if action.dest == "pla":
        return DATA_FILES, ("<missing>", "<dir>", "<empty>")
    if action.dest == "out":
        return ("<missing>", "<dir>"), ("<empty>",) + DATA_FILES
    if action.dest in ("count", "jobs"):
        return ("1", "2"), ("-1", "0") + tuple(
            v for v in HOSTILE if not re.fullmatch(cli._DECIMAL, v)
        )
    valid = tuple(map(str, action.choices or ()))
    return valid or (INTEGERS if action.type is cli._decimal else TEXT), HOSTILE


def subcommand_options():
    """{subcommand: [(option, dest, required, values)]}, read from the parser."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return {
        name: [
            (action.option_strings[0], action.dest, action.required, option_values(action))
            for action in subparser._actions
            if action.dest != "help"
        ]
        for name, subparser in sub.choices.items()
    }


SUBCOMMAND_OPTIONS = subcommand_options()


@st.composite
def cli_argv(draw):
    """An argv of one subcommand, or a top-level flag, or nothing at all."""
    name = draw(st.sampled_from(sorted(SUBCOMMAND_OPTIONS) + ["--help", "--version", ""]))
    if name not in SUBCOMMAND_OPTIONS:
        return [name] if name else []
    # Hypothesis favours the ends of its ranges, even in st.randoms; a
    # Random seeded from the draw gives the weights stated above.
    rnd = random.Random(draw(st.integers(0, 2**32)))
    argv = [name]
    for option, dest, required, (valid, hostile) in SUBCOMMAND_OPTIONS[name]:
        # --count defaults to 65,536 draws, so it is always given.  Other
        # options are given in 9 of 10 examples if required, else in half.
        if dest == "count" or rnd.random() < (0.9 if required else 0.5):
            argv += [option, rnd.choice(hostile if rnd.random() < 0.25 else valid)]
    if rnd.random() < 0.05:
        argv.append("--help")
    return argv


@pytest.fixture(scope="module")
def path_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("argv")
    (base / "dir").mkdir()
    (base / "empty").write_bytes(b"")
    return base


def resolve_path(base: Path, value: str) -> str:
    if value == "<missing>":
        # A new name each time: sweep and sample create their --out.
        return str(base / f"missing{len(list(base.iterdir()))}")
    if value in ("<dir>", "<empty>"):
        return str(base / value[1:-1])
    if value in DATA_FILES:
        return str(DATA / value)
    return value


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argv=cli_argv())
def test_argv_keeps_the_exit_contract(path_dir, argv):
    # Exit 0 to 3 and no exception; a failure ends stderr with its one
    # error line and creates no missing --out.  --help and --version leave
    # through SystemExit(0).
    argv = [resolve_path(path_dir, v) for v in argv]
    before = set(path_dir.iterdir())
    out, err = io.StringIO(), io.StringIO()
    with (
        pytest.MonkeyPatch.context() as patch,
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        # Nothing is written to a relative path, but if it were, it would
        # land here.
        patch.chdir(path_dir)
        patch.setenv("BFFORMS_GUARD_SECS", "0.5")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 0, err.getvalue()
            code = 0
    assert code in (0, 1, 2, 3), err.getvalue()
    lines = err.getvalue().splitlines()
    if code:
        assert lines[-1].startswith("error:"), err.getvalue()
        assert sum(line.startswith("error:") for line in lines) == 1, err.getvalue()
        assert set(path_dir.iterdir()) == before


BACKENDS = kernel_backends()


@st.composite
def analyze_json_argv(draw):
    n = draw(st.integers(1, 6))
    index = draw(st.integers(0, (1 << (1 << n)) - 1))
    criterion = draw(st.sampled_from(CRITERIA))
    return ["analyze", "--n", str(n), "--tt", f"{index:x}", "--criterion", criterion,
            "--format", "json"]  # fmt: skip


# Only without a C compiler: tests/conftest.py builds the kernel otherwise.
@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled kernels not built")
@settings(derandomize=True, max_examples=60, deadline=None)
@given(argv=analyze_json_argv())
def test_analyze_json_is_the_same_on_both_twins(argv):
    replies = []
    for impl in BACKENDS:
        out = io.StringIO()
        with (
            pytest.MonkeyPatch.context() as patch,
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(io.StringIO()),
        ):
            patch.setattr(kernels, "_impl", impl)
            replies.append((cli.main(argv), out.getvalue()))
    assert replies[0] == replies[1], argv
