"""Golden digests of the ``bfforms analyze`` and ``convert`` output.

Each digest is the sha256 of the concatenated stdout of a list of
in-process ``cli.main`` calls, each of which must exit 0.  The sets, named
as in ``tests/data/golden_cli.sha256``:

* ``analyze_<format>_<criterion>``: ``analyze --tt`` for every function of
  n = 1, 2 and 3 in index order, one digest per format and criterion;
* ``analyze6_pool_json_<criterion>``: ``analyze --n 6 --format json`` for
  the 80 draws of ``sample_uniform(6, 80, seed=11)``, the analyze6
  benchmark pool;
* ``pool_pla``: for the first eight pool draws, written as PLA files with
  one minterm cube per on-set row, ``analyze --pla --format json`` and
  ``convert`` to each form, at the best and at a fixed polarity;
* ``data_pla``: ``convert`` to each form for every PLA file in
  ``tests/data``, in name order.

Recorded before the Reed-Muller and arithmetic forms moved to one shared
butterfly, so the digests pin the output of the separate transforms.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from bfforms import cli
from bfforms.costs import CRITERIA
from bfforms.truthtable import sample_uniform

DATA = Path(__file__).parent / "data"
GOLDEN_CLI = DATA / "golden_cli.sha256"
FORMATS = ("json", "text", "csv")
POOL = sample_uniform(6, 80, seed=11)
POOL_PLA_COUNT = 8


def read_golden() -> dict[str, str]:
    expected = {}
    for line in GOLDEN_CLI.read_text().splitlines():
        if line and not line.startswith("#"):
            digest, name = line.split()
            expected[name] = digest
    return expected


def digest(runs) -> str:
    """sha256 of the stdout of each ``cli.main(argv)`` in ``runs``."""
    h = hashlib.sha256()
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code == 0, argv
        h.update(out.getvalue().encode())
    return h.hexdigest()


def analyze_small_runs(fmt: str, criterion: str):
    for n in (1, 2, 3):
        for index in range(1 << (1 << n)):
            yield ["analyze", "--n", str(n), "--tt", format(index, "x"),
                   "--criterion", criterion, "--format", fmt]


def analyze_pool_runs(criterion: str):
    for index in POOL:
        yield ["analyze", "--n", "6", "--tt", format(index, "x"),
               "--criterion", criterion, "--format", "json"]


def minterm_pla(n: int, index: int) -> str:
    rows = [format(r, f"0{n}b") + " 1" for r in range(1 << n) if index >> r & 1]
    return "\n".join([f".i {n}", ".o 1", *rows, ".e"]) + "\n"


def convert_runs(path: Path):
    for form in ("cfr", "rm", "afr"):
        yield ["convert", "--pla", str(path), "--form", form]
    for form in ("rm", "afr"):
        yield ["convert", "--pla", str(path), "--form", form, "--polarity", "1"]


def pool_pla_runs(directory: Path):
    for position, index in enumerate(POOL[:POOL_PLA_COUNT]):
        path = directory / f"pool{position}.pla"
        path.write_text(minterm_pla(6, index))
        yield ["analyze", "--n", "6", "--pla", str(path), "--format", "json"]
        yield from convert_runs(path)


def data_pla_runs():
    for path in sorted(DATA.glob("*.pla")):
        yield from convert_runs(path)


@pytest.fixture(scope="module")
def golden():
    return read_golden()


def test_golden_file_names_every_set(golden):
    names = {f"analyze_{f}_{c}" for f in FORMATS for c in CRITERIA}
    names |= {f"analyze6_pool_json_{c}" for c in CRITERIA}
    names |= {"pool_pla", "data_pla"}
    assert golden.keys() == names


@pytest.mark.parametrize("fmt", FORMATS)
def test_analyze_small_functions_match_golden(golden, fmt):
    for criterion in CRITERIA:
        name = f"analyze_{fmt}_{criterion}"
        assert digest(analyze_small_runs(fmt, criterion)) == golden[name], name


def test_analyze6_pool_matches_golden(golden):
    for criterion in CRITERIA:
        name = f"analyze6_pool_json_{criterion}"
        assert digest(analyze_pool_runs(criterion)) == golden[name], name


def test_pla_runs_match_golden(golden, tmp_path):
    assert digest(pool_pla_runs(tmp_path)) == golden["pool_pla"]
    assert digest(data_pla_runs()) == golden["data_pla"]
