"""What each entry point imports, and the names it imports on first use.

The package, ``bfforms.cli`` and ``bfforms.analysis`` bind names from
their ``_LAZY`` tables on first use (PEP 562 module ``__getattr__``), so a
command loads only the modules it runs.  The children here start fresh on
each kernel backend and report the ``bfforms`` modules loaded when their
entry point returns.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import bfforms
from bfforms import analysis, cli
from conftest import ROOT, kernel_backends
from test_package import REMOVED

BACKENDS = [impl.BACKEND for impl in kernel_backends()]

# ``bfforms`` with ``argv``, run as ``python -m bfforms`` runs it.
COMMAND = """
import runpy, sys
sys.argv = ["bfforms", *{argv!r}]
try:
    runpy.run_module("bfforms", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    rc = exc.code
"""
REPORT = """
loaded = sorted(m for m in sys.modules if m.startswith("bfforms."))
from bfforms import kernels
print(json.dumps({"rc": rc, "loaded": loaded, "backend": kernels.BACKEND}))
"""

# (entry point, its code, modules it must not load, modules it must load);
# ``import bfforms`` must load none at all.
ENTRY_POINTS = [
    ("import bfforms", "import bfforms\nrc = 0", set(), set()),
    (
        "from bfforms import cli",
        "from bfforms import cli\nrc = 0",
        {"analysis", "reports", "sop", "pla", "arith", "reedmuller", "npclasses",
         "_sop_planes"},
        {"cli"},
    ),
    (
        "sweep --n 2",
        COMMAND.format(argv=["sweep", "--n", "2", "--out", "{out}"]),
        {"sop", "pla", "arith", "reedmuller"},
        {"analysis", "npclasses", "reports"},
    ),
    (
        "sample --n 3 --count 8 --seed 1",
        COMMAND.format(argv=["sample", "--n", "3", "--count", "8", "--seed", "1",
                             "--out", "{out}"]),
        {"sop", "pla", "arith", "reedmuller"},
        {"analysis", "reports"},
    ),
    (
        "analyze --n 3 --tt e8",
        COMMAND.format(argv=["analyze", "--n", "3", "--tt", "e8"]),
        {"reports", "reference", "npclasses", "_sop_planes"},
        {"analysis", "sop", "arith", "reedmuller"},
    ),
]  # fmt: skip


def run_child(code: str, backend: str = "pure") -> str:
    """Stdout of ``code`` in a fresh process on the ``backend`` kernel."""
    env = dict(os.environ)
    env.pop("BFFORMS_PURE", None)
    if backend == "pure":
        env["BFFORMS_PURE"] = "1"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "entry, code, unloaded, loaded", ENTRY_POINTS, ids=[e[0] for e in ENTRY_POINTS]
)
def test_entry_point_loads_only_what_it_runs(entry, code, unloaded, loaded, backend, tmp_path):
    code = "import json, sys\n" + code.replace("{out}", str(tmp_path)) + REPORT
    report = json.loads(run_child(code, backend).splitlines()[-1])
    assert report["rc"] == 0 and report["backend"] == backend
    modules = {name.removeprefix("bfforms.") for name in report["loaded"]}
    assert not modules & unloaded, entry
    assert loaded <= modules, entry
    if entry == "import bfforms":
        assert not modules


@pytest.mark.parametrize("module", [bfforms, cli, analysis], ids=lambda m: m.__name__)
def test_every_lazy_name_resolves_to_its_home(module):
    for home, names in module._LAZY.items():
        source = importlib.import_module(f"bfforms.{home}")
        for name in names:
            assert module.__getattr__(name) is getattr(source, name), name
            assert getattr(module, name) is getattr(source, name), name


@pytest.mark.parametrize("module", [bfforms, cli, analysis], ids=lambda m: m.__name__)
def test_unknown_names_raise_attribute_error(module):
    for name in ("no_such_name", "no.such.name", *REMOVED):
        with pytest.raises(AttributeError, match=name.replace(".", r"\.")):
            module.__getattr__(name)
        assert not hasattr(module, name), name


def test_package_attributes_name_submodules_and_dir_lists_exports():
    assert bfforms.__getattr__("reference") is importlib.import_module("bfforms.reference")
    assert set(bfforms.__all__) | {"__version__"} <= set(dir(bfforms))
    assert len(bfforms.__all__) == 53


def test_wrappers_set_before_the_first_call_are_called(tmp_path):
    # e2ebench/tracer.py wraps these names at the module attribute each
    # caller looks them up by, before any command has run.
    targets = {
        "cli": ["sweep", "sampled_sweep", "analyze_function", "write_sweep_reports",
                "parse_pla", "truth_tables"],
        "analysis": ["minimize_sop", "best_polarity", "best_arith_polarity"],
    }  # fmt: skip
    pla = ROOT / "tests" / "data" / "or2.pla"
    code = f"""
import contextlib, io
from bfforms import analysis, cli
called = set()
def wrap(module, name):
    fn = getattr(module, name)
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)
    setattr(module, name, wrapper)
for module, names in (("cli", {targets['cli']!r}), ("analysis", {targets['analysis']!r})):
    for name in names:
        wrap(globals()[module], name)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [
        cli.main(["sweep", "--n", "2", "--out", {str(tmp_path)!r}]),
        cli.main(["sample", "--n", "2", "--count", "4", "--seed", "1", "--out", {str(tmp_path)!r}]),
        cli.main(["analyze", "--n", "2", "--pla", {str(pla)!r}]),
    ]
print(codes, sorted(called))
"""
    out = run_child(code).splitlines()[-1]
    expected = sorted(targets["cli"] + targets["analysis"])
    assert out == f"[0, 0, 0] {expected}"
