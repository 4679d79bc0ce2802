"""The package's public surface: its exports and the README's library example."""

import re
from pathlib import Path

import bfforms

README = Path(__file__).resolve().parent.parent / "README.md"
# Public names deleted because no caller needed them; README lists them.
REMOVED = (
    "analyze_record",
    "complement",
    "cost_of_arith",
    "cost_of_rm",
    "evaluate",
    "tt_from_index",
)


def test_all_names_resolve_and_star_import_binds_exactly_them():
    names = bfforms.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(bfforms, name), name
    namespace = {}
    exec("from bfforms import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(names)
    for name in REMOVED:
        assert name not in names
        assert not hasattr(bfforms, name), name


def test_readme_library_snippet_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.count("\n") == snippet.count("print(")
