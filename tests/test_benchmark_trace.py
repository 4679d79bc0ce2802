"""The benchmark's trace mode against the current package.

``e2ebench/tracer.py`` wraps package functions by name, so a rename or a
deletion in ``src/`` breaks ``e2ebench/run.py --trace 1`` without failing
any other test.  This runs the tracer in a child process on the pure
kernel, the backend the benchmark measures.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import contextlib, io, json, sys, tempfile
sys.path[:0] = [{e2ebench!r}, {src!r}]
import tracer
from bfforms import cli

t = tracer.Tracer()
tracer.install(t)
codes = []
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["sweep", "--n", "2", "--out", out]))
    codes.append(cli.main(["analyze", "--n", "3", "--tt", "e8", "--format", "json"]))
print(json.dumps({{"codes": codes, "layers": tracer.layer_metrics(t)}}))
"""


def test_tracer_runs_sweep_and_analyze_on_pure_kernel():
    code = CHILD.format(e2ebench=str(ROOT / "e2ebench"), src=str(ROOT / "src"))
    env = dict(os.environ, BFFORMS_PURE="1")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["layers"]["kernels.analyze_batch_s"] > 0
    assert report["layers"]["sop.minimize_sop_s_total"] > 0
