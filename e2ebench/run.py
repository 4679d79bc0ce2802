#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bfforms CLI.

Run from the root of a bfforms checkout:

    python3 e2ebench/run.py --workload sweep4 --seed 1 --seconds 10 --trace 0

Workloads (README.md): ``sweep4`` (exhaustive n=4 sweep), ``sample5``
(seeded n=5 sample), ``analyze6`` (single-function n=6 requests).  The
requests run in a fresh worker process (worker.py) with the pure-Python
kernel and ``--jobs 1``.  Set-up is timed on that process and on
``SETUP_PROBES`` more that stop after set-up, half before it and half after.  After the timed region every
output is checked by oracles.py.  With ``--trace 1`` a second, traced
worker records spans and the per-layer figures replace the end-to-end
ones.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads as wl  # noqa: E402

OUT_ROOT = Path(".e2ebench-out")
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run or measure the workload."""


def _env() -> dict:
    env = dict(os.environ)
    env.update(
        BFFORMS_PURE="1",
        BFFORMS_GUARD_SECS=str(wl.GUARD_SECS),
        PYTHONHASHSEED="0",
    )
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run worker.py; return (set-up seconds, result of the run)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env())
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the run limit: {' '.join(args)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {' '.join(args)}")
    out = Path(args[args.index("--out") + 1])
    result_path = out / "result.json"
    return setup, json.loads(result_path.read_text()) if result_path.exists() else None


def probe_setup(common: list[str], out: Path, deadline: float) -> float:
    """Set-up time of one worker that stops after making its inputs."""
    setup, _ = start_worker(common + ["--out", str(out), "--setup-only"], deadline)
    return setup


def check_outputs(workload: str, seed: int, result: dict) -> tuple[int, int, list[str]]:
    """Check every output of one worker run: (attempted, failed, problems)."""
    attempted = failed = 0
    problems: list[str] = []
    first_report = None
    brute = set()
    if workload == "analyze6":
        pool = oracles.splitmix64_sample(wl.ANALYZE_N, wl.ANALYZE_POOL_SIZE, wl.ANALYZE_POOL_SEED)
        total = len(result["rounds"]) * wl.ANALYZE_POOL_SIZE
        brute = set(random.Random(f"brute/{seed}").sample(range(total), wl.BRUTE_REPLIES))
    position = 0
    for rnd in result["rounds"]:
        for req in rnd["requests"]:
            attempted += 1
            position += 1
            if req["rc"] != 0:
                failed += 1
                if req["rc"] != 3:  # only a guard abort is an expected failure
                    problems.append(f"{workload}: request exited {req['rc']}")
                continue
            try:
                if workload == "analyze6":
                    oracles.check_analyze_reply(
                        wl.ANALYZE_N,
                        pool[req["pos"]],
                        req["criterion"],
                        json.loads(req["stdout"]),
                        brute=position - 1 in brute,
                    )
                elif first_report is None:
                    first_report = Path(req["report"])
                    if workload == "sweep4":
                        n, indices, sampled = wl.SWEEP_N, list(range(1 << (1 << wl.SWEEP_N))), None
                    else:
                        n = wl.SAMPLE_N
                        indices = oracles.splitmix64_sample(n, wl.SAMPLE_COUNT, seed)
                        sampled = {"count": wl.SAMPLE_COUNT, "seed": seed}
                    oracles.check_report_dir(
                        first_report, n, indices, sampled, wl.BRUTE_RECORDS[workload], seed
                    )
                else:
                    oracles.check_same_reports(first_report, Path(req["report"]))
            except (oracles.OracleError, KeyError, ValueError, TypeError) as exc:
                problems.append(f"{workload}: {type(exc).__name__}: {exc}")
    return attempted, failed, problems


def layer_unit(name: str) -> str:
    if name.endswith("fn_per_s"):
        return "1/s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_s") or name.endswith("_s_total"):
        return "s"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        # Half the set-up probes run before the measured worker and half
        # after, so their median spans the run rather than one moment.
        probes = 0 if args.trace else SETUP_PROBES
        setups = [probe_setup(common, run_dir / f"setup{k}", deadline) for k in range(probes // 2)]
        setup, result = start_worker(common + ["--out", str(run_dir / "main")], deadline)
        setups.append(setup)
        setups += [probe_setup(common, run_dir / f"setup{k}", deadline) for k in range(probes // 2, probes)]
        attempted, failed, problems = check_outputs(args.workload, args.seed, result)

        rounds = result["rounds"]
        walls = [r["wall_s"] for r in rounds]
        latencies = [lat for r in rounds for lat in r["latencies"]]
        if args.trace:
            _, traced = start_worker(common + ["--out", str(run_dir / "traced"), "--trace"], deadline)
            _, _, traced_problems = check_outputs(args.workload, args.seed, traced)
            problems += traced_problems
            layers = dict(traced["layers"])
            layers["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced["rounds"]) - statistics.median(walls)
            )
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
            keep = OUT_ROOT / f"trace-{args.workload}"
            shutil.rmtree(keep, ignore_errors=True)
            keep.mkdir()
            for name in ("spans.csv", "layers.txt"):
                shutil.move(str(run_dir / "traced" / name), keep / name)
        else:
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "fn_per_s": {"value": sum(r["functions"] for r in rounds) / sum(walls), "unit": "1/s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "latency_p50_ms": {"value": 1000.0 * wl.percentile(latencies, 50), "unit": "ms"},
                "latency_p95_ms": {"value": 1000.0 * wl.percentile(latencies, 95), "unit": "ms"},
            }
        for problem in problems:
            print(f"e2ebench: {problem}", file=sys.stderr)
        print(
            f"e2ebench: {args.workload} seed={args.seed} backend={result['backend']} "
            f"rounds={len(rounds)} setup_runs={len(setups)}",
            file=sys.stderr,
        )
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src", "bfforms", "cli.py").is_file():
        print("e2ebench: no bfforms source under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
