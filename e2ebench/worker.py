"""The measured process of one workload run (started by run.py).

It imports bfforms from ``src/`` of the current directory, generates the
workload's inputs, prints ``ready`` (run.py times set-up up to that line),
then sends requests to ``bfforms.cli.main`` one after another, a closed
loop with one client, in whole rounds until ``--seconds`` have passed.
Timings, replies and peak memory go to ``<out>/result.json``.

    python3 e2ebench/worker.py --workload analyze6 --seed 1 --seconds 10 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path("src").resolve()))

import workloads as wl  # noqa: E402
from bfforms import cli, kernels  # noqa: E402
from bfforms.truthtable import sample_uniform  # noqa: E402


def _call(argv: list[str]) -> tuple[int, float, str]:
    """One request: exit code, latency in seconds, captured stdout."""
    out = io.StringIO()
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, time.perf_counter() - start, out.getvalue()


class Workload:
    """Inputs made at set-up, and one round of requests."""

    def __init__(self, name: str, seed: int, out: Path) -> None:
        self.name = name
        self.seed = seed
        self.out = out
        if name == "analyze6":
            self.pool = sample_uniform(wl.ANALYZE_N, wl.ANALYZE_POOL_SIZE, wl.ANALYZE_POOL_SEED)
            self.pla = {}
            pla_dir = out / "pla"
            pla_dir.mkdir(parents=True)
            for pos in wl.pla_positions(seed):
                path = pla_dir / f"{pos}.pla"
                path.write_text(wl.pla_text(wl.ANALYZE_N, self.pool[pos], seed))
                self.pla[pos] = str(path)

    def round(self, round_no: int) -> dict:
        if self.name == "analyze6":
            return self._analyze_round(round_no)
        report = self.out / f"{self.name}-r{round_no}"
        if self.name == "sweep4":
            argv = ["sweep", "--n", str(wl.SWEEP_N)]
            functions = 1 << (1 << wl.SWEEP_N)
        else:
            argv = ["sample", "--n", str(wl.SAMPLE_N), "--count", str(wl.SAMPLE_COUNT),
                    "--seed", str(self.seed)]
            functions = wl.SAMPLE_COUNT
        rc, latency, _ = _call(argv + ["--out", str(report), "--jobs", "1"])
        return {
            "wall_s": latency,
            "latencies": [latency],
            "requests": [{"rc": rc, "report": str(report)}],
            "functions": functions if rc == 0 else 0,
        }

    def _analyze_round(self, round_no: int) -> dict:
        requests = []
        start = time.perf_counter()
        for pos, criterion in wl.analyze_round(self.seed, round_no):
            if pos in self.pla:
                source = ["--pla", self.pla[pos]]
            else:
                source = ["--tt", format(self.pool[pos], "x")]
            rc, latency, stdout = _call(
                ["analyze", "--n", str(wl.ANALYZE_N), *source,
                 "--criterion", criterion, "--format", "json"]
            )
            requests.append({"pos": pos, "criterion": criterion, "rc": rc,
                             "latency": latency, "stdout": stdout})
        wall = time.perf_counter() - start
        return {
            "wall_s": wall,
            "latencies": [r["latency"] for r in requests],
            "requests": requests,
            "functions": sum(1 for r in requests if r["rc"] == 0),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true", help="record spans over the fewest rounds")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    expected = Path("src", "bfforms").resolve()
    if Path(cli.__file__).resolve().parent != expected:
        print(f"bfforms imported from {cli.__file__}, not {expected}", file=sys.stderr)
        return 2
    workload = Workload(args.workload, args.seed, args.out)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    rounds = []
    min_rounds = wl.MIN_ROUNDS[args.workload]
    start = time.perf_counter()
    while len(rounds) < min_rounds or (
        not args.trace and time.perf_counter() - start < args.seconds
    ):
        rounds.append(workload.round(len(rounds)))

    result = {
        "backend": kernels.BACKEND,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(args.out / "spans.csv")
        (args.out / "layers.txt").write_text(tracing.layer_table(tracer))
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
