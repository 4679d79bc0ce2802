"""Per-layer spans recorded from outside the package.

``install`` replaces public functions of the bfforms modules with timing
wrappers, at the module attribute each caller looks the function up by
(for example ``bfforms.analysis.minimize_sop``, which ``analyze_function``
calls, not ``bfforms.sop.minimize_sop``).  Nothing under ``src/`` changes.
Each call records a span: name, start, end, parent span and outcome.  A
span's self time is its duration minus the durations of its direct
children.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from pathlib import Path

from bfforms import analysis, cli, kernels, reports, sop
from bfforms.errors import GuardTimeoutError
from workloads import percentile


class Tracer:
    def __init__(self) -> None:
        # One row per call: [name, start, end, parent id, status, child time, size]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        """Return ``fn`` wrapped so each call records a span.

        ``size(result)`` gives a count stored with the span (primes found,
        bytes written); the call's outcome is "ok", "guard" for a guard
        abort, or the exception's class name.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            row = [name, clock(), 0.0, stack[-1] if stack else -1, "ok", 0.0, None]
            spans.append(row)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except GuardTimeoutError:
                row[4] = "guard"
                raise
            except BaseException as exc:
                row[4] = type(exc).__name__
                raise
            finally:
                row[2] = clock()
                stack.pop()
                if row[3] >= 0:
                    spans[row[3]][5] += row[2] - row[1]
            if size is not None:
                row[6] = size(result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Spans as CSV, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            fh.write("id,name,start_s,end_s,parent,status,self_s,size\n")
            for sid, (name, start, end, parent, status, child, size) in enumerate(self.spans):
                fh.write(
                    f"{sid},{name},{start - t0:.6f},{end - t0:.6f},{parent},"
                    f"{status},{end - start - child:.6f},{'' if size is None else size}\n"
                )


class _JsonProxy:
    """Stand-in for the ``json`` module as ``bfforms.cli`` sees it, so the
    reply formatter gets its own span."""

    def __init__(self, module, dumps) -> None:
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _bytes_written(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def install(tracer: Tracer) -> None:
    """Wrap every traced function at the name its caller uses."""
    impl = kernels._impl
    targets = [
        (cli, "main", "cli.main", None),
        (cli, "analyze_function", "analysis.analyze_function", None),
        (cli, "sweep", "analysis.sweep", None),
        (cli, "sampled_sweep", "analysis.sampled_sweep", None),
        (cli, "write_sweep_reports", "reports.write_sweep_reports", _bytes_written),
        (cli, "parse_pla", "pla.parse_pla", None),
        (cli, "truth_tables", "pla.truth_tables", None),
        (analysis, "minimize_sop", "sop.minimize_sop", None),
        (analysis, "best_polarity", "reedmuller.best_polarity", None),
        (analysis, "best_arith_polarity", "arith.best_arith_polarity", None),
        (analysis, "sample_uniform", "truthtable.sample_uniform", None),
        (sop, "prime_implicants", "sop.prime_implicants", len),
        (kernels, "analyze_counts", "kernels.analyze_counts", None),
        (kernels, "analyze_batch", "kernels.analyze_batch", len),
        (kernels, "sweep_counts", "kernels.sweep_counts", len),
        (reports, "records_table", "reports.records_table", None),
        (reports, "rei_table", "reports.rei_table", None),
        (reports, "weights_table", "reports.weights_table", None),
        (reports, "losses_table", "reports.losses_table", None),
        (reports, "summary_json", "reports.summary_json", None),
    ]
    # The kernel's three parts, as its own analyze_counts looks them up.
    # Only a Python module exposes those lookups; a compiled twin calls
    # them internally, so its parts are not split out.
    if hasattr(impl, "__file__") and impl.__file__.endswith(".py"):
        for part in ("min_sop_counts", "rm_minima", "arith_minima"):
            targets.append((impl, part, f"kernels.{part}", None))
    for module, attr, name, size in targets:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), size))
    cli.json = _JsonProxy(cli.json, tracer.wrap("cli.format", cli.json.dumps))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the recorded spans."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    sizes: dict[str, list[int]] = {}
    aborts: dict[str, int] = {}
    for name, start, end, _parent, status, child, size in tracer.spans:
        d = end - start
        total[name] = total.get(name, 0.0) + d
        self_time[name] = self_time.get(name, 0.0) + d - child
        durations.setdefault(name, []).append(d)
        if size is not None:
            sizes.setdefault(name, []).append(size)
        if status == "guard":
            aborts[name] = aborts.get(name, 0) + 1

    def tot(name):
        return total.get(name, 0.0)

    def p_ms(name, p):
        return 1000.0 * percentile(durations.get(name, []), p)

    kernel_fns = (
        sum(sizes.get("kernels.sweep_counts", []))
        + sum(sizes.get("kernels.analyze_batch", []))
        + len(durations.get("kernels.analyze_counts", []))
    )
    kernel_s = tot("kernels.sweep_counts") + tot("kernels.analyze_batch") + tot("kernels.analyze_counts")
    primes = sizes.get("sop.prime_implicants", [])
    return {
        "kernels.sweep_counts_s": tot("kernels.sweep_counts"),
        "kernels.analyze_batch_s": tot("kernels.analyze_batch"),
        "kernels.fn_per_s": kernel_fns / kernel_s if kernel_s else 0.0,
        "kernels.min_sop_counts_s": tot("kernels.min_sop_counts"),
        "kernels.rm_minima_s": tot("kernels.rm_minima"),
        "kernels.arith_minima_s": tot("kernels.arith_minima"),
        "analysis.records_s": self_time.get("analysis.sweep", 0.0)
        + self_time.get("analysis.sampled_sweep", 0.0),
        "reports.records_table_s": tot("reports.records_table"),
        "reports.rei_table_s": tot("reports.rei_table"),
        "reports.weights_table_s": tot("reports.weights_table"),
        "reports.losses_table_s": tot("reports.losses_table"),
        "reports.summary_json_s": tot("reports.summary_json"),
        "reports.write_s": self_time.get("reports.write_sweep_reports", 0.0),
        "reports.bytes_written": sum(sizes.get("reports.write_sweep_reports", [])),
        "truthtable.sample_uniform_s": tot("truthtable.sample_uniform"),
        "sop.minimize_sop_ms_p50": p_ms("sop.minimize_sop", 50),
        "sop.minimize_sop_ms_p95": p_ms("sop.minimize_sop", 95),
        "sop.minimize_sop_s_total": tot("sop.minimize_sop"),
        "sop.prime_implicants_s_total": tot("sop.prime_implicants"),
        "sop.primes_p50": percentile(primes, 50),
        "sop.primes_max": max(primes) if primes else 0,
        "sop.guard_aborts": aborts.get("sop.minimize_sop", 0),
        "kernels.analyze_counts_ms_p50": p_ms("kernels.analyze_counts", 50),
        "reedmuller.best_polarity_ms_p50": p_ms("reedmuller.best_polarity", 50),
        "arith.best_arith_polarity_ms_p50": p_ms("arith.best_arith_polarity", 50),
        "pla.parse_ms_p50": p_ms("pla.parse_pla", 50),
        "cli.format_ms_p50": p_ms("cli.format", 50),
        "cli.self_s": self_time.get("cli.main", 0.0),
    }


def layer_table(tracer: Tracer) -> str:
    """Plain-text table: calls, total and self seconds per span name."""
    rows: dict[str, list] = {}
    for name, start, end, _parent, _status, child, _size in tracer.spans:
        row = rows.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child
    lines = [f"{'span':36s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}"]
    for name, (calls, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:36s} {calls:8d} {tot:10.4f} {slf:10.4f}")
    return "\n".join(lines) + "\n"
