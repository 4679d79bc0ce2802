#!/usr/bin/env python3
"""Benchmark the compiled C sweep kernel against the pure-Python fallback.

Times `analyze_batch` throughput over an exhaustive n=4 slice and seeded
n=5 and n=6 samples, then prints functions per second and the speedup.
`analyze_batch` is the path `bfforms sweep` (n <= 4) and `sample` (n <= 5)
run; no command sends it n=6 batches, so the n=6 figures time the kernel
API alone.  On the pure backend it finds the primes and essential primes
of the whole batch in bit planes, completes in the planes every cover that
one more prime completes (`_sop_planes.partial_covers`), and runs a cover
search only for the functions still left with rows uncovered; it prints
how many of the batch those are.  For the pure backend it also times its
layers on the same indices: the one-function SOP path (`min_sop_counts`,
the reference the tests check the batch path against) and its prime
filter (`_prime_ids`), the batch plane stages, and the polarity scan of
both polynomial forms, once as the lane-parallel batch that sweeps use
(`polarity_minima_batch`) and once as a batch of one per function (what
`kernels.polarity_minima` runs for `analyze`).  It then
times the NP-class enumeration that exhaustive sweeps run before the
kernel, for n=3 and n=4, and prints the class counts.  It then times
`write_sweep_reports` in-process on the records of `sweep(4)` and of
`sampled_sweep(5, 4096, 1)`, as the least of `REPORT_RUNS` runs; the
per-file split is in the `reports.*` figures of `e2ebench/run.py --trace 1`.
Last, it runs the
SOP cover search on the 126 non-constant symmetric functions of six
inputs, the hardest known inputs for it, and prints how many finish under
a 1 s guard, with the median (p50) and the largest time of a finishing
search: a max close to the guard means the count moves with the
machine's load, as searches on either side of the guard trade places.
The searches are the count search of each backend (the
pure `min_sop_counts`, the compiled `analyze_batch` of one function), then
`minimize_sop`, whose cover search is the pure one on either backend.
Usage:

    python benchmarks/bench_kernels.py [--n4-count 8192] [--n5-count 2048]
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bfforms import _kernels_py, _sop_planes, npclasses, reports  # noqa: E402
from bfforms.analysis import sampled_sweep, sweep  # noqa: E402
from bfforms.errors import GuardTimeoutError  # noqa: E402
from bfforms.guard import DEFAULT_GUARD_SECS  # noqa: E402
from bfforms.sop import minimize_sop  # noqa: E402
from bfforms.truthtable import TruthTable, sample_uniform  # noqa: E402

try:
    from bfforms import _kernels_c

    BACKENDS = [_kernels_py, _kernels_c]
except ImportError:
    BACKENDS = [_kernels_py]

SYMMETRIC_GUARD_S = 1.0
REPORT_RUNS = 20


def bench(impl, n, indices):
    start = time.perf_counter()
    impl.analyze_batch(n, indices, DEFAULT_GUARD_SECS)
    elapsed = time.perf_counter() - start
    return elapsed, len(indices) / elapsed


def bench_layer(fn, n, indices):
    start = time.perf_counter()
    for index in indices:
        fn(n, index)
    return time.perf_counter() - start


def bench_batch_layer(fn, n, indices):
    start = time.perf_counter()
    list(fn(n, indices))
    return time.perf_counter() - start


def symmetric_functions(n):
    """The non-constant symmetric functions of n inputs, as row masks.

    Bit w of the value vector v says whether the function is 1 on the rows
    with w ones.
    """
    weights = [bin(x).count("1") for x in range(1 << n)]
    return [
        sum(1 << x for x, w in enumerate(weights) if v >> w & 1)
        for v in range(1, (1 << (n + 1)) - 1)
    ]


def bench_symmetric(search, guard_s):
    """(finished, their seconds each, slowest index) of
    ``search(index, guard_s)`` over the n=6 symmetric functions."""
    times, slowest = [], (0.0, 0)
    for index in symmetric_functions(6):
        start = time.perf_counter()
        try:
            search(index, guard_s)
        except GuardTimeoutError:
            continue
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        slowest = max(slowest, (elapsed, index))
    return len(times), times, slowest[1]


def bench_reports(records, n, sampled):
    """Least seconds of ``write_sweep_reports`` over ``REPORT_RUNS`` runs."""
    best = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(REPORT_RUNS):
            start = time.perf_counter()
            reports.write_sweep_reports(records, n, Path(tmp), sampled)
            best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n4-count", type=int, default=8192)
    parser.add_argument("--n5-count", type=int, default=2048)
    args = parser.parse_args()

    workloads = [
        (4, list(range(args.n4_count))),
        (5, sample_uniform(5, args.n5_count, seed=1)),
        (6, sample_uniform(6, 512, seed=1)),
    ]
    for n, indices in workloads:
        print(f"n={n}, {len(indices)} functions")
        rates = {}
        for impl in BACKENDS:
            elapsed, rate = bench(impl, n, indices)
            rates[impl.BACKEND] = rate
            print(f"  {impl.BACKEND:9s} {elapsed:8.3f}s  {rate:10.0f} fn/s")
            if impl is _kernels_py:
                layers = [
                    (
                        "min_sop_counts",
                        lambda n, i: impl.min_sop_counts(n, i, DEFAULT_GUARD_SECS),
                    ),
                    ("_prime_ids", impl._prime_ids),
                    ("polarity_minima", lambda n, i: impl.polarity_minima_batch(n, [i])),
                ]
                for label, fn in layers:
                    elapsed = bench_layer(fn, n, indices)
                    print(f"    {label:21s} {elapsed:8.3f}s")
                costs = [impl._TERM + lit for lit in impl._lattice(n).lits]

                def partial_covers(n, indices):
                    return _sop_planes.partial_covers(n, indices, costs)

                batch_layers = [
                    ("plane stages", partial_covers),
                    ("polarity_minima_batch", impl.polarity_minima_batch),
                ]
                for label, fn in batch_layers:
                    elapsed = bench_batch_layer(fn, n, indices)
                    print(f"    {label:21s} {elapsed:8.3f}s")
                searches = sum(1 for *_, uncov in partial_covers(n, indices) if uncov)
                print(f"    cover searches left   {searches:8d} of {len(indices)}")
        if len(rates) == 2:
            print(f"  speedup   {rates['compiled'] / rates['pure']:8.1f}x")
        else:
            print("  (compiled backend not built: python setup.py build_ext --inplace)")
    for n in (3, 4):
        npclasses.np_classes.cache_clear()
        start = time.perf_counter()
        classes = npclasses.np_classes(n)
        elapsed = time.perf_counter() - start
        print(f"n={n} NP classes: {len(classes.representatives)} in {elapsed:.3f}s")
    sample = {"count": 4096, "seed": 1}
    report_runs = [
        ("sweep(4)", sweep(4), 4, None),
        ("sampled_sweep(5, 4096, 1)", sampled_sweep(5, **sample), 5, sample),
    ]
    print(f"write_sweep_reports, least of {REPORT_RUNS} runs")
    for label, records, n, sampled in report_runs:
        elapsed = bench_reports(records, n, sampled)
        print(f"  {label:25s} {1000 * elapsed:8.2f} ms")
    total = len(symmetric_functions(6))
    print(f"n=6 symmetric, SOP cover search under a {SYMMETRIC_GUARD_S:g}s guard")
    searches = [("pure", lambda i, g: _kernels_py.min_sop_counts(6, i, g))]
    if len(BACKENDS) == 2:
        compiled = BACKENDS[1]
        searches.append(("compiled", lambda i, g: compiled.analyze_batch(6, [i], g)))
    searches.append(
        ("minimize_sop", lambda i, g: minimize_sop(TruthTable.from_index(6, i), g))
    )
    for label, search in searches:
        finished, times, index = bench_symmetric(search, SYMMETRIC_GUARD_S)
        print(
            f"  {label:12s} {finished:3d}/{total} finish, each in "
            f"p50 {1000 * statistics.median(times):.2f} ms, "
            f"max {1000 * max(times):.1f} ms ({index:#x})"
        )


if __name__ == "__main__":
    main()
