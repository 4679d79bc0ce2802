"""Workload definitions shared by the measuring process and the checks.

Kept free of bfforms imports so the output checks stay independent of the
program under test.
"""

from __future__ import annotations

import random

CRITERIA = ("s_ad", "s_sh", "s_l", "s_s", "s_ac")

# One guard for every run of every workload (BFFORMS_GUARD_SECS).  The
# analyze6 pool below splits cleanly around it: every draw but one starts
# Petrick's last minterm round by 0.46 s, draw 15 only at 14.6 s, and the
# guard falls inside one long round of draw 15 (README, "The analyze6
# guard and its aborted draw").
GUARD_SECS = 1.2

SWEEP_N = 4
SAMPLE_N = 5
SAMPLE_COUNT = 4096
ANALYZE_N = 6
ANALYZE_POOL_SEED = 11
ANALYZE_POOL_SIZE = 80
ANALYZE_PLA_SHARE = 4  # one request in four reads its function from a PLA file

WORKLOADS = ("sweep4", "sample5", "analyze6")
# analyze6 needs 3 rounds of 80 requests: 240, so 12 lie beyond p95.
MIN_ROUNDS = {"sweep4": 1, "sample5": 1, "analyze6": 3}

# Records per report checked against brute-force minima.
BRUTE_RECORDS = {"sweep4": 48, "sample5": 16}
BRUTE_REPLIES = 6


def pla_positions(seed: int) -> list[int]:
    """Pool positions whose requests read a PLA file, fixed for the run."""
    rng = random.Random(f"pla/{seed}")
    return sorted(rng.sample(range(ANALYZE_POOL_SIZE), ANALYZE_POOL_SIZE // ANALYZE_PLA_SHARE))


def analyze_round(seed: int, round_no: int) -> list[tuple[int, str]]:
    """(pool position, criterion) per request of one round, in send order."""
    rng = random.Random(f"round/{seed}/{round_no}")
    order = list(range(ANALYZE_POOL_SIZE))
    rng.shuffle(order)
    return [(pos, rng.choice(CRITERIA)) for pos in order]


def pla_text(n: int, index: int, seed: int) -> str:
    """A PLA file for ``index``: one cube per on-set row, in seeded order."""
    rows = [r for r in range(1 << n) if (index >> r) & 1]
    random.Random(f"rows/{seed}/{index}").shuffle(rows)
    cubes = [format(r, f"0{n}b") + " 1" for r in rows]
    return "\n".join(
        ["# analyze6 input", f".i {n}", ".o 1", f".p {len(cubes)}", *cubes, ".e"]
    ) + "\n"


def percentile(values: list, p: float):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = -(-len(ordered) * p // 100)
    return ordered[max(1, int(rank)) - 1]
