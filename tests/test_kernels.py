"""Backend agreement: pure vs compiled kernels vs the library path.

The kernels only return counts, so agreement is checked value-by-value
against the slow library implementations and between the two backends.
The Reed-Muller and arithmetic columns come from independent per-polarity
transforms.  The SOP column does not: ``minimize_sop`` takes its (terms,
literals) optimum from the kernel's own count search, so it checks only
that the returned cover attains those counts.  The independent checks of
the SOP optimum are the brute-force ``conftest.oracle_min_cover`` (n <= 4),
the plain branch-and-bound ``conftest.plain_min_cover`` (n = 5 and 6), the
golden covers in ``tests/data/golden_covers.txt`` and the golden SOP-count
digests in ``tests/data/golden_sop_counts.sha256``.
"""

import hashlib
import os
import random
import shutil
import statistics
import subprocess
import sys
import sysconfig
import threading
import time
from functools import cache
from pathlib import Path

import pytest

from conftest import cube_mask, kernel_backends, oracle_primes, plain_min_cover
from bfforms import _kernels_py as pure
from bfforms import _sop_planes
from bfforms.arith import arithmetic_transform
from bfforms.costs import cost_of_polynomial, cost_of_sop
from bfforms.errors import GuardTimeoutError
from bfforms.guard import DEFAULT_GUARD_SECS
from bfforms.reedmuller import PolarityVector, fprm_transform
from bfforms.sop import minimize_sop
from bfforms.truthtable import TruthTable, sample_uniform

BACKENDS = kernel_backends()
compiled = BACKENDS[1] if len(BACKENDS) > 1 else None
# Only without a C compiler: tests/conftest.py builds the kernel otherwise.
needs_compiled = pytest.mark.skipif(
    compiled is None, reason="compiled kernels not built"
)

GOLDEN_MINIMA = Path(__file__).parent / "data" / "golden_polarity_minima.sha256"
GOLDEN_SOP_COUNTS = Path(__file__).parent / "data" / "golden_sop_counts.sha256"
GOLDEN_SOP_COUNTS_SETS = {
    "n5_sample5": (5, lambda: sample_uniform(5, 4096, seed=1)),
    "n6_seed6": (6, lambda: sample_uniform(6, 300, seed=6)),
}
GOLDEN_MINIMA_SETS = {
    "n4_all": (4, lambda: range(1 << 16)),
    "n5_seed55": (5, lambda: sample_uniform(5, 2048, seed=55)),
    "n6_seed66": (6, lambda: sample_uniform(6, 200, seed=66)),
}


def minima_digest(indices, rows) -> str:
    """sha256 of one "index rm_ad rm_sh rm_l af_ad af_sh af_l" line per index."""
    h = hashlib.sha256()
    for index, row in zip(indices, rows, strict=True):
        h.update(f"{index:x} {' '.join(map(str, row))}\n".encode())
    return h.hexdigest()


def read_golden(path: Path) -> dict[str, str]:
    """{set name: digest} from a ``<digest>  <name>`` file with # comments."""
    expected = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            digest, name = line.split()
            expected[name] = digest
    return expected


def library_polarity_minima(tt: TruthTable) -> tuple[int, ...]:
    """The six RM and arithmetic minima from per-polarity library transforms."""
    n = tt.n
    rm_costs = [
        cost_of_polynomial(fprm_transform(tt, PolarityVector.from_int(n, k)))
        for k in range(1 << n)
    ]
    af_costs = [
        cost_of_polynomial(arithmetic_transform(tt, PolarityVector.from_int(n, k)))
        for k in range(1 << n)
    ]
    return (
        min(c.s_ad for c in rm_costs),
        min(c.s_sh for c in rm_costs),
        min(c.s_l for c in rm_costs),
        min(c.s_ad for c in af_costs),
        min(c.s_sh for c in af_costs),
        min(c.s_l for c in af_costs),
    )


def library_counts(tt: TruthTable) -> tuple[int, ...]:
    """The nine sweep counts recomputed through the slow library path."""
    sop_cost = cost_of_sop(minimize_sop(tt))
    return (sop_cost.s_ad, sop_cost.s_sh, sop_cost.s_l) + library_polarity_minima(tt)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_kernel_matches_library_all_l3(impl, l3_tables):
    for tt in l3_tables:
        assert counts_of(impl, 3, tt.index) == library_counts(tt)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_kernel_matches_library_seeded_n4(impl):
    for index in sample_uniform(4, 40, seed=404):
        tt = TruthTable.from_index(4, index)
        assert counts_of(impl, 4, index) == library_counts(tt)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_kernel_matches_library_seeded_n5(impl):
    for index in sample_uniform(5, 8, seed=505):
        tt = TruthTable.from_index(5, index)
        assert counts_of(impl, 5, index) == library_counts(tt)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_polarity_minima_match_golden_digests(impl):
    # Digests recorded from the per-polarity butterfly scans, before the
    # polarity minima moved to one extended-transform pass.
    expected = read_golden(GOLDEN_MINIMA)
    assert expected.keys() == GOLDEN_MINIMA_SETS.keys()
    for name, (n, make_indices) in GOLDEN_MINIMA_SETS.items():
        indices = make_indices()
        rows = impl.polarity_minima_batch(n, indices)
        assert minima_digest(indices, rows) == expected[name], name
        # Spot check: the batch rows equal the one-function calls.
        for pos in random.Random(name).sample(range(len(indices)), 24):
            assert rows[pos] == minima_of(impl, n, indices[pos])


def sop_digest(indices, pairs) -> str:
    """sha256 of one "index terms literals" line per index."""
    h = hashlib.sha256()
    for index, (terms, literals) in zip(indices, pairs, strict=True):
        h.update(f"{index:x} {terms} {literals}\n".encode())
    return h.hexdigest()


def sop_columns(rows) -> list[tuple[int, int]]:
    """(terms, literals) of each nine-count kernel row."""
    return [(row[0], row[2]) for row in rows]


# The twins export batch entries only; a one-function call is a batch of one.
def counts_of(impl, n: int, index: int, guard_s: float = DEFAULT_GUARD_SECS):
    """The nine counts of one index."""
    return impl.analyze_batch(n, [index], guard_s)[0]


def minima_of(impl, n: int, mask: int) -> tuple[int, ...]:
    """The six polarity minima of one mask."""
    return impl.polarity_minima_batch(n, [mask])[0]


def sop_counts_of(impl, n: int, on: int, guard_s: float = DEFAULT_GUARD_SECS):
    """(terms, literals) of one mask: the twin's ``min_sop_counts`` where it
    has one, else the SOP columns of its batch entry."""
    if hasattr(impl, "min_sop_counts"):
        return impl.min_sop_counts(n, on, guard_s)
    return sop_columns([counts_of(impl, n, on, guard_s)])[0]


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
@pytest.mark.parametrize("name", GOLDEN_SOP_COUNTS_SETS)
def test_min_sop_counts_match_golden_digests(impl, name):
    # Digests recorded from the cover search with essential primes only,
    # before the dominance reductions and the transposition table.
    n, make_indices = GOLDEN_SOP_COUNTS_SETS[name]
    indices = make_indices()
    pairs = [sop_counts_of(impl, n, index) for index in indices]
    assert sop_digest(indices, pairs) == read_golden(GOLDEN_SOP_COUNTS)[name]


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
@pytest.mark.parametrize("name", GOLDEN_SOP_COUNTS_SETS)
def test_analyze_batch_sop_matches_golden_digests(impl, name):
    # The batch path (the pure twin's bit-plane front end) against the
    # digests of the one-function path, the whole set in one batch.
    n, make_indices = GOLDEN_SOP_COUNTS_SETS[name]
    indices = make_indices()
    rows = impl.analyze_batch(n, indices, 60.0)
    assert sop_digest(indices, sop_columns(rows)) == read_golden(GOLDEN_SOP_COUNTS)[name]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_analyze_batch_sop_equals_single_path_all_functions(n):
    indices = range(1 << (1 << n))
    rows = pure.analyze_batch(n, indices, 60.0)
    assert sop_columns(rows) == [pure.min_sop_counts(n, i, 60.0) for i in indices]


def seeded_batch(n: int, size: int) -> list[int]:
    """``size`` seeded draws; from three on, 0 first, all-ones last and a
    repeat of the second draw in the middle."""
    batch = sample_uniform(n, size, seed=100 * n + size) if size else []
    if size >= 3:
        batch[0] = 0
        batch[-1] = (1 << (1 << n)) - 1
        batch[size // 2] = batch[1]
    return batch


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 64, 65, 2049])
@pytest.mark.parametrize("n", [5, 6])
def test_analyze_batch_sop_equals_single_path_seeded(n, size):
    # Lengths around the transpose's 64-function blocks, and past the
    # sample chunk of 2,048.
    batch = seeded_batch(n, size)
    rows = pure.analyze_batch(n, batch, 60.0)
    assert len(rows) == size
    assert sop_columns(rows) == [pure.min_sop_counts(n, i, 60.0) for i in batch]


def brute_front_end(n: int, on: int) -> tuple[int, int, int]:
    """(essential, residual, uncovered) from the brute-force primes.

    A cube's id is the position of its row mask among the lattice covers.
    """
    covers = pure._lattice(n).covers
    masks = [cube_mask(c, n) for c in oracle_primes(n, on)]
    primes = {covers.index(m): m for m in masks}
    essential = covered = 0
    for c, rows in primes.items():
        others = 0
        for d, more in primes.items():
            if d != c:
                others |= more
        if rows & ~others:
            essential |= 1 << c
            covered |= rows
    uncovered = on & ~covered
    residual = sum(
        1 << c for c, rows in primes.items() if rows & uncovered and not essential >> c & 1
    )
    return essential, residual, uncovered


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lattice_matches_base3_digits(n):
    # Every table of the tripling build, against one made digit by digit:
    # digit p of id c is c // 3**p % 3, and row x has x_p = digit - 1.
    lat = pure._lattice(n)
    ids = range(3**n)
    rows = range(1 << n)
    digits = [[c // 3**p % 3 for p in range(n)] for c in ids]
    assert lat.full == (1 << (1 << n)) - 1
    assert lat.covers == [
        sum(
            1 << x
            for x in rows
            if all(not d or x >> p & 1 == d - 1 for p, d in enumerate(ds))
        )
        for ds in digits
    ]
    assert lat.lits == [sum(map(bool, ds)) for ds in digits]
    assert lat.minterm == [
        sum((1 + (x >> p & 1)) * 3**p for p in range(n)) for x in rows
    ]
    assert lat.absent == [
        sum(1 << c for c in ids if digits[c][p] == 0) for p in range(n)
    ]


def plane_front_end(n: int, masks: list[int]) -> list[tuple[int, int, int]]:
    """Per mask: (essential, residual, uncovered), read from the planes."""
    ess, resid, uncov = _sop_planes._planes(n, masks)
    size = 3**n
    cubes = (1 << size) - 1
    return [
        (c & cubes, c >> size & cubes, c >> 2 * size)
        for c in _sop_planes.transpose(ess + resid + uncov, len(masks))
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_front_end_matches_brute_force(n):
    # Counts alone would not show a missed essential: the cover search
    # takes it later at the same cost.  So the planes are checked too.
    full = (1 << (1 << n)) - 1
    if n <= 3:
        masks = list(range(full + 1))
    else:
        masks = [0, full] + sample_uniform(n, {4: 300, 5: 30}[n], seed=90 + n)
    assert plane_front_end(n, masks) == [brute_front_end(n, on) for on in masks]


def brute_one_term(n: int, on: int) -> tuple[int, int, int]:
    """(cost taken, residual, uncovered) after the one-term stage.

    From :func:`brute_front_end`: when some residual prime holds every
    uncovered row, the cheapest such prime completes the cover.
    """
    lat = pure._lattice(n)
    essential, residual, uncovered = brute_front_end(n, on)
    ids = range(3**n)
    taken = sum(pure._TERM + lat.lits[c] for c in ids if essential >> c & 1)
    whole = [
        pure._TERM + lat.lits[c]
        for c in ids
        if residual >> c & 1 and lat.covers[c] & uncovered == uncovered
    ]
    if uncovered and whole:
        return taken + min(whole), 0, 0
    return taken, residual, uncovered


def brute_dominance_passes(
    n: int, partial: tuple[int, int, int]
) -> tuple[int, int, int]:
    """(cost taken, residual, uncovered) after the dominance passes.

    From the one-term stage's ``partial``, one function at a time, each
    pass: every residual prime that another dominates on the uncovered
    rows goes at once, by the cyclic core's rule (no higher cost; at equal
    cost a lower id or more uncovered rows); the primes left alone on an
    uncovered row are taken; the residual primes are those left that meet
    a row still uncovered.
    """
    lat = pure._lattice(n)
    taken, residual, uncovered = partial
    for _ in range(_sop_planes._PASSES):
        rows = {c: lat.covers[c] & uncovered for c in range(3**n) if residual >> c & 1}
        cost = {c: pure._TERM + lat.lits[c] for c in rows}
        kept = [
            c
            for c in rows
            if not any(
                d != c
                and rows[c] & rows[d] == rows[c]
                and cost[d] <= cost[c]
                and (d < c or rows[d] != rows[c] or cost[d] < cost[c])
                for d in rows
            )
        ]
        for r in range(1 << n):
            holders = [c for c in kept if rows[c] >> r & 1]
            if uncovered >> r & 1 and len(holders) == 1:
                taken += cost[holders[0]]
                uncovered &= ~lat.covers[holders[0]]
        residual = sum(1 << c for c in kept if lat.covers[c] & uncovered)
    return taken, residual, uncovered


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_term_stage_matches_brute_force(n, monkeypatch):
    full = (1 << (1 << n)) - 1
    if n <= 3:
        masks = list(range(full + 1))
    else:
        masks = [0, full] + sample_uniform(n, {4: 300, 5: 60}[n], seed=80 + n)
    costs = [pure._TERM + lit for lit in pure._lattice(n).lits]
    one_term = [brute_one_term(n, on) for on in masks]
    # A batch this narrow stops after the one-term stage.
    assert len(masks) < _sop_planes._PASS_WIDTH
    assert list(_sop_planes.partial_covers(n, masks, costs)) == one_term
    # Any batch runs the dominance passes once it is wide enough.
    monkeypatch.setattr(_sop_planes, "_PASS_WIDTH", len(masks))
    got = list(_sop_planes.partial_covers(n, masks, costs))
    assert got == [brute_dominance_passes(n, partial) for partial in one_term]
    # Each stage completes some covers the one before left open: the
    # one-term stage from n=3 on, the dominance passes from n=4.
    before = sum(1 for _, _, uncov in plane_front_end(n, masks) if uncov)
    after_one_term = sum(1 for _, _, uncov in one_term if uncov)
    after = sum(1 for _, _, uncov in got if uncov)
    assert after <= after_one_term < before or n <= 2
    assert after < after_one_term or n <= 3


@pytest.mark.parametrize("rows, width", [(0, 5), (1, 1), (3, 70), (64, 64), (130, 32)])
def test_transpose(rows, width):
    rng = random.Random(rows)
    matrix = [rng.getrandbits(width) for _ in range(rows)]
    columns = list(_sop_planes.transpose(matrix, width))
    assert columns == [
        sum((row >> j & 1) << r for r, row in enumerate(matrix)) for j in range(width)
    ]


def with_ignored_variable(n: int, index: int, p: int) -> int:
    """``index`` as a function of n + 1 variables that ignores the one at
    row bit p."""
    low = (1 << p) - 1
    return sum(
        1 << y
        for y in range(2 << n)
        if index >> (y & low | y >> (p + 1) << p) & 1
    )


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_ignored_variable_keeps_every_count(impl, monkeypatch):
    # A variable the function ignores changes none of the nine counts, so
    # each per-n table of one n must agree with those of the next.  Every
    # function at n <= 3, then seeded draws, at every position of the new
    # variable.  The pure twin's dominance passes run at any batch width.
    monkeypatch.setattr(_sop_planes, "_PASS_WIDTH", 1)
    for n in range(1, 6):
        if n <= 3:
            indices = list(range(1 << (1 << n)))
        else:
            indices = sample_uniform(n, {4: 400, 5: 200}[n], seed=150 + n)
        rows = impl.analyze_batch(n, indices, 60.0)
        for p in range(n + 1):
            wider = [with_ignored_variable(n, i, p) for i in indices]
            assert impl.analyze_batch(n + 1, wider, 60.0) == rows, (n, p)


def test_analyze_batch_takes_the_plane_path(monkeypatch):
    # A 2,048-draw n=5 chunk, the unit `bfforms sample` hands the kernel,
    # gets its primes and essentials from the bit planes: no per-function
    # prime filter or count search runs.
    calls = {"_prime_ids": 0, "min_sop_counts": 0}
    for name in calls:
        original = getattr(pure, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(pure, name, counted)
    draws = sample_uniform(5, 2048, seed=31)
    rows = pure.analyze_batch(5, draws, 60.0)
    assert calls == {"_prime_ids": 0, "min_sop_counts": 0}
    # The wrappers count when called.
    assert sop_columns(rows[:3]) == [pure.min_sop_counts(5, i, 60.0) for i in draws[:3]]
    assert calls == {"_prime_ids": 3, "min_sop_counts": 3}


@pytest.fixture(scope="module")
def plain_search_cases():
    """(n, index, plain_min_cover result) for seeded n=5 and n=6 draws."""
    cases = []
    for n, count, seed in ((5, 300, 515), (6, 60, 616)):
        lat = pure._lattice(n)
        for index in sample_uniform(n, count, seed):
            primes = pure._prime_ids(n, index)
            expected = plain_min_cover(
                [lat.covers[c] for c in primes], [lat.lits[c] for c in primes], index
            )
            cases.append((n, index, expected))
    return cases


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_min_sop_counts_match_plain_search(impl, plain_search_cases):
    # The reductions and the transposition table change which branches the
    # search visits, never the optimum.
    for n, index, expected in plain_search_cases:
        assert sop_counts_of(impl, n, index) == expected, hex(index)


# Hand-built (rows, literals) prime lists for the cover search, in lattice
# order, with their optimum.
DOMINANCE_CASES = {
    # Equal rows: the one with fewer literals stays, first or second.
    "equal-rows-fewer-lits-second": ([0b11, 0b11], [3, 2], 0b11, (1, 2)),
    "equal-rows-fewer-lits-first": ([0b11, 0b11], [2, 3], 0b11, (1, 2)),
    # Exact duplicates: exactly one of them stays, or row 0 loses its cover.
    "duplicates": ([0b01, 0b01, 0b10], [1, 1, 1], 0b11, (2, 2)),
    "triplicates": ([0b011, 0b011, 0b011, 0b110], [2, 2, 2, 2], 0b111, (2, 4)),
    # No row has a sole cover at first.  Dropping 0b00001 (inside 0b00011,
    # same literals) makes 0b00011 essential; with row 1 covered, 0b00110
    # shrinks into 0b01100 and goes, making 0b01100 essential; with row 3
    # covered, 0b11000 equals 0b10000 on the rows left, with more literals,
    # and goes, making 0b10000 essential.
    "three-rounds": (
        [0b00011, 0b00001, 0b00110, 0b01100, 0b11000, 0b10000],
        [2, 2, 2, 2, 2, 1],
        0b11111,
        (3, 5),
    ),
}


# The pure twin's cover search alone: the compiled one is reached only
# through its SOP counts, which the golden digests and the seeded
# comparisons above check.
@pytest.mark.parametrize("impl", [pure], ids=lambda m: m.BACKEND)
@pytest.mark.parametrize("name", DOMINANCE_CASES)
def test_min_cover_dominance_edge_cases(impl, name):
    pcov, plit, on, expected = DOMINANCE_CASES[name]
    assert plain_min_cover(pcov, plit, on) == expected
    assert count_cover(impl, pcov, plit, on) == expected


@pytest.mark.parametrize("impl", [pure], ids=lambda m: m.BACKEND)
def test_min_cover_rejects_uncovered_rows(impl):
    # Row 0b100 is left alone once both primes are taken as essentials.
    with pytest.raises(ValueError, match="outside every prime implicant"):
        count_cover(impl, [0b01, 0b10], [1, 1], 0b111)
    # A triangle: no row is sole and no prime dominates, so the core keeps
    # all three primes, and row 0b1000 is in none of them.
    with pytest.raises(ValueError, match="outside every prime implicant"):
        count_cover(impl, [0b0011, 0b0101, 0b0110], [2, 2, 2], 0b1111)


def count_cover(impl, pcov, plit, on):
    """(terms, literals) of the cover search with the count path's costs."""
    cand = list(zip(pcov, [impl._TERM + lit for lit in plit], range(len(pcov))))
    cost, _ = impl._least_cost_cover(cand, on, time.monotonic() + 60.0)
    return divmod(cost, impl._TERM)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_symmetric_n6_finishes_under_default_guard(impl):
    # 1 where two or three of six inputs are.  Every prime joins a 2-set of
    # inputs to a 3-set containing it with 5 literals, so a minimum cover
    # is a minimum edge cover of that bipartite graph: 35 rows less a
    # 15-edge matching is 20 terms.  The search without dominance or a
    # transposition table did not finish it in minutes.
    assert sop_counts_of(impl, 6, 0x117177E177E7EE8) == (20, 100)


# Constants, single minterms at both ends, parity and a half-constant
# function reach the largest extended-vector entries and the widest
# per-polarity literal sums (64 monomials, 192 literals).
N6_EXTREMES = [
    0,
    (1 << 64) - 1,
    1,
    1 << 63,
    0x6996966996696996,
    0xFFFF0000FFFF0000,
] + sample_uniform(6, 10, seed=606)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
@pytest.mark.parametrize("index", N6_EXTREMES, ids=hex)
def test_polarity_minima_match_library_n6(impl, index):
    expected = library_polarity_minima(TruthTable.from_index(6, index))
    assert minima_of(impl, 6, index) == expected


@cache
def library_minima_of(n: int, mask: int) -> tuple[int, ...]:
    """:func:`library_polarity_minima` of one mask, kept for the lane batches
    that share draws."""
    return library_polarity_minima(TruthTable.from_index(n, mask))


def lane_batches():
    """(n, masks) batches whose lanes stress their neighbours."""
    extremes = N6_EXTREMES[:6]
    full6 = (1 << 64) - 1
    paired = [m for e in extremes for m in (e, full6 ^ e)]
    full5 = (1 << 32) - 1
    lanes = pure._LANES
    sizes = sorted({1, 63, 64, 65, 130, lanes - 1, lanes, lanes + 1, 2 * lanes + 2})
    draws = sample_uniform(5, sizes[-1], seed=707)
    # Every extreme and its complement, centred on the first group
    # boundary, after more of the same.
    every_paired = [m for e in N6_EXTREMES for m in (e, full6 ^ e)]
    filler = (every_paired * lanes)[: max(0, lanes - len(every_paired) // 2)]
    return [
        pytest.param(6, extremes, id="n6-extremes"),
        # Each function next to its complement, in both orders.
        pytest.param(6, paired, id="n6-complements"),
        pytest.param(6, paired[::-1], id="n6-complements-reversed"),
        pytest.param(
            5,
            [m for e in (0, full5, 1, 1 << 31, 0x69969669) for m in (e, full5 ^ e)],
            id="n5-complements",
        ),
        pytest.param(6, filler + every_paired, id="n6-complements-straddling"),
        # A lone lane, one group short of, at and just past 64 lanes and
        # ``_LANES`` lanes, and two full groups plus two of each.
        *(
            pytest.param(5, draws[:size], id=f"n5-size{size}")
            for size in sizes
        ),
    ]


@pytest.mark.parametrize("n, masks", lane_batches())
def test_lane_isolation(n, masks):
    # No lane's transform or counts leak into the next: every lane of a
    # batch equals its one-lane call and the per-polarity library minima.
    rows = pure.polarity_minima_batch(n, masks)
    assert len(rows) == len(masks)
    for mask, row in zip(masks, rows):
        assert row == minima_of(pure, n, mask)
        assert row == library_minima_of(n, mask)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_arithmetic_minima_never_below_reed_muller(impl):
    # Each Reed-Muller coefficient is the parity of the arithmetic one at
    # the same polarity, so under every polarity, and so for the minima,
    # each arithmetic count is at least the Reed-Muller one.
    sets = [(n, range(1 << (1 << n))) for n in (1, 2, 3, 4)]
    sets.append((5, sample_uniform(5, 2048, seed=511)))
    sets.append((6, sample_uniform(6, 200, seed=611)))
    for n, masks in sets:
        rows = impl.polarity_minima_batch(n, masks)
        # The one-mask call: every function up to n=3, every 8th past it.
        step = 1 if n <= 3 else 8
        for mask, row in zip(masks[::step], rows[::step]):
            assert minima_of(impl, n, mask) == row
        for mask, (rm_ad, rm_sh, rm_l, af_ad, af_sh, af_l) in zip(masks, rows):
            assert af_ad >= rm_ad and af_sh >= rm_sh and af_l >= rm_l, hex(mask)


def test_batch_paths_agree_with_one_lane():
    draws = sample_uniform(4, 70, seed=808)
    counts = pure.analyze_batch(4, draws, 60.0)
    assert [c[3:] for c in counts] == [minima_of(pure, 4, i) for i in draws]
    assert pure.polarity_minima_batch(4, []) == []
    assert pure.analyze_batch(4, [], 60.0) == []


@needs_compiled
def test_backends_agree_l3_and_samples():
    for i in range(256):
        assert counts_of(pure, 3, i) == counts_of(compiled, 3, i)
    for n, seed, count in ((4, 11, 200), (5, 12, 40), (6, 13, 5)):
        for index in sample_uniform(n, count, seed):
            assert counts_of(pure, n, index) == counts_of(compiled, n, index)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_sweep_counts_equals_pointwise(impl, monkeypatch):
    from bfforms import kernels

    monkeypatch.setattr(kernels, "_impl", impl)
    block = kernels.sweep_counts(3, 100, 140, 60.0)
    assert block == [counts_of(impl, 3, i) for i in range(100, 140)]
    assert kernels.sweep_counts(4, 7, 7, 60.0) == []


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_analyze_batch_preserves_order(impl):
    indices = [5, 250, 5, 17]
    got = impl.analyze_batch(3, indices, 60.0)
    assert got == [counts_of(impl, 3, i) for i in indices]


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_min_sop_counts_edges(impl):
    assert sop_counts_of(impl, 3, 0) == (0, 0)
    assert sop_counts_of(impl, 3, 255) == (1, 0)
    assert sop_counts_of(impl, 3, 0b11101000) == (3, 6)  # MAJ3
    assert counts_of(impl, 6, 0) == (0,) * 9
    assert counts_of(impl, 6, (1 << 64) - 1) == (1, 0, 0) * 3


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_guard_zero_aborts(impl):
    with pytest.raises(GuardTimeoutError):
        sop_counts_of(impl, 3, 0b11101000, 0.0)
    # Constants stay exempt: their cover search has nothing to search.
    for n in range(1, 7):
        assert sop_counts_of(impl, n, 0, 0.0) == (0, 0)
        assert sop_counts_of(impl, n, (1 << (1 << n)) - 1, 0.0) == (1, 0)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_analyze_batch_guard_zero(impl):
    # As min_sop_counts: any non-constant index aborts, even one whose
    # essential primes cover it (0b1 needs no search), and an all-constant
    # batch is exempt.
    for batch in ([0, 0b11101000, 255], [0b1]):
        with pytest.raises(GuardTimeoutError):
            impl.analyze_batch(3, batch, 0.0)
    batch = [0, 255, 0]
    assert impl.analyze_batch(3, batch, 0.0) == [
        counts_of(impl, 3, i) for i in batch
    ]


def test_analyze_batch_deadline_per_function(monkeypatch):
    # Under a clock that each cover search moves on by one second, every
    # search still starts with the whole 30 s guard ahead of it.
    class Clock:
        now = 0.0

        def monotonic(self):
            return self.now

    clock = Clock()
    slack = []
    search = pure._least_cost_cover

    def slow(cand, on, deadline):
        slack.append(deadline - clock.now)
        clock.now += 1.0
        return search(cand, on, deadline)

    monkeypatch.setattr(pure, "time", clock)
    monkeypatch.setattr(pure, "_least_cost_cover", slow)
    # In a batch this wide the plane stages complete about two covers in
    # three: 187 of these 600 draws reach a search.
    pure.analyze_batch(5, sample_uniform(5, 600, seed=77), 30.0)
    assert len(slack) > 100
    assert set(slack) == {30.0}


# A function whose cover search runs far past a 10 ms guard on both twins:
# the symmetric function of six inputs that is 1 where two, three or four
# of them are.  Neither twin finished it under a 3 s guard.
GUARD_OVERRUN_CASE = 0x177F7FFE7FFEFEE8


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_guard_overrun_is_small(impl):
    # The cover search checks its wall-clock deadline every 1,024 nodes;
    # at 8,192 the pure one overran a 10 ms guard by about 100 ms.
    sop_counts_of(impl, 6, 0, 0.01)  # builds the pure twin's n=6 lattice
    overruns = []
    for _ in range(5):
        start = time.monotonic()
        with pytest.raises(GuardTimeoutError):
            sop_counts_of(impl, 6, GUARD_OVERRUN_CASE, 0.01)
        overruns.append(time.monotonic() - start - 0.01)
    assert statistics.median(overruns) < 0.030


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_analyze_batch_guard_overrun_is_small(impl):
    # The overrun case at the end of a batch: it aborts as promptly as the
    # single call above, once the functions before it have run.  (Should
    # one of them abort first, the overrun only reads smaller.)
    batch = sample_uniform(6, 63, seed=78) + [GUARD_OVERRUN_CASE]
    impl.analyze_batch(6, batch[:63], 60.0)  # warm the n=6 tables
    overruns = []
    for _ in range(5):
        start = time.monotonic()
        impl.analyze_batch(6, batch[:63], 60.0)
        before = time.monotonic() - start
        start = time.monotonic()
        with pytest.raises(GuardTimeoutError):
            impl.analyze_batch(6, batch, 0.01)
        overruns.append(time.monotonic() - start - before - 0.01)
    assert statistics.median(overruns) < 0.030


@needs_compiled
def test_kernel_selection_env(monkeypatch):
    import importlib

    import bfforms.kernels as kernels

    monkeypatch.setenv("BFFORMS_PURE", "1")
    importlib.reload(kernels)
    assert kernels.BACKEND == "pure"
    monkeypatch.delenv("BFFORMS_PURE")
    importlib.reload(kernels)
    assert kernels.BACKEND == "compiled"


# An n or an index that is not an int, or is a bool, is as bad as one out
# of range: 2.0 and 1.0 used to fail inside a twin, and True passed.
BAD_INPUTS = [
    (2, 1 << 5), (3, 0x1FF), (3, -1), (0, 1), (7, 3),
    (2.0, 1), (True, 1), (2, 1.0), (2, True),
]  # fmt: skip


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
@pytest.mark.parametrize("n, index", BAD_INPUTS)
def test_facade_rejects_bad_input(impl, n, index):
    # A child process turns a hang or a crash into a test failure instead
    # of taking pytest down with it.
    code = (
        "from bfforms import kernels\n"
        f"assert kernels.BACKEND == {impl.BACKEND!r}\n"
        "try:\n"
        f"    kernels.analyze_counts({n}, {index}, 60.0)\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('no ValueError')\n"
    )
    result = run_child(impl, code)
    assert result.returncode == 0, result.stderr


@needs_compiled
@pytest.mark.parametrize(
    "status, error", [(1, GuardTimeoutError), (2, MemoryError), (-1, ValueError)]
)
def test_compiled_status_maps_to_its_error(status, error):
    # The C entries return 0, or 1 for a guard abort, 2 for a failed
    # allocation and -1 for bad arguments.
    def entry(n, index, count, out, *args):
        return status

    with pytest.raises(error):
        compiled._call(entry, 9, 5, [1, 2], DEFAULT_GUARD_SECS)
    assert compiled._call(lambda *args: 0, 9, 5, [1, 2]) == [(0,) * 9] * 2


def test_dominance_table_is_built_only_for_the_batch_path():
    # Neither importing bfforms nor `bfforms analyze`, which minimizes one
    # function at a time, builds the per-n table of the dominance pass; an
    # n=5 batch wide enough to run the pass does.
    code = (
        "import contextlib, io\n"
        "import bfforms\n"
        "from bfforms import _sop_planes, cli, kernels\n"
        "built = _sop_planes._dominance.cache_info\n"
        "assert built().currsize == 0\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['analyze', '--n', '6', '--tt', '0123456789AB']) == 0\n"
        "assert built().currsize == 0\n"
        "kernels.analyze_batch(5, range(512))\n"
        "assert built().currsize == 1\n"
    )
    result = run_child(pure, code)
    assert result.returncode == 0, result.stderr


def run_child(impl, code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a child process whose kernel facade picks ``impl``."""
    env = dict(os.environ)
    env.pop("BFFORMS_PURE", None)
    if impl is pure:
        env["BFFORMS_PURE"] = "1"
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )


# Two n=6 functions whose count searches reach the transposition table.
SMALL_STACK_BATCH = [0x977E7EE97EE9E997, 0x0123456789ABCDEF]


def small_stack_counts(impl) -> tuple[list, list]:
    """``impl.analyze_batch`` of ``SMALL_STACK_BATCH``, on this thread and on
    a new thread with a 256 KiB stack."""
    here = impl.analyze_batch(6, SMALL_STACK_BATCH, DEFAULT_GUARD_SECS)
    there = []
    old = threading.stack_size(256 * 1024)
    try:
        thread = threading.Thread(
            target=lambda: there.append(
                impl.analyze_batch(6, SMALL_STACK_BATCH, DEFAULT_GUARD_SECS)
            )
        )
        thread.start()
    finally:
        threading.stack_size(old)
    thread.join(30)
    assert not thread.is_alive()
    return here, there


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_kernel_runs_on_a_small_thread_stack(impl):
    # The compiled cover search's state alone is 256 KiB, so it must not
    # live on the stack.  A crash takes only the child down.
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import test_kernels\n"
        "from bfforms import kernels\n"
        f"assert kernels.BACKEND == {impl.BACKEND!r}\n"
        "here, there = test_kernels.small_stack_counts(kernels._impl)\n"
        "assert there == [here], (here, there)\n"
    )
    result = run_child(impl, code)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_facade_polarity_minima(impl, monkeypatch):
    from bfforms import kernels

    monkeypatch.setattr(kernels, "_impl", impl)
    for n, index in ((1, 2), (3, 0b11101000), (6, 0x6996966996696996)):
        expected = library_polarity_minima(TruthTable.from_index(n, index))
        assert kernels.polarity_minima(n, index) == expected
    for n, index in BAD_INPUTS:
        with pytest.raises(ValueError):
            kernels.polarity_minima(n, index)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_facade_resolves_every_guard(impl, monkeypatch):
    from bfforms import kernels

    monkeypatch.setattr(kernels, "_impl", impl)
    # A NaN guard would never trip a deadline comparison.
    nan = float("nan")
    for call in (
        lambda: kernels.analyze_batch(6, [0x977E7EE97EE9E997], nan),
        lambda: kernels.analyze_counts(6, 0x977E7EE97EE9E997, nan),
        lambda: kernels.sweep_counts(3, 0, 8, nan),
    ):
        with pytest.raises(ValueError, match="NaN"):
            call()
    # A call without a guard follows the environment, and a guard of 0
    # aborts any non-constant function.
    monkeypatch.setenv("BFFORMS_GUARD_SECS", "0")
    for call in (
        lambda: kernels.analyze_batch(5, [0x12345678]),
        lambda: kernels.analyze_counts(5, 0x12345678),
        lambda: kernels.sweep_counts(3, 0, 8),
    ):
        with pytest.raises(GuardTimeoutError):
            call()
    assert kernels.analyze_batch(5, [0, (1 << 32) - 1]) == [(0,) * 9, (1, 0, 0) * 3]
    assert kernels.analyze_counts(5, 0) == (0,) * 9


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_facade_checks_the_whole_batch_first(impl, monkeypatch):
    # A bad index anywhere in a batch fails before the kernel starts, so no
    # partial answer comes back.
    from bfforms import kernels

    calls = []
    monkeypatch.setattr(kernels, "_impl", impl)
    monkeypatch.setattr(impl, "analyze_batch", lambda *args: calls.append(args))
    for batch in ([3, 1 << 8], [1 << 8, 3], [3, -1, 5]):
        with pytest.raises(ValueError):
            kernels.analyze_batch(3, batch)
    for start, stop in ((0, 257), (0, 2.5), (True, 3)):
        with pytest.raises(ValueError):
            kernels.sweep_counts(3, start, stop)
    assert calls == []


SANITIZER_CHILD = """
import sys
from pathlib import Path
sys.path.insert(0, {tests!r})
import test_kernels as tk
from bfforms import _kernels_c as c, _kernels_py as py
assert Path(c._PATH).parent == Path({copy!r}), c._PATH
for name in tk.GOLDEN_SOP_COUNTS_SETS:
    tk.test_analyze_batch_sop_matches_golden_digests(c, name)
tk.test_polarity_minima_match_golden_digests(c)
for n, count in ((1, 3000), (2, 3000), (3, 3000), (4, 3000), (5, 3000), (6, 300)):
    draws = tk.sample_uniform(n, count, seed=900 + n)
    assert c.analyze_batch(n, draws, 60.0) == py.analyze_batch(n, draws, 60.0), n
here, there = tk.small_stack_counts(c)
assert there == [here], (here, there)
# The early returns free what the call allocated.
for call, error in (
    (lambda: c.analyze_batch(6, [tk.GUARD_OVERRUN_CASE], 0.01), tk.GuardTimeoutError),
    (lambda: c.analyze_batch(3, [5, 0x1FF], 60.0), ValueError),
):
    try:
        call()
    except error:
        pass
    else:
        raise SystemExit(f"no {{error.__name__}}")
print("ok")
"""


@cache
def sanitizer_runtime() -> tuple[str, ...]:
    """gcc's ASan and UBSan runtimes, or () when either is missing."""
    if shutil.which("gcc") is None:
        return ()
    libs = []
    for name in ("libasan.so", "libubsan.so"):
        found = subprocess.run(
            ["gcc", f"-print-file-name={name}"], capture_output=True, text=True
        ).stdout.strip()
        if not os.path.isabs(found) or not os.path.exists(found):
            return ()
        libs.append(found)
    return tuple(libs)


@pytest.mark.skipif(not sanitizer_runtime(), reason="gcc has no ASan/UBSan runtime")
def test_compiled_kernel_under_sanitizers(tmp_path):
    # The C kernel built with AddressSanitizer and UndefinedBehaviorSanitizer
    # runs the golden digests, a differential against the pure twin, the
    # small-stack thread and the guard and bad-input returns.  The build
    # goes to a copy, so the library the other tests load stays as it is.
    src = Path(__file__).resolve().parent.parent / "src" / "bfforms"
    copy = tmp_path / "bfforms"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    library = copy / ("_ckernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        ["gcc", "-std=c99", "-Wall", "-Wextra", "-Werror",
         "-O1", "-g", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=undefined", "-shared", "-fPIC",
         "-o", str(library), str(copy / "_ckernel.c")],
        check=True, capture_output=True,
    )  # fmt: skip
    tests = str(Path(__file__).resolve().parent)
    code = SANITIZER_CHILD.format(tests=tests, copy=str(copy))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(tmp_path), tests]),
        LD_PRELOAD=" ".join(sanitizer_runtime()),
        ASAN_OPTIONS="detect_leaks=0",
    )
    env.pop("BFFORMS_PURE", None)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-4000:]
    assert result.stdout.strip() == "ok"
