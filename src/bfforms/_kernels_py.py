"""Pure-Python sweep kernels.

Semantics twin of the compiled ``bfforms._kernels`` extension: for one
function index it produces the nine cost counts that drive every sweep
statistic (minimal SOP terms/conjunctions/literals, then per-criterion
minima over all polarities for the Reed-Muller and arithmetic forms).
Truth tables are plain integers, bit ``x`` = value on row ``x``.

The SOP side enumerates the full ternary cube lattice (3**n cubes, each
with a precomputed row-coverage mask), keeps the prime implicants, selects
the essential ones, and finishes the cyclic core with branch-and-bound on
(term count, literal count).
"""

from __future__ import annotations

import time
from typing import Sequence

from .errors import GuardTimeoutError

BACKEND = "pure"

_LATTICE_CACHE: dict[int, tuple] = {}
_POPCOUNT: list[int] = [bin(j).count("1") for j in range(64)]


def _lattice(n: int):
    """Static tables over the 3**n ternary cubes of n variables.

    Cube id digits (base 3, digit p for row-bit position p):
    0 = variable absent, 1 = negative literal, 2 = positive literal.
    Returns (covers, literal_counts, parents, full_row_mask).
    """
    cached = _LATTICE_CACHE.get(n)
    if cached is not None:
        return cached
    rows = 1 << n
    full = (1 << rows) - 1
    pat0 = []
    for p in range(n):
        m = 0
        for x in range(rows):
            if not (x >> p) & 1:
                m |= 1 << x
        pat0.append(m)
    pow3 = [3**i for i in range(n + 1)]
    size = pow3[n]
    covers = [0] * size
    lits = [0] * size
    parents: list[tuple[int, ...]] = [()] * size
    for c in range(size):
        mask = full
        lc = 0
        par = []
        d = c
        for p in range(n):
            digit = d % 3
            d //= 3
            if digit == 1:
                mask &= pat0[p]
                lc += 1
                par.append(c - pow3[p])
            elif digit == 2:
                mask &= full ^ pat0[p]
                lc += 1
                par.append(c - 2 * pow3[p])
        covers[c] = mask
        lits[c] = lc
        parents[c] = tuple(par)
    result = (covers, lits, parents, full, pat0)
    _LATTICE_CACHE[n] = result
    return result


def _prime_ids(n: int, on: int) -> list[int]:
    """Lattice ids, ascending, of the prime implicants of the ``on`` mask.

    A cube is prime when it is an implicant (covers no off-set row) and
    none of its parents (the cubes with one literal fewer) is one.
    """
    covers, _, parents, full, _ = _lattice(n)
    off = full ^ on
    primes = []
    for c, cov in enumerate(covers):
        if cov & off:
            continue
        for q in parents[c]:
            if not covers[q] & off:
                break
        else:
            primes.append(c)
    return primes


def _min_cover(
    pcov: list[int],
    plit: list[int],
    on: int,
    deadline: float,
) -> tuple[int, int]:
    """Exact minimum (terms, literals) prime cover of the ``on`` rows."""
    nprimes = len(pcov)
    selected_terms = 0
    selected_lits = 0
    chosen = [False] * nprimes
    uncovered = on

    # Essential primes: sole cover of some still-uncovered row.  They sit
    # in every prime cover, so taking them preserves both optima.
    while uncovered:
        essentials = []
        m = uncovered
        while m:
            low = m & -m
            m ^= low
            hit = -1
            count = 0
            for i in range(nprimes):
                if pcov[i] & low:
                    count += 1
                    if count > 1:
                        break
                    hit = i
            if count == 1 and not chosen[hit]:
                essentials.append(hit)
        if not essentials:
            break
        for i in essentials:
            if chosen[i]:
                continue
            chosen[i] = True
            selected_terms += 1
            selected_lits += plit[i]
            uncovered &= ~pcov[i]

    if not uncovered:
        return selected_terms, selected_lits

    cand = [i for i in range(nprimes) if pcov[i] & uncovered and not chosen[i]]

    # Greedy cover seeds the branch-and-bound upper bound.
    g_unc = uncovered
    g_terms = selected_terms
    g_lits = selected_lits
    while g_unc:
        best_i = -1
        best_gain = 0
        for i in cand:
            gain = bin(pcov[i] & g_unc).count("1")
            if gain > best_gain:
                best_gain = gain
                best_i = i
        if best_i < 0:
            raise ValueError("on-set rows outside every prime implicant")
        g_unc &= ~pcov[best_i]
        g_terms += 1
        g_lits += plit[best_i]
    best = [g_terms, g_lits]

    nodes = [0]

    def rec(uncov: int, terms: int, lits: int) -> None:
        nodes[0] += 1
        # Every 1,024 nodes: at n=6 that is a few ms of work between checks.
        if nodes[0] & 0x3FF == 0 and time.monotonic() > deadline:
            raise GuardTimeoutError("SOP count minimization exceeded its time guard")
        if not uncov:
            if (terms, lits) < (best[0], best[1]):
                best[0] = terms
                best[1] = lits
            return
        # Any completion costs at least one more term and one more literal.
        if (terms + 1, lits + 1) >= (best[0], best[1]):
            return
        # Branch on the uncovered row with the fewest covering primes.
        pick = -1
        pick_count = nprimes + 1
        m = uncov
        while m:
            low = m & -m
            m ^= low
            count = 0
            for i in cand:
                if pcov[i] & low:
                    count += 1
                    if count >= pick_count:
                        break
            if count < pick_count:
                pick_count = count
                pick = low
                if count == 1:
                    break
        for i in cand:
            if pcov[i] & pick:
                rec(uncov & ~pcov[i], terms + 1, lits + plit[i])

    rec(uncovered, selected_terms, selected_lits)
    return best[0], best[1]


def min_sop_counts(n: int, on: int, guard_s: float = 60.0) -> tuple[int, int]:
    """(terms, literals) of the exact minimum SOP cover of the ``on`` mask."""
    covers, lits, _, full, _ = _lattice(n)
    if on == 0:
        return (0, 0)
    if on == full:
        return (1, 0)
    if guard_s <= 0:
        raise GuardTimeoutError("SOP count minimization exceeded its time guard")
    deadline = time.monotonic() + guard_s
    primes = _prime_ids(n, on)
    return _min_cover(
        [covers[c] for c in primes], [lits[c] for c in primes], on, deadline
    )


def rm_minima(n: int, mask: int) -> tuple[int, int, int]:
    """Per-criterion minima over all polarities of the Reed-Muller form.

    Returns (min summands, min conjunction-summands, min literals); the
    three minima may come from different polarities.
    """
    _, _, _, full, pat0 = _lattice(n)
    rows = 1 << n
    pop = _POPCOUNT
    best_ad = best_sh = best_l = None
    for k in range(rows):
        c = mask
        for p in range(n):
            stride = 1 << p
            lo_mask = pat0[p]
            if (k >> p) & 1:
                hi = ((c << stride) ^ c) & (full ^ lo_mask)
                c = ((c >> stride) & lo_mask) | hi
            else:
                c = (c ^ ((c & lo_mask) << stride)) & full
        ad = bin(c).count("1")
        sh = ad - (c & 1)
        l = 0
        w = c & ~1
        while w:
            j = (w & -w).bit_length() - 1
            w &= w - 1
            l += pop[j]
        if best_ad is None or ad < best_ad:
            best_ad = ad
        if best_sh is None or sh < best_sh:
            best_sh = sh
        if best_l is None or l < best_l:
            best_l = l
    return best_ad, best_sh, best_l


def arith_minima(n: int, mask: int) -> tuple[int, int, int]:
    """Same as :func:`rm_minima` for the arithmetic (integer) form."""
    rows = 1 << n
    pop = _POPCOUNT
    base = [(mask >> x) & 1 for x in range(rows)]
    best_ad = best_sh = best_l = None
    for k in range(rows):
        arr = base.copy()
        for p in range(n):
            stride = 1 << p
            neg = (k >> p) & 1
            for i in range(rows):
                if i & stride:
                    continue
                lo = arr[i]
                hi = arr[i | stride]
                if neg:
                    arr[i] = hi
                    arr[i | stride] = lo - hi
                else:
                    arr[i | stride] = hi - lo
        ad = sh = l = 0
        for j in range(rows):
            if arr[j]:
                ad += 1
                if j:
                    sh += 1
                    l += pop[j]
        if best_ad is None or ad < best_ad:
            best_ad = ad
        if best_sh is None or sh < best_sh:
            best_sh = sh
        if best_l is None or l < best_l:
            best_l = l
    return best_ad, best_sh, best_l


def analyze_counts(n: int, index: int, guard_s: float = 60.0) -> tuple[int, ...]:
    """Nine cost counts for one function index.

    Layout: (cfr_terms, cfr_conjunctions, cfr_literals,
             rm_min_ad, rm_min_sh, rm_min_l,
             af_min_ad, af_min_sh, af_min_l).
    """
    terms, literals = min_sop_counts(n, index, guard_s)
    full = (1 << (1 << n)) - 1
    conj = terms - 1 if index == full else terms
    rm = rm_minima(n, index)
    af = arith_minima(n, index)
    return (terms, conj, literals) + rm + af


def sweep_counts(
    n: int, start: int, stop: int, guard_s: float = 60.0
) -> list[tuple[int, ...]]:
    """analyze_counts over a contiguous index range."""
    return [analyze_counts(n, i, guard_s) for i in range(start, stop)]


def analyze_batch(
    n: int, indices: Sequence[int], guard_s: float = 60.0
) -> list[tuple[int, ...]]:
    """analyze_counts over an explicit index sequence (sampled sweeps)."""
    return [analyze_counts(n, i, guard_s) for i in indices]
