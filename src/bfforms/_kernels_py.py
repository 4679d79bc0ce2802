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

The polarity side computes the extended vector of Davio, Deschamps and
Thayse (*Discrete and Switching Functions*, 1978): 3**n integers whose
base-3 index digit p picks, for variable p, the x_p=0 cofactor (0), the
x_p=1 cofactor (1) or their difference f1 - f0 (2).  The arithmetic
coefficient of monomial j under polarity k sits, up to sign, at the index
with digit 2 where bit p of j is set and bit p of k elsewhere; its parity
is the Reed-Muller coefficient.  So one O(n * 3**n) pass yields every
polarity's coefficients in both forms.  n more passes fold each digit into
a polarity bit, summing the nonzero-coefficient counts and their literal
counts per polarity for both forms at once.
"""

from __future__ import annotations

import time
from typing import Sequence

from .errors import GuardTimeoutError

BACKEND = "pure"

_LATTICE_CACHE: dict[int, tuple] = {}

# An extended-vector entry packed as four 8-bit fields, low to high: RM
# nonzero count, RM literals, arithmetic nonzero count, arithmetic literals.
# Counts reach 2**n = 64 and literal sums n * 2**(n-1) = 192 at n = 6.
# Entries lie in -32..32 at n <= 6; negative ones index from the end.
_PACK = [(e & 1) | (e != 0) << 16 for e in [*range(33), *range(-32, 0)]]
_COUNTS = 0xFF | 0xFF << 16


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
    result = (covers, lits, parents, full)
    _LATTICE_CACHE[n] = result
    return result


def _prime_ids(n: int, on: int) -> list[int]:
    """Lattice ids, ascending, of the prime implicants of the ``on`` mask.

    A cube is prime when it is an implicant (covers no off-set row) and
    none of its parents (the cubes with one literal fewer) is one.
    """
    covers, _, parents, full = _lattice(n)
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
    covers, lits, _, full = _lattice(n)
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


def polarity_minima(n: int, mask: int) -> tuple[int, ...]:
    """Per-criterion minima over all polarities of both polynomial forms.

    Returns (rm_ad, rm_sh, rm_l, af_ad, af_sh, af_l): the minimum summands,
    conjunction-summands and literals of the Reed-Muller and then the
    arithmetic form.  The three minima of a form may come from different
    polarities.  Holds for n <= 6, the range ``_PACK`` and its fields cover.
    """
    # Each pass turns the lowest remaining row bit into the next digit.
    v = [(mask >> x) & 1 for x in range(1 << n)]
    for _ in range(n):
        lo = v[0::2]
        hi = v[1::2]
        v = lo + hi + [h - l for l, h in zip(lo, hi)]
    v = [_PACK[e] for e in v]
    # Fold digit p: digits 0 and 1 become polarity bit p, and digit 2 (x_p
    # in the monomial) joins both, each of its monomials one literal longer.
    for _ in range(n):
        d2 = [t + ((t & _COUNTS) << 8) for t in v[2::3]]
        v = [t + u for t, u in zip(v[0::3], d2)] + [
            t + u for t, u in zip(v[1::3], d2)
        ]
    # Under polarity k the constant coefficient is f(k) in both forms.
    minima: list[int] = []
    for shift in (0, 16):
        ad = [(t >> shift) & 0xFF for t in v]
        minima += [
            min(ad),
            min(a - ((mask >> k) & 1) for k, a in enumerate(ad)),
            min((t >> shift + 8) & 0xFF for t in v),
        ]
    return tuple(minima)


def rm_minima(n: int, mask: int) -> tuple[int, int, int]:
    """The Reed-Muller half of :func:`polarity_minima`."""
    return polarity_minima(n, mask)[:3]


def arith_minima(n: int, mask: int) -> tuple[int, int, int]:
    """The arithmetic half of :func:`polarity_minima`."""
    return polarity_minima(n, mask)[3:]


def analyze_counts(n: int, index: int, guard_s: float = 60.0) -> tuple[int, ...]:
    """Nine cost counts for one function index.

    Layout: (cfr_terms, cfr_conjunctions, cfr_literals,
             rm_min_ad, rm_min_sh, rm_min_l,
             af_min_ad, af_min_sh, af_min_l).
    """
    terms, literals = min_sop_counts(n, index, guard_s)
    full = (1 << (1 << n)) - 1
    conj = terms - 1 if index == full else terms
    return (terms, conj, literals) + polarity_minima(n, index)


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
