"""Pure-Python sweep kernels.

Semantics twin of the compiled ``bfforms._kernels_c``, the C file
``_ckernel.c`` loaded through ctypes.  Both export the same two batch
entries, which ``bfforms.kernels`` calls: ``analyze_batch`` gives each
function index the nine cost counts that drive every sweep statistic
(minimal SOP terms/conjunctions/literals, then per-criterion minima over
all polarities for the Reed-Muller and arithmetic forms), and
``polarity_minima_batch`` the polynomial minima alone.
Truth tables are plain integers, bit ``x`` = value on row ``x``.

The SOP side has two front ends, which find the same primes among the
3**n ternary cubes, both with the cube ids of ``_lattice``.  One function
at a time (``min_sop_counts``, the reference the tests check the batch
path against, and ``sop.minimize_sop``), ``_prime_ids`` marks the
implicants in one integer with one bit per lattice id, so each filtering
step is a shift by a power of 3 and a mask over all cubes at once.

``analyze_batch``, the path of ``bfforms sweep`` and ``sample``, works on
the whole batch in bit planes (``_sop_planes``): one integer per row or
per cube, with bit i for the i-th function.  An AND butterfly over the
row planes gives each cube's implicant plane; a cube is prime when no
parent (one digit turned 0, the variable absent) is an implicant.  Two
planes per row count the primes that hold it, saturating at two: "at
least once" is an OR of the primes, and "at least twice" also takes the
AND of the two sides each time an absent digit is pushed down onto its
x_p = 0 and x_p = 1 halves.  A prime that holds a row covered once is
essential.  A function whose essentials leave rows uncovered, all of them
in one more prime, takes the cheapest such prime: one term beats any
completion of two.  In a batch of 512 functions or more, one round of the
cyclic core's reductions below then runs in the planes for the whole
batch (a narrower one would spend more on it than it saves): the
dominated residual primes are dropped, from a per-n table of the cube
pairs that can dominate, and a prime left alone on an uncovered row is
taken.  The cost of the primes taken is summed in the planes too.  One transpose back then gives each
function that cost, its uncovered rows and the other primes that meet
them, and only a function with rows still uncovered runs the cover
search, on those primes: about three draws in ten at n=5.

The exact cover search reduces the prime table to its cyclic core
(McCluskey, 1956) and searches the core:

- essential primes come from two bit planes folded over the prime masks,
  the rows covered once and the rows covered twice;
- dominated primes (another covers a superset of the rows still uncovered
  with no more literals) are dropped, and essentials are taken again,
  until neither step changes anything;
- branch-and-bound prunes a node whose uncovered rows were already
  reached at no higher cost (a transposition table).

The search takes one integer cost per prime and returns the least total
cost and the chosen primes' positions.  The count path gives a prime
_TERM + literals and splits the result with divmod; ``sop.minimize_sop``
adds a tie-break weight per prime (its docstring says why that is exact).

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

That pass uses only add, subtract, mask and shift, so it runs on many
functions at once, one per 32-bit lane of a Python integer (lane i is bits
32i..32i+31).  While the transform runs, a lane's low byte holds the entry
plus a bias of 64.  Entries lie in -32..32 at n <= 6, so every lane stays
within 32..96: no carry or borrow crosses into the next lane.  Each lane
then becomes four 8-bit fields, low to high: Reed-Muller nonzero count,
Reed-Muller literals, arithmetic nonzero count, arithmetic literals.
Counts reach 2**n = 64 and literal sums n * 2**(n-1) = 192 at n = 6, and
the fold only adds, so no field overflows either.

The minima over all polarities take no per-byte loop.  The even and the
odd fields move to 16-bit slots, where bit 8 is free, and a pairwise tree
of packed compares (Lamport, "Multiple byte processing with full-word
instructions", 1975) takes the least of every slot at once: bit 8 of a
slot of (a | 0x100) - b is set exactly when a >= b.  A group's six minima
per lane are then three byte strings read with strides.
"""

from __future__ import annotations

import time
from functools import cache
from typing import NamedTuple, Sequence

from .errors import GuardTimeoutError

BACKEND = "pure"

# Functions per lane-parallel polarity pass.  An integer operation costs
# less per lane the wider it is, and the packed minima cost the same per
# lane at any width.  Past 256 lanes a pass over 4,096 n=5 functions
# saved under 2 ms more, while the pass's transient integers, about
# 0.8 MB at 256 lanes, grow with the width.
_LANES = 256

# Per lane: the count fields of both forms, and the bias as low byte.
_COUNTS = 0xFF | 0xFF << 16
_BIAS = 64

# On the count path a prime costs _TERM + literals.  Literals stay below
# _TERM (at most 6 per term, 64 terms), so costs order as (terms, literals).
_TERM = 1 << 10

# The cover search's transposition table is cleared past this many entries:
# a lossy table only prunes less, and memory stays bounded.
_SEEN_LIMIT = 1 << 16


class Lattice(NamedTuple):
    """Static tables over the 3**n ternary cubes of n variables.

    Cube id digits (base 3, digit p of weight 3**p for row-bit position p):
    0 = variable absent, 1 = negative literal, 2 = positive literal.  Per
    cube id: ``covers`` its rows and ``lits`` its literal count.  ``full``
    is the mask of all 2**n rows and ``minterm[x]`` the id of the cube of
    row x alone.  Per variable p, ``absent[p]`` is the bit mask of the ids
    whose digit p is 0.
    """

    covers: list[int]
    lits: list[int]
    full: int
    minterm: list[int]
    absent: list[int]


@cache
def _lattice(n: int) -> Lattice:
    """The cube tables of n variables, computed once per n.

    Each variable triples the cubes built so far, as absent, negative and
    positive; so does every id mask.
    """
    full = (1 << (1 << n)) - 1
    covers = [full]
    lits = [0]
    minterm = [0]
    absent: list[int] = []
    size = 1
    for p in range(n):
        # Rows with x_p = 0: runs of 2**p ones every 2**(p+1) rows.
        zero = full // ((1 << (1 << p)) + 1)
        covers += [c & zero for c in covers] + [c & ~zero for c in covers]
        lits += [lit + 1 for lit in lits] * 2
        minterm = [c + size for c in minterm] + [c + 2 * size for c in minterm]
        absent = [m | m << size | m << 2 * size for m in absent]
        absent.append((1 << size) - 1)
        size *= 3
    return Lattice(covers, lits, full, minterm, absent)


def _prime_ids(n: int, on: int) -> list[int]:
    """Lattice ids, ascending, of the prime implicants of the ``on`` mask.

    A cube is prime when it is an implicant (covers no off-set row) and
    none of its parents (the cubes with one literal fewer) is one.
    """
    lat = _lattice(n)
    imp = 0
    for c, bit in zip(lat.minterm, bin(on)[:1:-1]):
        if bit == "1":
            imp |= 1 << c
    # Digit p of a cube is 0 where both its digit-1 and digit-2 children
    # are implicants; after pass p that holds for digits 0..p.
    for p, z in enumerate(lat.absent):
        step = 3**p
        imp |= imp >> step & imp >> 2 * step & z
    # Mark each implicant's children: they have an implicant parent.
    has_parent = 0
    for p, z in enumerate(lat.absent):
        step = 3**p
        top = imp & z
        has_parent |= top << step | top << 2 * step
    bits = bin(imp & ~has_parent)[:1:-1]
    primes = []
    c = bits.find("1")
    while c >= 0:
        primes.append(c)
        c = bits.find("1", c + 1)
    return primes


def _cyclic_core(
    cand: list[tuple[int, int, int]], uncov: int
) -> tuple[list[tuple[int, int, int]], int, int, list[int]]:
    """(candidates, uncovered rows, cost taken, positions taken).

    ``cand`` holds (rows, cost, position) per prime, positions ascending.
    Two steps repeat until the candidates stop changing:

    - essentials: a candidate that alone covers some uncovered row is in
      every cover drawn from the candidates, so it is taken;
    - dominance: a candidate is dropped when another covers a superset of
      its uncovered rows at no higher cost (of two identical ones the
      later goes).  Swapping a dominated prime for its dominator adds no
      cost, so an optimal cover survives.

    Taking essentials leaves the other rows' covering counts unchanged, so
    only a dominance drop can make new ones; a round without drops is the
    fixed point.  Returned candidates hold only their uncovered rows.
    """
    cost = 0
    taken = []
    while True:
        # Rows covered at least once and at least twice, as two bit planes.
        once = twice = 0
        for cov, _, _ in cand:
            twice |= once & cov
            once |= cov
        sole = once & ~twice & uncov
        if sole:
            for cov, step, pos in cand:
                if cov & sole:
                    cost += step
                    taken.append(pos)
                    uncov &= ~cov
            if not uncov:
                return [], 0, cost, taken
        cand = [(rows, step, pos) for cov, step, pos in cand if (rows := cov & uncov)]
        kept = []
        for c in cand:
            ci, wi, pi = c
            for cj, wj, pj in cand:
                if ci & cj == ci and wj <= wi and (pj < pi or cj != ci or wj < wi):
                    break
            else:
                kept.append(c)
        if len(kept) == len(cand):
            return cand, uncov, cost, taken
        cand = kept


def _least_cost_cover(
    cand: list[tuple[int, int, int]], on: int, deadline: float
) -> tuple[int, list[int]]:
    """(least total cost, chosen positions) of a prime cover of ``on``.

    ``cand`` holds (rows, positive cost, position) per prime, positions
    ascending.  A row of ``on`` in no prime raises ValueError.
    """
    cand, uncov, cost, taken = _cyclic_core(cand, on)
    if not uncov:
        return cost, taken

    # Candidates are fixed for the search, so each uncovered row's count of
    # them is too: order the rows once by (count, row), each with the
    # (rows, cost, position) of the candidates that cover it.
    order = []
    m = uncov
    while m:
        row = m & -m
        m ^= row
        covering = [c for c in cand if c[0] & row]
        if not covering:
            raise ValueError("on-set rows outside every prime implicant")
        order.append((len(covering), row, covering))
    order.sort(key=lambda entry: entry[:2])
    # Any completion costs at least one more candidate.
    least = min(step for _, step, _ in cand)

    # The search starts unbounded: its first leaf sets the bound.
    best = [float("inf"), None]
    nodes = [0]
    # Transposition table: the least cost at which each uncovered set was
    # reached.  Reaching it again at no lower cost adds nothing, since every
    # completion adds the same cost to both.
    seen: dict[int, int] = {}

    # ``path`` links the positions chosen so far as (position, parent).
    def rec(uncov: int, cost: int, path) -> None:
        nodes[0] += 1
        # Every 1,024 nodes: at n=6 that is a few ms of work between checks.
        if nodes[0] & 0x3FF == 0:
            if time.monotonic() > deadline:
                raise GuardTimeoutError(
                    "SOP count minimization exceeded its time guard"
                )
            if len(seen) > _SEEN_LIMIT:
                seen.clear()
        if not uncov:
            if cost < best[0]:
                best[0] = cost
                best[1] = path
            return
        if cost + least >= best[0]:
            return
        old = seen.get(uncov)
        if old is not None and old <= cost:
            return
        seen[uncov] = cost
        # Branch on the uncovered row with the fewest covering candidates.
        for _, row, covering in order:
            if uncov & row:
                break
        for cov, step, pos in covering:
            rec(uncov & ~cov, cost + step, (pos, path))

    try:
        rec(uncov, cost, None)
    finally:
        # rec refers to itself, and the cycle keeps the table alive until
        # the garbage collector runs: free it now.
        seen.clear()
    cost, path = best
    while path is not None:
        pos, path = path
        taken.append(pos)
    return cost, taken


def _guarded_primes(n: int, on: int, guard_s: float) -> tuple[list[int], float]:
    """(prime ids, deadline) for a cover search of the ``on`` mask.

    A guard of 0 or less aborts any non-constant function at once; a
    constant one is covered without branching and still gets its answer.
    """
    if guard_s <= 0 and 0 < on < _lattice(n).full:
        raise GuardTimeoutError("SOP count minimization exceeded its time guard")
    deadline = time.monotonic() + guard_s
    return _prime_ids(n, on), deadline


def min_sop_counts(n: int, on: int, guard_s: float) -> tuple[int, int]:
    """(terms, literals) of the exact minimum SOP cover of the ``on`` mask."""
    lat = _lattice(n)
    primes, deadline = _guarded_primes(n, on, guard_s)
    cand = [(lat.covers[c], _TERM + lat.lits[c], r) for r, c in enumerate(primes)]
    return divmod(_least_cost_cover(cand, on, deadline)[0], _TERM)


def polarity_minima_batch(n: int, masks: Sequence[int]) -> list[tuple[int, ...]]:
    """Per-criterion minima over all polarities of both polynomial forms.

    Per mask: (rm_ad, rm_sh, rm_l, af_ad, af_sh, af_l), the minimum
    summands, conjunction-summands and literals of the Reed-Muller and then
    the arithmetic form.  The three minima of a form may come from
    different polarities.  Holds for n <= 6, the range the lane fields
    cover.  Each group of ``_LANES`` masks shares one pass, one lane per
    mask; the module docstring gives the lane layout.
    """
    rows = 1 << n
    out: list[tuple[int, ...]] = []
    for start in range(0, len(masks), _LANES):
        group = masks[start : start + _LANES]
        ones = int.from_bytes(b"\x01\0\0\0" * len(group), "little")
        bias = ones * _BIAS
        # Row plane x: f(x) of every function, as bit 0 of its lane.
        planes = []
        for s in range(0, rows, 32):
            word = b"".join((m >> s & 0xFFFFFFFF).to_bytes(4, "little") for m in group)
            word = int.from_bytes(word, "little")
            planes += [word >> x & ones for x in range(min(32, rows))]
        # Each pass turns the lowest remaining row bit into the next digit.
        v = [t + bias for t in planes]
        for _ in range(n):
            lo = v[0::2]
            hi = v[1::2]
            v = lo + hi + [h + bias - l for l, h in zip(lo, hi)]
        # The RM-count bit is the entry's parity (the bias is even).  The
        # arithmetic-count bit is set when the entry is nonzero: t ^ bias
        # lies in 1..127 then, and adding 0x7F carries into bit 7, which
        # moves up to bit 16.
        high = ones * 0x7F
        carry = ones << 7
        v = [t & ones | ((t ^ bias) + high & carry) << 9 for t in v]
        # Fold digit p: digits 0 and 1 become polarity bit p, and digit 2
        # (x_p in the monomial) joins both, each of its monomials one
        # literal longer.
        counts = ones * _COUNTS
        for _ in range(n):
            d2 = [t + ((t & counts) << 8) for t in v[2::3]]
            v = [t + u for t, u in zip(v[0::3], d2)] + [
                t + u for t, u in zip(v[1::3], d2)
            ]
        # Per-lane minima over all polarities.  The even and the odd fields
        # move to 16-bit slots, and a tree of packed compares takes the
        # minimum of all slots at once.  A slot of d = (a | high) - b holds
        # a - b + 256, so bit 8 is set when a >= b; spread to the low 8 bits,
        # it selects a - b, and a less that is b.  Under polarity k the
        # constant coefficient is f(k) in both forms, so the counts are at
        # least f(k) and subtracting it borrows nothing.
        high = ones * 0x1000100

        def pick(a: int, b: int) -> int:
            d = (a | high) - b
            ge = d & high
            return a - (d & (ge - (ge >> 8)))

        def least(w: list[int]) -> bytes:
            while len(w) > 1:
                w = list(map(pick, w[0::2], w[1::2]))
            return w[0].to_bytes(4 * len(group), "little")

        even = least([t & counts for t in v])
        odd = least([t >> 8 & counts for t in v])
        sh = least([(t - f * 0x10001) & counts for t, f in zip(v, planes)])
        out += zip(even[0::4], sh[0::4], odd[0::4], even[2::4], sh[2::4], odd[2::4])
    return out


def rm_minima(n: int, mask: int) -> tuple[int, int, int]:
    """The Reed-Muller half of one mask's :func:`polarity_minima_batch` row."""
    return polarity_minima_batch(n, [mask])[0][:3]


def arith_minima(n: int, mask: int) -> tuple[int, int, int]:
    """The arithmetic half of one mask's :func:`polarity_minima_batch` row."""
    return polarity_minima_batch(n, [mask])[0][3:]


def analyze_batch(
    n: int, indices: Sequence[int], guard_s: float
) -> list[tuple[int, ...]]:
    """Nine cost counts per function index, in order.

    Layout: (cfr_terms, cfr_conjunctions, cfr_literals,
             rm_min_ad, rm_min_sh, rm_min_l,
             af_min_ad, af_min_sh, af_min_l).

    Both sides run on the whole sequence at once: the polarity minima in
    lane-parallel passes, and the SOP essentials, one-term completions and
    dominance pass in bit planes (:func:`_sop_planes.partial_covers`).
    Only a function with rows still uncovered gets a cover search of its
    own, under its own ``guard_s`` deadline.
    """
    # Imported here: ``sop.minimize_sop``, the one-function path of
    # ``bfforms analyze``, runs this module's cover search but no planes.
    from . import _sop_planes

    lat = _lattice(n)
    if guard_s <= 0 and any(0 < index < lat.full for index in indices):
        raise GuardTimeoutError("SOP count minimization exceeded its time guard")
    costs = [_TERM + lit for lit in lat.lits]
    cands = list(zip(lat.covers, costs, range(len(costs))))
    out = []
    for index, (cost, resid, uncov), minima in zip(
        indices,
        _sop_planes.partial_covers(n, indices, costs),
        polarity_minima_batch(n, indices),
    ):
        if uncov:
            cand = []
            while resid:
                low = resid & -resid
                resid ^= low
                cand.append(cands[low.bit_length() - 1])
            cost += _least_cost_cover(cand, uncov, time.monotonic() + guard_s)[0]
        terms, literals = divmod(cost, _TERM)
        conj = terms - 1 if index == lat.full else terms
        out.append((terms, conj, literals) + minima)
    return out
