"""Bit-sliced SOP front end: primes and essential primes of many functions.

``_kernels_py.analyze_batch`` runs it once per batch; the ``_kernels_py``
module docstring gives the plane layout and the once/twice row counts.
Each plane is one integer with bit i for the i-th function of the batch,
and one transpose back per batch hands each function its share.  Cube ids
are those of ``_kernels_py._lattice``: digit p, of weight 3**p, is 0 for
x_p absent, 1 for x_p = 0 and 2 for x_p = 1.

After the essentials, a one-term stage completes every cover that a
single residual prime completes.  A residual prime holds every uncovered
row of its function when no uncovered row lies outside it, and the rows
outside a cube are those outside one of its literals: each cube's plane
of "an uncovered row outside" is an OR over its literals of the
opposite half-cube's rows, built by tripling like the lattice.

Then, in a batch wide enough to pay for it (``_PASS_WIDTH``), a dominance
pass runs one round of the cyclic core's reductions
(``_kernels_py._cyclic_core``) on every function at once.  Residual cube
c2 dominates c1 where c1 has no uncovered row outside c2 and c2 costs no
more (at equal cost, with the lower id or an uncovered row outside c1).
Two such cubes meet in a subcube m, and c1's rows outside c2 are those of
its escapes, c1 with the opposite of one literal that m adds: so the test
is an OR of the escapes' "meets an uncovered row" planes.  The pairs that
can dominate come from a table built once per n (:func:`_dominance`).
After the drops, a residual cube alone on an uncovered row is taken, as
an essential is.  The taken cubes' costs are then summed in bit-sliced
planes, so only that sum, not the cubes, goes back to each function.
"""

from __future__ import annotations

from array import array
from functools import cache, reduce
from itertools import combinations, product, repeat
from operator import and_, or_, xor
from typing import Iterable, Iterator, NamedTuple, Sequence

# Dominance passes per batch, and the fewest functions a batch needs to
# run them.  A pass costs the same at any width, one step per cube pair
# (7,200 at n=5), and saves a cover search per function it completes.  On
# 3 x 4,096 n=5 draws one pass left 1,224, 1,202 and 1,235 functions for a
# cover search and two passes 538, 539 and 567, but the kernel took as
# long either way (51-55 ms a sample): a second pass pays for every pair
# again to finish a few functions.  Per function, one pass cost more than
# it saved in batches of 256 at n=4, 5 and 6, broke even near 384 and
# saved at every n from 512 on.
_PASSES = 1
_PASS_WIDTH = 512


def _repeat(pattern: int, period: int, width: int) -> int:
    """``pattern`` (``period`` bits) repeated to fill ``width`` bits."""
    while period < width:
        pattern |= pattern << period
        period *= 2
    return pattern


def _swap_mask(j: int) -> int:
    """The bits (r, c) of a 64 x 64 square, row r at bits 64r..64r+63,
    with bit j of c set and bit j of r clear."""
    row = _repeat(((1 << j) - 1) << j, 2 * j, 64)
    rows = _repeat(row, 64, 64 * j)  # rows 0..j-1
    return _repeat(rows, 128 * j, 4096)  # and again every 2j rows


# The six delta swaps of a 64 x 64 bit-matrix transpose: swap j moves each
# bit of its mask to its partner (r + j, c - j), 63 * j bits higher, and
# back.
_SWAPS = [(63 * j, _swap_mask(j)) for j in (32, 16, 8, 4, 2, 1)]


def transpose(rows: Sequence[int], width: int) -> Iterator[int]:
    """The first ``width`` columns of a bit matrix held one row per integer.

    Bit r of column j is bit j of ``rows[r]``.  The matrix is cut into
    64 x 64 squares; each is transposed by the delta swaps of ``_SWAPS``,
    and memoryview strides regroup the squares' 64-bit words into columns.
    The rows are read at once; the columns are built as they are taken.
    """
    words = -(-width // 64)
    blocks = -(-len(rows) // 64)
    src = bytearray(512 * words * blocks)
    packed = b"".join(row.to_bytes(8 * words, "little") for row in rows)
    src[: len(packed)] = packed
    src_words = memoryview(src).cast("Q")
    dst = bytearray(len(src))
    dst_words = memoryview(dst).cast("Q")
    for a in range(blocks):
        for b in range(words):
            start = 64 * words * a + b
            sq = int.from_bytes(src_words[start : start + 64 * words : words], "little")
            for shift, mask in _SWAPS:
                t = (sq >> shift ^ sq) & mask
                sq ^= t ^ t << shift
            # Word c of the square is now rows 64a.. of column 64b + c.
            start = 64 * blocks * b + a
            dst_words[start : start + 64 * blocks : blocks] = memoryview(
                sq.to_bytes(512, "little")
            ).cast("Q")
    col = 8 * blocks
    return (int.from_bytes(dst[col * j : col * j + col], "little") for j in range(width))


def _up(v: list[int], n: int, op) -> list[int]:
    """Cube planes from row planes: each cube folds ``op`` over its rows."""
    for _ in range(n):
        lo = v[0::2]
        hi = v[1::2]
        v = list(map(op, lo, hi)) + lo + hi
    return v


def _down(v: list[int], n: int) -> list[int]:
    """Row planes from cube planes: each row ORs the cubes that hold it."""
    for _ in range(n):
        t = len(v) // 3
        top = v[:t]
        w = v[t:]
        w[0::2] = map(or_, v[t : 2 * t], top)
        w[1::2] = map(or_, v[2 * t :], top)
        v = w
    return v


def _primes(imp: list[int], n: int) -> list[int]:
    """Implicant planes less those with an implicant parent.

    Rotating digit 0 to the top n times puts every digit on top once and
    restores the order.  On top, a 1 or 2 cube's parent is its 0 cube.
    """
    t = len(imp) // 3
    parent = [0] * len(imp)
    for _ in range(n):
        imp = imp[0::3] + imp[1::3] + imp[2::3]
        parent = parent[0::3] + parent[1::3] + parent[2::3]
        top = imp[:t]
        parent = (
            parent[:t]
            + list(map(or_, parent[t : 2 * t], top))
            + list(map(or_, parent[2 * t :], top))
        )
    return [i & ~h for i, h in zip(imp, parent)]


def _sole(prime: list[int], n: int) -> list[int]:
    """Row planes of the rows that exactly one prime holds.

    Pushed down with the primes: the rows held at least once and at least
    twice, each absent-digit cube joining both halves of its digit.
    """
    once = prime
    twice = [0] * len(prime)
    for _ in range(n):
        t = len(once) // 3
        o2 = once[:t]
        w2 = twice[:t]
        new_once = once[t:]
        new_twice = twice[t:]
        for d in (1, 2):
            o = once[d * t : d * t + t]
            w = twice[d * t : d * t + t]
            new_once[d - 1 :: 2] = map(or_, o, o2)
            new_twice[d - 1 :: 2] = [a | b | c & e for a, b, c, e in zip(w, w2, o, o2)]
        once = new_once
        twice = new_twice
    return [o & ~w for o, w in zip(once, twice)]


def _planes(n: int, masks: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """Planes of the essential primes, the residual cubes and the uncovered
    rows."""
    rows = list(transpose(masks, 1 << n))
    prime = _primes(_up(rows, n, and_), n)
    ess = list(map(and_, prime, _up(_sole(prime, n), n, or_)))
    uncov = [r & ~c for r, c in zip(rows, _down(ess, n))]
    # An essential cube's rows are all covered, so only the other primes
    # meet an uncovered row.
    resid = list(map(and_, prime, _up(uncov, n, or_)))
    return ess, resid, uncov


def _one_term(
    n: int, ess: list[int], resid: list[int], uncov: list[int], costs: Sequence[int]
) -> None:
    """Complete, in place, each cover that one residual prime completes.

    Such a prime holds every uncovered row of its function.  Of those, the
    one of least cost (then lowest id) joins the essential plane, and its
    function's uncovered and residual bits are cleared.
    """
    # outside[c]: the functions with an uncovered row outside cube c, an OR
    # over c's literals of the uncovered rows of the opposite half-cube.
    outside = [0]
    for p in range(n):
        zero = one = 0
        for r, u in enumerate(uncov):
            if r >> p & 1:
                one |= u
            else:
                zero |= u
        outside += [o | one for o in outside] + [o | zero for o in outside]
    pending = reduce(or_, uncov)
    done = 0
    for c in sorted(range(len(costs)), key=costs.__getitem__):
        hit = resid[c] & pending & ~outside[c]
        if hit:
            ess[c] |= hit
            pending ^= hit
            done |= hit
    if done:
        uncov[:] = [u & ~done for u in uncov]
        resid[:] = [c & ~done for c in resid]


class _Pairs(NamedTuple):
    """The dominance groups whose c1 has k literals and whose m has j more.

    Every group of one class has the same number of escapes, plain pairs
    and ties, and every c1 the same number of groups, so each array holds
    runs of one length and each step maps over whole arrays.
    """

    groups: int
    c1: array  # the cubes of k literals, ascending; each has a run of groups
    esc: array  # per group, its j escapes
    plain: array  # per group, the c2 that drop more than j of c1's literals
    tie: array  # per group, the c2 that drop exactly j
    need: array  # per tie, the group of (c2, m), or ``groups`` if c2 < c1


@cache
def _dominance(n: int) -> tuple[_Pairs, ...]:
    """The dominance groups of n variables, built once per n.

    A group is a cube c1 and a subcube m: c1 and literals L on j of c1's
    absent variables.  Its escapes, c1 and the opposite of one literal of
    L each, hold c1's rows outside m.  Its pairs are the cubes c2 with
    c1 & c2 = m and no more literals than c1: c2 has the literals L and
    all but at least j of c1's.  No other pair can dominate: a cube that
    contains another is never a prime beside it, and one that misses it
    holds none of its rows.  A tie, where c2 drops exactly j and so has
    c1's cost, dominates from a lower id as it is.  From a higher id it
    needs an uncovered row of c2 outside m, which the group (c2, m) of
    the same class tells.
    """
    weight = [3**p for p in range(n)]
    classes = []
    for k in range(1, n):
        c1s = [c for c in range(3**n) if sum(c // w % 3 > 0 for w in weight) == k]
        # drops[c1][d]: per set of d of c1's literals, the sum of their id
        # terms; c2 = m less one such sum drops those literals.
        drops = {}
        for c1 in c1s:
            lits = [c1 // w % 3 * w for w in weight if c1 // w % 3]
            drops[c1] = [list(map(sum, combinations(lits, d))) for d in range(k + 1)]
        for j in range(1, min(k, n - k) + 1):
            escapes = {}
            for c1 in c1s:
                free = [w for w in weight if not c1 // w % 3]
                for ws in combinations(free, j):
                    for ds in product((1, 2), repeat=j):
                        m = c1 + sum(d * w for d, w in zip(ds, ws))
                        escapes[c1, m] = [c1 + (3 - d) * w for d, w in zip(ds, ws)]
            where = {group: g for g, group in enumerate(escapes)}
            pairs = _Pairs(len(where), array("H", c1s), *(array("H") for _ in range(4)))
            for (c1, m), esc in escapes.items():
                pairs.esc.extend(esc)
                pairs.plain.extend([m - s for sums in drops[c1][j + 1 :] for s in sums])
                ties = [m - s for s in drops[c1][j]]
                pairs.tie.extend(ties)
                pairs.need.extend([where[c2, m] if c2 > c1 else len(where) for c2 in ties])
            classes.append(pairs)
    return tuple(classes)


def _runs(planes: Iterable[int], size: int) -> Iterator[int]:
    """The OR of each run of ``size`` consecutive planes."""
    planes = iter(planes)
    runs = planes
    for _ in range(size - 1):
        runs = map(or_, runs, planes)
    return runs


def _drop_dominated(n: int, resid: list[int], uncov: list[int], full: int) -> None:
    """Drop, in place, the residual cubes that another residual cube
    dominates; ``full`` has a bit for every function.

    c2 dominates c1 in a function where both are residual, c1 has no
    uncovered row outside c2, c2 costs no more and, at equal cost, has
    the lower id or an uncovered row outside c1: the rule of
    ``_kernels_py._cyclic_core``, applied to all pairs at once.
    """
    meet = _up(uncov, n, or_)
    get_meet = meet.__getitem__
    get_resid = resid.__getitem__
    drop = [0] * len(resid)
    for pairs in _dominance(n):
        count = pairs.groups
        # outside[g]: the functions where c1 has an uncovered row outside m.
        outside = list(_runs(map(get_meet, pairs.esc), len(pairs.esc) // count))
        outside.append(full)
        need = map(outside.__getitem__, pairs.need)
        hit = _runs(map(and_, map(get_resid, pairs.tie), need), len(pairs.tie) // count)
        if pairs.plain:
            plain = _runs(map(get_resid, pairs.plain), len(pairs.plain) // count)
            hit = map(or_, hit, plain)
        hit = map(and_, hit, map(xor, repeat(full), outside))
        for c1, h in zip(pairs.c1, _runs(hit, count // len(pairs.c1))):
            drop[c1] |= h
    resid[:] = [r ^ r & d for r, d in zip(resid, drop)]


def _dominance_pass(
    n: int, ess: list[int], resid: list[int], uncov: list[int], full: int
) -> None:
    """One round of the cyclic core's reductions, in place, for all
    functions at once.

    The dominated residual cubes go; a residual cube left alone on an
    uncovered row joins the essential plane, and the rows it holds are
    covered; the residual planes keep only the cubes that still meet an
    uncovered row.
    """
    _drop_dominated(n, resid, uncov, full)
    sole = _up(list(map(and_, _sole(resid, n), uncov)), n, or_)
    taken = list(map(and_, resid, sole))
    ess[:] = map(or_, ess, taken)
    uncov[:] = [u ^ u & c for u, c in zip(uncov, _down(taken, n))]
    resid[:] = map(and_, resid, _up(uncov, n, or_))


def _weighted_sum(planes: list[int], weights: Sequence[int]) -> list[int]:
    """Bit-sliced sum of ``weights[c]`` over the set bits of ``planes[c]``.

    Plane b of the result holds bit b of every function's sum.  Each weight
    bit ripples its plane up the sum as a carry chain.
    """
    total = [0] * sum(weights).bit_length()
    for plane, weight in zip(planes, weights):
        b = 0
        while plane and weight:
            if weight & 1:
                carry = plane
                k = b
                while carry:
                    carry, total[k] = total[k] & carry, total[k] ^ carry
                    k += 1
            weight >>= 1
            b += 1
    return total


def partial_covers(
    n: int, masks: Sequence[int], costs: Sequence[int]
) -> Iterator[tuple[int, int, int]]:
    """Per mask: (cost taken, residual cubes, uncovered rows).

    ``costs`` gives each cube's cost, rising with its literal count, any
    one cube costing less than any two.  The cubes taken are the essential
    primes, and one more residual prime where it covers every uncovered
    row (:func:`_one_term`): one term then beats any completion of two.
    In a batch of ``_PASS_WIDTH`` masks or more, ``_PASSES`` rounds of
    :func:`_dominance_pass` then drop dominated residual primes and take
    the essentials that this uncovers.  A function with no uncovered rows
    left has no residual cubes either, so only the others need a cover
    search.
    """
    ess, resid, uncov = _planes(n, masks)
    _one_term(n, ess, resid, uncov, costs)
    if len(masks) >= _PASS_WIDTH:
        for _ in range(_PASSES):
            _dominance_pass(n, ess, resid, uncov, (1 << len(masks)) - 1)
    total = _weighted_sum(ess, costs)
    width = len(total)
    low = (1 << width) - 1
    size = 3**n
    cubes = (1 << size) - 1
    rows = width + size
    return (
        (c & low, c >> width & cubes, c >> rows)
        for c in transpose(total + resid + uncov, len(masks))
    )
