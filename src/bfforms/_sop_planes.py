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
opposite half-cube's rows, built by tripling like the lattice.  The
taken cubes' costs are then summed in bit-sliced planes, so only that
sum, not the cubes, goes back to each function.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Iterator, Sequence


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

    ``costs`` gives each cube's cost, any one cube costing less than any two.
    The cubes taken are the essential primes, and one more residual prime
    where it covers every uncovered row (:func:`_one_term`): one term then
    beats any completion of two.  Such a function has no residual cubes or
    uncovered rows left, so only the others need a cover search.
    """
    ess, resid, uncov = _planes(n, masks)
    _one_term(n, ess, resid, uncov, costs)
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
