"""NP classes of the Boolean functions of up to four variables.

Two functions share an NP class when one becomes the other by permuting
and complementing its inputs (Harrison, *Introduction to Switching and
Automata Theory*, 1965).  Every count the sweep kernel returns is
invariant under that group: a permuted or complemented input maps prime
implicants to prime implicants with the same literal counts, and maps each
polarity's Reed-Muller and arithmetic monomials to those of another
polarity, with the same degrees and the same constant term.  An exhaustive
sweep therefore needs the kernel once per class: 3, 6, 22 and 402 classes
for n = 1..4, against 4, 16, 256 and 65,536 functions.

The classes are the orbits of n generators: the n-1 swaps of adjacent
inputs and the complement of x_0.  Each generator is an involution on the
rows, and it acts on a truth-table index through one lookup table per
byte of the table.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache

from .truthtable import _is_int

_UNSEEN = 0xFFFF


@dataclass(frozen=True)
class NpClasses:
    """The NP classes of all 2**2**n functions of n variables.

    Classes are numbered by their least function index, which is their
    representative.  ``class_of[index]`` is the class of a function and
    ``sizes[c]`` the number of functions in class ``c``.
    """

    class_of: array
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]


def _generator_rows(n: int) -> list[list[int]]:
    """Row maps of the generators: complement x_0, then swap x_p, x_p+1."""
    rows = range(1 << n)
    maps = [[x ^ 1 for x in rows]]
    for p in range(n - 1):
        maps.append(
            [x ^ (0b11 << p) if (x >> p ^ x >> p + 1) & 1 else x for x in rows]
        )
    return maps


def _byte_tables(n: int, row_map: list[int]) -> tuple[list[int], list[int]]:
    """Lookup tables for the low and the high byte of a truth table.

    Row ``x`` of the image is row ``row_map[x]`` of the function; as
    ``row_map`` is an involution, bit ``x`` of the function moves to bit
    ``row_map[x]``.  Tables of at most 8 rows have no high byte, so its
    table maps the only value, 0, to 0.
    """
    tables = []
    for base in (0, 8):
        width = min(8, max(0, (1 << n) - base))
        tables.append([
            sum(1 << row_map[base + j] for j in range(width) if v >> j & 1)
            for v in range(1 << width)
        ])
    return tables[0], tables[1]


@cache
def np_classes(n: int) -> NpClasses:
    """The NP classes of n variables, computed once per n (1 <= n <= 4)."""
    if not _is_int(n) or not 1 <= n <= 4:
        raise ValueError(f"NP classes are enumerated for n in 1..4, got {n!r}")
    tables = [_byte_tables(n, m) for m in _generator_rows(n)]
    class_of = array("H", [_UNSEEN]) * (1 << (1 << n))
    representatives: list[int] = []
    sizes: list[int] = []
    for first in range(len(class_of)):
        if class_of[first] != _UNSEEN:
            continue
        # Indices are visited in ascending order, so the first one of each
        # orbit met here is its least index.
        c = len(representatives)
        representatives.append(first)
        class_of[first] = c
        stack = [first]
        size = 1
        while stack:
            f = stack.pop()
            lo, hi = f & 0xFF, f >> 8
            for lo_table, hi_table in tables:
                g = lo_table[lo] | hi_table[hi]
                if class_of[g] == _UNSEEN:
                    class_of[g] = c
                    stack.append(g)
                    size += 1
        sizes.append(size)
    return NpClasses(class_of, tuple(representatives), tuple(sizes))
