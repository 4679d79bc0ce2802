"""Exact two-level SOP minimization: lattice primes + branch-and-bound.

The minimization objective is total and documented: fewest product terms,
then fewest literals, then the lexicographically least cube list under the
PLA-string order ('-' < '0' < '1', leftmost character is x_1).  The search
space for the tie-breaks is covers assembled from prime implicants, which
always contains a global optimum.

The prime implicants are filtered from the 3**n cube lattice of the sweep
kernels, which also gives each prime's row mask and literal count.  Their
ascending lattice ids are in cube-string order: a cube id has one base-3
digit per variable, x_1 the top one, and digits 0, 1, 2 stand for '-',
'0', '1', which ASCII orders the same way.  The kernel's exact cover
search then minimizes one integer cost per prime: of P primes, prime r
with l literals costs (1 << s1) + (l << s2) + (1 << P) - (1 << (P - 1 - r)),
where s2 = P + 7 and s1 = s2 + 9.  A cover has at most 64 terms and 384
literals, so its low fields sum below 2**s2 and its literals below 2**9:
covers order by (terms, literals) first.  Optimal covers have one size,
and of two sets of one size the one holding the smallest differing
position has the lower cost; it is the least cube list.  Distinct covers
have distinct costs, so the search's pruning keeps this unique optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels_py import _guarded_primes, _lattice, _least_cost_cover, _prime_ids
from .guard import resolve_guard
from .truthtable import Assignment, TruthTable, _is_int, _validate_n, product_string


@dataclass(frozen=True)
class Cube:
    """A product term.

    ``care`` and ``value`` are n-bit masks aligned with row-index bit
    positions (bit ``n - s`` belongs to variable ``x_s``): a set ``care``
    bit means the variable appears as a literal, and the matching
    ``value`` bit gives its polarity.  A cube with ``care == 0`` is the
    constant-1 term.
    """

    n: int
    care: int
    value: int

    def __post_init__(self) -> None:
        _validate_n(self.n)
        full = (1 << self.n) - 1
        if not (_is_int(self.care) and _is_int(self.value)):
            raise ValueError(f"cube masks must be ints, got {self.care!r}, {self.value!r}")
        if not 0 <= self.care <= full:
            raise ValueError(f"care mask {self.care:#x} out of range for n={self.n}")
        if self.value & ~self.care:
            raise ValueError("value bits outside the care mask")

    @classmethod
    def from_string(cls, n: int, s: str) -> Cube:
        if len(s) != n:
            raise ValueError(f"cube string {s!r} has length {len(s)}, expected {n}")
        care = value = 0
        for i, ch in enumerate(s):
            p = n - 1 - i
            if ch == "1":
                care |= 1 << p
                value |= 1 << p
            elif ch == "0":
                care |= 1 << p
            elif ch != "-":
                raise ValueError(f"invalid cube character {ch!r}")
        return cls(n, care, value)

    def to_string(self) -> str:
        chars = []
        for i in range(self.n):
            p = self.n - 1 - i
            if not (self.care >> p) & 1:
                chars.append("-")
            else:
                chars.append("1" if (self.value >> p) & 1 else "0")
        return "".join(chars)

    @property
    def literal_count(self) -> int:
        return bin(self.care).count("1")

    def covers_row(self, row: int) -> bool:
        return (row & self.care) == self.value

    def cover_mask(self) -> int:
        """Bitmask over row indices covered by this cube."""
        free = ((1 << self.n) - 1) ^ self.care
        mask = 0
        sub = 0
        while True:
            mask |= 1 << (self.value | sub)
            if sub == free:
                break
            sub = (sub - free) & free
        return mask

    def __str__(self) -> str:
        return product_string(self.n, self.care, self.value)


@dataclass(frozen=True)
class SopForm:
    """A sum-of-products cover; an empty term list is the constant 0."""

    n: int
    terms: tuple[Cube, ...]

    def __post_init__(self) -> None:
        if any(c.n != self.n for c in self.terms):
            raise ValueError("cube dimension differs from cover dimension")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("duplicate cubes in cover")

    def evaluate(self, a: Assignment) -> int:
        if a.n != self.n:
            raise ValueError(f"assignment has n={a.n}, cover has n={self.n}")
        row = a.row_index
        return 1 if any(c.covers_row(row) for c in self.terms) else 0

    def cover_mask(self) -> int:
        mask = 0
        for c in self.terms:
            mask |= c.cover_mask()
        return mask

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(c) for c in self.terms)


def eval_sop(sop: SopForm, a: Assignment) -> int:
    return sop.evaluate(a)


def prime_implicants(tt: TruthTable) -> list[Cube]:
    """All prime implicants of ``tt``, filtered from the 3**n cube lattice.

    A cube is prime when it is an implicant and none of its parents (the
    cubes with one literal fewer) is.  Raises ValueError for the
    constant-0 function, which has none.  Result is sorted by cube string.
    """
    if tt.index == 0:
        raise ValueError("constant-0 function has no implicants")
    return [_cube(tt.n, c) for c in _prime_ids(tt.n, tt.index)]


def _cube(n: int, c: int) -> Cube:
    """The cube of lattice id ``c``."""
    # Lattice digit p: 0 = x absent, 1 = negative, 2 = positive literal.
    care = value = 0
    for p in range(n):
        c, digit = divmod(c, 3)
        if digit:
            care |= 1 << p
            if digit == 2:
                value |= 1 << p
    return Cube(n, care, value)


def minimize_sop(tt: TruthTable, guard_s: float | None = None) -> SopForm:
    """Exact minimum SOP cover of ``tt``.

    Objective order: term count, then literal count, then lexicographic
    cube list.  Raises GuardTimeoutError if the search exceeds the time
    budget (see :mod:`bfforms.guard`), which covers the whole call; a wrong
    or approximate answer is never returned.
    """
    n, on = tt.n, tt.index
    lat = _lattice(n)
    primes, deadline = _guarded_primes(n, on, resolve_guard(guard_s))
    count = len(primes)
    s2 = count + 7
    s1 = s2 + 9
    base = (1 << s1) + (1 << count)
    cand = [
        (lat.covers[c], base + (lat.lits[c] << s2) - (1 << (count - 1 - r)), r)
        for r, c in enumerate(primes)
    ]
    _, chosen = _least_cost_cover(cand, on, deadline)
    return SopForm(n, tuple(_cube(n, primes[i]) for i in sorted(chosen)))
