"""Truth tables, assignment ordering, enumeration and seeded sampling.

Conventions used by every module in this package:

* An assignment ``(x_1, ..., x_n)`` maps to the row index
  ``x = sum(x_s * 2**(n - s))``, i.e. ``x_1`` is the most significant bit.
* A function's integer index packs the table LSB-first: bit ``j`` of the
  index equals ``bits[j]``.  Indices therefore run over ``[0, 2**2**n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

MAX_N = 6  # single-function operations
MAX_ENUM_N = 4  # exhaustive enumeration


def _is_int(value) -> bool:
    """The package's rule for an integer argument: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _bits(values: tuple) -> bool:
    """Whether every value is 0 or 1 and of type int: no bool or float."""
    return not any(type(v) is not int or v not in (0, 1) for v in values)


def _validate_n(n: int, limit: int = MAX_N) -> None:
    if not _is_int(n) or not 1 <= n <= limit:
        raise ValueError(f"variable count must be an int in [1, {limit}], got {n!r}")


@dataclass(frozen=True)
class Assignment:
    """One input vector (x_1, ..., x_n) with values in {0, 1}."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _validate_n(self.n)
        if len(self.values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(self.values)}")
        if not _bits(self.values):
            raise ValueError("assignment values must be the ints 0 or 1")

    @property
    def row_index(self) -> int:
        idx = 0
        for v in self.values:
            idx = (idx << 1) | v
        return idx

    @classmethod
    def from_row_index(cls, n: int, row: int) -> Assignment:
        _validate_n(n)
        if not _is_int(row) or not 0 <= row < (1 << n):
            raise ValueError(f"row index {row!r} out of range for n={n}")
        return cls(n, tuple((row >> (n - 1 - i)) & 1 for i in range(n)))


@dataclass(frozen=True)
class TruthTable:
    """A Boolean function of ``n`` variables as its 2**n ordered values."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        _validate_n(self.n)
        if len(self.bits) != 1 << self.n:
            raise ValueError(
                f"need {1 << self.n} bits for n={self.n}, got {len(self.bits)}"
            )
        if not _bits(self.bits):
            raise ValueError("truth-table entries must be the ints 0 or 1")

    @classmethod
    def from_index(cls, n: int, index: int) -> TruthTable:
        _validate_n(n)
        rows = 1 << n
        if not _is_int(index) or not 0 <= index < (1 << rows):
            raise ValueError(f"function index {index!r} out of range for n={n}")
        return cls(n, tuple((index >> j) & 1 for j in range(rows)))

    @property
    def index(self) -> int:
        """Integer whose bit ``j`` is ``bits[j]``."""
        idx = 0
        for j, b in enumerate(self.bits):
            idx |= b << j
        return idx

    def evaluate(self, a: Assignment) -> int:
        if a.n != self.n:
            raise ValueError(f"assignment has n={a.n}, table has n={self.n}")
        return self.bits[a.row_index]

    def complement(self) -> TruthTable:
        return TruthTable(self.n, tuple(1 - b for b in self.bits))

    def assignments(self) -> Iterator[Assignment]:
        for row in range(1 << self.n):
            yield Assignment.from_row_index(self.n, row)


def product_string(n: int, care: int, value: int) -> str:
    """A product term as ``~x1*x3``: the literals ``care`` selects, ``~``
    where ``value`` clears the bit; "1" for the empty product.

    Bit ``n - s`` of either mask belongs to ``x_s``, as in a row index.
    """
    if care == 0:
        return "1"
    parts = []
    for i in range(n):
        p = n - 1 - i
        if (care >> p) & 1:
            parts.append(("" if (value >> p) & 1 else "~") + f"x{i + 1}")
    return "*".join(parts)


def enumerate_all(n: int) -> Iterator[TruthTable]:
    """Yield all 2**2**n functions of ``n`` variables in index order."""
    _validate_n(n, MAX_ENUM_N)
    for index in range(1 << (1 << n)):
        yield TruthTable.from_index(n, index)


# splitmix64 (Steele/Lea/Flood); fixed here so sampled runs replicate across
# implementations and platforms.
_MASK64 = (1 << 64) - 1
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int, count: int) -> list[int]:
    """Return ``count`` consecutive 64-bit splitmix64 outputs.

    state_{k+1} = state_k + 0x9E3779B97F4A7C15  (mod 2**64)
    output   z  = state_{k+1}
                  z ^= z >> 30; z *= 0xBF58476D1CE4E5B9  (mod 2**64)
                  z ^= z >> 27; z *= 0x94D049BB133111EB  (mod 2**64)
                  z ^= z >> 31
    """
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state = (state + _SM64_GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _SM64_MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _SM64_MIX2) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def sample_uniform(n: int, count: int, seed: int) -> list[int]:
    """Draw ``count`` function indices i.i.d. uniform over [0, 2**2**n).

    Sampling is with replacement.  Draw ``k`` is the top ``2**n`` bits of
    the ``k``-th splitmix64 output, which is exactly uniform because the
    range is a power of two.  ``count`` must be an int of at least 1 and
    ``seed`` one in 0..2**64-1, so that distinct seeds give distinct
    samples; neither may be a bool.
    """
    _validate_n(n)
    if not _is_int(count) or count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if not _is_int(seed) or not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in 0..2**64-1, got {seed!r}")
    shift = 64 - (1 << n)
    return [z >> shift for z in splitmix64(seed, count)]
