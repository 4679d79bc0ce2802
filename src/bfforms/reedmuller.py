"""Fixed-polarity Reed-Muller polynomials over GF(2), and the polarity butterfly.

A polarity vector fixes, per variable, whether it may appear only direct
(bit 0) or only inverted (bit 1).  For every (function, polarity) pair the
coefficient vector is unique.  Both polynomial forms come from one integer
butterfly pair.  :func:`butterfly` reads row ``r ^ k`` as row ``r`` of the
function of polarity ``k``'s literals and runs n positive-Davio passes over
the integers, which give the arithmetic coefficients; :func:`inverse_butterfly`
maps coefficients back to the values on every row.  Reduction mod 2 commutes
with both, so a Reed-Muller coefficient is the parity of the arithmetic
coefficient at the same polarity and a Reed-Muller value the parity of the
integer value (Davio, Deschamps and Thayse, *Discrete and Switching
Functions*, 1978).

Coefficient index convention: bit ``n - s`` of coefficient index ``j``
selects variable ``x_s`` into the product term, matching the row-index
bit layout of :mod:`bfforms.truthtable`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import costs
from .truthtable import Assignment, TruthTable, _is_int, _validate_n, product_string


@dataclass(frozen=True)
class PolarityVector:
    """Per-variable polarity choices; ``bits[i]`` = 1 inverts ``x_{i+1}``."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        _validate_n(self.n)
        if len(self.bits) != self.n or any(b not in (0, 1) for b in self.bits):
            raise ValueError("polarity vector needs exactly n binary entries")

    @classmethod
    def from_int(cls, n: int, k: int) -> PolarityVector:
        _validate_n(n)
        if not _is_int(k) or not 0 <= k < (1 << n):
            raise ValueError(f"polarity integer {k!r} out of range for n={n}")
        return cls(n, tuple((k >> (n - 1 - i)) & 1 for i in range(n)))

    @property
    def k(self) -> int:
        """The polarity as an integer; bit ``n - s`` belongs to ``x_s``."""
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class RmPolynomial:
    """GF(2) coefficients of a fixed-polarity Reed-Muller polynomial."""

    polarity: PolarityVector
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 1 << self.polarity.n:
            raise ValueError("coefficient vector must have length 2**n")
        if any(c not in (0, 1) for c in self.coeffs):
            raise ValueError("Reed-Muller coefficients must be 0 or 1")

    @property
    def n(self) -> int:
        return self.polarity.n

    def __str__(self) -> str:
        n, k = self.n, self.polarity.k
        active = [product_string(n, j, j & ~k) for j, a in enumerate(self.coeffs) if a]
        return " ^ ".join(active) if active else "0"


def butterfly(values, k: int) -> list[int]:
    """Arithmetic coefficients at polarity ``k`` of the 2**n row ``values``."""
    arr = [values[r ^ k] for r in range(len(values))]
    _davio_passes(arr, -1)
    return arr


def inverse_butterfly(coeffs, k: int) -> list:
    """Values on all 2**n rows of ``coeffs`` at polarity ``k``; exact for rationals."""
    arr = list(coeffs)
    _davio_passes(arr, 1)
    return [arr[r ^ k] for r in range(len(arr))]


def _davio_passes(arr: list, sign: int) -> None:
    """Add ``sign`` times each x_s = 0 entry to its x_s = 1 partner, for every s."""
    stride = 1
    while stride < len(arr):
        for i in range(len(arr)):
            if i & stride:
                arr[i] += sign * arr[i ^ stride]
        stride <<= 1


def value_at(poly, a: Assignment):
    """Integer (or rational) value of ``poly`` at ``a``: its inverse-butterfly row."""
    if a.n != poly.n:
        raise ValueError(f"assignment has n={a.n}, polynomial has n={poly.n}")
    return inverse_butterfly(poly.coeffs, poly.polarity.k)[a.row_index]


def fprm_transform(tt: TruthTable, p: PolarityVector) -> RmPolynomial:
    """The unique fixed-polarity Reed-Muller polynomial of ``tt`` at ``p``."""
    if p.n != tt.n:
        raise ValueError(f"polarity has n={p.n}, table has n={tt.n}")
    return RmPolynomial(p, tuple([c & 1 for c in butterfly(tt.bits, p.k)]))


def eval_rm(poly: RmPolynomial, a: Assignment) -> int:
    """XOR of the active product terms at assignment ``a``."""
    return value_at(poly, a) & 1


def scan_polarities(tt: TruthTable, criterion: str, transform):
    """Cheapest ``transform(tt, p)`` under ``criterion`` over all 2**n polarities.

    Ties break toward the lowest polarity integer.  Returns (polarity,
    polynomial).

    Each polarity is transformed from scratch.  The sweep kernels get the
    minimum costs of every polarity from one extended-transform pass
    (``_kernels_py.polarity_minima_batch``), but that pass yields counts only;
    this scan must return the winning polynomial itself, and at n <= 6 it
    is at most 64 transforms per call.
    """
    if criterion not in costs.CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    polys = [transform(tt, PolarityVector.from_int(tt.n, k)) for k in range(1 << tt.n)]
    best = min(polys, key=lambda poly: costs.cost_of_polynomial(poly).get(criterion))
    return best.polarity, best


def best_polarity(
    tt: TruthTable, criterion: str
) -> tuple[PolarityVector, RmPolynomial]:
    """Scan all 2**n polarities; return the cheapest under ``criterion``.

    Ties break toward the lowest polarity integer.
    """
    return scan_polarities(tt, criterion, fprm_transform)


def fprm_count(n: int) -> int:
    """Number of fixed-polarity polynomials over all functions: 2**n * 2**2**n."""
    if not _is_int(n) or n < 1:
        raise ValueError(f"variable count must be a positive int, got {n!r}")
    # Python integers are unbounded, so the product cannot silently wrap.
    return (1 << n) * (1 << (1 << n))


def class_power(n: int, k: int) -> int:
    """Size of the class of degree-k product terms on n variables.

    Built from the boundary values E(n, 0) = E(n, n) = 1, E(n, 1) = n and
    the recurrence E(n, k) = E(n-1, k) + E(n-1, k-1); equals C(n, k).
    """
    if not _is_int(n) or n < 1:
        raise ValueError(f"variable count must be a positive int, got {n!r}")
    if not _is_int(k) or not 0 <= k <= n:
        raise ValueError(f"class degree {k!r} out of range for n={n}")
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]
