"""Arithmetic (integer-coefficient) polynomials and piecewise-constant images.

The canonical arithmetic polynomial of a Boolean function evaluates to
exactly 0 or 1 on every assignment.  It comes from the same integer
butterfly pair as the Reed-Muller polynomial (:mod:`bfforms.reedmuller`),
which keeps the parity of these coefficients: the forward butterfly gives
the coefficients, the inverse butterfly the values on every row.  All
arithmetic is exact: integers for polynomials, ``fractions.Fraction``
wherever a half shows up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .reedmuller import (
    PolarityVector,
    butterfly,
    inverse_butterfly,
    scan_polarities,
    value_at,
)
from .truthtable import Assignment, TruthTable, _validate_n, product_string

Number = int | Fraction


def _check_number(c) -> None:
    if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
        raise ValueError(f"coefficients must be int or Fraction, got {type(c)!r}")


@dataclass(frozen=True)
class ArithPolynomial:
    """Integer (or exact-rational) coefficients over product-term monomials.

    Monomial ``j`` is the product of the polarity-adjusted variables
    selected by the bits of ``j``, with the same index convention as the
    Reed-Muller coefficients.  Canonical transforms always carry integer
    coefficients; rational ones are accepted for user-supplied threshold
    candidates.
    """

    polarity: PolarityVector
    coeffs: tuple[Number, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 1 << self.polarity.n:
            raise ValueError("coefficient vector must have length 2**n")
        for c in self.coeffs:
            _check_number(c)

    @property
    def n(self) -> int:
        return self.polarity.n

    def __str__(self) -> str:
        k = self.polarity.k
        out = ""
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            # The first term carries only a minus sign, the others either.
            if out:
                out += " - " if c < 0 else " + "
            elif c < 0:
                out = "-"
            term = product_string(self.n, j, j & ~k)
            if term == "1":
                out += str(abs(c))
            elif abs(c) == 1:
                out += term
            else:
                out += f"{abs(c)}*{term}"
        return out or "0"


@dataclass(frozen=True)
class FImage:
    """Piecewise-constant image: one value per unit interval of [0, 2**n)."""

    n: int
    values: tuple[Number, ...]

    def __post_init__(self) -> None:
        _validate_n(self.n)
        if len(self.values) != 1 << self.n:
            raise ValueError("image must carry 2**n values")
        for v in self.values:
            _check_number(v)


def image_of(tt: TruthTable) -> FImage:
    """The 0/1 image whose interval values are the table rows."""
    return FImage(tt.n, tuple(tt.bits))


def arithmetic_transform(tt: TruthTable, p: PolarityVector) -> ArithPolynomial:
    """Canonical integer polynomial of ``tt`` at polarity ``p``."""
    if p.n != tt.n:
        raise ValueError(f"polarity has n={p.n}, table has n={tt.n}")
    return ArithPolynomial(p, tuple(butterfly(tt.bits, p.k)))


def inverse_arithmetic_transform(poly: ArithPolynomial) -> tuple[Number, ...]:
    """Value vector of the polynomial on all rows (exact butterfly inverse)."""
    return tuple(inverse_butterfly(poly.coeffs, poly.polarity.k))


def eval_arith(poly: ArithPolynomial, a: Assignment) -> Number:
    """Value of the polynomial at ``a``; 0/1 for canonical polynomials."""
    return value_at(poly, a)


def complement_image(poly: ArithPolynomial) -> ArithPolynomial:
    """Polynomial of ``1 - value``: constant goes to 1-C0, the rest negate."""
    coeffs = tuple(
        1 - c if j == 0 else -c for j, c in enumerate(poly.coeffs)
    )
    return ArithPolynomial(poly.polarity, coeffs)


def best_arith_polarity(
    tt: TruthTable, criterion: str
) -> tuple[PolarityVector, ArithPolynomial]:
    """Cheapest canonical polynomial over all 2**n polarities.

    Ties break toward the lowest polarity integer, mirroring the
    Reed-Muller polarity search.
    """
    return scan_polarities(tt, criterion, arithmetic_transform)


def threshold_verify(candidate: ArithPolynomial, tt: TruthTable) -> bool:
    """Check the threshold reading of a (possibly non-canonical) polynomial.

    True iff on every assignment the value is strictly above 1/2 where the
    table is 1 and strictly below 1/2 where it is 0.  A value of exactly
    1/2 fails both sides.  Comparisons are exact (2*value against 1).
    """
    if candidate.n != tt.n:
        raise ValueError(f"polynomial has n={candidate.n}, table has n={tt.n}")
    values = inverse_arithmetic_transform(candidate)
    for row, bit in enumerate(tt.bits):
        doubled = 2 * values[row]
        if bit == 1 and not doubled > 1:
            return False
        if bit == 0 and not doubled < 1:
            return False
    return True


def _graphical(a: FImage, b: FImage, sign: int) -> FImage:
    if a.n != b.n:
        raise ValueError(f"image dimensions differ: {a.n} vs {b.n}")
    out = []
    for u, v in zip(a.values, b.values):
        d = u - v if u >= v else v - u
        total = u + v + sign * d
        half = total / 2 if isinstance(total, Fraction) else Fraction(total, 2)
        out.append(int(half) if half.denominator == 1 else half)
    return FImage(a.n, tuple(out))


def graphical_disjunction(a: FImage, b: FImage) -> FImage:
    """Pointwise (u + v + |u - v|) / 2, the image-domain OR (max)."""
    return _graphical(a, b, +1)


def graphical_conjunction(a: FImage, b: FImage) -> FImage:
    """Pointwise (u + v - |u - v|) / 2, the image-domain AND (min)."""
    return _graphical(a, b, -1)
