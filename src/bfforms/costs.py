"""The five PLA cost criteria and their per-form counting rules.

The area criteria encode the dual-rail vs single-rail matrix model: an
AND-plane row for a SOP cover needs both rails of every input (factor
``2n`` per summand), while Reed-Muller and arithmetic rows need one rail
(factor ``n``).  Coefficient magnitudes never enter any criterion; a
summand is a summand whatever weight the summation plane assigns it.
"""

from __future__ import annotations

from dataclasses import dataclass

CRITERIA = ("s_ad", "s_sh", "s_l", "s_s", "s_ac")


@dataclass(frozen=True)
class CostVector:
    """Values of the five criteria for one representation.

    s_ad: summand count (summation-plane inputs)
    s_sh: summands that are real conjunctions (rows with active elements)
    s_l:  literal occurrences
    s_s:  overall AND-plane area, rail_factor * n * s_ad
    s_ac: active-element area, rail_factor * n * s_sh
    """

    s_ad: int
    s_sh: int
    s_l: int
    s_s: int
    s_ac: int

    def get(self, criterion: str) -> int:
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
        return getattr(self, criterion)

    def as_dict(self) -> dict[str, int]:
        return {c: getattr(self, c) for c in CRITERIA}


def from_counts(n: int, summands: int, conjunctions: int, literals: int,
                dual_rail: bool) -> CostVector:
    factor = 2 * n if dual_rail else n
    return CostVector(
        s_ad=summands,
        s_sh=conjunctions,
        s_l=literals,
        s_s=factor * summands,
        s_ac=factor * conjunctions,
    )


def cost_of_sop(sop) -> CostVector:
    """Criteria for a SOP cover (dual-rail AND plane)."""
    summands = len(sop.terms)
    conjunctions = sum(1 for c in sop.terms if c.literal_count > 0)
    literals = sum(c.literal_count for c in sop.terms)
    return from_counts(sop.n, summands, conjunctions, literals, dual_rail=True)


def cost_of_polynomial(poly) -> CostVector:
    """Criteria for a Reed-Muller or arithmetic polynomial (single-rail AND plane).

    Every nonzero coefficient is a summand, so both forms count alike.
    """
    summands = conjunctions = literals = 0
    for j, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        summands += 1
        if j:
            conjunctions += 1
            literals += bin(j).count("1")
    return from_counts(poly.n, summands, conjunctions, literals, dual_rail=False)
