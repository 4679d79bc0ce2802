import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfforms.arith import arithmetic_transform, best_arith_polarity
from bfforms.costs import CRITERIA, CostVector, cost_of_polynomial, cost_of_sop
from bfforms.reedmuller import (
    PolarityVector,
    RmPolynomial,
    best_polarity,
    fprm_transform,
)
from bfforms.sop import Cube, SopForm, minimize_sop
from bfforms.truthtable import TruthTable


def P(n, k):
    return PolarityVector.from_int(n, k)


def as_tuple(cv: CostVector):
    return (cv.s_ad, cv.s_sh, cv.s_l, cv.s_s, cv.s_ac)


def test_cost_of_sop_maj3(maj3):
    assert as_tuple(cost_of_sop(minimize_sop(maj3))) == (3, 3, 6, 18, 18)


def test_cost_of_sop_constants():
    assert as_tuple(cost_of_sop(SopForm(3, ()))) == (0, 0, 0, 0, 0)
    tautology = SopForm(3, (Cube(3, 0, 0),))
    assert as_tuple(cost_of_sop(tautology)) == (1, 0, 0, 6, 0)


def test_cost_of_rm_or2(or2):
    negative = fprm_transform(or2, P(2, 3))
    assert as_tuple(cost_of_polynomial(negative)) == (2, 1, 2, 4, 2)
    positive = fprm_transform(or2, P(2, 0))
    assert as_tuple(cost_of_polynomial(positive)) == (3, 3, 4, 6, 6)
    zero = RmPolynomial(P(2, 0), (0, 0, 0, 0))
    assert as_tuple(cost_of_polynomial(zero)) == (0, 0, 0, 0, 0)


def test_cost_of_arith_examples(or2, xor2):
    assert as_tuple(cost_of_polynomial(arithmetic_transform(or2, P(2, 0)))) == (3, 3, 4, 6, 6)
    # The -2 coefficient counts as one summand.
    assert as_tuple(cost_of_polynomial(arithmetic_transform(xor2, P(2, 0)))) == (3, 3, 4, 6, 6)
    one = arithmetic_transform(TruthTable(3, (1,) * 8), P(3, 0))
    assert as_tuple(cost_of_polynomial(one)) == (1, 0, 0, 3, 0)


def test_unknown_criterion():
    cv = CostVector(1, 1, 1, 2, 2)
    with pytest.raises(ValueError):
        cv.get("area")
    assert cv.get("s_s") == 2


def test_dual_rail_ratio(or2):
    # Same summand count costs exactly twice the plane area in SOP form.
    sop_cost = cost_of_sop(minimize_sop(or2))  # 2 summands
    rm_cost = cost_of_polynomial(fprm_transform(or2, P(2, 3)))  # 2 summands
    assert sop_cost.s_ad == rm_cost.s_ad == 2
    assert sop_cost.s_s == 2 * rm_cost.s_s


@pytest.mark.parametrize("n", (2, 3))
def test_invariants_exhaustive(n, l2_tables, l3_tables):
    # Every representation the three form modules can produce satisfies
    # the CostVector relations, exhaustively over L(n).
    for tt in l2_tables if n == 2 else l3_tables:
        dual = [cost_of_sop(minimize_sop(tt))]
        single = []
        for k in range(1 << n):
            single.append(cost_of_polynomial(fprm_transform(tt, P(n, k))))
            single.append(cost_of_polynomial(arithmetic_transform(tt, P(n, k))))
        for cv, factor in [(v, 2 * n) for v in dual] + [(v, n) for v in single]:
            assert cv.s_sh <= cv.s_ad <= cv.s_sh + 1
            assert cv.s_l <= n * cv.s_sh
            assert cv.s_s == factor * cv.s_ad
            assert cv.s_ac == factor * cv.s_sh


def test_monotonicity_adding_a_cube(maj3):
    sop = minimize_sop(maj3)
    bigger = SopForm(3, sop.terms + (Cube.from_string(3, "000"),))
    before = cost_of_sop(sop)
    after = cost_of_sop(bigger)
    for criterion in CRITERIA:
        assert after.get(criterion) >= before.get(criterion)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 255), st.integers(0, 7), st.integers(0, 7))
def test_monotonicity_activating_a_coefficient(index, k, j):
    tt = TruthTable.from_index(3, index)
    poly = fprm_transform(tt, P(3, k))
    if poly.coeffs[j]:
        return
    grown = RmPolynomial(poly.polarity, poly.coeffs[:j] + (1,) + poly.coeffs[j + 1 :])
    before = cost_of_polynomial(poly)
    after = cost_of_polynomial(grown)
    for criterion in CRITERIA:
        assert after.get(criterion) >= before.get(criterion)


def test_best_polarity_costs_agree_with_vectors(or2):
    # The polarity searches hand back polynomials whose recomputed cost
    # matches the criterion they optimized.
    for criterion in CRITERIA:
        _, rm_poly = best_polarity(or2, criterion)
        assert cost_of_polynomial(rm_poly).get(criterion) <= cost_of_polynomial(
            fprm_transform(or2, P(2, 0))
        ).get(criterion)
        _, af_poly = best_arith_polarity(or2, criterion)
        assert cost_of_polynomial(af_poly).get(criterion) <= cost_of_polynomial(
            arithmetic_transform(or2, P(2, 0))
        ).get(criterion)
