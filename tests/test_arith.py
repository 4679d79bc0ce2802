from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfforms.arith import (
    ArithPolynomial,
    FImage,
    arithmetic_transform,
    best_arith_polarity,
    complement_image,
    eval_arith,
    graphical_conjunction,
    graphical_disjunction,
    image_of,
    inverse_arithmetic_transform,
    threshold_verify,
)
from bfforms.reedmuller import PolarityVector, eval_rm, fprm_transform
from bfforms.truthtable import Assignment, TruthTable


def P(n, k):
    return PolarityVector.from_int(n, k)


def test_transform_or2(or2):
    poly = arithmetic_transform(or2, P(2, 0))
    assert poly.coeffs == (0, 1, 1, -1)  # x1 + x2 - x1*x2
    assert str(poly) == "x2 + x1 - x1*x2"


def test_transform_xor2(xor2):
    poly = arithmetic_transform(xor2, P(2, 0))
    assert poly.coeffs == (0, 1, 1, -2)
    assert str(poly) == "x2 + x1 - 2*x1*x2"


def test_transform_constant1():
    one = TruthTable(3, (1,) * 8)
    for k in range(8):
        assert arithmetic_transform(one, P(3, k)).coeffs == (1,) + (0,) * 7


def test_eval_examples(or2, xor2):
    zero = ArithPolynomial(P(2, 0), (0, 0, 0, 0))
    for a in TruthTable(2, (0, 0, 0, 0)).assignments():
        assert eval_arith(zero, a) == 0
    assert eval_arith(arithmetic_transform(or2, P(2, 0)), Assignment(2, (1, 1))) == 1
    assert eval_arith(arithmetic_transform(xor2, P(2, 0)), Assignment(2, (1, 1))) == 0


def test_exactness_l2_all_polarities(l2_tables):
    for tt in l2_tables:
        for k in range(4):
            poly = arithmetic_transform(tt, P(2, k))
            for a in tt.assignments():
                assert eval_arith(poly, a) == tt.evaluate(a)


def test_inverse_round_trip_l3_all_polarities(l3_tables):
    for tt in l3_tables:
        for k in range(8):
            poly = arithmetic_transform(tt, P(3, k))
            assert inverse_arithmetic_transform(poly) == tt.bits


def test_inverse_matches_eval(l2_tables):
    for tt in l2_tables:
        poly = arithmetic_transform(tt, P(2, 2))
        values = inverse_arithmetic_transform(poly)
        for a in tt.assignments():
            assert values[a.row_index] == eval_arith(poly, a)


def test_coefficient_bound_l3(l3_tables):
    for tt in l3_tables:
        for k in range(8):
            poly = arithmetic_transform(tt, P(3, k))
            assert all(abs(c) <= 8 for c in poly.coeffs)


def test_complement_image_examples(or2):
    zero = arithmetic_transform(TruthTable(2, (0, 0, 0, 0)), P(2, 0))
    one_poly = complement_image(zero)
    assert one_poly.coeffs == (1, 0, 0, 0)
    nor2 = complement_image(arithmetic_transform(or2, P(2, 0)))
    assert nor2.coeffs == (1, -1, -1, 1)
    expected = or2.complement()
    for a in or2.assignments():
        assert eval_arith(nor2, a) == expected.evaluate(a)


def test_complement_image_is_involution(l2_tables):
    for tt in l2_tables:
        poly = arithmetic_transform(tt, P(2, 1))
        assert complement_image(complement_image(poly)) == poly


def test_complement_identity_all_l3_polarities(l3_tables):
    for tt in l3_tables[:32]:
        for k in range(8):
            poly = arithmetic_transform(tt, P(3, k))
            comp = complement_image(poly)
            values = inverse_arithmetic_transform(comp)
            assert values == tuple(1 - b for b in tt.bits)


def test_best_polarity_not_x():
    not_x = TruthTable(1, (1, 0))
    p, poly = best_arith_polarity(not_x, "s_ad")
    assert p.k == 1
    assert poly.coeffs == (0, 1)  # just the inverted literal
    positive = arithmetic_transform(not_x, P(1, 0))
    assert positive.coeffs == (1, -1)  # 1 - x needs two summands


def test_best_polarity_or2(or2):
    p, poly = best_arith_polarity(or2, "s_ad")
    assert p.k == 3
    assert poly.coeffs == (1, 0, 0, -1)  # 1 - ~x1*~x2


def test_best_polarity_constant1():
    one = TruthTable(2, (1, 1, 1, 1))
    p, poly = best_arith_polarity(one, "s_ad")
    assert p.k == 0
    assert poly.coeffs == (1, 0, 0, 0)


def test_parity3_minimum_summands(xor3):
    # Even-polarity expansions of 3-var parity carry 7 products, odd ones 8;
    # the best canonical polynomial therefore has 7 summands, above the
    # 2**(n-1)+1 = 5 sometimes conjectured for threshold-style forms.
    weights = {
        k: sum(1 for c in arithmetic_transform(xor3, P(3, k)).coeffs if c)
        for k in range(8)
    }
    assert min(weights.values()) == 7
    assert set(weights.values()) == {7, 8}


def test_threshold_verify_canonical(l2_tables):
    for tt in l2_tables:
        poly = arithmetic_transform(tt, P(2, 0))
        assert threshold_verify(poly, tt)


def test_threshold_verify_rational_candidate():
    # Constant 3/5 stays above 1/2 everywhere, so it realizes constant 1.
    candidate = ArithPolynomial(P(2, 0), (Fraction(3, 5), 0, 0, 0))
    assert threshold_verify(candidate, TruthTable(2, (1, 1, 1, 1)))
    assert not threshold_verify(candidate, TruthTable(2, (1, 1, 1, 0)))


def test_threshold_verify_exact_half_fails_both_sides():
    candidate = ArithPolynomial(P(1, 0), (Fraction(1, 2), 0))
    assert not threshold_verify(candidate, TruthTable(1, (1, 1)))
    assert not threshold_verify(candidate, TruthTable(1, (0, 0)))


def test_threshold_verify_wrong_function(or2):
    and2 = TruthTable(2, (0, 0, 0, 1))
    poly = arithmetic_transform(or2, P(2, 0))
    assert not threshold_verify(poly, and2)


def test_graphical_examples():
    a = FImage(1, (0, 1))
    b = FImage(1, (1, 0))
    assert graphical_disjunction(a, b).values == (1, 1)
    assert graphical_conjunction(a, a).values == a.values


def test_graphical_dimension_mismatch():
    with pytest.raises(ValueError):
        graphical_disjunction(FImage(1, (0, 1)), FImage(2, (0, 1, 0, 1)))


def test_graphical_isomorphism_exhaustive_l2(l2_tables):
    for f in l2_tables:
        for g in l2_tables:
            or_tt = TruthTable(2, tuple(x | y for x, y in zip(f.bits, g.bits)))
            and_tt = TruthTable(2, tuple(x & y for x, y in zip(f.bits, g.bits)))
            assert graphical_disjunction(image_of(f), image_of(g)) == image_of(or_tt)
            assert graphical_conjunction(image_of(f), image_of(g)) == image_of(and_tt)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.fractions(min_value=-4, max_value=4), min_size=4, max_size=4),
    st.lists(st.fractions(min_value=-4, max_value=4), min_size=4, max_size=4),
)
def test_graphical_ops_are_pointwise_extrema(u, v):
    a = FImage(2, tuple(u))
    b = FImage(2, tuple(v))
    assert graphical_disjunction(a, b).values == tuple(max(x, y) for x, y in zip(u, v))
    assert graphical_conjunction(a, b).values == tuple(min(x, y) for x, y in zip(u, v))


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 4), st.data())
def test_arith_reconstructs_random(n, data):
    index = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    k = data.draw(st.integers(0, (1 << n) - 1))
    tt = TruthTable.from_index(n, index)
    poly = arithmetic_transform(tt, P(n, k))
    assert inverse_arithmetic_transform(poly) == tt.bits


def test_reed_muller_is_parity_of_arithmetic(l3_tables):
    # Both forms come from one integer butterfly: reducing mod 2 maps the
    # arithmetic coefficients, and values, onto the Reed-Muller ones.
    for tt in l3_tables[::7]:
        for k in range(8):
            af = arithmetic_transform(tt, P(3, k))
            rm = fprm_transform(tt, P(3, k))
            assert rm.coeffs == tuple(c & 1 for c in af.coeffs)
            for a in tt.assignments():
                assert eval_rm(rm, a) == eval_arith(af, a) == tt.evaluate(a)
