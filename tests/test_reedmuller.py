import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfforms.reedmuller import (
    PolarityVector,
    RmPolynomial,
    best_polarity,
    class_power,
    eval_rm,
    fprm_count,
    fprm_transform,
)
from bfforms.truthtable import Assignment, TruthTable


def P(n, k):
    return PolarityVector.from_int(n, k)


def test_polarity_vector_round_trip():
    for n in (1, 2, 3):
        for k in range(1 << n):
            assert P(n, k).k == k
    assert P(3, 5).bits == (1, 0, 1)


def test_fprm_or2_positive(or2):
    # x | y == x ^ y ^ xy, so positive polarity gives terms {x2, x1, x1x2}.
    poly = fprm_transform(or2, P(2, 0))
    assert poly.coeffs == (0, 1, 1, 1)
    assert str(poly) == "x2 ^ x1 ^ x1*x2"


def test_fprm_or2_negative(or2):
    poly = fprm_transform(or2, P(2, 3))
    assert poly.coeffs == (1, 0, 0, 1)
    assert str(poly) == "1 ^ ~x1*~x2"
    for a in or2.assignments():
        assert eval_rm(poly, a) == or2.evaluate(a)


def test_fprm_constant0_all_polarities():
    zero = TruthTable(2, (0, 0, 0, 0))
    for k in range(4):
        assert fprm_transform(zero, P(2, k)).coeffs == (0, 0, 0, 0)


def test_fprm_dimension_mismatch(or2):
    with pytest.raises(ValueError):
        fprm_transform(or2, P(3, 0))


def test_eval_rm_trivial():
    zero = RmPolynomial(P(2, 0), (0, 0, 0, 0))
    one = RmPolynomial(P(2, 0), (1, 0, 0, 0))
    for row in range(4):
        a = Assignment.from_row_index(2, row)
        assert eval_rm(zero, a) == 0
        assert eval_rm(one, a) == 1


def test_eval_rm_or2_at_11(or2):
    poly = fprm_transform(or2, P(2, 0))
    assert eval_rm(poly, Assignment(2, (1, 1))) == 1  # 1 ^ 1 ^ 1


def test_exact_reconstruction_l2_all_polarities(l2_tables):
    for tt in l2_tables:
        for k in range(4):
            poly = fprm_transform(tt, P(2, k))
            for a in tt.assignments():
                assert eval_rm(poly, a) == tt.evaluate(a)


def test_positive_davio_is_self_inverse(l3_tables):
    for tt in l3_tables:
        once = fprm_transform(tt, P(3, 0))
        twice = fprm_transform(TruthTable(3, once.coeffs), P(3, 0))
        assert twice.coeffs == tt.bits


def test_injectivity_per_polarity_l2(l2_tables):
    for k in range(4):
        images = {fprm_transform(tt, P(2, k)).coeffs for tt in l2_tables}
        assert len(images) == 16


def test_positive_polarity_has_no_inversions(l2_tables):
    for tt in l2_tables:
        assert "~" not in str(fprm_transform(tt, P(2, 0)))


def test_best_polarity_or2(or2):
    p, poly = best_polarity(or2, "s_ad")
    assert p.k == 3
    assert sum(poly.coeffs) == 2


def test_best_polarity_xor2_tie_breaks_low(xor2):
    p, poly = best_polarity(xor2, "s_ad")
    assert p.k == 0
    assert poly.coeffs == (0, 1, 1, 0)


def test_best_polarity_constant1():
    one = TruthTable(2, (1, 1, 1, 1))
    for criterion in ("s_ad", "s_s", "s_ac"):
        p, poly = best_polarity(one, criterion)
        assert p.k == 0
        assert sum(poly.coeffs) == 1


def test_best_polarity_unknown_criterion(or2):
    with pytest.raises(ValueError):
        best_polarity(or2, "terms")


def test_fprm_count():
    assert fprm_count(1) == 8
    assert fprm_count(3) == 2048
    assert fprm_count(4) == 1_048_576
    with pytest.raises(ValueError):
        fprm_count(0)


def test_class_power_boundaries():
    for n in range(1, 8):
        assert class_power(n, 0) == 1
        assert class_power(n, n) == 1
    assert class_power(5, 1) == 5
    assert class_power(4, 2) == 6


def test_class_power_matches_binomial():
    for n in range(1, 11):
        for k in range(n + 1):
            assert class_power(n, k) == math.comb(n, k)


def test_class_power_out_of_range():
    # A bool or a float is no degree, though True == 1 and 2.0 == 2.
    for k in (4, -1, True, 2.0, 1.5):
        with pytest.raises(ValueError):
            class_power(3, k)


def test_polarity_integer_out_of_range():
    for k in (4, -1, True, 2.0, 1.5):
        with pytest.raises(ValueError):
            P(2, k)


def test_disjunction_identity_through_anf(l2_tables):
    # x | y == x ^ y ^ x*y lifts to coefficient vectors at polarity 0:
    # anf(f|g) == anf(f) ^ anf(g) ^ anf(f&g).
    for f in l2_tables:
        for g in l2_tables:
            f_or_g = TruthTable(2, tuple(a | b for a, b in zip(f.bits, g.bits)))
            f_and_g = TruthTable(2, tuple(a & b for a, b in zip(f.bits, g.bits)))
            lhs = fprm_transform(f_or_g, P(2, 0)).coeffs
            rhs = tuple(
                a ^ b ^ c
                for a, b, c in zip(
                    fprm_transform(f, P(2, 0)).coeffs,
                    fprm_transform(g, P(2, 0)).coeffs,
                    fprm_transform(f_and_g, P(2, 0)).coeffs,
                )
            )
            assert lhs == rhs


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 4), st.data())
def test_fprm_reconstructs_random(n, data):
    index = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    k = data.draw(st.integers(0, (1 << n) - 1))
    tt = TruthTable.from_index(n, index)
    poly = fprm_transform(tt, P(n, k))
    for a in tt.assignments():
        assert eval_rm(poly, a) == tt.evaluate(a)
