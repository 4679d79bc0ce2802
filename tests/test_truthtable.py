import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfforms.truthtable import (
    Assignment,
    TruthTable,
    enumerate_all,
    sample_uniform,
    splitmix64,
)


def test_from_index_examples():
    assert TruthTable.from_index(1, 0).bits == (0, 0)
    assert TruthTable.from_index(2, 6).bits == (0, 1, 1, 0)  # XOR2
    assert TruthTable.from_index(3, 255).bits == (1,) * 8


def test_index_round_trip_exhaustive_small_n():
    for n in (1, 2, 3):
        for index in range(1 << (1 << n)):
            assert TruthTable.from_index(n, index).index == index


def test_index_out_of_range():
    # A bool or a float is no index, though True == 1 and 2.0 == 2.
    for index in (16, -1, True, 2.0, 1.5):
        with pytest.raises(ValueError):
            TruthTable.from_index(2, index)
    for row in (4, -1, True, 2.0, 1.5):
        with pytest.raises(ValueError):
            Assignment.from_row_index(2, row)
    with pytest.raises(ValueError):
        TruthTable.from_index(0, 0)
    with pytest.raises(ValueError):
        TruthTable.from_index(7, 0)


def test_assignment_row_index_ordering():
    # x_1 is the most significant bit of the row index.
    a = Assignment(3, (1, 0, 1))
    assert a.row_index == 5
    assert Assignment.from_row_index(3, 5) == a
    for n in (1, 2, 3, 4):
        for row in range(1 << n):
            values = Assignment.from_row_index(n, row).values
            assert sum(v << (n - 1 - i) for i, v in enumerate(values)) == row


def test_evaluate_matches_row_lookup_exhaustive():
    for n in (1, 2, 3, 4):
        tt = TruthTable.from_index(n, 0xDEADBEEF & ((1 << (1 << n)) - 1))
        for a in tt.assignments():
            assert tt.evaluate(a) == tt.bits[a.row_index]


def test_evaluate_examples(maj3):
    xor2 = TruthTable(2, (0, 1, 1, 0))
    assert xor2.evaluate(Assignment(2, (1, 0))) == 1
    assert maj3.evaluate(Assignment(3, (1, 1, 0))) == 1
    anything = TruthTable(2, (1, 0, 0, 1))
    assert anything.evaluate(Assignment(2, (0, 0))) == anything.bits[0]


def test_evaluate_dimension_mismatch(maj3):
    with pytest.raises(ValueError):
        maj3.evaluate(Assignment(2, (0, 1)))


def test_complement_examples():
    assert TruthTable(2, (0, 0, 0, 0)).complement().bits == (1, 1, 1, 1)
    assert TruthTable(2, (0, 1, 1, 0)).complement().bits == (1, 0, 0, 1)


def test_complement_involution_all_n2():
    for i in range(16):
        tt = TruthTable.from_index(2, i)
        assert tt.complement().complement() == tt


@given(st.integers(1, 4), st.data())
def test_complement_flips_every_evaluation(n, data):
    index = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    tt = TruthTable.from_index(n, index)
    comp = tt.complement()
    for a in tt.assignments():
        assert comp.evaluate(a) == 1 - tt.evaluate(a)


def test_enumerate_all_counts():
    assert len(list(enumerate_all(1))) == 4
    tables = list(enumerate_all(3))
    assert len(tables) == 256
    assert len(set(tables)) == 256
    assert [t.index for t in tables] == list(range(256))


def test_enumerate_all_rejects_large_n():
    with pytest.raises(ValueError):
        list(enumerate_all(5))


def test_splitmix64_known_stream():
    # First outputs from seed 1234567; reference values computed from the
    # published constants.
    out = splitmix64(1234567, 3)
    assert out == [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_sample_uniform_is_deterministic():
    a = sample_uniform(5, 1000, seed=42)
    b = sample_uniform(5, 1000, seed=42)
    assert a == b
    assert len(a) == 1000
    assert all(0 <= i < 1 << 32 for i in a)
    assert sample_uniform(5, 1000, seed=43) != a


def test_sample_uniform_single_draw_in_range():
    (i,) = sample_uniform(1, 1, seed=7)
    assert 0 <= i < 4


def test_sample_uniform_count_validation():
    for count, seed in ((0, 1), (2.5, 1), (4, 1.5), (True, 1), (4, True)):
        with pytest.raises(ValueError):
            sample_uniform(3, count, seed=seed)


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**64 - 1))
def test_sample_uniform_range_property(n, seed):
    for i in sample_uniform(n, 20, seed):
        assert 0 <= i < 1 << (1 << n)


def test_sample_uniform_frequencies_n2():
    # Each of the 16 functions should appear with frequency within 3 sigma
    # of 1/16 over 100k draws; sigma = sqrt(p(1-p)/N).
    draws = sample_uniform(2, 100_000, seed=2024)
    sigma = ((1 / 16) * (15 / 16) / 100_000) ** 0.5
    for fn in range(16):
        freq = draws.count(fn) / 100_000
        assert abs(freq - 1 / 16) <= 3 * sigma
