import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cube_covers_row,
    kernel_backends,
    oracle_least_cover,
    oracle_min_cover,
    oracle_primes,
)
from bfforms import kernels
from bfforms.errors import GuardTimeoutError
from bfforms.guard import ENV_VAR, resolve_guard
from bfforms.sop import Cube, SopForm, eval_sop, minimize_sop, prime_implicants
from bfforms.truthtable import Assignment, TruthTable, sample_uniform


GOLDEN_COVERS = Path(__file__).parent / "data" / "golden_covers.txt"


def cover_strings(sop: SopForm) -> list[str]:
    return [c.to_string() for c in sop.terms]


def test_cube_string_round_trip():
    for s in ("1-0", "---", "111", "0-1"):
        assert Cube.from_string(3, s).to_string() == s


def test_cube_rejects_bad_masks():
    with pytest.raises(ValueError):
        Cube(2, care=0b01, value=0b10)
    # A bool or a float is no mask, though True == 1 and 2.0 == 2.
    for care, value in ((True, 0), (1, True), (2.0, 0), (1.5, 0), (3, 1.0)):
        with pytest.raises(ValueError):
            Cube(2, care, value)
    with pytest.raises(ValueError):
        Cube.from_string(2, "1x")
    with pytest.raises(ValueError):
        Cube.from_string(2, "1")


def test_cube_cover_mask_matches_direct_match():
    for n in (1, 2, 3):
        import itertools

        for pattern in itertools.product("-01", repeat=n):
            s = "".join(pattern)
            cube = Cube.from_string(n, s)
            for row in range(1 << n):
                direct = cube_covers_row(s, row, n)
                assert bool(cube.cover_mask() >> row & 1) == direct
                assert cube.covers_row(row) == direct


def test_minimize_constant0():
    sop = minimize_sop(TruthTable(2, (0, 0, 0, 0)))
    assert sop.terms == ()
    for a in TruthTable(2, (0, 0, 0, 0)).assignments():
        assert eval_sop(sop, a) == 0


def test_minimize_constant1():
    sop = minimize_sop(TruthTable(2, (1, 1, 1, 1)))
    assert cover_strings(sop) == ["--"]
    for a in TruthTable(2, (1, 1, 1, 1)).assignments():
        assert eval_sop(sop, a) == 1


def test_minimize_maj3(maj3):
    # Oracle-checked: exhaustive cover over brute-force primes gives
    # (3 terms, 6 literals); the cover itself is the symmetric one.
    assert oracle_min_cover(3, maj3.index) == (3, 6)
    sop = minimize_sop(maj3)
    assert cover_strings(sop) == ["-11", "1-1", "11-"]
    assert sum(c.literal_count for c in sop.terms) == 6


def test_minimize_or2(or2):
    sop = minimize_sop(or2)
    assert cover_strings(sop) == ["-1", "1-"]


def test_minimize_xor3_needs_four_terms(xor3):
    assert len(minimize_sop(xor3).terms) == 4


def test_eval_sop_examples(maj3):
    empty = SopForm(2, ())
    assert eval_sop(empty, Assignment(2, (1, 1))) == 0
    tautology = SopForm(2, (Cube(2, 0, 0),))
    assert eval_sop(tautology, Assignment(2, (0, 1))) == 1
    cover = minimize_sop(maj3)
    assert eval_sop(cover, Assignment(3, (0, 1, 1))) == 1


def test_eval_sop_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_sop(SopForm(2, ()), Assignment(3, (0, 0, 0)))


def test_prime_implicants_examples(xor2):
    tautology = prime_implicants(TruthTable(2, (1, 1, 1, 1)))
    assert [c.to_string() for c in tautology] == ["--"]
    xor_primes = prime_implicants(xor2)
    assert [c.to_string() for c in xor_primes] == ["01", "10"]


def test_prime_implicants_maj3_matches_oracle(maj3):
    got = [c.to_string() for c in prime_implicants(maj3)]
    assert got == oracle_primes(3, maj3.index) == ["-11", "1-1", "11-"]


def test_prime_implicants_match_oracle_all_l3(l3_tables):
    for tt in l3_tables:
        if tt.index == 0:
            continue
        got = [c.to_string() for c in prime_implicants(tt)]
        assert got == oracle_primes(3, tt.index)


@pytest.mark.parametrize("n, count", [(4, 40), (5, 12), (6, 4)])
def test_prime_implicants_match_oracle_seeded(n, count):
    # Past n=3 the on-set has more rows than a byte, and at n=6 the prime
    # filter's implicant vector spans all 729 lattice ids.
    full = (1 << (1 << n)) - 1
    extremes = [full, 1, 1 << full.bit_length() - 1]
    for index in extremes + sample_uniform(n, count, seed=n):
        tt = TruthTable.from_index(n, index)
        got = [c.to_string() for c in prime_implicants(tt)]
        assert got == oracle_primes(n, index), hex(index)


def test_prime_implicants_constant0_raises():
    with pytest.raises(ValueError):
        prime_implicants(TruthTable(2, (0, 0, 0, 0)))


def test_minimized_cover_equals_table_exhaustive_n2(l2_tables):
    for tt in l2_tables:
        sop = minimize_sop(tt)
        assert sop.cover_mask() == tt.index
        for a in tt.assignments():
            assert eval_sop(sop, a) == tt.evaluate(a)


def test_minimize_matches_oracle_counts_l3_sample(l3_tables):
    # Full L(3) runs in the acceptance suite; spot-check a spread here,
    # including literal counts.
    for index in (1, 22, 105, 150, 232, 254, 255, 83, 17, 200):
        tt = l3_tables[index]
        sop = minimize_sop(tt)
        size, lits = oracle_min_cover(3, tt.index)
        assert len(sop.terms) == size
        assert sum(c.literal_count for c in sop.terms) == lits


def test_minimize_deterministic(maj3, xor3):
    for tt in (maj3, xor3):
        assert minimize_sop(tt) == minimize_sop(tt)


def test_every_term_is_prime(l3_tables):
    for index in (7, 30, 105, 150, 232):
        tt = l3_tables[index]
        primes = set(cover_strings_from(prime_implicants(tt)))
        for c in minimize_sop(tt).terms:
            assert c.to_string() in primes


def cover_strings_from(cubes) -> list[str]:
    return [c.to_string() for c in cubes]


def test_guard_zero_aborts(maj3):
    with pytest.raises(GuardTimeoutError):
        minimize_sop(maj3, guard_s=0.0)
    # Constants stay exempt: their cover search has nothing to search.
    for n in range(1, 7):
        zero = minimize_sop(TruthTable.from_index(n, 0), guard_s=0.0)
        one = minimize_sop(TruthTable.from_index(n, (1 << (1 << n)) - 1), guard_s=0.0)
        assert (zero.terms, cover_strings(one)) == ((), ["-" * n])


@pytest.mark.parametrize("text", ["nan", "NaN", "-nan"])
def test_nan_guard_rejected(text, maj3, monkeypatch):
    # A NaN guard passes "guard <= 0" and never trips "now > deadline", so
    # it would let a slow search run unbounded.  maj3 is fast either way.
    with pytest.raises(ValueError, match="NaN"):
        resolve_guard(float(text))
    with pytest.raises(ValueError, match="NaN"):
        minimize_sop(maj3, guard_s=float(text))
    monkeypatch.setenv(ENV_VAR, text)
    with pytest.raises(ValueError, match=ENV_VAR):
        resolve_guard()
    with pytest.raises(ValueError, match="NaN"):
        minimize_sop(maj3)


def test_guard_values_resolve(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert resolve_guard() == 60.0
    assert resolve_guard(0.5) == 0.5
    assert resolve_guard(float("inf")) == float("inf")
    monkeypatch.setenv(ENV_VAR, "2.5")
    assert resolve_guard() == 2.5
    assert resolve_guard(1) == 1.0


# n=6 functions on which an earlier exact minimizer ran past its guard.
SLOW_N6 = (
    0xCFEDA7CFE8394EFD,
    0x3EDEDEF35369F978,
    0xF54F98DDEBFD9186,
    0xAA9FB1E967C279FA,
)


@pytest.mark.parametrize("index", SLOW_N6, ids=hex)
def test_slow_n6_finish_under_default_guard(index):
    tt = TruthTable.from_index(6, index)
    assert minimize_sop(tt).cover_mask() == index


def test_guard_abort_is_prompt():
    # 1 where two, three or four of the six inputs are: the cover search
    # runs for seconds on it, far past this guard.
    tt = TruthTable.from_index(6, 0x177F7FFE7FFEFEE8)
    start = time.monotonic()
    with pytest.raises(GuardTimeoutError):
        minimize_sop(tt, guard_s=0.05)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("impl", kernel_backends(), ids=lambda m: m.BACKEND)
def test_symmetric_n6_cover_under_default_guard(impl, monkeypatch):
    # 1 where two or three of six inputs are: its minimum covers have 20
    # terms of 5 literals each, as the kernels' count search finds
    # (tests/test_kernels.py gives the reason).
    monkeypatch.setattr(kernels, "_impl", impl)
    index = 0x117177E177E7EE8
    sop = minimize_sop(TruthTable.from_index(6, index))
    assert sop.cover_mask() == index
    assert len(sop.terms) == 20
    assert sum(c.literal_count for c in sop.terms) == 100


def test_minimize_matches_least_cover_oracle_l3(l3_tables):
    for tt in l3_tables:
        assert cover_strings(minimize_sop(tt)) == oracle_least_cover(3, tt.index)


def test_minimize_matches_least_cover_oracle_n4_seeded():
    for index in sample_uniform(4, 150, seed=404):
        tt = TruthTable.from_index(4, index)
        assert cover_strings(minimize_sop(tt)) == oracle_least_cover(4, index), hex(index)


def test_minimize_least_cover_tie_break():
    # Ties at 5 terms and 15 literals: a search that compares literals
    # alone when dropping dominated primes returns 00-1 in place of 0-01.
    expected = ["-000", "-011", "-101", "0-01", "1-10"]
    assert oracle_least_cover(4, 0x6D2B) == expected
    assert cover_strings(minimize_sop(TruthTable.from_index(4, 0x6D2B))) == expected


def test_duplicate_cubes_rejected():
    cube = Cube.from_string(2, "1-")
    with pytest.raises(ValueError):
        SopForm(2, (cube, cube))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**16 - 1))
def test_minimize_reproduces_table_n4(index):
    tt = TruthTable.from_index(4, index)
    sop = minimize_sop(tt)
    assert sop.cover_mask() == tt.index


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_minimize_matches_oracle_n4_random(data):
    index = data.draw(st.integers(0, 2**16 - 1))
    tt = TruthTable.from_index(4, index)
    size, lits = oracle_min_cover(4, tt.index)
    sop = minimize_sop(tt)
    assert len(sop.terms) == size
    assert sum(c.literal_count for c in sop.terms) == lits


def test_minimize_n5_sampled_round_trip():
    for index in sample_uniform(5, 10, seed=11):
        tt = TruthTable.from_index(5, index)
        assert minimize_sop(tt).cover_mask() == tt.index


@pytest.mark.parametrize("impl", kernel_backends(), ids=lambda m: m.BACKEND)
def test_minimize_matches_golden_covers(impl, monkeypatch):
    # Covers recorded from an independent exact minimizer; the tie-breaks
    # (fewest terms, fewest literals, least cube list) must reproduce them.
    monkeypatch.setattr(kernels, "_impl", impl)
    rows = [
        line.split()
        for line in GOLDEN_COVERS.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(rows) == 40 + 79
    for n, index, *cubes in rows:
        tt = TruthTable.from_index(int(n), int(index, 16))
        assert cover_strings(minimize_sop(tt)) == cubes, index
