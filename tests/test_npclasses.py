"""NP classes and the class-compact sweep records built on them.

The orbit oracle here applies every one of the n!*2**n input permutations
and complementations to a truth table row by row, independent of the
generator tables in ``bfforms.npclasses``.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfforms import costs, kernels
from bfforms.analysis import (
    SweepRecord,
    SweepRecords,
    aggregate,
    sampled_sweep,
    sweep,
)
from bfforms.npclasses import np_classes
from bfforms.reports import records_table

CLASS_COUNTS = {1: 3, 2: 6, 3: 22, 4: 402}


def group_row_maps(n: int) -> list[list[int]]:
    """Row map of every input permutation composed with every complement."""
    maps = []
    for perm in permutations(range(n)):
        for flip in range(1 << n):
            maps.append([
                sum(((x ^ flip) >> perm[p] & 1) << p for p in range(n))
                for x in range(1 << n)
            ])
    return maps


def orbit(n: int, index: int, row_maps) -> set[int]:
    """Every g with g(x) = f(sigma(x)) for a group row map sigma."""
    return {
        sum((index >> sigma[x] & 1) << x for x in range(1 << n)) for sigma in row_maps
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_counts_and_sizes(n):
    classes = np_classes(n)
    assert len(classes.representatives) == CLASS_COUNTS[n]
    assert len(classes.sizes) == CLASS_COUNTS[n]
    assert sum(classes.sizes) == 1 << (1 << n)
    assert len(classes.class_of) == 1 << (1 << n)
    assert classes.representatives == tuple(sorted(classes.representatives))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_representatives_are_least_of_their_orbits(n):
    classes = np_classes(n)
    row_maps = group_row_maps(n)
    for c, rep in enumerate(classes.representatives):
        members = orbit(n, rep, row_maps)
        assert min(members) == rep
        assert len(members) == classes.sizes[c]
        assert all(classes.class_of[f] == c for f in members)


def test_np_classes_rejects_n():
    # 2.0 and True used to pass the range check.
    for n in (0, 5, 2.0, True):
        with pytest.raises(ValueError):
            np_classes(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_counts_equal_representatives(n):
    classes = np_classes(n)
    rep_counts = kernels.analyze_batch(n, classes.representatives)
    for index in range(1 << (1 << n)):
        assert kernels.analyze_counts(n, index) == rep_counts[classes.class_of[index]]


def record_of_counts(index: int, n: int, c: tuple[int, ...]) -> SweepRecord:
    """The record of one kernel count row, built from ``costs.from_counts``."""
    return SweepRecord(
        index=index,
        cost_cfr=costs.from_counts(n, c[0], c[1], c[2], dual_rail=True),
        cost_rm=costs.from_counts(n, c[3], c[4], c[5], dual_rail=False),
        cost_afr=costs.from_counts(n, c[6], c[7], c[8], dual_rail=False),
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sweep_equals_per_function_records(n):
    total = 1 << (1 << n)
    expected = [
        record_of_counts(i, n, c)
        for i, c in enumerate(kernels.sweep_counts(n, 0, total))
    ]
    records = sweep(n)
    assert len(records) == total
    assert records == expected
    assert expected == records
    assert list(records) == expected
    assert [records[i] for i in range(total)] == expected
    assert records[-1] == expected[-1]
    assert records[3:40:7] == expected[3:40:7]
    assert records != expected[:-1]


def test_sampled_sweep_is_one_class_per_draw():
    records = sampled_sweep(3, 40, seed=12)
    assert len(records.class_records) == 40
    assert list(records.class_sizes) == [1] * 40
    assert list(records) == list(records.class_records)


_counts = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 8))


@st.composite
def compact_records(draw):
    """A SweepRecords of 1-6 classes over up to 40 positions, row-built.

    Returns it with the records of its classes, built from the same counts
    as CostVectors, and the record expected at each of its positions.
    """
    n = draw(st.integers(1, 4))
    classes = draw(st.lists(st.tuples(_counts, _counts, _counts), min_size=1, max_size=6))
    class_of = draw(st.lists(st.integers(0, len(classes) - 1), max_size=40))
    indices = draw(st.permutations(range(len(class_of))))
    class_records = tuple(
        SweepRecord(
            index=1000 + c,
            cost_cfr=costs.from_counts(n, *cf, dual_rail=True),
            cost_afr=costs.from_counts(n, *af, dual_rail=False),
            cost_rm=costs.from_counts(n, *rm, dual_rail=False),
        )
        for c, (cf, af, rm) in enumerate(classes)
    )
    rows = [
        tuple(getattr(cv, k) for cv in (rec.cost_cfr, rec.cost_rm, rec.cost_afr)
              for k in costs.CRITERIA)
        for rec in class_records
    ]
    sizes = tuple(class_of.count(c) for c in range(len(classes)))
    records = SweepRecords(
        indices, class_of, [rec.index for rec in class_records], rows, sizes
    )
    expected = [
        SweepRecord(i, rec.cost_cfr, rec.cost_afr, rec.cost_rm)
        for i, rec in zip(indices, (class_records[c] for c in class_of))
    ]
    return records, class_records, expected


@settings(deadline=None, max_examples=150)
@given(compact_records())
def test_compact_fold_matches_expanded(drawn):
    records, class_records, expected = drawn
    assert records.class_records == class_records
    expanded = list(records)
    assert expanded == expected
    assert records == expected and expected == records
    plain = SweepRecords.of(expanded)
    assert plain.class_rows == [records.class_rows[c] for c in records.class_of]
    assert aggregate(records) == aggregate(expanded)
    assert records_table(records).render_csv() == records_table(expanded).render_csv()
