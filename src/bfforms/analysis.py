"""Sweep records, priority-subset classification, efficiency and loss stats.

A sweep record stores, per form, the criterion-wise minima over that
form's representation space: the SOP cover is the unique minimized one, so
its vector is plain; for the Reed-Muller and arithmetic forms each
component is the minimum of that criterion over all 2**n polarities (the
area components are the rail factor times the matching count minima, so
the componentwise vector still satisfies every CostVector invariant).
Classification under a criterion therefore always compares each form's
best achievable value for exactly that criterion.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress
from operator import attrgetter, itemgetter, mul

from . import costs, kernels
from .arith import best_arith_polarity, ArithPolynomial
from .costs import CostVector
from .guard import resolve_guard
from .npclasses import np_classes
from .reedmuller import best_polarity, RmPolynomial
from .sop import minimize_sop, SopForm
from .truthtable import TruthTable, _is_int, sample_uniform

FORMS = ("cfr", "afr", "rm")
SCENARIOS = ("cfr", "cfr+afr", "cfr+rm", "ofr")
SUBSET_LABELS = ("C", "A", "RM", "CA", "CR", "AR", "CAR")

_CHUNK = 2048


@dataclass(frozen=True)
class SweepRecord:
    """Per-function cost vectors of the three minimized forms."""

    index: int
    cost_cfr: CostVector
    cost_afr: CostVector
    cost_rm: CostVector

    def cost(self, form: str, criterion: str) -> int:
        if form == "cfr":
            return self.cost_cfr.get(criterion)
        if form == "afr":
            return self.cost_afr.get(criterion)
        if form == "rm":
            return self.cost_rm.get(criterion)
        if form == "ofr":
            return min(
                self.cost_cfr.get(criterion),
                self.cost_afr.get(criterion),
                self.cost_rm.get(criterion),
            )
        raise ValueError(f"unknown form {form!r}")


@dataclass(frozen=True)
class ReiResult:
    """Relative efficiency index of one form under one criterion."""

    form: str
    criterion: str
    variant: str
    eta: Fraction
    s_mm: int
    n_max: int


@dataclass(frozen=True)
class LossReport:
    """Aggregate criterion sum for one deployment scenario.

    Both percentage conventions are carried because published loss tables
    mix them: benefit relative to the all-SOP aggregate and benefit
    relative to the scenario's own aggregate.
    """

    scenario: str
    criterion: str
    q: int
    absolute_benefit: int
    percent_of_cfr: Fraction
    percent_of_scenario: Fraction


_COSTS = attrgetter(*costs.CRITERIA)


def _cost_row(rec: SweepRecord) -> tuple[int, ...]:
    return _COSTS(rec.cost_cfr) + _COSTS(rec.cost_rm) + _COSTS(rec.cost_afr)


def _cost_rows(n: int, counts) -> list[tuple[int, ...]]:
    """The cost row of each kernel count row; see :class:`SweepRecords`.

    The area cells are the rail factor times the summand and conjunction
    counts: 2n for the dual-rail SOP plane, n for the polynomial forms.
    """
    d = 2 * n
    return [
        (c_ad, c_sh, c_l, d * c_ad, d * c_sh,
         r_ad, r_sh, r_l, n * r_ad, n * r_sh,
         a_ad, a_sh, a_l, n * a_ad, n * a_sh)
        for c_ad, c_sh, c_l, r_ad, r_sh, r_l, a_ad, a_sh, a_l in counts
    ]  # fmt: skip


def _record_of_row(index: int, row: tuple[int, ...]) -> SweepRecord:
    return SweepRecord(
        index,
        cost_cfr=CostVector(*row[0:5]),
        cost_rm=CostVector(*row[5:10]),
        cost_afr=CostVector(*row[10:15]),
    )


@dataclass(frozen=True, eq=False, repr=False)
class SweepRecords(Sequence):
    """The records of a sweep, stored as one cost row per class of functions.

    Functions of one class share their costs, so only the class's costs are
    kept: ``indices[i]`` is the function at position ``i``, ``class_of[i]``
    its class, ``class_rows[c]`` the costs of class ``c``, ``class_indices[c]``
    the index of one of its functions and ``class_sizes[c]`` the number of
    positions in class ``c``.  A cost row is a tuple of 15 ints in the
    column order of ``records.csv``: the five criteria of ``CRITERIA`` for
    cfr, then rm, then afr.  An exhaustive sweep has one class per NP class;
    a sampled sweep, or any plain list of records, one class per record.

    Statistics and report tables read the rows.  Records are built only
    when asked for: indexing and iteration yield a :class:`SweepRecord` per
    function, equal to the one built for that function alone, and
    ``class_records`` holds one per class, built on first read.
    """

    indices: Sequence[int]
    class_of: Sequence[int]
    class_indices: Sequence[int]
    class_rows: Sequence[tuple[int, ...]]
    class_sizes: Sequence[int]

    @classmethod
    def of(cls, records) -> SweepRecords:
        """``records`` as a SweepRecords: itself, or one class per record."""
        if isinstance(records, cls):
            return records
        records = tuple(records)
        return cls._one_per_class(
            [rec.index for rec in records], list(map(_cost_row, records))
        )

    @classmethod
    def _one_per_class(cls, indices, rows) -> SweepRecords:
        count = len(indices)
        return cls(indices, range(count), indices, rows, (1,) * count)

    @cached_property
    def class_records(self) -> tuple[SweepRecord, ...]:
        """One record per class, carrying its ``class_indices`` entry."""
        return tuple(map(_record_of_row, self.class_indices, self.class_rows))

    def _record(self, index: int, c: int) -> SweepRecord:
        rec = self.class_records[c]
        if rec.index == index:
            return rec
        return SweepRecord(index, rec.cost_cfr, rec.cost_afr, rec.cost_rm)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._record(self.indices[i], self.class_of[i])

    def __iter__(self):
        return map(self._record, self.indices, self.class_of)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def analyze_record(tt: TruthTable, guard_s: float | None = None) -> SweepRecord:
    """Sweep record of a single function (kernel-backed)."""
    counts = kernels.analyze_counts(tt.n, tt.index, guard_s)
    return _record_of_row(tt.index, _cost_rows(tt.n, [counts])[0])


@dataclass(frozen=True)
class FunctionAnalysis:
    """One function minimized in all three forms under a chosen criterion.

    ``record`` carries the criterion-wise minima used for classification;
    the concrete representatives (``sop``, ``rm``, ``afr``) are the ones
    selected when optimizing ``criterion``, each polynomial with its
    polarity.
    """

    table: TruthTable
    criterion: str
    record: SweepRecord
    sop: SopForm
    rm: RmPolynomial
    afr: ArithPolynomial

    def labels(self) -> dict[str, str]:
        return {c: classify(self.record, c) for c in costs.CRITERIA}


def analyze_function(
    tt: TruthTable, criterion: str = "s_ad", guard_s: float | None = None
) -> FunctionAnalysis:
    """Minimize ``tt`` in all three forms; polarity searches use ``criterion``."""
    if criterion not in costs.CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    sop = minimize_sop(tt, guard_s)
    cfr = costs.cost_of_sop(sop)
    counts = (cfr.s_ad, cfr.s_sh, cfr.s_l) + kernels.polarity_minima(tt.n, tt.index)
    return FunctionAnalysis(
        table=tt,
        criterion=criterion,
        record=_record_of_row(tt.index, _cost_rows(tt.n, [counts])[0]),
        sop=sop,
        rm=best_polarity(tt, criterion)[1],
        afr=best_arith_polarity(tt, criterion)[1],
    )


_SUBSET_OF = {
    (True, False, False): "C",
    (False, True, False): "A",
    (False, False, True): "RM",
    (True, True, False): "CA",
    (True, False, True): "CR",
    (False, True, True): "AR",
    (True, True, True): "CAR",
}


def classify(record: SweepRecord, criterion: str) -> str:
    """Priority-subset label: which forms attain the minimum cost."""
    c = record.cost_cfr.get(criterion)
    a = record.cost_afr.get(criterion)
    r = record.cost_rm.get(criterion)
    m = min(c, a, r)
    return _SUBSET_OF[c == m, a == m, r == m]


_SCOPES = FORMS + ("ofr", "cfr+afr", "cfr+rm")
# The (cfr, afr, rm) cost triple of each criterion in a cost row, whose
# columns k, 5 + k and 10 + k hold criterion k of cfr, rm and afr.
_TRIPLES = [itemgetter(k, 10 + k, 5 + k) for k in range(len(costs.CRITERIA))]


@dataclass(frozen=True)
class SweepStats:
    """Every rei, weight and loss input of a record set; see :func:`aggregate`.

    ``sums`` and ``maxima`` map (scope, criterion) to the sum and the
    maximum of the per-record cost, where a scope is a form (``cfr``,
    ``afr``, ``rm``, ``ofr``) or a scenario of ``SCENARIOS`` and its cost is
    the least over its forms.  ``labels`` maps each criterion to the record
    count of every priority-subset label.
    """

    n_max: int
    sums: dict[tuple[str, str], int]
    maxima: dict[tuple[str, str], int]
    labels: dict[str, dict[str, int]]

    def rei(self, form: str, criterion: str, variant: str = "literal") -> ReiResult:
        """Relative efficiency index of ``form`` under ``criterion``.

        With N(j) the number of records whose cost is at most j and S_mm the
        maximum criterion value over all four forms and all records:

        * ``literal``:    eta = sum(N(j), j=0..S_mm) / (N_max * S_mm); the
          inclusive sum has S_mm + 1 terms over an S_mm denominator, so eta
          may slightly exceed 1.
        * ``normalized``: same sum over N_max * (S_mm + 1), bounded by 1.

        A record of cost v counts in N(j) for the S_mm + 1 - v values
        j = v..S_mm, so the sum is N_max * (S_mm + 1) minus the cost sum.
        """
        if not self.n_max:
            raise ValueError("empty record set")
        if variant not in ("literal", "normalized"):
            raise ValueError(f"unknown variant {variant!r}")
        if criterion not in costs.CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
        s_mm = max(self.maxima[f, criterion] for f in FORMS)
        if variant == "literal" and s_mm == 0:
            raise ValueError("degenerate s_mm: every cost is zero under the literal variant")
        if form not in FORMS + ("ofr",):
            raise ValueError(f"unknown form {form!r}")
        total = self.n_max * (s_mm + 1) - self.sums[form, criterion]
        denominator = self.n_max * (s_mm if variant == "literal" else s_mm + 1)
        return ReiResult(
            form=form,
            criterion=criterion,
            variant=variant,
            eta=Fraction(total, denominator),
            s_mm=s_mm,
            n_max=self.n_max,
        )

    def specific_weights(self, criterion: str) -> dict[str, Fraction]:
        """Fraction of records per priority-subset label; sums to exactly 1."""
        if not self.n_max:
            raise ValueError("empty record set")
        if criterion not in costs.CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
        return {
            label: Fraction(count, self.n_max)
            for label, count in self.labels[criterion].items()
        }

    def q_aggregate(self, scenario: str, criterion: str) -> LossReport:
        """Aggregate criterion sum when only the scenario's forms are available."""
        if criterion not in ("s_ad", "s_s"):
            raise ValueError(f"loss aggregates are defined for s_ad and s_s, got {criterion!r}")
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}")
        if not self.n_max:
            raise ValueError("empty record set")
        q = self.sums[scenario, criterion]
        q_cfr = self.sums["cfr", criterion]
        benefit = q_cfr - q
        return LossReport(
            scenario=scenario,
            criterion=criterion,
            q=q,
            absolute_benefit=benefit,
            percent_of_cfr=Fraction(100 * benefit, q_cfr) if q_cfr else Fraction(0),
            percent_of_scenario=Fraction(100 * benefit, q) if q else Fraction(0),
        )


def aggregate(records) -> SweepStats:
    """Collect every rei, weight and loss input in one pass over ``records``.

    The pass tallies, per criterion, the records by their (cfr, afr, rm)
    cost triple, read from the cost rows of :class:`SweepRecords`; the
    statistics then fold over the distinct triples.  Each class row counts
    as many times as its class has positions, so a sweep is tallied once
    per class and a plain sequence of records once per record.  A tally is
    bounded by the cost range, not the record count: 104 to 309 triples per
    criterion over the 65,536 functions at n=4.
    """
    recs = SweepRecords.of(records)
    rows, sizes = recs.class_rows, recs.class_sizes
    # Each class with positions counts once, then once more per further one.
    more = [(row, size - 1) for row, size in zip(rows, sizes) if size > 1]
    tallies = []
    for triple in _TRIPLES:
        tally = Counter(compress(map(triple, rows), sizes))
        for row, extra in more:
            tally[triple(row)] += extra
        tallies.append(tally)
    sums = {}
    maxima = {}
    labels = {}
    for criterion, tally in zip(costs.CRITERIA, tallies):
        counts = list(tally.values())
        c, a, r = (list(map(itemgetter(j), tally)) for j in range(3))
        m = list(map(min, c, a, r))
        scoped = (c, a, r, m, list(map(min, c, a)), list(map(min, c, r)))
        for scope, cost in zip(_SCOPES, scoped):
            sums[scope, criterion] = sum(map(mul, cost, counts))
            maxima[scope, criterion] = max(cost, default=0)
        label_counts = labels[criterion] = dict.fromkeys(SUBSET_LABELS, 0)
        for ci, ai, ri, mi, count in zip(c, a, r, m, counts):
            label_counts[_SUBSET_OF[ci == mi, ai == mi, ri == mi]] += count
    return SweepStats(
        n_max=sum(tallies[0].values()), sums=sums, maxima=maxima, labels=labels
    )


def rei(records, form: str, criterion: str, variant: str = "literal") -> ReiResult:
    """Relative efficiency index of ``form`` under ``criterion`` over ``records``.

    Definition and variants: :meth:`SweepStats.rei`.
    """
    return aggregate(records).rei(form, criterion, variant)


def specific_weights(records, criterion: str) -> dict[str, Fraction]:
    """Fraction of records per priority-subset label; sums to exactly 1."""
    return aggregate(records).specific_weights(criterion)


def q_aggregate(records, scenario: str, criterion: str) -> LossReport:
    """Aggregate criterion sum when only the scenario's forms are available."""
    return aggregate(records).q_aggregate(scenario, criterion)


def _batch_chunk(args: tuple[int, tuple[int, ...], float]) -> list[tuple[int, ...]]:
    n, indices, guard = args
    return kernels.analyze_batch(n, indices, guard)


def _batch(n: int, draw, jobs: int, guard_s: float | None):
    """The indices ``draw()`` returns and their cost rows, over ``jobs`` processes.

    Checks ``jobs``, resolves the guard, and only then draws.  One chunk of
    ``_CHUNK`` indices, or one job, runs in this process; the rows are the
    same for every ``jobs`` value.
    """
    if not _is_int(jobs) or jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs!r}")
    guard = resolve_guard(guard_s)
    indices = draw()
    chunks = [
        (n, tuple(indices[start : start + _CHUNK]), guard)
        for start in range(0, len(indices), _CHUNK)
    ]
    if jobs == 1 or len(chunks) <= 1:
        parts = map(_batch_chunk, chunks)
    else:
        # Imported here: multiprocessing adds about 2 MB to every process
        # that loads bfforms, and single-job runs never use it.
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts all its workers at the first task: no more than
        # there are chunks.
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            parts = list(pool.map(_batch_chunk, chunks))
    return indices, _cost_rows(n, [row for part in parts for row in part])


def sweep(n: int, jobs: int = 1, guard_s: float | None = None) -> SweepRecords:
    """Analyze every function of n variables, ordered by function index.

    The kernel's counts are invariant under permuting and complementing
    inputs (:mod:`bfforms.npclasses`), so it runs once per NP class, on the
    class's least index, and every function shares its class's record:
    402 kernel calls for the 65,536 functions of n=4.  ``jobs`` is the number
    of worker processes, as in :func:`sampled_sweep`, but the calls fit one
    chunk, so they run in this process.  ``jobs`` below 1 raises ValueError.
    """
    if not _is_int(n) or n not in (1, 2, 3, 4):
        raise ValueError(f"exhaustive sweeps support n in 1..4, got {n!r}")
    reps, rows = _batch(n, lambda: np_classes(n).representatives, jobs, guard_s)
    classes = np_classes(n)
    return SweepRecords(range(1 << (1 << n)), classes.class_of, reps, rows, classes.sizes)


def sampled_sweep(
    n: int, count: int, seed: int, jobs: int = 1, guard_s: float | None = None
) -> SweepRecords:
    """Analyze a seeded uniform sample of functions, in draw order.

    Each draw is its own class: random draws of n=5 almost never share an
    NP class.  ``jobs`` is the number of worker processes; the result is the
    same for every value, and one below 1 raises ValueError.
    """
    if not _is_int(n) or n > 5:
        raise ValueError(f"sampled sweeps support n <= 5, got {n!r}")
    indices, rows = _batch(n, lambda: sample_uniform(n, count, seed), jobs, guard_s)
    return SweepRecords._one_per_class(indices, rows)
