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

from dataclasses import dataclass
from fractions import Fraction

from . import costs, kernels
from .arith import best_arith_polarity, ArithPolynomial
from .costs import CostVector
from .guard import resolve_guard
from .reedmuller import best_polarity, PolarityVector, RmPolynomial
from .sop import minimize_sop, SopForm
from .truthtable import TruthTable, sample_uniform

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


def _record_from_counts(index: int, n: int, c: tuple[int, ...]) -> SweepRecord:
    return SweepRecord(
        index=index,
        cost_cfr=costs.from_counts(n, c[0], c[1], c[2], dual_rail=True),
        cost_rm=costs.from_counts(n, c[3], c[4], c[5], dual_rail=False),
        cost_afr=costs.from_counts(n, c[6], c[7], c[8], dual_rail=False),
    )


def analyze_record(tt: TruthTable, guard_s: float | None = None) -> SweepRecord:
    """Sweep record of a single function (kernel-backed)."""
    counts = kernels.analyze_counts(tt.n, tt.index, resolve_guard(guard_s))
    return _record_from_counts(tt.index, tt.n, counts)


@dataclass(frozen=True)
class FunctionAnalysis:
    """One function minimized in all three forms under a chosen criterion.

    ``record`` carries the criterion-wise minima used for classification;
    the concrete representatives (``sop``, ``rm``, ``afr``) are the ones
    selected when optimizing ``criterion``.
    """

    table: TruthTable
    criterion: str
    record: SweepRecord
    sop: SopForm
    rm_polarity: PolarityVector
    rm: RmPolynomial
    afr_polarity: PolarityVector
    afr: ArithPolynomial

    def label(self, criterion: str) -> str:
        return classify(self.record, criterion)

    def labels(self) -> dict[str, str]:
        return {c: classify(self.record, c) for c in costs.CRITERIA}


def analyze_function(
    tt: TruthTable, criterion: str = "s_ad", guard_s: float | None = None
) -> FunctionAnalysis:
    """Minimize ``tt`` in all three forms; polarity searches use ``criterion``."""
    if criterion not in costs.CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    n, index = tt.n, tt.index
    sop = minimize_sop(tt, guard_s)
    record = SweepRecord(
        index=index,
        cost_cfr=costs.cost_of_sop(sop),
        cost_rm=costs.from_counts(n, *kernels.rm_minima(n, index), dual_rail=False),
        cost_afr=costs.from_counts(n, *kernels.arith_minima(n, index), dual_rail=False),
    )
    pk, rm_poly = best_polarity(tt, criterion)
    ak, af_poly = best_arith_polarity(tt, criterion)
    return FunctionAnalysis(
        table=tt,
        criterion=criterion,
        record=record,
        sop=sop,
        rm_polarity=pk,
        rm=rm_poly,
        afr_polarity=ak,
        afr=af_poly,
    )


def classify(record: SweepRecord, criterion: str) -> str:
    """Priority-subset label: which forms attain the minimum cost."""
    c = record.cost_cfr.get(criterion)
    a = record.cost_afr.get(criterion)
    r = record.cost_rm.get(criterion)
    m = min(c, a, r)
    key = (c == m, a == m, r == m)
    return {
        (True, False, False): "C",
        (False, True, False): "A",
        (False, False, True): "RM",
        (True, True, False): "CA",
        (True, False, True): "CR",
        (False, True, True): "AR",
        (True, True, True): "CAR",
    }[key]


def rei(records, form: str, criterion: str, variant: str = "literal") -> ReiResult:
    """Relative efficiency index of ``form`` under ``criterion``.

    With N(j) the number of records whose cost is at most j and S_mm the
    maximum criterion value over all four forms and all records:

    * ``literal``:    eta = sum(N(j), j=0..S_mm) / (N_max * S_mm); the
      inclusive sum has S_mm + 1 terms over an S_mm denominator, so eta
      may slightly exceed 1.
    * ``normalized``: same sum over N_max * (S_mm + 1), bounded by 1.
    """
    records = list(records)
    if not records:
        raise ValueError("empty record set")
    if variant not in ("literal", "normalized"):
        raise ValueError(f"unknown variant {variant!r}")
    n_max = len(records)
    s_mm = max(
        rec.cost(f, criterion) for rec in records for f in FORMS + ("ofr",)
    )
    if variant == "literal" and s_mm == 0:
        raise ValueError("degenerate s_mm: every cost is zero under the literal variant")
    histogram = [0] * (s_mm + 1)
    for rec in records:
        histogram[rec.cost(form, criterion)] += 1
    total = 0
    running = 0
    for j in range(s_mm + 1):
        running += histogram[j]
        total += running
    denominator = n_max * (s_mm if variant == "literal" else s_mm + 1)
    return ReiResult(
        form=form,
        criterion=criterion,
        variant=variant,
        eta=Fraction(total, denominator),
        s_mm=s_mm,
        n_max=n_max,
    )


def specific_weights(records, criterion: str) -> dict[str, Fraction]:
    """Fraction of records per priority-subset label; sums to exactly 1."""
    records = list(records)
    if not records:
        raise ValueError("empty record set")
    tally = {label: 0 for label in SUBSET_LABELS}
    for rec in records:
        tally[classify(rec, criterion)] += 1
    total = len(records)
    return {label: Fraction(count, total) for label, count in tally.items()}


def _scenario_cost(rec: SweepRecord, scenario: str, criterion: str) -> int:
    if scenario == "cfr":
        return rec.cost("cfr", criterion)
    if scenario == "cfr+afr":
        return min(rec.cost("cfr", criterion), rec.cost("afr", criterion))
    if scenario == "cfr+rm":
        return min(rec.cost("cfr", criterion), rec.cost("rm", criterion))
    if scenario == "ofr":
        return rec.cost("ofr", criterion)
    raise ValueError(f"unknown scenario {scenario!r}")


def q_aggregate(records, scenario: str, criterion: str) -> LossReport:
    """Aggregate criterion sum when only the scenario's forms are available."""
    if criterion not in ("s_ad", "s_s"):
        raise ValueError(f"loss aggregates are defined for s_ad and s_s, got {criterion!r}")
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    records = list(records)
    if not records:
        raise ValueError("empty record set")
    q = sum(_scenario_cost(rec, scenario, criterion) for rec in records)
    q_cfr = sum(rec.cost("cfr", criterion) for rec in records)
    benefit = q_cfr - q
    return LossReport(
        scenario=scenario,
        criterion=criterion,
        q=q,
        absolute_benefit=benefit,
        percent_of_cfr=Fraction(100 * benefit, q_cfr) if q_cfr else Fraction(0),
        percent_of_scenario=Fraction(100 * benefit, q) if q else Fraction(0),
    )


def _sweep_chunk(args: tuple[int, int, int, float]) -> list[tuple[int, ...]]:
    n, start, stop, guard = args
    return kernels.sweep_counts(n, start, stop, guard)


def _batch_chunk(args: tuple[int, tuple[int, ...], float]) -> list[tuple[int, ...]]:
    n, indices, guard = args
    return kernels.analyze_batch(n, indices, guard)


def _run_jobs(worker, chunks, jobs: int):
    if jobs <= 1 or len(chunks) <= 1:
        results = [worker(c) for c in chunks]
    else:
        # Imported here: multiprocessing adds about 2 MB to every process
        # that loads bfforms, and single-job runs never use it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, chunks))
    merged: list[tuple[int, ...]] = []
    for part in results:
        merged.extend(part)
    return merged


def sweep(n: int, jobs: int = 1, guard_s: float | None = None) -> list[SweepRecord]:
    """Analyze every function of n variables, ordered by function index.

    The work splits into contiguous index chunks; output is identical for
    every ``jobs`` value.
    """
    if n not in (1, 2, 3, 4):
        raise ValueError(f"exhaustive sweeps support n in 1..4, got {n}")
    guard = resolve_guard(guard_s)
    total = 1 << (1 << n)
    chunks = [
        (n, start, min(start + _CHUNK, total), guard)
        for start in range(0, total, _CHUNK)
    ]
    counts = _run_jobs(_sweep_chunk, chunks, jobs)
    return [_record_from_counts(i, n, c) for i, c in enumerate(counts)]


def sampled_sweep(
    n: int, count: int, seed: int, jobs: int = 1, guard_s: float | None = None
) -> list[SweepRecord]:
    """Analyze a seeded uniform sample of functions, in draw order."""
    if n > 5:
        raise ValueError(f"sampled sweeps support n <= 5, got {n}")
    guard = resolve_guard(guard_s)
    indices = sample_uniform(n, count, seed)
    chunks = [
        (n, tuple(indices[start : start + _CHUNK]), guard)
        for start in range(0, len(indices), _CHUNK)
    ]
    counts = _run_jobs(_batch_chunk, chunks, jobs)
    return [
        _record_from_counts(idx, n, c) for idx, c in zip(indices, counts)
    ]
