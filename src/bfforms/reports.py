"""Report tables and the sweep/sample output bundle (CSV + JSON).

CSV conventions: '.' decimal separator, ',' field separator, LF line
endings.  Rationals render at a configurable precision (default 3
decimals, round-half-even), and the JSON report keeps every rational as an
exact numerator/denominator pair next to its decimal rendering.  Output
bytes depend only on the records, so reruns and different worker counts
produce identical files.

Every report reads the cost rows of a
:class:`~bfforms.analysis.SweepRecords`, one tuple of 15 ints per class of
functions in ``records.csv`` column order, and builds no record object.
The statistic tables and the summary derive from one
:class:`~bfforms.analysis.SweepStats`, built by a single pass over the
class rows; the per-function records table renders each class's row once
and joins it with the index of every function in the class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import reference
from .analysis import SCENARIOS, SUBSET_LABELS, SweepRecords, SweepStats, aggregate
from .costs import CRITERIA

SCHEMA_SWEEP = "bfforms.sweep-report/1"
SCHEMA_ANALYZE = "bfforms.analyze/1"

REI_VARIANTS = ("literal", "normalized")


def format_rational(value: int | Fraction, places: int = 3) -> str:
    """Decimal rendering with round-half-even at ``places`` digits."""
    f = Fraction(value)
    sign = "-" if f < 0 else ""
    f = abs(f)
    scale = 10**places
    q, r = divmod(f.numerator * scale, f.denominator)
    doubled = 2 * r
    if doubled > f.denominator or (doubled == f.denominator and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, scale)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


def _cell(value, places: int) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean report cells are not supported")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return format_rational(value, places)
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


@dataclass(frozen=True)
class ReportTable:
    """A titled table of exact rationals/integers/strings."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]

    def render_csv(self, places: int = 3) -> str:
        lines = [",".join(self.headers)]
        for row in self.rows:
            if len(row) != len(self.headers):
                raise ValueError("row width does not match headers")
            lines.append(",".join(_cell(v, places) for v in row))
        return "\n".join(lines) + "\n"


def _rational_json(value: Fraction) -> dict:
    f = Fraction(value)
    return {
        "num": f.numerator,
        "den": f.denominator,
        "decimal": format_rational(f),
    }


def rei_table(stats: SweepStats) -> ReportTable:
    rows = []
    for variant in REI_VARIANTS:
        for form in ("cfr", "afr", "rm", "ofr"):
            cells: list = [variant, form]
            for criterion in CRITERIA:
                cells.append(stats.rei(form, criterion, variant).eta)
            rows.append(tuple(cells))
    return ReportTable(
        title="relative efficiency index",
        headers=("variant", "form") + CRITERIA,
        rows=tuple(rows),
    )


def weight_stderr(weight: Fraction, n_max: int) -> float:
    """Binomial standard error of a specific-weight estimate."""
    p = float(weight)
    return math.sqrt(p * (1.0 - p) / n_max)


def weights_table(stats: SweepStats, sampled: bool) -> ReportTable:
    headers = ("criterion", "label", "weight") + (("stderr",) if sampled else ())
    rows = []
    for criterion in CRITERIA:
        weights = stats.specific_weights(criterion)
        for label in SUBSET_LABELS:
            row: list = [criterion, label, weights[label]]
            if sampled:
                row.append(f"{weight_stderr(weights[label], stats.n_max):.6f}")
            rows.append(tuple(row))
    return ReportTable(
        title="specific weights of priority subsets",
        headers=headers,
        rows=tuple(rows),
    )


def losses_table(stats: SweepStats) -> ReportTable:
    rows = []
    for criterion in ("s_ad", "s_s"):
        for scenario in SCENARIOS:
            loss = stats.q_aggregate(scenario, criterion)
            rows.append(
                (
                    criterion,
                    scenario,
                    loss.q,
                    loss.absolute_benefit,
                    loss.percent_of_cfr,
                    loss.percent_of_scenario,
                )
            )
    return ReportTable(
        title="aggregate losses and benefits",
        headers=(
            "criterion",
            "scenario",
            "q",
            "absolute_benefit",
            "benefit_pct_of_cfr",
            "benefit_pct_of_scenario",
        ),
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class RenderedTable:
    """A table whose rows are rendered when it is built (integer cells only)."""

    title: str
    headers: tuple[str, ...]
    body: str

    def render_csv(self, places: int = 3) -> str:
        return ",".join(self.headers) + "\n" + self.body


def records_table(records) -> RenderedTable:
    """One row per function: its index, then 5 cost cells per form.

    The cost cells are a class's cost row, already in column order, so
    each class's row is rendered once and joined with the index of every
    function in it.
    """
    recs = SweepRecords.of(records)
    headers = ["index"]
    for form in ("cfr", "rm", "afr"):
        headers.extend(f"{form}_{c}" for c in CRITERIA)
    cell_format = ",".join(["%s"] * (len(headers) - 1))
    cells = [cell_format % row for row in recs.class_rows]
    body = "".join(f"{i},{cells[c]}\n" for i, c in zip(recs.indices, recs.class_of))
    return RenderedTable(title="per-function records", headers=tuple(headers), body=body)


def summary_json(
    stats: SweepStats,
    n: int,
    sampled: dict | None = None,
) -> dict:
    """Everything the CSV tables carry, as exact rationals, plus metadata."""
    rei_block: dict = {}
    for variant in REI_VARIANTS:
        rei_block[variant] = {}
        for form in ("cfr", "afr", "rm", "ofr"):
            per_form = {}
            for criterion in CRITERIA:
                result = stats.rei(form, criterion, variant)
                per_form[criterion] = dict(
                    _rational_json(result.eta), s_mm=result.s_mm
                )
            rei_block[variant][form] = per_form

    weights_block: dict = {}
    for criterion in CRITERIA:
        weights = stats.specific_weights(criterion)
        weights_block[criterion] = {
            label: dict(
                _rational_json(weights[label]),
                **(
                    {"stderr": round(weight_stderr(weights[label], stats.n_max), 8)}
                    if sampled
                    else {}
                ),
            )
            for label in SUBSET_LABELS
        }

    losses_block: dict = {}
    computed_losses: dict = {}
    for criterion in ("s_ad", "s_s"):
        losses_block[criterion] = {}
        computed_losses[criterion] = {}
        for scenario in SCENARIOS:
            loss = stats.q_aggregate(scenario, criterion)
            losses_block[criterion][scenario] = {
                "q": loss.q,
                "absolute_benefit": loss.absolute_benefit,
                "percent_of_cfr": _rational_json(loss.percent_of_cfr),
                "percent_of_scenario": _rational_json(loss.percent_of_scenario),
            }
            computed_losses[criterion][scenario] = (loss.q, loss.absolute_benefit)

    computed_rei = {
        form: {
            criterion: stats.rei(form, criterion, "literal").eta
            for criterion in CRITERIA
        }
        for form in ("cfr", "afr", "rm", "ofr")
    }

    meta: dict = {"n": n, "record_count": stats.n_max, "sampled": bool(sampled)}
    if sampled:
        meta.update(sampled)
        max_se = max(
            weight_stderr(stats.specific_weights(c)[label], stats.n_max)
            for c in CRITERIA
            for label in SUBSET_LABELS
        )
        meta["max_weight_stderr"] = round(max_se, 8)
        meta["max_weight_ci95_halfwidth"] = round(1.96 * max_se, 8)
    meta["max_min_afr_summands"] = stats.maxima["afr", "s_ad"]
    meta["max_min_rm_summands"] = stats.maxima["rm", "s_ad"]

    out = {
        "schema": SCHEMA_SWEEP,
        "meta": meta,
        "rei": rei_block,
        "weights": weights_block,
        "losses": losses_block,
    }
    ref_rei = reference.compare_rei(n, computed_rei)
    ref_losses = reference.compare_losses(n, computed_losses)
    if ref_rei or ref_losses:
        out["reference_comparison"] = {
            "notes": list(reference.REFERENCE_NOTES),
            "rei": ref_rei,
            "losses": ref_losses,
        }
    return out


def write_sweep_reports(
    records,
    n: int,
    out_dir: str | Path,
    sampled: dict | None = None,
) -> list[Path]:
    """Write records/rei/weights/losses CSVs and summary.json; return paths.

    ``records`` is a :class:`~bfforms.analysis.SweepRecords` or any
    sequence of :class:`~bfforms.analysis.SweepRecord`.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    records = SweepRecords.of(records)
    stats = aggregate(records)
    tables = {
        "records.csv": records_table(records),
        "rei.csv": rei_table(stats),
        "weights.csv": weights_table(stats, sampled is not None),
        "losses.csv": losses_table(stats),
    }
    for name, table in tables.items():
        path = out / name
        path.write_text(table.render_csv(), encoding="ascii", newline="\n")
        written.append(path)
    summary = summary_json(stats, n, sampled)
    path = out / "summary.json"
    path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
        encoding="ascii",
        newline="\n",
    )
    written.append(path)
    return written
