"""Report tables and the sweep/sample output bundle (CSV + JSON).

CSV conventions: '.' decimal separator, ',' field separator, LF line
endings.  Rationals render at 3 decimals, round-half-even, and the JSON
report keeps every rational as an exact numerator/denominator pair next to
its decimal rendering.  Output bytes depend only on the records, so reruns
and different worker counts produce identical files.

Every report reads the cost rows of a
:class:`~bfforms.analysis.SweepRecords`, one tuple of 15 ints per class of
functions in ``records.csv`` column order, and builds no record object.
Each statistic cell is computed once, by its table: :func:`rei_table`,
:func:`weights_table` and :func:`losses_table` read one
:class:`~bfforms.analysis.SweepStats`, built by a single pass over the
class rows, and :func:`summary_json` builds every block from the rows of
the same three tables that the CSV files are written from.
The records table renders each class's 15 cost cells once, as bytes;
``records.csv`` is then formatted ``BLOCK_LINES`` functions at a time, each
block by one bytes ``%`` call over its indices and their classes' cells,
so the file is never held whole.  Every report file is written in binary.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import BinaryIO

from . import reference
from .analysis import SCENARIOS, SweepRecords, SweepStats, aggregate
from .costs import CRITERIA

SCHEMA_SWEEP = "bfforms.sweep-report/1"

REI_VARIANTS = ("literal", "normalized")
BLOCK_LINES = 4096  # CSV lines rendered and written per file write


def format_rational(value: int | Fraction) -> str:
    """Decimal rendering with round-half-even at three digits."""
    f = Fraction(value)
    sign = "-" if f < 0 else ""
    whole, frac = divmod(round(abs(f) * 1000), 1000)
    return f"{sign}{whole}.{frac:03d}"


def _cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean report cells are not supported")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


@dataclass(frozen=True)
class ReportTable:
    """A table of exact rationals/integers/floats/strings.

    Its rows are tuples of cells, or blocks of lines its builder already
    rendered as ASCII bytes; the records table renders such blocks lazily,
    afresh on each write.
    """

    headers: tuple[str, ...]
    rows: Iterable[tuple | bytes]

    def _line(self, row: tuple) -> str:
        if len(row) != len(self.headers):
            raise ValueError("row width does not match headers")
        return ",".join([_cell(v) for v in row])

    def write_csv(self, file: BinaryIO) -> None:
        """Write the header line, then each row, to a binary file.

        A bytes block goes out as it is, a tuple row as one ASCII line.
        """
        file.write(",".join(self.headers).encode("ascii") + b"\n")
        for row in self.rows:
            if isinstance(row, bytes):
                file.write(row)
            else:
                file.write(self._line(row).encode("ascii") + b"\n")

    def render_csv(self) -> str:
        data = io.BytesIO()
        self.write_csv(data)
        return data.getvalue().decode("ascii")


def _rational_json(value: Fraction) -> dict:
    f = Fraction(value)
    return {
        "num": f.numerator,
        "den": f.denominator,
        "decimal": format_rational(f),
    }


def rei_table(stats: SweepStats) -> ReportTable:
    rows = tuple(
        (variant, form) + tuple(stats.rei(form, c, variant).eta for c in CRITERIA)
        for variant in REI_VARIANTS
        for form in ("cfr", "afr", "rm", "ofr")
    )
    headers = ("variant", "form") + CRITERIA
    return ReportTable(headers, rows)


def weight_stderr(weight: Fraction, n_max: int) -> float:
    """Binomial standard error of a specific-weight estimate."""
    p = float(weight)
    return math.sqrt(p * (1.0 - p) / n_max)


def weights_table(stats: SweepStats, sampled: bool) -> ReportTable:
    headers = ("criterion", "label", "weight") + (("stderr",) if sampled else ())
    rows = []
    for criterion in CRITERIA:
        for label, weight in stats.specific_weights(criterion).items():
            stderr = (weight_stderr(weight, stats.n_max),) if sampled else ()
            rows.append((criterion, label, weight) + stderr)
    return ReportTable(headers, tuple(rows))


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


def records_table(records) -> ReportTable:
    """One row per function: its index, then 5 cost cells per form.

    The cost cells are a class's cost row, already in column order, so
    each class's cells are rendered once and each block of lines joins
    them with the functions' indices as the table is written.
    """
    recs = SweepRecords.of(records)
    headers = ["index"]
    for form in ("cfr", "rm", "afr"):
        headers.extend(f"{form}_{c}" for c in CRITERIA)
    cell_format = b",".join([b"%d"] * (len(headers) - 1))
    cells = [cell_format % row for row in recs.class_rows]
    return ReportTable(tuple(headers), _RecordLines(recs.indices, recs.class_of, cells))


@dataclass(frozen=True)
class _RecordLines:
    """The records table's rows: blocks of ``BLOCK_LINES`` lines as bytes.

    Each pass renders the blocks again, one ``%`` call per block.
    """

    indices: Sequence[int]
    class_of: Sequence[int]
    cells: Sequence[bytes]

    def __iter__(self):
        cell = self.cells.__getitem__
        for start in range(0, len(self.indices), BLOCK_LINES):
            stop = start + BLOCK_LINES
            idx = self.indices[start:stop]
            # index, cells, index, cells, ... for the block's lines.
            args = [b""] * (2 * len(idx))
            args[0::2] = idx
            args[1::2] = map(cell, self.class_of[start:stop])
            yield b"%d,%b\n" * len(idx) % tuple(args)


def summary_json(
    stats: SweepStats,
    n: int,
    rei: ReportTable,
    weights: ReportTable,
    losses: ReportTable,
    sampled: dict | None = None,
) -> dict:
    """Everything the CSV tables carry, as exact rationals, plus metadata.

    Every block is read from the rows of the three statistic tables of
    ``stats`` (:func:`rei_table`, :func:`weights_table` and
    :func:`losses_table`), and each criterion's S_mm (the same for every
    form) from ``stats``.  ``sampled`` is None for a sweep; any dict, even
    ``{}``, is a sample's.
    """
    criteria = rei.headers[2:]
    s_mm = [stats.rei("cfr", c).s_mm for c in criteria]
    rei_block: dict = {}
    computed_rei: dict = {}
    for variant, form, *etas in rei.rows:
        rei_block.setdefault(variant, {})[form] = {
            c: dict(_rational_json(eta), s_mm=m)
            for c, eta, m in zip(criteria, etas, s_mm)
        }
        if variant == "literal":
            computed_rei[form] = dict(zip(criteria, etas))

    weights_block: dict = {}
    for criterion, label, weight, *stderr in weights.rows:
        cell = _rational_json(weight)
        if stderr:
            cell["stderr"] = round(stderr[0], 8)
        weights_block.setdefault(criterion, {})[label] = cell

    losses_block: dict = {}
    computed_losses: dict = {}
    for criterion, scenario, q, benefit, pct_cfr, pct_scenario in losses.rows:
        losses_block.setdefault(criterion, {})[scenario] = {
            "q": q,
            "absolute_benefit": benefit,
            "percent_of_cfr": _rational_json(pct_cfr),
            "percent_of_scenario": _rational_json(pct_scenario),
        }
        computed_losses.setdefault(criterion, {})[scenario] = (q, benefit)

    meta: dict = {"n": n, "record_count": stats.n_max, "sampled": sampled is not None}
    if sampled is not None:
        meta.update(sampled)
        max_se = max(row[3] for row in weights.rows)
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
    sequence of :class:`~bfforms.analysis.SweepRecord`.  ``sampled`` is
    None for an exhaustive sweep, else the sample's metadata.
    """
    records = SweepRecords.of(records)
    stats = aggregate(records)
    rei = rei_table(stats)
    weights = weights_table(stats, sampled is not None)
    losses = losses_table(stats)
    tables = {
        "records.csv": records_table(records),
        "rei.csv": rei,
        "weights.csv": weights,
        "losses.csv": losses,
    }
    summary = summary_json(stats, n, rei, weights, losses, sampled)
    # Tables and summary come first: a statistic that cannot be computed
    # leaves no directory behind.
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, table in tables.items():
        path = out / name
        with path.open("wb") as file:
            table.write_csv(file)
        written.append(path)
    path = out / "summary.json"
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    path.write_bytes(text.encode("ascii"))
    written.append(path)
    return written
