import hashlib
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import kernel_backends
from bfforms import analysis, cli, kernels
from bfforms.analysis import SweepRecord, aggregate, sweep
from bfforms.costs import CRITERIA, CostVector
from bfforms.reports import (
    ReportTable,
    format_rational,
    records_table,
    rei_table,
    summary_json,
    weights_table,
    write_sweep_reports,
)

REPORT_FILES = ("records.csv", "rei.csv", "weights.csv", "losses.csv", "summary.json")
GOLDEN_REPORTS = Path(__file__).parent / "data" / "golden_reports.sha256"
GOLDEN_RUNS = {
    "sweep3": ["sweep", "--n", "3", "--jobs", "1"],
    "sample5": ["sample", "--n", "5", "--count", "512", "--seed", "7", "--jobs", "1"],
    "sweep4": ["sweep", "--n", "4", "--jobs", "1"],
}


@pytest.fixture(scope="module")
def sweep3():
    return sweep(3)


@pytest.fixture(scope="module")
def stats3(sweep3):
    return aggregate(sweep3)


def test_format_rational_round_half_even():
    assert format_rational(Fraction(1, 2000)) == "0.000"  # 0.0005 ties to even
    assert format_rational(Fraction(3, 2000)) == "0.002"  # 0.0015 ties to even
    assert format_rational(Fraction(1, 3)) == "0.333"
    assert format_rational(Fraction(2, 3)) == "0.667"
    assert format_rational(Fraction(-1, 8)) == "-0.125"
    assert format_rational(7) == "7.000"
    assert format_rational(Fraction(5, 4), places=0) == "1"


def test_rendered_csv_round_trips_at_precision(stats3):
    table = rei_table(stats3)
    csv = table.render_csv()
    for line in csv.splitlines()[1:]:
        for cell in line.split(",")[2:]:
            reparsed = Fraction(cell)
            assert format_rational(reparsed) == cell


def test_csv_conventions(stats3):
    csv = weights_table(stats3, sampled=False).render_csv()
    assert "\r" not in csv
    assert csv.endswith("\n")
    assert csv.splitlines()[0] == "criterion,label,weight"


def test_report_table_width_check():
    table = ReportTable(("a", "b"), ((1,),))
    with pytest.raises(ValueError):
        table.render_csv()


def test_rei_table_shape(stats3):
    table = rei_table(stats3)
    assert table.headers == ("variant", "form") + CRITERIA
    assert len(table.rows) == 8  # 2 variants x 4 forms
    forms = [row[1] for row in table.rows]
    assert forms == ["cfr", "afr", "rm", "ofr"] * 2


def test_summary_json_structure(stats3):
    summary = summary_json(stats3, 3)
    assert summary["schema"] == "bfforms.sweep-report/1"
    eta = summary["rei"]["literal"]["cfr"]["s_ad"]
    assert set(eta) == {"num", "den", "decimal", "s_mm"}
    assert Fraction(eta["num"], eta["den"]) > 0
    assert "reference_comparison" in summary
    ref = summary["reference_comparison"]
    assert ref["rei"] and ref["losses"] and ref["notes"]
    assert {"form", "criterion", "computed", "reference", "delta"} <= set(ref["rei"][0])
    assert summary["meta"]["max_min_afr_summands"] == 7


def test_summary_json_sampled_stderr(stats3):
    summary = summary_json(stats3, 3, sampled={"count": 256, "seed": 1})
    assert summary["meta"]["sampled"] is True
    assert 0 < summary["meta"]["max_weight_stderr"] < 0.05
    weights = summary["weights"]["s_ad"]
    assert all("stderr" in cell for cell in weights.values())


def test_write_sweep_reports_files(tmp_path, sweep3):
    written = write_sweep_reports(sweep3, 3, tmp_path)
    names = sorted(p.name for p in written)
    assert names == [
        "losses.csv",
        "records.csv",
        "rei.csv",
        "summary.json",
        "weights.csv",
    ]
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["meta"]["record_count"] == 256
    records_csv = (tmp_path / "records.csv").read_text()
    assert len(records_csv.splitlines()) == 257
    assert records_csv.splitlines()[0].startswith("index,cfr_s_ad")


def test_records_table_renders_the_same_bytes_twice():
    # Each write renders every line again, so two writes give the same bytes.
    table = records_table(sweep(2))
    first = table.render_csv()
    assert len(first.splitlines()) == 17
    assert table.render_csv() == first


def test_no_reference_section_for_n2(tmp_path):
    summary = summary_json(aggregate(sweep(2)), 2)
    assert "reference_comparison" not in summary


@pytest.mark.parametrize("impl", kernel_backends(), ids=lambda m: m.BACKEND)
def test_report_bytes_match_golden_digests(impl, monkeypatch, tmp_path):
    # Digests recorded before the statistics moved to one aggregate pass
    # (sweep3, sample5) and before sweeps moved to NP classes (sweep4).
    monkeypatch.setattr(kernels, "_impl", impl)
    expected = {}
    for line in GOLDEN_REPORTS.read_text().splitlines():
        if line and not line.startswith("#"):
            digest, name = line.split()
            expected[name] = digest
    assert len(expected) == 15
    for label, argv in GOLDEN_RUNS.items():
        assert cli.main(argv + ["--out", str(tmp_path / label)]) == 0
    for name, digest in expected.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


@pytest.mark.parametrize("impl", kernel_backends(), ids=lambda m: m.BACKEND)
def test_sample_reports_identical_across_jobs(impl, monkeypatch, tmp_path):
    # Two chunks of draws, so --jobs 2 runs the process pool.
    monkeypatch.setattr(kernels, "_impl", impl)
    count = str(analysis._CHUNK + 1)
    for jobs in ("1", "2"):
        argv = ["sample", "--n", "5", "--count", count, "--seed", "3", "--jobs", jobs]
        assert cli.main(argv + ["--out", str(tmp_path / jobs)]) == 0
    for name in REPORT_FILES:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_reports_build_no_record_objects(monkeypatch, tmp_path):
    built = []
    for cls in (SweepRecord, CostVector):

        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    assert cli.main(["sweep", "--n", "3", "--out", str(tmp_path / "sweep")]) == 0
    argv = ["sample", "--n", "4", "--count", "300", "--seed", "5"]
    assert cli.main(argv + ["--out", str(tmp_path / "sample")]) == 0
    assert built == []
    assert sweep(2)[0].cost_cfr.s_ad == 0
    assert sorted(set(built)) == ["CostVector", "SweepRecord"]


def test_empty_sampled_dict_marks_a_sample(tmp_path):
    # None means an exhaustive sweep; any dict, even an empty one, a sample.
    write_sweep_reports(sweep(2), 2, tmp_path, sampled={})
    header = (tmp_path / "weights.csv").read_text().splitlines()[0]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert header == "criterion,label,weight,stderr"
    assert summary["meta"]["sampled"] is True
    assert "max_weight_stderr" in summary["meta"]
    assert all("stderr" in cell for cell in summary["weights"]["s_ad"].values())


def test_write_sweep_reports_memory_peak(tmp_path):
    # records.csv is written a block of lines at a time, never held whole
    # (65,537 lines, about 2.9 MB of text at n=4).
    records = sweep(4)
    write_sweep_reports(records, 4, tmp_path)
    tracemalloc.start()
    try:
        write_sweep_reports(records, 4, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--n", str(n)] for n in (1, 2, 3)]
    + [["sample", "--n", "5", "--count", "512", "--seed", "7"]],
    ids=lambda argv: "".join(argv[:3]),
)
def test_csv_cells_match_summary(tmp_path, argv):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    rei = _csv_rows(tmp_path / "rei.csv")
    for variant, form, *cells in rei:
        json_cells = summary["rei"][variant][form]
        assert cells == [json_cells[c]["decimal"] for c in CRITERIA]
    assert len(rei) == sum(len(forms) for forms in summary["rei"].values())
    weights = _csv_rows(tmp_path / "weights.csv")
    for criterion, label, weight, *stderr in weights:
        cell = summary["weights"][criterion][label]
        assert weight == cell["decimal"]
        assert stderr == ([f"{cell['stderr']:.6f}"] if "stderr" in cell else [])
    assert len(weights) == sum(len(labels) for labels in summary["weights"].values())
    losses = _csv_rows(tmp_path / "losses.csv")
    for criterion, scenario, q, benefit, pct_cfr, pct_scenario in losses:
        cell = summary["losses"][criterion][scenario]
        assert [q, benefit] == [str(cell["q"]), str(cell["absolute_benefit"])]
        assert pct_cfr == cell["percent_of_cfr"]["decimal"]
        assert pct_scenario == cell["percent_of_scenario"]["decimal"]
    assert len(losses) == sum(len(s) for s in summary["losses"].values())
    assert summary["meta"]["sampled"] is (argv[0] == "sample")
