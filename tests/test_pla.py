from pathlib import Path

import pytest

from conftest import cube_covers_row
from bfforms.errors import PlaFormatError
from bfforms.pla import PlaDocument, emit_pla, parse_pla, sop_to_pla, truth_tables
from bfforms.sop import minimize_sop
from bfforms.truthtable import TruthTable

DATA = Path(__file__).parent / "data"
GOLDEN = sorted(DATA.glob("*.pla"))


def expected_tables(doc: PlaDocument) -> list[tuple[int, ...]]:
    """Direct truth-table construction, independent of the library path."""
    out = []
    for o in range(doc.num_outputs):
        bits = []
        for row in range(1 << doc.num_inputs):
            value = 0
            for cube, outs in doc.rows:
                if outs[o] == "1" and cube_covers_row(cube, row, doc.num_inputs):
                    value = 1
                    break
            bits.append(value)
        out.append(tuple(bits))
    return out


def test_corpus_is_large_enough():
    assert len(GOLDEN) >= 10


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_parse_emit_identity(path):
    doc = parse_pla(path.read_text())
    emitted = emit_pla(doc)
    assert parse_pla(emitted) == doc
    # Canonical form is a fixed point.
    assert emit_pla(parse_pla(emitted)) == emitted


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_cube_expansion_matches_direct_construction(path):
    doc = parse_pla(path.read_text())
    got = [tt.bits for tt in truth_tables(doc)]
    assert got == expected_tables(doc)


def test_or2_example():
    doc = parse_pla(".i 2\n.o 1\n11 1\n10 1\n01 1\n.e\n")
    (tt,) = truth_tables(doc)
    assert tt.bits == (0, 1, 1, 1)


def test_full_dont_care_is_constant1():
    doc = parse_pla(".i 2\n.o 1\n-- 1\n.e\n")
    (tt,) = truth_tables(doc)
    assert tt.bits == (1, 1, 1, 1)


def test_multi_output_split():
    doc = parse_pla((DATA / "two_out.pla").read_text())
    first, second = truth_tables(doc)
    assert first.bits == (0, 1, 1, 1)
    assert second.bits == (0, 0, 0, 1)


def test_labels_are_warned_and_ignored():
    doc = parse_pla((DATA / "labels.pla").read_text())
    assert len(doc.warnings) == 2
    assert truth_tables(doc)[0].bits == (0, 0, 0, 1)


def test_declared_product_count_checked():
    with pytest.raises(PlaFormatError):
        parse_pla(".i 2\n.o 1\n.p 2\n11 1\n.e\n")


def test_width_mismatch_reports_line():
    with pytest.raises(PlaFormatError) as err:
        parse_pla(".i 2\n.o 1\n111 1\n.e\n")
    assert err.value.line == 3


def test_bad_output_character():
    with pytest.raises(PlaFormatError):
        parse_pla(".i 2\n.o 1\n11 2\n.e\n")


def test_unknown_directive():
    with pytest.raises(PlaFormatError) as err:
        parse_pla(".i 2\n.o 1\n.type fr\n11 1\n.e\n")
    assert err.value.line == 3


@pytest.mark.parametrize("inputs", [0, 7, 22])
def test_input_count_outside_1_to_6_rejected(inputs):
    # Checked at the .i line, before any cube row could expand to 2**inputs
    # rows.
    text = f"# header\n.i {inputs}\n.o 1\n{'-' * inputs} 1\n.e\n"
    with pytest.raises(PlaFormatError) as err:
        parse_pla(text)
    assert err.value.line == 2


@pytest.mark.parametrize("outputs", [0, 1025, 10**12])
def test_output_count_outside_1_to_1024_rejected(outputs):
    # Checked at the .o line: .o 0 used to convert to nothing and exit 0,
    # and a huge .o made truth_tables allocate one mask per output.
    text = f".i 2\n.o {outputs}\n11 1\n.e\n"
    with pytest.raises(PlaFormatError) as err:
        parse_pla(text)
    assert err.value.line == 2
    assert f".o {outputs} is outside 1..1024" in str(err.value)


def test_output_count_1024_accepted():
    doc = parse_pla(f".i 1\n.o 1024\n1 {'01' * 512}\n.e\n")
    tables = truth_tables(doc)
    assert len(tables) == 1024
    assert tables[0].bits == (0, 0) and tables[1].bits == (0, 1)


@pytest.mark.parametrize(
    "text",
    [
        # A second .i used to leave the earlier rows one column short, and
        # truth_tables raised ValueError.
        ".i 2\n.o 1\n11 1\n.i 3\n111 1\n.e\n",
        # A second .o used to mix rows of one and two output columns.
        ".i 2\n.o 1\n11 1\n.o 2\n00 01\n.e\n",
        # A second .p used to replace the first; a repeat of the same value
        # is rejected too.
        ".i 2\n.o 1\n.p 1\n.p 2\n11 1\n.e\n",
        ".i 2\n.o 1\n.p 1\n.p 1\n11 1\n.e\n",
    ],
    ids=["i", "o", "p", "p-same"],
)
def test_repeated_directive_rejected(text):
    with pytest.raises(PlaFormatError) as err:
        parse_pla(text)
    assert err.value.line == 4
    assert "repeated" in str(err.value)


@pytest.mark.parametrize(
    "text, line",
    [
        # str.isdigit takes a superscript two, which int() then refuses.
        (".i 2\n.o 1\n.p \u00b2\n11 1\n.e\n", 3),
        # int() reads a fullwidth two as 2.
        (".i \uff12\n.o 1\n11 1\n.e\n", 1),
        (".i 2\n.o \u0661\n11 1\n.e\n", 2),
    ],
    ids=["superscript", "fullwidth", "arabic-indic"],
)
def test_directive_integers_are_ascii_digits(text, line):
    with pytest.raises(PlaFormatError) as err:
        parse_pla(text)
    assert err.value.line == line
    assert "needs one integer argument" in str(err.value)


def test_missing_terminator():
    with pytest.raises(PlaFormatError):
        parse_pla(".i 2\n.o 1\n11 1\n")


def test_row_before_header():
    with pytest.raises(PlaFormatError):
        parse_pla("11 1\n.i 2\n.o 1\n.e\n")


def test_content_after_terminator():
    with pytest.raises(PlaFormatError):
        parse_pla(".i 2\n.o 1\n.e\n11 1\n")


def test_sop_round_trip_through_pla(maj3):
    doc = sop_to_pla(minimize_sop(maj3))
    (tt,) = truth_tables(doc)
    assert tt == maj3
    assert parse_pla(emit_pla(doc)) == doc


def test_pla_constant0_round_trip():
    doc = parse_pla((DATA / "const0_2.pla").read_text())
    (tt,) = truth_tables(doc)
    assert tt == TruthTable(2, (0, 0, 0, 0))
