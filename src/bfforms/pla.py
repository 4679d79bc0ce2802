"""Berkeley-PLA subset: parser, emitter, and cube expansion to truth tables.

Supported directives: ``.i``, ``.o``, ``.p`` (optional, validated), ``.e``
(required terminator); each of the first three takes one ASCII decimal
integer and may appear once.  ``#`` starts a comment.  ``.ilb``/``.ob``
label lines are accepted and ignored with a warning; any other directive
is an error.  Cube rows use ``{0,1,-}`` over the inputs (leftmost
character is x_1) and ``{0,1}`` over the outputs.  ``.i`` must lie in
1..6, the sizes the package minimizes, so no document expands past 64
rows, and ``.o`` in 1..1024, so no document asks for more truth tables
than that.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import PlaFormatError
from .sop import Cube
from .truthtable import MAX_N, TruthTable

MAX_OUTPUTS = 1024
# The least and the most value of each integer directive.
_INT_DIRECTIVES = {".i": (1, MAX_N), ".o": (1, MAX_OUTPUTS), ".p": (0, math.inf)}


@dataclass(frozen=True)
class PlaDocument:
    num_inputs: int
    num_outputs: int
    rows: tuple[tuple[str, str], ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)


def parse_pla(text: str) -> PlaDocument:
    ints: dict[str, int] = {}
    rows: list[tuple[str, str]] = []
    warnings: list[str] = []
    terminated = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if terminated:
            raise PlaFormatError(lineno, "content after .e terminator")
        parts = line.split()
        if line.startswith("."):
            directive = parts[0]
            if directive in _INT_DIRECTIVES:
                # str.isdigit and int() also take non-ASCII digits.
                if len(parts) != 2 or not re.fullmatch("[0-9]+", parts[1]):
                    raise PlaFormatError(lineno, f"{directive} needs one integer argument")
                if directive in ints:
                    raise PlaFormatError(lineno, f"repeated {directive} directive")
                least, most = _INT_DIRECTIVES[directive]
                value = ints[directive] = int(parts[1])
                if not least <= value <= most:
                    raise PlaFormatError(
                        lineno, f"{directive} {value} is outside {least}..{most}"
                    )
            elif directive == ".e":
                terminated = True
            elif directive in (".ilb", ".ob"):
                warnings.append(f"line {lineno}: {directive} labels ignored")
            else:
                raise PlaFormatError(lineno, f"unknown directive {directive}")
            continue
        num_inputs, num_outputs = ints.get(".i"), ints.get(".o")
        if num_inputs is None or num_outputs is None:
            raise PlaFormatError(lineno, "cube row before .i/.o header")
        if len(parts) != 2:
            raise PlaFormatError(lineno, "cube row needs input and output fields")
        cube, outs = parts
        if len(cube) != num_inputs:
            raise PlaFormatError(
                lineno, f"cube width {len(cube)} does not match .i {num_inputs}"
            )
        if any(ch not in "01-" for ch in cube):
            raise PlaFormatError(lineno, f"invalid cube character in {cube!r}")
        if len(outs) != num_outputs:
            raise PlaFormatError(
                lineno, f"output width {len(outs)} does not match .o {num_outputs}"
            )
        if any(ch not in "01" for ch in outs):
            raise PlaFormatError(lineno, f"invalid output character in {outs!r}")
        rows.append((cube, outs))

    last = text.count("\n") + 1
    if ".i" not in ints or ".o" not in ints:
        raise PlaFormatError(last, "missing .i/.o header")
    if not terminated:
        raise PlaFormatError(last, "missing .e terminator")
    declared = ints.get(".p")
    if declared is not None and declared != len(rows):
        raise PlaFormatError(last, f".p {declared} does not match {len(rows)} rows")
    return PlaDocument(
        num_inputs=ints[".i"],
        num_outputs=ints[".o"],
        rows=tuple(rows),
        warnings=tuple(warnings),
    )


def emit_pla(doc: PlaDocument) -> str:
    lines = [f".i {doc.num_inputs}", f".o {doc.num_outputs}", f".p {len(doc.rows)}"]
    lines.extend(f"{cube} {outs}" for cube, outs in doc.rows)
    lines.append(".e")
    return "\n".join(lines) + "\n"


def truth_tables(doc: PlaDocument) -> list[TruthTable]:
    """Expand the cube rows into one truth table per output (OR semantics)."""
    n = doc.num_inputs
    masks = [0] * doc.num_outputs
    for cube, outs in doc.rows:
        cover = Cube.from_string(n, cube).cover_mask()
        for o, ch in enumerate(outs):
            if ch == "1":
                masks[o] |= cover
    return [TruthTable.from_index(n, m) for m in masks]


def sop_to_pla(sop) -> PlaDocument:
    """Single-output PLA document for a SOP cover."""
    rows = tuple((cube.to_string(), "1") for cube in sop.terms)
    return PlaDocument(num_inputs=sop.n, num_outputs=1, rows=rows)
