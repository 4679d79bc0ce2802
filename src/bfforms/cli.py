"""Command-line surface: analyze, sweep, sample, convert.

``--jobs`` is the number of worker processes of sweep and sample.  Exit
codes: 0 success; 1 usage error (a missing or unknown argument, an integer
option that is not ASCII digits after an optional '-', --count or --jobs
below 1, --seed outside 0..2**64-1, an empty --out, a guard that is not a
number or NaN, a sweep or sample whose every cost is zero, which leaves no
--out directory); 2 input format or file error (--tt not ASCII hex after an
optional 0x, --polarity not ASCII decimal under any --form, a value out of
range for the function or the file, a bad, unreadable or non-UTF-8 PLA
file, an --out that cannot be written); 3 resource abort (the time guard
tripped, or memory ran out).  Diagnostics go to stderr; data goes to
stdout or to the files under --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from . import __version__, _lazy
from .costs import CRITERIA, cost_of_polynomial
from .errors import GuardTimeoutError, PlaFormatError
from .truthtable import TruthTable

# Each command binds the names it calls from these modules on first use,
# so that a command loads only the modules it runs.
_LAZY = {
    "analysis": ("analyze_function", "sampled_sweep", "sweep"),
    "arith": ("arithmetic_transform", "best_arith_polarity"),
    "pla": ("PlaDocument", "emit_pla", "parse_pla", "sop_to_pla", "truth_tables"),
    "reedmuller": ("PolarityVector", "best_polarity", "fprm_transform"),
    "reports": ("write_sweep_reports",),
    "sop": ("minimize_sop",),
}
_bind, __getattr__ = _lazy(globals(), _LAZY)

SCHEMA_ANALYZE = "bfforms.analyze/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_GUARD = 3

_DECIMAL = "-?[0-9]+"
_HEX = "(?:0[xX])?([0-9a-fA-F]+)"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


class InputFormatError(ValueError):
    pass


def _decimal(text: str) -> int:
    """An integer option: ASCII digits after an optional '-'.

    ``int`` alone also takes spaces, '+', '_' and non-ASCII digits.
    """
    if not re.fullmatch(_DECIMAL, text):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(text)


def _directory(text: str) -> str:
    """A report directory; an empty path would name the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("empty report directory")
    return text


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bfforms", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bfforms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="minimize one function in all three forms"
    )
    analyze.set_defaults(run=_cmd_analyze)
    analyze.add_argument("--n", type=_decimal, required=True, choices=range(1, 7))
    source = analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("--tt", help="truth table as hex (bit j = value on row j)")
    source.add_argument("--pla", help="PLA file to read the function from")
    analyze.add_argument("--output", type=_decimal, default=0, help="PLA output column")
    analyze.add_argument("--criterion", choices=CRITERIA, default="s_ad")
    analyze.add_argument("--format", choices=("text", "json", "csv"), default="text")

    swp = sub.add_parser("sweep", help="exhaustive sweep with report files")
    swp.set_defaults(run=_cmd_report)
    swp.add_argument("--n", type=_decimal, required=True, choices=(1, 2, 3, 4))
    swp.add_argument("--out", type=_directory, required=True, help="report directory")
    swp.add_argument("--jobs", type=_decimal, default=1, help="worker processes, at least 1")

    smp = sub.add_parser("sample", help="seeded sampled sweep with report files")
    smp.set_defaults(run=_cmd_report)
    smp.add_argument("--n", type=_decimal, required=True, choices=(1, 2, 3, 4, 5))
    smp.add_argument("--count", type=_decimal, default=65536, help="draws, at least 1")
    smp.add_argument("--seed", type=_decimal, required=True, help="0..2**64-1")
    smp.add_argument("--out", type=_directory, required=True, help="report directory")
    smp.add_argument("--jobs", type=_decimal, default=1, help="worker processes, at least 1")

    cnv = sub.add_parser("convert", help="convert a PLA file into a chosen form")
    cnv.set_defaults(run=_cmd_convert)
    cnv.add_argument("--pla", required=True)
    cnv.add_argument("--form", choices=("cfr", "rm", "afr"), required=True)
    cnv.add_argument("--polarity", default="best", help="polarity integer or 'best'")
    cnv.add_argument("--criterion", choices=CRITERIA, default="s_ad")
    return parser


def _read_pla(path: str) -> PlaDocument:
    """Parse the UTF-8 PLA file at ``path``, printing its warnings to stderr."""
    _bind("parse_pla", "truth_tables")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8 text (byte {exc.start})")
    doc = parse_pla(text)
    for w in doc.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return doc


def _load_table(args) -> TruthTable:
    if args.tt is not None:
        digits = re.fullmatch(_HEX, args.tt)
        if digits is None:
            raise InputFormatError(f"invalid hex truth table {args.tt!r}")
        try:
            return TruthTable.from_index(args.n, int(digits[1], 16))
        except ValueError as exc:
            raise InputFormatError(str(exc))
    doc = _read_pla(args.pla)
    if doc.num_inputs != args.n:
        raise InputFormatError(
            f"PLA has {doc.num_inputs} inputs, --n says {args.n}"
        )
    tables = truth_tables(doc)
    if not 0 <= args.output < len(tables):
        raise InputFormatError(
            f"--output {args.output} out of range for {len(tables)} outputs"
        )
    return tables[args.output]


def _cmd_analyze(args) -> int:
    _bind("analyze_function")
    tt = _load_table(args)
    fa = analyze_function(tt, args.criterion)
    labels = fa.labels()
    # Each form once: (name, representation, its own JSON fields, cost).
    forms = [("cfr", fa.sop, {"cover": [c.to_string() for c in fa.sop.terms]},
              fa.record.cost_cfr)]
    for name, poly in (("rm", fa.rm), ("afr", fa.afr)):
        fields = {"polarity": poly.polarity.k, "coeffs": list(poly.coeffs)}
        forms.append((name, poly, fields, cost_of_polynomial(poly)))

    if args.format == "text":
        print(f"n={tt.n} index={tt.index:#x} criterion={args.criterion}")
        for name, rep, fields, cost in forms:
            if "polarity" in fields:
                name += f" (polarity={fields['polarity']})"
            print(f"{name}: {rep}  {cost.as_dict()}")
        print("labels: " + " ".join(f"{c}={labels[c]}" for c in CRITERIA))
    elif args.format == "json":
        payload = {
            "schema": SCHEMA_ANALYZE,
            "n": tt.n,
            "index": tt.index,
            "criterion": args.criterion,
            "forms": {
                name: dict(fields, text=str(rep), cost=cost.as_dict())
                for name, rep, fields, cost in forms
            },
            "labels": labels,
            "minima": {
                name: getattr(fa.record, f"cost_{name}").as_dict() for name, *_ in forms
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        lines = ["record,field,value"]
        for name, _, _, cost in forms:
            lines += [f"cost,{name}.{c},{v}" for c, v in cost.as_dict().items()]
        lines += [f"label,{c},{labels[c]}" for c in CRITERIA]
        lines += [f'repr,{name},"{rep}"' for name, rep, _, _ in forms]
        print("\n".join(lines))
    return EXIT_OK


def _cmd_report(args) -> int:
    """``sweep`` or ``sample``: run it, then write its report files."""
    _bind("sweep", "sampled_sweep", "write_sweep_reports")
    if args.command == "sweep":
        records, sampled = sweep(args.n, jobs=args.jobs), None
    else:
        records = sampled_sweep(args.n, args.count, args.seed, jobs=args.jobs)
        sampled = {"count": args.count, "seed": args.seed}
    written = write_sweep_reports(records, args.n, args.out, sampled=sampled)
    print(f"wrote {len(written)} report files to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_convert(args) -> int:
    _bind("PolarityVector", "minimize_sop", "emit_pla", "sop_to_pla",
          "best_polarity", "fprm_transform", "best_arith_polarity",
          "arithmetic_transform")
    # The polarity scan and the fixed-polarity transform of each polynomial form.
    polynomial_forms = {
        "rm": (best_polarity, fprm_transform),
        "afr": (best_arith_polarity, arithmetic_transform),
    }
    doc = _read_pla(args.pla)
    tables = truth_tables(doc)
    n = doc.num_inputs
    fixed_polarity: PolarityVector | None = None
    if args.polarity != "best":
        if not re.fullmatch(_DECIMAL, args.polarity):
            raise InputFormatError("--polarity must be an integer or 'best'")
        k = int(args.polarity)
        if not 0 <= k < (1 << n):
            raise InputFormatError(f"--polarity {k} out of range for n={n}")
        fixed_polarity = PolarityVector.from_int(n, k)

    for o, tt in enumerate(tables):
        prefix = f"output {o}: " if len(tables) > 1 else ""
        if args.form == "cfr":
            sop = minimize_sop(tt)
            print(f"{prefix}cfr: {sop}")
            print(emit_pla(sop_to_pla(sop)), end="")
            continue
        scan, transform = polynomial_forms[args.form]
        if fixed_polarity is None:
            p, poly = scan(tt, args.criterion)
        else:
            p, poly = fixed_polarity, transform(tt, fixed_polarity)
        print(f"{prefix}{args.form} (polarity={p.k}): {poly}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (PlaFormatError, InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except GuardTimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
