"""Output checks computed inside the benchmark, without importing bfforms.

Every check recomputes a published number from first principles (the cube
lattice, the polynomial definitions, the statistic formulas in the README)
and raises ``OracleError`` on the first disagreement.  Nothing is compared
against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction
from pathlib import Path

CRITERIA = ("s_ad", "s_sh", "s_l", "s_s", "s_ac")
FORMS = ("cfr", "rm", "afr")  # column order of records.csv
REI_FORMS = ("cfr", "afr", "rm", "ofr")
SCENARIOS = ("cfr", "cfr+afr", "cfr+rm", "ofr")
LABELS = ("C", "A", "RM", "CA", "CR", "AR", "CAR")
LABEL_OF = {
    (True, False, False): "C",
    (False, True, False): "A",
    (False, False, True): "RM",
    (True, True, False): "CA",
    (True, False, True): "CR",
    (False, True, True): "AR",
    (True, True, True): "CAR",
}

_MASK64 = (1 << 64) - 1


class OracleError(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# -- generators and brute-force minima ---------------------------------------


def splitmix64_sample(n: int, count: int, seed: int) -> list[int]:
    """Sample indices from the splitmix64 constants documented in the README."""
    state = seed & _MASK64
    shift = 64 - (1 << n)
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append((z ^ (z >> 31)) >> shift)
    return out


def cube_mask(n: int, cube: str) -> int:
    """Rows covered by a PLA cube string (leftmost character is x_1)."""
    mask = 0
    for row in range(1 << n):
        if all(
            ch == "-" or int(ch) == (row >> (n - 1 - i)) & 1
            for i, ch in enumerate(cube)
        ):
            mask |= 1 << row
    return mask


def _all_cubes(n: int) -> list[str]:
    cubes = [""]
    for _ in range(n):
        cubes = [c + ch for c in cubes for ch in "-01"]
    return cubes


def brute_sop_minimum(n: int, on: int) -> tuple[int, int]:
    """(terms, literals) of a least cover of ``on`` by lattice implicants.

    Enumerates all 3**n cubes, keeps the implicants not contained in a
    larger implicant, then searches covers by increasing term count.
    """
    full = (1 << (1 << n)) - 1
    if on == 0:
        return (0, 0)
    if on == full:
        return (1, 0)
    impl = [(cube_mask(n, c), n - c.count("-")) for c in _all_cubes(n)]
    impl = [(m, lits) for m, lits in impl if m & ~on == 0]
    primes = [
        (m, lits)
        for m, lits in impl
        if not any(o != m and o & m == m for o, _ in impl)
    ]
    best: list = [None]

    def search(uncovered: int, terms: int, lits: int, limit: int) -> None:
        if best[0] is not None and lits >= best[0]:
            return
        if not uncovered:
            best[0] = lits
            return
        if terms == limit:
            return
        # Every cover covers each row, so branching on the row with the
        # fewest covering primes enumerates every cover of this size.
        row_choices = None
        m = uncovered
        while m:
            low = m & -m
            m ^= low
            choices = [(pm, pl) for pm, pl in primes if pm & low]
            if row_choices is None or len(choices) < len(row_choices):
                row_choices = choices
        for pm, pl in row_choices:
            search(uncovered & ~pm, terms + 1, lits + pl, limit)

    for limit in range(1, (1 << n) + 1):
        search(on, 0, 0, limit)
        if best[0] is not None:
            return (limit, best[0])
    raise OracleError("no cover found")  # unreachable: minterms always cover


def _subsets(j: int):
    sub = j
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & j


def rm_coefficients(n: int, on: int, k: int) -> list[int]:
    """GF(2) Moebius coefficients at polarity ``k`` (bit set = inverted)."""
    g = [(on >> (y ^ k)) & 1 for y in range(1 << n)]
    return [
        sum(g[y] for y in _subsets(j)) & 1 for j in range(1 << n)
    ]


def arith_coefficients(n: int, on: int, k: int) -> list[int]:
    """Integer Moebius coefficients at polarity ``k``."""
    g = [(on >> (y ^ k)) & 1 for y in range(1 << n)]
    pc = [bin(j).count("1") for j in range(1 << n)]
    return [
        sum(g[y] if (pc[j] - pc[y]) % 2 == 0 else -g[y] for y in _subsets(j))
        for j in range(1 << n)
    ]


def poly_counts(coeffs) -> tuple[int, int, int]:
    """(summands, conjunction summands, literals) of a coefficient vector."""
    nz = [j for j, c in enumerate(coeffs) if c != 0]
    return (
        len(nz),
        sum(1 for j in nz if j),
        sum(bin(j).count("1") for j in nz if j),
    )


def brute_poly_minima(n: int, on: int, transform) -> tuple[int, int, int]:
    """Criterion-wise minima of (s_ad, s_sh, s_l) over all 2**n polarities."""
    counts = [poly_counts(transform(n, on, k)) for k in range(1 << n)]
    return tuple(min(c[i] for c in counts) for i in range(3))


def cost_vector(n: int, summands: int, conj: int, lits: int, dual: bool) -> dict:
    factor = 2 * n if dual else n
    return {
        "s_ad": summands,
        "s_sh": conj,
        "s_l": lits,
        "s_s": factor * summands,
        "s_ac": factor * conj,
    }


def decimal3(value: Fraction) -> str:
    """Three-decimal round-half-even rendering, as the README specifies."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    q, r = divmod(value.numerator * 1000, value.denominator)
    if 2 * r > value.denominator or (2 * r == value.denominator and q % 2):
        q += 1
    return f"{sign}{q // 1000}.{q % 1000:03d}"


# -- sweep and sample reports -------------------------------------------------


def read_records(path: Path, n: int) -> list[list[int]]:
    """Parse records.csv into rows of 16 ints, checking the header and that
    the area columns follow the rail factors (2n for cfr, n otherwise)."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = ["index"] + [f"{f}_{c}" for f in FORMS for c in CRITERIA]
        _require(header == expected, f"records.csv header {header}")
        rows = [[int(v) for v in row] for row in reader]
    for lineno, row in enumerate(rows, start=2):
        _require(len(row) == 16, f"records.csv line {lineno}: width {len(row)}")
        for base, factor in ((1, 2 * n), (6, n), (11, n)):
            _require(
                row[base + 3] == factor * row[base] and row[base + 4] == factor * row[base + 1],
                f"records.csv line {lineno}: area columns {row}",
            )
    return rows


def _column(rows: list[list[int]], form: str, crit: str) -> list[int]:
    """One form's cost under one criterion, per record; ``ofr`` is the least."""
    ci = CRITERIA.index(crit)
    if form == "ofr":
        return list(map(min, *(_column(rows, f, crit) for f in FORMS)))
    col = 1 + 5 * FORMS.index(form) + ci
    return [row[col] for row in rows]


def _rat(block: dict, where: str) -> Fraction:
    _require(
        block["den"] > 0 and math.gcd(block["num"], block["den"]) == 1,
        f"{where}: {block['num']}/{block['den']} is not in lowest terms",
    )
    value = Fraction(block["num"], block["den"])
    _require(block["decimal"] == decimal3(value), f"{where}: decimal {block['decimal']}")
    return value


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def check_report_dir(
    out: Path,
    n: int,
    expected_indices: list[int],
    sampled: dict | None,
    brute_count: int,
    brute_seed: int,
) -> None:
    """Check one sweep/sample report directory.

    ``expected_indices`` is the index list the records must follow, in
    order; ``brute_count`` records picked with ``brute_seed`` are checked
    against brute-force minima.
    """
    rows = read_records(out / "records.csv", n)
    _require(
        [row[0] for row in rows] == expected_indices,
        "records.csv index column differs from the inputs",
    )
    count = len(rows)
    summary = json.loads((out / "summary.json").read_text())
    meta = summary["meta"]
    _require(meta["n"] == n and meta["record_count"] == count, f"meta {meta}")
    _require(meta["sampled"] == bool(sampled), "meta.sampled")
    if sampled:
        _require(meta["count"] == sampled["count"] and meta["seed"] == sampled["seed"], "meta sample")
    cols = {
        (form, crit): _column(rows, form, crit) for form in REI_FORMS for crit in CRITERIA
    }

    # Relative efficiency index, both variants.
    rei_csv = {(row[0], row[1]): row[2:] for row in _read_csv(out / "rei.csv")[1:]}
    for crit in CRITERIA:
        s_mm = max(max(cols[(form, crit)]) for form in REI_FORMS)
        for form in REI_FORMS:
            hist = [0] * (s_mm + 1)
            for v in cols[(form, crit)]:
                hist[v] += 1
            total = running = 0
            for h in hist:
                running += h
                total += running
            for variant, denom in (("literal", s_mm), ("normalized", s_mm + 1)):
                where = f"rei.{variant}.{form}.{crit}"
                block = summary["rei"][variant][form][crit]
                _require(block["s_mm"] == s_mm, f"{where}: s_mm")
                if denom == 0:
                    continue
                eta = Fraction(total, count * denom)
                _require(_rat(block, where) == eta, f"{where}: {block} != {eta}")
                cell = rei_csv[(variant, form)][CRITERIA.index(crit)]
                _require(cell == decimal3(eta), f"rei.csv {where}: {cell}")

    # Specific weights: exact, summing to one, matching weights.csv.
    weights_csv = {(row[0], row[1]): row[2] for row in _read_csv(out / "weights.csv")[1:]}
    for crit in CRITERIA:
        tally = dict.fromkeys(LABELS, 0)
        for c, a, r, m in zip(
            cols[("cfr", crit)], cols[("afr", crit)], cols[("rm", crit)], cols[("ofr", crit)]
        ):
            tally[LABEL_OF[(c == m, a == m, r == m)]] += 1
        total_w = Fraction(0)
        for label in LABELS:
            where = f"weights.{crit}.{label}"
            w = _rat(summary["weights"][crit][label], where)
            _require(w == Fraction(tally[label], count), f"{where}: {w}")
            _require(weights_csv[(crit, label)] == decimal3(w), f"weights.csv {where}")
            total_w += w
        _require(total_w == 1, f"weights.{crit} sum to {total_w}")

    # Aggregate losses under the four scenarios, and their ordering.
    losses_csv = {(row[0], row[1]): row[2:] for row in _read_csv(out / "losses.csv")[1:]}
    for crit in ("s_ad", "s_s"):
        c, a, r = cols[("cfr", crit)], cols[("afr", crit)], cols[("rm", crit)]
        q = {
            "cfr": sum(c),
            "cfr+afr": sum(map(min, c, a)),
            "cfr+rm": sum(map(min, c, r)),
            "ofr": sum(cols[("ofr", crit)]),
        }
        for scenario in SCENARIOS:
            where = f"losses.{crit}.{scenario}"
            block = summary["losses"][crit][scenario]
            benefit = q["cfr"] - q[scenario]
            pct_cfr = Fraction(100 * benefit, q["cfr"]) if q["cfr"] else Fraction(0)
            pct_own = Fraction(100 * benefit, q[scenario]) if q[scenario] else Fraction(0)
            _require(block["q"] == q[scenario], f"{where}: q {block['q']} != {q[scenario]}")
            _require(block["absolute_benefit"] == benefit, f"{where}: benefit")
            _require(_rat(block["percent_of_cfr"], where) == pct_cfr, f"{where}: pct of cfr")
            _require(_rat(block["percent_of_scenario"], where) == pct_own, f"{where}: pct of scenario")
            row = losses_csv[(crit, scenario)]
            _require(
                row == [str(q[scenario]), str(benefit), decimal3(pct_cfr), decimal3(pct_own)],
                f"losses.csv {where}: {row}",
            )
        _require(
            q["ofr"] <= q["cfr+rm"] <= q["cfr"] and q["ofr"] <= q["cfr+afr"] <= q["cfr"],
            f"losses.{crit}: scenario order {q}",
        )

    # A seeded subset of records against brute-force minima.
    rng = random.Random(brute_seed)
    for pos in rng.sample(range(count), min(brute_count, count)):
        check_record_minima(n, rows[pos])


REPORT_FILES = ("records.csv", "rei.csv", "weights.csv", "losses.csv", "summary.json")


def check_same_reports(first: Path, other: Path) -> None:
    """Reports of the same inputs must be byte-identical."""
    for name in REPORT_FILES:
        _require(
            (first / name).read_bytes() == (other / name).read_bytes(),
            f"{other / name} differs from {first / name}",
        )


def check_record_minima(n: int, row: list[int]) -> None:
    """One records.csv row against brute-force minima of its function."""
    index = row[0]
    cfr, rm, afr = (dict(zip(CRITERIA, row[b : b + 5])) for b in (1, 6, 11))
    terms, lits = brute_sop_minimum(n, index)
    full = (1 << (1 << n)) - 1
    conj = terms - 1 if index == full else terms
    _require(
        cfr == cost_vector(n, terms, conj, lits, True),
        f"record {index:#x}: cfr {cfr} != brute force ({terms}, {lits})",
    )
    for name, got, transform in (
        ("rm", rm, rm_coefficients),
        ("afr", afr, arith_coefficients),
    ):
        want = cost_vector(n, *brute_poly_minima(n, index, transform), False)
        _require(got == want, f"record {index:#x}: {name} {got} != brute force {want}")


# -- analyze replies -----------------------------------------------------------


def _poly_value(coeffs, k: int, row: int) -> int:
    lits = row ^ k
    return sum(c for j, c in enumerate(coeffs) if c and j & ~lits == 0)


def check_analyze_reply(
    n: int, index: int, criterion: str, reply: dict, brute: bool = False
) -> None:
    """Check one ``analyze --format json`` reply for the function ``index``."""
    where = f"analyze {index:#x}"
    _require(reply["n"] == n and reply["index"] == index, f"{where}: n/index")
    _require(reply["criterion"] == criterion, f"{where}: criterion")
    forms = reply["forms"]
    rows = 1 << n

    cover = forms["cfr"]["cover"]
    masks = [cube_mask(n, c) for c in cover]
    union = 0
    for cube, m in zip(cover, masks):
        _require(len(cube) == n and set(cube) <= set("-01"), f"{where}: cube {cube!r}")
        _require(m & ~index == 0, f"{where}: cube {cube} is not an implicant")
        union |= m
    _require(union == index, f"{where}: cover does not evaluate to the table")
    _require(len(set(cover)) == len(cover), f"{where}: duplicate cubes")
    lits = [n - c.count("-") for c in cover]
    cfr_cost = cost_vector(n, len(cover), sum(1 for x in lits if x), sum(lits), True)
    _require(forms["cfr"]["cost"] == cfr_cost, f"{where}: cfr cost {forms['cfr']['cost']}")

    polys = {}
    for name in ("rm", "afr"):
        k = forms[name]["polarity"]
        coeffs = forms[name]["coeffs"]
        _require(0 <= k < rows and len(coeffs) == rows, f"{where}: {name} shape")
        _require(all(isinstance(c, int) for c in coeffs), f"{where}: {name} coeffs")
        if name == "rm":
            _require(set(coeffs) <= {0, 1}, f"{where}: rm coefficients are not 0/1")
        for row in range(rows):
            v = _poly_value(coeffs, k, row)
            if name == "rm":
                v &= 1  # the active terms are XORed
            _require(v == (index >> row) & 1, f"{where}: {name} row {row} evaluates to {v}")
        polys[name] = cost_vector(n, *poly_counts(coeffs), False)
        _require(forms[name]["cost"] == polys[name], f"{where}: {name} cost")

    minima = reply["minima"]
    _require(minima["cfr"] == cfr_cost, f"{where}: minima.cfr {minima['cfr']} vs cover")
    _require(minima["cfr"]["s_ad"] == len(cover), f"{where}: minima.cfr term count")
    for name in ("rm", "afr"):
        for crit in CRITERIA:
            _require(minima[name][crit] <= polys[name][crit], f"{where}: minima.{name}.{crit}")
    for crit in CRITERIA:
        c, a, r = minima["cfr"][crit], minima["afr"][crit], minima["rm"][crit]
        m = min(c, a, r)
        _require(reply["labels"][crit] == LABEL_OF[(c == m, a == m, r == m)], f"{where}: label {crit}")
    if brute:
        for name, transform in (("rm", rm_coefficients), ("afr", arith_coefficients)):
            per_polarity = [
                cost_vector(n, *poly_counts(transform(n, index, k)), False) for k in range(rows)
            ]
            want = {c: min(cv[c] for cv in per_polarity) for c in CRITERIA}
            _require(minima[name] == want, f"{where}: minima.{name} != brute force {want}")
            _require(
                polys[name][criterion] == want[criterion],
                f"{where}: {name} polarity is not optimal under {criterion}",
            )
