#!/usr/bin/env python3
"""Quick self-test of the benchmark's output checks at n=3.

Runs a sweep, a sample and a set of analyze requests through the CLI,
requires every check in oracles.py to pass on them, then corrupts one
summary.json cell, one records.csv row and one analyze reply at a time
and requires each corruption to be caught.  Run from the root of a
checkout; exits 0 when every case behaves.

    python3 e2ebench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path("src").resolve()))
os.environ["BFFORMS_PURE"] = "1"

import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from bfforms import cli  # noqa: E402

N = 3
SAMPLE = {"count": 200, "seed": 5}
failures: list[str] = []


def cli_call(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"bfforms {' '.join(argv)} exited {rc}")
    return out.getvalue()


def expect_pass(name: str, check) -> None:
    try:
        check()
    except oracles.OracleError as exc:
        failures.append(f"{name}: unexpected failure: {exc}")
        print(f"FAIL {name}: {exc}")
    else:
        print(f"pass {name}")


def expect_caught(name: str, check) -> None:
    try:
        check()
    except (oracles.OracleError, KeyError, ValueError) as exc:
        print(f"pass {name} (caught: {str(exc)[:70]})")
    else:
        failures.append(f"{name}: corruption not detected")
        print(f"FAIL {name}: corruption not detected")


def corrupt_copy(src: Path, dst: Path, edit) -> Path:
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    edit(dst)
    return dst


def edit_summary(path_keys: tuple):
    """Shift one summary.json value: an exact rational by 1/997, kept in
    lowest terms with a matching decimal, or an integer by one."""

    def edit(d: Path) -> None:
        summary = json.loads((d / "summary.json").read_text())
        node = summary
        for key in path_keys[:-1]:
            node = node[key]
        value = node[path_keys[-1]]
        if isinstance(value, dict):
            shifted = Fraction(value["num"], value["den"]) + Fraction(1, 997)
            value.update(num=shifted.numerator, den=shifted.denominator,
                         decimal=oracles.decimal3(shifted))
        else:
            node[path_keys[-1]] = value + 1
        (d / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    return edit


def edit_records(line: int, column: int, delta: int, keep_areas: bool):
    def edit(d: Path) -> None:
        lines = (d / "records.csv").read_text().splitlines()
        cells = [int(v) for v in lines[line].split(",")]
        cells[column] += delta
        if keep_areas and column in (1, 6, 11):
            cells[column + 3] += delta * (2 * N if column == 1 else N)
        lines[line] = ",".join(map(str, cells))
        (d / "records.csv").write_text("\n".join(lines) + "\n")

    return edit


def main() -> int:
    if not Path("src", "bfforms", "cli.py").is_file():
        print("run from the root of a bfforms checkout", file=sys.stderr)
        return 2
    root = Path(".e2ebench-out", "selftest")
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        sweep_dir = root / "sweep3"
        cli_call(["sweep", "--n", str(N), "--out", str(sweep_dir)])
        sample_dir = root / "sample3"
        cli_call(["sample", "--n", str(N), "--count", str(SAMPLE["count"]),
                  "--seed", str(SAMPLE["seed"]), "--out", str(sample_dir)])
        sweep_indices = list(range(1 << (1 << N)))
        sample_indices = oracles.splitmix64_sample(N, SAMPLE["count"], SAMPLE["seed"])

        def check_sweep(d: Path) -> None:
            oracles.check_report_dir(d, N, sweep_indices, None, 64, 1)

        def check_sample(d: Path) -> None:
            oracles.check_report_dir(d, N, sample_indices, SAMPLE, 16, 2)

        expect_pass("sweep n=3 reports", lambda: check_sweep(sweep_dir))
        expect_pass("sample n=3 reports", lambda: check_sample(sample_dir))
        expect_pass(
            "every n=3 record against brute force",
            lambda: [oracles.check_record_minima(N, row)
                     for row in oracles.read_records(sweep_dir / "records.csv", N)],
        )
        expect_pass("identical reports compare equal",
                    lambda: oracles.check_same_reports(sweep_dir, sweep_dir))

        # Analyze replies, half of them read from PLA files as analyze6 does.
        replies = []
        for k, index in enumerate(oracles.splitmix64_sample(N, 24, 3)):
            criterion = wl.CRITERIA[k % len(wl.CRITERIA)]
            if k % 2:
                pla = root / f"f{k}.pla"
                pla.write_text(wl.pla_text(N, index, k))
                source = ["--pla", str(pla)]
            else:
                source = ["--tt", format(index, "x")]
            reply = json.loads(cli_call(["analyze", "--n", str(N), *source,
                                         "--criterion", criterion, "--format", "json"]))
            replies.append((index, criterion, reply))
        expect_pass("analyze replies", lambda: [
            oracles.check_analyze_reply(N, i, c, r, brute=True) for i, c, r in replies
        ])

        # Corrupted report cells.
        for name, keys in (
            ("summary weight", ("weights", "s_l", "C")),
            ("summary rei", ("rei", "normalized", "rm", "s_ad")),
            ("summary loss q", ("losses", "s_s", "cfr+afr", "q")),
            ("summary loss share", ("losses", "s_ad", "ofr", "percent_of_cfr")),
        ):
            d = corrupt_copy(sweep_dir, root / "bad", edit_summary(keys))
            expect_caught(f"corrupted {name}", lambda d=d: check_sweep(d))
        d = corrupt_copy(sweep_dir, root / "bad", edit_records(77, 6, 1, keep_areas=True))
        expect_caught("corrupted records.csv cost", lambda: check_sweep(d))
        d = corrupt_copy(sweep_dir, root / "bad", edit_records(5, 14, 1, keep_areas=False))
        expect_caught("corrupted records.csv area", lambda: check_sweep(d))
        d = corrupt_copy(sample_dir, root / "bad", edit_records(9, 0, 1, keep_areas=False))
        expect_caught("corrupted sample index", lambda: check_sample(d))
        expect_caught("differing reports", lambda: oracles.check_same_reports(sweep_dir, d))

        # Corrupted analyze replies: pick a reply with a non-trivial cover.
        index, criterion, reply = next(
            r for r in replies
            if len(r[2]["forms"]["cfr"]["cover"]) >= 2
            and any("-" in c for c in r[2]["forms"]["cfr"]["cover"])
        )

        def bad_reply(edit):
            def check():
                r = copy.deepcopy(reply)
                edit(r)
                oracles.check_analyze_reply(N, index, criterion, r, brute=True)
            return check

        def flip_cube(r):
            cube = r["forms"]["cfr"]["cover"][0]
            pos = next(i for i, ch in enumerate(cube) if ch != "-")
            r["forms"]["cfr"]["cover"][0] = cube[:pos] + "-" + cube[pos + 1:]

        def split_cube(r):
            # Same function, one more term: only the minimality checks see it.
            cover = r["forms"]["cfr"]["cover"]
            k, cube = next((k, c) for k, c in enumerate(cover) if "-" in c)
            pos = cube.index("-")
            cover[k:k + 1] = [cube[:pos] + "0" + cube[pos + 1:], cube[:pos] + "1" + cube[pos + 1:]]
            lits = [N - c.count("-") for c in cover]
            r["forms"]["cfr"]["cost"] = oracles.cost_vector(
                N, len(cover), sum(1 for x in lits if x), sum(lits), True)

        def drop_cube(r):
            r["forms"]["cfr"]["cover"].pop()

        def flip_rm(r):
            r["forms"]["rm"]["coeffs"][-1] ^= 1

        def rm_two(r):
            coeffs = r["forms"]["rm"]["coeffs"]
            coeffs[coeffs.index(1)] = 3  # same value mod 2, not a GF(2) coefficient

        def bump_afr(r):
            r["forms"]["afr"]["coeffs"][0] += 1

        def bump_cost(r):
            r["forms"]["rm"]["cost"]["s_l"] += 1

        def bump_minimum(r):
            r["minima"]["cfr"]["s_ad"] += 1
            r["minima"]["cfr"]["s_s"] += 2 * N

        def relabel(r):
            r["labels"]["s_ad"] = "CAR" if r["labels"]["s_ad"] != "CAR" else "C"

        for name, edit in (
            ("cube widened past the on-set", flip_cube),
            ("cube dropped from the cover", drop_cube),
            ("cube split in two", split_cube),
            ("rm coefficient flipped", flip_rm),
            ("rm coefficient outside GF(2)", rm_two),
            ("afr coefficient changed", bump_afr),
            ("rm cost changed", bump_cost),
            ("cfr minimum changed", bump_minimum),
            ("label changed", relabel),
        ):
            expect_caught(f"corrupted analyze reply: {name}", bad_reply(edit))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"{'FAILED' if failures else 'OK'}: {len(failures)} failing case(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
