"""Shared fixtures and test-local oracles.

The oracles here deliberately reimplement functionality by brute force and
stay independent of the library's algorithms: primes come from scanning
the full ternary cube lattice, covers from exhaustive subset enumeration,
and cube evaluation from direct character matching.
"""

from __future__ import annotations

import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def pytest_configure(config):
    """Build the C kernel in place, as ``setup.py`` does, when cc exists.

    This runs before any test module imports ``bfforms``, so the kernel
    facade picks up the fresh build.  setuptools treats the extension as
    optional and only warns when it fails to compile; loading it is the
    check, and a failure stops the session instead of skipping tests.

    The ``pythonpath`` setting in ``pyproject.toml`` puts ``src`` on this
    process's path; ``PYTHONPATH`` gets it too, for the tests that run
    ``bfforms`` in a child process.
    """
    src = str(ROOT / "src")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, *paths]))
    if shutil.which("cc") is None:
        return
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    try:
        import bfforms._kernels_c  # noqa: F401
    except ImportError as exc:
        raise pytest.UsageError(
            f"cc is on PATH but the C kernel did not build or load: {exc}\n"
            f"{build.stdout}{build.stderr}"
        ) from exc


def kernel_backends() -> list:
    """The kernel twins to test: pure, and compiled when it is built."""
    from bfforms import _kernels_py

    try:
        from bfforms import _kernels_c
    except ImportError:
        return [_kernels_py]
    return [_kernels_py, _kernels_c]


def cube_covers_row(cube: str, row: int, n: int) -> bool:
    """Direct character-by-character cube match; leftmost char is x_1."""
    for i, ch in enumerate(cube):
        bit = (row >> (n - 1 - i)) & 1
        if ch == "0" and bit != 0:
            return False
        if ch == "1" and bit != 1:
            return False
    return True


def cube_mask(cube: str, n: int) -> int:
    mask = 0
    for row in range(1 << n):
        if cube_covers_row(cube, row, n):
            mask |= 1 << row
    return mask


def oracle_primes(n: int, on_mask: int) -> list[str]:
    """Prime implicants by brute force over all 3**n cubes."""
    implicants = []
    for pattern in itertools.product("-01", repeat=n):
        s = "".join(pattern)
        m = cube_mask(s, n)
        if m & ~on_mask == 0:
            implicants.append((m, s))
    primes = []
    for m, s in implicants:
        if not any(m2 != m and (m | m2) == m2 for m2, _ in implicants):
            primes.append(s)
    return sorted(primes)


def oracle_least_cover(n: int, on_mask: int) -> list[str]:
    """Exhaustive exact cover over prime implicants, with its tie-break.

    Returns the least cube list among the covers of fewest terms and then
    fewest literals.  Subsets are enumerated by increasing size, so the
    first covering size is minimal; within a size they come in
    lexicographic order of the sorted primes, so the first cover with the
    fewest literals is the least cube list.
    """
    if on_mask == 0:
        return []
    primes = oracle_primes(n, on_mask)
    masks = [cube_mask(s, n) for s in primes]
    lits = [sum(1 for ch in s if ch != "-") for s in primes]
    for r in range(1, len(primes) + 1):
        best = None
        for combo in itertools.combinations(range(len(primes)), r):
            union = 0
            for i in combo:
                union |= masks[i]
            if union & on_mask == on_mask:
                total = sum(lits[i] for i in combo)
                if best is None or total < best[0]:
                    best = (total, combo)
        if best is not None:
            return [primes[i] for i in best[1]]
    raise AssertionError("primes failed to cover the on-set")


def oracle_min_cover(n: int, on_mask: int) -> tuple[int, int]:
    """(minimum term count, minimum literal total among covers of that size)."""
    cubes = oracle_least_cover(n, on_mask)
    return (len(cubes), sum(1 for s in cubes for ch in s if ch != "-"))


def plain_min_cover(pcov: list[int], plit: list[int], on: int) -> tuple[int, int]:
    """Exact minimum (terms, literals) cover of the ``on`` rows by the primes.

    ``pcov`` holds each prime's rows as a mask, ``plit`` its literal count.
    Plain branch-and-bound with no reductions: no essential primes and no
    dominance.  It branches on the uncovered row with the fewest covering
    primes and prunes a branch that cannot beat the best (terms, literals)
    found, since each further term adds a literal.
    """
    best = [(len(pcov) + 1, 0)]

    def rec(uncov: int, terms: int, lits: int) -> None:
        if not uncov:
            best[0] = min(best[0], (terms, lits))
            return
        if (terms + 1, lits + 1) >= best[0]:
            return
        rows = [1 << r for r in range(uncov.bit_length()) if uncov >> r & 1]
        row = min(rows, key=lambda row: sum(1 for cov in pcov if cov & row))
        for cov, lit in zip(pcov, plit):
            if cov & row:
                rec(uncov & ~cov, terms + 1, lits + lit)

    rec(on, 0, 0)
    if best[0][0] > len(pcov):
        raise AssertionError("primes fail to cover the on rows")
    return best[0]


MAJ3_BITS = (0, 0, 0, 1, 0, 1, 1, 1)
XOR3_BITS = (0, 1, 1, 0, 1, 0, 0, 1)


# Fixtures import bfforms lazily: the kernel backend is picked at its
# first import, which must come after pytest_configure.
@pytest.fixture(scope="session")
def maj3():
    from bfforms.truthtable import TruthTable

    return TruthTable(3, MAJ3_BITS)


@pytest.fixture(scope="session")
def xor3():
    from bfforms.truthtable import TruthTable

    return TruthTable(3, XOR3_BITS)


@pytest.fixture(scope="session")
def or2():
    from bfforms.truthtable import TruthTable

    return TruthTable(2, (0, 1, 1, 1))


@pytest.fixture(scope="session")
def xor2():
    from bfforms.truthtable import TruthTable

    return TruthTable(2, (0, 1, 1, 0))


@pytest.fixture(scope="session")
def l2_tables():
    from bfforms.truthtable import TruthTable

    return [TruthTable.from_index(2, i) for i in range(16)]


@pytest.fixture(scope="session")
def l3_tables():
    from bfforms.truthtable import TruthTable

    return [TruthTable.from_index(3, i) for i in range(256)]
