"""Compiled sweep kernels: ``_ckernel.c`` loaded through ctypes.

Semantics twin of ``bfforms._kernels_py``; the C file describes the
algorithms.  ``setup.py`` builds the library next to this module.  When it
is missing or does not load, importing this module raises ImportError and
``bfforms.kernels`` runs the pure twin.
"""

from __future__ import annotations

import ctypes
import sysconfig
from array import array
from pathlib import Path
from typing import Sequence

from .errors import GuardTimeoutError

BACKEND = "compiled"

_PATH = Path(__file__).with_name("_ckernel" + sysconfig.get_config_var("EXT_SUFFIX"))
try:
    _lib = ctypes.CDLL(str(_PATH))
    # A library built from older source lacks the newer entry points.
    for _entry in ("bf_analyze", "bf_polarity_minima"):
        getattr(_lib, _entry)
except (OSError, AttributeError) as exc:
    raise ImportError(f"compiled kernel {_PATH.name} not loadable: {exc}") from exc

# Arrays pass as addresses: n, index array, its length, output array.
_ARGS = [ctypes.c_int, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p]
_lib.bf_analyze.argtypes = _ARGS + [ctypes.c_double]
_lib.bf_analyze.restype = ctypes.c_int
_lib.bf_polarity_minima.argtypes = _ARGS
_lib.bf_polarity_minima.restype = ctypes.c_int


def _call(
    entry, width: int, n: int, indices: Sequence[int], *args
) -> list[tuple[int, ...]]:
    """Run one entry point over ``indices``; ``width`` counts per index."""
    index = array("Q", indices)
    out = array("i", [0]) * (width * len(index))
    status = entry(n, index.buffer_info()[0], len(index), out.buffer_info()[0], *args)
    if status == 1:
        raise GuardTimeoutError("SOP count minimization exceeded its time guard")
    if status:
        raise ValueError(
            f"kernels support n in 1..6 and indices below 2**2**n, got n={n}"
        )
    return list(zip(*[iter(out)] * width))


def analyze_batch(
    n: int, indices: Sequence[int], guard_s: float = 60.0
) -> list[tuple[int, ...]]:
    """analyze_counts over an index sequence, in order."""
    return _call(_lib.bf_analyze, 9, n, indices, guard_s)


def analyze_counts(n: int, index: int, guard_s: float = 60.0) -> tuple[int, ...]:
    """Nine cost counts for one function index; layout as in the pure twin."""
    return analyze_batch(n, [index], guard_s)[0]


def min_sop_counts(n: int, on: int, guard_s: float = 60.0) -> tuple[int, int]:
    """(terms, literals) of the exact minimum SOP cover of the ``on`` mask."""
    terms, _, literals = analyze_counts(n, on, guard_s)[:3]
    return terms, literals


def polarity_minima_batch(n: int, masks: Sequence[int]) -> list[tuple[int, ...]]:
    """:func:`polarity_minima` of every mask."""
    return _call(_lib.bf_polarity_minima, 6, n, masks)


def polarity_minima(n: int, mask: int) -> tuple[int, ...]:
    """(rm_ad, rm_sh, rm_l, af_ad, af_sh, af_l): both forms' minima at once."""
    return polarity_minima_batch(n, [mask])[0]
