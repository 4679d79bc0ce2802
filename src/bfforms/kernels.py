"""Sweep-kernel selection: compiled C kernel if built, else pure Python.

Set ``BFFORMS_PURE=1`` to force the pure-Python kernels even when the
compiled kernel is built; ctypes is then never imported.  Both backends
implement identical semantics and produce identical counts; ``BACKEND``
names the active one.
The functions here validate ``n`` and the function indices once for both
backends, raising ValueError outside ``1 <= n <= 6`` and
``0 <= index < 2**2**n``.
"""

from __future__ import annotations

import os
from typing import Sequence

if os.environ.get("BFFORMS_PURE") == "1":
    from . import _kernels_py as _impl
else:
    try:
        from . import _kernels_c as _impl
    except ImportError:
        from . import _kernels_py as _impl

BACKEND = _impl.BACKEND


def _check(n: int, *indices: int) -> None:
    if not 1 <= n <= 6:
        raise ValueError(f"kernels support n in 1..6, got {n}")
    size = 1 << (1 << n)
    for index in indices:
        if not 0 <= index < size:
            raise ValueError(f"function index {index} out of range for n={n}")


def analyze_counts(n: int, index: int, guard_s: float = 60.0) -> tuple[int, ...]:
    _check(n, index)
    return _impl.analyze_counts(n, index, guard_s)


def analyze_batch(
    n: int, indices: Sequence[int], guard_s: float = 60.0
) -> list[tuple[int, ...]]:
    _check(n, *indices)
    return _impl.analyze_batch(n, indices, guard_s)


def sweep_counts(
    n: int, start: int, stop: int, guard_s: float = 60.0
) -> list[tuple[int, ...]]:
    _check(n)
    if not 0 <= start <= stop <= 1 << (1 << n):
        raise ValueError(f"index range [{start}, {stop}) out of range for n={n}")
    return _impl.analyze_batch(n, range(start, stop), guard_s)


def polarity_minima(n: int, mask: int) -> tuple[int, ...]:
    """(rm_ad, rm_sh, rm_l, af_ad, af_sh, af_l): both forms' minima at once."""
    _check(n, mask)
    return _impl.polarity_minima(n, mask)
