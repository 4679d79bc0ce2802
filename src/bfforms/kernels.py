"""The one gate into the sweep kernels: compiled C if built, else pure Python.

Set ``BFFORMS_PURE=1`` to force the pure-Python kernels even when the
compiled kernel is built; ctypes is then never imported.  Both backends
implement identical semantics and produce identical counts; ``BACKEND``
names the active one.  Each exports two batch entries, ``analyze_batch``
and ``polarity_minima_batch``; the one-function forms here are batches of
one.  The functions here check ``n`` and every index before any kernel
runs, raising ValueError outside ``1 <= n <= 6`` and
``0 <= index < 2**2**n``, and resolve every time guard with
:func:`bfforms.guard.resolve_guard`: a call without ``guard_s`` follows
``BFFORMS_GUARD_SECS``, and a NaN guard raises ValueError.
"""

from __future__ import annotations

import os
from typing import Sequence

from .guard import resolve_guard

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


def analyze_counts(n: int, index: int, guard_s: float | None = None) -> tuple[int, ...]:
    """The nine cost counts of one function index, as :func:`analyze_batch`."""
    _check(n, index)
    # The twin's entry, not this module's analyze_batch: a caller that
    # wraps both names would see one call twice.
    return _impl.analyze_batch(n, [index], resolve_guard(guard_s))[0]


def analyze_batch(
    n: int, indices: Sequence[int], guard_s: float | None = None
) -> list[tuple[int, ...]]:
    """The nine cost counts of each index, in order; layout as in the twins."""
    _check(n, *indices)
    return _impl.analyze_batch(n, indices, resolve_guard(guard_s))


def sweep_counts(
    n: int, start: int, stop: int, guard_s: float | None = None
) -> list[tuple[int, ...]]:
    _check(n)
    if not 0 <= start <= stop <= 1 << (1 << n):
        raise ValueError(f"index range [{start}, {stop}) out of range for n={n}")
    return _impl.analyze_batch(n, range(start, stop), resolve_guard(guard_s))


def polarity_minima(n: int, mask: int) -> tuple[int, ...]:
    """(rm_ad, rm_sh, rm_l, af_ad, af_sh, af_l): both forms' minima at once."""
    _check(n, mask)
    return _impl.polarity_minima_batch(n, [mask])[0]
