"""Time-guard configuration for the exact minimizers.

Exact covering can degenerate on adversarial inputs; rather than silently
falling back to a heuristic, every minimization call carries a wall-clock
budget and raises :class:`bfforms.errors.GuardTimeoutError` when it is
exceeded.  The default budget is ``DEFAULT_GUARD_SECS`` and can be
overridden globally through the ``BFFORMS_GUARD_SECS`` environment
variable or per call via the ``guard_s`` keyword.  A budget that is not a
number, or is NaN (no deadline comparison would ever trip it), is rejected
with ValueError.
"""

import math
import os

ENV_VAR = "BFFORMS_GUARD_SECS"
DEFAULT_GUARD_SECS = 60.0


def resolve_guard(guard_s: float | None = None) -> float:
    """Return the effective per-call time budget in seconds."""
    if guard_s is not None:
        value, source = guard_s, "guard_s"
    else:
        value, source = os.environ.get(ENV_VAR), ENV_VAR
        if not value:
            return DEFAULT_GUARD_SECS
    try:
        guard = float(value)
    except ValueError:
        raise ValueError(f"{source} is {value!r}, not a number of seconds") from None
    if math.isnan(guard):
        raise ValueError(f"{source} is NaN; the time guard needs a number of seconds")
    return guard
