"""Time-guard configuration for the exact minimizers.

Exact covering can degenerate on adversarial inputs; rather than silently
falling back to a heuristic, every minimization call carries a wall-clock
budget and raises :class:`bfforms.errors.GuardTimeoutError` when it is
exceeded.  The default budget is ``DEFAULT_GUARD_SECS`` and can be
overridden globally through the ``BFFORMS_GUARD_SECS`` environment
variable or per call via the ``guard_s`` keyword.  A NaN budget is
rejected with ValueError: no deadline comparison would ever trip it.
"""

import math
import os

ENV_VAR = "BFFORMS_GUARD_SECS"
DEFAULT_GUARD_SECS = 60.0


def resolve_guard(guard_s: float | None = None) -> float:
    """Return the effective per-call time budget in seconds."""
    if guard_s is not None:
        guard, source = float(guard_s), "guard_s"
    else:
        env = os.environ.get(ENV_VAR)
        if not env:
            return DEFAULT_GUARD_SECS
        guard, source = float(env), ENV_VAR
    if math.isnan(guard):
        raise ValueError(f"{source} is NaN; the time guard needs a number of seconds")
    return guard
