"""Boolean functions in three bases with PLA cost analytics.

Represents any Boolean function of up to six variables as a minimal
sum-of-products cover, a fixed-polarity Reed-Muller polynomial, and a
fixed-polarity arithmetic polynomial; scores each under five PLA cost
criteria; classifies functions by which forms win; and runs exhaustive or
seeded-sample sweeps over whole function spaces to reproduce the
efficiency-index and aggregate-loss statistics.

Importing the package loads none of its modules: each export, and each
submodule named as an attribute, is imported on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# The module each export comes from.
_LAZY = {
    "analysis": (
        "FunctionAnalysis", "LossReport", "ReiResult", "SCENARIOS",
        "SUBSET_LABELS", "SweepRecord", "SweepRecords", "SweepStats",
        "aggregate", "analyze_function", "classify", "q_aggregate", "rei",
        "sampled_sweep", "specific_weights", "sweep",
    ),
    "arith": (
        "ArithPolynomial", "FImage", "arithmetic_transform",
        "best_arith_polarity", "complement_image", "eval_arith",
        "graphical_conjunction", "graphical_disjunction", "image_of",
        "inverse_arithmetic_transform", "threshold_verify",
    ),
    "costs": ("CRITERIA", "CostVector", "cost_of_sop"),
    "errors": ("GuardTimeoutError", "PlaFormatError"),
    "pla": ("PlaDocument", "emit_pla", "parse_pla", "sop_to_pla", "truth_tables"),
    "reedmuller": (
        "PolarityVector", "RmPolynomial", "best_polarity", "class_power",
        "eval_rm", "fprm_count", "fprm_transform",
    ),
    "sop": ("Cube", "SopForm", "eval_sop", "minimize_sop", "prime_implicants"),
    "truthtable": ("Assignment", "TruthTable", "enumerate_all", "sample_uniform"),
}  # fmt: skip


def _lazy(namespace: dict, table: dict[str, tuple[str, ...]]):
    """``(bind, __getattr__)`` for a module whose names ``table`` imports late.

    ``namespace`` is the module's globals and ``table`` maps a submodule of
    this package to the names taken from it.  ``bind(*names)`` imports each
    name not yet in ``namespace`` and binds it there; a name already bound,
    such as a wrapper set from outside, stays.  The ``__getattr__`` (PEP
    562) binds a name of the table on first access and raises
    AttributeError for any other.  Code in the module calls ``bind`` for
    the names it is about to use, then looks them up as globals.
    """
    home = {name: module for module, names in table.items() for name in names}

    def bind(*names: str) -> None:
        for name in names:
            if name not in namespace:
                module = import_module(f"{__name__}.{home[name]}")
                namespace[name] = getattr(module, name)

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        bind(name)
        return namespace[name]

    return bind, __getattr__


_export = _lazy(globals(), _LAZY)[1]
__all__ = [name for names in _LAZY.values() for name in names]


def __getattr__(name: str):
    """An export, or a submodule not yet imported; see :func:`_lazy`."""
    if name in __all__:
        return _export(name)
    if name.isidentifier():
        try:
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
