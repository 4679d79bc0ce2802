"""Boolean functions in three bases with PLA cost analytics.

Represents any Boolean function of up to six variables as a minimal
sum-of-products cover, a fixed-polarity Reed-Muller polynomial, and a
fixed-polarity arithmetic polynomial; scores each under five PLA cost
criteria; classifies functions by which forms win; and runs exhaustive or
seeded-sample sweeps over whole function spaces to reproduce the
efficiency-index and aggregate-loss statistics.
"""

__version__ = "0.1.0"

from .analysis import (
    FunctionAnalysis,
    LossReport,
    ReiResult,
    SCENARIOS,
    SUBSET_LABELS,
    SweepRecord,
    SweepRecords,
    SweepStats,
    aggregate,
    analyze_function,
    classify,
    q_aggregate,
    rei,
    sampled_sweep,
    specific_weights,
    sweep,
)
from .arith import (
    ArithPolynomial,
    FImage,
    arithmetic_transform,
    best_arith_polarity,
    complement_image,
    eval_arith,
    graphical_conjunction,
    graphical_disjunction,
    image_of,
    inverse_arithmetic_transform,
    threshold_verify,
)
from .costs import CRITERIA, CostVector, cost_of_sop
from .errors import GuardTimeoutError, PlaFormatError
from .pla import PlaDocument, emit_pla, parse_pla, sop_to_pla, truth_tables
from .reedmuller import (
    PolarityVector,
    RmPolynomial,
    best_polarity,
    class_power,
    eval_rm,
    fprm_count,
    fprm_transform,
)
from .sop import Cube, SopForm, eval_sop, minimize_sop, prime_implicants
from .truthtable import (
    Assignment,
    TruthTable,
    enumerate_all,
    sample_uniform,
)

__all__ = [
    "Assignment",
    "ArithPolynomial",
    "CRITERIA",
    "CostVector",
    "Cube",
    "FImage",
    "FunctionAnalysis",
    "GuardTimeoutError",
    "LossReport",
    "PlaDocument",
    "PlaFormatError",
    "PolarityVector",
    "ReiResult",
    "RmPolynomial",
    "SCENARIOS",
    "SUBSET_LABELS",
    "SopForm",
    "SweepRecord",
    "SweepRecords",
    "SweepStats",
    "TruthTable",
    "aggregate",
    "analyze_function",
    "arithmetic_transform",
    "best_arith_polarity",
    "best_polarity",
    "class_power",
    "classify",
    "complement_image",
    "cost_of_sop",
    "emit_pla",
    "enumerate_all",
    "eval_arith",
    "eval_rm",
    "eval_sop",
    "fprm_count",
    "fprm_transform",
    "graphical_conjunction",
    "graphical_disjunction",
    "image_of",
    "inverse_arithmetic_transform",
    "minimize_sop",
    "parse_pla",
    "prime_implicants",
    "q_aggregate",
    "rei",
    "sample_uniform",
    "sampled_sweep",
    "sop_to_pla",
    "specific_weights",
    "sweep",
    "threshold_verify",
    "truth_tables",
]
