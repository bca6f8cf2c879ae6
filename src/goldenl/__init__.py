"""Exact classification of golden L directions named by words over 0-3.

Directions on the golden L translation surface launched from the five
Weierstrass points are periodic, and each word in the four shear generators
names one. The classifier reads the verdict off a product of five-element
permutations; the flow simulator checks it by following the straight-line
flow with exact Q[phi] arithmetic.
"""

from .classify import (
    Classification,
    ClassificationReport,
    HORIZONTAL_VERDICTS,
    classify,
    classify_all,
    classify_vector,
    word_permutation,
)
from .errors import CapExceededError, StructuralViolationError, VerticalDirectionError
from .field import (
    GoldenNumber,
    GoldenVector,
    ONE,
    PHI,
    PHI_INVERSE,
    PHI_SQUARED,
    ZERO,
)
from .flow import (
    Outcome,
    Trajectory,
    canonicalize,
    oracle_classify,
    oracle_report,
    trace,
    trace_direction,
)
from .render import billiard_path, render_trajectory
from .stats import (
    MonteCarloEstimate,
    ReductionProfile,
    brute_force_profile,
    count_empty_reductions,
    empty_reduction_probability,
    exact_profile,
    monte_carlo_empty_rate,
)
from .surface import (
    Axis,
    GOLDEN_L,
    GoldenL,
    Permutation5,
    SIGMA,
    TAU,
    VERTICAL_RELABELING,
    pentagon_transfer,
    sector_of,
    sigma,
    surface_description,
    tau,
    weierstrass_point,
)
from .words import (
    EMPTY_WORD,
    derive_once,
    format_word,
    is_base_word,
    parse_word,
    reduce_word,
    vector_to_word,
    word_to_vector,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "CapExceededError",
    "Classification",
    "ClassificationReport",
    "EMPTY_WORD",
    "GOLDEN_L",
    "GoldenL",
    "GoldenNumber",
    "GoldenVector",
    "HORIZONTAL_VERDICTS",
    "MonteCarloEstimate",
    "ONE",
    "Outcome",
    "PHI",
    "PHI_INVERSE",
    "PHI_SQUARED",
    "Permutation5",
    "ReductionProfile",
    "SIGMA",
    "StructuralViolationError",
    "TAU",
    "Trajectory",
    "VERTICAL_RELABELING",
    "VerticalDirectionError",
    "ZERO",
    "billiard_path",
    "brute_force_profile",
    "canonicalize",
    "classify",
    "classify_all",
    "classify_vector",
    "count_empty_reductions",
    "derive_once",
    "empty_reduction_probability",
    "exact_profile",
    "format_word",
    "is_base_word",
    "monte_carlo_empty_rate",
    "oracle_classify",
    "oracle_report",
    "parse_word",
    "pentagon_transfer",
    "reduce_word",
    "render_trajectory",
    "sector_of",
    "sigma",
    "surface_description",
    "tau",
    "trace",
    "trace_direction",
    "vector_to_word",
    "weierstrass_point",
    "word_permutation",
    "word_to_vector",
]
