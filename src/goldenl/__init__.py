"""Exact classification of golden L directions named by words over 0-3.

Directions on the golden L translation surface launched from the five
Weierstrass points are periodic, and each word in the four shear generators
names one. The classifier reads the verdict off a product of five-element
permutations; the flow simulator checks it by following the straight-line
flow with exact Q[phi] arithmetic.

`import goldenl` loads no submodule, so a CLI call loads only the layers its
subcommand runs. The first read of a public name loads every library module
at once and binds all their names here. All at once, not one module per name:
a tool that rebinds a function wherever it is bound, such as the benchmark's
span tracer or a mock, reaches only the modules loaded so far. Loaded one by
one, a module that loads after the patch would keep the original function,
and one that loads during it would keep the patch past its restore.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "classify": ("Classification", "ClassificationReport", "HORIZONTAL_VERDICTS", "classify",
                 "classify_all", "classify_vector", "word_permutation"),
    "errors": ("CapExceededError", "StructuralViolationError", "VerticalDirectionError"),
    "field": ("GoldenNumber", "GoldenVector", "ONE", "PHI", "PHI_INVERSE", "PHI_SQUARED", "ZERO"),
    "flow": ("Outcome", "Trajectory", "canonicalize", "oracle_classify", "oracle_report", "trace",
             "trace_direction"),
    "render": ("billiard_path", "render_trajectory"),
    "stats": ("MonteCarloEstimate", "ReductionProfile", "brute_force_profile",
              "count_empty_reductions", "empty_reduction_probability", "exact_profile",
              "monte_carlo_empty_rate"),
    "surface": ("Axis", "GOLDEN_L", "GoldenL", "Permutation5", "SIGMA", "TAU", "VERTICAL_RELABELING",
                "pentagon_transfer", "sector_of", "sigma", "surface_description", "tau",
                "weierstrass_point"),
    "words": ("EMPTY_WORD", "derive_once", "format_word", "is_base_word", "parse_word",
              "reduce_word", "vector_to_word", "word_to_vector"),
}  # fmt: skip

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _load() -> None:
    """Import every library module and bind its public names here, once."""
    namespace = globals()
    for module, names in _EXPORTS.items():
        loaded = import_module(f".{module}", __name__)
        namespace.update((name, getattr(loaded, name)) for name in names)
    # Once only: a later miss must not rebind a name a tool has patched since.
    namespace.pop("__getattr__", None)
    namespace.pop("__dir__", None)


def __getattr__(name: str):
    if not (name.startswith("__") and name.endswith("__")):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _load()
    return sorted(globals())


class _Package(ModuleType):
    """The package's module type. Importing submodule goldenl.classify would
    bind it here under the name of the public function classify, which the
    function keeps."""

    def __setattr__(self, name: str, value) -> None:
        if name != "classify" or not isinstance(value, ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
