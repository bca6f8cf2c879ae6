"""The import boundary: what `import goldenl` and each CLI subcommand load.

Each check runs in a fresh interpreter, since the test process has long since
loaded the whole library.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LIBRARY = ["classify", "errors", "field", "flow", "render", "stats", "surface", "words"]
PUBLIC = [
    "Axis", "CapExceededError", "Classification", "ClassificationReport", "EMPTY_WORD",
    "GOLDEN_L", "GoldenL", "GoldenNumber", "GoldenVector", "HORIZONTAL_VERDICTS",
    "MonteCarloEstimate", "ONE", "Outcome", "PHI", "PHI_INVERSE", "PHI_SQUARED",
    "Permutation5", "ReductionProfile", "SIGMA", "StructuralViolationError", "TAU",
    "Trajectory", "VERTICAL_RELABELING", "VerticalDirectionError", "ZERO", "billiard_path",
    "brute_force_profile", "canonicalize", "classify", "classify_all", "classify_vector",
    "count_empty_reductions", "derive_once", "empty_reduction_probability", "exact_profile",
    "format_word", "is_base_word", "monte_carlo_empty_rate", "oracle_classify",
    "oracle_report", "parse_word", "pentagon_transfer", "reduce_word", "render_trajectory",
    "sector_of", "sigma", "surface_description", "tau", "trace", "trace_direction",
    "vector_to_word", "weierstrass_point", "word_permutation", "word_to_vector",
]  # fmt: skip

# Prints what the code before it leaves behind, as JSON on the last line.
_LOADED = """
import json, sys
print(json.dumps(sorted(m[8:] for m in sys.modules if m.startswith("goldenl."))))
"""


def _run(code: str):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("GOLDENL_FORMAT", None)
    env.pop("GOLDENL_CAP", None)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert _run("import goldenl" + _LOADED) == []


def test_dunder_probe_loads_nothing():
    code = "import goldenl\nassert not hasattr(goldenl, '__wrapped__')" + _LOADED
    assert _run(code) == []


def test_first_read_of_any_public_name_loads_the_whole_library():
    code = f"""
import importlib, json, sys
out = {{}}
for name in {PUBLIC!r}:
    for module in [m for m in sys.modules if m.split(".")[0] == "goldenl"]:
        del sys.modules[module]
    getattr(importlib.import_module("goldenl"), name)
    out[name] = sorted(m[8:] for m in sys.modules if m.startswith("goldenl."))
print(json.dumps(out))
"""
    assert _run(code) == {name: LIBRARY for name in PUBLIC}


def test_star_import_binds_every_public_name():
    code = """
import json
import goldenl
namespace = {}
exec("from goldenl import *", namespace)
assert all(namespace[name] is getattr(goldenl, name) for name in goldenl.__all__)
assert goldenl.classify.__module__ == "goldenl.classify" and callable(goldenl.classify)
print(json.dumps(sorted(set(namespace) - {"__builtins__"})))
"""
    assert _run(code) == PUBLIC
    assert _run("import goldenl, json\nprint(json.dumps(goldenl.__all__))") == PUBLIC


def test_classify_names_the_function_after_its_submodule_loads():
    # The CLI imports submodule goldenl.classify before any public name is read.
    code = """
import json, goldenl.cli
from goldenl import classify
print(json.dumps(classify((2, 1), 1).value))
"""
    assert _run(code) == "saddle"


def test_unknown_name_raises_attribute_error_naming_it():
    # Also after the library has loaded, when a miss must leave patched names alone.
    code = """
import json, goldenl
errors = []
def miss():
    try:
        goldenl.no_such_name
    except AttributeError as exc:
        errors.append(str(exc))
miss()
goldenl.trace = None
miss()
print(json.dumps([errors, goldenl.trace]))
"""
    message = "module 'goldenl' has no attribute 'no_such_name'"
    assert _run(code) == [[message, message], None]


# Each subcommand, and which of flow, render and stats it loads.
_SUBCOMMANDS = [
    (["classify", "21"], []),
    (["word2vec", "21"], []),
    (["vec2word", "2", "2", "1", "2"], []),
    (["reduce", "2121"], []),
    (["surface"], []),
    (["simulate", "21", "4"], ["flow"]),
    (["stats", "--max-n", "2"], ["stats"]),
    (["render", "21", "4", "--out", "{out}"], ["flow", "render"]),
]


@pytest.mark.parametrize("argv, layers", _SUBCOMMANDS, ids=[argv[0] for argv, _ in _SUBCOMMANDS])
def test_cli_subcommand_loads_only_its_layers(tmp_path, argv, layers):
    argv = [a.replace("{out}", str(tmp_path / "out.svg")) for a in argv]
    code = f"""
import contextlib, io
import goldenl.cli  # `from goldenl import cli` would read cli off the package and load it all
with contextlib.redirect_stdout(io.StringIO()):
    assert goldenl.cli.main({argv!r}) == 0
""" + _LOADED
    loaded = _run(code)
    assert sorted(set(loaded) & {"flow", "render", "stats"}) == layers
    assert {"classify", "cli", "errors", "field", "surface", "words"} <= set(loaded)
