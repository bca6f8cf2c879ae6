"""The import boundary: what `import goldenl` and each CLI subcommand load.

Each check runs in a fresh interpreter, since the test process has long since
loaded the whole library.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LIBRARY = ["classify", "errors", "field", "flow", "render", "stats", "surface", "words"]
PUBLIC = [
    "CapExceededError", "Classification", "ClassificationReport", "EMPTY_WORD", "GOLDEN_L",
    "GoldenL", "GoldenNumber", "GoldenVector", "HORIZONTAL_VERDICTS", "MonteCarloEstimate",
    "ONE", "Outcome", "PHI", "PHI_INVERSE", "PHI_SQUARED", "Permutation5", "ReductionProfile",
    "SIGMA", "StructuralViolationError", "TAU", "Trajectory", "VERTICAL_RELABELING",
    "VerticalDirectionError", "ZERO", "billiard_path", "brute_force_profile", "canonicalize",
    "classify", "classify_all", "classify_vector", "count_empty_reductions", "derive_once",
    "empty_reduction_probability", "exact_profile", "format_word", "is_base_word",
    "monte_carlo_empty_rate", "oracle_classify", "oracle_report", "parse_word", "reduce_word",
    "render_trajectory", "sigma", "surface_description", "tau", "trace", "trace_direction",
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


def test_dir_loads_the_whole_library_and_lists_every_public_name():
    code = f"""
import json, sys
import goldenl
names = dir(goldenl)
loaded = sorted(m[8:] for m in sys.modules if m.startswith("goldenl."))
print(json.dumps([loaded, [name for name in {PUBLIC!r} if name not in names]]))
"""
    assert _run(code) == [LIBRARY, []]


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
    # The CLI's classify subcommand imports submodule goldenl.classify before any public name is read.
    code = """
import json, goldenl.classify
from goldenl import classify
print(json.dumps(classify((2, 1), 1).value))
"""
    assert _run(code) == "saddle"


@pytest.mark.parametrize("module", ["flow", "render"])
def test_the_oracle_and_the_renderer_load_no_classify(module):
    # The flow oracle checks the tau algorithm, so neither it nor the renderer on top of it loads that algorithm.
    assert "classify" not in _run(f"import goldenl.{module}" + _LOADED)


def test_verdicts_have_one_owner_under_every_spelling():
    code = """
import json, sys
import goldenl, goldenl.classify, goldenl.surface
from goldenl.classify import Classification, HORIZONTAL_VERDICTS
classify = sys.modules["goldenl.classify"]
print(json.dumps([goldenl.Classification is classify.Classification is Classification is goldenl.surface.Classification,
                  goldenl.HORIZONTAL_VERDICTS is HORIZONTAL_VERDICTS is goldenl.surface.HORIZONTAL_VERDICTS]))
"""
    assert _run(code) == [True, True]


def test_walk_turns_read_on_cycle_positions_match_the_table_sides():
    # flow states each turn on MIDPOINT_CYCLE positions, the pentagon reference numbers the table's sides by
    # _EDGE; the +2 that _EDGE adds cancels in a difference.
    from goldenl import flow
    from pentagon_reference import _EDGE

    assert flow._REENTRY == tuple((2 * (_EDGE[l] - _EDGE[e]) % 5, e) for l, e in flow._LEAVES)


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


# Each subcommand, and which of classify, flow, render, stats and surface it loads.
_SUBCOMMANDS = [
    (["classify", "21"], ["classify", "surface"]),
    (["word2vec", "21"], []),
    (["vec2word", "2", "2", "1", "2"], []),
    (["reduce", "2121"], []),
    (["surface"], ["surface"]),
    (["simulate", "21", "4"], ["flow", "surface"]),
    (["simulate", "21", "--classify"], ["flow", "surface"]),
    (["stats", "--max-n", "2"], ["stats"]),
    (["render", "21", "4", "--out", "{out}"], ["flow", "render", "surface"]),
    (["render", "21", "4", "--frame", "pentagon", "--out", "{out}"], ["flow", "render", "surface"]),
]
_LAYERS = {"classify", "flow", "render", "stats", "surface"}
# The subcommands that read rationals, and so load fractions and with it decimal and numbers.
_RATIONAL = {"stats", "vec2word"}


@pytest.mark.parametrize(
    "argv, layers",
    _SUBCOMMANDS,
    ids=[argv[0] + " --classify" * ("--classify" in argv) + " pentagon" * ("pentagon" in argv) for argv, _ in _SUBCOMMANDS],
)
def test_cli_subcommand_loads_only_its_layers(tmp_path, argv, layers):
    # No subcommand loads dataclasses (and with it inspect), json loads for
    # --format json alone, and fractions for the subcommands that read
    # rationals alone; only what the run adds to sys.modules counts, so the
    # probe imports json after taking that difference.
    argv = [a.replace("{out}", str(tmp_path / "out.svg")) for a in argv]
    for fmt in ("text", "csv", "json"):
        code = f"""
import contextlib, io, sys
before = set(sys.modules)
import goldenl.cli  # `from goldenl import cli` would read cli off the package and load it all
with contextlib.redirect_stdout(io.StringIO()):
    assert goldenl.cli.main({argv + ["--format", fmt]!r}) == 0
added = set(sys.modules) - before
import json
print(json.dumps([sorted(m[8:] for m in added if m.startswith("goldenl.")), sorted(added & {{"dataclasses", "inspect", "json"}}),
                  sorted(added & {{"fractions", "decimal", "numbers"}})]))
"""
        loaded, heavy, rational = _run(code)
        assert sorted(set(loaded) & _LAYERS) == layers
        assert {"cli", "errors", "field", "words"} <= set(loaded)
        assert heavy == (["json"] if fmt == "json" else []), fmt
        if argv[0] in _RATIONAL:
            assert "fractions" in rational, fmt
        else:
            assert rational == [], fmt


def test_golden_numbers_load_fractions_only_when_a_coefficient_is_read():
    # A GoldenNumber holds integers: building, comparing, hashing and printing
    # one loads no fractions. Reading a coefficient loads it and gives a Fraction.
    code = """
import json, sys
from goldenl.field import PHI, GoldenNumber, GoldenVector
x = (GoldenNumber(3, -2) + 1) * PHI
values = [x < PHI, hash(x), str(x), repr(x), x.to_json_dict(), GoldenVector(x, PHI).quadruple(), x.to_float()]
before = "fractions" in sys.modules
a = x.a
print(json.dumps([before, type(a).__module__, type(a).__name__, str(a), "fractions" in sys.modules]))
"""
    assert _run(code) == [False, "fractions", "Fraction", "-2", True]


# The imports a module may bind and never read. perfbench/selftest.py checks
# that its span tracer's wrapper of words.word_to_vector is the one render
# reaches, so render keeps that binding for the benchmark.
_UNREAD_ALLOWED = {"render": {"word_to_vector"}}


def _unread_imports(source: str) -> set[str]:
    """The names a module's imports bind that no expression or annotation reads."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_every_import_is_read():
    unread = {}
    for path in sorted((SRC / "goldenl").glob("*.py")):
        names = _unread_imports(path.read_text(encoding="utf-8")) - _UNREAD_ALLOWED.get(path.stem, set())
        if names:
            unread[path.stem] = sorted(names)
    assert unread == {}


def _private_bindings(tree: ast.Module) -> set[str]:
    """The private names, dunders aside, that a module's top-level statements bind."""
    bound, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if target is not None:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
        todo += [*getattr(node, "body", []), *getattr(node, "orelse", []), *getattr(node, "finalbody", [])]
    return {name for name in bound if name.startswith("_") and not name.endswith("__")}


def test_every_private_module_name_is_read():
    # A private name that a module binds at top level and no library code
    # reads, as a name or an attribute, is dead or belongs to its only reader.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted((SRC / "goldenl").glob("*.py"))}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }
    unread = {stem: sorted(names) for stem, tree in trees.items() if (names := _private_bindings(tree) - read)}
    assert unread == {}


def test_unread_import_scan_reads_annotations():
    source = "from enum import Enum\nfrom typing import NamedTuple\nimport os.path\ndef f(x: NamedTuple): pass\n"
    assert _unread_imports(source) == {"Enum", "os"}
