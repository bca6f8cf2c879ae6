"""Golden CLI output: exit code and stdout of a fixed list of invocations.

Every subcommand and every output format is covered. Expected outputs live in
`tests/data/cli_golden.json`; written SVGs are compared by sha256. A change
that alters any of these bytes on purpose re-records the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and says why in its change notes.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from goldenl import cli

DATA = Path(__file__).parent / "data" / "cli_golden.json"

FORMATS = ("text", "json", "csv")

CASES = (
    *(("classify", "21", "--format", f) for f in FORMATS),
    ("classify", "132", "3", "--format", "json"),
    ("classify", "e"),
    ("classify", "47"),
    *(("word2vec", "132", "--format", f) for f in FORMATS),
    *(("vec2word", "3", "2", "2", "4", "--format", f) for f in FORMATS),
    ("vec2word", "2", "2", "1", "2", "--cap", "10"),
    ("vec2word", "0", "0", "1", "0"),
    *(("reduce", "231221", "--format", f) for f in FORMATS),
    *(("simulate", "21", "4", "--format", f) for f in FORMATS),
    ("simulate", "e", "5", "--format", "json"),
    ("simulate", "e", "3"),
    ("simulate", "21", "4", "--cap", "2"),
    *(("simulate", "21", "--classify", "--format", f) for f in FORMATS),
    ("simulate", "132", "--classify"),
    *(("render", "21", "4", "--frame", "goldenl", "--out", "out.svg", "--format", f) for f in FORMATS),
    *(("render", "21", "4", "--frame", "pentagon", "--out", "out.svg", "--format", f) for f in FORMATS),
    ("render", "132", "2", "--frame", "pentagon", "--out", "out.svg", "--size", "200"),
    *(("stats", "--max-n", "3", "--format", f) for f in FORMATS),
    ("stats", "--max-n", "2", "--mode", "brute", "--format", "csv"),
    *(("stats", "--max-n", "2", "--mode", "mc", "--samples", "2000", "--seed", "5", "--format", f) for f in FORMATS),
    *(("surface", "--format", f) for f in FORMATS),
)


def run_case(argv: tuple[str, ...]) -> dict:
    """Run one invocation in a fresh directory; SVG output goes to `out.svg` there."""
    saved_env = {key: os.environ.pop(key, None) for key in ("GOLDENL_FORMAT", "GOLDENL_CAP")}
    saved_cwd = os.getcwd()
    stdout = io.StringIO()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            svg = Path(tmp, "out.svg")
            digest = hashlib.sha256(svg.read_bytes()).hexdigest() if svg.exists() else None
    finally:
        os.chdir(saved_cwd)
        for key, value in saved_env.items():
            if value is not None:
                os.environ[key] = value
    return {"exit": code, "stdout": stdout.getvalue(), "svg_sha256": digest}


def _expected() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_golden_output(argv):
    assert run_case(argv) == _expected()[" ".join(argv)]


def test_golden_data_matches_cases():
    assert sorted(_expected()) == sorted(" ".join(argv) for argv in CASES)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    recorded = {" ".join(argv): run_case(argv) for argv in CASES}
    DATA.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} invocations in {DATA}", file=sys.stderr)
