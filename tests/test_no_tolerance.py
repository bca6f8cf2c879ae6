"""The library decides nothing within a float tolerance.

Every sign, closure and corner in `goldenl` is decided exactly, so no source
file needs a tolerance: no exponent-form float literal such as 1e-9, and no
name like CORNER_TOLERANCE. The float reference billiard the tests compare
against lives in `tests/` and keeps its tolerances there.
"""

import io
import re
import tokenize
from pathlib import Path

import goldenl

SOURCES = sorted(Path(goldenl.__file__).parent.glob("*.py"))
EXPONENT = re.compile(r"^[0-9_]*\.?[0-9_]*[eE][+-]?[0-9]")


def _tolerances(text: str) -> list[str]:
    found = []
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.NUMBER and EXPONENT.match(token.string):
            found.append(f"line {token.start[0]}: {token.string}")
        elif token.type == tokenize.NAME and "TOLERANCE" in token.string:
            found.append(f"line {token.start[0]}: {token.string}")
    return found


def test_scanner_sees_tolerances():
    assert _tolerances("x = 1e-9\ny = 2.5E+3\nCLOSE_TOLERANCE = 0.1\n") == [
        "line 1: 1e-9",
        "line 2: 2.5E+3",
        "line 3: CLOSE_TOLERANCE",
    ]
    assert _tolerances("x = 0x1e5 + 10\ns = '1e-9'  # 1e-9\n") == []


def test_library_has_no_float_tolerance():
    assert SOURCES
    found = {path.name: _tolerances(path.read_text()) for path in SOURCES}
    assert not any(found.values()), found
