"""SVG output in both frames: one sha256 per frame over many drawings.

The golden L digest covers `render.golden_l_svg` for the traces of
`tests/test_trajectory_golden.py`: every word of length <= 4 and both axis
directions, from all five midpoints. The pentagon digest covers
`render.pentagon_svg`, the exact trajectory folded onto the table, for every
word of length <= 3 from all five midpoints. A change to how either frame places points, bounces or
formats floats shows up here byte for byte. The expected values live in
`tests/data/svg_golden.json` and `tests/data/pentagon_svg_golden.json`. A
change that alters these drawings on purpose re-records both files with

    PYTHONPATH=src python tests/test_svg_golden.py

and says why in its change notes.
"""

import hashlib
import json
import sys
from itertools import product
from pathlib import Path

from goldenl import GoldenNumber, GoldenVector, trace_direction, word_to_vector
from goldenl.render import golden_l_svg, pentagon_svg
from goldenl.surface import WEIERSTRASS_LABELS

DATA = Path(__file__).parent / "data" / "svg_golden.json"
PENTAGON_DATA = Path(__file__).parent / "data" / "pentagon_svg_golden.json"

AXES = (
    GoldenVector(GoldenNumber(1), GoldenNumber(0)),
    GoldenVector(GoldenNumber(0), GoldenNumber(1)),
)


def digest() -> dict:
    """sha256 of the golden L SVGs, in trace order, and the line total."""
    directions = [word_to_vector(w) for n in range(5) for w in product((0, 1, 2, 3), repeat=n)]
    directions += AXES
    h = hashlib.sha256()
    lines = 0
    for v in directions:
        for label in WEIERSTRASS_LABELS:
            svg = golden_l_svg(trace_direction(label, v))
            lines += svg.count('<line class="trajectory"')
            h.update(svg.encode())
    return {"traces": len(directions) * len(WEIERSTRASS_LABELS), "lines": lines, "sha256": h.hexdigest()}


def pentagon_digest() -> dict:
    """sha256 of the pentagon SVGs, word by word and midpoint by midpoint, and the line total."""
    words = [w for n in range(4) for w in product((0, 1, 2, 3), repeat=n)]
    h = hashlib.sha256()
    lines = 0
    for word in words:
        for label in WEIERSTRASS_LABELS:
            svg = pentagon_svg(word, label)
            lines += svg.count('<line class="trajectory"')
            h.update(svg.encode())
    return {"drawings": len(words) * len(WEIERSTRASS_LABELS), "lines": lines, "sha256": h.hexdigest()}


def test_svg_digest_matches_recording():
    assert digest() == json.loads(DATA.read_text())


def test_pentagon_svg_digest_matches_recording():
    assert pentagon_digest() == json.loads(PENTAGON_DATA.read_text())


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    for path, recorded in ((DATA, digest()), (PENTAGON_DATA, pentagon_digest())):
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"recorded {path.name}: {recorded}", file=sys.stderr)
