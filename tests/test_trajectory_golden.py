"""Golden flow output: one sha256 over many exact trajectories.

The digest covers `Trajectory.to_json_dict` for every word of length <= 4 and
both axis directions, from all five midpoints, together with the total
segment count, so a kernel change that moves any segment endpoint, outcome
or holonomy shows up here byte for byte. The expected values live in
`tests/data/trajectory_golden.json`. A change that alters these trajectories
on purpose re-records the file with

    PYTHONPATH=src python tests/test_trajectory_golden.py

and says why in its change notes.
"""

import hashlib
import json
import sys
from itertools import product
from pathlib import Path

from goldenl import GoldenNumber, GoldenVector, trace_direction, word_to_vector
from goldenl.surface import WEIERSTRASS_LABELS

DATA = Path(__file__).parent / "data" / "trajectory_golden.json"

AXES = (
    GoldenVector(GoldenNumber(1), GoldenNumber(0)),
    GoldenVector(GoldenNumber(0), GoldenNumber(1)),
)


def digest() -> dict:
    """sha256 of the JSON dumps, one line per trace, and the segment total."""
    cases = [(word, word_to_vector(word)) for n in range(5) for word in product((0, 1, 2, 3), repeat=n)]
    cases += [(None, v) for v in AXES]
    h = hashlib.sha256()
    segments = 0
    for word, v in cases:
        for label in WEIERSTRASS_LABELS:
            t = trace_direction(label, v)
            segments += t.segment_count
            h.update(json.dumps(t.to_json_dict(word), sort_keys=True).encode())
            h.update(b"\n")
    return {"traces": len(cases) * len(WEIERSTRASS_LABELS), "segments": segments, "sha256": h.hexdigest()}


def test_trajectory_digest_matches_recording():
    assert digest() == json.loads(DATA.read_text())


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    recorded = digest()
    DATA.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {recorded['traces']} traces in {DATA}", file=sys.stderr)
