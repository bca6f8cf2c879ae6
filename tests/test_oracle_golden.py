"""Golden oracle output: one sha256 over many exact oracle reports.

The digest covers, one JSON line each:

- the verdicts and the integer holonomies at scale 2 (`_holonomies`) of
  `oracle_report` for every word of length <= 6;
- the same of `oracle_report_direction` on both axis directions;
- for every word of length <= 3, at caps 0, 1 and one below, at and one above
  each of its five trajectories' segment counts, the report, or the error's
  type and exact message.

So a change to the oracle's walks, its twin stops, its end-of-walk rule or its
cylinder check that moves any verdict, holonomy or message shows up here. The
expected values live in `tests/data/oracle_golden.json`. A change that alters
these reports on purpose re-records the file with

    PYTHONPATH=src python tests/test_oracle_golden.py

and says why in its change notes.
"""

import hashlib
import json
import sys
from itertools import product
from pathlib import Path

from goldenl import CapExceededError, GoldenNumber, GoldenVector, StructuralViolationError, oracle_report, trace
from goldenl.flow import oracle_report_direction
from goldenl.surface import WEIERSTRASS_LABELS

DATA = Path(__file__).parent / "data" / "oracle_golden.json"

AXES = (
    GoldenVector(GoldenNumber(1), GoldenNumber(0)),
    GoldenVector(GoldenNumber(0), GoldenNumber(1)),
)


def _words(longest: int) -> list[tuple[int, ...]]:
    return [word for n in range(longest + 1) for word in product((0, 1, 2, 3), repeat=n)]


def _line(report) -> list:
    """A report's verdicts and integer holonomies, in label order."""
    return [[label, report.verdicts[label].value, report._holonomies[label]] for label in report.verdicts]


def _outcome(word, cap) -> list:
    """The report of `word` at `cap`, or the type and message of its error."""
    try:
        return ["report", _line(oracle_report(word, cap))]
    except (CapExceededError, StructuralViolationError) as error:
        return [type(error).__name__, str(error)]


def digest() -> dict:
    """sha256 of the JSON lines, and how many reports and capped runs they cover."""
    h = hashlib.sha256()

    def put(*item) -> None:
        h.update(json.dumps(item).encode())
        h.update(b"\n")

    words = _words(6)
    for word in words:
        put("word", word, _line(oracle_report(word)))
    for v in AXES:
        put("direction", v.quadruple(), _line(oracle_report_direction(v)))
    runs = 0
    for word in _words(3):
        counts = {trace(label, word).segment_count for label in WEIERSTRASS_LABELS}
        caps = sorted({0, 1} | {n + d for n in counts for d in (-1, 0, 1)})
        for cap in caps:
            put("capped", word, cap, _outcome(word, cap))
        runs += len(caps)
    return {"reports": len(words) + len(AXES), "capped_runs": runs, "sha256": h.hexdigest()}


def test_oracle_digest_matches_recording():
    assert digest() == json.loads(DATA.read_text())


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    recorded = digest()
    DATA.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {recorded['reports']} reports and {recorded['capped_runs']} capped runs in {DATA}", file=sys.stderr)
