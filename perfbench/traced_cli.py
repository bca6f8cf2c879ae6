"""`python -m goldenl ARGS` with layer spans, for the traced cli-mix run.

    python3 perfbench/traced_cli.py SPANS_FILE ARGS...

Runs goldenl.cli.main(ARGS) with the same wrappers as the in-process traced
runs, then appends one JSON line (spans and counters) to SPANS_FILE and
exits with the CLI's exit code.
"""

import dataclasses
import json
import sys

import tracing
from worker import import_goldenl


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    goldenl = import_goldenl()
    import goldenl.cli  # noqa: F401  (bound before the wrappers go in)

    tracer = tracing.Tracer(active=True)
    tracer.install()
    try:
        return goldenl.cli.main(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
        tracer.drain()
        record = {"spans": tracer.spans, "counters": dataclasses.asdict(tracer.counters)}
        with open(spans_file, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
