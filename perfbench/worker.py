"""One workload in a fresh interpreter: set up, then run the timed items.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode setup|run|trace

`setup` stops after the warm-up item and prints "ready". `run` times every
item untraced and prints one JSON line of end-to-end figures, scaled to the
reference host speed (speed.py). `trace` times the same half-size item list
twice, untraced and then traced, and prints the per-layer figures. The
goldenl under test is always the one in this checkout's src/; anything else
is refused.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import HERE, PACKAGE, PER_LAYER, ROOT
from speed import SpeedProbe

SRC = PACKAGE.parent
OUT_DIR = ROOT / ".perfbench_out"


def import_goldenl():
    """Import goldenl from this checkout and nowhere else."""
    sys.path.insert(0, str(SRC))
    import goldenl

    if Path(goldenl.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"perfbench: goldenl resolved to {goldenl.__file__}, not {PACKAGE}")
    return goldenl


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("GOLDENL_FORMAT", None)
    env.pop("GOLDENL_CAP", None)
    return env


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


class Context:
    """What items need beyond their inputs: CLI launch, schema checks, scratch files."""

    def __init__(self, scratch: Path, spans_file: Path | None = None):
        self.scratch = scratch
        self.spans_file = spans_file
        self.env = cli_env()
        self._count = 0
        self._schemas: dict[str, dict] = {}

    def cli_command(self, argv: list[str]) -> list[str]:
        if self.spans_file is None:
            return [sys.executable, "-m", "goldenl", *argv]
        return [sys.executable, str(HERE / "traced_cli.py"), str(self.spans_file), *argv]

    def scratch_svg(self) -> str:
        self._count += 1
        return str(self.scratch / f"out{self._count}.svg")

    def validate(self, payload: dict) -> None:
        import jsonschema

        name = payload["schema"].removeprefix("goldenl.")
        if name not in self._schemas:
            self._schemas[name] = json.loads((PACKAGE / "schemas" / f"{name}.json").read_text())
        jsonschema.validate(payload, self._schemas[name])


def run_items(workload, ctx: Context, items: list, tracer=None, probe=None) -> dict:
    """Run every item once; a failed item counts as attempted, with its time.

    With a tracer, spans cover only each item's timed run: the check and the
    counter hooks run after the item's time is taken, with the tracer idle.
    """
    latencies, tokens, failed = [], [], 0
    clock = time.perf_counter
    for index, item in enumerate(items):
        if probe is not None:
            probe.before_item()
        if tracer is not None:
            tracer.item, tracer.active = index, True
        start = clock()
        try:
            out, error = workload.run(ctx, item), None
        except Exception as exc:  # an item that raises is a failed item, not a crash
            out, error = None, exc
        latencies.append(clock() - start)
        if tracer is not None:
            tracer.active = False
            tracer.drain()
        if error is not None:
            tokens.append(f"error:{type(error).__name__}")
            failed += 1
            continue
        try:
            ok, token = workload.check(ctx, item, out)
        except Exception as exc:
            ok, token = False, f"check-error:{type(exc).__name__}"
        tokens.append(token)
        failed += not ok
    return {"latencies": latencies, "tokens": tokens, "failed": failed}


def end_to_end(result: dict, factors: list[float] | None = None) -> dict:
    lat = result["latencies"] if factors is None else [x * f for x, f in zip(result["latencies"], factors)]
    return {
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": 1000 * statistics.median(lat),
        "item_p90_ms": 1000 * percentile(lat, 90),
    }


def cli_probes(reps: int = 5) -> dict:
    """Interpreter start, cold import of goldenl.cli, and warm in-process cli.main per subcommand."""
    from goldenl import cli

    from workloads import CLI_POOL

    def cold(code: str) -> float:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True)
            times.append(time.perf_counter() - start)
        return 1000 * statistics.median(times)

    interpreter = cold("pass")
    metrics = {"cli.interpreter_ms": interpreter, "cli.import_ms": cold("import goldenl.cli") - interpreter}
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        for argv, _ in CLI_POOL:
            name = f"cli.main_ms.{argv[0]}"
            if name in metrics:
                continue
            argv = [a.replace("{out}", str(scratch / "probe.svg")) for a in argv]
            times = []
            for _ in range(reps + 1):
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    code = cli.main(argv)
                    times.append(time.perf_counter() - start)
                if code != 0:
                    raise SystemExit(f"perfbench: cli.main({argv}) returned {code}")
            metrics[name] = 1000 * statistics.median(times[1:])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return metrics


def per_layer(agg: dict, counters, untraced_ips: float, traced_ips: float) -> dict:
    def row(name: str) -> dict:
        return agg.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    trace_busy = row("flow.trace_direction")["busy_s"]
    metrics = {
        "flow.segments": counters.segments,
        "flow.segments_per_s": counters.segments / trace_busy if trace_busy else 0.0,
        "flow.cone_hits": counters.cone_hits,
        "flow.closed": counters.closed,
        "flow.scale_bits_max": counters.scale_bits_max,
        "flow.oracle_checks.self_s": row("flow.oracle_report_direction")["self_s"],
        "words.vector_bits_max": counters.vector_bits_max,
        "render.billiard_closed_ratio": (
            counters.billiards_closed / counters.billiards if counters.billiards else 0.0
        ),
        "trace_overhead_frac": 1.0 - traced_ips / untraced_ips,
    }
    for name in PER_LAYER:  # "<layer>.calls" and "<layer>.busy_s" come straight from the spans
        layer, _, kind = name.rpartition(".")
        if kind in ("calls", "busy_s"):
            metrics[name] = row(layer)[kind]
    return metrics


def trace_run(workload, items: list, scratch: Path, label: str) -> dict:
    import tracing

    spans_file = scratch / "child-spans.jsonl"
    plain_probe, traced_probe = SpeedProbe(*workload.speed), SpeedProbe(*workload.speed)
    plain = run_items(workload, Context(scratch), items, probe=plain_probe)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_items(workload, Context(scratch, spans_file), items, tracer, traced_probe)
    finally:
        tracer.uninstall()
    spans = [list(s) for s in tracer.spans]
    parts = [tracing.aggregate(tracer.spans)]
    if spans_file.exists():  # cli-mix: one line of spans per traced child, in item order
        for index, line in enumerate(spans_file.read_text().splitlines()):
            child = json.loads(line)
            tracer.counters.merge(child["counters"])
            child_spans = [(name, start, end, parent, index) for name, start, end, parent, _ in child["spans"]]
            parts.append(tracing.aggregate(child_spans))
            spans += [list(s) for s in child_spans]
    (OUT_DIR / f"spans-{label}.json").write_text(json.dumps({"items": items, "spans": spans}))
    metrics = per_layer(
        tracing.merge_aggregates(parts), tracer.counters,
        end_to_end(plain, plain_probe.factors())["items_per_s"],
        end_to_end(traced, traced_probe.factors())["items_per_s"],
    )
    metrics.update(cli_probes())
    return {
        "metrics": metrics,
        "attempted": len(items) * 2,
        "failed": plain["failed"] + traced["failed"],
        "spans": len(spans),
        "inputs_sha256": digest(items),
        "results_sha256": digest(traced["tokens"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    goldenl = import_goldenl()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        ctx = Context(scratch)
        if args.workload == "cli-mix":
            import goldenl.cli  # noqa: F401  (part of this workload's set-up)
        warm = run_items(workload, ctx, [workload.warmup])
        if warm["failed"]:
            raise SystemExit(f"perfbench: warm-up item failed: {warm['tokens']}")
        if args.mode == "setup":
            print("ready", flush=True)
            return 0
        rounds = workload.rounds(args.seconds)
        if args.mode == "trace":
            rounds = max(1, rounds // 2)
        items = workload.make_items(random.Random(f"{args.workload}:{args.seed}"), rounds)
        if args.mode == "trace":
            out = trace_run(workload, items, scratch, f"{args.workload}-seed{args.seed}")
        else:
            probe = SpeedProbe(*workload.speed)
            result = run_items(workload, ctx, items, probe=probe)
            factors = probe.factors()
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" else resource.RUSAGE_SELF
            out = {
                "metrics": {
                    **end_to_end(result, factors),
                    "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
                },
                "unscaled": end_to_end(result),
                "speed_factor": statistics.fmean(factors),
                "attempted": len(items),
                "failed": result["failed"],
                "inputs_sha256": digest(items),
                "results_sha256": digest(result["tokens"]),
            }
        out["goldenl_file"] = goldenl.__file__
        print(json.dumps(out), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
