"""The goldenl benchmark: one seeded workload, checked, with its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a goldenl checkout. With --trace 0 the last line of
stdout holds the end-to-end metrics; with --trace 1 the per-layer metrics of
a separate traced run. The line before it ("perfbench-info ...") records what
was measured: goldenl's file, the source digest and git revision, the Python
version, platform and CPU count, the sample count, error_rate, and digests of
the generated inputs and of their results. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import BARE_LAUNCH_S, bare_launch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "goldenl"
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("oracle-sweep", "long-words", "render-orbits", "cli-mix")
SETUP_LAUNCHES = 15
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

_BUSY = (
    "words.word_to_vector", "words.vector_to_word", "words.reduce_word", "classify.classify_all",
    "flow.trace_direction", "flow.validate_trajectory_structure", "flow.to_json",
    "render.transported_side_events", "render.golden_l_svg", "render.pentagon", "stats.exact_profile",
)
_CALLS = (
    "words.word_to_vector", "words.vector_to_word", "classify.classify_all",
    "flow.trace_direction", "render.transported_side_events",
)
CLI_SUBCOMMANDS = ("classify", "word2vec", "vec2word", "reduce", "simulate", "render", "stats", "surface")
PER_LAYER = {
    **{f"{name}.calls": "count" for name in _CALLS},
    **{f"{name}.busy_s": "s" for name in _BUSY},
    "words.vector_bits_max": "bits",
    "flow.segments": "count",
    "flow.segments_per_s": "1/s",
    "flow.cone_hits": "count",
    "flow.closed": "count",
    "flow.scale_bits_max": "bits",
    "flow.oracle_checks.self_s": "s",
    "render.billiard_closed_ratio": "ratio",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.main_ms.{sub}": "ms" for sub in CLI_SUBCOMMANDS},
    "trace_overhead_frac": "ratio",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_command(args, mode: str) -> list[str]:
    return [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]


def setup_launch_seconds(args) -> float:
    """Seconds from launching a fresh worker until it says it is ready to time."""
    start = time.perf_counter()
    proc = subprocess.Popen(worker_command(args, "setup"), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up run did not get ready")
    return elapsed


def bare_launch_seconds() -> float:
    start = time.perf_counter()
    bare_launch()
    return time.perf_counter() - start


def setup_seconds(args) -> tuple[float, list]:
    """Set-up time scaled to the reference machine, and the raw (bare, set-up) launch pairs.

    Each set-up launch follows a bare interpreter launch. A slowed host slows
    both alike, so their ratio holds steady where raw launch times drift.
    """
    pairs = [(bare_launch_seconds(), setup_launch_seconds(args)) for _ in range(SETUP_LAUNCHES)]
    return BARE_LAUNCH_S * statistics.median(setup / bare for bare, setup in pairs), pairs


def run_worker(args, mode: str) -> dict:
    proc = subprocess.run(
        worker_command(args, mode), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        return fail(f"no goldenl package under {ROOT / 'src'}; run from the root of a goldenl checkout")

    try:
        if args.trace:
            out = run_worker(args, "trace")
            names = PER_LAYER
        else:
            setup_s, pairs = setup_seconds(args)
            out = run_worker(args, "run")
            out["metrics"]["setup_s"] = setup_s
            out["unscaled"]["setup_s"] = statistics.median(setup for _, setup in pairs)
            out["setup_launch_pairs_s"] = pairs
            names = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))
    missing = set(names) - set(out["metrics"])
    if missing:
        return fail(f"metrics missing from the worker: {sorted(missing)}")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "goldenl_file": out["goldenl_file"],
        "source_sha256": source_digest(),
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "samples": out["attempted"],
        "error_rate": out["failed"] / out["attempted"],
        "inputs_sha256": out["inputs_sha256"],
        "results_sha256": out["results_sha256"],
        **{key: out[key] for key in ("unscaled", "speed_factor", "setup_launch_pairs_s", "spans") if key in out},
    }
    print("perfbench-info " + json.dumps(info))
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": out["metrics"][name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
