"""Self-test of the benchmark at tiny sizes (under two minutes on two cores).

    python3 perfbench/selftest.py

Runs every workload through run.py with --seconds 1, traced and untraced, and
checks that each metric named in BENCHMARK.json comes out with its unit; that
a wrong verdict from classify_all shows as error_rate > 0 on oracle-sweep;
that trace wrappers reach every binding; that exact counters repeat; and that
the benchmark refuses to run where there is no goldenl to measure.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracing
import worker

ROOT = run.ROOT
EXACT_COUNTERS = ("flow.segments", "flow.cone_hits", "flow.closed", "words.vector_bits_max", "flow.scale_bits_max")


def setUpModule():
    worker.OUT_DIR.mkdir(exist_ok=True)


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    info_prefix = "perfbench-info "
    assert lines[-2].startswith(info_prefix), proc.stdout
    return json.loads(lines[-2][len(info_prefix):]), json.loads(lines[-1])


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_workloads_match_the_code(self):
        worker.import_goldenl()
        import workloads

        self.assertEqual(set(run.WORKLOAD_NAMES), set(workloads.WORKLOADS))


class EveryMetric(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> dict:
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        info, result = result_of(proc)
        names = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)
        self.assertTrue(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(info["error_rate"], 0.0)
        self.assertEqual(Path(info["goldenl_file"]).resolve().parent, run.PACKAGE.resolve())
        if not trace:
            self.assertGreaterEqual(result["attempted"], 100, "a p90 needs 100 samples")
            self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
        return result["metrics"]

    def test_all_workloads(self):
        for workload in run.WORKLOAD_NAMES:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_exact_counters_repeat(self):
        first = self.check_run("render-orbits", 1)
        second = self.check_run("render-orbits", 1)
        for name in EXACT_COUNTERS:
            self.assertEqual(first[name]["value"], second[name]["value"], name)
        self.assertGreater(first["flow.segments"]["value"], 0)


class InProcess(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.goldenl = worker.import_goldenl()
        import workloads

        cls.workloads = workloads

    def test_wrong_verdict_drives_error_rate(self):
        goldenl = self.goldenl
        horizontal = dict(goldenl.HORIZONTAL_VERDICTS)

        def wrong_classify_all(word):
            return goldenl.ClassificationReport(word=tuple(word), tau=None, verdicts=dict(horizontal))

        workload = self.workloads.WORKLOADS["oracle-sweep"]
        items = workload.make_items(random.Random(1), 1)[:40]
        undo = tracing.replace_everywhere(goldenl.classify_all, wrong_classify_all)
        self.assertTrue(undo)
        try:
            with tempfile.TemporaryDirectory(dir=worker.OUT_DIR) as scratch:
                result = worker.run_items(workload, worker.Context(Path(scratch)), items)
        finally:
            tracing.restore(undo)
        self.assertGreater(result["failed"] / len(items), 0)
        self.assertIs(sys.modules["goldenl.classify"].classify_all, goldenl.classify_all)

    def test_wrappers_reach_every_binding(self):
        goldenl = self.goldenl
        original = goldenl.words.word_to_vector
        tracer = tracing.Tracer(active=True)
        tracer.install()
        try:
            self.assertIs(goldenl.flow.word_to_vector.__wrapped__, original)
            self.assertIs(goldenl.render.word_to_vector.__wrapped__, original)
            goldenl.trace(4, (2, 1))
            tracer.active = False
            goldenl.trace(4, (2, 1))
        finally:
            tracer.uninstall()
        self.assertIs(goldenl.flow.word_to_vector, original)
        names = [span[0] for span in tracer.spans]
        self.assertEqual(names, ["flow.trace", "words.word_to_vector", "flow.trace_direction"])
        parents = [span[3] for span in tracer.spans]
        self.assertEqual(parents, [None, 0, 0])
        agg = tracing.aggregate(tracer.spans)
        self.assertLessEqual(agg["flow.trace"]["self_s"], agg["flow.trace"]["busy_s"])
        self.assertEqual(tracer.counters.segments, 0, "hooks wait for drain, outside every span")
        tracer.drain()
        self.assertEqual(tracer.counters.segments, 8)


class Refusal(unittest.TestCase):
    def test_refuses_without_a_goldenl_checkout(self):
        with tempfile.TemporaryDirectory(dir=worker.OUT_DIR) as scratch:
            bare = Path(scratch)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("oracle-sweep", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
