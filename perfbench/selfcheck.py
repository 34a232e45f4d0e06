"""Self-check of the tracer and the benchmark's catalogue, on small inputs.

    python3 perfbench/selfcheck.py

Runs each workload shrunk to a few records, untraced then traced, and
checks that the traced counts equal exact known values, that tracing does
not change any output, and that BENCHMARK.json names exactly the metrics
run.py and tracing.py report.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import askbd.cli  # noqa: E402
import askbd.detect  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SmallOffline(workloads.OfflineRun):
    n_questions = 2


class SmallLive(workloads.LiveReplay):
    n_questions = 2


class SmallAltgen(workloads.AltgenDeep):
    per_mix = 2


class TracerSelfCheck(unittest.TestCase):
    def setUp(self):
        scratch = HERE.parent / ".bench_work"
        scratch.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=scratch))
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def traced_pair(self, workload):
        """(state, untraced iteration, traced iteration, span stats)."""
        state = workload.setup(self.workdir, seed=5)
        self.addCleanup(state.close)
        state.start()
        tracer = tracing.Tracer()
        untraced = state.iteration()
        traced = state.iteration(tracer)
        self.assertEqual(untraced.problems, [])
        # the detection workloads also compare each iteration's reports with
        # the first one's, so an empty list means tracing changed no output
        self.assertEqual(traced.problems, [])
        return state, untraced, traced, tracing.SpanStats(tracer.spans)

    def test_wrappers_cover_every_binding_and_come_off(self):
        original = askbd.detect.detect
        tracer = tracing.Tracer()
        with tracer:
            self.assertIsNot(askbd.detect.detect, original)
            self.assertIs(askbd.cli.detect, askbd.detect.detect)
        self.assertIs(askbd.detect.detect, original)
        self.assertIs(askbd.cli.detect, original)

    def test_offline_counts(self):
        state, untraced, traced, stats = self.traced_pair(SmallOffline)
        detections = traced.counters["detections"]
        self.assertEqual(detections, len(state.records) * 4 * 2)  # M0-M3, two seeds
        self.assertEqual(stats.calls("detect.detect"), detections)
        self.assertEqual(stats.calls("backends.generate"), 2.5 * detections)
        self.assertEqual(untraced.counters, traced.counters)
        requests = {s[tracing.REQUEST] for s in stats.by_name["detect.detect"]}
        self.assertEqual(len(requests), detections)

    def test_live_requests_match_the_endpoint(self):
        _, untraced, traced, stats = self.traced_pair(SmallLive)
        detections = traced.counters["detections"]
        sent = stats.calls("backends.transport")
        self.assertEqual(stats.calls("detect.detect"), detections)
        self.assertEqual(sent, traced.counters["endpoint.requests"])
        self.assertEqual(sent, 2.5 * detections)
        self.assertEqual(stats.tags("backends.transport").count(429), 0)
        self.assertEqual(untraced.counters["endpoint.requests"], sent)

    def test_altgen_counts(self):
        _, untraced, traced, stats = self.traced_pair(SmallAltgen)
        sources = len(workloads.chains.OPERATOR_MIX) * SmallAltgen.per_mix
        self.assertEqual(stats.calls("alternatives.generate_alternatives"), sources)
        self.assertEqual(stats.calls("exprs.enumerate_permutations"), sources)
        self.assertEqual(sorted(set(stats.tags("exprs.enumerate_permutations"))),
                         list(workloads.chains.OPERATOR_MIX))
        candidates = sum(stats.tags("alternatives.generate_alternatives"))
        self.assertEqual(stats.calls("inject.inject"), 4 * candidates)
        self.assertEqual(untraced.metrics["alternatives_per_record"],
                         traced.metrics["alternatives_per_record"])
        self.assertEqual(traced.counters["label_oracle.mismatches"], 0)

    def test_benchmark_json_matches_the_code(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.UNITS)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [layer[:3] for layer in tracing.LAYERS])
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(workloads.WORKLOADS))
        names = set(tracing.layer_metrics(tracing.SpanStats([]), 1, {}))
        bench_names = {name for name in tracing.LAYER_UNITS if not name.startswith("bench.")}
        self.assertEqual(names, bench_names)


if __name__ == "__main__":
    unittest.main()
