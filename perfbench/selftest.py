"""Self-test of the benchmark at a tiny scale.

    python3 -m unittest perfbench.selftest

Checks that a run emits every metric ``BENCHMARK.json`` names, that the
traced run reproduces the untraced outputs and marks missing names as
absent, and that every output check fails on a deliberately corrupted
output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import unittest

import numpy as np

from perfbench import checks, metrics
from perfbench.phases import balanced_median
from perfbench.run import ROOT, STATE_DIR, compare_outputs, run
from perfbench.workloads import WORKLOADS, Workload, generate, import_package

TINY = Workload(
    name="tiny",
    why="self-test scale",
    synth=dict(num_users=60, num_items=40, num_groups=30, num_latent_topics=3),
    restore=False,
)
SEED = 3
SECONDS = 0.5


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.hg = import_package()
        cls.affinity = os.sched_getaffinity(0)
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cls.work = {}
        for workload in (TINY, dataclasses.replace(TINY, name="tiny-restore", restore=True)):
            path = STATE_DIR / "selftest" / f"{workload.name}-p{os.getpid()}"
            cls.work[workload.name] = (workload, path, generate(workload, SEED, path))

    @classmethod
    def tearDownClass(cls):
        for _, path, _ in cls.work.values():
            shutil.rmtree(path, ignore_errors=True)

    def _run(self, name: str, trace: bool) -> dict:
        workload, path, inputs = self.work[name]
        return run(workload, SEED, SECONDS, trace, path, inputs, self.hg)

    # -- the contract -------------------------------------------------------

    def test_spec_matches_the_code(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.spec["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]],
                         list(metrics.PER_LAYER))

    def test_untraced_run_emits_every_end_to_end_metric(self):
        for name in self.work:
            with self.subTest(workload=name):
                outcome = self._run(name, trace=False)
                result = outcome["result"]
                self.assertEqual(outcome["problems"], [])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), [m["name"] for m in self.spec["end_to_end"]])
                phases = outcome["passes"][0]["phases"]
                for phase in ("user", "group"):
                    self.assertEqual(len(phases[phase].setup_seconds), len(phases[phase].seconds))
                for phase in phases.values():
                    self.assertEqual(len(phase.cpus), len(phase.seconds))
                self.assertEqual(os.sched_getaffinity(0), self.affinity)
                for metric in result["metrics"].values():
                    self.assertTrue(math.isfinite(metric["value"]) and metric["value"] > 0, metric)

    def test_traced_run_emits_every_per_layer_metric(self):
        outcome = self._run("tiny", trace=True)
        result = outcome["result"]
        self.assertEqual(outcome["problems"], [])
        self.assertTrue(result["correct"])
        self.assertEqual(outcome["absent"], [])
        self.assertEqual(list(result["metrics"]), [m["name"] for m in self.spec["per_layer"]])
        self.assertGreater(result["metrics"]["graph.sample_neighbors_calls.group_batch"]["value"], 0)
        self.assertGreater(result["metrics"]["training.batches.group"]["value"], 0)
        for layer in ("data", "graph", "model", "numeric", "training", "evaluation"):
            self.assertEqual(result["metrics"][f"{layer}.failures"]["value"], 0.0)

    def test_missing_name_is_reported_absent(self):
        graph = self.hg.graph
        original = graph.sample_neighbors
        del graph.sample_neighbors  # model still holds its own binding
        try:
            outcome = self._run("tiny", trace=True)
        finally:
            graph.sample_neighbors = original
        self.assertTrue(outcome["result"]["correct"])
        self.assertTrue(any("graph.sample_neighbors" in a for a in outcome["absent"]))
        self.assertEqual(outcome["result"]["metrics"]["graph.sample_neighbors_s.group_batch"]["value"], 0.0)

    def test_raising_call_is_counted_per_layer(self):
        from perfbench.tracer import Tracer

        def boom():
            raise RuntimeError("corrupted")

        tracer = Tracer()
        outer = tracer._wrap("training.outer", lambda: tracer._wrap("graph.inner", boom)())
        with self.assertRaises(RuntimeError):
            outer()
        failures = tracer.failures()
        self.assertEqual((failures["graph"], failures["training"], failures["model"]), (1, 1, 0))

    def test_balanced_median_weighs_every_cpu_alike(self):
        # three units on CPU 0 (median 2), one on CPU 1
        self.assertEqual(balanced_median([1.0, 2.0, 3.0, 10.0], [0, 0, 0, 1]), 6.0)
        self.assertEqual(balanced_median([4.0, 5.0], [0, 0]), 4.5)

    def test_wrong_ranking_fails_the_run(self):
        evaluation = self.hg.evaluation
        original = evaluation.rank_items
        evaluation.rank_items = lambda scores: np.argsort(np.asarray(scores), kind="stable")
        try:
            outcome = self._run("tiny", trace=False)
        finally:
            evaluation.rank_items = original
        self.assertFalse(outcome["result"]["correct"])

    # -- each check on a corrupted output -----------------------------------

    def test_loss_checks(self):
        self.assertEqual(checks.losses("user", 0, [0.7, 0.6], 2), [])
        self.assertTrue(checks.losses("user", 0, [0.7, math.nan], 2))
        self.assertTrue(checks.losses("user", 0, [0.7, None], 2))
        self.assertTrue(checks.losses("user", 0, [0.7], 2))

    def test_params_check(self):
        params = self.hg.initialize_params(self.hg.ModelConfig(d=4), 5, 6, np.random.default_rng(0))
        self.assertEqual(checks.params_finite(params), [])
        params.item_embeddings.values[2, 1] = math.inf
        self.assertTrue(checks.params_finite(params))

    def test_eval_checks(self):
        cases = [(0, 1), (1, 2), (2, 3)]
        detail = [(0, 1, 1), (1, 2, 3), (2, 3, 7)]
        hr5, ndcg5 = 2 / 3, (1.0 + 1 / math.log2(4)) / 3
        report = {"num_test_cases": 3, "metrics": {"5": {"hr": hr5, "ndcg": ndcg5}}}
        self.assertEqual(checks.eval_report(report, detail, cases, 10, (5,)), [])
        bad = json.loads(json.dumps(report))
        bad["metrics"]["5"]["hr"] = 1.0
        self.assertTrue(checks.eval_report(bad, detail, cases, 10, (5,)))
        self.assertTrue(checks.eval_report(report, [(0, 1, 1), (1, 2, 3), (2, 3, 11)], cases, 10, (5,)))
        self.assertTrue(checks.eval_report(report, list(reversed(detail)), cases, 10, (5,)))
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        self.assertEqual(checks.rank_recount(0, 2, 3, scores), [])
        self.assertTrue(checks.rank_recount(0, 2, 2, scores))
        self.assertEqual(checks.same("report", "{}", "{}"), [])
        self.assertTrue(checks.same("report", "{}", "{ }"))

    def test_recommend_checks(self):
        scores = np.array([0.1, 0.9, 0.5, 0.9, 0.3, 0.7, 0.2, 0.8, 0.0, 0.4, 0.6, 0.05])
        good = [1, 3, 7, 5, 10, 2, 9, 4, 6, 0]
        self.assertEqual(checks.recommendation(good, scores, 10), [])
        for bad in (good[:9], good[:9] + [1], good[:9] + [12], [3, 1] + good[2:],
                    [1, 3, 5, 7] + good[4:], good[:9] + [8]):
            with self.subTest(answer=bad):
                self.assertTrue(checks.recommendation(bad, scores, 10))

    def test_traced_outputs_must_match(self):
        def fake(outputs):
            return {"phases": {"eval": type("P", (), {"outputs": outputs})()}}

        self.assertEqual(compare_outputs(fake(["a", "b"]), fake(["a"])), [])
        self.assertTrue(compare_outputs(fake(["a", "b"]), fake(["a", "c"])))
        self.assertTrue(compare_outputs(fake(["a"]), fake([])))


if __name__ == "__main__":
    unittest.main()
