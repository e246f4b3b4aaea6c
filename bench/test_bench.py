"""Tests of the benchmark itself: doctored outputs must count as failed ops.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_engine()

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ceviangeo import projective, sampling  # noqa: E402


class Doctored:
    """A workload whose op output is passed through `doctor` before checking."""

    def __init__(self, inner, doctor):
        self.inner, self.doctor = inner, doctor
        self.round_size = inner.round_size

    def inputs(self, seed):
        return self.inner.inputs(seed)

    def op(self, item):
        return self.doctor(self.inner.op(item))

    def check(self, item, output):
        return self.inner.check(item, output)


def run_three(workload) -> run.Pass:
    return run.run_pass(workload, workload.inputs(7), 0.0, limit=3)


class SweepChecks(unittest.TestCase):
    def setUp(self):
        self.workload = workloads.make("sweep-generic", tracing.Tracer())

    def test_genuine_ops_pass(self):
        result = run_three(self.workload)
        self.assertEqual((result.attempted, result.failed), (3, 0))
        self.assertEqual(result.passed + result.skipped, 3 * 24)

    def test_doctored_report_fails(self):
        doctors = [
            lambda out: (out[0], out[1].replace(" PASS", " FAIL", 1), out[2]),
            lambda out: (out[0], out[1].replace("R3_11 SKIPPED", "R3_11 PASS"), out[2]),
            lambda out: (1, out[1], out[2]),
            lambda out: (out[0], "\n".join(out[1].splitlines()[1:]), out[2]),
        ]
        for doctor in doctors:
            result = run_three(Doctored(self.workload, doctor))
            self.assertEqual(result.failed, 3)

    def test_doctored_point_fails(self):
        genuine = sampling.sample_configurations

        def with_wrong_q(seed, n, stratum):
            cfg = genuine(seed, n, stratum)[0]
            return [dataclasses.replace(cfg, Q=cfg.Q_prime)]

        with mock.patch.object(workloads.sampling, "sample_configurations", with_wrong_q):
            result = run_three(self.workload)
        self.assertEqual(result.failed, 3)

    def test_skip_prediction(self):
        right = oracle.side_squares([(0, 0), (4, 0), (0, 3)])
        scalene = oracle.side_squares([(0, 0), (5, 0), (1, 3)])
        self.assertEqual(oracle.predicted_skips(1, 2, -3, scalene), oracle.SKIPPED_AT_INFINITY)
        self.assertEqual(oracle.predicted_skips(2, 2, -1, scalene), {"T3_11"})
        self.assertEqual(oracle.predicted_skips(1, 2, 3, scalene), {"R3_11", "C3_14"})
        # u(v + w) + 2vw = 0: the A-median runs parallel to E1F1.
        self.assertEqual(oracle.predicted_skips(-4, 3, 6, scalene),
                         {"R3_11", "C3_14", "L3_4"})
        # The right angle at A puts the centroid's cyclocevian image on A.
        self.assertEqual(oracle.predicted_skips(1, 1, 1, right),
                         {"R3_11", "C3_14", "T2_7", "F1_F2"})

    def test_metric_dependent_skip_in_a_sampled_configuration(self):
        # Seed 1194329447 samples a generic pivot whose cyclocevian image is A.
        workload = workloads.make("sweep-generic", tracing.Tracer())
        item = workloads.SweepItem(0, "generic", 1194329447)
        checked = workload.check(item, workload.op(item))
        self.assertEqual(checked.problems, [])
        self.assertEqual(checked.skipped, 4)


class DocumentChecks(unittest.TestCase):
    def setUp(self):
        self.workload = workloads.make("documents-tall", tracing.Tracer())

    def test_genuine_document_passes(self):
        result = run.run_pass(self.workload, self.workload.inputs(7), 0.0, limit=1)
        self.assertEqual((result.attempted, result.failed), (1, 0))

    def test_doctored_input_document_fails(self):
        def doctored_inputs(seed):
            for item in self.workload.inputs(seed):
                doc = json.loads(item.text)
                doc["point"]["bary"][0] += "1"
                yield item._replace(text=json.dumps(doc))

        result = run.run_pass(self.workload, doctored_inputs(7), 0.0, limit=1)
        self.assertEqual(result.failed, 1)

    def test_doctored_output_fails(self):
        def edit(key, change):
            def doctor(out):
                cfg, derived, svgs = out
                doc = json.loads(derived)
                change(doc[key])
                return cfg, json.dumps(doc, sort_keys=True, indent=2) + "\n", svgs
            return doctor

        doctors = [
            edit("Q", lambda q: q["cart"].__setitem__(0, "0")),
            edit("S", lambda s: s["translation"].__setitem__(1, "1/3")),
            edit("T_P", lambda t: t["matrix"][0].__setitem__(0, "2")),
            lambda out: (out[0], out[1], out[2][:-1] + ["<svg/>"]),
            lambda out: (out[0], out[1], out[2][:-1]),
        ]
        for doctor in doctors:
            result = run.run_pass(Doctored(self.workload, doctor),
                                  self.workload.inputs(7), 0.0, limit=1)
            self.assertEqual(result.failed, 1)


class Tracing(unittest.TestCase):
    def test_traced_op_matches_and_patches_are_undone(self):
        workload = workloads.make("sweep-degenerate", tracing.Tracer())
        item = next(workload.inputs(3))
        plain = workload.op(item)
        init = projective.HPoint.__init__
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.on, tracer.op_id = True, 0
            traced = tracer.span("bench.op", workload.op, item)
            tracer.on = False
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        self.assertIs(projective.HPoint.__init__, init)
        self.assertGreater(tracer.calls["projective.HPoint"], 0)
        self.assertGreater(tracer.inclusive_ns["theorems.T3_2"], 0)
        self.assertTrue(all(span is not None for span in tracer.spans))


class Spec(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(per_layer, run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        result = run_three(workloads.make("sweep-degenerate", tracing.Tracer()))
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         set(run.end_to_end(result, 0.1)))


if __name__ == "__main__":
    unittest.main()
