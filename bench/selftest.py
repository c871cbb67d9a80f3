"""Self-tests of the benchmark's tracing: span schema, self-time arithmetic, wrapper removal.

usage (from the root of a checkout): python3 bench/selftest.py
"""

import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import PER_LAYER, layer_metrics, op_counts  # noqa: E402
from tracing import SPAN_KEYS, TARGETS, Span, Tracer, self_time, wrapped_targets  # noqa: E402


def span(id, start, end, parent=None):
    return Span(id, parent, f"s{id}", start, end)


class SpanSchema(unittest.TestCase):
    def test_round_trip_keeps_every_key(self):
        s = Span(3, 1, "lp_core.pairwise_pnorm_all", 1.5, 2.0, op=4, error=None, attrs={"elems": 10})
        payload = json.loads(json.dumps(s.to_json()))
        self.assertEqual(tuple(payload), SPAN_KEYS)
        self.assertEqual(Span.from_json(payload).to_json(), s.to_json())

    def test_unknown_or_missing_keys_are_rejected(self):
        payload = span(0, 0.0, 1.0).to_json()
        with self.assertRaises(ValueError):
            Span.from_json({**payload, "extra": 1})
        del payload["op"]
        with self.assertRaises(ValueError):
            Span.from_json(payload)

    def test_nested_calls_record_parent_op_and_error(self):
        tracer = Tracer()
        tracer.op = 7

        def inner():
            raise KeyError("x")

        def outer():
            return tracer.call("inner", inner)

        with self.assertRaises(KeyError):
            tracer.call("outer", outer)
        outer_span, inner_span = tracer.spans
        self.assertIsNone(outer_span.parent)
        self.assertEqual(inner_span.parent, outer_span.id)
        self.assertEqual((outer_span.op, inner_span.op), (7, 7))
        self.assertEqual((outer_span.error, inner_span.error), ("KeyError", "KeyError"))
        self.assertLessEqual(outer_span.start, inner_span.start)
        self.assertLessEqual(inner_span.end, outer_span.end)

    def test_adopted_spans_hang_below_their_parent(self):
        tracer = Tracer()
        tracer.op = 2
        root = tracer.begin("cli.embed")
        tracer.end(root)
        child = [span(0, 1.0, 3.0).to_json(), span(1, 1.5, 2.0, parent=0).to_json()]
        tracer.adopt(child, root)
        _, a, b = tracer.spans
        self.assertEqual((a.id, a.parent, a.op), (1, root.id, 2))
        self.assertEqual((b.id, b.parent, b.op), (2, a.id, 2))


class SelfTime(unittest.TestCase):
    def test_parent_minus_the_union_of_its_children(self):
        parent = span(0, 0.0, 10.0)
        children = [span(1, 1.0, 3.0), span(2, 2.0, 4.0), span(3, 6.0, 7.0)]
        self.assertAlmostEqual(self_time(parent, children), 10.0 - 3.0 - 1.0)

    def test_children_are_clipped_to_the_parent(self):
        parent = span(0, 2.0, 5.0)
        self.assertAlmostEqual(self_time(parent, [span(1, 0.0, 3.0), span(2, 4.5, 9.0)]), 1.5)
        self.assertAlmostEqual(self_time(parent, []), 3.0)

    def test_layer_self_time_from_a_synthetic_tree(self):
        build = Span(0, None, "coarse_embedder.build_embedding", 0.0, 10.0, op=0)
        family = Span(1, 0, "kernel_sphere_maps.build_level_family", 1.0, 9.0, op=0)
        level = Span(2, 1, "kernel_sphere_maps.calibrate_level", 1.0, 8.0, op=0)
        factor = Span(3, 2, "kernel_sphere_maps.build_sphere_map", 2.0, 4.0, op=0)
        scan = Span(4, 2, "lp_core.pairwise_pnorm_all", 4.0, 7.0, op=0, attrs={"elems": 30})
        m = layer_metrics([build, family, level, factor, scan], ["certified"])
        self.assertAlmostEqual(m["coarse_embedder.build.self_s"], 2.0)
        self.assertAlmostEqual(m["kernel_sphere_maps.calibrate.self_s"], 2.0)
        self.assertEqual(m["lp_core.scan_calib.elems"], 30)
        self.assertAlmostEqual(m["lp_core.scan_calib.elems_per_s"], 10.0)
        self.assertEqual(m["kernel_sphere_maps.useful_ratio"], 1.0)


class Wrappers(unittest.TestCase):
    def test_uninstall_restores_every_original(self):
        import importlib

        originals = [getattr(importlib.import_module(m), a) for m, a, *_ in TARGETS]
        tracer = Tracer()
        tracer.install()
        try:
            self.assertEqual(len(wrapped_targets()), len(TARGETS))
        finally:
            tracer.uninstall()
        self.assertEqual(wrapped_targets(), [])
        restored = [getattr(importlib.import_module(m), a) for m, a, *_ in TARGETS]
        for (module, attr, *_), before, after in zip(TARGETS, originals, restored):
            self.assertIs(after, before, f"{module}.{attr}")

    def test_traced_build_reaches_every_build_layer(self):
        from lpembed import coarse_embedder, distortion_report, metric_spaces

        space = metric_spaces.generate("hypercube", 3)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = 0
            embedding = coarse_embedder.build_embedding(space, p=1.5)
            self.assertEqual(distortion_report.verify_bounds(embedding), [])
        finally:
            tracer.uninstall()
        names = {s.name for s in tracer.spans}
        for name in (
            "coarse_embedder.build_embedding",
            "metric_spaces.validate",
            "kernel_sphere_maps.calibrate_level",
            "kernel_sphere_maps.build_sphere_map",
            "mazur.mazur_map_rows",
            "lp_core.pairwise_pnorm_all",
            "distortion_report.verify_bounds",
            "lp_core.pairwise_power_sums_all",
        ):
            self.assertIn(name, names)
        counts = op_counts(tracer.spans)[0]
        self.assertEqual(counts["calibrate_calls"], embedding.level_count)
        self.assertEqual(counts["pair_scans"], 1)
        self.assertEqual(counts["scan_report_elems"], 8 * 7 // 2 * embedding.image_matrix.shape[1])
        # after uninstall the original code runs and records nothing
        recorded = len(tracer.spans)
        coarse_embedder.build_embedding(space, p=1.5)
        self.assertEqual(len(tracer.spans), recorded)


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_code(self):
        import run

        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]], list(PER_LAYER))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], list(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
