"""Self-tests of the benchmark's own logic.

    python3 perfbench/selftest.py

They need the gossipwatch sources under src/ of the same checkout, and
write only under perfbench/_out/.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import PER_LAYER, Span, layer_metrics, self_times  # noqa: E402
from worker import hash_artifacts, import_program, run_op  # noqa: E402
from workloads import Op  # noqa: E402


class DigestGate(unittest.TestCase):
    def setUp(self):
        self.dir = run.OUT / "selftest"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "op-a").mkdir(parents=True)
        (self.dir / "op-b").mkdir()
        (self.dir / "op-a" / "x.csv").write_bytes(b"a,b\n1,2\n")
        (self.dir / "op-b" / "y.bin").write_bytes(bytes(range(64)))

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_one_byte_change_is_flagged_against_its_op(self):
        reference = hash_artifacts(self.dir, ["op-a", "op-b"])
        self.assertEqual(run.digest_failures(reference, reference), set())
        blob = bytearray((self.dir / "op-b" / "y.bin").read_bytes())
        blob[17] ^= 1
        (self.dir / "op-b" / "y.bin").write_bytes(bytes(blob))
        changed = hash_artifacts(self.dir, ["op-a", "op-b"])
        self.assertEqual(run.digest_failures(changed, reference), {"op-b"})

    def test_missing_and_extra_artifacts_are_flagged(self):
        reference = hash_artifacts(self.dir, ["op-a", "op-b"])
        (self.dir / "op-a" / "x.csv").unlink()
        (self.dir / "op-b" / "z.csv").write_text("new\n")
        changed = hash_artifacts(self.dir, ["op-a", "op-b"])
        self.assertEqual(run.digest_failures(changed, reference), {"op-a", "op-b"})

    def test_gate_counts_a_mismatch_as_a_failed_op(self):
        reference = json.loads(run.DIGESTS.read_text())["build-torus"]
        bad = dict(reference)
        bad["gen-data/manifest.json"] = "0" * 64
        op = {"name": "gen-data", "seconds": 1.0, "exit_code": 0, "error": None,
              "failed": False}
        runs = [{"passes": [{"digests": reference, "ops": [op]},
                            {"digests": bad, "ops": [op]}]}]
        attempted, failed, notes = run.gate("build-torus", 0, runs)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("MISMATCH", notes[0])


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            Span(0, None, "cli.main", 0.0, 10.0, "pass", True),
            Span(1, 0, "datagen.build_dataset", 1.0, 7.0, "pass", True),
            Span(2, 1, "protocol.run_batch", 2.0, 5.0, "pass", True),
            Span(3, 1, "protocol.run_batch", 5.5, 6.0, "pass", True),
            Span(4, 2, "topology.draw_pair_sequence", 2.0, 2.25, "pass", True),
            Span(5, 0, "datagen.write_dataset_csv", 8.0, 9.0, "pass", True),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.5, 2.75, 0.5, 0.25, 1.0])
        layers = layer_metrics(spans, {"protocol.pair_updates": 7000}, 0.125)
        self.assertEqual(layers["protocol.run_batch.calls"], 2)
        self.assertEqual(layers["protocol.run_batch.self_s"], 3.25)
        self.assertEqual(layers["protocol.pair_updates_per_s"], 2000.0)
        self.assertEqual(layers["cli.main.self_s"], 3.0)
        self.assertEqual(layers["trace.overhead_s"], 0.125)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            Span(0, None, "a", 0.0, 10.0, "r"),
            Span(1, 0, "b", 1.0, 3.0, "r"),
            Span(2, 0, "b", 2.0, 4.0, "r"),
            Span(3, 0, "b", 9.0, 12.0, "r"),
        ]
        self.assertEqual(self_times(spans)[0], 6.0)


class FailedOps(unittest.TestCase):
    def test_exit_code_2_is_a_failed_op(self):
        cli = import_program()
        op = Op("train", ("train", "--set", "data=no/such/file.csv", "--set", "task=nd",
                          "--set", "kind=temporal", "--set", "K=2", "--set", "d=2",
                          "--out", str(run.OUT / "selftest-train")))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            result = run_op(cli.main, op)
        self.assertIn("dataset file not found", err.getvalue())
        self.assertEqual(result["exit_code"], 2)
        self.assertTrue(result["failed"])
        runs = [{"passes": [{"digests": {}, "ops": [result]}]}]
        self.assertEqual(run.gate("fit-eval", 1, runs)[:2], (1, 1))
        shutil.rmtree(run.OUT / "selftest-train", ignore_errors=True)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], PER_LAYER)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
