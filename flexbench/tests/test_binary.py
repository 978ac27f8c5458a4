"""Tests of the flexbench binary on small documents.

Builds the benchmark like run.py does (the first run compiles the engine),
then checks the op streams and the traced run:

    python3 -m unittest discover -s flexbench/tests
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

WORKLOADS = ["paper_1mb", "fulltext_10mb", "packed_sessions", "paper_10mb_par"]
SCALE = "0.05"  # 1 MB -> ~50 KB documents: seconds per traced run, not minutes.
TIME_UNITS = {"ms", "1/s", "x"}


def setUpModule():
    global BINARY
    BINARY = run.build()


def flexbench(*args):
    proc = subprocess.run(
        [str(BINARY), *args, "--work-dir", str(run.build_dir() / "flexbench-test")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
        timeout=300)
    return proc.stdout


def traced(workload, seed=3):
    out = flexbench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", "1", "--scale", SCALE)
    return json.loads(out.strip().splitlines()[-1])


def layer_units():
    return run.metric_units()[1]


class OpStreamTest(unittest.TestCase):
    def dump(self, workload, seed):
        return flexbench("--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", "0", "--dump-ops", "60")

    def test_same_seed_gives_the_same_stream(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.dump(workload, 7)
                self.assertEqual(first, self.dump(workload, 7))
                self.assertEqual(len(first.splitlines()), 60)
                self.assertNotEqual(first, self.dump(workload, 8))

    def test_adhoc_streams_rarely_repeat(self):
        ops = self.dump("fulltext_10mb", 7).splitlines()
        self.assertGreater(len(set(ops)), 55)


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {w: traced(w) for w in WORKLOADS}

    def test_every_per_layer_metric_is_reported(self):
        units = layer_units()
        for workload, raw in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(set(raw["metrics"]), set(units))
                self.assertEqual(raw["failed"], 0)
                ratio = raw["metrics"]["layers.unattributed_ratio"]
                self.assertTrue(math.isfinite(ratio))
                self.assertLess(abs(ratio), 1.0)

    def test_counts_repeat_exactly(self):
        units = layer_units()
        for workload in ("paper_1mb", "fulltext_10mb", "packed_sessions"):
            with self.subTest(workload=workload):
                again = traced(workload)["metrics"]
                for name, unit in units.items():
                    if unit in TIME_UNITS or name.startswith("host.") \
                            or name == "layers.unattributed_ratio":
                        continue
                    self.assertEqual(again[name], self.runs[workload]["metrics"][name],
                                     msg=name)

    def test_layers_apply_where_they_should(self):
        m = {w: raw["metrics"] for w, raw in self.runs.items()}
        for workload in ("paper_1mb", "paper_10mb_par"):
            self.assertEqual(m[workload]["ir.evaluate_calls"], 0)
            self.assertEqual(m[workload]["ir.evaluate_ms"], 0)
        for workload in ("paper_1mb", "fulltext_10mb", "paper_10mb_par"):
            self.assertEqual(m[workload]["storage.open_ms"], 0)
            self.assertEqual(m[workload]["storage.doc_decodes"], 0)
        self.assertGreater(m["packed_sessions"]["storage.open_ms"], 0)
        self.assertGreater(m["fulltext_10mb"]["ir.evaluate_calls"], 0)
        for workload in ("paper_1mb", "fulltext_10mb", "packed_sessions"):
            self.assertEqual(m[workload]["pool.speedup"], 0)
        self.assertGreater(m["paper_10mb_par"]["pool.speedup"], 0)


if __name__ == "__main__":
    unittest.main()
