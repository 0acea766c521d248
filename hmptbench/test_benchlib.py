"""Unit tests of the benchmark's own logic.

    python3 -m unittest discover -s hmptbench
"""

import os
import tempfile
import unittest

import benchlib


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in benchlib.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(benchlib.generate(workload, 7),
                                 benchlib.generate(workload, 7))

    def test_other_seed_gives_other_inputs(self):
        for workload in benchlib.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(benchlib.generate(workload, 7),
                                    benchlib.generate(workload, 8))

    def test_written_files_match_generated_bytes(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            benchlib.write_inputs("tune-k3", 3, a)
            benchlib.write_inputs("tune-k3", 3, b)
            for name in sorted(os.listdir(a)):
                with open(os.path.join(a, name), "rb") as fa, \
                        open(os.path.join(b, name), "rb") as fb:
                    self.assertEqual(fa.read(), fb.read())

    def test_campaign_size_is_fixed(self):
        lines = benchlib.generate("campaign-packed", 11)[
            "matrix.campaign"].splitlines()
        names = [l for l in lines if l.startswith("workload ")]
        self.assertEqual(len(names), 84)
        self.assertEqual(len(set(names)), 84)
        self.assertEqual(sum(l.startswith("budget-gb ") for l in lines), 3)


class TailTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        for n in range(20, 5000, 7):
            p = benchlib.tail_percentile(n)
            self.assertGreaterEqual(n * (100 - p) / 100, 10 - 1e-9, n)
            higher = [q for q in benchlib.TAIL_LADDER if q > p]
            if higher:
                self.assertLess(n * (100 - higher[0]) / 100, 10, n)

    def test_known_sizes(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50)
        self.assertEqual(benchlib.tail_percentile(200), 95)
        self.assertEqual(benchlib.tail_percentile(612), 97.5)
        self.assertEqual(benchlib.tail_percentile(1000), 99)

    def test_windowed_takes_median_of_windows(self):
        samples = list(range(1, 201)) * 3
        result = benchlib.windowed(samples, 200)
        self.assertEqual(result["windows"], 3)
        self.assertEqual(result["percentile"], 95)
        self.assertAlmostEqual(result["p50"], 100.5)
        self.assertAlmostEqual(result["tail"], benchlib.percentile(
            range(1, 201), 95))

    def test_too_few_samples_for_a_tail(self):
        with self.assertRaises(ValueError):
            benchlib.windowed([1.0] * 12, 200)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "store.save_p50_us", "campaign-packed",
                     "9lives", "a" * 64):
            self.assertTrue(benchlib.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_x", ".x", "has space", "slash/no", "a" * 65,
                     "p99%", "name\n"):
            self.assertFalse(benchlib.valid_name(name), name)

    def test_latency_names(self):
        self.assertEqual(benchlib.latency_names("store.save_us"),
                         ("store.save_p50_us", "store.save_tail_us"))


class GateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, data):
        path = os.path.join(self.dir.name, name)
        with open(path, "wb") as f:
            f.write(data)
        return path

    def test_identical_artefacts_pass(self):
        a = self.write("a.csv", b"x,y\n1,2\n")
        b = self.write("b.csv", b"x,y\n1,2\n")
        self.assertEqual(benchlib.gate([{"name": "runs", "a": a, "b": b}],
                                       []), [])

    def test_differing_artefact_fails(self):
        a = self.write("a.csv", b"x,y\n1,2\n")
        b = self.write("b.csv", b"x,y\n1,3\n")
        failures = benchlib.gate([{"name": "runs", "a": a, "b": b}], [])
        self.assertEqual(len(failures), 1)
        self.assertIn("runs", failures[0])

    def test_missing_artefact_fails(self):
        a = self.write("a.csv", b"x")
        failures = benchlib.gate(
            [{"name": "runs", "a": a, "b": a + ".missing"}], [])
        self.assertEqual(len(failures), 1)

    def test_failed_check_fails(self):
        failures = benchlib.gate([], [
            {"name": "hit", "ok": True, "detail": ""},
            {"name": "resume", "ok": False, "detail": "3 of 4"}])
        self.assertEqual(failures, ["resume: 3 of 4"])


class TraceTest(unittest.TestCase):
    TRACE = {"traceEvents": [
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1},
        {"ph": "B", "cat": "campaign", "name": "scenario", "ts": 0,
         "pid": 1, "tid": 1},
        {"ph": "B", "cat": "campaign", "name": "attempt", "ts": 10,
         "pid": 1, "tid": 1},
        {"ph": "B", "cat": "session", "name": "run", "ts": 20,
         "pid": 1, "tid": 1},
        {"ph": "E", "cat": "session", "name": "run", "ts": 50,
         "pid": 1, "tid": 1},
        {"ph": "E", "cat": "campaign", "name": "attempt", "ts": 90,
         "pid": 1, "tid": 1},
        {"ph": "E", "cat": "campaign", "name": "scenario", "ts": 100,
         "pid": 1, "tid": 1},
    ]}

    def test_self_time_subtracts_children(self):
        table = benchlib.self_times(self.TRACE)
        for key, (count, total, own) in (
                (("campaign", "scenario"), (1, 0.1, 0.02)),
                (("campaign", "attempt"), (1, 0.08, 0.05)),
                (("session", "run"), (1, 0.03, 0.03))):
            self.assertEqual(table[key][0], count)
            self.assertAlmostEqual(table[key][1], total)
            self.assertAlmostEqual(table[key][2], own)

    def test_unattributed_share(self):
        table = benchlib.self_times(self.TRACE)
        self.assertAlmostEqual(benchlib.unattributed_share(table), 0.7)


if __name__ == "__main__":
    unittest.main()
