#!/usr/bin/env python3
"""The benchmark's own tests: run.py's statistics and compare marks on
synthetic values, BENCHMARK.json against the shape the benchmark contract
requires, and the steadiness of the committed baseline recording.

    python3 perfbench/test_run.py
"""

import json
import os
import re
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BASELINE = os.path.join(run.HERE, "results", "seed.json")
LOWER = {"name": "analyze_s", "unit": "s", "better": "lower", "bound": 0.1}
HIGHER = {"name": "serve_msgs_per_s", "unit": "1/s", "better": "higher",
          "bound": 0.1}


class Statistics(unittest.TestCase):
    def test_quartiles_are_statistics_quantiles(self):
        values = [1.3, 1.1, 1.25, 1.4, 1.2, 1.22, 1.31, 1.18, 1.27, 1.5]
        self.assertEqual(run.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / med)


class Marks(unittest.TestCase):
    old = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]

    def test_same_within_bound(self):
        new = [v * 1.05 for v in self.old]
        self.assertEqual(run.mark(self.old, new, LOWER), "same")

    def test_worse_beyond_bound(self):
        new = [v * 1.2 for v in self.old]
        self.assertEqual(run.mark(self.old, new, LOWER), "worse")

    def test_improved(self):
        new = [v * 0.8 for v in self.old]
        self.assertEqual(run.mark(self.old, new, LOWER), "improved")

    def test_improved_needs_nine_of_ten_pairs(self):
        new = [v * 0.95 for v in self.old]
        new[0], new[1] = 1.2, 1.2
        self.assertNotEqual(run.mark(self.old, new, LOWER), "improved")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [0.7, 1.4, 0.8, 1.3, 0.75, 1.35, 0.9, 1.2, 1.0, 1.1]
        new = [v * 1.15 for v in noisy]
        self.assertEqual(run.mark(noisy, new, LOWER), "unresolved")

    def test_direction_higher_is_better(self):
        up = [v * 1.2 for v in self.old]
        self.assertEqual(run.mark(self.old, up, HIGHER), "improved")
        self.assertEqual(run.mark(up, self.old, HIGHER), "worse")


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Spec(unittest.TestCase):
    spec = run.load_spec()

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        self.assertTrue(all(not p.startswith("/") and ".." not in p
                            for p in self.spec["paths"]))

    def test_names_units_and_bounds(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertTrue(2 <= len(names) <= 8)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        metrics = self.spec["end_to_end"] + self.spec["per_layer"]
        names += [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(NAME.match(n) for n in names))
        self.assertTrue(all(UNIT.match(m["unit"]) for m in metrics))
        self.assertTrue(all(m["better"] in ("lower", "higher")
                            for m in metrics))

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in e2e.values()))


@unittest.skipUnless(os.path.exists(BASELINE), "no committed baseline")
class Baseline(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        with open(BASELINE) as f:
            cls.rec = json.load(f)

    def test_every_workload_ten_correct_runs(self):
        for w in self.spec["workloads"]:
            runs = self.rec["runs"][w["name"]]
            self.assertEqual(len(runs), run.RUNS)
            for r in runs:
                self.assertTrue(r["result"]["correct"])
                self.assertEqual(r["result"]["failed"], 0)
                run.validate(r["result"], self.spec, False)

    def test_steady_within_bounds(self):
        for w in self.spec["workloads"]:
            for m in self.spec["end_to_end"]:
                s = run.spread(run.values_of(self.rec, w["name"], m["name"]))
                self.assertLessEqual(s, m["bound"],
                                     "%s %s" % (w["name"], m["name"]))

    def test_traced_runs_cover_every_layer(self):
        for w in self.spec["workloads"]:
            traced = self.rec["traced"][w["name"]]
            self.assertTrue(traced["correct"])
            run.validate(traced, self.spec, True)
        seq = self.rec["traced"]["fsp-seq"]["metrics"]
        self.assertGreaterEqual(seq["trace.attributed_pct"]["value"], 95.0)


if __name__ == "__main__":
    unittest.main()
