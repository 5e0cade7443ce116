import json
import os
import unittest

import _path
from pb import catalog
import run


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(_path.ROOT, "BENCHMARK.json")) as f:
            self.doc = json.load(f)

    def test_metrics_match_the_catalog(self):
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"]) for m in self.doc["end_to_end"]],
                         catalog.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.doc["per_layer"]],
                         catalog.PER_LAYER)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.doc["workloads"]], run.WORKLOADS)

    def test_contract_limits(self):
        self.assertEqual(self.doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.doc["paths"], ["perfbench"])
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in self.doc["end_to_end"]))
        self.assertEqual(max(m["bound"] for m in self.doc["end_to_end"]),
                         next(m["bound"] for m in self.doc["end_to_end"] if m["name"] == "setup_s"))
        self.assertTrue(all(len(w["why"]) <= 200 for w in self.doc["workloads"]))
        self.assertTrue(set(catalog.EXACT) <= {m[0] for m in catalog.PER_LAYER})


if __name__ == "__main__":
    unittest.main()
