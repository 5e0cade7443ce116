"""Quick mode end to end: every workload briefly, through the same command
the benchmark runs, with its output checks."""

import json
import subprocess
import sys
import unittest

import _path
from pb import catalog
import run


def quick(workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--quick"]
    done = subprocess.run(argv, cwd=_path.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


class QuickMode(unittest.TestCase):
    def check(self, workload, trace, names):
        code, last = quick(workload, trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertEqual(last["failed"], 0)
        self.assertGreaterEqual(last["attempted"], 1)
        for name, unit, *_ in names:
            if name == "tail_s":
                continue  # quick runs are too short for a tail percentile
            self.assertEqual(last["metrics"][name]["unit"], unit, name)
        return last["metrics"]

    def test_every_workload_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                m = self.check(workload, 0, catalog.END_TO_END)
                self.assertEqual(m["verified_pct"]["value"], 100.0)

    def test_traced_runs_repeat_their_exact_counts(self):
        for workload in ("tune-slate-chol-16r", "serve-mixed"):
            with self.subTest(workload=workload):
                first = self.check(workload, 1, catalog.PER_LAYER)
                second = self.check(workload, 1, catalog.PER_LAYER)
                for name in catalog.EXACT:
                    self.assertEqual(first[name], second[name], name)


if __name__ == "__main__":
    unittest.main()
