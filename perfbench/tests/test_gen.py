import collections
import json
import os
import subprocess
import sys
import unittest

import _path
from pb import gen
from pb import tune

DUMP = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); from pb import gen; "
    "print(json.dumps([gen.allocations(w, 7, 4) for w in ('tune-capital-64r', 'tune-slate-chol-16r')]"
    " + [gen.serve_jobs(7, 60)], sort_keys=True))"
)


class PureFunctionOfSeed(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in tune.WORKLOADS:
            self.assertEqual(gen.allocations(name, 3, 4), gen.allocations(name, 3, 4))
        self.assertEqual(gen.serve_jobs(3, 100), gen.serve_jobs(3, 100))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(gen.allocations("tune-slate-chol-16r", 1, 4),
                            gen.allocations("tune-slate-chol-16r", 2, 4))
        self.assertNotEqual(gen.serve_jobs(1, 40), gen.serve_jobs(2, 40))

    def test_prefixes_agree(self):
        self.assertEqual(gen.serve_jobs(5, 200)[:60], gen.serve_jobs(5, 60))

    def test_independent_of_process_and_hash_seed(self):
        outs = set()
        for hash_seed in ("0", "1", "random"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            done = subprocess.run([sys.executable, "-c", DUMP, _path.BENCH], env=env,
                                  capture_output=True, text=True, check=True)
            outs.add(done.stdout)
        self.assertEqual(len(outs), 1)
        here = json.dumps([gen.allocations(w, 7, 4) for w in ("tune-capital-64r", "tune-slate-chol-16r")]
                          + [gen.serve_jobs(7, 60)], sort_keys=True)
        self.assertEqual(outs.pop().strip(), here)


class ServedMix(unittest.TestCase):
    def test_every_block_has_the_same_mix(self):
        jobs = gen.serve_jobs(11, gen.BLOCK * 6)
        for b in range(6):
            block = jobs[b * gen.BLOCK:(b + 1) * gen.BLOCK]
            kinds = collections.Counter(
                "store" if j["store"] else "bench" if not j["smoke"] else "observe" if j["observe"]
                else "plain" for j in block)
            self.assertEqual(kinds, {"plain": 11, "observe": 4, "store": 4, "bench": 1})
            smoke = [(j["space"], j["policy"]) for j in block if j["smoke"] and not j["store"]]
            self.assertEqual(sorted(smoke), sorted(gen.COMBOS))

    def test_specs_pin_every_option_and_stay_valid(self):
        for j in gen.serve_jobs(4, 100):
            self.assertEqual((j["epsilon"], j["reps"], j["backend"], j["priority"]),
                             (0.25, 1, "threads", 0))
            if j["store"] and j["space"] != "capital-cholesky":
                self.assertTrue(j["persist_models"])
            self.assertFalse(j["store"] and j["observe"])


if __name__ == "__main__":
    unittest.main()
