"""The benchmark's reference reports are the bytes `critter-tune
--report-out` writes for the same options (default seed)."""

import json
import os
import subprocess
import tempfile
import unittest

import _path
from pb import gen, tune
import run


def cargo_bin(name):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(_path.ROOT, ".bench_build"))
    subprocess.run(["cargo", "build", "--release", "--offline", "--bin", name], cwd=_path.ROOT,
                   env=env, check=True, capture_output=True)
    target = env["CARGO_TARGET_DIR"]
    return os.path.join(target if os.path.isabs(target) else os.path.join(_path.ROOT, target),
                        "release", name)


class CliReference(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.worker, _ = run.build(_path.ROOT, need_serve=False)
        cls.cli = cargo_bin("critter-tune")
        cls.tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def cli_report(self, *flags):
        out = os.path.join(self.tmp.name, "cli.json")
        subprocess.run([self.cli, *flags, "--report-out", out], check=True, capture_output=True)
        with open(out, "rb") as f:
            return f.read()

    def test_sweep_references_equal_cli_bytes(self):
        for name, w in tune.WORKLOADS.items():
            with self.subTest(workload=name):
                alloc = gen.allocations(name, run.DEFAULT_SEED, w.pool)[0]
                out = os.path.join(self.tmp.name, name)
                argv = [self.worker, "sweep", *tune._options(w), "--allocs", str(alloc),
                        "--seconds", "0", "--min-units", "1", "--min-sweeps", "1",
                        "--trace", "0", "--out", out]
                doc = json.loads(subprocess.run(argv, check=True, capture_output=True).stdout)
                with open(doc["refs"][0]["path"], "rb") as f:
                    ref = f.read()
                cli = self.cli_report("--space", w.space, "--policy", w.policy,
                                      "--epsilon", str(tune.EPSILON), "--reps", str(tune.REPS),
                                      "--backend", tune.BACKEND, "--seed", str(gen.TUNER_SEED),
                                      "--allocation", str(alloc))
                self.assertEqual(ref, cli)
                self.assertTrue(doc["timed"]["sweeps"][0]["ok"])

    def test_served_spec_references_equal_cli_bytes(self):
        spec = next(j for j in gen.serve_jobs(run.DEFAULT_SEED, 40)
                    if j["observe"] and j["space"] == "capital-cholesky")
        specs = os.path.join(self.tmp.name, "specs.json")
        with open(specs, "w") as f:
            json.dump([spec], f)
        out = os.path.join(self.tmp.name, "refs")
        subprocess.run([self.worker, "refs", "--specs", specs, "--out", out], check=True,
                       capture_output=True)
        with open(os.path.join(out, "ref-0.json"), "rb") as f:
            ref = f.read()
        cli = self.cli_report("--space", spec["space"], "--policy", spec["policy"], "--smoke",
                              "--epsilon", str(spec["epsilon"]), "--reps", str(spec["reps"]),
                              "--allocation", str(spec["allocation"]), "--seed", str(spec["seed"]),
                              "--backend", spec["backend"], "--observe")
        self.assertEqual(ref, cli)


if __name__ == "__main__":
    unittest.main()
