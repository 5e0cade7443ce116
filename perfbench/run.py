#!/usr/bin/env python3
"""The repository benchmark. Run from the repository root:

    python3 perfbench/run.py --workload tune-slate-chol-16r --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py compare RESULTS_DIR_A RESULTS_DIR_B
    python3 perfbench/run.py spread --workload serve-mixed --seeds 1 2 3 4 5

It builds the program from source, runs one workload, checks every output
and prints each metric by name with its unit. The last line of stdout is
one JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``. See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb import catalog, host, serve, stats, tune  # noqa: E402

WORKLOADS = [*tune.WORKLOADS, serve.NAME]
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
STATE_DIR = ".perfbench"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, need_serve):
    """Build the worker package and, for the served mix, the daemon."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    steps = [["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"]]
    if need_serve:
        steps.append(["cargo", "build", "--release", "--offline", "-p", "critter-serve", "--bin", "critter-serve"])
    for argv in steps:
        done = subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(argv)}")
    release = os.path.join(target if os.path.isabs(target) else os.path.join(root, target), "release")
    return os.path.join(release, "perfbench-worker"), os.path.join(release, "critter-serve")


class Context:
    """What the workloads share: binaries, a scratch directory inside the
    checkout, the span log, and notes for the human-readable output."""

    def __init__(self, root, worker, serve_bin, trace):
        self.root, self.worker, self.serve, self.trace = root, worker, serve_bin, trace
        self.tmp = os.path.join(root, STATE_DIR, "tmp", str(os.getpid()))
        os.makedirs(self.tmp)
        self.spans, self.notes, self._next_span = [], [], 1 << 32
        self._t0 = time.monotonic()

    def mark(self, what):
        """Progress line on stderr, with seconds since the run began."""
        log(f"[{time.monotonic() - self._t0:7.2f} s] {what}")

    def new_span_id(self):
        self._next_span += 1
        return self._next_span

    def span(self, name, layer, start, end, parent, span_id=None):
        self.spans.append({"name": name, "layer": layer, "start": start, "end": end,
                           "id": span_id or self.new_span_id(), "parent": parent})

    def note(self, msg):
        self.notes.append(msg)

    def worker_json(self, args):
        done = subprocess.run([self.worker, *args], stdout=subprocess.PIPE, check=True, timeout=170)
        return json.loads(done.stdout)

    def cleanup(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def self_times(spans):
    """Per-layer self time: each span's duration minus what its children
    cover (children of one span never overlap: they are sequential calls
    of one client or one worker thread)."""
    child = {}
    for s in spans:
        child[s["parent"]] = child.get(s["parent"], 0.0) + (s["end"] - s["start"])
    out = {}
    for s in spans:
        own = (s["end"] - s["start"]) - child.get(s["id"], 0.0)
        out[s["layer"]] = out.get(s["layer"], 0.0) + max(own, 0.0)
    return out


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_workload(args, root):
    worker, serve_bin = build(root, args.workload == serve.NAME)
    ctx = Context(root, worker, serve_bin, args.trace == 1)
    try:
        t0 = time.monotonic()
        if args.workload == serve.NAME:
            res = serve.run(ctx, args.seed, args.seconds, ctx.trace, args.quick)
        else:
            res = tune.run(ctx, args.workload, args.seed, args.seconds, ctx.trace, args.quick)
        total = time.monotonic() - t0
    finally:
        ctx.cleanup()

    names = catalog.PER_LAYER if ctx.trace else catalog.END_TO_END
    values = res["layer"] if ctx.trace else res["e2e"]
    metrics, missing = {}, []
    for name, unit, *_ in names:
        v = values.get(name)
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            metrics[name] = {"value": float(v), "unit": unit}
        else:
            missing.append(f"{name}: {v if v is not None else 'not measured'}")
    failed = res["failed"] + (0 if args.quick else len(missing))
    correct = failed == 0

    fp = host.fingerprint(root)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{'quick  ' if args.quick else ''}run {total:.1f} s")
    print("fingerprint " + "  ".join(f"{k}={v}" for k, v in fp.items()))
    print(f"attempted {res['attempted']}  failed {res['failed']}  "
          f"error_pct {stats.error_pct(res['failed'], res['attempted']):.6g} %")
    for group, vals in (("end-to-end", res["e2e"]), ("per-layer", res["layer"])):
        if not vals:
            continue
        print(f"-- {group}")
        for name, v in vals.items():
            count = f"  (n={v.count})" if hasattr(v, "count") and not isinstance(v, Exception) else ""
            print(f"{name:34} {fmt(v):>14} {catalog.UNITS.get(name, '')}{count}")
    for name, (v, unit) in res["extra"].items():
        print(f"{name:34} {fmt(v):>14} {unit}")
    for msg in ctx.notes + missing:
        print("note: " + msg)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quick": args.quick, "fingerprint": fp,
              "correct": correct, "attempted": res["attempted"], "failed": failed,
              "metrics": metrics, "error_pct": stats.error_pct(res["failed"], res["attempted"]),
              "extra": {k: v for k, (v, _) in res["extra"].items()}}
    results = os.path.join(root, STATE_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if ctx.trace:
        with open(os.path.join(results, stem + ".spans.json"), "w") as f:
            json.dump(ctx.spans, f)
        print("-- host self time by layer (traced spans)")
        for layer, secs in sorted(self_times(ctx.spans).items()):
            print(f"{layer:34} {secs:>14.6g} s")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


def compare(dirs):
    """Median of every metric per workload in two result directories.
    Refuses when machine, toolchain or benchmark code differ."""
    sides = []
    for d in dirs:
        recs = []
        for name in sorted(os.listdir(d)):
            if name.endswith(".json") and not name.endswith(".spans.json"):
                with open(os.path.join(d, name)) as f:
                    recs.append(json.load(f))
        if not recs:
            raise SystemExit(f"perfbench: no results in {d}")
        sides.append(recs)
    prints = {tuple(r["fingerprint"][k] for k in host.COMPARABLE) for side in sides for r in side}
    if len(prints) != 1:
        for p in sorted(prints):
            log("fingerprint: " + "  ".join(f"{k}={v}" for k, v in zip(host.COMPARABLE, p)))
        raise SystemExit("perfbench: refusing to compare results with different fingerprints")
    keys = sorted({(r["workload"], r["trace"], m) for side in sides for r in side for m in r["metrics"]})
    print(f"{'workload':22} {'metric':34} {'A median':>12} {'B median':>12} {'B/A':>8}")
    for wl, tr, m in keys:
        meds = []
        for side in sides:
            vals = [r["metrics"][m]["value"] for r in side if r["workload"] == wl and r["trace"] == tr
                    and m in r["metrics"]]
            meds.append(stats.median(vals) if vals else None)
        ratio = f"{meds[1] / meds[0]:.4f}" if None not in meds and meds[0] else "-"
        print(f"{wl:22} {m:34} {fmt(meds[0]):>12} {fmt(meds[1]):>12} {ratio:>8}")
    return 0


def spread_check(argv):
    """Run one workload once per seed and print each end-to-end metric's
    interquartile spread as a share of its median, next to its bound (the
    acceptance check for a steady benchmark)."""
    p = argparse.ArgumentParser(prog="run.py spread")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=15)
    args = p.parse_args(argv)
    values = {}
    for seed in args.seeds:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        log(f"seed {seed}: correct={last['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()))
        for k, v in last["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{'metric':24} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    worst = 0
    for name, _, _, bound in catalog.END_TO_END:
        vals = values.get(name, [])
        if len(vals) < 2:
            print(f"{name:24} {'-':>12}")
            continue
        sp = stats.spread(vals)
        verdict = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "TOO NOISY")
        if name != "setup_s":
            worst = max(worst, sp / bound)
        print(f"{name:24} {stats.median(vals):>12.6g} {sp:>8.4f} {bound:>6}  {verdict}")
    return 0 if worst <= 1 else 1


def main(argv):
    if argv[:1] == ["spread"]:
        return spread_check(argv[1:])
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare RESULTS_DIR_A RESULTS_DIR_B")
        return compare(argv[1:])
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=15, help="timed window per run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--quick", action="store_true",
                   help="one cold start, one timed sweep or job, no sample-count minimums")
    args = p.parse_args(argv)
    return run_workload(args, os.getcwd())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
