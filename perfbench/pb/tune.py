"""The two tuning-sweep workloads: in-process `critter-tune` sweeps run by
the worker, one sweep at a time, over seed-drawn allocation ids."""

import json
import os
import subprocess
import time
from dataclasses import dataclass

from . import catalog, gen, stats


@dataclass(frozen=True)
class TuneWorkload:
    space: str
    policy: str
    pool: int  # allocation ids per run; each gets one untimed reference sweep
    cold_starts: int  # fresh-process cold starts per run; setup_s is their median
    tail_q: int  # tail percentile of per-unit times reported as tail_s
    min_units: int  # timed units at least, so tail_q has ten samples beyond it
    min_sweeps: int  # timed sweeps at least, for job_p50_s
    why: str


WORKLOADS = {
    "tune-capital-64r": TuneWorkload(
        space="capital-cholesky",
        policy="conditional",
        pool=4,
        tail_q=75,
        min_units=stats.min_samples(75),
        min_sweeps=4,
        cold_starts=5,
        why="64 rank threads on few cores: rank hosting and context switches dominate host time",
    ),
    "tune-slate-chol-16r": TuneWorkload(
        space="slate-cholesky",
        policy="online",
        pool=20,
        tail_q=90,
        min_units=stats.min_samples(90),
        min_sweeps=5,
        cold_starts=15,
        why="16 ranks with real tile kernels: interception, propagation and dla dominate, hosting is light",
    ),
}

EPSILON = 0.25
REPS = 1
BACKEND = "threads"
WORKERS = 1  # the CLI path: one sweep at a time, serial reference runs


def _options(w):
    return [
        "--space", w.space, "--policy", w.policy, "--epsilon", str(EPSILON), "--reps", str(REPS),
        "--backend", BACKEND, "--workers", str(WORKERS), "--seed", str(gen.TUNER_SEED),
    ]


def cold_start(worker, w, alloc):
    """Seconds from spawning a fresh worker process to its first committed
    unit: process start, workload and machine construction, rank-pool
    spin-up and one (config, rep) unit."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [worker, "coldstart", *_options(w), "--alloc", str(alloc)], stdout=subprocess.PIPE
    )
    line = proc.stdout.readline()
    t1 = time.monotonic()
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != b"committed":
        raise RuntimeError(f"cold start of {w.space} failed")
    return t1 - t0


def run(ctx, name, seed, seconds, trace, quick):
    w = WORKLOADS[name]
    allocs = gen.allocations(name, seed, 1 if quick else w.pool)
    setups = [cold_start(ctx.worker, w, allocs[0]) for _ in range(1 if quick else w.cold_starts)]
    ctx.mark(f"{len(setups)} cold starts")
    out = os.path.join(ctx.tmp, "sweep")
    argv = [
        ctx.worker, "sweep", *_options(w),
        "--allocs", ",".join(map(str, allocs)),
        "--seconds", str(seconds),
        "--min-units", str(1 if quick else w.min_units),
        "--min-sweeps", str(1 if quick else w.min_sweeps),
        "--trace", "1" if trace else "0",
        "--out", out,
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, check=True, timeout=170)
    doc = json.loads(done.stdout)
    ctx.mark("sweeps done")
    if trace:
        with open(os.path.join(out, "worker-spans.json")) as f:
            ctx.spans += json.load(f)

    timed = doc["timed"]
    sweeps = timed["sweeps"] + (doc["observed"]["sweeps"] if trace else [])
    failed = sum(not s["ok"] for s in sweeps)
    bad = {s["alloc"] for s in sweeps if not s["ok"]}
    checked = {s["alloc"] for s in sweeps if s["ok"]}
    verified = [r for r in doc["refs"] if r["alloc"] in checked - bad]
    units = len(timed["unit_s"])
    res = {"attempted": len(sweeps), "failed": failed, "e2e": {}, "layer": {}, "extra": {}}
    e2e = res["e2e"]
    e2e["setup_s"] = stats.median(setups)
    e2e["units_per_s"] = stats.rate(units, timed["wall_s"])
    e2e["job_p50_s"] = stats.median([s["secs"] for s in timed["sweeps"]])
    e2e["tail_s"] = stats.tail(timed["unit_s"], w.tail_q)
    e2e["cpu_s"] = stats.per(timed["user_s"] + timed["sys_s"], len(timed["sweeps"]))
    e2e["peak_rss_mb"] = doc["vmhwm_kb"] / 1024
    e2e["verified_pct"] = stats.verified_pct(failed, len(sweeps))
    if verified:
        e2e["sim_speedup"] = stats.mean([r["speedup"] for r in verified])
        e2e["pred_error_pct"] = 100 * stats.mean([r["mean_error"] for r in verified])
        e2e["selection_quality_pct"] = 100 * stats.mean([r["selection_quality"] for r in verified])
    res["extra"]["tail_percentile"] = (w.tail_q, "p")
    res["extra"]["timed_units"] = (units, "count")
    res["extra"]["timed_sweeps"] = (len(timed["sweeps"]), "count")
    res["extra"]["cold_starts"] = (len(setups), "count")
    res["extra"]["warmup_s"] = (doc["warmup_s"], "s")
    res["extra"]["allocations"] = (",".join(map(str, allocs)), "ids")

    if trace:
        observed = doc["observed"]
        probes = doc["probes"]
        first = observed["first_obs"]
        layer = res["layer"]
        layer["sim.vol_csw_per_unit"] = stats.per(timed["vol_csw"], units)
        layer["sim.invol_csw_per_unit"] = stats.per(timed["invol_csw"], units)
        layer["sim.sys_s_per_unit"] = stats.per(timed["sys_s"], units)
        layer["sim.threads_peak"] = timed["threads_peak"]
        layer["sim.run_full_s"] = probes["run_full_s"]
        layer.update(catalog.exact_counts(first["metrics"], first["units"]))
        layer["machine.draw_ns"] = probes["machine_draw_ns"]
        layer["core.sel_over_full_host"] = probes["sel_over_full_host"]
        layer["dla.gflops"] = probes["dla_gflops"]
        layer["dla.flops_per_byte"] = probes["dla_flops_per_byte"]
        layer["autotune.unit_p50_s"] = stats.median(timed["unit_s"])
        layer["autotune.report_json_s"] = probes["report_json_s"]
        # The CLI path keeps no checkpoints, no store and no server.
        for zero in ["session.ckpt_bytes_per_job", "session.ckpt_files_per_job", "store.generations",
                     "store.blob_bytes", "serve.events_per_job", "serve.refused"]:
            layer[zero] = 0
        traced_rate = stats.rate(len(observed["unit_s"]), observed["wall_s"])
        layer["obs.trace_overhead_pct"] = 100 * traced_rate / e2e["units_per_s"]
        res["extra"]["dla.tile"] = (probes["dla_tile"], "n")
    return res
