"""The served-job workload: a `critter-serve` child process driven over
HTTP by a closed loop of clients, one per core."""

import http.client
import json
import os
import shutil
import subprocess
import threading
import time

from . import catalog, gen, host, stats

NAME = "serve-mixed"
WHY = "HTTP, JSON codecs, scheduler, checkpoint envelopes and store commits dominate; sim and dla are small"

# critter-serve's defaults, passed explicitly so none is inherited.
DAEMON_FLAGS = [
    "--job-workers", "2", "--http-workers", "4", "--queue-capacity", "64",
    "--tenant-max-queued", "16", "--tenant-max-running", "2", "--tenant-max-ranks", "0",
]
COLD_STARTS = 15  # the last one is the daemon the workload runs against
WARMUP_JOBS = gen.BLOCK  # untimed, but checked like every other job
MIN_JOBS = stats.min_samples(90)  # timed jobs at least, for job_p90
EXACT_PREFIX = 40  # exact counts come from observe jobs among the first 40
SIM_PREFIX = 60  # simulated metrics come from non-store jobs among the first 60
JOB_TIMEOUT_S = 120
TERMINAL = {"done", "failed", "cancelled"}


class Daemon:
    def __init__(self, ctx, tag):
        self.data = os.path.join(ctx.tmp, f"data-{tag}")
        self.store = os.path.join(ctx.tmp, f"store-{tag}")
        self.log = open(os.path.join(ctx.tmp, f"daemon-{tag}.log"), "wb")
        argv = [ctx.serve, "--addr", "127.0.0.1:0", "--data-dir", self.data, "--store", self.store]
        t0 = time.monotonic()
        self.proc = subprocess.Popen(argv + DAEMON_FLAGS, stdout=self.log, stderr=self.log)
        self.port = self._wait_ready(t0)
        self.setup_s = time.monotonic() - t0

    def _wait_ready(self, t0):
        """Spin until `<data-dir>/addr` names a port that answers
        `GET /v1/healthz` with 200."""
        port = None
        while time.monotonic() - t0 < 30:
            if self.proc.poll() is not None:
                break
            try:
                if port is None:
                    with open(os.path.join(self.data, "addr")) as f:
                        port = int(f.read().strip().rsplit(":", 1)[1])
                status, _ = request(port, "GET", "/v1/healthz")
                if status == 200:
                    return port
            except (OSError, ValueError, IndexError, http.client.HTTPException):
                pass
            time.sleep(0.0005)
        self.stop()
        raise RuntimeError("critter-serve did not become healthy")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Loop:
    """Closed loop: each client submits its next job only after the
    previous one's report (and metrics) arrived."""

    def __init__(self, ctx, port, jobs):
        self.ctx, self.port, self.jobs = ctx, port, jobs
        self.lock = threading.Lock()
        self.next = 0
        self.records = []
        self.refused = 0

    def phase(self, clients, seconds, min_jobs, observe=False, max_jobs=None, whole_blocks=True):
        """Run jobs from the sequence until ``seconds`` passed and at
        least ``min_jobs`` were taken (or exactly ``max_jobs``); with
        ``whole_blocks``, only whole blocks, so every window has the same
        mix."""
        start, first = time.monotonic(), self.next

        def take():
            with self.lock:
                taken = self.next - first
                if max_jobs is not None:
                    more = taken < max_jobs
                else:
                    more = (taken < min_jobs or time.monotonic() - start < seconds
                            or (whole_blocks and self.next % gen.BLOCK != 0))
                if not more or self.next >= len(self.jobs):
                    return None
                self.next += 1
                return self.next - 1

        def client():
            while (idx := take()) is not None:
                spec = dict(self.jobs[idx], observe=self.jobs[idx]["observe"] or observe)
                rec = self.run_job(idx, spec)
                with self.lock:
                    self.records.append(rec)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return first, self.next, time.monotonic() - start

    def _call(self, rec, route, method, path, body=None):
        t0 = time.monotonic()
        status, data = request(self.port, method, path, body)
        t1 = time.monotonic()
        rec["routes"].setdefault(route, []).append(t1 - t0)
        if self.ctx.trace:
            self.ctx.span(route, "serve", t0, t1, rec["span"])
        if status >= 400:
            with self.lock:
                self.refused += 1
            raise RuntimeError(f"{method} {path} -> {status}: {data[:200]!r}")
        return data

    def run_job(self, idx, spec):
        rec = {"idx": idx, "spec": spec, "routes": {}, "events": 0, "error": None,
               "span": self.ctx.new_span_id(), "t_running": None, "t_terminal": None,
               "status_lag": 0}
        rec["t_submit"] = time.monotonic()
        try:
            status = json.loads(self._call(rec, "submit", "POST", "/v1/jobs", json.dumps(spec)))
            job = status["id"]
            since, state = 0, None
            while state not in TERMINAL:
                if time.monotonic() - rec["t_submit"] > JOB_TIMEOUT_S:
                    raise RuntimeError("job timed out")
                doc = json.loads(self._call(
                    rec, "events", "GET", f"/v1/jobs/{job}/events?since={since}&wait_ms=8000"))
                now = time.monotonic()
                for e in doc["events"]:
                    rec["events"] += 1
                    if e["kind"] == "state":
                        state = e["state"]
                        if state == "running" and rec["t_running"] is None:
                            rec["t_running"] = now
                since = doc["next"]
            rec["t_terminal"] = time.monotonic()
            # The daemon appends a state event before the state itself
            # becomes visible, so the status (which gates the artifacts)
            # can lag the event just seen: poll it until it agrees.
            while True:
                final = json.loads(self._call(rec, "status", "GET", f"/v1/jobs/{job}"))["state"]
                if final in TERMINAL or time.monotonic() - rec["t_submit"] > JOB_TIMEOUT_S:
                    break
                rec["status_lag"] += 1
                time.sleep(0.001)
            if state != "done" or final != "done":
                raise RuntimeError(f"job ended {state}/{final}")
            rec["report"] = self._call(rec, "report", "GET", f"/v1/jobs/{job}/report")
            if spec["observe"]:
                rec["metrics"] = self._call(rec, "metrics", "GET", f"/v1/jobs/{job}/metrics")
        except (OSError, ValueError, KeyError, RuntimeError, http.client.HTTPException) as e:
            rec["error"] = str(e)
        rec["t_done"] = time.monotonic()
        if self.ctx.trace:
            self.ctx.span(f"job {idx} {spec['space']} {spec['policy']}", "job",
                          rec["t_submit"], rec["t_done"], 0, rec["span"])
        return rec


class Sampler(threading.Thread):
    """Peak thread count of the daemon, sampled every 20 ms."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid, self.peak, self.halt = pid, 0, threading.Event()

    def run(self):
        while not self.halt.is_set():
            try:
                self.peak = max(self.peak, host.status_field(self.pid, "Threads"))
            except OSError:
                return
            self.halt.wait(0.02)


def _usage(pid):
    user, sys_ = host.cpu_seconds(pid)
    vol, invol = host.context_switches(pid)
    return {"user": user, "sys": sys_, "vol": vol, "invol": invol}


def _delta(a, b):
    return {k: b[k] - a[k] for k in a}


def _ref_key(spec):
    return json.dumps({k: v for k, v in spec.items() if k not in ("tenant", "priority")}, sort_keys=True)


def _verify(ctx, records, trace):
    """Check every finished job's output; return per-job report metrics."""
    done = [r for r in records if r["error"] is None]
    distinct = {}
    for r in done:
        if not r["spec"]["store"]:
            distinct.setdefault(_ref_key(r["spec"]), r["spec"])
    keys = list(distinct)
    ref_dir = os.path.join(ctx.tmp, "refs")
    specs_path = os.path.join(ctx.tmp, "ref-specs.json")
    with open(specs_path, "w") as f:
        json.dump([distinct[k] for k in keys], f)
    ctx.worker_json(["refs", "--specs", specs_path, "--out", ref_dir])
    refs = {}
    for i, k in enumerate(keys):
        with open(os.path.join(ref_dir, f"ref-{i}.json"), "rb") as f:
            refs[k] = f.read()

    report_dir = os.path.join(ctx.tmp, "reports")
    os.makedirs(report_dir, exist_ok=True)
    listing = []
    for r in done:
        path = os.path.join(report_dir, f"job-{r['idx']}.json")
        with open(path, "wb") as f:
            f.write(r["report"])
        listing.append({"path": path, "configs": gen.expected_configs(r["spec"])})
    list_path = os.path.join(ctx.tmp, "report-list.json")
    with open(list_path, "w") as f:
        json.dump(listing, f)
    checked = ctx.worker_json(["reports", "--list", list_path, "--trace", "1" if trace else "0",
                               "--time", "40"])
    for r, doc in zip(done, checked["reports"]):
        r["sim"] = doc
        if not doc["ok"]:
            r["error"] = "report does not parse: " + doc.get("error", "")
        elif not r["spec"]["store"] and r["report"] != refs[_ref_key(r["spec"])]:
            r["error"] = "report bytes differ from the in-process reference"
        elif r["spec"]["observe"]:
            try:
                r["obs"] = json.loads(r["metrics"])
                r["obs"]["counters"]
            except (ValueError, KeyError, TypeError):
                r["error"] = "metrics artifact does not parse"
    return checked.get("report_json_s")


def _session_files(data):
    """Session-engine artifacts (checkpoint.json, session.log) left in the
    job directories: bytes and files per job."""
    jobs = files = size = 0
    for d in os.listdir(data):
        path = os.path.join(data, d)
        if not (d.startswith("job-") and os.path.isdir(path)):
            continue
        jobs += 1
        for name in ("checkpoint.json", "session.log"):
            p = os.path.join(path, name)
            if os.path.isfile(p):
                files += 1
                size += os.path.getsize(p)
    return stats.per(size, jobs), stats.per(files, jobs)


def run(ctx, seed, seconds, trace, quick):
    clients = min(2, host.nproc())
    n_cold = 1 if quick else COLD_STARTS
    setups = []
    for i in range(n_cold - 1):
        d = Daemon(ctx, f"cold{i}")
        setups.append(d.setup_s)
        d.stop()
    ctx.mark(f"{len(setups)} daemon cold starts")
    daemon = Daemon(ctx, "run")
    setups.append(daemon.setup_s)
    pid = daemon.proc.pid
    sampler = Sampler(pid)
    sampler.start()
    jobs = gen.serve_jobs(seed, 5000)
    loop = Loop(ctx, daemon.port, jobs)
    try:
        loop.phase(clients, 0, 0, max_jobs=1 if quick else WARMUP_JOBS)
        ctx.mark("warm-up jobs done")
        u0 = _usage(pid)
        min_jobs = 1 if quick else (20 if trace else MIN_JOBS)
        lo, hi, wall = loop.phase(clients, seconds / 2 if trace else seconds, min_jobs,
                                  whole_blocks=not quick)
        used = _delta(u0, _usage(pid))
        if trace:
            t_lo, t_hi, t_wall = loop.phase(clients, seconds / 2, 1 if quick else 20, observe=True,
                                            whole_blocks=not quick)
        vmhwm_kb = host.status_field(pid, "VmHWM")
    finally:
        sampler.halt.set()
        sampler.join()
        daemon.stop()

    ctx.mark(f"{len(loop.records)} jobs done")
    records = sorted(loop.records, key=lambda r: r["idx"])
    report_json_s = _verify(ctx, records, trace)
    ctx.mark("outputs checked")
    ok = [r for r in records if r["error"] is None]
    for r in records:
        if r["error"] is not None:
            ctx.note(f"job {r['idx']} failed: {r['error']}")
    timed = [r for r in records if lo <= r["idx"] < hi]
    timed_ok = [r for r in timed if r["error"] is None]
    units = lambda rs: sum(gen.expected_configs(r["spec"]) * r["spec"]["reps"] for r in rs)
    latency = [r["t_done"] - r["t_submit"] for r in timed_ok]

    res = {"attempted": len(records), "failed": len(records) - len(ok), "e2e": {}, "layer": {}, "extra": {}}
    e2e = res["e2e"]
    e2e["setup_s"] = stats.median(setups)
    e2e["units_per_s"] = stats.rate(units(timed_ok), wall)
    e2e["job_p50_s"] = stats.median(latency)
    e2e["tail_s"] = stats.tail(latency, 90)
    e2e["cpu_s"] = stats.per(used["user"] + used["sys"], len(timed))
    e2e["peak_rss_mb"] = vmhwm_kb / 1024
    e2e["verified_pct"] = stats.verified_pct(res["failed"], res["attempted"])
    sim = [r["sim"] for r in ok if not r["spec"]["store"] and r["idx"] < SIM_PREFIX]
    if sim:
        e2e["sim_speedup"] = stats.mean([s["speedup"] for s in sim])
        e2e["pred_error_pct"] = 100 * stats.mean([s["mean_error"] for s in sim])
        e2e["selection_quality_pct"] = 100 * stats.mean([s["selection_quality"] for s in sim])
    res["extra"]["tail_percentile"] = (90, "p")
    res["extra"]["timed_jobs"] = (len(timed), "count")
    res["extra"]["clients"] = (clients, "count")
    res["extra"]["cold_starts"] = (len(setups), "count")
    res["extra"]["sim_reports"] = (len(sim), "count")
    res["extra"]["status_lag_polls"] = (sum(r["status_lag"] for r in records), "count")
    res["extra"]["job_max_s"] = (max(r["t_done"] - r["t_submit"] for r in records), "s")

    if trace:
        copy = os.path.join(ctx.tmp, "store-copy")
        shutil.copytree(daemon.store, copy)
        probes = ctx.worker_json(["probe", "--store", copy, "--out", os.path.join(ctx.tmp, "probe")])
        with open(os.path.join(ctx.tmp, "probe", "worker-spans.json")) as f:
            ctx.spans += json.load(f)
        n = units(timed)
        layer = res["layer"]
        layer["sim.vol_csw_per_unit"] = stats.per(used["vol"], n)
        layer["sim.invol_csw_per_unit"] = stats.per(used["invol"], n)
        layer["sim.sys_s_per_unit"] = stats.per(used["sys"], n)
        layer["sim.threads_peak"] = sampler.peak
        layer["sim.run_full_s"] = probes["run_full_s"]
        observed = [r for r in ok if r["spec"]["observe"] and r["idx"] < EXACT_PREFIX]
        merged = catalog.merge_metrics([r["obs"] for r in observed])
        layer.update(catalog.exact_counts(merged, max(units(observed), 1)))
        layer["machine.draw_ns"] = probes["machine_draw_ns"]
        layer["core.sel_over_full_host"] = probes["sel_over_full_host"]
        layer["dla.gflops"] = probes["dla_gflops"]
        layer["dla.flops_per_byte"] = probes["dla_flops_per_byte"]
        per_unit = [(r["t_terminal"] - r["t_running"]) / units([r]) for r in timed_ok if r["t_running"]]
        layer["autotune.unit_p50_s"] = stats.median(per_unit)
        layer["autotune.report_json_s"] = report_json_s
        layer["session.ckpt_bytes_per_job"], layer["session.ckpt_files_per_job"] = _session_files(daemon.data)
        layer["store.generations"] = probes["store"]["generations"]
        layer["store.blob_bytes"] = probes["store"]["blob_bytes"]
        layer["serve.events_per_job"] = stats.per(sum(r["events"] for r in records), len(records))
        layer["serve.refused"] = loop.refused
        traced = [r for r in ok if t_lo <= r["idx"] < t_hi]
        untraced_rate = e2e["units_per_s"]
        layer["obs.trace_overhead_pct"] = 100 * stats.rate(units(traced), t_wall) / untraced_rate
        routes = lambda name: [x for r in timed_ok for x in r["routes"].get(name, [])]
        extra = res["extra"]
        extra["serve.submit_p50_s"] = (stats.median(routes("submit")), "s")
        extra["serve.status_p50_s"] = (stats.median(routes("status")), "s")
        extra["serve.report_p50_s"] = (stats.median(routes("report")), "s")
        extra["serve.queue_wait_p50_s"] = (
            stats.median([r["t_running"] - r["t_submit"] for r in timed_ok if r["t_running"]]), "s")
        extra["store.publish_s"] = (probes["store"]["publish_s"], "s")
        extra["store.lookup_s"] = (probes["store"]["lookup_s"], "s")
        extra["exact_jobs"] = (len(observed), "count")
    return res
