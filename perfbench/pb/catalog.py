"""Every metric the benchmark reports: name, unit, better direction, and
for end-to-end metrics the bound BENCHMARK.json fixes. BENCHMARK.json is
checked against this table by perfbench/tests/test_catalog.py."""

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("units_per_s", "1/s", "higher", 0.25),
    ("job_p50_s", "s", "lower", 0.25),
    ("tail_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("verified_pct", "%", "higher", 0.01),
    ("sim_speedup", "x", "higher", 0.1),
    ("pred_error_pct", "%", "lower", 0.25),
    ("selection_quality_pct", "%", "higher", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    ("sim.vol_csw_per_unit", "count", "lower"),
    ("sim.invol_csw_per_unit", "count", "lower"),
    ("sim.sys_s_per_unit", "s", "lower"),
    ("sim.threads_peak", "count", "lower"),
    ("sim.run_full_s", "s", "lower"),
    ("sim.msgs_per_unit", "count", "lower"),
    ("sim.collectives_per_unit", "count", "lower"),
    ("sim.words_per_unit", "count", "lower"),
    ("machine.draw_ns", "ns", "lower"),
    ("machine.compute_calls_per_unit", "count", "lower"),
    ("core.skip_pct", "%", "higher"),
    ("core.decisions_per_unit", "count", "lower"),
    ("core.propagations_per_unit", "count", "lower"),
    ("core.path_adoptions_per_unit", "count", "lower"),
    ("core.sel_over_full_host", "x", "lower"),
    ("stats.ci_tests_per_unit", "count", "lower"),
    ("dla.exec_gflop_per_unit", "GFLOP", "lower"),
    ("dla.gflops", "GFLOP/s", "higher"),
    ("dla.flops_per_byte", "flop/B", "higher"),
    ("autotune.unit_p50_s", "s", "lower"),
    ("autotune.report_json_s", "s", "lower"),
    ("session.ckpt_bytes_per_job", "B", "lower"),
    ("session.ckpt_files_per_job", "count", "lower"),
    ("store.generations", "count", "lower"),
    ("store.blob_bytes", "B", "lower"),
    ("serve.events_per_job", "count", "lower"),
    ("serve.refused", "count", "lower"),
    ("obs.trace_overhead_pct", "%", "higher"),
]

# Counts from the program's with_observe counters: they repeat exactly for
# a given seed, and a host-only change must leave them unchanged.
EXACT = {
    "sim.msgs_per_unit",
    "sim.collectives_per_unit",
    "sim.words_per_unit",
    "machine.compute_calls_per_unit",
    "core.skip_pct",
    "core.decisions_per_unit",
    "core.propagations_per_unit",
    "core.path_adoptions_per_unit",
    "stats.ci_tests_per_unit",
    "dla.exec_gflop_per_unit",
}

# Traced metrics only the served mix has, so they are printed and written
# to the trace file but are not in the per_layer set every workload emits.
SERVE_ONLY = [
    ("serve.submit_p50_s", "s", "lower"),
    ("serve.status_p50_s", "s", "lower"),
    ("serve.report_p50_s", "s", "lower"),
    ("serve.queue_wait_p50_s", "s", "lower"),
    ("store.publish_s", "s", "lower"),
    ("store.lookup_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + SERVE_ONLY}


def exact_counts(metrics, units):
    """The exact per-layer counts from one with_observe metrics document
    (counters, sums, histograms), normalised per committed unit."""
    c = metrics.get("counters", {})
    s = metrics.get("sums", {})
    ci = metrics.get("histograms", {}).get("ci_rel_width", {}).get("count", 0)
    executed, skipped = c.get("kernels_executed", 0), c.get("kernels_skipped", 0)
    propagations = sum(v for k, v in c.items() if k.startswith("propagate["))
    return {
        "sim.msgs_per_unit": c.get("sim_sends", 0) / units,
        "sim.collectives_per_unit": c.get("sim_collectives", 0) / units,
        "sim.words_per_unit": c.get("sim_words_sent", 0) / units,
        "machine.compute_calls_per_unit": c.get("sim_compute_calls", 0) / units,
        "core.skip_pct": 100.0 * skipped / max(executed + skipped, 1),
        "core.decisions_per_unit": (c.get("decisions_execute", 0) + c.get("decisions_skip", 0)) / units,
        "core.propagations_per_unit": propagations / units,
        "core.path_adoptions_per_unit": c.get("path_adoptions", 0) / units,
        "stats.ci_tests_per_unit": ci / units,
        "dla.exec_gflop_per_unit": s.get("sim_flops", 0.0) / 1e9 / units,
    }


def merge_metrics(docs):
    """Sum several metrics documents (counters, sums, histogram counts)."""
    out = {"counters": {}, "sums": {}, "histograms": {"ci_rel_width": {"count": 0}}}
    for d in docs:
        for k, v in d.get("counters", {}).items():
            out["counters"][k] = out["counters"].get(k, 0) + v
        for k, v in d.get("sums", {}).items():
            out["sums"][k] = out["sums"].get(k, 0.0) + v
        out["histograms"]["ci_rel_width"]["count"] += (
            d.get("histograms", {}).get("ci_rel_width", {}).get("count", 0)
        )
    return out
