//! `perfbench-worker`: the in-process half of the repository benchmark.
//!
//! `perfbench/run.py` drives it; it prints one JSON document on stdout.
//!
//! ```text
//! perfbench-worker coldstart --space S --policy P [sweep options] --alloc A
//! perfbench-worker sweep     --space S --policy P [sweep options] --allocs A,B
//!                            --seconds T --min-units N --min-sweeps M
//!                            --trace 0|1 --out DIR
//! perfbench-worker refs      --specs FILE --out DIR
//! perfbench-worker reports   --list FILE --trace 0|1 --time N
//! perfbench-worker probe     --store DIR --out DIR
//! ```
//!
//! Sweep options are `--epsilon E --reps R --backend B --workers W --seed N`,
//! all required, so no run inherits a default silently.

mod probe;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use critter_algs::Workload;
use critter_autotune::{Autotuner, ProgressVerdict, TuningOptions, TuningReport, TuningSpace};
use critter_core::ExecutionPolicy;
use critter_sim::BackendKind;
use serde_json::{json, Value};

use crate::sys::{monotonic, status_field, Spans, Usage};

/// `critter-tune`'s short policy names.
const POLICIES: [(&str, ExecutionPolicy); 6] = [
    ("conditional", ExecutionPolicy::ConditionalExecution),
    ("local", ExecutionPolicy::LocalPropagation),
    ("online", ExecutionPolicy::OnlinePropagation),
    ("apriori", ExecutionPolicy::APrioriPropagation),
    ("eager", ExecutionPolicy::EagerPropagation),
    ("full", ExecutionPolicy::Full),
];

fn fail(msg: String) -> ! {
    eprintln!("perfbench-worker: {msg}");
    std::process::exit(2)
}

/// `--key value` pairs after the mode word.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(k) = it.next() {
            let key = k.strip_prefix("--").unwrap_or_else(|| fail(format!("unexpected `{k}`")));
            let v = it.next().unwrap_or_else(|| fail(format!("`{k}` needs a value")));
            map.insert(key.to_string(), v.clone());
        }
        Args(map)
    }

    fn str(&self, key: &str) -> &str {
        self.0.get(key).unwrap_or_else(|| fail(format!("missing --{key}")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> T {
        self.str(key).parse().unwrap_or_else(|_| fail(format!("bad --{key}")))
    }
}

fn space_named(name: &str) -> TuningSpace {
    TuningSpace::ALL
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| fail(format!("unknown space `{name}`")))
}

fn policy_named(name: &str) -> ExecutionPolicy {
    POLICIES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, p)| *p)
        .unwrap_or_else(|| fail(format!("unknown policy `{name}`")))
}

/// The options `critter-tune` builds from its flags, every one pinned.
#[derive(Clone)]
struct Sweep {
    space: TuningSpace,
    workloads: Vec<Arc<dyn Workload>>,
    opts: TuningOptions,
}

impl Sweep {
    fn from_args(a: &Args) -> Sweep {
        let space = space_named(a.str("space"));
        let backend: BackendKind = a.num("backend");
        let mut opts = TuningOptions::new(policy_named(a.str("policy")), a.num("epsilon"))
            .with_backend(backend)
            .with_workers(a.num("workers"))
            .with_seed(a.num("seed"));
        opts.reset_between_configs = space.resets_between_configs();
        opts.reps = a.num("reps");
        Sweep { space, workloads: space.bench(), opts }
    }

    fn tuner(&self, alloc: u64, observe: bool) -> Autotuner {
        let mut opts = self.opts.clone().with_allocation(alloc);
        if observe {
            opts = opts.with_observe();
        }
        Autotuner::new(opts)
    }
}

fn sim_metrics(r: &TuningReport) -> Value {
    json!({
        "configs": r.configs.len(),
        "speedup": r.speedup(),
        "mean_error": r.mean_error(),
        "selection_quality": r.selection_quality(),
    })
}

/// Fresh-process cold start: everything up to the first committed unit.
fn coldstart(a: &Args) {
    let sweep = Sweep::from_args(a);
    let tuner = sweep.tuner(a.num("alloc"), false).with_progress(|p| {
        // The hook also fires once before the first unit; skip that call.
        if p.units_done == 0 {
            return ProgressVerdict::Continue;
        }
        println!("committed");
        ProgressVerdict::Cancel
    });
    match tuner.tune_session(&sweep.workloads, &critter_autotune::SessionConfig::new()) {
        Err(e) if e.is_cancelled() => {}
        other => fail(format!("cold start did not stop at the first unit: {:?}", other.err())),
    }
}

/// The timed sweeps of one kind (untraced or observed): each sweep's host
/// time, per-unit times and resource usage, and its bytes checked against
/// the allocation's reference.
#[derive(Default)]
struct Phase {
    observe: bool,
    wall_s: f64,
    sweeps: Vec<Value>,
    unit_s: Vec<f64>,
    usage: Usage,
    threads_peak: u64,
    failed: usize,
    first_obs: Option<Value>,
}

struct Limits {
    seconds: f64,
    min_units: usize,
    min_sweeps: usize,
}

impl Phase {
    fn new(observe: bool) -> Phase {
        Phase { observe, threads_peak: status_field("Threads"), ..Phase::default() }
    }

    fn done(&self, limits: &Limits) -> bool {
        self.sweeps.len() >= limits.min_sweeps
            && self.unit_s.len() >= limits.min_units
            && self.wall_s >= limits.seconds
    }

    fn sweep(
        &mut self,
        sweep: &Sweep,
        refs: &BTreeMap<u64, String>,
        allocs: &[u64],
        spans: &Spans,
    ) {
        let alloc = allocs[self.sweeps.len() % allocs.len()];
        let commits = Arc::new(Mutex::new(Vec::new()));
        let peak = Arc::new(Mutex::new(self.threads_peak));
        let (hook_commits, hook_peak) = (commits.clone(), peak.clone());
        let tuner = sweep.tuner(alloc, self.observe).with_progress(move |p| {
            // The hook also fires once before the first unit; skip that call.
            if p.units_done == 0 {
                return ProgressVerdict::Continue;
            }
            hook_commits.lock().expect("commit log lock").push(monotonic());
            let mut peak = hook_peak.lock().expect("thread peak lock");
            *peak = (*peak).max(status_field("Threads"));
            ProgressVerdict::Continue
        });
        let u0 = Usage::now();
        let opened = spans.open();
        let mut report = tuner.tune(&sweep.workloads);
        let end = monotonic();
        self.usage = self.usage.plus(&Usage::now().since(&u0));
        self.wall_s += end - opened.1;
        self.threads_peak = *peak.lock().expect("thread peak lock");
        let kind = if self.observe { "observed sweep" } else { "sweep" };
        spans.push(sys::Span {
            name: format!("{kind} {} alloc={alloc}", sweep.space.name()),
            layer: "autotune",
            start: opened.1,
            end,
            id: opened.0,
            parent: 0,
        });
        let commits = commits.lock().expect("commit log lock").clone();
        let mut prev = opened.1;
        for (i, &at) in commits.iter().enumerate() {
            self.unit_s.push(at - prev);
            let (id, _) = spans.open();
            let name = format!("unit {i}");
            spans.push(sys::Span {
                name,
                layer: "autotune",
                start: prev,
                end: at,
                id,
                parent: opened.0,
            });
            prev = at;
        }
        if self.observe && self.first_obs.is_none() {
            let obs = report.obs.as_ref().expect("observed sweeps carry metrics");
            self.first_obs = Some(json!({
                "alloc": alloc, "units": commits.len(), "metrics": obs.metrics.to_json(),
            }));
        }
        // Observation adds only `obs_metrics`; the rest must match the
        // unobserved reference byte for byte.
        report.obs = None;
        let ok = refs.get(&alloc).is_some_and(|r| *r == report.to_json_string());
        self.failed += usize::from(!ok);
        self.sweeps.push(json!({
            "alloc": alloc, "secs": end - opened.1, "units": commits.len(), "ok": ok,
        }));
    }

    fn to_json(&self) -> Value {
        json!({
            "wall_s": self.wall_s,
            "sweeps": self.sweeps.clone(),
            "unit_s": self.unit_s.clone(),
            "user_s": self.usage.user_s,
            "sys_s": self.usage.sys_s,
            "vol_csw": self.usage.vol_csw,
            "invol_csw": self.usage.invol_csw,
            "threads_peak": self.threads_peak,
            "failed": self.failed,
            "first_obs": self.first_obs.clone().unwrap_or(Value::Null),
        })
    }
}

/// The median tile of a space's dominant kernel, for the `dla` probe.
fn tile_of(space: TuningSpace) -> usize {
    match space {
        // Capital's local gemm3d blocks: b = 16·2^{v%5}, median 64.
        TuningSpace::CapitalCholesky => 64,
        // SLATE tiles 16 + 8·⌊v/2⌋ for v < 20, upper median 56.
        _ => 56,
    }
}

fn sweep_mode(a: &Args) {
    let sweep = Sweep::from_args(a);
    let traced = a.str("trace") == "1";
    let spans = Spans::new(traced);
    let out = PathBuf::from(a.str("out"));
    std::fs::create_dir_all(&out).unwrap_or_else(|e| fail(format!("{}: {e}", out.display())));
    let allocs: Vec<u64> = a
        .str("allocs")
        .split(',')
        .map(|s| s.parse().unwrap_or_else(|_| fail(format!("bad allocation `{s}`"))))
        .collect();
    let seed: u64 = a.num("seed");

    // Warm-up: one untimed sweep per allocation spins up the rank pool and
    // yields the reference bytes every timed sweep must reproduce.
    let mut refs = BTreeMap::new();
    let mut ref_docs = Vec::new();
    let warm = Instant::now();
    for &alloc in &allocs {
        let report = sweep.tuner(alloc, false).tune(&sweep.workloads);
        let text = report.to_json_string();
        let path = out.join(format!(
            "ref-{}-{}-a{alloc}-s{seed}.json",
            sweep.space.name(),
            a.str("policy")
        ));
        std::fs::write(&path, &text).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
        let mut doc = sim_metrics(&report);
        put(&mut doc, "alloc", json!(alloc));
        put(&mut doc, "path", json!(path.display().to_string()));
        ref_docs.push(doc);
        refs.insert(alloc, text);
    }
    let warm_s = warm.elapsed().as_secs_f64();

    let seconds: f64 = a.num("seconds");
    let (min_units, min_sweeps) = (a.num("min-units"), a.num("min-sweeps"));
    let mut timed = Phase::new(false);
    let mut doc = json!({"refs": ref_docs, "warmup_s": warm_s});
    if traced {
        // Untraced and observed sweeps alternate over the window, each
        // kind for half of it: the ratio of their unit rates is the
        // tracing overhead, free of drift between two halves.
        let half = Limits { seconds: seconds / 2.0, min_units, min_sweeps };
        let one = Limits { seconds: seconds / 2.0, min_units: 1, min_sweeps: 1 };
        let mut observed = Phase::new(true);
        while !timed.done(&half) || !observed.done(&one) {
            if !timed.done(&half) {
                timed.sweep(&sweep, &refs, &allocs, &spans);
            }
            if !observed.done(&one) {
                observed.sweep(&sweep, &refs, &allocs, &spans);
            }
        }
        put(&mut doc, "observed", observed.to_json());
    } else {
        let limits = Limits { seconds, min_units, min_sweeps };
        while !timed.done(&limits) {
            timed.sweep(&sweep, &refs, &allocs, &spans);
        }
    }
    put(&mut doc, "timed", timed.to_json());
    put(&mut doc, "vmhwm_kb", json!(status_field("VmHWM")));
    if traced {
        let tile = tile_of(sweep.space);
        let ranks = sweep.workloads[0].ranks();
        let set: Vec<_> = sweep.workloads.iter().map(|w| (w.clone(), sweep.opts.policy)).collect();
        let (run_full_s, sel_over_full) =
            probe::sim_and_core(&set, sweep.opts.epsilon, seed, allocs[0], &spans);
        let (gflops, flops_per_byte) = probe::dla_gemm(tile, &spans);
        let texts: Vec<String> = refs.values().cloned().collect();
        put(
            &mut doc,
            "probes",
            json!({
                "machine_draw_ns": probe::machine_draw_ns(ranks, seed, allocs[0], tile, &spans),
                "dla_gflops": gflops,
                "dla_flops_per_byte": flops_per_byte,
                "dla_tile": tile,
                "run_full_s": run_full_s,
                "sel_over_full_host": sel_over_full,
                "report_json_s": probe::report_json_s(&texts, &spans),
            }),
        );
        write_spans(&out, &spans);
    }
    println!("{}", serde_json::to_string(&doc).expect("json writer is total"));
}

fn write_spans(out: &Path, spans: &Spans) {
    let path = out.join("worker-spans.json");
    let text = serde_json::to_string(&spans.to_json()).expect("json writer is total");
    std::fs::write(&path, text).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
}

fn put(doc: &mut Value, key: &str, value: Value) {
    doc.as_object_mut().expect("documents are JSON objects").insert(key.to_string(), value);
}

fn read_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

/// The in-process sweep a served job spec asks for, built the way
/// `critter-tune` builds it from the equivalent flags.
fn spec_sweep(spec: &Value) -> (Vec<Arc<dyn Workload>>, TuningOptions) {
    let field = |k: &str| spec.get(k).unwrap_or_else(|| fail(format!("spec lacks `{k}`")));
    let text = |k: &str| field(k).as_str().unwrap_or_else(|| fail(format!("spec `{k}`")));
    let int = |k: &str| field(k).as_u64().unwrap_or_else(|| fail(format!("spec `{k}`")));
    let flag = |k: &str| spec.get(k).and_then(Value::as_bool).unwrap_or(false);
    let space = space_named(text("space"));
    let eps = field("epsilon").as_f64().unwrap_or_else(|| fail("spec `epsilon`".into()));
    let backend: BackendKind =
        text("backend").parse().unwrap_or_else(|_| fail("spec `backend`".into()));
    let mut opts = TuningOptions::new(policy_named(text("policy")), eps)
        .with_backend(backend)
        .with_seed(int("seed"))
        .with_allocation(int("allocation"));
    opts.reps = int("reps") as usize;
    opts.reset_between_configs = match spec.get("persist_models").and_then(Value::as_bool) {
        Some(persist) => !persist,
        None => space.resets_between_configs(),
    };
    if flag("observe") {
        opts = opts.with_observe();
    }
    (if flag("smoke") { space.smoke() } else { space.bench() }, opts)
}

/// Reference report bytes for served job specs: `<out>/ref-<i>.json`,
/// computed on as many threads as the host has cores (the daemon has
/// stopped by the time they run).
fn refs_mode(a: &Args) {
    let specs = read_json(a.str("specs"));
    let specs = specs.as_array().unwrap_or_else(|| fail("specs must be a JSON array".into()));
    let out = PathBuf::from(a.str("out"));
    std::fs::create_dir_all(&out).unwrap_or_else(|e| fail(format!("{}: {e}", out.display())));
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let (workloads, opts) = spec_sweep(spec);
                let report = Autotuner::new(opts).tune(&workloads);
                let path = out.join(format!("ref-{i}.json"));
                std::fs::write(&path, report.to_json_string())
                    .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
            });
        }
    });
    println!(
        "{}",
        serde_json::to_string(&json!({"refs": specs.len()})).expect("json writer is total")
    );
}

/// Parse served reports through `TuningReport::from_json`, check their
/// configuration counts, and compute their simulated metrics; in traced
/// runs also time the JSON round trip of the first `--time` of them.
fn reports_mode(a: &Args) {
    let list = read_json(a.str("list"));
    let list = list.as_array().unwrap_or_else(|| fail("list must be a JSON array".into()));
    let mut docs = Vec::new();
    let mut texts = Vec::new();
    for item in list {
        let path = item
            .get("path")
            .and_then(Value::as_str)
            .unwrap_or_else(|| fail("list item lacks path".into()));
        let want = item
            .get("configs")
            .and_then(Value::as_u64)
            .unwrap_or_else(|| fail("list item lacks configs".into()));
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let parsed = serde_json::from_str(&text)
            .map_err(|e| e.to_string())
            .and_then(|v| TuningReport::from_json(&v).map_err(|e| e.to_string()));
        docs.push(match parsed {
            Ok(r) if r.configs.len() as u64 == want => {
                texts.push(text);
                let mut d = sim_metrics(&r);
                put(&mut d, "ok", json!(true));
                d
            }
            Ok(r) => {
                json!({"ok": false, "error": format!("{} configs, want {want}", r.configs.len())})
            }
            Err(e) => json!({"ok": false, "error": e}),
        });
    }
    let mut doc = json!({"reports": docs});
    if a.str("trace") == "1" && !texts.is_empty() {
        texts.truncate(a.num("time"));
        put(&mut doc, "report_json_s", json!(probe::report_json_s(&texts, &Spans::new(false))));
    }
    println!("{}", serde_json::to_string(&doc).expect("json writer is total"));
}

/// Layer probes for the served mix: every smoke configuration of the five
/// spaces under conditional execution, SLATE's bench tile for the kernels,
/// and the census and timings of a copy of the run's store.
fn probe_mode(a: &Args) {
    let spans = Spans::new(true);
    let out = PathBuf::from(a.str("out"));
    std::fs::create_dir_all(&out).unwrap_or_else(|e| fail(format!("{}: {e}", out.display())));
    let (seed, alloc) = (0xC0FFEE, 0);
    let set: Vec<_> = TuningSpace::ALL
        .into_iter()
        .flat_map(|s| s.smoke())
        .map(|w| (w, ExecutionPolicy::ConditionalExecution))
        .collect();
    let (run_full_s, sel_over_full) = probe::sim_and_core(&set, 0.25, seed, alloc, &spans);
    let tile = tile_of(TuningSpace::SlateCholesky);
    let (gflops, flops_per_byte) = probe::dla_gemm(tile, &spans);
    let store = probe::store(Path::new(a.str("store")), 10, &spans);
    let doc = json!({
        "machine_draw_ns": probe::machine_draw_ns(16, seed, alloc, tile, &spans),
        "dla_gflops": gflops,
        "dla_flops_per_byte": flops_per_byte,
        "dla_tile": tile,
        "run_full_s": run_full_s,
        "sel_over_full_host": sel_over_full,
        "store": store,
    });
    write_spans(&out, &spans);
    println!("{}", serde_json::to_string(&doc).expect("json writer is total"));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = argv.split_first() else {
        fail("usage: perfbench-worker <coldstart|sweep|refs|reports|probe> --key value …".into())
    };
    let args = Args::parse(rest);
    match mode.as_str() {
        "coldstart" => coldstart(&args),
        "sweep" => sweep_mode(&args),
        "refs" => refs_mode(&args),
        "reports" => reports_mode(&args),
        "probe" => probe_mode(&args),
        other => fail(format!("unknown mode `{other}`")),
    }
}
