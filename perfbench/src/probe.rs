//! Direct probes of single layers, each timed by the worker around its own
//! call into the layer's public API. They run only in traced runs.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use critter_algs::Workload;
use critter_core::{CritterConfig, CritterEnv, ExecutionPolicy, KernelStore};
use critter_dla::{gemm, Matrix, Trans};
use critter_machine::{KernelClass, MachineModel};
use critter_sim::{run_simulation, BackendKind, SimConfig};
use critter_store::Store;

use crate::stats::median;
use crate::sys::Spans;

/// Host ns per `MachineModel::compute_time` draw: median of five batches.
pub fn machine_draw_ns(ranks: usize, seed: u64, alloc: u64, tile: usize, spans: &Spans) -> f64 {
    const DRAWS: u64 = 1_000_000;
    let machine = MachineModel::stampede2(ranks, seed, alloc);
    let flops = critter_dla::flops::gemm(tile, tile, tile);
    let per_draw: Vec<f64> = (0..5)
        .map(|_| {
            let opened = spans.open();
            let t = Instant::now();
            let mut acc = 0.0;
            for i in 0..DRAWS {
                acc += machine.compute_time(
                    KernelClass::Gemm,
                    black_box(flops),
                    (i as usize) % ranks,
                    i,
                );
            }
            black_box(acc);
            let ns = t.elapsed().as_secs_f64() * 1e9 / DRAWS as f64;
            spans.close(opened, "compute_time x1e6", "machine", 0);
            ns
        })
        .collect();
    median(&per_draw)
}

/// Host GFLOP/s of `critter_dla::gemm` on `tile`³ operands (median of five
/// timed batches of at least 50 ms each) and the kernel's computed flops
/// per byte: 2t³ flops over 8·4t² bytes (A and B read, C read and written).
pub fn dla_gemm(tile: usize, spans: &Spans) -> (f64, f64) {
    let a = Matrix::random(tile, tile, 1);
    let b = Matrix::random(tile, tile, 2);
    let mut c = Matrix::random(tile, tile, 3);
    let flops = critter_dla::flops::gemm(tile, tile, tile);
    let gflops: Vec<f64> = (0..5)
        .map(|_| {
            let opened = spans.open();
            let t = Instant::now();
            let mut calls = 0u64;
            while calls == 0 || t.elapsed().as_secs_f64() < 0.05 {
                gemm(Trans::No, Trans::No, 1.0, black_box(&a), black_box(&b), 0.5, &mut c);
                calls += 1;
            }
            black_box(&c);
            let g = flops * calls as f64 / t.elapsed().as_secs_f64() / 1e9;
            spans.close(opened, &format!("gemm {tile}^3"), "dla", 0);
            g
        })
        .collect();
    let bytes = 8.0 * 4.0 * (tile * tile) as f64;
    (median(&gflops), flops / bytes)
}

/// Host seconds of one full `run_simulation` of `w` and of one selective
/// run whose kernel stores were seeded by that full run.
pub fn full_and_selective(
    w: &Arc<dyn Workload>,
    policy: ExecutionPolicy,
    epsilon: f64,
    seed: u64,
    alloc: u64,
    spans: &Spans,
) -> (f64, f64) {
    let ranks = w.ranks();
    let machine = MachineModel::stampede2(ranks, seed, alloc);
    let slots: Vec<Mutex<KernelStore>> =
        (0..ranks).map(|_| Mutex::new(KernelStore::new())).collect();
    let run = |cfg: CritterConfig, noise_salt: u64| {
        let program = |ctx: &mut critter_sim::RankCtx| {
            let store = std::mem::take(&mut *slots[ctx.rank()].lock().expect("rank store lock"));
            let mut env = CritterEnv::new(ctx, cfg.clone(), store);
            w.run(&mut env, false);
            let (report, store) = env.finish();
            *slots[ctx.rank()].lock().expect("rank store lock") = store;
            report.kernels_executed
        };
        let sim = SimConfig::new(ranks).with_backend(BackendKind::Threads);
        let t = Instant::now();
        let report = run_simulation(sim, machine.with_noise_seed(noise_salt).shared(), program);
        black_box(report.outputs);
        t.elapsed().as_secs_f64()
    };
    let opened = spans.open();
    let full = run(CritterConfig::full(), 1);
    spans.close(opened, &format!("full {}", w.name()), "sim", 0);
    let opened = spans.open();
    let selective = run(CritterConfig::new(policy, epsilon), 2);
    spans.close(opened, &format!("selective {}", w.name()), "core", 0);
    (full, selective)
}

/// `sim.run_full_s` and `core.sel_over_full_host` over a set of
/// configurations: medians of the per-configuration values.
pub fn sim_and_core(
    workloads: &[(Arc<dyn Workload>, ExecutionPolicy)],
    epsilon: f64,
    seed: u64,
    alloc: u64,
    spans: &Spans,
) -> (f64, f64) {
    let mut fulls = Vec::new();
    let mut ratios = Vec::new();
    for (w, policy) in workloads {
        let (full, selective) = full_and_selective(w, *policy, epsilon, seed, alloc, spans);
        fulls.push(full);
        ratios.push(selective / full);
    }
    (median(&fulls), median(&ratios))
}

/// Median host seconds of `to_json_string` + `from_json` per report text,
/// each measured over enough round trips to last at least 20 ms.
pub fn report_json_s(reports: &[String], spans: &Spans) -> f64 {
    let per_report: Vec<f64> = reports
        .iter()
        .map(|text| {
            let opened = spans.open();
            let t = Instant::now();
            let mut trips = 0u64;
            while trips == 0 || t.elapsed().as_secs_f64() < 0.02 {
                let v: serde_json::Value = serde_json::from_str(black_box(text))
                    .expect("reports were verified before timing");
                let r = critter_autotune::TuningReport::from_json(&v)
                    .expect("reports were verified before timing");
                black_box(r.to_json_string());
                trips += 1;
            }
            let s = t.elapsed().as_secs_f64() / trips as f64;
            spans.close(opened, "report json round trip", "autotune", 0);
            s
        })
        .collect();
    median(&per_report)
}

/// Store census of `dir` plus `Store::publish` and `latest` + `load_blob`
/// host seconds (medians of `reps` calls) on that store, which must be a
/// copy: publishing adds generations.
pub fn store(dir: &std::path::Path, reps: usize, spans: &Spans) -> serde_json::Value {
    let store = Store::open(dir).expect("store copy opens");
    let census = store.census().expect("store census");
    let blob_bytes: u64 = std::fs::read_dir(dir.join("blobs"))
        .map(|rd| rd.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0);
    let mut lookups = Vec::new();
    let mut publishes = Vec::new();
    if let Some(latest) = store.latest().expect("store index reads") {
        let entry = latest.entries.last().expect("a committed generation has entries").clone();
        for _ in 0..reps {
            let opened = spans.open();
            let t = Instant::now();
            let idx = store.latest().expect("store index reads").expect("store is not empty");
            let e = idx.entries.iter().rev().find(|e| e.algo == entry.algo).expect("entry");
            let stores = store.load_blob(e.blob).expect("blob loads");
            lookups.push(t.elapsed().as_secs_f64());
            spans.close(opened, "latest + load_blob", "store", 0);
            let opened = spans.open();
            let t = Instant::now();
            store.publish(&entry.machine, &entry.algo, &stores).expect("publish");
            publishes.push(t.elapsed().as_secs_f64());
            spans.close(opened, "publish", "store", 0);
        }
    }
    serde_json::json!({
        "generations": census.generation,
        "blobs": census.blobs,
        "blob_bytes": blob_bytes,
        "lookup_s": if lookups.is_empty() { 0.0 } else { median(&lookups) },
        "publish_s": if publishes.is_empty() { 0.0 } else { median(&publishes) },
    })
}
