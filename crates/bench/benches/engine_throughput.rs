//! Engine throughput, abort behaviour, and multi-core scaling.
//!
//! Three sections:
//!
//! * the commits/aborts table across SI/SSI/SER/PSI on a contended Zipf
//!   mix (printed before measuring) — the operational backdrop of the
//!   paper's "SI trades anomalies for performance" premise;
//! * deterministic scheduler throughput for each engine (criterion
//!   groups);
//! * the concurrent scaling grid: the real-thread stress harness runs
//!   the single-lock SI store across thread counts × contention levels,
//!   at a 4k-transaction cell and a 10^6-transaction cell.
//!
//! A measured run (release build, or `--measure`) rewrites
//! `BENCH_engine.json` at the repository root with the scaling grid:
//! per cell, the min, median and max of committed-transaction
//! throughput over the repetitions, plus the host's core count and the
//! build profile; see EXPERIMENTS.md. The timed window is the concurrent
//! phase of `stress_history_only`, so building the history stays out of
//! it. Correctness of what the timed store produces is established
//! elsewhere: the concurrent proptest in `tests/engines_vs_theory.rs`,
//! the sanitizer's exhaustive exploration of the shared commit routine,
//! and the release-gated `si-solve` membership smoke on a
//! 10^5-transaction recording.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use serde::Serialize;
use si_mvcc::{
    stress_history_only, Engine, PsiEngine, Scheduler, SchedulerConfig, SerEngine, SiEngine,
    SsiEngine, StressConfig, StressEngine,
};
use si_workloads::random::{random_mix, RandomMix};

fn mix(objects: usize) -> RandomMix {
    RandomMix {
        sessions: 8,
        txs_per_session: 25,
        ops_per_tx: 4,
        objects,
        read_ratio: 0.6,
        zipf_s: 0.9,
        seed: 2024,
    }
}

/// Mirrors the vendored criterion harness's mode selection so the sized
/// inputs shrink in smoke runs (`cargo test` executes these mains too).
fn smoke_mode() -> bool {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--measure") {
        return false;
    }
    if args.iter().any(|a| a == "--test") {
        return true;
    }
    cfg!(debug_assertions)
}

fn run_once(make: impl Fn() -> Box<dyn Engine>, objects: usize, bg: f64) -> si_mvcc::RunStats {
    let w = random_mix(&mix(objects));
    let mut s = Scheduler::new(SchedulerConfig {
        seed: 7,
        background_probability: bg,
        ..Default::default()
    });
    let mut engine = make();
    s.run(engine.as_mut(), &w).stats
}

fn print_abort_table() {
    println!("\n── engine behaviour on a contended Zipf mix (8 sessions × 25 txs) ──");
    println!("{:10} {:>9} {:>9} {:>12}", "engine", "commits", "aborts", "ops executed");
    for (name, stats) in [
        ("SI", run_once(|| Box::new(SiEngine::new(16)), 16, 0.0)),
        ("SSI", run_once(|| Box::new(SsiEngine::new(16)), 16, 0.0)),
        ("SER", run_once(|| Box::new(SerEngine::new(16)), 16, 0.0)),
        ("PSI", run_once(|| Box::new(PsiEngine::new(16, 3)), 16, 0.3)),
    ] {
        println!(
            "{:10} {:>9} {:>9} {:>12}",
            name, stats.committed, stats.aborted, stats.ops_executed
        );
    }
    println!();
}

fn bench_scheduler(c: &mut Criterion) {
    print_abort_table();

    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(15);
    for &objects in &[8usize, 32] {
        let w = random_mix(&mix(objects));
        let total_txs = (mix(objects).sessions * mix(objects).txs_per_session) as u64;
        group.throughput(Throughput::Elements(total_txs));
        group.bench_with_input(BenchmarkId::new("si", objects), &w, |b, w| {
            b.iter(|| {
                let mut s = Scheduler::new(SchedulerConfig { seed: 7, ..Default::default() });
                s.run(&mut SiEngine::new(objects), w).stats.committed
            })
        });
        group.bench_with_input(BenchmarkId::new("ssi", objects), &w, |b, w| {
            b.iter(|| {
                let mut s = Scheduler::new(SchedulerConfig { seed: 7, ..Default::default() });
                s.run(&mut SsiEngine::new(objects), w).stats.committed
            })
        });
        group.bench_with_input(BenchmarkId::new("ser", objects), &w, |b, w| {
            b.iter(|| {
                let mut s = Scheduler::new(SchedulerConfig { seed: 7, ..Default::default() });
                s.run(&mut SerEngine::new(objects), w).stats.committed
            })
        });
        group.bench_with_input(BenchmarkId::new("psi", objects), &w, |b, w| {
            b.iter(|| {
                let mut s = Scheduler::new(SchedulerConfig {
                    seed: 7,
                    background_probability: 0.3,
                    ..Default::default()
                });
                s.run(&mut PsiEngine::new(objects, 3), w).stats.committed
            })
        });
    }
    group.finish();
}

/// Fixed total committed-transaction budget for the scaling grid, split
/// evenly across threads so every cell does the same amount of work.
const GRID_TOTAL_TXS: usize = 4000;

fn grid_config(contention: &str, threads: usize, total_txs: usize, seed: u64) -> StressConfig {
    let per_thread = total_txs.div_ceil(threads);
    match contention {
        "low" => StressConfig::low_contention(threads, per_thread, seed),
        "high" => StressConfig::high_contention(threads, per_thread, seed),
        other => panic!("unknown contention level {other}"),
    }
}

/// Committed-transactions-per-second of `reps` repetitions of one cell,
/// sorted ascending; each repetition reseeds the workload.
fn cell_tps(config: &StressConfig, reps: usize) -> Vec<f64> {
    let mut tps: Vec<f64> = (0..reps)
        .map(|rep| {
            let mut c = *config;
            c.seed ^= (rep as u64) << 32;
            stress_history_only(&c, StressEngine::SingleLock).throughput_tps
        })
        .collect();
    tps.sort_by(f64::total_cmp);
    tps
}

fn bench_scaling(c: &mut Criterion) {
    // Criterion coverage of the stress harness itself: one small cell, so
    // regressions in the concurrent path show up in the ordinary
    // criterion report too. The full grid runs once afterwards and is
    // written to BENCH_engine.json.
    let threads = if smoke_mode() { 2 } else { 4 };
    let total = if smoke_mode() { 100 } else { 1000 };
    let config = grid_config("low", threads, total, 0xC0FFEE);
    let mut group = c.benchmark_group("stress_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total as u64));
    group.bench_function(BenchmarkId::new("single-lock", threads), |b| {
        b.iter(|| stress_history_only(&config, StressEngine::SingleLock).stats.committed)
    });
    group.finish();

    if !smoke_mode() {
        record_json();
    }
}

#[derive(Serialize)]
struct ScalingRow {
    contention: &'static str,
    threads: usize,
    total_txs: usize,
    reps: usize,
    tps_min: f64,
    tps_median: f64,
    tps_max: f64,
}

#[derive(Serialize)]
struct EngineBench {
    bench: &'static str,
    engine: &'static str,
    available_parallelism: usize,
    profile: &'static str,
    note: &'static str,
    results: Vec<ScalingRow>,
}

fn record_json() {
    let mut results = Vec::new();
    for (total_txs, reps) in [(GRID_TOTAL_TXS, 9usize), (1_000_000, 3)] {
        for contention in ["low", "high"] {
            for threads in [1usize, 2, 4, 8] {
                let config = grid_config(contention, threads, total_txs, 0x51AB);
                let tps = cell_tps(&config, reps);
                let row = ScalingRow {
                    contention,
                    threads,
                    total_txs,
                    reps,
                    tps_min: tps[0],
                    tps_median: tps[reps / 2],
                    tps_max: tps[reps - 1],
                };
                println!(
                    "stress grid: {total_txs}tx {contention}/{threads}t  \
                     median {:>9.0} tps  (min {:>9.0}, max {:>9.0}, {reps} reps)",
                    row.tps_median, row.tps_min, row.tps_max
                );
                results.push(row);
            }
        }
    }
    let report = EngineBench {
        bench: "engine_scaling",
        engine: "single global RwLock SI store (StressEngine::SingleLock)",
        available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
        profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        note: "committed transactions per second over the concurrent phase of \
               stress_history_only; min, median and max over an odd number \
               of reps, each reseeded; fixed total commit budget split \
               across threads",
        results,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("engine_throughput: could not write {path}: {e}");
            } else {
                println!("engine_throughput: wrote {path}");
            }
        }
        Err(e) => eprintln!("engine_throughput: serialization failed: {e}"),
    }
}

fn configured() -> Criterion {
    // Skip plot generation and keep windows short so the whole suite
    // reruns in minutes; pass your own --warm-up-time /
    // --measurement-time to override.
    Criterion::default()
        .without_plots()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .configure_from_args()
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_scheduler, bench_scaling
}
criterion_main!(benches);
