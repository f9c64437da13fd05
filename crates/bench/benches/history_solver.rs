//! Black-box membership checking at scale: the CDCL solver (`si-solve`)
//! against the backtracking enumerator (`si-core`) on the same
//! histories.
//!
//! Three history sources:
//!
//! * `histgen` clean runs — SI-legal by construction (sequential
//!   snapshot simulation with first-committer-wins), sized along a
//!   `10^2 → 10^5` transaction grid;
//! * the same runs with a seeded long-fork cluster — outside `HistSI`,
//!   so the checkers must refute;
//! * histories recorded straight from single-lock stress runs (the SI
//!   store driven by real threads), checked post-hoc.
//!
//! The enumerator is raced head-to-head only on sizes it completes
//! (about 10–20 transactions on this workload — `WW` permutation
//! branching kills it shortly after). On the grid it runs under
//! per-size node budgets calibrated so a single exhaustion attempt
//! stays seconds-scale: its per-node cost itself grows with history
//! size (each node feeds an object's full `WR`/`WW`/`RW` edge set into
//! the incremental class), so at 10^5 transactions even the *attempt*
//! is the story — ~76 ms per node, a default 5M-node budget would take
//! days to exhaust. A measured run (release build, or `--measure`)
//! rewrites `BENCH_check.json` at the repository root with the full
//! grid; see EXPERIMENTS.md.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use serde::Serialize;
use si_core::{history_membership, SearchBudget};
use si_execution::SpecModel;
use si_model::History;
use si_mvcc::{stress_history_only, StressConfig, StressEngine};
use si_solve::{solve_traced, SolveBudget, SolverMode, SolverStats};
use si_telemetry::Telemetry;
use si_workloads::histgen::{generate, Anomaly, HistGen};

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

/// The grid workload: moderate skew and a low blind-write ratio keep
/// per-object version chains short, so the pairwise `WW` encoding stays
/// near-linear in history size (hot-spot workloads are a different,
/// intrinsically quadratic regime — see DESIGN.md).
fn grid_config(n: usize, inject: Option<Anomaly>) -> HistGen {
    let sessions = 20.min(n / 2).max(1);
    HistGen {
        sessions,
        txs_per_session: n / sessions,
        ops_per_tx: 4,
        objects: (n / 5).max(4),
        read_ratio: 0.5,
        blind_write_ratio: 0.05,
        duplicate_ratio: 0.05,
        zipf_s: 0.5,
        seed: 0xC0DE ^ n as u64,
        inject,
    }
}

/// One committed-transaction history off the single-lock stress store.
fn stress_history(txs_per_thread: usize, seed: u64) -> History {
    let config = StressConfig::low_contention(4, txs_per_thread, seed);
    stress_history_only(&config, StressEngine::SingleLock).history
}

fn bench(c: &mut Criterion) {
    let sizes: &[usize] = if smoke_mode() { &[60, 120] } else { &[100, 1000] };
    let mut group = c.benchmark_group("history_solver");
    group.sample_size(10);
    for &n in sizes {
        let clean = generate(&grid_config(n, None));
        let forked = generate(&grid_config(n, Some(Anomaly::LongFork)));
        group.bench_with_input(BenchmarkId::new("si-solve/clean", n), &clean, |b, h| {
            b.iter(|| solve_budgeted(h).0)
        });
        group.bench_with_input(BenchmarkId::new("si-solve/long-fork", n), &forked, |b, h| {
            b.iter(|| solve_budgeted(h).0)
        });
    }
    // Head-to-head only where the enumerator completes: its WW
    // permutation branching explodes around 20 transactions on this
    // workload.
    for &n in &[12usize, 16] {
        let clean = generate(&grid_config(n, None));
        group.bench_with_input(BenchmarkId::new("enumerator/clean", n), &clean, |b, h| {
            b.iter(|| enumerate_budgeted(h, SearchBudget::default()).0)
        });
        group.bench_with_input(BenchmarkId::new("si-solve/clean", n), &clean, |b, h| {
            b.iter(|| solve_budgeted(h).0)
        });
    }
    group.finish();

    if !smoke_mode() {
        record_json();
    }
}

#[derive(Serialize)]
enum Verdict {
    Member,
    NonMember,
    Exhausted,
}

#[derive(Serialize)]
struct CheckRow {
    source: &'static str,
    case: &'static str,
    engine: &'static str,
    txs: usize,
    verdict: Verdict,
    seconds: f64,
    /// si-solve only: search effort (`null` on enumerator rows).
    solver: Option<SolverStats>,
    /// Enumerator only: the node budget this row ran under.
    budget_nodes: Option<u64>,
    /// Enumerator only: nodes expanded when the budget died.
    nodes_expanded: Option<u64>,
}

#[derive(Serialize)]
struct CheckBench {
    bench: &'static str,
    model: &'static str,
    note: &'static str,
    results: Vec<CheckRow>,
}

/// Per-size enumerator node budget for the grid rows, calibrated from
/// measured per-node cost (~8 µs at 10^2 up to ~76 ms at 10^5 — each
/// node feeds a whole object's edges) so one exhaustion attempt stays
/// around ten seconds of wall clock.
fn enum_budget(txs: usize) -> SearchBudget {
    let max_nodes = match txs {
        0..=200 => 1_000_000,
        201..=2_000 => 200_000,
        2_001..=20_000 => 10_000,
        _ => 200,
    };
    SearchBudget { max_nodes }
}

/// Solver verdict under a generous (effectively unlimited) budget.
fn solve_budgeted(h: &History) -> (Verdict, Option<SolverStats>) {
    match solve_traced(h, SolverMode::Si, SolveBudget::default(), &Telemetry::disabled()) {
        Ok(r) => {
            let v = if r.outcome.is_member() { Verdict::Member } else { Verdict::NonMember };
            (v, Some(r.stats))
        }
        Err(e) => (Verdict::Exhausted, Some(e.stats)),
    }
}

/// Enumerator verdict under `budget`.
fn enumerate_budgeted(h: &History, budget: SearchBudget) -> (Verdict, Option<u64>) {
    match history_membership(SpecModel::Si, h, &budget) {
        Ok(true) => (Verdict::Member, None),
        Ok(false) => (Verdict::NonMember, None),
        Err(e) => (Verdict::Exhausted, Some(e.nodes_expanded)),
    }
}

fn push_both(results: &mut Vec<CheckRow>, source: &'static str, case: &'static str, h: &History) {
    let start = Instant::now();
    let (verdict, solver) = solve_budgeted(h);
    results.push(CheckRow {
        source,
        case,
        engine: "si-solve",
        txs: h.tx_count(),
        verdict,
        seconds: start.elapsed().as_secs_f64(),
        solver,
        budget_nodes: None,
        nodes_expanded: None,
    });
    let budget = enum_budget(h.tx_count());
    let start = Instant::now();
    let (verdict, nodes_expanded) = enumerate_budgeted(h, budget);
    results.push(CheckRow {
        source,
        case,
        engine: "enumerator",
        txs: h.tx_count(),
        verdict,
        seconds: start.elapsed().as_secs_f64(),
        solver: None,
        budget_nodes: Some(budget.max_nodes),
        nodes_expanded,
    });
}

fn record_json() {
    let mut results = Vec::new();
    for n in [16, 100, 1_000, 10_000, 100_000] {
        let clean = generate(&grid_config(n, None));
        push_both(&mut results, "histgen", "clean", &clean);
        let forked = generate(&grid_config(n, Some(Anomaly::LongFork)));
        push_both(&mut results, "histgen", "long-fork", &forked);
    }
    for txs_per_thread in [500, 5_000] {
        let h = stress_history(txs_per_thread, 0x5EED ^ txs_per_thread as u64);
        push_both(&mut results, "single-lock-stress", "clean", &h);
    }
    let report = CheckBench {
        bench: "history_solver",
        model: "SI",
        note: "one-shot wall-clock membership checks; histgen rows use the \
               10^2..10^5 grid workload (zipf 0.5, 5% blind writes), \
               single-lock-stress rows replay single-lock stress recordings; \
               enumerator rows run under per-size node budgets (see \
               budget_nodes) because its per-node cost grows with history \
               size — exhausting the default 5M-node budget at 10^5 txs \
               would take days",
        results,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_check.json");
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("history_solver: could not write {path}: {e}");
            } else {
                println!("history_solver: wrote {path}");
            }
        }
        Err(e) => eprintln!("history_solver: serialization failed: {e}"),
    }
}

fn configured() -> Criterion {
    // 1-vCPU container: skip plot generation and keep windows short so the
    // whole suite reruns in minutes; pass your own --warm-up-time /
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
    targets = bench
}
criterion_main!(benches);
