//! One benchmark for the SI pipeline: MVCC engine → recorded history →
//! si-solve verdict, and the checker's JSON → verdict path.
//!
//! The library is driven only through its public functions
//! (`si_mvcc::stress_history_only`, `si_workloads::histgen::generate`,
//! `serde_json::from_str::<History>`, `si_solve::solve_traced`,
//! `si_solve::report::solver_report`), and every call into them is timed
//! from here, so nothing inside the program changes. `NOTES.md` records
//! why each workload exists and which end-to-end metric each per-layer
//! metric should move.

mod check;
mod stress;
pub mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use si_core::{check_psi, check_ser, check_si};
use si_model::History;
use si_solve::{SolveWitness, SolverMode, SolverStats};

use crate::trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two client threads, uniform access over 1024 objects.
    StressUniform,
    /// Two client threads, 80% of steps on four hot objects.
    StressHotspot,
    /// Generated histories, SAT and UNSAT, one SI verdict each.
    CheckMixed,
    /// The checker CLI's path: JSON text → SER/SI/PSI report.
    CheckJson,
}

impl Workload {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Workload; 4] = [
        Workload::StressUniform,
        Workload::StressHotspot,
        Workload::CheckMixed,
        Workload::CheckJson,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StressUniform => "stress-uniform",
            Workload::StressHotspot => "stress-hotspot",
            Workload::CheckMixed => "check-mixed",
            Workload::CheckJson => "check-json",
        }
    }

    /// The workload with command-line name `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the measured ones, or tiny ones for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures at.
    Full,
    /// Tiny sizes that run every workload and output check in moments.
    Smoke,
}

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted in the measured window: one operation brings
    /// one history to a verdict.
    pub attempted: u64,
    /// Operations that panicked, ran out of budget, reached a verdict
    /// other than the known one, or produced a certificate that failed
    /// its re-check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run).
    pub metrics: Vec<Metric>,
    /// Spans of the traced run (empty when untraced).
    pub spans: Vec<trace::Span>,
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 3] =
    [("verified_tps", "tx/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by every workload with tracing on. A
/// layer a workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("mvcc.exec_s", "s"),
    ("mvcc.record_s", "s"),
    ("mvcc.commit_tps", "tx/s"),
    ("mvcc.commit_tps_1thread", "tx/s"),
    ("mvcc.thread_us_per_commit", "us"),
    ("mvcc.commit_yield", "ratio"),
    ("mvcc.refused", "count"),
    ("solver.solve_s", "s"),
    ("solver.solve_s.stress", "s"),
    ("solver.solve_s.clean", "s"),
    ("solver.solve_s.long_fork", "s"),
    ("solver.solve_s.write_skew", "s"),
    ("solver.solve_s.lost_update", "s"),
    ("solver.solve_s.hotspot", "s"),
    ("solver.solve_s.small", "s"),
    ("solver.solve_s.large", "s"),
    ("solver.ser_s", "s"),
    ("solver.si_s", "s"),
    ("solver.psi_s", "s"),
    ("solver.psi_s.small", "s"),
    ("solver.psi_s.large", "s"),
    ("solver.ns_per_theory_edge", "ns"),
    ("solver.vars", "count"),
    ("solver.wr_vars", "count"),
    ("solver.pair_vars", "count"),
    ("solver.segments", "count"),
    ("solver.forced_reads", "count"),
    ("solver.theory_edges", "count"),
    ("solver.decisions", "count"),
    ("solver.propagations", "count"),
    ("solver.conflicts", "count"),
    ("solver.learned", "count"),
    ("solver.restarts", "count"),
    ("solver.hotspot_conflicts", "count"),
    ("model.decode_s", "s"),
    ("model.decode_s.small", "s"),
    ("model.decode_s.large", "s"),
    ("model.decode_bytes", "B"),
    ("model.decode_mb_per_s", "MB/s"),
    ("workloads.generate_s", "s"),
    ("core.recheck_s", "s"),
    ("core.rechecked", "count"),
    ("bench.verified_tps", "tx/s"),
    ("bench.batches", "count"),
    ("trace.wall_s", "s"),
    ("trace.gap_s", "s"),
    ("trace.self_s.bench", "s"),
    ("trace.self_s.workloads", "s"),
    ("trace.self_s.model", "s"),
    ("trace.self_s.mvcc", "s"),
    ("trace.self_s.solver", "s"),
    ("trace.self_s.core", "s"),
    ("trace.spans", "count"),
    ("trace.span_cost_ns", "ns"),
    ("trace.overhead_s", "s"),
];

/// Set-up runs at least this many times; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
/// ... and, when set-up is quick, until this much time has gone into it
/// (or the cap below), so short set-ups still give a steady median.
const SETUP_MIN_TIME: Duration = Duration::from_secs(2);
const SETUP_MAX_REPS: usize = 15;

/// A SAT certificate kept for its re-check after the measured window.
struct Certificate<'a> {
    /// The operation that produced it.
    op: u64,
    history: &'a History,
    mode: SolverMode,
    witness: SolveWitness,
}

/// What one batch of operations measured. A batch is the unit the
/// closed loop repeats: one stress history, or one pass over a check
/// workload's histories.
#[derive(Default)]
struct Batch<'a> {
    attempted: u64,
    failed: u64,
    /// Transactions (init excluded) of the histories brought to a
    /// correct verdict.
    verified_txs: u64,
    /// Wall time of the timed library calls on the verdict path.
    verdict_time: Duration,
    /// Per-layer values of this batch, by metric name.
    layers: BTreeMap<&'static str, f64>,
    /// Certificates small enough for the dense re-check.
    certificates: Vec<Certificate<'a>>,
}

impl<'a> Batch<'a> {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_insert(0.0) += value;
    }

    fn add_solver_stats(&mut self, stats: &SolverStats) {
        for (name, value) in [
            ("solver.vars", stats.vars),
            ("solver.wr_vars", stats.wr_vars),
            ("solver.pair_vars", stats.pair_vars),
            ("solver.segments", stats.segments),
            ("solver.forced_reads", stats.forced_reads),
            ("solver.theory_edges", stats.theory_edges),
            ("solver.decisions", stats.decisions),
            ("solver.propagations", stats.propagations),
            ("solver.conflicts", stats.conflicts),
            ("solver.learned", stats.learned),
            ("solver.restarts", stats.restarts),
        ] {
            self.add(name, value as f64);
        }
    }

    /// Runs one operation: `body` returns the transactions it brought
    /// to a correct verdict, or why the verdict or an output check was
    /// wrong. A panic counts as a failure too.
    fn operation(
        &mut self,
        tracer: &Tracer,
        op: u64,
        body: impl FnOnce(&mut Batch<'a>) -> Result<u64, String>,
    ) {
        self.attempted += 1;
        let (outcome, _) =
            tracer.call("bench.op", op, || catch_unwind(AssertUnwindSafe(|| body(self))));
        match outcome {
            Ok(Ok(txs)) => self.verified_txs += txs,
            Ok(Err(why)) => {
                self.failed += 1;
                eprintln!("operation {op} failed: {why}");
            }
            Err(_) => {
                self.failed += 1;
                eprintln!("operation {op} panicked");
            }
        }
    }
}

/// Re-checks every certificate with the dense graph checkers
/// (`SolveWitness::to_graph`, then the class's graph check). A
/// certificate equal to one already checked for the same history and
/// class has the same answer and is not rebuilt. Returns the operations
/// whose certificate failed, the time spent and the number rebuilt.
fn recheck(tracer: &Tracer, certificates: &[Certificate<'_>]) -> (u64, Duration, u64) {
    let mut checked: Vec<(&Certificate<'_>, bool)> = Vec::new();
    let (mut failed, mut time, mut rebuilt) = (0, Duration::ZERO, 0);
    for c in certificates {
        let seen = checked.iter().find(|(d, _)| {
            std::ptr::eq(d.history, c.history)
                && d.mode == c.mode
                && d.witness.wr == c.witness.wr
                && d.witness.ww == c.witness.ww
        });
        let ok = match seen {
            Some(&(_, ok)) => ok,
            None => {
                let (result, t) = tracer.call("bench.recheck", c.op, || {
                    let (graph, _) =
                        tracer.call("solver.to_graph", c.op, || c.witness.to_graph(c.history));
                    let graph =
                        graph.map_err(|e| format!("witness does not rebuild a graph: {e:?}"))?;
                    let check = match c.mode {
                        SolverMode::Ser => check_ser,
                        SolverMode::Si => check_si,
                        SolverMode::Psi => check_psi,
                    };
                    let (verdict, _) = tracer.call("core.check", c.op, || check(&graph));
                    verdict.map_err(|e| format!("{} certificate fails its re-check: {e:?}", c.mode))
                });
                time += t;
                rebuilt += 1;
                if let Err(why) = &result {
                    eprintln!("operation {}: {why}", c.op);
                }
                checked.push((c, result.is_ok()));
                result.is_ok()
            }
        };
        if !ok {
            failed += 1;
        }
    }
    (failed, time, rebuilt)
}

/// Workload state built by set-up.
enum State {
    Stress(stress::Stress),
    Mixed(check::Mixed),
    Json(check::Json),
}

impl State {
    /// Builds the inputs; returns them with the time spent generating
    /// histories.
    fn setup(config: &RunConfig, tracer: &Tracer) -> (State, Duration) {
        match config.workload {
            Workload::StressUniform | Workload::StressHotspot => {
                (State::Stress(stress::Stress::setup(config, tracer)), Duration::ZERO)
            }
            Workload::CheckMixed => {
                let (state, generate) = check::Mixed::setup(config, tracer);
                (State::Mixed(state), generate)
            }
            Workload::CheckJson => {
                let (state, generate) = check::Json::setup(config, tracer);
                (State::Json(state), generate)
            }
        }
    }

    fn batch<'a>(&'a self, tracer: &Tracer, run: &mut u64, batch: &mut Batch<'a>) {
        match self {
            State::Stress(s) => s.batch(tracer, run, batch),
            State::Mixed(s) => s.batch(tracer, run, batch),
            State::Json(s) => s.batch(tracer, run, batch),
        }
    }
}

/// Runs the benchmark. `process_start` is when the process started:
/// the first set-up is timed from there.
pub fn run(config: &RunConfig, process_start: Instant) -> Report {
    let tracer = Tracer::new(config.trace, process_start);

    let mut setups = Vec::new();
    let mut generates = Vec::new();
    let mut state = None;
    let mut setup_start = process_start;
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && process_start.elapsed() < SETUP_MIN_TIME)
    {
        // Free the previous inputs first so peak memory is one set's.
        drop(state.take());
        let ((built, generate), _) =
            tracer.call("bench.setup", 0, || State::setup(config, &tracer));
        setups.push(setup_start.elapsed().as_secs_f64());
        generates.push(generate.as_secs_f64());
        state = Some(built);
        setup_start = Instant::now();
    }
    let state = state.expect("at least one set-up ran");

    let window = Duration::from_secs_f64(config.seconds);
    let start = Instant::now();
    let mut run = 1;
    let mut batches: Vec<Batch<'_>> = Vec::new();
    while batches.is_empty() || start.elapsed() < window {
        let mut batch = Batch::default();
        state.batch(&tracer, &mut run, &mut batch);
        batches.push(batch);
    }

    let certificates: Vec<_> = batches.iter_mut().flat_map(|b| b.certificates.drain(..)).collect();
    let (recheck_failed, recheck_time, rechecked) = recheck(&tracer, &certificates);

    let attempted = batches.iter().map(|b| b.attempted).sum();
    let failed = batches.iter().map(|b| b.failed).sum::<u64>() + recheck_failed;
    // The median batch, so one batch slowed by the host does not move
    // the figure.
    let rates: Vec<f64> = batches
        .iter()
        .map(|b| ratio(b.verified_txs as f64, b.verdict_time.as_secs_f64()))
        .collect();
    let verified_tps = median(&rates);

    let metrics = if config.trace {
        let probe = match &state {
            State::Stress(s) => s.single_thread_probe(&tracer, run),
            _ => Ok(0.0),
        };
        let commit_tps_1thread = probe.unwrap_or_else(|why| {
            eprintln!("single-thread probe failed: {why}");
            f64::NAN
        });
        let whole_run = [
            ("mvcc.commit_tps_1thread", commit_tps_1thread),
            ("workloads.generate_s", median(&generates)),
            ("core.recheck_s", recheck_time.as_secs_f64()),
            ("core.rechecked", rechecked as f64),
            ("bench.verified_tps", verified_tps),
            ("bench.batches", batches.len() as f64),
        ];
        per_layer(&tracer, process_start, &batches, &whole_run)
    } else {
        let values = [verified_tps, median(&setups), peak_rss_mb()];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };

    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("a metric is not a finite number");
    }
    Report { correct: failed == 0 && finite, attempted, failed, metrics, spans: tracer.spans() }
}

/// The per-layer metrics: whole-run values first, trace figures from
/// the spans, everything else the median over batches.
fn per_layer(
    tracer: &Tracer,
    process_start: Instant,
    batches: &[Batch<'_>],
    whole_run: &[(&str, f64)],
) -> Vec<Metric> {
    let spans = tracer.spans();
    let wall = process_start.elapsed().as_secs_f64();
    let root = trace::root_time(&spans).as_secs_f64();
    let self_times = trace::self_times(&spans);
    let span_cost_ns = trace::span_cost_ns(100_000);

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.wall_s" => wall,
                "trace.gap_s" => wall - root,
                "trace.spans" => spans.len() as f64,
                "trace.span_cost_ns" => span_cost_ns,
                "trace.overhead_s" => spans.len() as f64 * span_cost_ns * 1e-9,
                _ => match (
                    whole_run.iter().find(|(n, _)| *n == name),
                    name.strip_prefix("trace.self_s."),
                ) {
                    (Some(&(_, v)), _) => v,
                    (None, Some(layer)) => self_times.get(layer).map_or(0.0, Duration::as_secs_f64),
                    (None, None) => median_of(batches, name),
                },
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// Median over batches of a per-batch value; ratios are formed per
/// batch first.
fn median_of(batches: &[Batch<'_>], name: &str) -> f64 {
    let get = |b: &Batch<'_>, key: &str| b.layers.get(key).copied().unwrap_or(0.0);
    let values: Vec<f64> = batches
        .iter()
        .map(|b| match name {
            "mvcc.commit_tps" => ratio(get(b, "mvcc.committed"), get(b, "mvcc.exec_s")),
            "mvcc.thread_us_per_commit" => {
                1e6 * ratio(get(b, "mvcc.thread_s"), get(b, "mvcc.committed"))
            }
            "mvcc.commit_yield" => {
                ratio(get(b, "mvcc.committed"), get(b, "mvcc.committed") + get(b, "mvcc.refused"))
            }
            "solver.ns_per_theory_edge" => {
                1e9 * ratio(get(b, "solver.solve_s"), get(b, "solver.theory_edges"))
            }
            "model.decode_mb_per_s" => {
                1e-6 * ratio(get(b, "model.decode_bytes"), get(b, "model.decode_s"))
            }
            _ => get(b, name),
        })
        .collect();
    median(&values)
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of `values` (0 for none).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}
