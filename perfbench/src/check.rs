//! `check-mixed` and `check-json`: generated histories with verdicts
//! known by construction, decided by si-solve.

use std::time::Duration;

use si_model::History;
use si_solve::report::solver_report;
use si_solve::{solve_traced, CheckVerdict, ClassReport, SolveBudget, SolveOutcome, SolverMode};
use si_telemetry::Telemetry;
use si_workloads::histgen::{generate, Anomaly, HistGen};

use crate::trace::Tracer;
use crate::{Batch, Certificate, RunConfig, Scale};

/// Seed of the `index`-th history of a run.
fn history_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index
}

/// `BENCH_check.json`'s grid shape at `n` transactions.
fn grid(n: usize, seed: u64, inject: Option<Anomaly>) -> HistGen {
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
        seed,
        inject,
    }
}

/// A small skewed history where half the writes repeat an existing
/// value: the shape that makes the solver search. At 100 transactions
/// over 10 objects the median seed takes a few hundred conflicts and
/// most seeds restart; effort is heavy-tailed across seeds, so each
/// batch holds [`HOTSPOTS`] of them.
fn hotspot(n: usize, seed: u64) -> HistGen {
    HistGen {
        sessions: 10,
        txs_per_session: n / 10,
        ops_per_tx: 4,
        objects: 10,
        read_ratio: 0.5,
        blind_write_ratio: 0.3,
        duplicate_ratio: 0.5,
        zipf_s: 0.9,
        seed,
        inject: None,
    }
}

/// Hot-spot histories per `check-mixed` batch.
const HOTSPOTS: u64 = 4;

fn generated(tracer: &Tracer, generate_time: &mut Duration, cfg: &HistGen) -> History {
    let (history, t) = tracer.call("workloads.generate", 0, || generate(cfg));
    *generate_time += t;
    history
}

/// Transactions of `history`, init excluded.
fn txs(history: &History) -> u64 {
    history.tx_count().saturating_sub(1) as u64
}

/// One `check-mixed` input.
struct MixedInput {
    history: History,
    /// Per-history solve-time metric.
    metric: &'static str,
    /// Known SI verdict.
    member: bool,
    /// A hot-spot history: its conflicts are counted on their own, and
    /// it is small enough for the dense certificate re-check.
    hotspot: bool,
}

pub(crate) struct Mixed {
    histories: Vec<MixedInput>,
}

impl Mixed {
    pub(crate) fn setup(run: &RunConfig, tracer: &Tracer) -> (Mixed, Duration) {
        let (n, n_hot) = match run.scale {
            Scale::Full => (50_000, 100),
            Scale::Smoke => (500, 50),
        };
        let mut generate_time = Duration::ZERO;
        let mut histories = Vec::new();
        for (index, (metric, inject, member)) in [
            ("solver.solve_s.clean", None, true),
            ("solver.solve_s.long_fork", Some(Anomaly::LongFork), false),
            ("solver.solve_s.write_skew", Some(Anomaly::WriteSkew), true),
            ("solver.solve_s.lost_update", Some(Anomaly::LostUpdate), false),
        ]
        .into_iter()
        .enumerate()
        {
            let cfg = grid(n, history_seed(run.seed, index as u64), inject);
            let history = generated(tracer, &mut generate_time, &cfg);
            histories.push(MixedInput { history, metric, member, hotspot: false });
        }
        for index in 4..4 + HOTSPOTS {
            let cfg = hotspot(n_hot, history_seed(run.seed, index));
            let history = generated(tracer, &mut generate_time, &cfg);
            // Warm-up: the search path, on the histories that search.
            let _ = tracer.call("solver.solve_traced", 0, || {
                solve_traced(
                    &history,
                    SolverMode::Si,
                    SolveBudget::default(),
                    &Telemetry::disabled(),
                )
            });
            histories.push(MixedInput {
                history,
                metric: "solver.solve_s.hotspot",
                member: true,
                hotspot: true,
            });
        }
        (Mixed { histories }, generate_time)
    }

    /// One operation per history: its SI verdict via `solve_traced`.
    pub(crate) fn batch<'a>(&'a self, tracer: &Tracer, run: &mut u64, batch: &mut Batch<'a>) {
        for h in &self.histories {
            let op = *run;
            *run += 1;
            batch.operation(tracer, op, |b| {
                let (solved, solve) = tracer.call("solver.solve_traced", op, || {
                    solve_traced(
                        &h.history,
                        SolverMode::Si,
                        SolveBudget::default(),
                        &Telemetry::disabled(),
                    )
                });
                b.verdict_time += solve;
                b.add(h.metric, solve.as_secs_f64());
                b.add("solver.solve_s", solve.as_secs_f64());
                b.add("solver.si_s", solve.as_secs_f64());
                let solved = solved.map_err(|e| e.to_string())?;
                b.add_solver_stats(&solved.stats);
                if h.hotspot {
                    b.add("solver.hotspot_conflicts", solved.stats.conflicts as f64);
                }
                match (&solved.outcome, h.member) {
                    (SolveOutcome::Sat(witness), true) => {
                        if h.hotspot {
                            b.certificates.push(Certificate {
                                op,
                                history: &h.history,
                                mode: SolverMode::Si,
                                witness: witness.clone(),
                            });
                        }
                    }
                    (SolveOutcome::Unsat(_), false) => {}
                    (_, member) => {
                        return Err(format!(
                            "{}: SI verdict {}, known {member}",
                            h.metric,
                            solved.outcome.is_member()
                        ))
                    }
                }
                Ok(txs(&h.history))
            });
        }
    }
}

/// One `check-json` input: the history and its JSON text.
struct JsonInput {
    history: History,
    text: String,
    decode_metric: &'static str,
    solve_metric: &'static str,
    psi_metric: &'static str,
}

pub(crate) struct Json {
    histories: Vec<JsonInput>,
}

/// The known verdicts of a history with a write skew injected into an
/// SI body: outside SER, inside SI and PSI.
const KNOWN: [(SolverMode, CheckVerdict); 3] = [
    (SolverMode::Ser, CheckVerdict::NonMember),
    (SolverMode::Si, CheckVerdict::Member),
    (SolverMode::Psi, CheckVerdict::Member),
];

impl Json {
    pub(crate) fn setup(run: &RunConfig, tracer: &Tracer) -> (Json, Duration) {
        let (small, large, warm) = match run.scale {
            Scale::Full => (2_000, 4_000, 600),
            Scale::Smoke => (100, 200, 40),
        };
        let mut generate_time = Duration::ZERO;
        let mut histories = Vec::new();
        for (index, n, decode_metric, solve_metric, psi_metric) in [
            (0, small, "model.decode_s.small", "solver.solve_s.small", "solver.psi_s.small"),
            (1, large, "model.decode_s.large", "solver.solve_s.large", "solver.psi_s.large"),
        ] {
            let cfg = grid(n, history_seed(run.seed, index), Some(Anomaly::WriteSkew));
            let history = generated(tracer, &mut generate_time, &cfg);
            let (text, _) = tracer.call("model.encode", 0, || {
                serde_json::to_string(&history).expect("histories serialise")
            });
            histories.push(JsonInput { history, text, decode_metric, solve_metric, psi_metric });
        }
        // Warm-up: the decoder and all three modes on a small history.
        let cfg = grid(warm, history_seed(run.seed, 2), Some(Anomaly::WriteSkew));
        let history = generated(tracer, &mut generate_time, &cfg);
        let text = serde_json::to_string(&history).expect("histories serialise");
        let (decoded, _) =
            tracer.call("model.decode", 0, || serde_json::from_str::<History>(&text));
        let decoded = decoded.expect("the warm-up history decodes");
        tracer.call("solver.solver_report", 0, || solver_report(&decoded, SolveBudget::default()));
        (Json { histories }, generate_time)
    }

    /// One operation per history: decode its JSON text, then decide SER,
    /// SI and PSI. Untraced this is the checker's `solver_report`; traced,
    /// the three classes are solved one by one so each gets a span.
    pub(crate) fn batch<'a>(&'a self, tracer: &Tracer, run: &mut u64, batch: &mut Batch<'a>) {
        for h in &self.histories {
            let op = *run;
            *run += 1;
            batch.operation(tracer, op, |b| {
                let (decoded, decode) =
                    tracer.call("model.decode", op, || serde_json::from_str::<History>(&h.text));
                b.verdict_time += decode;
                b.add("model.decode_s", decode.as_secs_f64());
                b.add(h.decode_metric, decode.as_secs_f64());
                b.add("model.decode_bytes", h.text.len() as f64);
                let decoded = decoded.map_err(|e| format!("decode: {e:?}"))?;
                if decoded != h.history {
                    return Err("decoded history differs from the original".to_string());
                }

                let (classes, solve) = if tracer.enabled() {
                    per_class(tracer, op, &decoded, h.psi_metric, b)
                } else {
                    let (report, t) = tracer.call("solver.solver_report", op, || {
                        solver_report(&decoded, SolveBudget::default())
                    });
                    (report.classes, t)
                };
                b.verdict_time += solve;
                b.add("solver.solve_s", solve.as_secs_f64());
                b.add(h.solve_metric, solve.as_secs_f64());

                let verdicts: Vec<_> = classes.iter().map(|c| (c.mode, c.verdict)).collect();
                if verdicts != KNOWN {
                    return Err(format!("verdicts {verdicts:?}, known {KNOWN:?}"));
                }
                for class in &classes {
                    if let Some(stats) = &class.stats {
                        b.add_solver_stats(stats);
                    }
                    if class.mode == SolverMode::Ser {
                        continue;
                    }
                    match &class.outcome {
                        // `decoded == h.history`, so the original stands in.
                        Some(SolveOutcome::Sat(witness)) => b.certificates.push(Certificate {
                            op,
                            history: &h.history,
                            mode: class.mode,
                            witness: witness.clone(),
                        }),
                        _ => return Err(format!("{} member without a witness", class.mode)),
                    }
                }
                Ok(txs(&decoded))
            });
        }
    }
}

/// Solves each class separately with `solve_traced`, one span and one
/// per-class time each (PSI also under `psi_metric`), and returns the
/// same reports `solver_report` would.
fn per_class(
    tracer: &Tracer,
    op: u64,
    history: &History,
    psi_metric: &'static str,
    b: &mut Batch<'_>,
) -> (Vec<ClassReport>, Duration) {
    let mut total = Duration::ZERO;
    let classes = KNOWN
        .iter()
        .map(|&(mode, _)| {
            let (solved, t) = tracer.call("solver.solve_traced", op, || {
                solve_traced(history, mode, SolveBudget::default(), &Telemetry::disabled())
            });
            total += t;
            match mode {
                SolverMode::Ser => b.add("solver.ser_s", t.as_secs_f64()),
                SolverMode::Si => b.add("solver.si_s", t.as_secs_f64()),
                SolverMode::Psi => {
                    b.add("solver.psi_s", t.as_secs_f64());
                    b.add(psi_metric, t.as_secs_f64());
                }
            }
            match solved {
                Ok(r) => ClassReport {
                    mode,
                    verdict: if r.outcome.is_member() {
                        CheckVerdict::Member
                    } else {
                        CheckVerdict::NonMember
                    },
                    outcome: Some(r.outcome),
                    stats: Some(r.stats),
                    nodes_expanded: None,
                    depth_reached: None,
                },
                Err(e) => ClassReport {
                    mode,
                    verdict: CheckVerdict::Exhausted,
                    outcome: None,
                    stats: Some(e.stats),
                    nodes_expanded: None,
                    depth_reached: None,
                },
            }
        })
        .collect();
    (classes, total)
}
