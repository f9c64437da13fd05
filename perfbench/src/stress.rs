//! `stress-uniform` and `stress-hotspot`: real client threads on the
//! single-lock SI engine, the recorded history, and its SI verdict.

use si_mvcc::{stress_history_only, StressConfig, StressEngine};
use si_solve::{solve_traced, SolveBudget, SolveOutcome, SolverMode};
use si_telemetry::Telemetry;

use crate::trace::Tracer;
use crate::{Batch, RunConfig, Scale, Workload};

/// Client threads, one session each.
const THREADS: usize = 2;

/// The only back-end named here: the others may be deleted.
const ENGINE: StressEngine = StressEngine::SingleLock;

pub(crate) struct Stress {
    config: StressConfig,
}

impl Stress {
    pub(crate) fn setup(run: &RunConfig, tracer: &Tracer) -> Stress {
        let per_thread = match run.scale {
            Scale::Full => 50_000,
            Scale::Smoke => 500,
        };
        let shape = match run.workload {
            Workload::StressHotspot => StressConfig::high_contention,
            _ => StressConfig::low_contention,
        };
        let config = shape(THREADS, per_thread, run.seed);

        // Warm-up: one small run through the whole verdict path, so the
        // allocator and thread start-up are warm before timing.
        let warm = StressConfig { txs_per_thread: (per_thread / 5).max(1), ..config };
        let (recorded, _) =
            tracer.call("mvcc.stress_history_only", 0, || stress_history_only(&warm, ENGINE));
        let _ = tracer.call("solver.solve_traced", 0, || {
            solve_traced(
                &recorded.history,
                SolverMode::Si,
                SolveBudget::default(),
                &Telemetry::disabled(),
            )
        });
        Stress { config }
    }

    /// One operation: a stress run of `threads × txs_per_thread` commits,
    /// then the SI verdict on its recording.
    pub(crate) fn batch(&self, tracer: &Tracer, run: &mut u64, batch: &mut Batch<'_>) {
        let op = *run;
        *run += 1;
        let config = &self.config;
        batch.operation(tracer, op, |b| {
            let (recorded, call) =
                tracer.call("mvcc.stress_history_only", op, || stress_history_only(config, ENGINE));
            let (solved, solve) = tracer.call("solver.solve_traced", op, || {
                solve_traced(
                    &recorded.history,
                    SolverMode::Si,
                    SolveBudget::default(),
                    &Telemetry::disabled(),
                )
            });
            b.verdict_time += call + solve;

            let stats = &recorded.stats;
            let exec = recorded.elapsed.as_secs_f64();
            b.add("mvcc.exec_s", exec);
            b.add("mvcc.record_s", (call - recorded.elapsed).as_secs_f64());
            b.add("mvcc.thread_s", exec * config.threads as f64);
            b.add("mvcc.committed", stats.committed as f64);
            b.add("mvcc.refused", stats.aborted as f64);
            b.add("solver.solve_s", solve.as_secs_f64());
            b.add("solver.solve_s.stress", solve.as_secs_f64());
            b.add("solver.si_s", solve.as_secs_f64());

            let quota = (config.threads * config.txs_per_thread) as u64;
            if stats.committed != quota {
                return Err(format!("committed {} of a quota of {quota}", stats.committed));
            }
            let txs = recorded.history.tx_count() as u64;
            if txs != quota + 1 {
                return Err(format!("history holds {txs} transactions, want {}", quota + 1));
            }
            let solved = solved.map_err(|e| e.to_string())?;
            b.add_solver_stats(&solved.stats);
            match solved.outcome {
                SolveOutcome::Sat(_) => Ok(quota),
                SolveOutcome::Unsat(_) => Err("engine recording is not in HistSI".to_string()),
            }
        });
    }

    /// Commit rate of the same total quota on one thread, for comparison
    /// with the two-thread rate (the engine does not scale to 2 cores).
    pub(crate) fn single_thread_probe(&self, tracer: &Tracer, run: u64) -> Result<f64, String> {
        let quota = self.config.threads * self.config.txs_per_thread;
        let one = StressConfig { threads: 1, txs_per_thread: quota, ..self.config };
        let (recorded, _) =
            tracer.call("mvcc.stress_history_only", run, || stress_history_only(&one, ENGINE));
        if recorded.stats.committed != quota as u64 {
            return Err(format!("committed {} of a quota of {quota}", recorded.stats.committed));
        }
        Ok(recorded.throughput_tps)
    }
}
