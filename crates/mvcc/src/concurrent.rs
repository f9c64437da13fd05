//! Concurrent stress harness: many OS threads hammering one SI store.
//!
//! The deterministic [`Scheduler`](crate::Scheduler) is the primary
//! validation tool; this module complements it with *real-concurrency*
//! runs — threads interleave nondeterministically and the run is
//! validated after the fact exactly like a scheduled run (the paper's
//! soundness theorems are what license checking post hoc instead of
//! serialising the engine).
//!
//! The store is the whole [`MultiVersionStore`] behind one [`RwLock`]:
//! reads take it shared, commits take it exclusive and run the same
//! first-committer-wins routine as [`SiEngine`](crate::SiEngine)
//! ([`MultiVersionStore::commit_writes`]). Snapshots are a lock-free
//! acquire load of a commit counter that each commit publishes with
//! release ordering after its installs, and every commit record is
//! appended to one recorder `Mutex` inside the commit path. Each
//! record's snapshot is a constant-size [`VisibleSet::Prefix`], so a
//! 10^5-commit run does not materialise `Θ(n²)` sequence numbers.
//!
//! [`stress`] runs a configurable workload (threads × contention ×
//! read/write mix) and reports the validated [`RunResult`] plus
//! wall-clock throughput of the execution phase; [`stress_traced`] does
//! the same with a [`Telemetry`] handle attached, so the real threads
//! emit the same per-step event stream as the deterministic engines;
//! [`stress_history_only`] records the history alone for runs too large
//! for ground-truth relations.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use si_model::{History, Obj, Op, Value};
use si_telemetry::{AbortCause, Event, Snapshot, Telemetry};

use crate::recorder::{CommittedTx, Recorder, RunResult, RunStats, VisibleSet};
use crate::store::{MultiVersionStore, Version};

/// Workload shape for [`stress`]: how many threads, how much work, how
/// skewed the object accesses, how write-heavy the transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressConfig {
    /// Objects in the store.
    pub object_count: usize,
    /// OS threads; each thread is one session.
    pub threads: usize,
    /// Transactions each thread must *commit* (aborts are retried).
    pub txs_per_thread: usize,
    /// Read-modify-write steps per transaction.
    pub ops_per_tx: usize,
    /// Probability that a step writes back `value + 1` after reading.
    pub write_ratio: f64,
    /// Probability that a step targets the hot set instead of the whole
    /// object space (0.0 = uniform).
    pub hot_ratio: f64,
    /// Size of the hot set (objects `0..hot_objects`).
    pub hot_objects: usize,
    /// Probability a transaction is abandoned mid-flight (failure
    /// injection; abandoned attempts do not count towards the quota, so
    /// this must stay below 1).
    pub abort_ratio: f64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl StressConfig {
    /// Low contention: uniform access over a wide object space, so
    /// first-committer-wins conflicts are rare and parallelism is real.
    pub fn low_contention(threads: usize, txs_per_thread: usize, seed: u64) -> Self {
        StressConfig {
            object_count: 1024,
            threads,
            txs_per_thread,
            ops_per_tx: 4,
            write_ratio: 0.5,
            hot_ratio: 0.0,
            hot_objects: 0,
            abort_ratio: 0.02,
            seed,
        }
    }

    /// High contention: most steps hit a four-object hot set, so commit
    /// validation conflicts (and retries) dominate.
    pub fn high_contention(threads: usize, txs_per_thread: usize, seed: u64) -> Self {
        StressConfig {
            object_count: 64,
            threads,
            txs_per_thread,
            ops_per_tx: 4,
            write_ratio: 0.5,
            hot_ratio: 0.8,
            hot_objects: 4,
            abort_ratio: 0.02,
            seed,
        }
    }

    /// Blind-counter shape: every transaction increments one uniformly
    /// chosen object, and one in ten is abandoned mid-flight. With few
    /// objects, increments collide often, and every lost update would
    /// show in the final sum.
    pub fn counters(object_count: usize, threads: usize, txs_per_thread: usize, seed: u64) -> Self {
        StressConfig {
            object_count,
            threads,
            txs_per_thread,
            ops_per_tx: 1,
            write_ratio: 1.0,
            hot_ratio: 0.0,
            hot_objects: 0,
            abort_ratio: 0.1,
            seed,
        }
    }
}

/// Which store [`stress`] drives. There is one: the single-lock store.
/// The type stays an enum so that callers naming
/// `StressEngine::SingleLock` (the benchmark among them) keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StressEngine {
    /// One global `RwLock<MultiVersionStore>` plus a recorder mutex on
    /// the commit path.
    SingleLock,
}

/// A finished stress run: the validated result plus the measured
/// execution phase.
#[derive(Debug, Clone)]
pub struct StressOutcome {
    /// The recorded run (history, ground-truth execution, counters),
    /// built *after* the timed window.
    pub result: RunResult,
    /// Wall-clock duration of the execution phase (thread spawn to
    /// join); excludes building and validating the result.
    pub elapsed: Duration,
    /// Committed transactions per second of the execution phase.
    pub throughput_tps: f64,
}

/// The shared state of the single-lock store.
#[derive(Debug)]
struct SharedSi {
    store: RwLock<MultiVersionStore>,
    /// Highest fully installed commit sequence number. Published with
    /// release ordering after the installs it covers; `begin` reads it
    /// with acquire ordering.
    commit_counter: AtomicU64,
    telemetry: Telemetry,
}

/// A thread-owned in-flight transaction: no synchronisation needed until
/// it reaches for shared state.
#[derive(Debug)]
struct InFlight {
    session: usize,
    snapshot: u64,
    writes: BTreeMap<Obj, Value>,
}

impl SharedSi {
    fn new(object_count: usize, telemetry: Telemetry) -> Self {
        SharedSi {
            store: RwLock::new(MultiVersionStore::new(object_count)),
            commit_counter: AtomicU64::new(0),
            telemetry,
        }
    }

    /// Takes a snapshot: a single atomic load, no lock.
    fn begin(&self, session: usize) -> InFlight {
        let snapshot = self.commit_counter.load(Ordering::Acquire);
        self.telemetry.emit(|| Event::TxBegin { session, snapshot: Snapshot::Prefix(snapshot) });
        InFlight { session, snapshot, writes: BTreeMap::new() }
    }

    /// Snapshot read under the *shared* store lock; concurrent readers
    /// never block each other.
    fn read(&self, tx: &InFlight, obj: Obj) -> Value {
        if let Some(&v) = tx.writes.get(&obj) {
            return v;
        }
        let Version { value, commit_seq: seq } = self.store.read().read_at(obj, tx.snapshot);
        let session = tx.session;
        self.telemetry.emit(|| Event::VersionObserved { session, obj: obj.0, seq });
        value
    }

    /// First-committer-wins validation and install, atomic under the
    /// exclusive store lock. Returns the commit sequence number, or the
    /// first conflicting object.
    fn commit(&self, tx: InFlight) -> Result<u64, Obj> {
        let InFlight { session, snapshot, writes } = tx;
        let mut store = self.store.write();
        // The unsynchronised-looking `load + 1 … store` is sound, and
        // deliberately NOT a `fetch_add`:
        //
        // * No lost increments: `commit_counter` is only ever stored
        //   while holding the exclusive store lock (we are inside it),
        //   so commit bodies — load, installs, store — are serialised
        //   and each commit sees the previous one's value. The `Relaxed`
        //   load is ordered by the lock's acquire barrier, which
        //   happens-after the previous holder's release.
        // * `fetch_add` up front would be a real bug, not a cleanup: it
        //   publishes the new sequence number *before* the versions are
        //   installed, so the lock-free `begin` above could take a
        //   snapshot that includes `seq` yet miss its writes entirely.
        let seq = self.commit_counter.load(Ordering::Relaxed) + 1;
        if let Err(obj) = store.commit_writes(session, snapshot, &writes, seq, &self.telemetry) {
            self.telemetry.emit(|| Event::TxAbort {
                session,
                cause: AbortCause::WwConflict,
                obj: Some(obj.0),
            });
            return Err(obj);
        }
        // Publish only after every install, still under the write lock:
        // a lock-free `begin` that observes `seq` must find all of its
        // versions in place.
        self.commit_counter.store(seq, Ordering::Release);
        self.telemetry.emit(|| Event::TxCommit { session, seq, ops: writes.len() });
        Ok(seq)
    }

    /// Abandons an in-flight transaction; its buffered writes simply
    /// drop.
    fn abort(&self, tx: InFlight) {
        let session = tx.session;
        self.telemetry.emit(|| Event::TxAbort { session, cause: AbortCause::Explicit, obj: None });
    }
}

fn pick_object(rng: &mut StdRng, cfg: &StressConfig) -> Obj {
    let hot = cfg.hot_objects.min(cfg.object_count);
    if hot > 0 && cfg.hot_ratio > 0.0 && rng.gen_bool(cfg.hot_ratio) {
        Obj::from_index(rng.gen_range(0..hot))
    } else {
        Obj::from_index(rng.gen_range(0..cfg.object_count))
    }
}

/// One thread's workload loop: seeded read-modify-write transactions
/// with failure injection; FCW-refused commits are retried until the
/// quota is met.
fn worker(shared: &SharedSi, recorder: &Mutex<Recorder>, cfg: &StressConfig, thread_id: usize) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (thread_id as u64).wrapping_mul(0x9e37));
    let mut done = 0;
    while done < cfg.txs_per_thread {
        let inject_abort = cfg.abort_ratio > 0.0 && rng.gen_bool(cfg.abort_ratio);
        let mut tx = shared.begin(thread_id);
        let mut ops = Vec::with_capacity(cfg.ops_per_tx * 2);
        for _ in 0..cfg.ops_per_tx {
            let obj = pick_object(&mut rng, cfg);
            let read = shared.read(&tx, obj);
            ops.push(Op::Read(obj, read));
            if cfg.write_ratio > 0.0 && rng.gen_bool(cfg.write_ratio) {
                let written = Value(read.0 + 1);
                tx.writes.insert(obj, written);
                ops.push(Op::Write(obj, written));
            }
        }
        if inject_abort {
            shared.abort(tx);
            continue; // does not count towards `done`
        }
        let snapshot = tx.snapshot;
        match shared.commit(tx) {
            Ok(seq) => {
                // The recorder is locked inside the commit path, once per
                // commit.
                let mut rec = recorder.lock();
                rec.stats.committed += 1;
                rec.stats.ops_executed += ops.len() as u64;
                rec.record(CommittedTx {
                    session: thread_id,
                    ops,
                    seq,
                    visible: VisibleSet::Prefix(snapshot),
                });
                done += 1;
            }
            Err(_) => recorder.lock().stats.aborted += 1,
        }
    }
}

/// Runs the configured workload against the single-lock store and
/// returns the validated result plus execution-phase timing. See
/// [`StressConfig`].
///
/// # Panics
///
/// Panics if the config is degenerate (zero objects, threads, quota or
/// steps), a ratio lies outside `[0, 1]`, `abort_ratio` is 1 (no
/// transaction could ever commit), or a worker thread panics.
pub fn stress(config: &StressConfig, engine: StressEngine) -> StressOutcome {
    stress_traced(config, engine, Telemetry::disabled())
}

/// [`stress`] with a telemetry handle attached: every thread emits the
/// same per-step events as the deterministic engines (`TxBegin` with its
/// snapshot, `VersionObserved`, `VersionInstalled`, and `TxCommit` or
/// `TxAbort`). Events from different threads are linearised by the
/// sink, not by a global protocol lock, so consume them with
/// order-insensitive analyses (counting, per-session projections) — the
/// deterministic sanitizer is the tool for order-sensitive auditing.
///
/// # Panics
///
/// As [`stress`].
pub fn stress_traced(
    config: &StressConfig,
    engine: StressEngine,
    telemetry: Telemetry,
) -> StressOutcome {
    let initial_values = vec![Value::INITIAL; config.object_count];
    let (recorder, elapsed) = run_stress(config, engine, telemetry);
    let result = recorder.finish(&initial_values, config.threads);
    let throughput_tps = throughput(result.stats.committed, elapsed);
    StressOutcome { result, elapsed, throughput_tps }
}

/// A stress run recorded without ground-truth relations: the history,
/// counters and execution-phase timing, nothing `Θ(n²)`.
#[derive(Debug, Clone)]
pub struct StressHistory {
    /// The client-visible history (init transaction first).
    pub history: History,
    /// Aggregate counters.
    pub stats: RunStats,
    /// Wall-clock duration of the execution phase (thread spawn to
    /// join); excludes building the history.
    pub elapsed: Duration,
    /// Committed transactions per second of the execution phase.
    pub throughput_tps: f64,
}

/// [`stress`] without the ground-truth execution: dense VIS/CO matrices
/// are `Θ(n²)` bits and their validation is worse, so the 10^5-tx
/// solver smokes and the 10^6-tx bench cells record the history alone —
/// membership certification rebuilds its own evidence (si-solve) rather
/// than trusting engine-reported relations anyway.
pub fn stress_history_only(config: &StressConfig, engine: StressEngine) -> StressHistory {
    let initial_values = vec![Value::INITIAL; config.object_count];
    let (recorder, elapsed) = run_stress(config, engine, Telemetry::disabled());
    let (history, stats, _metrics) = recorder.finish_history_only(&initial_values, config.threads);
    let throughput_tps = throughput(stats.committed, elapsed);
    StressHistory { history, stats, elapsed, throughput_tps }
}

fn throughput(committed: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        committed as f64 / secs
    } else {
        f64::INFINITY
    }
}

/// The execution phase shared by [`stress_traced`] and
/// [`stress_history_only`]: spawn, drive, join — everything but the
/// finishing step that turns the recorder into a result.
fn run_stress(
    config: &StressConfig,
    engine: StressEngine,
    telemetry: Telemetry,
) -> (Recorder, Duration) {
    assert!(config.object_count > 0, "need at least one object");
    assert!(config.threads > 0, "need at least one thread");
    assert!(config.txs_per_thread > 0, "need a per-thread commit quota");
    assert!(config.ops_per_tx > 0, "transactions need at least one step");
    assert!((0.0..=1.0).contains(&config.write_ratio), "write_ratio must lie in [0, 1]");
    assert!((0.0..=1.0).contains(&config.hot_ratio), "hot_ratio must lie in [0, 1]");
    // An abort ratio of 1 abandons every attempt, and abandoned attempts
    // never count towards the quota: the workers would spin forever.
    assert!((0.0..1.0).contains(&config.abort_ratio), "abort_ratio must lie in [0, 1)");

    let StressEngine::SingleLock = engine;
    let shared = SharedSi::new(config.object_count, telemetry);
    let recorder = Mutex::new(Recorder::new());
    let start = Instant::now();
    crossbeam::scope(|scope| {
        for thread_id in 0..config.threads {
            let shared = &shared;
            let recorder = &recorder;
            scope.spawn(move |_| worker(shared, recorder, config, thread_id));
        }
    })
    .expect("stress thread panicked");
    let elapsed = start.elapsed();
    (recorder.into_inner(), elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_execution::SpecModel;
    use si_telemetry::{CountingSink, VecSink};
    use std::sync::Arc;

    #[test]
    fn concurrent_run_is_a_legal_si_execution() {
        let result = stress(&StressConfig::counters(4, 4, 25, 0xC0FFEE), StressEngine::SingleLock);
        assert_eq!(result.result.stats.committed, 100);
        assert!(SpecModel::Si.check(&result.result.execution).is_ok());
    }

    #[test]
    fn counters_never_lose_updates() {
        // Every committed increment must be reflected: the sum of final
        // object values equals the number of committed transactions.
        let result = stress(&StressConfig::counters(2, 3, 20, 7), StressEngine::SingleLock).result;
        let history = &result.history;
        let n = history.tx_count();
        let mut finals = [Value::INITIAL; 2];
        // Replay the version order: the last committed write per object.
        for i in 1..n {
            let t = history.transaction(si_relations::TxId::from_index(i));
            for op in t.ops() {
                if op.is_write() {
                    finals[op.obj().index()] = op.value();
                }
            }
        }
        let total: u64 = finals.iter().map(|v| v.0).sum();
        assert_eq!(total, result.stats.committed);
    }

    #[test]
    fn probed_run_reports_every_commit() {
        let sink = Arc::new(VecSink::new());
        let config = StressConfig::counters(2, 2, 10, 42);
        let outcome =
            stress_traced(&config, StressEngine::SingleLock, Telemetry::new(sink.clone()));
        let (stats, events) = (outcome.result.stats, sink.drain());
        let commits = events.iter().filter(|e| matches!(e, Event::TxCommit { .. })).count() as u64;
        assert_eq!(commits, stats.committed);
        // Installs are published before the commit counter: every
        // TxCommit { seq } is preceded in the log by its installs.
        for (i, e) in events.iter().enumerate() {
            if let Event::TxCommit { seq, .. } = e {
                let installed = events[..i]
                    .iter()
                    .any(|p| matches!(p, Event::VersionInstalled { seq: s, .. } if s == seq));
                assert!(installed, "commit {seq} published before its installs");
            }
        }
    }

    #[test]
    fn commit_sequence_is_dense_and_duplicate_free() {
        // Regression for the commit-counter publication protocol: the
        // `load(Relaxed) + 1 … store(Release)` pair in `SharedSi::commit`
        // relies on the exclusive store lock for mutual exclusion. If
        // that coupling ever broke (an unlocked fast path, or a
        // `fetch_add` moved before the installs), concurrent committers
        // would mint duplicate or gapped sequence numbers, or publish a
        // sequence number whose versions are not yet installed.
        let sink = Arc::new(VecSink::new());
        let config = StressConfig::counters(4, 8, 50, 0x5EC5);
        let outcome =
            stress_traced(&config, StressEngine::SingleLock, Telemetry::new(sink.clone()));
        let (stats, events) = (outcome.result.stats, sink.drain());
        let mut seqs: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::TxCommit { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        seqs.sort_unstable();
        let expected: Vec<u64> = (1..=stats.committed).collect();
        assert_eq!(seqs, expected, "commit sequence numbers must be exactly 1..=committed");
        // Every installed version belongs to a committed transaction —
        // no version was minted under a sequence number that never
        // published.
        for e in &events {
            if let Event::VersionInstalled { seq, .. } = e {
                assert!(*seq >= 1 && *seq <= stats.committed, "orphaned install {seq}");
            }
        }
    }

    #[test]
    fn real_threads_emit_the_lifecycle_stream() {
        // Every attempt begins once and ends exactly once: in a commit,
        // a first-committer-wins refusal, or an injected abort.
        let sink = Arc::new(CountingSink::new());
        let config = StressConfig::high_contention(4, 50, 0x11FE);
        let outcome =
            stress_traced(&config, StressEngine::SingleLock, Telemetry::new(sink.clone()));
        let stats = &outcome.result.stats;
        assert_eq!(sink.commits(), stats.committed);
        assert_eq!(sink.aborts(AbortCause::WwConflict), stats.aborted);
        assert!(sink.aborts(AbortCause::Explicit) > 0, "injected aborts must surface");
        assert_eq!(
            sink.begins(),
            sink.commits() + sink.conflict_aborts() + sink.aborts(AbortCause::Explicit)
        );
    }

    #[test]
    #[should_panic(expected = "write_ratio must lie in [0, 1]")]
    fn write_ratio_above_one_is_rejected() {
        let config = StressConfig { write_ratio: 1.5, ..StressConfig::low_contention(1, 1, 0) };
        stress(&config, StressEngine::SingleLock);
    }

    #[test]
    #[should_panic(expected = "hot_ratio must lie in [0, 1]")]
    fn negative_hot_ratio_is_rejected() {
        let config = StressConfig { hot_ratio: -0.1, ..StressConfig::high_contention(1, 1, 0) };
        stress(&config, StressEngine::SingleLock);
    }

    #[test]
    #[should_panic(expected = "abort_ratio must lie in [0, 1)")]
    fn abort_ratio_of_one_is_rejected() {
        // Used to spin forever: every attempt aborted and none counted.
        let config = StressConfig { abort_ratio: 1.0, ..StressConfig::low_contention(1, 1, 0) };
        stress(&config, StressEngine::SingleLock);
    }
}
