//! Multi-version concurrency-control engines: the operational side of
//! *Analysing Snapshot Isolation* (Cerone & Gotsman, PODC 2016).
//!
//! The paper *defines* SI by an idealised algorithm (§1): a transaction
//! reads from a snapshot taken at start and commits only if no concurrent
//! committed transaction wrote an object it also wrote (first-committer
//! wins). This crate implements that algorithm — and the serializable and
//! parallel-SI comparison points — as deterministic, single-threaded
//! engines driven by a seeded [`Scheduler`], so that the declarative
//! theory of the other crates can be validated against running code:
//!
//! * [`SiEngine`] — snapshot reads + write-conflict detection (strong
//!   session SI: a session's next snapshot always includes its previous
//!   commits);
//! * [`SerEngine`] — optimistic concurrency control validating *both*
//!   read and write sets, a serializable baseline;
//! * [`PsiEngine`] — parallel SI in the style of Walter \[31\]: per-replica
//!   causally-closed snapshots with explicit, scheduler-controlled
//!   replication, so long forks are actually reachable;
//! * [`SsiEngine`] — serializable SI (Cahill et al.): the SI protocol plus
//!   runtime prevention of the Theorem 19 dangerous structure (a pivot
//!   with adjacent inbound and outbound anti-dependencies), so every
//!   committed run is serializable while retaining SI's reads.
//!
//! The [`stress`] harness runs the same SI protocol on real OS threads
//! over one store behind a single `RwLock`, sharing
//! [`MultiVersionStore::commit_writes`] with [`SiEngine`], and validates
//! each run post hoc.
//!
//! Every engine, and the stress store through [`stress_traced`], reports
//! each step of the algorithm as one [`Event`] through one [`Telemetry`]
//! handle ([`Engine::set_telemetry`]); the same stream feeds metrics,
//! JSONL traces and the sanitizer's happens-before race detector.
//!
//! Every engine reports ground truth on commit: its commit sequence
//! number and the set of transactions visible to its snapshot. The
//! [`Recorder`] turns a finished run into a [`History`] and an
//! [`AbstractExecution`](si_execution::AbstractExecution), which tests
//! check against the paper's axioms and dependency-graph
//! characterisations (e.g. *every* SI-engine run must land in `GraphSI`).
//!
//! Transactions are expressed in a small deterministic script language
//! ([`Script`]) sufficient for the paper's workloads — bank transfers,
//! balance checks, counters, long forks — with conditional early commit
//! for write-skew-style guards. Aborted transactions are retried, per the
//! paper's §5 assumption that clients resubmit aborted pieces.
//!
//! # Example: write skew happens under SI, not under OCC serializability
//!
//! ```
//! use si_mvcc::{Scheduler, SchedulerConfig, Script, SiEngine, SerEngine, Workload};
//! use si_model::Obj;
//!
//! let (x, y) = (Obj(0), Obj(1));
//! // Two "withdraw if the combined balance allows it" transactions.
//! let w1 = Script::new().read(x).read(y).write_const(x, 0);
//! let w2 = Script::new().read(x).read(y).write_const(y, 0);
//! let workload = Workload::new(2)
//!     .initial(x, 60)
//!     .initial(y, 60)
//!     .session([w1])
//!     .session([w2]);
//!
//! let mut scheduler = Scheduler::new(SchedulerConfig { seed: 7, ..Default::default() });
//! let si_run = scheduler.run(&mut SiEngine::new(2), &workload);
//! // Under SI both may commit (write skew is allowed); under OCC
//! // serializability at least one observes the other or aborts-and-retries.
//! assert_eq!(si_run.stats.committed, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod concurrent;
mod engine;
mod psi_engine;
mod recorder;
mod scheduler;
mod script;
mod ser_engine;
mod si_engine;
mod ssi_engine;
mod store;

pub use concurrent::{
    stress, stress_history_only, stress_traced, StressConfig, StressEngine, StressHistory,
    StressOutcome,
};
pub use engine::{AbortReason, CommitInfo, Engine, TxToken};
pub use psi_engine::PsiEngine;
pub use recorder::{CommittedTx, Recorder, RunResult, RunStats, VisibleSet};
pub use scheduler::{Scheduler, SchedulerConfig, Workload};
pub use script::{Script, ScriptOp};
pub use ser_engine::SerEngine;
pub use si_engine::SiEngine;
pub use ssi_engine::SsiEngine;
pub use store::{MultiVersionStore, Version};

pub use si_model::{History, Obj, Value};
pub use si_telemetry::{
    AbortCause, CountingSink, Event, JsonlSink, MetricsRegistry, MetricsReport, NullSink, Snapshot,
    Telemetry, TelemetrySink, VecSink,
};
