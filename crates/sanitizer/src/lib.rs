//! # si-sanitizer — hunting interleaving bugs in the MVCC engines
//!
//! A loom-style controlled-scheduler harness for the `si-mvcc` engines.
//! Where the repo's other checkers judge histories *after the fact*,
//! the sanitizer owns the schedule: it runs a workload against a live
//! engine under a deterministic virtual scheduler, systematically
//! enumerates every distinguishable interleaving (sleep-set DFS, with a
//! seeded random-walk fallback for big trees), and holds each completed
//! run to a four-layer differential oracle:
//!
//! 1. the engine's declarative axioms (Definition 4 instantiations),
//!    over the ground-truth execution the engine itself reported;
//! 2. dependency-graph membership (Theorems 8/9/21) via
//!    [`si_depgraph::extract`];
//! 3. the incremental [`SiMonitor`](si_core::SiMonitor), replaying the
//!    history as an online observation stream;
//! 4. a vector-clock happens-before race detector over the engine's
//!    internal shared-state accesses (telemetry events).
//!
//! Failures are shrunk with delta debugging to a minimal schedule and
//! packaged as JSON [`ReplayScript`]s that reproduce byte-identically.
//! Seeded mutants ([`MutantSiEngine`]) prove the harness has teeth.
//!
//! ```
//! use si_sanitizer::{sanitize, scripts, EngineSpec, SanitizeConfig};
//!
//! // Certify SI over every interleaving of the lost-update workload…
//! let report = sanitize(&EngineSpec::Si, &scripts::lost_update(), &SanitizeConfig::default());
//! assert!(report.is_clean());
//!
//! // …and catch the seeded mutant that drops first-committer-wins.
//! let report =
//!     sanitize(&EngineSpec::MutantDropFcw, &scripts::lost_update(), &SanitizeConfig::default());
//! assert!(!report.is_clean());
//! let repro = &report.failures[0].replay; // minimised, serialisable, deterministic
//! assert!(!repro.decisions.is_empty());
//! ```

#![warn(missing_docs)]

mod dependence;
mod explorer;
mod mutant;
mod oracle;
mod replay;
mod runner;
pub mod scripts;
mod shrink;
mod spec;
mod vclock;

pub use dependence::dependent;
pub use explorer::{
    explore_judged, sanitize, ExploreMode, FailureCase, JudgedExploration, SanitizeConfig,
    SanitizeReport,
};
pub use mutant::{MutantSiEngine, Mutation};
pub use oracle::{check_artifacts, Failure};
pub use replay::ReplayScript;
pub use runner::{
    run_advisory, Actor, EnabledStep, RunArtifacts, RunCounters, Runner, StepSummary,
};
pub use shrink::{minimize, Shrunk};
pub use spec::{EngineSpec, Expectation, InitialSpec, OpSpec, WorkloadSpec};
pub use vclock::{detect_races, RaceKind, RaceReport, VClock};
