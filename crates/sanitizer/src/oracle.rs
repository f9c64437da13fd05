//! The differential oracle stack applied to every explored interleaving.
//!
//! Each completed run is judged four ways, and any disagreement with the
//! engine's own verdict (it committed what it committed) is a failure:
//!
//! 1. **Axioms** — the recorded [`AbstractExecution`] (ground-truth
//!    VIS/CO straight from the engine) is checked against the engine's
//!    declarative model (Definition 4 instantiation: SI, SER or PSI).
//! 2. **Graph membership** — the dependency graph is extracted from the
//!    execution ([`si_depgraph::extract`]) and checked against the
//!    engine's graph class (Theorems 8/9/21), exercising the
//!    graph-characterisation route *independently* of the axioms.
//! 3. **Online monitor** — the committed history is replayed through
//!    [`SiMonitor`] as an *observation* stream (no ground-truth VIS), the
//!    incremental counterpart of the graph check.
//! 4. **Races** — the engine's telemetry trace is run through the
//!    vector-clock detector ([`crate::detect_races`]).
//!
//! On the unmutated engines all four must accept every interleaving
//! (that is the sanitizer's clean-run theorem, asserted exhaustively in
//! the test-suite); the seeded mutants must be rejected by *each* layer
//! able to see their defect.

use si_core::{GraphClass, ObservedTx, SiMonitor};
use si_execution::SpecModel;
use si_relations::TxId;

use crate::runner::RunArtifacts;
use crate::spec::EngineSpec;
use crate::vclock::{detect_races, RaceReport};

/// One way an interleaving failed its oracle contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The ground-truth execution violates the engine's declarative
    /// axioms.
    Axioms {
        /// The model that rejected the execution.
        model: SpecModel,
        /// The violated axiom, rendered.
        message: String,
    },
    /// The extracted dependency graph falls outside the engine's class.
    Graph {
        /// The class that rejected the graph.
        class: GraphClass,
        /// The membership error, rendered.
        message: String,
    },
    /// The online monitor rejected the observation stream.
    Monitor {
        /// The model the monitor ran under.
        model: SpecModel,
        /// The critical cycle it reported.
        cycle: Vec<TxId>,
    },
    /// The recorded history could not be mapped to a dependency graph at
    /// all (reads that match no visible writer — already a defect).
    Extraction {
        /// The extraction error, rendered.
        message: String,
    },
    /// The vector-clock detector found a happens-before anomaly.
    Race(RaceReport),
}

impl Failure {
    /// Whether this failure is a race (vs. a semantic oracle rejection).
    pub fn is_race(&self) -> bool {
        matches!(self, Failure::Race(_))
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Axioms { model, message } => {
                write!(f, "axiom violation under {model:?}: {message}")
            }
            Failure::Graph { class, message } => {
                write!(f, "graph membership failure for {class:?}: {message}")
            }
            Failure::Monitor { model, cycle } => {
                write!(f, "monitor under {model:?} rejected the stream (cycle {cycle:?})")
            }
            Failure::Extraction { message } => write!(f, "extraction failed: {message}"),
            Failure::Race(race) => write!(f, "race: {race}"),
        }
    }
}

/// Runs the full oracle stack over one completed run's artifacts.
pub fn check_artifacts(spec: &EngineSpec, artifacts: &RunArtifacts) -> Vec<Failure> {
    let expectation = spec.expectation();
    let mut failures = Vec::new();

    if let Err(violation) = expectation.axioms.check(&artifacts.result.execution) {
        failures
            .push(Failure::Axioms { model: expectation.axioms, message: violation.to_string() });
    }

    match si_depgraph::extract(&artifacts.result.execution) {
        Ok(graph) => {
            if let Err(e) = expectation.graph.check(&graph) {
                failures.push(Failure::Graph { class: expectation.graph, message: e.to_string() });
            }
            let mut monitor = SiMonitor::new(expectation.monitor);
            for tx in observed_stream(&graph) {
                monitor.append(tx);
                if !monitor.is_consistent() {
                    break;
                }
            }
            if !monitor.is_consistent() {
                failures.push(Failure::Monitor {
                    model: expectation.monitor,
                    cycle: monitor.violation().map(<[TxId]>::to_vec).unwrap_or_default(),
                });
            }
        }
        Err(e) => failures.push(Failure::Extraction { message: e.to_string() }),
    }

    failures.extend(detect_races(&artifacts.events).into_iter().map(Failure::Race));
    failures
}

/// The whole history (init transaction first) as a monitor observation
/// stream: reads resolved to their writers, session predecessors
/// threaded per session.
fn observed_stream(graph: &si_depgraph::DependencyGraph) -> Vec<ObservedTx> {
    let h = graph.history();
    let mut last_of_session: Vec<Option<TxId>> = vec![None; h.session_count()];
    let mut out = Vec::new();
    for t in h.tx_ids() {
        let session = h.session_of(t);
        out.push(ObservedTx {
            session_predecessor: session.and_then(|s| last_of_session[s.index()]),
            reads_from: h
                .transaction(t)
                .external_read_set()
                .into_iter()
                .map(|x| (x, graph.writer_for(t, x).expect("extracted reads have writers")))
                .collect(),
            writes: h.transaction(t).write_set(),
        });
        if let Some(s) = session {
            last_of_session[s.index()] = Some(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_advisory, Actor};
    use si_model::Obj;
    use si_mvcc::{Script, Workload};

    fn lost_update() -> Workload {
        let x = Obj(0);
        let inc = Script::new().read(x).write_computed(x, [0], 1);
        Workload::new(1).session([inc.clone()]).session([inc])
    }

    #[test]
    fn clean_si_run_passes_every_oracle() {
        let artifacts = run_advisory(&EngineSpec::Si, &lost_update(), 4, &[]);
        assert_eq!(check_artifacts(&EngineSpec::Si, &artifacts), Vec::new());
    }

    #[test]
    fn drop_fcw_interleaving_fails_multiple_oracles() {
        // Both sessions read before either commits: the mutant loses an
        // update.
        let decisions =
            [Actor::Session(0), Actor::Session(1), Actor::Session(0), Actor::Session(1)];
        let artifacts = run_advisory(&EngineSpec::MutantDropFcw, &lost_update(), 4, &decisions);
        assert_eq!(artifacts.counters.committed, 2);
        assert_eq!(artifacts.counters.aborted, 0);
        let failures = check_artifacts(&EngineSpec::MutantDropFcw, &artifacts);
        // NOCONFLICT fails, GraphSI membership fails, the monitor
        // rejects, and the race detector sees the concurrent installs.
        assert!(failures.iter().any(|f| matches!(f, Failure::Axioms { .. })), "{failures:?}");
        assert!(failures.iter().any(|f| matches!(f, Failure::Graph { .. })), "{failures:?}");
        assert!(failures.iter().any(|f| matches!(f, Failure::Monitor { .. })), "{failures:?}");
        assert!(failures.iter().any(Failure::is_race), "{failures:?}");
    }

    #[test]
    fn snapshot_lag_same_session_fails() {
        // One session, two increments: the second runs on a snapshot
        // that excludes the first — SESSION (strong session SI) breaks.
        let x = Obj(0);
        let inc = Script::new().read(x).write_computed(x, [0], 1);
        let w = Workload::new(1).session([inc.clone(), inc]);
        let artifacts = run_advisory(&EngineSpec::MutantSnapshotLag { lag: 1 }, &w, 4, &[]);
        let failures = check_artifacts(&EngineSpec::MutantSnapshotLag { lag: 1 }, &artifacts);
        assert!(!failures.is_empty(), "lagged snapshot must be caught");
        assert!(failures.iter().any(Failure::is_race), "{failures:?}");
    }
}
