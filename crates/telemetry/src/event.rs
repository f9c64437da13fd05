//! The typed event model shared by engines, the scheduler, the online
//! monitor, the offline checkers and the sanitizer.

use core::fmt;

use serde::Serialize;

/// The dependency-graph edge kinds of the paper (Definition 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum EdgeKind {
    /// Session order.
    So,
    /// Read dependency (write-read).
    Wr,
    /// Write dependency (write-write / version order).
    Ww,
    /// Anti-dependency (read-write).
    Rw,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKind::So => write!(f, "SO"),
            EdgeKind::Wr => write!(f, "WR"),
            EdgeKind::Ww => write!(f, "WW"),
            EdgeKind::Rw => write!(f, "RW"),
        }
    }
}

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AbortCause {
    /// First-committer-wins: a concurrent committed transaction wrote an
    /// object this transaction also wrote (SI/PSI/SSI write-conflict
    /// detection, and the write half of OCC validation).
    WwConflict,
    /// Read validation or dangerous-structure prevention: a concurrent
    /// committed transaction wrote an object this transaction read (SER
    /// OCC read validation; SSI pivot completion).
    RwConflict,
    /// The client or scheduler abandoned the transaction (injected
    /// failure, crash simulation, or a degenerate empty script).
    Explicit,
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortCause::WwConflict => write!(f, "ww-conflict"),
            AbortCause::RwConflict => write!(f, "rw-conflict"),
            AbortCause::Explicit => write!(f, "explicit"),
        }
    }
}

/// The commits a transaction's snapshot includes, acquired at begin.
/// Sequence numbers are engine commit sequence numbers; 0, the initial
/// versions, is always included.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Snapshot {
    /// All commits `1..=upto` (the SI, SER and SSI engines).
    Prefix(u64),
    /// An explicit, not necessarily prefix set of commits (the PSI
    /// engine's causally closed replica state).
    Set(Vec<u64>),
}

/// One structured telemetry event. Serialized as one JSON object per
/// line by [`JsonlSink`](crate::JsonlSink).
///
/// The first five variants are the engines' steps of the paper's §1
/// algorithm: snapshot at begin, snapshot read, install, and the commit
/// or abort that makes the attempt's accesses permanent or discards them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Event {
    /// A transaction started and acquired its snapshot.
    TxBegin {
        /// Client session index.
        session: usize,
        /// The commits visible to the transaction.
        snapshot: Snapshot,
    },
    /// An external (non-own-write) read returned the version of `obj`
    /// installed at `seq`.
    VersionObserved {
        /// Client session index.
        session: usize,
        /// The object's index.
        obj: u32,
        /// Commit sequence of the observed version (0 = initial).
        seq: u64,
    },
    /// A commit installed a new version of `obj` at `seq`.
    VersionInstalled {
        /// Client session index.
        session: usize,
        /// The object's index.
        obj: u32,
        /// Commit sequence of the installed version.
        seq: u64,
    },
    /// A transaction committed; its sequence number is published.
    TxCommit {
        /// Client session index.
        session: usize,
        /// Commit sequence number (1-based).
        seq: u64,
        /// Number of buffered operations installed.
        ops: usize,
    },
    /// A transaction aborted.
    TxAbort {
        /// Client session index.
        session: usize,
        /// Why.
        cause: AbortCause,
        /// The conflicting object's index, when conflict detection names
        /// one.
        obj: Option<u32>,
    },
    /// The online monitor (or a checker) added a dependency edge.
    EdgeAdded {
        /// Edge kind.
        kind: EdgeKind,
        /// Source transaction index.
        from: u32,
        /// Target transaction index.
        to: u32,
    },
    /// One acyclicity / composed-relation check ran: its input sizes and
    /// (for incremental checkers) the maintenance work it cost.
    CycleSearchStep {
        /// Which check ("monitor.si", "check_si", …).
        check: &'static str,
        /// Vertices of the composed relation.
        nodes: u64,
        /// Edges of the composed relation.
        edges: u64,
        /// Vertices visited by incremental bounded searches (0 for dense
        /// from-scratch checks).
        visited: u64,
        /// Vertices whose topological index the incremental maintainer
        /// reassigned (0 for dense from-scratch checks).
        reordered: u64,
    },
    /// A checker or monitor emitted a verdict.
    VerdictEmitted {
        /// Which check ("monitor.si", "check_ser", …).
        check: &'static str,
        /// `true` = consistent / member of the class.
        ok: bool,
        /// Wall-clock nanoseconds the check took.
        nanos: u64,
    },
    /// Progress of the backtracking history-membership solver.
    SolverIteration {
        /// Candidate (partial) assignments explored so far.
        nodes_explored: u64,
        /// Dead ends pruned (partial assignments found doomed).
        backtracks: u64,
        /// Whether the node budget ran out before a verdict.
        exhausted: bool,
    },
    /// Progress of the CDCL history-membership solver (`si-solve`):
    /// cumulative counters emitted periodically and once at the end of a
    /// solve (complementing [`Event::SolverIteration`], which the
    /// backtracking enumerator emits).
    CdclProgress {
        /// Decisions made (branches on an unassigned variable).
        decisions: u64,
        /// Assignments derived by unit propagation on learned nogoods.
        propagations: u64,
        /// Conflicts hit (theory cycles plus falsified nogoods).
        conflicts: u64,
        /// Nogoods learned from conflict analysis.
        learned: u64,
        /// Search restarts.
        restarts: u64,
    },
    /// Progress of the sanitizer's interleaving explorer: cumulative
    /// counters emitted periodically (and once at the end of a run).
    ExplorationProgress {
        /// Complete interleavings executed and checked so far.
        explored: u64,
        /// Schedules skipped by sleep-set pruning.
        pruned: u64,
        /// Happens-before races detected so far.
        races: u64,
        /// Delta-debugging replays spent minimising failures so far.
        shrink_steps: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_to_externally_tagged_json() {
        let e = Event::TxAbort { session: 2, cause: AbortCause::WwConflict, obj: Some(3) };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"TxAbort\""), "{json}");
        assert!(json.contains("\"WwConflict\""), "{json}");
        assert!(json.contains("\"obj\":3"), "{json}");

        let e = Event::EdgeAdded { kind: EdgeKind::Rw, from: 1, to: 4 };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"EdgeAdded\""), "{json}");
        assert!(json.contains("\"Rw\""), "{json}");

        let e = Event::TxBegin { session: 2, snapshot: Snapshot::Set(vec![1, 3]) };
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(json, r#"{"TxBegin":{"session":2,"snapshot":{"Set":[1,3]}}}"#);

        let e = Event::VersionInstalled { session: 1, obj: 4, seq: 2 };
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(json, r#"{"VersionInstalled":{"session":1,"obj":4,"seq":2}}"#);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(EdgeKind::Rw.to_string(), "RW");
        assert_eq!(AbortCause::WwConflict.to_string(), "ww-conflict");
    }
}
