//! The serializable baseline: optimistic concurrency control validating
//! read *and* write sets.

use std::collections::{BTreeMap, BTreeSet};

use si_model::{Obj, Value};
use si_telemetry::{AbortCause, Event, Snapshot, Telemetry};

use crate::engine::{AbortReason, CommitInfo, Engine, TxToken};
use crate::store::{MultiVersionStore, Version};

#[derive(Debug)]
struct ActiveTx {
    session: usize,
    snapshot: u64,
    reads: BTreeSet<Obj>,
    writes: BTreeMap<Obj, Value>,
    finished: bool,
}

/// A serializable engine: snapshot reads plus backward OCC validation of
/// the full read and write sets at commit.
///
/// A transaction commits only if *no* object it read or wrote has a
/// committed version newer than its snapshot. Every committed transaction
/// therefore logically executes atomically at its commit point, and the
/// commit order is a valid serialisation — the engine realises the
/// paper's `ExecSER` axioms with `VIS = CO =` commit order (tested via the
/// recorder).
#[derive(Debug)]
pub struct SerEngine {
    store: MultiVersionStore,
    commit_counter: u64,
    active: Vec<ActiveTx>,
    telemetry: Telemetry,
}

impl SerEngine {
    /// Creates an engine over `object_count` objects initialised to 0.
    pub fn new(object_count: usize) -> Self {
        SerEngine {
            store: MultiVersionStore::new(object_count),
            commit_counter: 0,
            active: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Read-only access to the underlying store (for assertions and
    /// examples).
    pub fn store(&self) -> &MultiVersionStore {
        &self.store
    }

    fn tx(&mut self, token: TxToken) -> &mut ActiveTx {
        let tx = &mut self.active[token.0];
        assert!(!tx.finished, "transaction already committed or aborted");
        tx
    }
}

impl Engine for SerEngine {
    fn object_count(&self) -> usize {
        self.store.object_count()
    }

    fn set_initial(&mut self, obj: Obj, value: Value) {
        self.store.set_initial(obj, value);
    }

    fn initial(&self, obj: Obj) -> Value {
        self.store.initial(obj)
    }

    fn begin(&mut self, session: usize) -> TxToken {
        let snapshot = self.commit_counter;
        self.telemetry.emit(|| Event::TxBegin { session, snapshot: Snapshot::Prefix(snapshot) });
        self.active.push(ActiveTx {
            session,
            snapshot,
            reads: BTreeSet::new(),
            writes: BTreeMap::new(),
            finished: false,
        });
        TxToken(self.active.len() - 1)
    }

    fn read(&mut self, tx: TxToken, obj: Obj) -> Value {
        let (session, snapshot) = {
            let t = self.tx(tx);
            if let Some(&v) = t.writes.get(&obj) {
                return v;
            }
            t.reads.insert(obj);
            (t.session, t.snapshot)
        };
        let Version { value, commit_seq: seq } = self.store.read_at(obj, snapshot);
        self.telemetry.emit(|| Event::VersionObserved { session, obj: obj.0, seq });
        value
    }

    fn write(&mut self, tx: TxToken, obj: Obj, value: Value) {
        self.tx(tx).writes.insert(obj, value);
    }

    fn commit(&mut self, tx: TxToken) -> Result<CommitInfo, AbortReason> {
        let (session, snapshot, reads, writes) = {
            let t = self.tx(tx);
            (t.session, t.snapshot, t.reads.clone(), t.writes.clone())
        };
        for &obj in &reads {
            if self.store.latest_seq(obj) > snapshot {
                self.active[tx.0].finished = true;
                self.telemetry.emit(|| Event::TxAbort {
                    session,
                    cause: AbortCause::RwConflict,
                    obj: Some(obj.0),
                });
                return Err(AbortReason::ReadConflict(obj));
            }
        }
        for &obj in writes.keys() {
            if self.store.latest_seq(obj) > snapshot {
                self.active[tx.0].finished = true;
                self.telemetry.emit(|| Event::TxAbort {
                    session,
                    cause: AbortCause::WwConflict,
                    obj: Some(obj.0),
                });
                return Err(AbortReason::WriteConflict(obj));
            }
        }
        self.commit_counter += 1;
        let seq = self.commit_counter;
        for (&obj, &value) in &writes {
            self.store.install(obj, value, seq);
            self.telemetry.emit(|| Event::VersionInstalled { session, obj: obj.0, seq });
        }
        self.active[tx.0].finished = true;
        self.telemetry.emit(|| Event::TxCommit { session, seq, ops: writes.len() });
        // With full validation, everything that committed before us is
        // indistinguishable from having been in our snapshot: report the
        // whole prefix so the recorded execution satisfies TOTALVIS.
        Ok(CommitInfo { seq, visible: (1..seq).collect() })
    }

    fn abort(&mut self, tx: TxToken) {
        let t = self.tx(tx);
        t.finished = true;
        let session = t.session;
        self.telemetry.emit(|| Event::TxAbort { session, cause: AbortCause::Explicit, obj: None });
    }

    fn name(&self) -> &'static str {
        "SER"
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_skew_is_refused() {
        let mut e = SerEngine::new(2);
        let (x, y) = (Obj(0), Obj(1));
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        e.read(t1, x);
        e.read(t1, y);
        e.read(t2, x);
        e.read(t2, y);
        e.write(t1, x, Value(1));
        e.write(t2, y, Value(1));
        assert!(e.commit(t1).is_ok());
        // t2 read x, which t1 overwrote after t2's snapshot.
        assert_eq!(e.commit(t2), Err(AbortReason::ReadConflict(x)));
    }

    #[test]
    fn non_conflicting_transactions_commit() {
        let mut e = SerEngine::new(2);
        let (x, y) = (Obj(0), Obj(1));
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        e.write(t1, x, Value(1));
        e.write(t2, y, Value(2));
        assert!(e.commit(t1).is_ok());
        assert!(e.commit(t2).is_ok()); // blind disjoint writes serialize fine
    }

    #[test]
    fn write_conflicts_still_detected() {
        let mut e = SerEngine::new(1);
        let x = Obj(0);
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        e.write(t1, x, Value(1));
        e.write(t2, x, Value(2));
        assert!(e.commit(t1).is_ok());
        assert_eq!(e.commit(t2), Err(AbortReason::WriteConflict(x)));
    }

    #[test]
    fn visible_is_full_prefix() {
        let mut e = SerEngine::new(1);
        let t1 = e.begin(0);
        e.write(t1, Obj(0), Value(1));
        e.commit(t1).unwrap();
        let t2 = e.begin(1);
        e.write(t2, Obj(0), Value(2));
        let info = e.commit(t2).unwrap();
        assert_eq!(info.visible, vec![1]);
    }

    #[test]
    fn own_write_then_read_does_not_taint_read_set() {
        let mut e = SerEngine::new(1);
        let x = Obj(0);
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        e.write(t2, x, Value(7));
        assert_eq!(e.read(t2, x), Value(7)); // own write, not a snapshot read
        e.write(t1, x, Value(1));
        e.commit(t1).unwrap();
        // t2 still write-conflicts, but not via the read set.
        assert_eq!(e.commit(t2), Err(AbortReason::WriteConflict(x)));
    }
}
