//! Serializable snapshot isolation (SSI): SI plus runtime prevention of
//! the Theorem 19 dangerous structure.
//!
//! Theorem 19 says every SI-but-not-serializable execution has a cycle
//! with two *adjacent* anti-dependency edges — some transaction (the
//! "pivot") with both an inbound and an outbound anti-dependency. SSI
//! (Cahill et al., adopted by PostgreSQL's SERIALIZABLE level) runs the
//! plain SI protocol but tracks anti-dependencies between concurrent
//! transactions and aborts a transaction before it can become a pivot.
//! The approximation is conservative — some serializable executions abort
//! — but every committed execution is serializable, which the tests
//! verify through the paper's own machinery: every run of this engine
//! must land in `GraphSER`.

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
    /// Has an inbound anti-dependency from a concurrent transaction
    /// (someone read a version this transaction overwrote / will
    /// overwrite).
    in_conflict: bool,
    /// Has an outbound anti-dependency to a concurrent transaction (this
    /// transaction read a version someone else overwrote).
    out_conflict: bool,
}

#[derive(Debug, Clone)]
struct CommittedInfo {
    seq: u64,
    reads: BTreeSet<Obj>,
    writes: BTreeSet<Obj>,
    in_conflict: bool,
    out_conflict: bool,
}

/// The SSI engine: snapshot isolation with dangerous-structure
/// prevention.
///
/// In addition to first-committer-wins, commit fails with
/// [`AbortReason::ReadConflict`] when committing would complete a pivot —
/// a transaction with both `in_conflict` and `out_conflict` set against
/// concurrent transactions. Conflict flags are maintained at commit time
/// by comparing the committer's read/write sets against concurrent
/// transactions (active, and committed-concurrent ones).
#[derive(Debug)]
pub struct SsiEngine {
    store: MultiVersionStore,
    commit_counter: u64,
    active: Vec<ActiveTx>,
    /// Committed transactions, kept for overlap checks against still
    /// active ones.
    committed: Vec<CommittedInfo>,
    telemetry: Telemetry,
}

impl SsiEngine {
    /// Creates an engine over `object_count` objects initialised to 0.
    pub fn new(object_count: usize) -> Self {
        SsiEngine {
            store: MultiVersionStore::new(object_count),
            commit_counter: 0,
            active: Vec::new(),
            committed: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Read-only access to the underlying store.
    pub fn store(&self) -> &MultiVersionStore {
        &self.store
    }

    fn tx(&mut self, token: TxToken) -> &mut ActiveTx {
        let tx = &mut self.active[token.0];
        assert!(!tx.finished, "transaction already committed or aborted");
        tx
    }
}

impl Engine for SsiEngine {
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
            in_conflict: false,
            out_conflict: false,
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
        // Reading an object that a concurrent *committed* transaction
        // overwrote gives this transaction an outbound anti-dependency and
        // that (already committed) transaction an inbound one — if the
        // committed side was already out-conflicted, it was a pivot we can
        // no longer abort, so abort must fall on the reader at commit;
        // flag it now.
        if self.store.latest_seq(obj) > snapshot {
            self.active[tx.0].out_conflict = true;
            // The committed overwriter gains in_conflict; if it also had
            // out_conflict it committed as a potential pivot — mark the
            // reader to be aborted at commit by also setting in-flag
            // pessimistically. (Classic SSI aborts on the reader side.)
        }
        let Version { value, commit_seq: seq } = self.store.read_at(obj, snapshot);
        self.telemetry.emit(|| Event::VersionObserved { session, obj: obj.0, seq });
        value
    }

    fn write(&mut self, tx: TxToken, obj: Obj, value: Value) {
        self.tx(tx).writes.insert(obj, value);
    }

    fn commit(&mut self, tx: TxToken) -> Result<CommitInfo, AbortReason> {
        let token = tx;
        let (session, snapshot, reads, writes) = {
            let t = self.tx(token);
            (
                t.session,
                t.snapshot,
                t.reads.clone(),
                t.writes.keys().copied().collect::<BTreeSet<_>>(),
            )
        };

        // Plain SI first-committer-wins.
        for &obj in &writes {
            if self.store.latest_seq(obj) > snapshot {
                self.active[token.0].finished = true;
                self.telemetry.emit(|| Event::TxAbort {
                    session,
                    cause: AbortCause::WwConflict,
                    obj: Some(obj.0),
                });
                return Err(AbortReason::WriteConflict(obj));
            }
        }

        let mut in_conflict = self.active[token.0].in_conflict;
        let mut out_conflict = self.active[token.0].out_conflict;

        // Anti-dependencies against committed-concurrent transactions:
        // C committed after our snapshot; C read something we write
        // (C -RW→ us: our in-conflict, C's out) or C wrote something we
        // read (we -RW→ C: our out-conflict, C's in).
        let mut committed_updates: Vec<(usize, bool, bool)> = Vec::new();
        for (ci, c) in self.committed.iter().enumerate() {
            if c.seq <= snapshot {
                continue; // not concurrent: C is in our snapshot
            }
            let c_reads_our_writes = c.reads.iter().any(|o| writes.contains(o));
            let c_writes_our_reads = c.writes.iter().any(|o| reads.contains(o));
            let mut c_in = false;
            let mut c_out = false;
            if c_reads_our_writes {
                in_conflict = true;
                c_out = true;
            }
            if c_writes_our_reads {
                out_conflict = true;
                c_in = true;
            }
            if c_in || c_out {
                committed_updates.push((ci, c_in, c_out));
            }
            // Dangerous structure with a committed pivot: C has both
            // flags after this update — too late to abort C, so abort us.
            let c_total_in = c.in_conflict || c_in;
            let c_total_out = c.out_conflict || c_out;
            if c_total_in && c_total_out {
                self.active[token.0].finished = true;
                let witness = *c.writes.iter().next().unwrap_or(&Obj(0));
                self.telemetry.emit(|| Event::TxAbort {
                    session,
                    cause: AbortCause::RwConflict,
                    obj: Some(witness.0),
                });
                return Err(AbortReason::ReadConflict(witness));
            }
        }

        // Anti-dependencies against still-active transactions: A read
        // something we write (A -RW→ us) or A wrote something we read
        // (we -RW→ A, using its write buffer).
        let mut active_updates: Vec<(usize, bool, bool)> = Vec::new();
        for (ai, a) in self.active.iter().enumerate() {
            if ai == token.0 || a.finished {
                continue;
            }
            let a_reads_our_writes = a.reads.iter().any(|o| writes.contains(o));
            let a_writes_our_reads = a.writes.keys().any(|o| reads.contains(o));
            let mut a_in = false;
            let mut a_out = false;
            if a_reads_our_writes {
                in_conflict = true;
                a_out = true;
            }
            if a_writes_our_reads {
                out_conflict = true;
                a_in = true;
            }
            if a_in || a_out {
                active_updates.push((ai, a_in, a_out));
            }
        }

        // Would we commit as a pivot? Abort instead (conservatively).
        if in_conflict && out_conflict {
            self.active[token.0].finished = true;
            let witness = reads.iter().next().copied().unwrap_or(Obj(0));
            self.telemetry.emit(|| Event::TxAbort {
                session,
                cause: AbortCause::RwConflict,
                obj: Some(witness.0),
            });
            return Err(AbortReason::ReadConflict(witness));
        }

        // Commit: install writes, persist flags, propagate to neighbours.
        self.commit_counter += 1;
        let seq = self.commit_counter;
        for (&obj, &value) in &self.active[token.0].writes.clone() {
            self.store.install(obj, value, seq);
            self.telemetry.emit(|| Event::VersionInstalled { session, obj: obj.0, seq });
        }
        for (ci, c_in, c_out) in committed_updates {
            self.committed[ci].in_conflict |= c_in;
            self.committed[ci].out_conflict |= c_out;
        }
        for (ai, a_in, a_out) in active_updates {
            self.active[ai].in_conflict |= a_in;
            self.active[ai].out_conflict |= a_out;
        }
        let write_count = writes.len();
        self.committed.push(CommittedInfo { seq, reads, writes, in_conflict, out_conflict });
        self.active[token.0].finished = true;
        self.telemetry.emit(|| Event::TxCommit { session, seq, ops: write_count });
        Ok(CommitInfo { seq, visible: (1..=snapshot).collect() })
    }

    fn abort(&mut self, tx: TxToken) {
        let t = self.tx(tx);
        t.finished = true;
        let session = t.session;
        self.telemetry.emit(|| Event::TxAbort { session, cause: AbortCause::Explicit, obj: None });
    }

    fn name(&self) -> &'static str {
        "SSI"
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_skew_is_prevented() {
        let mut e = SsiEngine::new(2);
        let (x, y) = (Obj(0), Obj(1));
        e.set_initial(x, Value(60));
        e.set_initial(y, Value(60));
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        e.read(t1, x);
        e.read(t1, y);
        e.read(t2, x);
        e.read(t2, y);
        e.write(t1, x, Value(0));
        e.write(t2, y, Value(0));
        let r1 = e.commit(t1);
        let r2 = e.commit(t2);
        assert!(r1.is_err() || r2.is_err(), "SSI must abort at least one write-skew participant");
    }

    #[test]
    fn read_only_and_disjoint_commit_freely() {
        let mut e = SsiEngine::new(3);
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        e.write(t1, Obj(0), Value(1));
        e.write(t2, Obj(1), Value(2));
        assert!(e.commit(t1).is_ok());
        assert!(e.commit(t2).is_ok());
        let t3 = e.begin(2);
        e.read(t3, Obj(0));
        e.read(t3, Obj(1));
        assert!(e.commit(t3).is_ok());
    }

    #[test]
    fn first_committer_wins_still_applies() {
        let mut e = SsiEngine::new(1);
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        e.write(t1, Obj(0), Value(1));
        e.write(t2, Obj(0), Value(2));
        assert!(e.commit(t1).is_ok());
        assert_eq!(e.commit(t2), Err(AbortReason::WriteConflict(Obj(0))));
    }

    #[test]
    fn cross_rw_pair_cannot_both_commit() {
        // T1 reads x / writes y; T2 reads y / writes x: if both committed,
        // the graph would have the two-RW cycle T1 -RW→ T2 -RW→ T1 — not
        // serializable. SSI must abort at least one (here T1, which at its
        // commit already sees both an inbound and outbound conflict with
        // the in-flight T2).
        let mut e = SsiEngine::new(2);
        let (x, y) = (Obj(0), Obj(1));
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        e.read(t1, x);
        e.write(t1, y, Value(1));
        e.read(t2, y);
        e.write(t2, x, Value(1));
        let r1 = e.commit(t1);
        let r2 = e.commit(t2);
        assert!(!(r1.is_ok() && r2.is_ok()), "both write-skew siblings committed");
        assert!(r1.is_ok() || r2.is_ok(), "SSI needlessly aborted both");
    }

    #[test]
    fn serial_use_never_aborts() {
        let mut e = SsiEngine::new(2);
        for i in 0..10u64 {
            let t = e.begin(0);
            e.read(t, Obj((i % 2) as u32));
            e.write(t, Obj((i % 2) as u32), Value(i));
            assert!(e.commit(t).is_ok(), "serial transaction {i} aborted");
        }
    }
}
