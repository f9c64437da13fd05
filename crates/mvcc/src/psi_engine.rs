//! The parallel-SI engine: per-replica causal snapshots with explicit
//! replication (after Walter, reference [31] of the paper).

use std::collections::{BTreeMap, BTreeSet};

use si_model::{Obj, Value};
use si_telemetry::{AbortCause, Event, Snapshot, Telemetry};

use crate::engine::{AbortReason, CommitInfo, Engine, TxToken};
use crate::store::{MultiVersionStore, Version};

#[derive(Debug)]
struct ActiveTx {
    session: usize,
    snapshot: BTreeSet<u64>,
    writes: BTreeMap<Obj, Value>,
    finished: bool,
}

#[derive(Debug, Clone)]
struct CommittedMeta {
    visible: BTreeSet<u64>,
    origin: usize,
}

/// Parallel snapshot isolation: the store is logically replicated;
/// sessions are pinned to replicas (round-robin) and take *causally
/// closed* snapshots of whatever their replica has applied, rather than a
/// prefix of the global commit order.
///
/// * `begin` snapshots the session's replica state — an arbitrary
///   causally-closed set of transactions, not necessarily a commit-order
///   prefix. This realises TRANSVIS without PREFIX (Definition 20).
/// * `commit` still enforces global first-committer-wins per object, but
///   stronger: every *existing* committed writer of an object this
///   transaction wrote must be in its snapshot (NOCONFLICT). The commit
///   applies immediately to the origin replica only.
/// * [`Engine::background_step`] replicates one committed transaction to
///   one replica, respecting causal order. **Replication lag is what
///   makes long forks reachable**: two replicas can observe two
///   independent writes in opposite orders until replication catches up.
#[derive(Debug)]
pub struct PsiEngine {
    store: MultiVersionStore,
    commit_counter: u64,
    active: Vec<ActiveTx>,
    replicas: Vec<BTreeSet<u64>>,
    committed: Vec<CommittedMeta>,
    telemetry: Telemetry,
}

impl PsiEngine {
    /// Creates an engine over `object_count` objects with
    /// `replica_count ≥ 1` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `replica_count` is zero.
    pub fn new(object_count: usize, replica_count: usize) -> Self {
        assert!(replica_count >= 1, "need at least one replica");
        PsiEngine {
            store: MultiVersionStore::new(object_count),
            commit_counter: 0,
            active: Vec::new(),
            replicas: vec![BTreeSet::new(); replica_count],
            committed: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// The replica a session is pinned to.
    pub fn replica_of(&self, session: usize) -> usize {
        session % self.replicas.len()
    }

    /// Applies every outstanding commit to every replica.
    pub fn replicate_all(&mut self) {
        while self.background_step() {}
    }

    /// Whether every replica has applied every commit.
    pub fn fully_replicated(&self) -> bool {
        self.replicas.iter().all(|r| r.len() as u64 == self.commit_counter)
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

impl Engine for PsiEngine {
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
        let replica = self.replica_of(session);
        self.telemetry.emit(|| Event::TxBegin {
            session,
            snapshot: Snapshot::Set(self.replicas[replica].iter().copied().collect()),
        });
        self.active.push(ActiveTx {
            session,
            snapshot: self.replicas[replica].clone(),
            writes: BTreeMap::new(),
            finished: false,
        });
        TxToken(self.active.len() - 1)
    }

    fn read(&mut self, tx: TxToken, obj: Obj) -> Value {
        let t = &self.active[tx.0];
        assert!(!t.finished, "transaction already committed or aborted");
        if let Some(&v) = t.writes.get(&obj) {
            return v;
        }
        let session = t.session;
        let snapshot = &t.snapshot;
        let Version { value, commit_seq: seq } =
            self.store.read_visible(obj, |seq| snapshot.contains(&seq));
        self.telemetry.emit(|| Event::VersionObserved { session, obj: obj.0, seq });
        value
    }

    fn write(&mut self, tx: TxToken, obj: Obj, value: Value) {
        self.tx(tx).writes.insert(obj, value);
    }

    fn commit(&mut self, tx: TxToken) -> Result<CommitInfo, AbortReason> {
        let (session, snapshot, writes) = {
            let t = self.tx(tx);
            (t.session, t.snapshot.clone(), t.writes.clone())
        };
        // NOCONFLICT: every committed writer of every object we wrote must
        // already be visible to us.
        for &obj in writes.keys() {
            for version in self.store.versions(obj) {
                if version.commit_seq != 0 && !snapshot.contains(&version.commit_seq) {
                    self.active[tx.0].finished = true;
                    self.telemetry.emit(|| Event::TxAbort {
                        session,
                        cause: AbortCause::WwConflict,
                        obj: Some(obj.0),
                    });
                    return Err(AbortReason::WriteConflict(obj));
                }
            }
        }
        self.commit_counter += 1;
        let seq = self.commit_counter;
        for (&obj, &value) in &writes {
            self.store.install(obj, value, seq);
            self.telemetry.emit(|| Event::VersionInstalled { session, obj: obj.0, seq });
        }
        let origin = self.replica_of(session);
        self.committed.push(CommittedMeta { visible: snapshot.clone(), origin });
        // Apply to the origin replica immediately (sessions read their own
        // writes; SESSION axiom).
        self.replicas[origin].insert(seq);
        self.active[tx.0].finished = true;
        self.telemetry.emit(|| Event::TxCommit { session, seq, ops: writes.len() });
        Ok(CommitInfo { seq, visible: snapshot.into_iter().collect() })
    }

    fn abort(&mut self, tx: TxToken) {
        let t = self.tx(tx);
        t.finished = true;
        let session = t.session;
        self.telemetry.emit(|| Event::TxAbort { session, cause: AbortCause::Explicit, obj: None });
    }

    fn name(&self) -> &'static str {
        "PSI"
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Whether any committed transaction still awaits replication to some
    /// replica (i.e. whether [`Engine::background_step`] would do work).
    fn background_pending(&self) -> bool {
        !self.fully_replicated()
    }

    /// Replicates the oldest applicable commit to the first replica
    /// missing it, respecting causality (a transaction is applied only
    /// after everything visible to it).
    fn background_step(&mut self) -> bool {
        for seq in 1..=self.commit_counter {
            let meta = &self.committed[(seq - 1) as usize];
            for (ri, replica) in self.replicas.iter().enumerate() {
                if ri != meta.origin
                    && !replica.contains(&seq)
                    && meta.visible.iter().all(|v| replica.contains(v))
                {
                    self.replicas[ri].insert(seq);
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_fork_is_reachable() {
        // Sessions 0 and 1 on replica 0 and 1 (2 replicas).
        let mut e = PsiEngine::new(2, 2);
        let (x, y) = (Obj(0), Obj(1));

        // Writers commit independently on their replicas.
        let t1 = e.begin(0); // replica 0
        e.write(t1, x, Value(1));
        e.commit(t1).unwrap();
        let t2 = e.begin(1); // replica 1
        e.write(t2, y, Value(1));
        e.commit(t2).unwrap();

        // No replication yet: reader on replica 0 sees x but not y;
        // reader on replica 1 sees y but not x — the long fork.
        let r1 = e.begin(2); // session 2 -> replica 0
        assert_eq!(e.read(r1, x), Value(1));
        assert_eq!(e.read(r1, y), Value(0));
        e.commit(r1).unwrap();
        let r2 = e.begin(3); // session 3 -> replica 1
        assert_eq!(e.read(r2, x), Value(0));
        assert_eq!(e.read(r2, y), Value(1));
        e.commit(r2).unwrap();
    }

    #[test]
    fn replication_heals_the_fork() {
        let mut e = PsiEngine::new(2, 2);
        let (x, y) = (Obj(0), Obj(1));
        let t1 = e.begin(0);
        e.write(t1, x, Value(1));
        e.commit(t1).unwrap();
        let t2 = e.begin(1);
        e.write(t2, y, Value(1));
        e.commit(t2).unwrap();
        e.replicate_all();
        assert!(e.fully_replicated());
        let r = e.begin(3); // replica 1
        assert_eq!(e.read(r, x), Value(1));
        assert_eq!(e.read(r, y), Value(1));
    }

    #[test]
    fn conflicting_writes_across_replicas_abort() {
        let mut e = PsiEngine::new(1, 2);
        let x = Obj(0);
        let t1 = e.begin(0); // replica 0
        let t2 = e.begin(1); // replica 1
        e.write(t1, x, Value(1));
        e.write(t2, x, Value(2));
        assert!(e.commit(t1).is_ok());
        // t2 does not see t1's write: NOCONFLICT refuses the commit.
        assert_eq!(e.commit(t2), Err(AbortReason::WriteConflict(x)));
    }

    #[test]
    fn causal_order_of_replication() {
        let mut e = PsiEngine::new(2, 2);
        let (x, y) = (Obj(0), Obj(1));
        // Session 0 (replica 0): write x, then (seeing x) write y.
        let t1 = e.begin(0);
        e.write(t1, x, Value(1));
        e.commit(t1).unwrap();
        let t2 = e.begin(0);
        assert_eq!(e.read(t2, x), Value(1));
        e.write(t2, y, Value(2));
        e.commit(t2).unwrap();
        // One replication step must deliver t1 before t2 (causality).
        assert!(e.background_step());
        let r = e.begin(1); // replica 1
        let saw_y = e.read(r, y);
        let saw_x = e.read(r, x);
        assert_eq!(saw_x, Value(1), "t1 replicates first");
        assert_eq!(saw_y, Value(0), "t2 cannot arrive before t1");
    }

    #[test]
    fn session_reads_its_own_commits() {
        let mut e = PsiEngine::new(1, 3);
        let x = Obj(0);
        let t1 = e.begin(5);
        e.write(t1, x, Value(4));
        e.commit(t1).unwrap();
        let t2 = e.begin(5);
        assert_eq!(e.read(t2, x), Value(4));
    }

    #[test]
    fn commit_info_visible_is_snapshot() {
        let mut e = PsiEngine::new(1, 2);
        let x = Obj(0);
        let t1 = e.begin(0);
        e.write(t1, x, Value(1));
        assert_eq!(e.commit(t1).unwrap().visible, Vec::<u64>::new());
        let t2 = e.begin(0);
        e.write(t2, x, Value(2));
        assert_eq!(e.commit(t2).unwrap().visible, vec![1]);
    }

    #[test]
    fn single_replica_degenerates_to_si_like() {
        let mut e = PsiEngine::new(2, 1);
        let (x, y) = (Obj(0), Obj(1));
        let t1 = e.begin(0);
        e.write(t1, x, Value(1));
        e.commit(t1).unwrap();
        let t2 = e.begin(7); // any session, same replica
        assert_eq!(e.read(t2, x), Value(1));
        assert_eq!(e.read(t2, y), Value(0));
    }
}
