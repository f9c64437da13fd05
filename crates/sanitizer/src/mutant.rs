//! Seeded atomicity mutants: deliberately broken SI engines.
//!
//! A sanitizer that only ever blesses correct engines proves nothing. The
//! mutants here re-implement the SI protocol over the public
//! [`MultiVersionStore`] with one precise defect each, so the test suite
//! can assert the explorer *finds* an interleaving exposing the defect,
//! the race detector flags it, the oracles reject it, and the shrinker
//! reduces it to a minimal replayable schedule:
//!
//! * [`Mutation::DropFirstCommitterWins`] — commit-time write-conflict
//!   detection is skipped. Two concurrent increments of the same object
//!   both commit and one update is lost: the NOCONFLICT axiom fails, the
//!   extracted graph leaves `GraphSI` (a `WW;RW` cycle), and the
//!   vector-clock detector reports a [`WwInstall`](crate::RaceKind)
//!   race — two happens-before-concurrent installs of one object.
//! * [`Mutation::SnapshotLag`] — `begin` takes a snapshot `lag` commits
//!   behind the counter, so a session can fail to observe its *own*
//!   previous commit. The SESSION axiom (SO ⊆ VIS) fails, the graph gains
//!   an `SO;RW` cycle, and the detector reports a
//!   [`StaleRead`](crate::RaceKind): a version ordered before the read by
//!   happens-before was skipped.
//! * [`Mutation::TornPublish`] — the stress store's publication
//!   invariant broken: a multi-write commit publishes its sequence (and
//!   reports `TxCommit`) after installing only its *first* version; the
//!   remaining installs trickle in as background steps. A snapshot taken
//!   after the publish includes the sequence but can read a torn prefix
//!   of its writes, so the EXT axiom fails — and every late install is
//!   flagged by the detector as a [`TornPublish`](crate::RaceKind) race
//!   (an install of an already-committed sequence).

use std::collections::{BTreeMap, VecDeque};

use si_model::{Obj, Value};
use si_mvcc::{AbortReason, CommitInfo, Engine, MultiVersionStore, TxToken, Version};
use si_telemetry::{AbortCause, Event, Snapshot, Telemetry};

/// Which defect a [`MutantSiEngine`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Skip first-committer-wins validation entirely.
    DropFirstCommitterWins,
    /// Snapshots lag this many commits behind the commit counter.
    SnapshotLag {
        /// The lag, in commits.
        lag: u64,
    },
    /// Multi-write commits publish their sequence after installing only
    /// the first version; the rest install later as background steps.
    TornPublish,
}

#[derive(Debug)]
struct MutantTx {
    session: usize,
    snapshot: u64,
    writes: BTreeMap<Obj, Value>,
    finished: bool,
}

/// The SI protocol with one seeded defect (see [`Mutation`]). Everything
/// else — snapshot reads, own-write visibility, contiguous commit
/// sequences, honest `CommitInfo` ground truth — matches [`SiEngine`]
/// (si_mvcc::SiEngine), so the *only* way to tell a mutant from the real
/// engine is to drive it into an interleaving where the defect bites.
#[derive(Debug)]
pub struct MutantSiEngine {
    store: MultiVersionStore,
    commit_counter: u64,
    active: Vec<MutantTx>,
    telemetry: Telemetry,
    mutation: Mutation,
    /// Torn-publish backlog: versions whose sequence is already
    /// committed but which have not been installed yet. Each entry is
    /// `(session, obj, value, seq)`; `background_step` installs one.
    deferred: VecDeque<(usize, Obj, Value, u64)>,
}

impl MutantSiEngine {
    /// Creates a mutant over `object_count` objects.
    pub fn new(object_count: usize, mutation: Mutation) -> Self {
        MutantSiEngine {
            store: MultiVersionStore::new(object_count),
            commit_counter: 0,
            active: Vec::new(),
            telemetry: Telemetry::disabled(),
            mutation,
            deferred: VecDeque::new(),
        }
    }

    /// Which defect this engine carries.
    pub fn mutation(&self) -> Mutation {
        self.mutation
    }

    fn tx(&mut self, token: TxToken) -> &mut MutantTx {
        let tx = &mut self.active[token.raw()];
        assert!(!tx.finished, "transaction already committed or aborted");
        tx
    }
}

impl Engine for MutantSiEngine {
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
        let snapshot = match self.mutation {
            Mutation::SnapshotLag { lag } => self.commit_counter.saturating_sub(lag),
            _ => self.commit_counter,
        };
        self.telemetry.emit(|| Event::TxBegin { session, snapshot: Snapshot::Prefix(snapshot) });
        self.active.push(MutantTx { session, snapshot, writes: BTreeMap::new(), finished: false });
        TxToken::from_raw(self.active.len() - 1)
    }

    fn read(&mut self, tx: TxToken, obj: Obj) -> Value {
        let (session, snapshot) = {
            let t = self.tx(tx);
            if let Some(&v) = t.writes.get(&obj) {
                return v;
            }
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
        let (session, snapshot, writes) = {
            let t = self.tx(tx);
            (t.session, t.snapshot, t.writes.clone())
        };
        let validated = self.mutation != Mutation::DropFirstCommitterWins;
        for &obj in writes.keys() {
            if validated && self.store.latest_seq(obj) > snapshot {
                self.active[tx.raw()].finished = true;
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
        // Torn publish: a multi-write commit installs only its first
        // version before the sequence is published; the rest join the
        // deferred backlog and trickle in as background steps.
        let eager = match self.mutation {
            Mutation::TornPublish if writes.len() >= 2 => 1,
            _ => writes.len(),
        };
        for (i, (&obj, &value)) in writes.iter().enumerate() {
            if i < eager {
                self.store.install(obj, value, seq);
                self.telemetry.emit(|| Event::VersionInstalled { session, obj: obj.0, seq });
            } else {
                self.deferred.push_back((session, obj, value, seq));
            }
        }
        self.active[tx.raw()].finished = true;
        self.telemetry.emit(|| Event::TxCommit { session, seq, ops: writes.len() });
        Ok(CommitInfo { seq, visible: (1..=snapshot).collect() })
    }

    fn abort(&mut self, tx: TxToken) {
        let t = self.tx(tx);
        t.finished = true;
        let session = t.session;
        self.telemetry.emit(|| Event::TxAbort { session, cause: AbortCause::Explicit, obj: None });
    }

    fn name(&self) -> &'static str {
        match self.mutation {
            Mutation::DropFirstCommitterWins => "SI-mutant-drop-fcw",
            Mutation::SnapshotLag { .. } => "SI-mutant-snapshot-lag",
            Mutation::TornPublish => "SI-mutant-torn-publish",
        }
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn background_pending(&self) -> bool {
        !self.deferred.is_empty()
    }

    fn background_step(&mut self) -> bool {
        let Some((session, obj, value, seq)) = self.deferred.pop_front() else {
            return false;
        };
        // The sequence is long committed; this install lands *below*
        // newer versions if anyone committed in the meantime.
        self.store.install_unordered(obj, value, seq);
        self.telemetry.emit(|| Event::VersionInstalled { session, obj: obj.0, seq });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_fcw_loses_updates() {
        let mut e = MutantSiEngine::new(1, Mutation::DropFirstCommitterWins);
        let x = Obj(0);
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        let v1 = e.read(t1, x);
        let v2 = e.read(t2, x);
        e.write(t1, x, Value(v1.0 + 1));
        e.write(t2, x, Value(v2.0 + 1));
        assert!(e.commit(t1).is_ok());
        // The real SI engine refuses this commit; the mutant loses t1's
        // increment.
        assert!(e.commit(t2).is_ok());
        assert_eq!(e.store.read_at(x, u64::MAX).value, Value(1));
    }

    #[test]
    fn snapshot_lag_misses_own_commit() {
        let mut e = MutantSiEngine::new(1, Mutation::SnapshotLag { lag: 1 });
        let x = Obj(0);
        let t1 = e.begin(0);
        e.write(t1, x, Value(5));
        e.commit(t1).unwrap();
        // Same session: the lagged snapshot excludes its own commit,
        // breaking strong-session SI.
        let t2 = e.begin(0);
        assert_eq!(e.read(t2, x), Value(0));
    }

    #[test]
    fn torn_publish_defers_all_but_the_first_install() {
        let mut e = MutantSiEngine::new(2, Mutation::TornPublish);
        let (x, y) = (Obj(0), Obj(1));
        let t1 = e.begin(0);
        e.write(t1, x, Value(1));
        e.write(t1, y, Value(1));
        assert!(e.commit(t1).is_ok());
        // The sequence is published but y's version is still missing: a
        // reader at the new snapshot sees a torn prefix of the commit.
        assert!(e.background_pending());
        let t2 = e.begin(1);
        assert_eq!(e.read(t2, x), Value(1));
        assert_eq!(e.read(t2, y), Value(0));
        // The background step heals the tear — late, and below any
        // versions committed in the meantime.
        assert!(e.background_step());
        assert!(!e.background_pending());
        let t3 = e.begin(1);
        assert_eq!(e.read(t3, y), Value(1));
    }

    #[test]
    fn torn_publish_leaves_single_write_commits_intact() {
        let mut e = MutantSiEngine::new(1, Mutation::TornPublish);
        let x = Obj(0);
        let t1 = e.begin(0);
        e.write(t1, x, Value(7));
        assert!(e.commit(t1).is_ok());
        assert!(!e.background_pending());
        let t2 = e.begin(1);
        assert_eq!(e.read(t2, x), Value(7));
    }

    #[test]
    fn lag_zero_behaves_like_si() {
        let mut e = MutantSiEngine::new(1, Mutation::SnapshotLag { lag: 0 });
        let x = Obj(0);
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        e.write(t1, x, Value(1));
        e.write(t2, x, Value(2));
        assert!(e.commit(t1).is_ok());
        assert_eq!(e.commit(t2), Err(AbortReason::WriteConflict(x)));
    }
}
