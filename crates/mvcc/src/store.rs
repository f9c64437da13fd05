//! The multi-version object store shared by all engines.

use std::collections::BTreeMap;

use si_model::{Obj, Value};
use si_telemetry::{Event, Telemetry};

/// A committed version of an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    /// The value written.
    pub value: Value,
    /// Commit sequence number of the writing transaction (0 is the
    /// initial version).
    pub commit_seq: u64,
}

/// A multi-version store: per object, the full committed version history
/// in commit order. Sequence number 0 holds the initial values (the
/// paper's initialisation transaction).
#[derive(Debug, Clone)]
pub struct MultiVersionStore {
    versions: Vec<Vec<Version>>,
}

impl MultiVersionStore {
    /// Creates a store over `object_count` objects, all initialised to 0
    /// at sequence 0.
    pub fn new(object_count: usize) -> Self {
        MultiVersionStore {
            versions: (0..object_count)
                .map(|_| vec![Version { value: Value::INITIAL, commit_seq: 0 }])
                .collect(),
        }
    }

    /// Overrides an object's initial value (sequence 0).
    ///
    /// # Panics
    ///
    /// Panics if versions beyond the initial one already exist or `obj`
    /// is out of range.
    pub fn set_initial(&mut self, obj: Obj, value: Value) {
        let versions = &mut self.versions[obj.index()];
        assert_eq!(versions.len(), 1, "cannot reset initial value after commits");
        versions[0].value = value;
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.versions.len()
    }

    /// The initial value of an object.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    pub fn initial(&self, obj: Obj) -> Value {
        self.versions[obj.index()][0].value
    }

    /// The latest version whose `commit_seq` is `≤ snapshot` — the
    /// snapshot read of the SI algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range. (A version always exists: sequence
    /// 0 holds the initial value.)
    pub fn read_at(&self, obj: Obj, snapshot: u64) -> Version {
        let versions = &self.versions[obj.index()];
        // Versions are appended in increasing commit_seq, so scan from the
        // end.
        *versions
            .iter()
            .rev()
            .find(|v| v.commit_seq <= snapshot)
            .expect("sequence 0 always satisfies the bound")
    }

    /// The latest version visible within an explicit set of commit
    /// sequence numbers (used by the PSI engine, whose snapshots are not
    /// prefixes). `visible(seq)` decides membership; sequence 0 is always
    /// visible.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    pub fn read_visible(&self, obj: Obj, mut visible: impl FnMut(u64) -> bool) -> Version {
        let versions = &self.versions[obj.index()];
        *versions
            .iter()
            .rev()
            .find(|v| v.commit_seq == 0 || visible(v.commit_seq))
            .expect("sequence 0 is always visible")
    }

    /// The commit sequence of the newest committed version of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    pub fn latest_seq(&self, obj: Obj) -> u64 {
        self.versions[obj.index()].last().expect("version 0 always present").commit_seq
    }

    /// Installs a new committed version.
    ///
    /// # Panics
    ///
    /// Panics if `commit_seq` does not exceed the newest version's
    /// sequence (engines commit in sequence order) or `obj` is out of
    /// range.
    pub fn install(&mut self, obj: Obj, value: Value, commit_seq: u64) {
        let latest = self.latest_seq(obj);
        assert!(commit_seq > latest, "versions must be installed in commit order");
        self.versions[obj.index()].push(Version { value, commit_seq });
    }

    /// Installs a committed version at its sorted chain position even if
    /// newer versions are already in place. Correct engines never need
    /// this — they install in commit order — but the sanitizer's
    /// torn-publish mutant deliberately installs versions *after* their
    /// sequence was published, which can land below the newest version.
    ///
    /// # Panics
    ///
    /// Panics if a version with the same sequence already exists or
    /// `obj` is out of range.
    pub fn install_unordered(&mut self, obj: Obj, value: Value, commit_seq: u64) {
        let versions = &mut self.versions[obj.index()];
        let at = versions.partition_point(|v| v.commit_seq < commit_seq);
        assert!(
            versions.get(at).is_none_or(|v| v.commit_seq != commit_seq),
            "duplicate version at seq {commit_seq}"
        );
        versions.insert(at, Version { value, commit_seq });
    }

    /// The commit step of the paper's §1 SI algorithm, shared by the
    /// deterministic [`SiEngine`](crate::SiEngine) and the real-thread
    /// stress store: first-committer-wins validation of `writes` against
    /// `snapshot`, then the install of every write at `seq`, in object
    /// order. The caller owns sequence allocation, publication and the
    /// closing `TxCommit` / `TxAbort` event; this routine only touches
    /// the version chains and reports [`Event::VersionInstalled`] per
    /// install.
    ///
    /// # Errors
    ///
    /// Returns the first object with a committed version newer than
    /// `snapshot`, having installed nothing.
    ///
    /// # Panics
    ///
    /// Panics if an object is out of range or `seq` does not exceed the
    /// newest version of some written object.
    pub fn commit_writes(
        &mut self,
        session: usize,
        snapshot: u64,
        writes: &BTreeMap<Obj, Value>,
        seq: u64,
        telemetry: &Telemetry,
    ) -> Result<(), Obj> {
        for &obj in writes.keys() {
            if self.latest_seq(obj) > snapshot {
                return Err(obj);
            }
        }
        for (&obj, &value) in writes {
            self.install(obj, value, seq);
            telemetry.emit(|| Event::VersionInstalled { session, obj: obj.0, seq });
        }
        Ok(())
    }

    /// All committed versions of an object, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    pub fn versions(&self, obj: Obj) -> &[Version] {
        &self.versions[obj.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads() {
        let mut s = MultiVersionStore::new(1);
        let x = Obj(0);
        s.install(x, Value(10), 1);
        s.install(x, Value(20), 3);
        assert_eq!(s.read_at(x, 0).value, Value::INITIAL);
        assert_eq!(s.read_at(x, 1).value, Value(10));
        assert_eq!(s.read_at(x, 2).value, Value(10));
        assert_eq!(s.read_at(x, 3).value, Value(20));
        assert_eq!(s.read_at(x, 99).value, Value(20));
        assert_eq!(s.latest_seq(x), 3);
    }

    #[test]
    fn visible_set_reads() {
        let mut s = MultiVersionStore::new(1);
        let x = Obj(0);
        s.install(x, Value(10), 1);
        s.install(x, Value(20), 2);
        // Sees seq 1 but not 2: reads 10.
        assert_eq!(s.read_visible(x, |seq| seq == 1).value, Value(10));
        // Sees nothing: falls back to the initial version.
        assert_eq!(s.read_visible(x, |_| false).value, Value::INITIAL);
    }

    #[test]
    fn initial_values() {
        let mut s = MultiVersionStore::new(2);
        s.set_initial(Obj(1), Value(77));
        assert_eq!(s.initial(Obj(0)), Value(0));
        assert_eq!(s.initial(Obj(1)), Value(77));
        assert_eq!(s.read_at(Obj(1), 0).value, Value(77));
    }

    #[test]
    #[should_panic(expected = "commit order")]
    fn out_of_order_install_panics() {
        let mut s = MultiVersionStore::new(1);
        s.install(Obj(0), Value(1), 5);
        s.install(Obj(0), Value(2), 3);
    }

    #[test]
    #[should_panic(expected = "after commits")]
    fn set_initial_after_commit_panics() {
        let mut s = MultiVersionStore::new(1);
        s.install(Obj(0), Value(1), 1);
        s.set_initial(Obj(0), Value(9));
    }

    #[test]
    fn unordered_install_lands_sorted() {
        let mut s = MultiVersionStore::new(1);
        let x = Obj(0);
        s.install(x, Value(30), 3);
        s.install_unordered(x, Value(10), 1);
        let seqs: Vec<u64> = s.versions(x).iter().map(|v| v.commit_seq).collect();
        assert_eq!(seqs, vec![0, 1, 3]);
        assert_eq!(s.read_at(x, 2).value, Value(10));
    }

    #[test]
    fn commit_writes_refuses_a_stale_snapshot_and_installs_nothing() {
        let mut s = MultiVersionStore::new(2);
        let (x, y) = (Obj(0), Obj(1));
        let off = Telemetry::disabled();
        let first: BTreeMap<Obj, Value> = [(y, Value(1))].into();
        assert_eq!(s.commit_writes(0, 0, &first, 1, &off), Ok(()));
        // Snapshot 0 predates y's version 1: first committer wins.
        let both: BTreeMap<Obj, Value> = [(x, Value(2)), (y, Value(2))].into();
        assert_eq!(s.commit_writes(1, 0, &both, 2, &off), Err(y));
        assert_eq!(s.latest_seq(x), 0, "a refused commit must install nothing");
        assert_eq!(s.commit_writes(1, 1, &both, 2, &off), Ok(()));
        assert_eq!(s.read_at(x, 2).value, Value(2));
        assert_eq!(s.read_at(y, 2).value, Value(2));
    }
}
