//! Turning engine runs into histories and abstract executions.

use serde::Serialize;
use si_execution::AbstractExecution;
use si_model::{History, Obj, Op, Transaction, Value};
use si_relations::{Relation, TxId, TxSet};
use si_telemetry::MetricsReport;

/// The set of commit sequence numbers a transaction's snapshot saw.
///
/// The stress store's snapshots are watermarks: always a
/// contiguous prefix `1..=upto`; materialising it per transaction is
/// `O(n)` memory *per commit* — `O(n²)` for a run — which is exactly
/// the cost that made 10^5-transaction stress recordings take tens of
/// gigabytes. [`VisibleSet::Prefix`] keeps it at one word. Engines with
/// genuinely non-prefix snapshots (PSI replicas mid-replication) use
/// [`VisibleSet::Explicit`].
#[derive(Debug, Clone)]
pub enum VisibleSet {
    /// The contiguous prefix `1..=upto` (`0` = nothing visible).
    Prefix(u64),
    /// An explicit set of visible commit sequence numbers.
    Explicit(Vec<u64>),
}

/// A committed transaction as observed by the scheduler: the operations
/// it performed (with the values actually read) plus the engine's ground
/// truth.
#[derive(Debug, Clone)]
pub struct CommittedTx {
    /// The client session that ran it.
    pub session: usize,
    /// The operations in program order, with read results filled in.
    pub ops: Vec<Op>,
    /// Commit sequence number (1-based).
    pub seq: u64,
    /// Commit sequence numbers visible to its snapshot.
    pub visible: VisibleSet,
}

/// Aggregate counters of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RunStats {
    /// Transactions that committed.
    pub committed: u64,
    /// Commit attempts refused by conflict detection (each followed by a
    /// retry, up to the scheduler's limit).
    pub aborted: u64,
    /// The subset of `aborted` refused by write-write conflict detection
    /// (first-committer-wins / NOCONFLICT).
    pub aborted_ww: u64,
    /// The subset of `aborted` refused by read validation or SSI
    /// dangerous-structure prevention.
    pub aborted_rw: u64,
    /// Scripts abandoned after exhausting their retries.
    pub gave_up: u64,
    /// Total operations executed (including those of aborted attempts).
    pub ops_executed: u64,
    /// In-flight transactions lost to injected system failures (each
    /// restarted, per §5's client assumptions).
    pub crashes: u64,
}

/// The outcome of a scheduler run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The client-visible history (init transaction first).
    pub history: History,
    /// The same history extended with the engine's ground-truth VIS/CO.
    pub execution: AbstractExecution,
    /// Aggregate counters.
    pub stats: RunStats,
    /// Snapshot of the run's metrics registry (commit/abort counters and
    /// latency histograms); empty when the scheduler ran unmetered.
    pub metrics: MetricsReport,
}

/// Accumulates committed transactions and finishes into a
/// [`RunResult`].
#[derive(Debug, Default)]
pub struct Recorder {
    committed: Vec<CommittedTx>,
    /// Highest commit seq recorded per session: sessions are sequential
    /// clients, so their commits must arrive in increasing seq order even
    /// when *different* sessions' records interleave arbitrarily.
    session_high_water: Vec<u64>,
    pub(crate) stats: RunStats,
    pub(crate) metrics: MetricsReport,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Records a committed transaction.
    ///
    /// Records from *different* sessions may arrive in any global order
    /// ([`Recorder::finish`] sorts by commit seq), but within one session
    /// they must be monotonically increasing — a session is a sequential
    /// client, and an out-of-order record would silently corrupt the SO
    /// relation of the reconstructed history.
    ///
    /// # Panics
    ///
    /// Panics on `tx.ops` being empty, a commit seq of 0, or a seq not
    /// strictly above the session's previous record.
    pub fn record(&mut self, tx: CommittedTx) {
        assert!(!tx.ops.is_empty(), "committed transactions must have operations");
        assert!(tx.seq >= 1, "commit sequence numbers are 1-based");
        if tx.session >= self.session_high_water.len() {
            self.session_high_water.resize(tx.session + 1, 0);
        }
        let last = &mut self.session_high_water[tx.session];
        assert!(
            tx.seq > *last,
            "session {} recorded commit seq {} after already recording seq {}: \
             per-session records must be monotonic",
            tx.session,
            tx.seq,
            last,
        );
        *last = tx.seq;
        self.committed.push(tx);
    }

    /// Number of recorded transactions.
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }

    /// Sorts by commit seq, asserts contiguity and rebuilds the
    /// client-visible history (init transaction first).
    fn build_history(&mut self, initial_values: &[Value], session_count: usize) -> History {
        self.committed.sort_by_key(|t| t.seq);
        for (i, t) in self.committed.iter().enumerate() {
            assert_eq!(t.seq, (i + 1) as u64, "commit sequences must be contiguous");
        }
        let n = self.committed.len() + 1; // + init

        // Transactions: init first, then commit order.
        let mut transactions = Vec::with_capacity(n);
        transactions.push(Transaction::new(
            initial_values
                .iter()
                .enumerate()
                .map(|(i, &v)| Op::Write(Obj::from_index(i), v))
                .collect(),
        ));
        for t in &self.committed {
            transactions.push(Transaction::new(t.ops.clone()));
        }

        // Sessions: preserve client session identity, ordered by seq.
        let mut sessions: Vec<Vec<TxId>> = vec![Vec::new(); session_count];
        for (i, t) in self.committed.iter().enumerate() {
            sessions[t.session].push(TxId::from_index(i + 1));
        }
        sessions.retain(|s| !s.is_empty());

        let object_names = (0..initial_values.len()).map(|i| format!("x{i}")).collect();
        History::from_parts(transactions, sessions, Some(TxId(0)), object_names)
            .expect("recorder output is structurally valid")
    }

    /// Builds the history and ground-truth execution.
    ///
    /// `initial_values[i]` is the init transaction's write to `Obj(i)`;
    /// `session_count` fixes the number of sessions (sessions that
    /// committed nothing become empty… and are therefore dropped, since
    /// histories have no use for them).
    ///
    /// The dense ground-truth relations cost `Θ(n²)` bits; past ~10^5
    /// transactions use [`Recorder::finish_history_only`] instead.
    ///
    /// # Panics
    ///
    /// Panics if commit sequence numbers are not `1..=n` without gaps
    /// (engines allocate them contiguously), or if a `visible` entry
    /// references an unknown sequence number.
    pub fn finish(mut self, initial_values: &[Value], session_count: usize) -> RunResult {
        let history = self.build_history(initial_values, session_count);
        let n = self.committed.len() + 1; // + init

        // Ground-truth VIS. Row `v` is `{t | v visible to t}`; prefix
        // visible sets make it a suffix-monotone family — `v` is visible
        // to `t` iff `upto(t) ≥ v` — so rows are built highest-`v` first,
        // each as (a copy of) the previous row plus the transactions
        // whose prefix ends exactly at `v`. Word-level copies instead of
        // the per-edge inserts that made 20k-transaction recordings take
        // seconds.
        let committed = self.committed.len();
        let mut starts_at: Vec<Vec<u32>> = vec![Vec::new(); committed + 1];
        for (i, t) in self.committed.iter().enumerate() {
            match &t.visible {
                VisibleSet::Prefix(upto) => {
                    assert!(*upto <= committed as u64, "dangling visible seq");
                    starts_at[*upto as usize].push((i + 1) as u32);
                }
                VisibleSet::Explicit(_) => {}
            }
        }
        let mut vis_rows: Vec<TxSet> = Vec::with_capacity(n);
        vis_rows.resize_with(n, || TxSet::new(n));
        let mut suffix = TxSet::new(n);
        for v in (1..n).rev() {
            for &t in &starts_at[v] {
                suffix.insert(TxId::from_index(t as usize));
            }
            vis_rows[v] = suffix.clone();
        }
        vis_rows[0].insert_range(1..n); // init visible to all
        for (i, t) in self.committed.iter().enumerate() {
            if let VisibleSet::Explicit(seqs) = &t.visible {
                let me = TxId::from_index(i + 1);
                for &v in seqs {
                    assert!(v >= 1 && v <= committed as u64, "dangling visible seq");
                    vis_rows[v as usize].insert(me);
                }
            }
        }
        let vis = Relation::from_rows(vis_rows);

        // Ground-truth CO: commit order, i.e. the strict total order of
        // sequence numbers with init first — row `i` is the range suffix
        // `i+1..n`.
        let mut co = Relation::new(n);
        for i in 0..n {
            co.insert_row_range(TxId::from_index(i), i + 1..n);
        }

        let execution = AbstractExecution::new(history.clone(), vis, co)
            .expect("engine ground truth is structurally valid");

        RunResult { history, execution, stats: self.stats, metrics: self.metrics }
    }

    /// [`Recorder::finish`] without the ground-truth execution: just the
    /// history and counters.
    ///
    /// The dense VIS/CO matrices are `Θ(n²)` bits (a 10^6-transaction
    /// recording would need two 125 GB relations before validation even
    /// starts), so scale runs — the 10^5-transaction si-solve smoke, the
    /// 10^6-transaction bench cells — record the history alone and leave
    /// certification to checkers that rebuild their own evidence.
    ///
    /// # Panics
    ///
    /// Panics if commit sequence numbers are not `1..=n` without gaps.
    pub fn finish_history_only(
        mut self,
        initial_values: &[Value],
        session_count: usize,
    ) -> (History, RunStats, MetricsReport) {
        let history = self.build_history(initial_values, session_count);
        (history, self.stats, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_execution::SpecModel;

    #[test]
    fn finish_builds_valid_execution() {
        let mut r = Recorder::new();
        r.record(CommittedTx {
            session: 0,
            ops: vec![Op::write(Obj(0), 1)],
            seq: 1,
            visible: VisibleSet::Explicit(vec![]),
        });
        r.record(CommittedTx {
            session: 1,
            ops: vec![Op::read(Obj(0), 1)],
            seq: 2,
            visible: VisibleSet::Explicit(vec![1]),
        });
        r.stats.committed = 2;
        let result = r.finish(&[Value(0)], 2);
        assert_eq!(result.history.tx_count(), 3);
        assert_eq!(result.history.session_count(), 2);
        assert!(result.execution.is_co_total());
        assert!(SpecModel::Si.check(&result.execution).is_ok());
        assert_eq!(result.stats.committed, 2);
    }

    #[test]
    fn empty_sessions_are_dropped() {
        let mut r = Recorder::new();
        r.record(CommittedTx {
            session: 3,
            ops: vec![Op::write(Obj(0), 1)],
            seq: 1,
            visible: VisibleSet::Explicit(vec![]),
        });
        let result = r.finish(&[Value(0)], 5);
        assert_eq!(result.history.session_count(), 1);
    }

    #[test]
    fn interleaved_sessions_round_trip_through_check_si() {
        // Global arrival order is jumbled across sessions — only the
        // per-session order is monotonic, as with concurrent threads
        // racing to the recorder lock. The rebuilt execution must still
        // be a legal SI execution with correct session order.
        let mut r = Recorder::new();
        // Session 1 commits second but reaches the recorder first.
        r.record(CommittedTx {
            session: 1,
            ops: vec![Op::read(Obj(0), 1), Op::write(Obj(1), 2)],
            seq: 2,
            visible: VisibleSet::Explicit(vec![1]),
        });
        r.record(CommittedTx {
            session: 0,
            ops: vec![Op::write(Obj(0), 1)],
            seq: 1,
            visible: VisibleSet::Explicit(vec![]),
        });
        r.record(CommittedTx {
            session: 0,
            ops: vec![Op::read(Obj(1), 2), Op::write(Obj(0), 3)],
            seq: 3,
            visible: VisibleSet::Explicit(vec![1, 2]),
        });
        let result = r.finish(&[Value(0), Value(0)], 2);
        assert_eq!(result.history.tx_count(), 4);
        assert_eq!(result.history.session_count(), 2);
        assert!(SpecModel::Si.check(&result.execution).is_ok());
    }

    #[test]
    fn prefix_and_explicit_visible_sets_agree() {
        // `Prefix(k)` is notation for the enumerated set `{1, ..., k}`;
        // a run recorded either way must rebuild the *same* history and
        // ground-truth execution, and `finish_history_only` must agree
        // on the history.
        // Session 0 writes x at seqs 1 and 3; the others read the
        // latest visible x (snapshot = all earlier commits).
        let record = |r: &mut Recorder, prefix: bool| {
            for (session, seq, sees_x) in
                [(0usize, 1u64, 0u64), (1, 2, 1), (0, 3, 1), (2, 4, 3), (1, 5, 3)]
            {
                let visible = if prefix {
                    VisibleSet::Prefix(seq - 1)
                } else {
                    VisibleSet::Explicit((1..seq).collect())
                };
                let ops = if session == 0 {
                    vec![Op::write(Obj(0), seq)]
                } else {
                    vec![Op::read(Obj(0), sees_x), Op::write(Obj(session as u32), seq)]
                };
                r.record(CommittedTx { session, ops, seq, visible });
            }
        };
        let mut with_prefix = Recorder::new();
        record(&mut with_prefix, true);
        let mut with_explicit = Recorder::new();
        record(&mut with_explicit, false);
        let mut history_only = Recorder::new();
        record(&mut history_only, true);

        let a = with_prefix.finish(&[Value(0), Value(0), Value(0)], 3);
        let b = with_explicit.finish(&[Value(0), Value(0), Value(0)], 3);
        assert_eq!(a.history, b.history);
        assert_eq!(a.execution, b.execution);
        assert!(SpecModel::Si.check(&a.execution).is_ok());

        let (h, _, _) = history_only.finish_history_only(&[Value(0), Value(0), Value(0)], 3);
        assert_eq!(h, a.history);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn out_of_order_session_records_panic() {
        let mut r = Recorder::new();
        r.record(CommittedTx {
            session: 0,
            ops: vec![Op::write(Obj(0), 1)],
            seq: 2,
            visible: VisibleSet::Explicit(vec![]),
        });
        // Same session delivering an older commit afterwards: timestamp
        // regression, must be refused loudly.
        r.record(CommittedTx {
            session: 0,
            ops: vec![Op::write(Obj(0), 2)],
            seq: 1,
            visible: VisibleSet::Explicit(vec![]),
        });
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn gap_in_sequences_panics() {
        let mut r = Recorder::new();
        r.record(CommittedTx {
            session: 0,
            ops: vec![Op::write(Obj(0), 1)],
            seq: 2,
            visible: VisibleSet::Explicit(vec![]),
        });
        let _ = r.finish(&[Value(0)], 1);
    }
}
