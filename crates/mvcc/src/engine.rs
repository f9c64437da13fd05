//! The engine interface shared by the SI, SER and PSI implementations.

use core::fmt;

use si_model::{Obj, Value};
use si_telemetry::{AbortCause, Telemetry};

/// Handle to an in-flight transaction. Obtained from [`Engine::begin`] and
/// consumed by [`Engine::commit`] / [`Engine::abort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxToken(pub(crate) usize);

impl TxToken {
    /// Creates a token from a raw slot index. Engines outside this crate
    /// (e.g. the sanitizer's seeded mutants) need this to implement
    /// [`Engine::begin`]; clients should treat tokens as opaque.
    pub fn from_raw(slot: usize) -> Self {
        TxToken(slot)
    }

    /// The raw slot index this token wraps.
    pub fn raw(self) -> usize {
        self.0
    }
}

/// Why a commit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// First-committer-wins: another transaction committed a write to an
    /// object this transaction also wrote (SI and PSI write-conflict
    /// detection, and the write half of OCC validation).
    WriteConflict(Obj),
    /// OCC read validation: another transaction committed a write to an
    /// object this transaction read (SER engine only).
    ReadConflict(Obj),
}

impl AbortReason {
    /// The telemetry classification of this abort.
    pub fn cause(&self) -> AbortCause {
        match self {
            AbortReason::WriteConflict(_) => AbortCause::WwConflict,
            AbortReason::ReadConflict(_) => AbortCause::RwConflict,
        }
    }

    /// The conflicting object conflict detection named.
    pub fn obj(&self) -> Obj {
        match self {
            AbortReason::WriteConflict(x) | AbortReason::ReadConflict(x) => *x,
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::WriteConflict(x) => write!(f, "write-write conflict on {x}"),
            AbortReason::ReadConflict(x) => write!(f, "read-write conflict on {x}"),
        }
    }
}

impl std::error::Error for AbortReason {}

/// Ground truth reported on a successful commit, consumed by the
/// [`Recorder`](crate::Recorder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitInfo {
    /// This transaction's commit sequence number (1-based; 0 is the
    /// implicit initialisation transaction).
    pub seq: u64,
    /// Commit sequence numbers of the transactions whose effects were
    /// included in this transaction's snapshot (excluding sequence 0,
    /// which is always visible). For prefix-snapshot engines this is
    /// `1..=snapshot`; for the PSI engine an arbitrary causally-closed
    /// set.
    pub visible: Vec<u64>,
}

/// A deterministic, single-threaded transactional engine.
///
/// The scheduler calls `begin`/`read`/`write`/`commit` in an arbitrary
/// interleaving across in-flight transactions; engines must tolerate any
/// such interleaving. Reads never fail in these multi-version engines
/// (there is always a visible version); conflicts surface at commit, per
/// the paper's idealised algorithm.
pub trait Engine {
    /// Number of objects in the store.
    fn object_count(&self) -> usize;

    /// Overrides an object's initial value. Must be called before any
    /// transaction begins.
    fn set_initial(&mut self, obj: Obj, value: Value);

    /// The initial value of an object (what the implicit init transaction
    /// wrote).
    fn initial(&self, obj: Obj) -> Value;

    /// Starts a transaction on behalf of `session`.
    fn begin(&mut self, session: usize) -> TxToken;

    /// Reads `obj` within the transaction (own writes first, then the
    /// snapshot).
    fn read(&mut self, tx: TxToken, obj: Obj) -> Value;

    /// Buffers a write of `value` to `obj`.
    fn write(&mut self, tx: TxToken, obj: Obj, value: Value);

    /// Attempts to commit.
    ///
    /// # Errors
    ///
    /// Returns the [`AbortReason`] if conflict detection refuses the
    /// commit; the transaction is then rolled back and the token invalid.
    fn commit(&mut self, tx: TxToken) -> Result<CommitInfo, AbortReason>;

    /// Abandons the transaction.
    fn abort(&mut self, tx: TxToken);

    /// A short engine name for reports ("SI", "SER", "PSI").
    fn name(&self) -> &'static str;

    /// Attaches a telemetry handle. Instrumented engines then emit one
    /// [`Event`](si_telemetry::Event) per step of every transaction:
    /// `TxBegin` with the acquired snapshot, `VersionObserved` per
    /// external read, `VersionInstalled` per install, and a closing
    /// `TxCommit` or `TxAbort`. The default implementation ignores the
    /// handle; the disabled default handle costs one branch per step.
    fn set_telemetry(&mut self, telemetry: Telemetry) {
        let _ = telemetry;
    }

    /// Performs one step of background work (e.g. replicating one commit
    /// between PSI replicas); returns `true` if anything happened. The
    /// scheduler invokes this with configurable probability, so the
    /// *absence* of background steps models replication lag.
    fn background_step(&mut self) -> bool {
        false
    }

    /// Whether [`Engine::background_step`] currently has work to do.
    /// Systematic explorers use this to schedule background steps as
    /// first-class actors without probing blindly; the default (no
    /// background machinery) is `false`.
    fn background_pending(&self) -> bool {
        false
    }
}
