//! Shared-state access probes: the engines' yield-point hooks.
//!
//! The sanitizer's vector-clock race detector needs to see *inside* the
//! engines — which snapshot a transaction acquired, which committed
//! version each read observed, which versions a commit installed — not
//! just the client-visible history. Every engine therefore carries an
//! [`EngineProbe`] handle and reports these internal shared-state
//! accesses through it. Like [`Telemetry`](si_telemetry::Telemetry), the
//! default handle is disabled and costs one branch per access: the event
//! is neither constructed nor delivered unless a sink is attached, so
//! production runs pay nothing.
//!
//! Event semantics (all sequence numbers are engine commit sequence
//! numbers, 0 being the initial versions):
//!
//! * [`ProbeEvent::SnapshotPrefix`] / [`ProbeEvent::SnapshotSet`] — a
//!   transaction *acquired* its snapshot at `begin`: the happens-before
//!   acquire edge from every listed commit.
//! * [`ProbeEvent::VersionObserved`] — an external (non-own-write)
//!   read returned the version installed at `seq`.
//! * [`ProbeEvent::VersionInstalled`] — commit installed a version: a
//!   *write* access to the object's version chain.
//! * [`ProbeEvent::Committed`] — the commit completed at `seq`: the
//!   happens-before release fence covering the attempt's accesses.
//! * [`ProbeEvent::AttemptDiscarded`] — the in-flight attempt aborted
//!   (explicitly or by conflict detection): its speculative accesses were
//!   rolled back and must not participate in race detection.

use core::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use si_model::Obj;

/// One internal shared-state access or synchronisation fence, reported by
/// an engine through its [`EngineProbe`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ProbeEvent {
    /// `begin` acquired a prefix snapshot: all commits `1..=upto` are
    /// visible (SI/SER/SSI engines).
    SnapshotPrefix {
        /// The acquiring session.
        session: usize,
        /// Highest commit sequence number included in the snapshot.
        upto: u64,
    },
    /// `begin` acquired an explicit, not-necessarily-prefix snapshot (the
    /// PSI engine's causally-closed replica state).
    SnapshotSet {
        /// The acquiring session.
        session: usize,
        /// The commit sequence numbers included in the snapshot.
        visible: Vec<u64>,
    },
    /// An external read observed the version of `obj` installed at `seq`.
    VersionObserved {
        /// The reading session.
        session: usize,
        /// The object read.
        obj: Obj,
        /// Commit sequence of the observed version (0 = initial).
        seq: u64,
    },
    /// Commit installed a new version of `obj` at `seq`.
    VersionInstalled {
        /// The writing session.
        session: usize,
        /// The object written.
        obj: Obj,
        /// Commit sequence of the installed version.
        seq: u64,
    },
    /// The in-flight attempt of `session` committed at `seq` (release
    /// fence: its accesses become permanent).
    Committed {
        /// The committing session.
        session: usize,
        /// The commit sequence number.
        seq: u64,
    },
    /// The in-flight attempt of `session` was rolled back; its
    /// speculative accesses must be discarded.
    AttemptDiscarded {
        /// The aborting session.
        session: usize,
    },
}

/// A consumer of probe events. Implementations must be cheap and must
/// never panic — probes are wired through the engines' hottest paths.
pub trait ProbeSink: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: ProbeEvent);
}

/// The handle engines hold. [`EngineProbe::disabled`] (also `Default`)
/// carries no sink, so [`EngineProbe::emit`] skips even *constructing*
/// the event — disabled hooks cost one branch.
#[derive(Clone, Default)]
pub struct EngineProbe {
    sink: Option<Arc<dyn ProbeSink>>,
}

impl EngineProbe {
    /// A handle that forwards to `sink`.
    pub fn new(sink: Arc<dyn ProbeSink>) -> Self {
        EngineProbe { sink: Some(sink) }
    }

    /// The no-op handle: events are neither constructed nor recorded.
    pub fn disabled() -> Self {
        EngineProbe { sink: None }
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event produced by `make` — which is only invoked when
    /// a sink is attached.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> ProbeEvent) {
        if let Some(sink) = &self.sink {
            sink.record(make());
        }
    }
}

impl fmt::Debug for EngineProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineProbe").field("enabled", &self.is_enabled()).finish()
    }
}

/// Records every event in arrival order; the sanitizer drains the trace
/// after a run and feeds it to the race detector. The interior mutex
/// makes one probe shareable across the threads of the concurrent stress
/// harness — the lock order then linearises the trace.
#[derive(Debug, Default)]
pub struct VecProbe {
    events: Mutex<Vec<ProbeEvent>>,
}

impl VecProbe {
    /// An empty recording probe.
    pub fn new() -> Self {
        VecProbe::default()
    }

    /// Removes and returns everything recorded so far.
    pub fn drain(&self) -> Vec<ProbeEvent> {
        std::mem::take(&mut self.events.lock())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl ProbeSink for VecProbe {
    fn record(&self, event: ProbeEvent) {
        self.events.lock().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_constructs_events() {
        let p = EngineProbe::disabled();
        let mut constructed = false;
        p.emit(|| {
            constructed = true;
            ProbeEvent::Committed { session: 0, seq: 1 }
        });
        assert!(!constructed);
        assert!(!p.is_enabled());
    }

    #[test]
    fn vec_probe_records_in_order() {
        let sink = Arc::new(VecProbe::new());
        let p = EngineProbe::new(sink.clone());
        p.emit(|| ProbeEvent::SnapshotPrefix { session: 1, upto: 0 });
        p.emit(|| ProbeEvent::VersionInstalled { session: 1, obj: Obj(0), seq: 1 });
        p.emit(|| ProbeEvent::Committed { session: 1, seq: 1 });
        let events = sink.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2], ProbeEvent::Committed { session: 1, seq: 1 });
        assert!(sink.is_empty());
    }

    #[test]
    fn events_serialize() {
        for e in [
            ProbeEvent::SnapshotSet { session: 2, visible: vec![1, 3] },
            ProbeEvent::VersionObserved { session: 1, obj: Obj(4), seq: 2 },
            ProbeEvent::AttemptDiscarded { session: 0 },
        ] {
            let json = serde_json::to_string(&e).unwrap();
            let back: ProbeEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e);
        }
    }
}
