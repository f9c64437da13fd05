//! Event sinks and the zero-cost-when-disabled [`Telemetry`] handle.

use core::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{AbortCause, EdgeKind, Event};

/// A consumer of telemetry events. Implementations must be cheap and
/// must never panic on well-formed events — instrumentation may be wired
/// through hot engine paths.
pub trait TelemetrySink: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);
}

/// A handle held by instrumented components. `Telemetry::disabled()`
/// (also `Default`) carries no sink: [`Telemetry::emit`] then skips even
/// *constructing* the event, so disabled instrumentation costs one
/// branch.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl Telemetry {
    /// A handle that forwards to `sink`.
    pub fn new(sink: Arc<dyn TelemetrySink>) -> Self {
        Telemetry { sink: Some(sink) }
    }

    /// The no-op handle: events are neither constructed nor recorded.
    pub fn disabled() -> Self {
        Telemetry { sink: None }
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event produced by `make` — which is only invoked when
    /// a sink is attached.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.record(&make());
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish()
    }
}

/// Discards every event. Unlike `Telemetry::disabled()` the events *are*
/// constructed and delivered — useful for asserting that instrumentation
/// itself does not change behaviour.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// Counts events by kind (and aborts by cause, edges by kind). All
/// counters are atomic, so one sink may be shared across threads.
#[derive(Debug, Default)]
pub struct CountingSink {
    begins: AtomicU64,
    commits: AtomicU64,
    aborts_ww: AtomicU64,
    aborts_rw: AtomicU64,
    aborts_explicit: AtomicU64,
    edges_so: AtomicU64,
    edges_wr: AtomicU64,
    edges_ww: AtomicU64,
    edges_rw: AtomicU64,
    cycle_search_steps: AtomicU64,
    verdicts: AtomicU64,
    verdicts_ok: AtomicU64,
    solver_iterations: AtomicU64,
    cdcl_progress: AtomicU64,
    exploration_progress: AtomicU64,
}

impl CountingSink {
    /// A fresh sink with all counters at zero.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// `TxBegin` events seen.
    pub fn begins(&self) -> u64 {
        self.begins.load(Ordering::Relaxed)
    }

    /// `TxCommit` events seen.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// `TxAbort` events with the given cause.
    pub fn aborts(&self, cause: AbortCause) -> u64 {
        match cause {
            AbortCause::WwConflict => &self.aborts_ww,
            AbortCause::RwConflict => &self.aborts_rw,
            AbortCause::Explicit => &self.aborts_explicit,
        }
        .load(Ordering::Relaxed)
    }

    /// `TxAbort` events from conflict detection (ww + rw, excluding
    /// explicit client aborts).
    pub fn conflict_aborts(&self) -> u64 {
        self.aborts(AbortCause::WwConflict) + self.aborts(AbortCause::RwConflict)
    }

    /// `EdgeAdded` events with the given kind.
    pub fn edges(&self, kind: EdgeKind) -> u64 {
        match kind {
            EdgeKind::So => &self.edges_so,
            EdgeKind::Wr => &self.edges_wr,
            EdgeKind::Ww => &self.edges_ww,
            EdgeKind::Rw => &self.edges_rw,
        }
        .load(Ordering::Relaxed)
    }

    /// Total `EdgeAdded` events.
    pub fn total_edges(&self) -> u64 {
        [EdgeKind::So, EdgeKind::Wr, EdgeKind::Ww, EdgeKind::Rw]
            .iter()
            .map(|&k| self.edges(k))
            .sum()
    }

    /// `CycleSearchStep` events seen.
    pub fn cycle_search_steps(&self) -> u64 {
        self.cycle_search_steps.load(Ordering::Relaxed)
    }

    /// `VerdictEmitted` events seen (and how many were `ok`).
    pub fn verdicts(&self) -> (u64, u64) {
        (self.verdicts.load(Ordering::Relaxed), self.verdicts_ok.load(Ordering::Relaxed))
    }

    /// `SolverIteration` events seen.
    pub fn solver_iterations(&self) -> u64 {
        self.solver_iterations.load(Ordering::Relaxed)
    }

    /// `CdclProgress` events seen.
    pub fn cdcl_progress(&self) -> u64 {
        self.cdcl_progress.load(Ordering::Relaxed)
    }

    /// `ExplorationProgress` events seen.
    pub fn exploration_progress(&self) -> u64 {
        self.exploration_progress.load(Ordering::Relaxed)
    }
}

impl TelemetrySink for CountingSink {
    fn record(&self, event: &Event) {
        match event {
            Event::TxBegin { .. } => &self.begins,
            Event::TxCommit { .. } => &self.commits,
            Event::TxAbort { cause, .. } => match cause {
                AbortCause::WwConflict => &self.aborts_ww,
                AbortCause::RwConflict => &self.aborts_rw,
                AbortCause::Explicit => &self.aborts_explicit,
            },
            Event::EdgeAdded { kind, .. } => match kind {
                EdgeKind::So => &self.edges_so,
                EdgeKind::Wr => &self.edges_wr,
                EdgeKind::Ww => &self.edges_ww,
                EdgeKind::Rw => &self.edges_rw,
            },
            Event::CycleSearchStep { .. } => &self.cycle_search_steps,
            Event::VerdictEmitted { ok, .. } => {
                if *ok {
                    self.verdicts_ok.fetch_add(1, Ordering::Relaxed);
                }
                &self.verdicts
            }
            Event::SolverIteration { .. } => &self.solver_iterations,
            Event::CdclProgress { .. } => &self.cdcl_progress,
            Event::ExplorationProgress { .. } => &self.exploration_progress,
            Event::VersionObserved { .. } | Event::VersionInstalled { .. } => return,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// Records every event in arrival order, for analyses that replay a
/// whole trace afterwards (the sanitizer's race detector). The interior
/// mutex makes one sink shareable across threads; the lock order then
/// linearises the trace.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<Event>>,
}

impl VecSink {
    /// An empty recording sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Removes and returns everything recorded so far.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock())
    }
}

impl TelemetrySink for VecSink {
    fn record(&self, event: &Event) {
        self.events.lock().push(event.clone());
    }
}

/// Writes one JSON object per event, newline-delimited (JSONL).
pub struct JsonlSink {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Wraps any writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink { writer: Mutex::new(writer) }
    }

    /// Creates (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the `File::create` error.
    pub fn to_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Creates a sink writing into a shared in-memory buffer, returning
    /// both (the buffer side reads the trace back, e.g. in tests).
    pub fn in_memory() -> (Self, SharedBuffer) {
        let buffer = SharedBuffer::default();
        (JsonlSink::new(Box::new(buffer.clone())), buffer)
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the writer's flush error.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().flush()
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&self, event: &Event) {
        let line = serde_json::to_string(event).expect("events always serialize");
        let mut w = self.writer.lock();
        // Trace loss is preferable to panicking mid-run.
        let _ = writeln!(w, "{line}");
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.lock().flush();
    }
}

/// A clonable in-memory byte buffer implementing [`Write`]; pairs with
/// [`JsonlSink::in_memory`].
#[derive(Debug, Default, Clone)]
pub struct SharedBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// The buffered bytes as UTF-8 (telemetry output always is).
    pub fn contents(&self) -> String {
        String::from_utf8(self.bytes.lock().clone()).expect("JSONL output is UTF-8")
    }

    /// The buffered JSONL lines.
    pub fn lines(&self) -> Vec<String> {
        self.contents().lines().map(str::to_owned).collect()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Broadcasts each event to several sinks (e.g. count *and* trace).
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TelemetrySink>>,
}

impl FanoutSink {
    /// A fanout over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn TelemetrySink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FanoutSink").field("sinks", &self.sinks.len()).finish()
    }
}

impl TelemetrySink for FanoutSink {
    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Snapshot;

    #[test]
    fn disabled_never_constructs_events() {
        let t = Telemetry::disabled();
        let mut constructed = false;
        t.emit(|| {
            constructed = true;
            Event::TxBegin { session: 0, snapshot: Snapshot::Prefix(0) }
        });
        assert!(!constructed);
        assert!(!t.is_enabled());
    }

    #[test]
    fn counting_sink_tallies_by_kind() {
        let sink = Arc::new(CountingSink::new());
        let t = Telemetry::new(sink.clone());
        t.emit(|| Event::TxBegin { session: 0, snapshot: Snapshot::Prefix(0) });
        t.emit(|| Event::VersionObserved { session: 0, obj: 0, seq: 0 });
        t.emit(|| Event::VersionInstalled { session: 0, obj: 0, seq: 1 });
        t.emit(|| Event::TxCommit { session: 0, seq: 1, ops: 2 });
        t.emit(|| Event::TxAbort { session: 1, cause: AbortCause::WwConflict, obj: Some(0) });
        t.emit(|| Event::TxAbort { session: 1, cause: AbortCause::RwConflict, obj: None });
        t.emit(|| Event::EdgeAdded { kind: EdgeKind::Rw, from: 0, to: 1 });
        t.emit(|| Event::VerdictEmitted { check: "t", ok: true, nanos: 5 });
        assert_eq!(sink.begins(), 1);
        assert_eq!(sink.commits(), 1);
        assert_eq!(sink.aborts(AbortCause::WwConflict), 1);
        assert_eq!(sink.aborts(AbortCause::RwConflict), 1);
        assert_eq!(sink.conflict_aborts(), 2);
        assert_eq!(sink.edges(EdgeKind::Rw), 1);
        assert_eq!(sink.total_edges(), 1);
        assert_eq!(sink.verdicts(), (1, 1));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let (sink, buffer) = JsonlSink::in_memory();
        let t = Telemetry::new(Arc::new(sink));
        t.emit(|| Event::TxBegin { session: 3, snapshot: Snapshot::Set(vec![]) });
        t.emit(|| Event::TxCommit { session: 3, seq: 1, ops: 1 });
        let lines = buffer.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("TxBegin"));
        assert!(lines[1].contains("TxCommit"));
    }

    #[test]
    fn fanout_reaches_all_sinks() {
        let a = Arc::new(CountingSink::new());
        let b = Arc::new(CountingSink::new());
        let t = Telemetry::new(Arc::new(FanoutSink::new(vec![a.clone(), b.clone()])));
        t.emit(|| Event::TxBegin { session: 0, snapshot: Snapshot::Prefix(0) });
        assert_eq!(a.begins(), 1);
        assert_eq!(b.begins(), 1);
    }
}
