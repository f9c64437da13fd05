//! Timing and in-memory spans around the benchmark's calls into the
//! library.
//!
//! Every call is timed with [`Instant`] whether tracing is on or off, so
//! the end-to-end figures come from the same clock reads in both modes.
//! With tracing on, each call also leaves a [`Span`]; spans nest through
//! the currently open span and are written out only when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the text before the first dot.
    pub name: &'static str,
    /// The operation this call served (0 for set-up).
    pub run: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offset of the call's start from the tracer's epoch.
    pub start: Duration,
    /// Offset of the call's end from the tracer's epoch.
    pub end: Duration,
}

impl Span {
    /// The layer the span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Times calls and, when enabled, records them as spans.
pub(crate) struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
}

/// Closes a span when the call returns or unwinds.
struct Open<'a> {
    tracer: &'a Tracer,
    index: usize,
    parent: Option<usize>,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end = self.tracer.epoch.elapsed();
        self.tracer.spans.borrow_mut()[self.index].end = end;
        self.tracer.open.set(self.parent);
    }
}

impl Tracer {
    /// A tracer whose span offsets count from `epoch`.
    pub(crate) fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer { enabled, epoch, spans: RefCell::new(Vec::new()), open: Cell::new(None) }
    }

    /// Whether spans are being recorded.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` and returns its result with its wall time; with tracing
    /// on, also records it as a span named `name` under operation `run`.
    pub(crate) fn call<T>(
        &self,
        name: &'static str,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let guard = self.enabled.then(|| {
            let parent = self.open.get();
            let start = self.epoch.elapsed();
            let mut spans = self.spans.borrow_mut();
            spans.push(Span { name, run, parent, start, end: start });
            let index = spans.len() - 1;
            self.open.set(Some(index));
            Open { tracer: self, index, parent }
        });
        let start = Instant::now();
        let result = f();
        let elapsed = start.elapsed();
        drop(guard);
        (result, elapsed)
    }

    /// The spans recorded so far.
    pub(crate) fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Per-layer self time: each span's duration minus the part its child
/// spans cover, summed by layer.
pub(crate) fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_time[parent] += span.duration();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_time) {
        *by_layer.entry(span.layer()).or_insert(Duration::ZERO) +=
            span.duration().saturating_sub(children);
    }
    by_layer
}

/// Total duration of the spans that have no parent.
pub(crate) fn root_time(spans: &[Span]) -> Duration {
    spans.iter().filter(|s| s.parent.is_none()).map(Span::duration).sum()
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"name":"{}","run":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
            s.name,
            s.run,
            parent,
            s.start.as_nanos(),
            s.end.as_nanos()
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Measured cost of recording one span, in nanoseconds: the time of
/// `n` empty traced calls over the time of `n` untraced ones.
pub(crate) fn span_cost_ns(n: u32) -> f64 {
    let time = |enabled: bool| {
        let tracer = Tracer::new(enabled, Instant::now());
        let start = Instant::now();
        for i in 0..n {
            std::hint::black_box(tracer.call("bench.empty", u64::from(i), || i));
        }
        start.elapsed().as_nanos() as f64
    };
    (time(true) - time(false)).max(0.0) / f64::from(n)
}
