//! # si-telemetry
//!
//! Structured tracing, metrics and span timing for the Analysing-SI
//! engine and checker stack.
//!
//! The crate has three small layers:
//!
//! * **Events** ([`Event`], [`Snapshot`], [`AbortCause`], [`EdgeKind`]) —
//!   one typed model of what the MVCC engines, scheduler, online monitor,
//!   offline checkers and sanitizer do: the engines' per-step trace
//!   (snapshot acquired at begin, version observed, version installed,
//!   commit, abort with its cause), dependency edges as they are
//!   discovered, acyclicity-check sizes, verdicts with timings and
//!   solver and explorer progress.
//! * **Sinks** ([`TelemetrySink`] implementations: [`NullSink`],
//!   [`CountingSink`], [`VecSink`], [`JsonlSink`], [`FanoutSink`]) behind the
//!   [`Telemetry`] handle. A disabled handle (`Telemetry::disabled()`,
//!   the default everywhere) never even constructs the event — the cost
//!   of instrumentation left off is a single branch.
//! * **Metrics** ([`MetricsRegistry`] of [`Counter`]s and
//!   [`Histogram`]s, snapshotted into a serde-serializable
//!   [`MetricsReport`]) plus wall-clock [`SpanTimer`] helpers.
//!
//! ```
//! use std::sync::Arc;
//! use si_telemetry::{CountingSink, Event, Snapshot, Telemetry};
//!
//! let sink = Arc::new(CountingSink::new());
//! let telemetry = Telemetry::new(sink.clone());
//! telemetry.emit(|| Event::TxBegin { session: 0, snapshot: Snapshot::Prefix(0) });
//! assert_eq!(sink.begins(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod metrics;
mod sink;
mod span;

pub use event::{AbortCause, EdgeKind, Event, Snapshot};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsReport, LATENCY_BOUNDS_NANOS,
};
pub use sink::{
    CountingSink, FanoutSink, JsonlSink, NullSink, SharedBuffer, Telemetry, TelemetrySink, VecSink,
};
pub use span::{time, SpanTimer};
