//! Observability for the SLG engine: trace events, sinks, and metrics.
//!
//! The paper's argument is quantitative — Tables 1–4 report per-benchmark
//! times and table space — but aggregate counters cannot say *where* steps,
//! answers, or bytes go. This crate provides the instrumentation layer the
//! engine emits into:
//!
//! * [`TraceEvent`] — a typed event for every interesting SLG transition
//!   (new subgoal, clause resolution, answer insert/duplicate/return, call
//!   abstraction, answer widening, subsumed call, completion), owning its
//!   canonical term payloads.
//! * [`Sample`] — one observation of the engine's counters, taken on the
//!   `EngineOptions::sampling` cadence; the one series every exporter
//!   (Chrome counter tracks, OpenMetrics, JSON lines) reads.
//! * [`TraceSink`] — the consumer interface. The engine holds an
//!   `Option<&dyn TraceSink>`; with `None` installed, no event is ever
//!   constructed, so tracing has zero cost when disabled.
//! * Ready-made sinks: [`NoopSink`], [`CountingSink`], [`JsonLinesSink`],
//!   [`SampleTrack`], and [`MultiSink`] for fan-out.
//! * [`MetricsRegistry`] — a sink that rolls events up into per-predicate
//!   [`PredStats`] plus named phase timings, snapshotting into a
//!   [`MetricsReport`] with XSB-style text and JSON renderings.

pub mod chrome;
pub mod event;
pub mod folded;
pub mod forest;
pub mod json;
pub mod metrics;
pub mod openmetrics;
pub mod sample;
pub mod sink;
pub mod span;

pub use chrome::{chrome_trace, CHROME_COUNTER_TRACKS};
pub use event::TraceEvent;
pub use folded::{folded_frames, folded_stacks};
pub use forest::{Forest, ForestAnswer, ForestSubgoal};
pub use metrics::{EngineSnapshot, MetricsRegistry, MetricsReport, PredStats};
pub use openmetrics::{openmetrics, openmetrics_series, validate_openmetrics};
pub use sample::{Sample, SampleTrack, StallWatchdog};
pub use sink::{CountingSink, JsonLinesSink, MultiSink, NoopSink, SharedBuf, TraceSink};
pub use span::{now_ns, SpanEmitter, SpanEvent, SpanId, SpanRecorder, SpanRollup, SpanTree};
