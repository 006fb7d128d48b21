//! Observability for the SLG engine: trace events, sinks, and metrics.
//!
//! The paper's argument is quantitative — Tables 1–4 report per-benchmark
//! times and table space — but aggregate counters cannot say *where* steps,
//! answers, or bytes go. This crate provides the instrumentation layer the
//! engine emits into:
//!
//! * [`TraceEvent`] — a typed, borrowed event for every interesting SLG
//!   transition (new subgoal, clause resolution, answer insert/duplicate/
//!   return, call abstraction, answer widening, subsumed call, completion).
//! * [`TraceSink`] — the consumer interface. The engine holds an
//!   `Option<&dyn TraceSink>`; with `None` installed, no event is ever
//!   constructed, so tracing has zero cost when disabled.
//! * Ready-made sinks: [`NoopSink`], [`CountingSink`], [`JsonLinesSink`],
//!   [`RingBufferSink`], and [`MultiSink`] for fan-out.
//! * [`MetricsRegistry`] — a sink that rolls events up into per-predicate
//!   [`PredStats`] plus named phase timings, snapshotting into a
//!   [`MetricsReport`] with XSB-style text and JSON renderings.
//!
//! Events borrow the engine's canonical terms; sinks that need to retain
//! them convert to [`OwnedEvent`] via [`TraceEvent::to_owned`].

pub mod chrome;
pub mod counter;
pub mod event;
pub mod folded;
pub mod forest;
pub mod health;
pub mod json;
pub mod metrics;
pub mod openmetrics;
pub mod sink;
pub mod span;

pub use chrome::{chrome_trace, CHROME_COUNTER_TRACKS};
pub use counter::{CounterSample, CounterTrack};
pub use event::{OwnedEvent, TraceEvent};
pub use folded::{folded_frames, folded_stacks};
pub use forest::{Forest, ForestAnswer, ForestSubgoal};
pub use health::{HealthSnapshot, HealthTrack, StallWatchdog};
pub use metrics::{EngineSnapshot, MetricsRegistry, MetricsReport, PredStats};
pub use openmetrics::{openmetrics, openmetrics_series, validate_openmetrics};
pub use sink::{
    CountingSink, JsonLinesSink, MultiSink, NoopSink, RingBufferSink, SharedBuf, TraceSink,
};
pub use span::{now_ns, SpanEmitter, SpanEvent, SpanId, SpanRecorder, SpanRollup, SpanTree};
