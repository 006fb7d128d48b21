//! Counter time-series: periodic samples of the engine's evolving state,
//! taken at worklist dispatch boundaries.
//!
//! Aggregate counters (steps, answers, table bytes) say what an evaluation
//! cost in total; a *time series* of the same quantities says how the cost
//! evolved — whether the worklist drained steadily or ballooned, when the
//! table space cliff happened, which phase created the tables. Samples ride
//! the [`TraceSink`] channel through a dedicated default-no-op method
//! ([`TraceSink::counter_sample`]), mirroring the span design: sinks that
//! do not care are unaffected, and the engine only constructs samples when
//! `EngineOptions::record_counters` is set *and* a sink is installed, so
//! the disabled path costs one branch per worklist task and nothing else.
//!
//! [`CounterTrack`] is the retaining sink: a recorder that keeps every
//! sample for later export (the Chrome-trace `ph:"C"` counter tracks of
//! [`crate::chrome`], or direct inspection in tests).

use crate::sink::TraceSink;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One observation of the engine's state, taken at a dispatch boundary
/// (after a worklist task completes, plus one initial sample before the
/// first task). All quantities are exact, not estimates, and deterministic
/// for a given program, goal, and scheduling strategy — only `t_ns` varies
/// between runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSample {
    /// Monotonic timestamp from [`crate::span::now_ns`], sharing the span
    /// timeline so counters and spans align in a trace viewer.
    pub t_ns: u64,
    /// Pending worklist tasks (all classes).
    pub worklist: usize,
    /// Pending expansion tasks.
    pub expands: usize,
    /// Pending answer-return tasks.
    pub returns: usize,
    /// Live call tables (tabled subgoals created so far).
    pub tables: usize,
    /// Cumulative unique answers admitted into tables.
    pub answers: usize,
    /// Current table space in bytes (the engine's incremental accounting).
    pub table_bytes: usize,
}

impl CounterSample {
    /// Renders the sample as a JSON object (the `JsonLinesSink` line body).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t_ns\":{},\"worklist\":{},\"expands\":{},\"returns\":{},\
             \"tables\":{},\"answers\":{},\"table_bytes\":{}}}",
            self.t_ns,
            self.worklist,
            self.expands,
            self.returns,
            self.tables,
            self.answers,
            self.table_bytes
        )
    }
}

/// A [`TraceSink`] retaining every counter sample, in emission order —
/// the sampler the engine feeds and the exporters read.
#[derive(Debug, Default)]
pub struct CounterTrack {
    samples: Mutex<Vec<CounterSample>>,
}

impl CounterTrack {
    /// An empty track.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples recorded so far.
    pub fn len(&self) -> usize {
        lock(&self.samples).len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.samples).is_empty()
    }

    /// Records one sample (also reachable through the sink interface).
    pub fn record(&self, s: &CounterSample) {
        lock(&self.samples).push(*s);
    }

    /// The recorded samples, in emission order.
    pub fn samples(&self) -> Vec<CounterSample> {
        lock(&self.samples).clone()
    }

    /// The most recent sample, if any — the end-of-run state.
    pub fn last(&self) -> Option<CounterSample> {
        lock(&self.samples).last().copied()
    }
}

impl TraceSink for CounterTrack {
    fn event(&self, _e: &crate::event::TraceEvent<'_>) {}

    fn counter_sample(&self, s: &CounterSample) {
        self.record(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_ns: u64, answers: usize) -> CounterSample {
        CounterSample {
            t_ns,
            worklist: 3,
            expands: 2,
            returns: 1,
            tables: 4,
            answers,
            table_bytes: 128,
        }
    }

    #[test]
    fn track_retains_samples_in_order() {
        let track = CounterTrack::new();
        assert!(track.is_empty());
        TraceSink::counter_sample(&track, &sample(10, 1));
        track.record(&sample(20, 2));
        assert_eq!(track.len(), 2);
        let got = track.samples();
        assert_eq!(got[0].t_ns, 10);
        assert_eq!(got[1].answers, 2);
        assert_eq!(track.last(), Some(sample(20, 2)));
    }

    #[test]
    fn sample_json_parses_with_every_field() {
        let v = crate::json::parse(&sample(7, 5).to_json()).expect("valid JSON");
        for (key, want) in [
            ("t_ns", 7.0),
            ("worklist", 3.0),
            ("expands", 2.0),
            ("returns", 1.0),
            ("tables", 4.0),
            ("answers", 5.0),
            ("table_bytes", 128.0),
        ] {
            assert_eq!(v.get(key).and_then(|x| x.as_f64()), Some(want), "{key}");
        }
    }

    #[test]
    fn default_sink_ignores_counter_samples() {
        // A sink that predates counters compiles and ignores them.
        let sink = crate::sink::CountingSink::new();
        sink.counter_sample(&sample(1, 1));
        assert_eq!(sink.total(), 0);
    }
}
