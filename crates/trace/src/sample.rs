//! Sampling: one time series of the engine's evolving state, plus the
//! stall watchdog reading it.
//!
//! Aggregate counters (steps, answers, table bytes) say what an evaluation
//! cost in total; a *series* of the same quantities says how the cost
//! evolved — whether the worklist drained steadily or ballooned, when the
//! table space cliff happened, whether the run is still productive. The
//! engine takes a [`Sample`] at worklist dispatch boundaries on the cadence
//! of `EngineOptions::sampling` and hands it to the dedicated default-no-op
//! [`TraceSink::sample`] method; every view — Chrome counter tracks,
//! OpenMetrics, JSON lines, `tablog watch`, `--progress` — reads that one
//! series. With sampling off no sample (and no timestamp) is ever taken.
//!
//! [`SampleTrack`] is the retaining sink; the [`StallWatchdog`] scores each
//! sample window for the table-growth-only signature of divergence.

use crate::sink::TraceSink;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One observation of a running evaluation, taken at a worklist dispatch
/// boundary. Counter fields are exact and deterministic for a given
/// program/goal/strategy; `t_ns`, `answer_rate`, `stalled`, and
/// `peak_heap_bytes` depend on wall-clock time and the host.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sample {
    /// Monotonic timestamp from [`crate::span::now_ns`], sharing the span
    /// timeline so samples and spans align in a trace viewer.
    pub t_ns: u64,
    /// Worklist tasks executed so far (the engine's step counter).
    pub steps: usize,
    /// Pending worklist tasks (all classes).
    pub worklist: usize,
    /// Pending expansion tasks.
    pub expands: usize,
    /// Pending answer-return tasks.
    pub returns: usize,
    /// Call tables created so far (live, whether or not complete).
    pub tables: usize,
    /// Call tables already marked complete.
    pub completed_tables: usize,
    /// Cumulative unique answers admitted into tables.
    pub answers: usize,
    /// Cumulative duplicate answers rejected by tables.
    pub duplicate_answers: usize,
    /// Current table space in bytes (incremental accounting).
    pub table_bytes: usize,
    /// Unique answers per second over the window since the previous
    /// sample (whole-run average when sampling is off).
    pub answer_rate: f64,
    /// Peak process heap in bytes, when the `tablog-alloc` tracking
    /// allocator is installed; `None` otherwise.
    pub peak_heap_bytes: Option<usize>,
    /// Stall-watchdog verdict: the last few windows derived no new
    /// answers while table space kept growing — the signature of a
    /// divergent tabled query (new subgoals forever, no productive work).
    pub stalled: bool,
}

impl Sample {
    /// Renders the sample as a JSON object (the `JsonLinesSink` line body
    /// and the `tablog watch --json` payload).
    pub fn to_json(&self) -> String {
        let peak = match self.peak_heap_bytes {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"t_ns\":{},\"steps\":{},\"worklist\":{},\"expands\":{},\
             \"returns\":{},\"tables\":{},\"completed_tables\":{},\
             \"answers\":{},\"duplicate_answers\":{},\"table_bytes\":{},\
             \"answer_rate\":{:.3},\"peak_heap_bytes\":{},\"stalled\":{}}}",
            self.t_ns,
            self.steps,
            self.worklist,
            self.expands,
            self.returns,
            self.tables,
            self.completed_tables,
            self.answers,
            self.duplicate_answers,
            self.table_bytes,
            self.answer_rate,
            peak,
            self.stalled
        )
    }
}

/// A [`TraceSink`] retaining every sample, in emission order — what the
/// exporters and `tablog watch` read.
#[derive(Debug, Default)]
pub struct SampleTrack {
    samples: Mutex<Vec<Sample>>,
}

impl SampleTrack {
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

    /// The recorded samples, in emission order.
    pub fn samples(&self) -> Vec<Sample> {
        lock(&self.samples).clone()
    }

    /// The most recent sample, if any — the end-of-run state.
    pub fn last(&self) -> Option<Sample> {
        lock(&self.samples).last().copied()
    }
}

impl TraceSink for SampleTrack {
    fn sample(&self, s: &Sample) {
        lock(&self.samples).push(*s);
    }
}

/// Divergence heuristic over successive sample windows.
///
/// A healthy tabled evaluation keeps admitting answers; the classic
/// divergent one (unbounded call abstraction off, e.g. `q(X) :- q(f(X))`)
/// creates fresh subgoal tables forever without ever completing an answer.
/// The watchdog counts consecutive windows that derived **zero new
/// answers while table space still grew** and declares a stall once
/// `window` of them pass back to back. Any new answer resets the count,
/// so slow-but-productive runs are never flagged; a merely *idle* pattern
/// (no answers, no growth) is not counted either, since bounded workloads
/// finish rather than idle.
#[derive(Clone, Debug)]
pub struct StallWatchdog {
    window: usize,
    quiet: usize,
    last_answers: usize,
    last_bytes: usize,
    primed: bool,
}

impl StallWatchdog {
    /// A watchdog declaring a stall after `window` consecutive
    /// answer-free, table-growing observation windows (`window == 0`
    /// never flags).
    pub fn new(window: usize) -> Self {
        StallWatchdog {
            window,
            quiet: 0,
            last_answers: 0,
            last_bytes: 0,
            primed: false,
        }
    }

    /// Feeds one window's end state; returns the current stall verdict.
    pub fn observe(&mut self, answers: usize, table_bytes: usize) -> bool {
        if !self.primed {
            // The first observation establishes the baseline; deltas only
            // exist from the second window on.
            self.primed = true;
        } else if answers > self.last_answers {
            self.quiet = 0;
        } else if table_bytes > self.last_bytes {
            self.quiet += 1;
        }
        self.last_answers = answers;
        self.last_bytes = table_bytes;
        self.stalled()
    }

    /// Whether the last `window` observations all looked divergent.
    pub fn stalled(&self) -> bool {
        self.window > 0 && self.quiet >= self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_ns: u64, answers: usize) -> Sample {
        Sample {
            t_ns,
            steps: 10,
            worklist: 3,
            expands: 2,
            returns: 1,
            tables: 4,
            completed_tables: 2,
            answers,
            duplicate_answers: 1,
            table_bytes: 256,
            answer_rate: 12.5,
            peak_heap_bytes: None,
            stalled: false,
        }
    }

    #[test]
    fn track_retains_samples_in_order() {
        let track = SampleTrack::new();
        assert!(track.is_empty());
        track.sample(&sample(10, 1));
        track.sample(&sample(20, 2));
        assert_eq!(track.len(), 2);
        let got = track.samples();
        assert_eq!(got[0].t_ns, 10);
        assert_eq!(got[1].answers, 2);
        assert_eq!(track.last(), Some(sample(20, 2)));
    }

    #[test]
    fn sample_json_parses_with_every_field() {
        let mut s = sample(7, 5);
        s.peak_heap_bytes = Some(4096);
        s.stalled = true;
        let v = crate::json::parse(&s.to_json()).expect("valid JSON");
        for (key, want) in [
            ("t_ns", 7.0),
            ("steps", 10.0),
            ("worklist", 3.0),
            ("expands", 2.0),
            ("returns", 1.0),
            ("tables", 4.0),
            ("completed_tables", 2.0),
            ("answers", 5.0),
            ("duplicate_answers", 1.0),
            ("table_bytes", 256.0),
            ("answer_rate", 12.5),
            ("peak_heap_bytes", 4096.0),
        ] {
            assert_eq!(v.get(key).and_then(|x| x.as_f64()), Some(want), "{key}");
        }
        assert_eq!(v.get("stalled"), Some(&crate::json::JsonValue::Bool(true)));
        // Absent heap tracking renders as null, still valid JSON.
        let v = crate::json::parse(&sample(1, 1).to_json()).expect("valid JSON");
        assert_eq!(
            v.get("peak_heap_bytes"),
            Some(&crate::json::JsonValue::Null)
        );
    }

    #[test]
    fn default_sink_ignores_samples() {
        let sink = crate::sink::CountingSink::new();
        sink.sample(&sample(1, 1));
        assert_eq!(sink.total(), 0);
    }

    #[test]
    fn watchdog_flags_table_growth_without_answers() {
        let mut dog = StallWatchdog::new(3);
        assert!(!dog.observe(0, 100)); // baseline
        assert!(!dog.observe(0, 200)); // quiet 1
        assert!(!dog.observe(0, 300)); // quiet 2
        assert!(dog.observe(0, 400)); // quiet 3 -> stalled
        assert!(dog.stalled());
    }

    #[test]
    fn watchdog_resets_on_new_answers() {
        let mut dog = StallWatchdog::new(2);
        dog.observe(0, 100);
        dog.observe(0, 200);
        assert!(!dog.observe(1, 300)); // an answer arrived: reset
        assert!(!dog.observe(1, 400)); // quiet 1
        assert!(dog.observe(1, 500)); // quiet 2 -> stalled
    }

    #[test]
    fn watchdog_ignores_idle_windows_and_zero_window() {
        let mut dog = StallWatchdog::new(1);
        dog.observe(0, 100);
        // No growth, no answers: not the divergence signature.
        assert!(!dog.observe(0, 100));
        assert!(!dog.observe(0, 100));
        let mut never = StallWatchdog::new(0);
        never.observe(0, 100);
        assert!(!never.observe(0, 200));
        assert!(!never.observe(0, 300));
    }
}
