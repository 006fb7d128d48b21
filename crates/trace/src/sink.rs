//! Trace sinks: consumers of [`TraceEvent`]s.
//!
//! Sinks take `&self` and use interior mutability, because the engine holds
//! a single shared `&dyn TraceSink` for the whole evaluation. Sinks are
//! `Send + Sync` so engines (which are `Send`) can carry them across
//! threads and the parallel multi-program driver can share one sink.

use crate::event::TraceEvent;
use crate::sample::Sample;
use crate::span::{SpanEvent, SpanId};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A consumer of engine trace events, spans, and samples. Every method
/// defaults to a no-op, so a sink implements only what it observes.
pub trait TraceSink: Send + Sync {
    /// Observes one event.
    fn event(&self, _e: &TraceEvent) {}

    /// Observes the opening edge of a timed span (see [`crate::span`]).
    /// Default: ignore — sinks that predate spans are unaffected.
    fn span_enter(&self, _s: &SpanEvent<'_>) {}

    /// Observes the closing edge of the span opened with `id`.
    fn span_exit(&self, _id: SpanId, _t_ns: u64) {}

    /// Observes one sample of the engine's state (see [`crate::sample`]).
    fn sample(&self, _s: &Sample) {}

    /// Flushes any buffered output (e.g. a JSON-lines writer).
    fn flush(&self) {}
}

/// Discards every event. Useful as an explicit "tracing requested but
/// nothing to record" placeholder; `None` is still cheaper.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {}

/// Counts events by kind.
#[derive(Debug, Default)]
pub struct CountingSink {
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl CountingSink {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occurrences of one event kind (snake_case name).
    pub fn count(&self, kind: &str) -> u64 {
        lock(&self.counts).get(kind).copied().unwrap_or(0)
    }

    /// Total events observed.
    pub fn total(&self) -> u64 {
        lock(&self.counts).values().sum()
    }

    /// All (kind, count) pairs, sorted by kind.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        lock(&self.counts).iter().map(|(k, v)| (*k, *v)).collect()
    }
}

impl TraceSink for CountingSink {
    fn event(&self, e: &TraceEvent) {
        *lock(&self.counts).entry(e.kind()).or_insert(0) += 1;
    }
}

/// Writes each event as one JSON object per line.
///
/// The writer is flushed on [`TraceSink::flush`], on
/// [`JsonLinesSink::into_inner`], **and on drop** — so a run that errors
/// out (step limit, unknown predicate) or simply drops its engine still
/// leaves every complete line on disk behind a `BufWriter`.
pub struct JsonLinesSink<W: Write + Send> {
    // `Option` so `into_inner` can move the writer out from under the
    // `Drop` impl; `None` only after `into_inner`.
    out: Mutex<Option<W>>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out: Mutex::new(Some(out)),
        }
    }

    /// Unwraps the writer, flushing first.
    pub fn into_inner(self) -> W {
        let mut w = lock(&self.out).take().expect("writer taken once");
        let _ = w.flush();
        w
    }

    fn write_line(&self, line: &str) {
        if let Some(out) = lock(&self.out).as_mut() {
            let _ = out.write_all(line.as_bytes());
            let _ = out.write_all(b"\n");
        }
    }
}

impl<W: Write + Send> TraceSink for JsonLinesSink<W> {
    fn event(&self, e: &TraceEvent) {
        self.write_line(&e.to_json());
    }

    fn span_enter(&self, s: &SpanEvent<'_>) {
        let mut line = format!("{{\"span\":\"enter\",\"id\":{}", s.id.0);
        match s.parent {
            Some(p) => line.push_str(&format!(",\"parent\":{}", p.0)),
            None => line.push_str(",\"parent\":null"),
        }
        line.push_str(&format!(",\"name\":\"{}\"", crate::json::escape(s.name)));
        match s.pred {
            Some(f) => line.push_str(&format!(
                ",\"pred\":\"{}\"",
                crate::json::escape(&f.to_string())
            )),
            None => line.push_str(",\"pred\":null"),
        }
        line.push_str(&format!(",\"t_ns\":{}}}", s.t_ns));
        self.write_line(&line);
    }

    fn span_exit(&self, id: SpanId, t_ns: u64) {
        self.write_line(&format!(
            "{{\"span\":\"exit\",\"id\":{},\"t_ns\":{t_ns}}}",
            id.0
        ));
    }

    fn sample(&self, s: &Sample) {
        self.write_line(&format!("{{\"sample\":{}}}", s.to_json()));
    }

    fn flush(&self) {
        if let Some(out) = lock(&self.out).as_mut() {
            let _ = out.flush();
        }
    }
}

impl<W: Write + Send> Drop for JsonLinesSink<W> {
    fn drop(&mut self) {
        TraceSink::flush(self);
    }
}

/// A cloneable in-memory byte buffer implementing [`Write`], for capturing
/// [`JsonLinesSink`] output while the sink itself is owned by the engine.
#[derive(Clone, Debug, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffer contents as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&lock(&self.0)).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Fans every event out to several sinks in order.
#[derive(Clone, Default)]
pub struct MultiSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl MultiSink {
    /// An empty fan-out.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink, returning `self` for chaining.
    pub fn with(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Adds a sink.
    pub fn push(&mut self, sink: Arc<dyn TraceSink>) {
        self.sinks.push(sink);
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl TraceSink for MultiSink {
    fn event(&self, e: &TraceEvent) {
        for s in &self.sinks {
            s.event(e);
        }
    }

    fn span_enter(&self, s: &SpanEvent<'_>) {
        for sink in &self.sinks {
            sink.span_enter(s);
        }
    }

    fn span_exit(&self, id: SpanId, t_ns: u64) {
        for sink in &self.sinks {
            sink.span_exit(id, t_ns);
        }
    }

    fn sample(&self, c: &Sample) {
        for s in &self.sinks {
            s.sample(c);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tablog_term::{atom, structure, var, Functor, Term, Var};

    fn events() -> [TraceEvent; 3] {
        let p = Functor::new("p", 2);
        let k: Vec<Term> = vec![structure("p", vec![var(Var(0)), atom("a")])];
        [
            TraceEvent::NewSubgoal {
                pred: p,
                call: k.clone(),
                bytes: 48,
            },
            TraceEvent::ClauseResolution { pred: p },
            TraceEvent::AnswerInsert {
                pred: p,
                answer: k,
                bytes: 40,
            },
        ]
    }

    #[test]
    fn counting_sink_tallies_by_kind() {
        let sink = CountingSink::new();
        for e in events() {
            sink.event(&e);
        }
        sink.event(&TraceEvent::ClauseResolution {
            pred: Functor::new("p", 2),
        });
        assert_eq!(sink.count("clause_resolution"), 2);
        assert_eq!(sink.count("new_subgoal"), 1);
        assert_eq!(sink.count("subgoal_complete"), 0);
        assert_eq!(sink.total(), 4);
    }

    #[test]
    fn json_lines_sink_emits_one_valid_object_per_line() {
        let buf = SharedBuf::new();
        let sink = JsonLinesSink::new(buf.clone());
        for e in events() {
            sink.event(&e);
        }
        sink.flush();
        let text = buf.contents();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            crate::json::parse(line).expect("each line is valid JSON");
        }
    }

    #[test]
    fn multi_sink_fans_out() {
        let a = Arc::new(CountingSink::new());
        let b = Arc::new(CountingSink::new());
        let multi = MultiSink::new().with(a.clone()).with(b.clone());
        for e in events() {
            multi.event(&e);
        }
        assert_eq!(a.total(), 3);
        assert_eq!(b.total(), 3);
    }

    #[test]
    fn sinks_are_shareable_across_threads() {
        let sink = Arc::new(CountingSink::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    sink.event(&TraceEvent::ClauseResolution {
                        pred: Functor::new("p", 2),
                    });
                });
            }
        });
        assert_eq!(sink.count("clause_resolution"), 4);
    }
}
