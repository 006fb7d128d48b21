//! Hierarchical spans: timed enter/exit intervals emitted by the engine
//! around goal dispatch, clause resolution, answer return, and completion,
//! and by the analyzers around their pipeline phases.
//!
//! Spans ride on the same [`TraceSink`] channel as [`crate::TraceEvent`]s
//! but through two dedicated default-no-op methods
//! ([`TraceSink::span_enter`] / [`TraceSink::span_exit`]), so sinks that do
//! not care — and the golden JSONL event stream — are unaffected. The
//! engine only constructs span events when
//! `EngineOptions::record_spans` is set *and* a sink is installed, so the
//! disabled path costs exactly zero.
//!
//! The emitting side supplies everything: a process-unique [`SpanId`], the
//! parent id (emitters track their own stack in a [`SpanEmitter`]), and a
//! monotonic timestamp in nanoseconds from a process-wide epoch
//! ([`now_ns`]), so spans emitted by different components (analyzer phases
//! in `tablog-core`, engine internals) share one timeline and nest by
//! explicit parent links. [`SpanRecorder`] collects raw spans;
//! [`SpanRecorder::snapshot`] freezes them into a [`SpanTree`] with
//! self/total time per node and rollups by span name, by predicate, and by
//! any caller-supplied grouping (e.g. the SCCs of the analyzed program).

use crate::sink::TraceSink;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;
use tablog_term::Functor;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identifier of one span, unique within the process.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

/// Mints a fresh process-unique span id.
pub fn next_span_id() -> SpanId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    SpanId(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Monotonic nanoseconds since a lazily initialized process-wide epoch.
/// Every span timestamp comes from this clock, so spans from different
/// emitters (analyzer phases, engine machines) are directly comparable.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span-enter notification: the opening edge of one timed interval.
/// The matching [`TraceSink::span_exit`] carries the same [`SpanId`].
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent<'a> {
    /// Process-unique identifier, echoed by the matching exit.
    pub id: SpanId,
    /// Enclosing span, if any — explicit, so emitters on different call
    /// stacks (analyzer vs. engine) can stitch one tree.
    pub parent: Option<SpanId>,
    /// Span name: `"evaluate"`, `"dispatch"`, `"clause_resolution"`,
    /// `"answer_return"`, `"completion"`, or an analyzer phase name.
    pub name: &'a str,
    /// The predicate the span is attributed to, when there is one.
    pub pred: Option<Functor>,
    /// Monotonic timestamp from [`now_ns`].
    pub t_ns: u64,
}

/// Tracks the current span stack for one emitting component and sends
/// paired enter/exit notifications to a sink.
///
/// An emitter constructed with [`SpanEmitter::with_root`] parents its
/// outermost spans under an externally supplied span — this is how engine
/// spans nest under the analyzer's `"analysis"` phase.
#[derive(Debug, Default)]
pub struct SpanEmitter {
    root_parent: Option<SpanId>,
    stack: Vec<SpanId>,
}

impl SpanEmitter {
    /// An emitter whose outermost spans have no parent.
    pub fn new() -> Self {
        Self::default()
    }

    /// An emitter whose outermost spans are parented under `parent`.
    pub fn with_root(parent: Option<SpanId>) -> Self {
        SpanEmitter {
            root_parent: parent,
            stack: Vec::new(),
        }
    }

    /// The span new children would be parented under.
    pub fn current(&self) -> Option<SpanId> {
        self.stack.last().copied().or(self.root_parent)
    }

    /// Current nesting depth of this emitter (excluding the external root).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Opens a span and pushes it on the stack.
    pub fn enter(&mut self, sink: &dyn TraceSink, name: &str, pred: Option<Functor>) -> SpanId {
        let id = next_span_id();
        sink.span_enter(&SpanEvent {
            id,
            parent: self.current(),
            name,
            pred,
            t_ns: now_ns(),
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span. A no-op on an empty stack.
    pub fn exit(&mut self, sink: &dyn TraceSink) {
        if let Some(id) = self.stack.pop() {
            sink.span_exit(id, now_ns());
        }
    }
}

#[derive(Clone, Debug)]
struct RawSpan {
    id: SpanId,
    parent: Option<SpanId>,
    name: String,
    pred: Option<Functor>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// A [`TraceSink`] that retains every span (and ignores ordinary events),
/// for freezing into a [`SpanTree`].
#[derive(Debug, Default)]
pub struct SpanRecorder {
    spans: Mutex<Vec<RawSpan>>,
}

impl SpanRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        lock(&self.spans).len()
    }

    /// Whether no spans were recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.spans).is_empty()
    }

    /// Freezes the recorded spans into a tree with self/total times.
    /// Spans still open (e.g. an evaluation aborted by a step limit) are
    /// clamped to the latest timestamp observed.
    pub fn snapshot(&self) -> SpanTree {
        SpanTree::build(&lock(&self.spans))
    }
}

impl TraceSink for SpanRecorder {
    fn span_enter(&self, s: &SpanEvent<'_>) {
        lock(&self.spans).push(RawSpan {
            id: s.id,
            parent: s.parent,
            name: s.name.to_string(),
            pred: s.pred,
            start_ns: s.t_ns,
            end_ns: None,
        });
    }

    fn span_exit(&self, id: SpanId, t_ns: u64) {
        let mut spans = lock(&self.spans);
        // Exits arrive LIFO, so the span being closed is almost always at
        // (or very near) the back.
        if let Some(s) = spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = Some(t_ns);
        }
    }
}

/// One node of a [`SpanTree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// The span's id.
    pub id: SpanId,
    /// Index of the parent node in [`SpanTree::nodes`], if the parent was
    /// itself recorded.
    pub parent: Option<usize>,
    /// Span name.
    pub name: String,
    /// Attributed predicate as `"name/arity"`, when there is one.
    pub pred: Option<String>,
    /// Start timestamp (nanoseconds on the [`now_ns`] timeline).
    pub start_ns: u64,
    /// Wall-clock duration of the whole span.
    pub total_ns: u64,
    /// `total_ns` minus the total time of direct children: time spent in
    /// this span itself.
    pub self_ns: u64,
    /// Child node indices, in emission (chronological) order.
    pub children: Vec<usize>,
}

/// Aggregated time for one rollup bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanRollup {
    /// Number of spans in the bucket.
    pub count: u64,
    /// Sum of span totals. Nested same-bucket spans both count, so this can
    /// exceed wall-clock; `self_ns` never does.
    pub total_ns: u64,
    /// Sum of span self-times; buckets partition wall-clock time.
    pub self_ns: u64,
}

/// A frozen span forest: nodes with parent/child links and self/total
/// times, plus rollup queries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTree {
    /// All recorded spans, in emission order (parents precede children).
    pub nodes: Vec<SpanNode>,
    /// Indices of nodes whose parent was not itself recorded.
    pub roots: Vec<usize>,
}

impl SpanTree {
    fn build(raw: &[RawSpan]) -> SpanTree {
        let horizon = raw
            .iter()
            .map(|s| s.end_ns.unwrap_or(s.start_ns))
            .max()
            .unwrap_or(0);
        let index: BTreeMap<SpanId, usize> =
            raw.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut nodes: Vec<SpanNode> = raw
            .iter()
            .map(|s| {
                let end = s.end_ns.unwrap_or(horizon).max(s.start_ns);
                SpanNode {
                    id: s.id,
                    parent: s.parent.and_then(|p| index.get(&p).copied()),
                    name: s.name.clone(),
                    pred: s.pred.map(|f| f.to_string()),
                    start_ns: s.start_ns,
                    total_ns: end - s.start_ns,
                    self_ns: end - s.start_ns,
                    children: Vec::new(),
                }
            })
            .collect();
        let mut roots = Vec::new();
        for i in 0..nodes.len() {
            match nodes[i].parent {
                // Emission order guarantees a parent's index precedes its
                // children's, so this single pass links every edge.
                Some(p) => {
                    nodes[p].children.push(i);
                    nodes[p].self_ns = nodes[p].self_ns.saturating_sub(nodes[i].total_ns);
                }
                None => roots.push(i),
            }
        }
        SpanTree { nodes, roots }
    }

    /// Whether the tree has no spans.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Aggregates by span name, sorted by name.
    pub fn rollup_by_name(&self) -> Vec<(String, SpanRollup)> {
        let mut agg: BTreeMap<&str, SpanRollup> = BTreeMap::new();
        for n in &self.nodes {
            let r = agg.entry(&n.name).or_default();
            r.count += 1;
            r.total_ns += n.total_ns;
            r.self_ns += n.self_ns;
        }
        agg.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    /// Aggregates spans carrying a predicate by `"name/arity"`, sorted by
    /// predicate. `total_ns` here sums each predicate's span totals
    /// (dispatch including nested clause resolution), `self_ns` only the
    /// time not attributed to an inner span.
    pub fn rollup_by_pred(&self) -> Vec<(String, SpanRollup)> {
        let mut agg: BTreeMap<&str, SpanRollup> = BTreeMap::new();
        for n in &self.nodes {
            if let Some(p) = &n.pred {
                let r = agg.entry(p.as_str()).or_default();
                r.count += 1;
                r.total_ns += n.total_ns;
                r.self_ns += n.self_ns;
            }
        }
        agg.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    /// Aggregates predicate-carrying spans under caller-defined groups —
    /// pass the SCC of each predicate to get per-SCC time. Predicates for
    /// which `group_of` returns `None` are dropped. Sorted by group label.
    pub fn rollup_by_group(
        &self,
        group_of: &dyn Fn(&str) -> Option<String>,
    ) -> Vec<(String, SpanRollup)> {
        let mut agg: BTreeMap<String, SpanRollup> = BTreeMap::new();
        for n in &self.nodes {
            if let Some(label) = n.pred.as_deref().and_then(group_of) {
                let r = agg.entry(label).or_default();
                r.count += 1;
                r.total_ns += n.total_ns;
                r.self_ns += n.self_ns;
            }
        }
        agg.into_iter().collect()
    }

    /// Renders the name and predicate rollups as fixed-width text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            return out;
        }
        let _ = writeln!(out, "spans: {} recorded", self.len());
        let section = |out: &mut String, title: &str, rows: &[(String, SpanRollup)]| {
            let name_w = rows
                .iter()
                .map(|(k, _)| k.len())
                .chain([title.len()])
                .max()
                .unwrap_or(8);
            let _ = writeln!(
                out,
                "{title:<name_w$} {:>8} {:>12} {:>12}",
                "count", "self(ms)", "total(ms)"
            );
            for (k, r) in rows {
                let _ = writeln!(
                    out,
                    "{k:<name_w$} {:>8} {:>12.3} {:>12.3}",
                    r.count,
                    r.self_ns as f64 / 1e6,
                    r.total_ns as f64 / 1e6
                );
            }
        };
        section(&mut out, "span", &self.rollup_by_name());
        let preds = self.rollup_by_pred();
        if !preds.is_empty() {
            section(&mut out, "predicate", &preds);
        }
        out
    }

    /// Renders the rollups as a JSON object:
    /// `{"count":N,"by_name":{...},"by_pred":{...}}` with times in integer
    /// nanoseconds.
    pub fn to_json(&self) -> String {
        let obj = |rows: &[(String, SpanRollup)]| {
            let mut s = String::from("{");
            for (i, (k, r)) in rows.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "\"{}\":{{\"count\":{},\"self_ns\":{},\"total_ns\":{}}}",
                    crate::json::escape(k),
                    r.count,
                    r.self_ns,
                    r.total_ns
                );
            }
            s.push('}');
            s
        };
        format!(
            "{{\"count\":{},\"by_name\":{},\"by_pred\":{}}}",
            self.len(),
            obj(&self.rollup_by_name()),
            obj(&self.rollup_by_pred())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_nests_and_recorder_rebuilds_the_tree() {
        let rec = SpanRecorder::new();
        let mut em = SpanEmitter::new();
        let outer = em.enter(&rec, "evaluate", None);
        let inner = em.enter(&rec, "dispatch", Some(Functor::new("p", 2)));
        assert_eq!(em.current(), Some(inner));
        em.exit(&rec);
        em.exit(&rec);
        assert_ne!(outer, inner);
        let tree = rec.snapshot();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.roots, vec![0]);
        assert_eq!(tree.nodes[0].children, vec![1]);
        assert_eq!(tree.nodes[1].parent, Some(0));
        assert_eq!(tree.nodes[1].pred.as_deref(), Some("p/2"));
        assert!(tree.nodes[0].total_ns >= tree.nodes[1].total_ns);
        assert_eq!(
            tree.nodes[0].self_ns,
            tree.nodes[0].total_ns - tree.nodes[1].total_ns
        );
    }

    #[test]
    fn external_root_parents_cross_component_spans() {
        let rec = SpanRecorder::new();
        let mut phases = SpanEmitter::new();
        let analysis = phases.enter(&rec, "analysis", None);
        let mut engine = SpanEmitter::with_root(Some(analysis));
        engine.enter(&rec, "evaluate", None);
        engine.exit(&rec);
        phases.exit(&rec);
        let tree = rec.snapshot();
        assert_eq!(tree.roots, vec![0]);
        assert_eq!(tree.nodes[1].name, "evaluate");
        assert_eq!(tree.nodes[1].parent, Some(0));
    }

    #[test]
    fn open_spans_are_clamped_not_lost() {
        let rec = SpanRecorder::new();
        let mut em = SpanEmitter::new();
        em.enter(&rec, "evaluate", None);
        em.enter(&rec, "dispatch", None);
        em.exit(&rec); // "evaluate" never exits (aborted run)
        let tree = rec.snapshot();
        assert_eq!(tree.len(), 2);
        assert!(tree.nodes[0].total_ns >= tree.nodes[1].total_ns);
    }

    #[test]
    fn rollups_partition_self_time() {
        let rec = SpanRecorder::new();
        let mut em = SpanEmitter::new();
        em.enter(&rec, "evaluate", None);
        for i in 0..3 {
            em.enter(&rec, "dispatch", Some(Functor::new("p", i)));
            em.exit(&rec);
        }
        em.exit(&rec);
        let tree = rec.snapshot();
        let by_name = tree.rollup_by_name();
        let total_self: u64 = by_name.iter().map(|(_, r)| r.self_ns).sum();
        let evaluate = by_name.iter().find(|(k, _)| k == "evaluate").unwrap().1;
        assert_eq!(evaluate.count, 1);
        assert_eq!(total_self, evaluate.total_ns);
        assert_eq!(tree.rollup_by_pred().len(), 3);
        let grouped = tree.rollup_by_group(&|_| Some("one-scc".to_string()));
        assert_eq!(grouped.len(), 1);
        assert_eq!(grouped[0].1.count, 3);
    }

    #[test]
    fn json_rollup_parses() {
        let rec = SpanRecorder::new();
        let mut em = SpanEmitter::new();
        em.enter(&rec, "evaluate", Some(Functor::new("q", 1)));
        em.exit(&rec);
        let v = crate::json::parse(&rec.snapshot().to_json()).expect("valid JSON");
        assert_eq!(v.get("count").and_then(|c| c.as_f64()), Some(1.0));
        assert!(v.get("by_name").and_then(|b| b.get("evaluate")).is_some());
    }
}
