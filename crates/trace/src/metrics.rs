//! Per-predicate metrics rolled up from trace events.
//!
//! [`MetricsRegistry`] is itself a [`TraceSink`]: install it in the engine
//! (alone or fanned out with other sinks via `MultiSink`) and it aggregates
//! every event into a [`PredStats`] row per functor, XSB's
//! `statistics/0`-style view. Analyzers add their phase wall-clock times
//! with [`MetricsRegistry::record_phases`]; [`MetricsRegistry::snapshot`]
//! freezes everything into a [`MetricsReport`] for rendering.

use crate::event::TraceEvent;
use crate::json::escape;
use crate::sample::{Sample, SampleTrack};
use crate::sink::TraceSink;
use crate::span::{SpanEvent, SpanId, SpanRecorder, SpanTree};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use tablog_term::Functor;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counters for one predicate (one table functor).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredStats {
    /// Distinct tabled subgoals created.
    pub subgoals: u64,
    /// Answers admitted into tables.
    pub answers: u64,
    /// Answers re-derived and rejected as variant duplicates.
    pub duplicate_answers: u64,
    /// Program-clause resolutions performed.
    pub clause_resolutions: u64,
    /// Answers returned to consumer nodes.
    pub answer_returns: u64,
    /// Calls absorbed by forward subsumption.
    pub subsumed_calls: u64,
    /// Calls rewritten by the call-abstraction hook.
    pub calls_abstracted: u64,
    /// Answers rewritten by the answer-widening hook.
    pub answers_widened: u64,
    /// Subgoals marked complete.
    pub completed: u64,
    /// Heap bytes charged to this predicate's tables.
    pub table_bytes: u64,
}

impl PredStats {
    /// Adds `other` into `self`, field by field.
    pub fn absorb(&mut self, other: &PredStats) {
        self.subgoals += other.subgoals;
        self.answers += other.answers;
        self.duplicate_answers += other.duplicate_answers;
        self.clause_resolutions += other.clause_resolutions;
        self.answer_returns += other.answer_returns;
        self.subsumed_calls += other.subsumed_calls;
        self.calls_abstracted += other.calls_abstracted;
        self.answers_widened += other.answers_widened;
        self.completed += other.completed;
        self.table_bytes += other.table_bytes;
    }

    /// Renders this row's fields as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"subgoals\":{},\"answers\":{},\"duplicate_answers\":{},\
             \"clause_resolutions\":{},\"answer_returns\":{},\"subsumed_calls\":{},\
             \"calls_abstracted\":{},\"answers_widened\":{},\"completed\":{},\
             \"table_bytes\":{}}}",
            self.subgoals,
            self.answers,
            self.duplicate_answers,
            self.clause_resolutions,
            self.answer_returns,
            self.subsumed_calls,
            self.calls_abstracted,
            self.answers_widened,
            self.completed,
            self.table_bytes
        )
    }
}

/// Global engine counters of one evaluation, stamped into a
/// [`MetricsReport`] so a single `stats --json` run captures the full
/// snapshot: which scheduler ran and its step/answer counters (previously
/// only available through the bench harness's per-strategy rows).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Scheduling strategy name (`depth_first` or `breadth_first`).
    pub scheduler: String,
    /// Prop-domain backend name (`table`, `bdd`) — the representation the
    /// analysis manipulated its boolean formulae in. Empty when the
    /// producer predates domain selection.
    pub domain: String,
    /// Worklist steps executed.
    pub steps: u64,
    /// Program-clause resolution attempts.
    pub clause_resolutions: u64,
    /// Tabled subgoals created.
    pub subgoals: u64,
    /// Unique answers entered into tables.
    pub answers: u64,
    /// Answers rejected as variant duplicates.
    pub duplicate_answers: u64,
    /// Estimated total table space in bytes.
    pub table_bytes: u64,
}

impl EngineSnapshot {
    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scheduler\":\"{}\",\"domain\":\"{}\",\"steps\":{},\"clause_resolutions\":{},\
             \"subgoals\":{},\"answers\":{},\"duplicate_answers\":{},\"table_bytes\":{}}}",
            escape(&self.scheduler),
            escape(&self.domain),
            self.steps,
            self.clause_resolutions,
            self.subgoals,
            self.answers,
            self.duplicate_answers,
            self.table_bytes
        )
    }
}

/// A [`TraceSink`] accumulating per-predicate statistics and phase timings.
/// Spans and samples (when the engine records them) are retained too; spans
/// are rolled up into the snapshot's [`SpanTree`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    preds: Mutex<BTreeMap<Functor, PredStats>>,
    phases: Mutex<Vec<(String, Duration)>>,
    spans: SpanRecorder,
    samples: SampleTrack,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one named phase duration (e.g. `"analysis"`). Recording the
    /// same name again accumulates, so repeated evaluations sum up.
    pub fn record_phase(&self, name: &str, d: Duration) {
        let mut phases = lock(&self.phases);
        if let Some(entry) = phases.iter_mut().find(|(n, _)| n == name) {
            entry.1 += d;
        } else {
            phases.push((name.to_string(), d));
        }
    }

    /// Records several phases at once, in display order. Compatible with
    /// `PhaseTimings` in `tablog-core`: pass its three fields by name.
    pub fn record_phases(&self, phases: &[(&str, Duration)]) {
        for (name, d) in phases {
            self.record_phase(name, *d);
        }
    }

    /// Current statistics for one predicate.
    pub fn pred(&self, f: Functor) -> PredStats {
        lock(&self.preds).get(&f).copied().unwrap_or_default()
    }

    /// The span recorder behind this registry's span-tree rollup — hand it
    /// to [`SpanTree`]-consuming helpers directly when the full tree is
    /// needed (e.g. folded-stack export).
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// The samples recorded through this registry, in emission order —
    /// populated when the engine ran with `sampling` set, empty otherwise.
    pub fn samples(&self) -> Vec<Sample> {
        self.samples.samples()
    }

    /// Freezes the current state into a report.
    pub fn snapshot(&self) -> MetricsReport {
        let mut preds: Vec<(String, PredStats)> = lock(&self.preds)
            .iter()
            .map(|(f, s)| (f.to_string(), *s))
            .collect();
        // BTreeMap order is interning order of `Sym`; sort by display name
        // so reports are stable across runs with different load orders.
        preds.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsReport {
            preds,
            phases: lock(&self.phases).clone(),
            options: Vec::new(),
            spans: self.spans.snapshot(),
            engine: None,
        }
    }
}

impl TraceSink for MetricsRegistry {
    fn event(&self, e: &TraceEvent) {
        let mut preds = lock(&self.preds);
        let s = preds.entry(e.pred()).or_default();
        match *e {
            TraceEvent::NewSubgoal { bytes, .. } => {
                s.subgoals += 1;
                s.table_bytes += bytes as u64;
            }
            TraceEvent::ClauseResolution { .. } => s.clause_resolutions += 1,
            TraceEvent::AnswerInsert { bytes, .. } => {
                s.answers += 1;
                s.table_bytes += bytes as u64;
            }
            TraceEvent::DuplicateAnswer { .. } => s.duplicate_answers += 1,
            TraceEvent::AnswerReturn { .. } => s.answer_returns += 1,
            TraceEvent::CallAbstracted { .. } => s.calls_abstracted += 1,
            TraceEvent::AnswerWidened { .. } => s.answers_widened += 1,
            TraceEvent::SubsumedCall { .. } => s.subsumed_calls += 1,
            // Bytes were charged incrementally on NewSubgoal/AnswerInsert,
            // so completion only counts the table as finished.
            TraceEvent::SubgoalComplete { .. } => s.completed += 1,
        }
    }

    fn span_enter(&self, s: &SpanEvent<'_>) {
        self.spans.span_enter(s);
    }

    fn span_exit(&self, id: SpanId, t_ns: u64) {
        self.spans.span_exit(id, t_ns);
    }

    fn sample(&self, s: &Sample) {
        self.samples.sample(s);
    }
}

/// A frozen view of a [`MetricsRegistry`]: per-predicate rows (sorted by
/// predicate name) plus named phase timings in recording order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// `("name/arity", stats)` rows, sorted by name.
    pub preds: Vec<(String, PredStats)>,
    /// `(phase name, wall-clock)` in recording order.
    pub phases: Vec<(String, Duration)>,
    /// Engine options in effect for the run, as `(name, value)` pairs —
    /// stamped by the producer (e.g. `EngineOptions::describe()`) so
    /// reports are self-describing; empty when not stamped.
    pub options: Vec<(String, String)>,
    /// Span tree rolled up from recorded spans; empty unless the run had
    /// span recording enabled.
    pub spans: SpanTree,
    /// Global engine counters of the evaluation — stamped by the producer
    /// (the `tablog stats` command, the analyzers); `None` when not
    /// stamped.
    pub engine: Option<EngineSnapshot>,
}

impl MetricsReport {
    /// Sum of all per-predicate rows.
    pub fn totals(&self) -> PredStats {
        let mut t = PredStats::default();
        for (_, s) in &self.preds {
            t.absorb(s);
        }
        t
    }

    /// Stats for one predicate, by `"name/arity"` key.
    pub fn pred(&self, key: &str) -> Option<&PredStats> {
        self.preds.iter().find(|(k, _)| k == key).map(|(_, s)| s)
    }

    /// Renders an XSB-`statistics/0`-style fixed-width table.
    pub fn render_text(&self) -> String {
        let name_w = self
            .preds
            .iter()
            .map(|(k, _)| k.len())
            .chain(["predicate".len(), "total".len()])
            .max()
            .unwrap_or(9);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_w$} {:>9} {:>9} {:>6} {:>12} {:>9} {:>7} {:>12}",
            "predicate",
            "subgoals",
            "answers",
            "dups",
            "resolutions",
            "returns",
            "compl",
            "table bytes"
        );
        let width = name_w + 9 + 9 + 6 + 12 + 9 + 7 + 12 + 7;
        let _ = writeln!(out, "{}", "-".repeat(width));
        for (key, s) in &self.preds {
            let _ = writeln!(
                out,
                "{key:<name_w$} {:>9} {:>9} {:>6} {:>12} {:>9} {:>7} {:>12}",
                s.subgoals,
                s.answers,
                s.duplicate_answers,
                s.clause_resolutions,
                s.answer_returns,
                s.completed,
                s.table_bytes
            );
        }
        let t = self.totals();
        let _ = writeln!(out, "{}", "-".repeat(width));
        let _ = writeln!(
            out,
            "{:<name_w$} {:>9} {:>9} {:>6} {:>12} {:>9} {:>7} {:>12}",
            "total",
            t.subgoals,
            t.answers,
            t.duplicate_answers,
            t.clause_resolutions,
            t.answer_returns,
            t.completed,
            t.table_bytes
        );
        if t.subsumed_calls + t.calls_abstracted + t.answers_widened > 0 {
            let _ = writeln!(
                out,
                "subsumed calls: {}   calls abstracted: {}   answers widened: {}",
                t.subsumed_calls, t.calls_abstracted, t.answers_widened
            );
        }
        if !self.phases.is_empty() {
            let total: Duration = self.phases.iter().map(|(_, d)| *d).sum();
            let mut line = String::from("phases:");
            for (name, d) in &self.phases {
                let _ = write!(line, " {name} {:.3}ms", d.as_secs_f64() * 1e3);
            }
            let _ = write!(line, "  total {:.3}ms", total.as_secs_f64() * 1e3);
            let _ = writeln!(out, "{line}");
        }
        if !self.options.is_empty() {
            let mut line = String::from("options:");
            for (name, value) in &self.options {
                let _ = write!(line, " {name}={value}");
            }
            let _ = writeln!(out, "{line}");
        }
        if let Some(e) = &self.engine {
            let _ = writeln!(
                out,
                "engine: scheduler={} domain={} steps={} resolutions={} subgoals={} \
                 answers={} duplicates={} table_bytes={}",
                e.scheduler,
                if e.domain.is_empty() {
                    "table"
                } else {
                    &e.domain
                },
                e.steps,
                e.clause_resolutions,
                e.subgoals,
                e.answers,
                e.duplicate_answers,
                e.table_bytes
            );
        }
        if !self.spans.is_empty() {
            out.push_str(&self.spans.render_text());
        }
        out
    }

    /// Renders the whole report as a JSON object:
    /// `{"predicates": {"p/2": {...}}, "totals": {...}, "phases_us": {...},
    /// "options": {...}}` where phase durations are integer microseconds and
    /// options are the stamped engine-option strings.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"predicates\":{");
        for (i, (key, s)) in self.preds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(key), s.to_json());
        }
        let _ = write!(out, "}},\"totals\":{}", self.totals().to_json());
        out.push_str(",\"phases_us\":{");
        for (i, (name, d)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(name), d.as_micros());
        }
        out.push_str("},\"options\":{");
        for (i, (name, value)) in self.options.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape(name), escape(value));
        }
        out.push('}');
        if let Some(e) = &self.engine {
            let _ = write!(out, ",\"engine\":{}", e.to_json());
        }
        if !self.spans.is_empty() {
            let _ = write!(out, ",\"spans\":{}", self.spans.to_json());
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tablog_term::{atom, structure, var, Term, Var};

    fn feed(reg: &MetricsRegistry) {
        let p = Functor::new("p", 2);
        let q = Functor::new("q", 1);
        let k: Vec<Term> = vec![structure("p", vec![var(Var(0)), atom("a")])];
        reg.event(&TraceEvent::NewSubgoal {
            pred: p,
            call: k.clone(),
            bytes: 48,
        });
        reg.event(&TraceEvent::ClauseResolution { pred: p });
        reg.event(&TraceEvent::ClauseResolution { pred: p });
        reg.event(&TraceEvent::AnswerInsert {
            pred: p,
            answer: k.clone(),
            bytes: 40,
        });
        reg.event(&TraceEvent::DuplicateAnswer {
            pred: p,
            answer: k.clone(),
        });
        reg.event(&TraceEvent::AnswerReturn { pred: p });
        reg.event(&TraceEvent::SubgoalComplete {
            pred: p,
            answers: 1,
            bytes: 88,
        });
        reg.event(&TraceEvent::NewSubgoal {
            pred: q,
            call: k.clone(),
            bytes: 16,
        });
        reg.event(&TraceEvent::CallAbstracted {
            pred: q,
            original: k.clone(),
            abstracted: k.clone(),
        });
        reg.event(&TraceEvent::AnswerWidened {
            pred: q,
            original: k.clone(),
            widened: k.clone(),
        });
        reg.event(&TraceEvent::SubsumedCall {
            pred: q,
            call: k.clone(),
            subsumer: k.clone(),
        });
    }

    #[test]
    fn rolls_events_into_per_predicate_rows() {
        let reg = MetricsRegistry::new();
        feed(&reg);
        let p = reg.pred(Functor::new("p", 2));
        assert_eq!(p.subgoals, 1);
        assert_eq!(p.answers, 1);
        assert_eq!(p.duplicate_answers, 1);
        assert_eq!(p.clause_resolutions, 2);
        assert_eq!(p.answer_returns, 1);
        assert_eq!(p.completed, 1);
        assert_eq!(p.table_bytes, 88);
        let q = reg.pred(Functor::new("q", 1));
        assert_eq!(q.calls_abstracted, 1);
        assert_eq!(q.answers_widened, 1);
        assert_eq!(q.subsumed_calls, 1);
        assert_eq!(q.table_bytes, 16);
    }

    #[test]
    fn snapshot_sorts_and_totals() {
        let reg = MetricsRegistry::new();
        feed(&reg);
        let report = reg.snapshot();
        let keys: Vec<_> = report.preds.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["p/2", "q/1"]);
        let t = report.totals();
        assert_eq!(t.subgoals, 2);
        assert_eq!(t.table_bytes, 104);
    }

    #[test]
    fn phases_accumulate_by_name() {
        let reg = MetricsRegistry::new();
        reg.record_phases(&[
            ("preprocess", Duration::from_micros(100)),
            ("analysis", Duration::from_micros(200)),
        ]);
        reg.record_phase("analysis", Duration::from_micros(50));
        let report = reg.snapshot();
        assert_eq!(
            report.phases,
            vec![
                ("preprocess".to_string(), Duration::from_micros(100)),
                ("analysis".to_string(), Duration::from_micros(250)),
            ]
        );
    }

    #[test]
    fn json_report_is_valid_and_complete() {
        let reg = MetricsRegistry::new();
        feed(&reg);
        reg.record_phase("analysis", Duration::from_micros(1500));
        let v = crate::json::parse(&reg.snapshot().to_json()).expect("valid JSON");
        let p = v.get("predicates").unwrap().get("p/2").unwrap();
        for field in [
            "subgoals",
            "answers",
            "duplicate_answers",
            "clause_resolutions",
            "table_bytes",
        ] {
            assert!(p.get(field).is_some(), "missing field {field}");
        }
        assert_eq!(p.get("answers").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            v.get("totals").unwrap().get("subgoals").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            v.get("phases_us")
                .unwrap()
                .get("analysis")
                .unwrap()
                .as_f64(),
            Some(1500.0)
        );
    }

    #[test]
    fn text_render_lists_every_predicate_and_total() {
        let reg = MetricsRegistry::new();
        feed(&reg);
        let text = reg.snapshot().render_text();
        assert!(text.contains("p/2"));
        assert!(text.contains("q/1"));
        assert!(text.contains("total"));
        assert!(text.contains("calls abstracted: 1"));
    }
}
