//! Evaluation options.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use tablog_domain::DomainKind;
use tablog_term::{CanonicalTerm, TermArena};
use tablog_trace::TraceSink;

/// Worklist discipline for the derivation forest.
///
/// The paper's Section 6.2 discusses the impact of scheduling strategies on
/// answer collection. Both strategies run over one worklist of tasks in
/// generation order and differ only in which end they take the next task
/// from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scheduling {
    /// LIFO worklist: depth-first expansion, akin to XSB's local scheduling.
    #[default]
    DepthFirst,
    /// FIFO worklist: breadth-first expansion and answer return.
    BreadthFirst,
}

impl Scheduling {
    /// The snake_case name used in reports and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Scheduling::DepthFirst => "depth_first",
            Scheduling::BreadthFirst => "breadth_first",
        }
    }
}

impl fmt::Display for Scheduling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Scheduling {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "depth_first" | "depth-first" => Ok(Scheduling::DepthFirst),
            "breadth_first" | "breadth-first" => Ok(Scheduling::BreadthFirst),
            other => Err(format!(
                "unknown scheduling strategy `{other}` \
                 (expected depth_first or breadth_first)"
            )),
        }
    }
}

/// Treatment of goals whose predicate has no definition.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Unknown {
    /// Raise [`crate::EngineError::UnknownPredicate`] (ISO default).
    #[default]
    Error,
    /// Silently fail the goal (useful when analyzing partial programs).
    Fail,
}

/// A table hook: rewrites a canonical call or answer before it enters a
/// table. This is the engine-level mechanism for the paper's Section 6.1
/// (widening / on-the-fly approximation); the Section 5 depth-k analysis
/// supplies depth-truncation here. The hook receives the session's own
/// [`TermArena`] — the handle it is given and the handle it returns both
/// live there — and must be `Send + Sync` so engines stay `Send` and one
/// configured engine can serve the multi-program driver.
pub type TermHook = Arc<dyn Fn(&mut TermArena, &CanonicalTerm) -> CanonicalTerm + Send + Sync>;

/// Options controlling tabled evaluation.
#[derive(Clone, Default)]
pub struct EngineOptions {
    /// Worklist discipline.
    pub scheduling: Scheduling,
    /// Which Prop-domain backend analyses built on this engine should run
    /// on (truth tables or ROBDDs). The engine itself only records the
    /// choice — the analyzers in `tablog-core` read it back — but carrying
    /// it here makes every report and snapshot self-describing, like
    /// `scheduling`.
    pub domain: DomainKind,
    /// Unify with occur check everywhere (needed by analyses that solve
    /// equality constraints, cf. Section 6.1's Hindley–Milner discussion).
    pub occur_check: bool,
    /// Route specific calls through the open call's table instead of
    /// creating a new table per call pattern (Section 6.2).
    pub forward_subsumption: bool,
    /// Rewrites tabled calls before table lookup. Must generalize (the
    /// engine re-filters answers by unification, so over-approximating
    /// calls is sound).
    pub call_abstraction: Option<TermHook>,
    /// Rewrites answers before insertion. Must over-approximate for the
    /// analysis to stay sound; guarantees termination on infinite domains
    /// when the hook's range is finite.
    pub answer_widening: Option<TermHook>,
    /// Step budget: stop scheduling after this many engine steps (`None` =
    /// unbounded). Tripping it is not an error — the evaluation is handed
    /// back truncated, with the answers derived so far (see
    /// [`crate::Truncation`]).
    pub max_steps: Option<usize>,
    /// Wall-clock budget for the whole evaluation (`None` = unbounded).
    /// Checked at dispatch boundaries (one clock read per task when set),
    /// so a long-running *single* task can overshoot; the truncation
    /// snapshot records the actual elapsed time.
    pub deadline: Option<std::time::Duration>,
    /// Table-space budget in bytes, against the engine's incremental
    /// accounting (`None` = unbounded). Checked at dispatch boundaries;
    /// the run stops after the task that crossed the ceiling.
    pub max_table_bytes: Option<usize>,
    /// Sampling: with `Some` and a `trace` sink, the engine emits
    /// [`tablog_trace::Sample`]s through [`TraceSink::sample`] — one before
    /// the first task, one after each task that leaves work queued when
    /// the cadence is due, and one final sample — with the stall watchdog
    /// scoring each window. Negation subcomputations do not sample. With
    /// `None` (the default) no sample, and no timestamp, is ever taken.
    pub sampling: Option<crate::SampleConfig>,
    /// Treatment of undefined predicates.
    pub unknown: Unknown,
    /// Record per-answer provenance: the clause ids resolved and the table
    /// answers consumed along each answer's first derivation (see
    /// [`crate::AnswerProv`]). Provenance bytes are charged to the table
    /// space accounting. With `false` (the default) the engine allocates
    /// and stores nothing, so the feature costs exactly zero when off.
    pub record_provenance: bool,
    /// Observer of engine events (see `tablog_trace`). With `None` the
    /// engine constructs no events at all, so tracing costs nothing when
    /// disabled. Negation subcomputations share the sink, and so do the
    /// concurrent sessions of the multi-program driver (sinks are `Sync`).
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Emit hierarchical timing spans (`span_enter`/`span_exit`) around
    /// evaluation, goal dispatch, clause resolution, answer return, and
    /// completion. Spans flow to the same `trace` sink; with `trace` unset
    /// or this flag off (the default) no span — and no timestamp — is ever
    /// taken, so the flag costs exactly zero when off.
    pub record_spans: bool,
    /// Parent span for the engine's root spans, letting an embedding
    /// analyzer nest the whole evaluation under its own phase span.
    /// Ignored unless `record_spans` is set.
    pub parent_span: Option<tablog_trace::SpanId>,
}

impl EngineOptions {
    /// Describes the options in effect as `(key, value)` pairs — the
    /// self-describing header embedded in metric reports so a saved report
    /// can be attributed to the configuration that produced it.
    pub fn describe(&self) -> Vec<(String, String)> {
        let on_off = |b: bool| if b { "on" } else { "off" }.to_owned();
        vec![
            ("scheduling".to_owned(), self.scheduling.name().to_owned()),
            ("domain".to_owned(), self.domain.name().to_owned()),
            ("occur_check".to_owned(), on_off(self.occur_check)),
            (
                "forward_subsumption".to_owned(),
                on_off(self.forward_subsumption),
            ),
            (
                "call_abstraction".to_owned(),
                on_off(self.call_abstraction.is_some()),
            ),
            (
                "answer_widening".to_owned(),
                on_off(self.answer_widening.is_some()),
            ),
            (
                "max_steps".to_owned(),
                match self.max_steps {
                    Some(n) => n.to_string(),
                    None => "unbounded".to_owned(),
                },
            ),
            (
                "deadline_ms".to_owned(),
                match self.deadline {
                    Some(d) => d.as_millis().to_string(),
                    None => "unbounded".to_owned(),
                },
            ),
            (
                "max_table_bytes".to_owned(),
                match self.max_table_bytes {
                    Some(b) => b.to_string(),
                    None => "unbounded".to_owned(),
                },
            ),
            (
                "sampling".to_owned(),
                match self.sampling {
                    Some(h) => format!(
                        "every {} steps / {} ms (stall window {})",
                        h.every_steps, h.every_ms, h.stall_window
                    ),
                    None => "off".to_owned(),
                },
            ),
            (
                "unknown".to_owned(),
                match self.unknown {
                    Unknown::Error => "error".to_owned(),
                    Unknown::Fail => "fail".to_owned(),
                },
            ),
            (
                "record_provenance".to_owned(),
                on_off(self.record_provenance),
            ),
            ("record_spans".to_owned(), on_off(self.record_spans)),
        ]
    }
}

impl fmt::Debug for EngineOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineOptions")
            .field("scheduling", &self.scheduling)
            .field("domain", &self.domain)
            .field("occur_check", &self.occur_check)
            .field("forward_subsumption", &self.forward_subsumption)
            .field("call_abstraction", &self.call_abstraction.is_some())
            .field("answer_widening", &self.answer_widening.is_some())
            .field("max_steps", &self.max_steps)
            .field("deadline", &self.deadline)
            .field("max_table_bytes", &self.max_table_bytes)
            .field("sampling", &self.sampling)
            .field("unknown", &self.unknown)
            .field("record_provenance", &self.record_provenance)
            .field("trace", &self.trace.is_some())
            .field("record_spans", &self.record_spans)
            .field("parent_span", &self.parent_span)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduling_round_trips_through_names() {
        for s in [Scheduling::DepthFirst, Scheduling::BreadthFirst] {
            assert_eq!(s.name().parse::<Scheduling>(), Ok(s));
        }
        // Unknown names, including the removed `batched` and `parallel`
        // strategies, fail with a message enumerating every valid value.
        for bad in ["local", "batched", "parallel"] {
            let err = bad.parse::<Scheduling>().unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
            for name in ["depth_first", "breadth_first"] {
                assert!(err.contains(name), "{err}");
            }
        }
    }

    #[test]
    fn describe_reports_the_selected_strategy() {
        let opts = EngineOptions {
            scheduling: Scheduling::BreadthFirst,
            ..Default::default()
        };
        let kv = opts.describe();
        assert!(kv.contains(&("scheduling".to_owned(), "breadth_first".to_owned())));
        // The active Prop-domain backend is part of the header too.
        assert!(kv.contains(&("domain".to_owned(), "table".to_owned())));
        let bdd = EngineOptions {
            domain: DomainKind::Bdd,
            ..Default::default()
        };
        assert!(bdd
            .describe()
            .contains(&("domain".to_owned(), "bdd".to_owned())));
    }

    #[test]
    fn options_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineOptions>();
    }
}
