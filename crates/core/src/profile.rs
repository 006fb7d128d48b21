//! Shared profiling plumbing: hooking a [`MetricsRegistry`] into an
//! analyzer's engine run and freezing it into the report's
//! [`MetricsReport`].
//!
//! Every engine-backed analyzer follows the same recipe: when its
//! `profile` flag is set, install a fresh registry as (one of) the trace
//! sinks before constructing the engine, and after the collection phase
//! stamp the three [`PhaseTimings`] fields into the registry and snapshot
//! it. Since PR 5 the recipe also covers the performance observatory:
//! [`PhaseSpans`] emits analyzer-phase spans into the same sink the engine
//! writes to, and [`engine_snapshot`] stamps the evaluation's global
//! counters into the report. The helpers here keep that recipe in one
//! place.

use crate::pipeline::PhaseTimings;
use std::sync::Arc;
use tablog_engine::{EngineOptions, Evaluation};
use tablog_trace::{
    EngineSnapshot, MetricsRegistry, MetricsReport, MultiSink, SpanEmitter, SpanId, TraceSink,
};

/// Installs a fresh metrics registry as a trace sink on `opts`, preserving
/// any sink the caller configured: an existing sink is fanned out through a
/// [`MultiSink`] so both keep observing every event.
pub(crate) fn install_registry(opts: &mut EngineOptions) -> Arc<MetricsRegistry> {
    let reg = Arc::new(MetricsRegistry::new());
    let sink: Arc<dyn TraceSink> = match opts.trace.take() {
        Some(existing) => Arc::new(MultiSink::new().with(existing).with(reg.clone())),
        None => reg.clone(),
    };
    opts.trace = Some(sink);
    reg
}

/// Analyzer-phase span emission: wraps the engine's trace sink (when span
/// recording is on) so analyzers can bracket their pipeline phases with
/// spans on the same timeline the engine emits into. The span id returned
/// by [`PhaseSpans::enter`] is what analyzers pass to
/// `EngineOptions::parent_span` so the whole evaluation nests under the
/// `"analysis"` phase. Inert — no timestamps, no ids — unless
/// `record_spans` is set *and* a sink is installed.
pub(crate) struct PhaseSpans {
    sink: Option<Arc<dyn TraceSink>>,
    emitter: SpanEmitter,
}

impl PhaseSpans {
    /// Builds the emitter from the options the engine will run under (call
    /// after [`install_registry`] so the registry's recorder sees phases).
    pub(crate) fn from_options(opts: &EngineOptions) -> Self {
        PhaseSpans {
            sink: if opts.record_spans {
                opts.trace.clone()
            } else {
                None
            },
            emitter: SpanEmitter::new(),
        }
    }

    /// Opens a phase span, returning its id for cross-component parenting.
    pub(crate) fn enter(&mut self, name: &str) -> Option<SpanId> {
        self.sink
            .as_ref()
            .map(|s| self.emitter.enter(s.as_ref(), name, None))
    }

    /// Closes the innermost open phase span.
    pub(crate) fn exit(&mut self) {
        if let Some(s) = &self.sink {
            self.emitter.exit(s.as_ref());
        }
    }
}

/// The evaluation's global counters, in report form, stamped with the
/// Prop-domain backend the analysis ran on (so saved reports are
/// self-describing the same way they are for the scheduler).
pub fn engine_snapshot(eval: &Evaluation, domain: tablog_domain::DomainKind) -> EngineSnapshot {
    let s = eval.stats();
    EngineSnapshot {
        scheduler: eval.scheduler().to_string(),
        domain: domain.name().to_owned(),
        steps: s.steps as u64,
        clause_resolutions: s.clause_resolutions as u64,
        subgoals: s.subgoals as u64,
        answers: s.answers as u64,
        duplicate_answers: s.duplicate_answers as u64,
        table_bytes: s.table_bytes as u64,
    }
}

/// Stamps the pipeline's phase timings into the registry and freezes it,
/// embedding the engine options in effect (so the report is
/// self-describing) and the evaluation's global counters.
pub(crate) fn finish(
    reg: &MetricsRegistry,
    t: &PhaseTimings,
    options: Vec<(String, String)>,
    engine: Option<EngineSnapshot>,
) -> MetricsReport {
    reg.record_phases(&[
        ("preprocess", t.preprocess),
        ("analysis", t.analysis),
        ("collection", t.collection),
    ]);
    let mut report = reg.snapshot();
    report.options = options;
    report.engine = engine;
    report
}
