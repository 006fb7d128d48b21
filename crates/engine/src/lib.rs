//! A tabled logic programming engine — the XSB analog at the heart of the
//! PLDI'96 reproduction.
//!
//! The engine evaluates definite logic programs with *tabled resolution*:
//! predicates marked as tabled have their calls and answers recorded in
//! tables keyed by variant (identical up to variable renaming), exactly the
//! discipline of XSB's SLG/OLDT engine. Tabling guarantees termination for
//! programs over finite domains — the property that makes declaratively
//! formulated program analyses *complete* — while non-tabled predicates run
//! under plain SLD resolution.
//!
//! Rather than a WAM with suspended consumer choice points, evaluation is an
//! explicit **derivation forest**: each node owns its resolvent (a goal list
//! plus an answer template) in canonical form, and a worklist interleaves
//! clause resolution, builtin evaluation, and answer-return steps until no
//! work remains — at which point every table is complete. This keeps the
//! engine small and obviously correct while preserving XSB's observable
//! behaviour: call tables (used by the analyses for input patterns), answer
//! tables with variant-based duplicate elimination (non-ground answers
//! included), and left-to-right literal selection.
//!
//! Features used by the paper's experiments:
//!
//! * **Dynamic vs. compiled code** ([`LoadMode`]): compiled predicates get a
//!   first-argument index (faster evaluation, more preprocessing); dynamic
//!   predicates are asserted as a plain clause list (XSB's `assert`-and-
//!   `call/1` mode, which the paper found superior overall).
//! * **Scheduling** ([`Scheduling`]): the SLG worklist runs depth-first
//!   (LIFO, akin to XSB's local scheduling; the default) or breadth-first
//!   (FIFO) — Section 6.2's discussion.
//! * **Forward subsumption** ([`EngineOptions::forward_subsumption`]):
//!   route specific calls through the open call's table (Section 6.2).
//! * **Call abstraction / answer widening hooks**
//!   ([`EngineOptions::call_abstraction`], [`EngineOptions::answer_widening`]):
//!   the Section 6.1 mechanism for infinite-domain analyses; the depth-k
//!   analysis of Section 5 is built on these.
//!
//! # Example
//!
//! ```
//! use tablog_engine::{Engine, Program};
//!
//! // Left recursion terminates under tabling.
//! let src = ":- table path/2.
//!            path(X, Y) :- path(X, Z), edge(Z, Y).
//!            path(X, Y) :- edge(X, Y).
//!            edge(a, b). edge(b, c). edge(c, a).";
//! let engine = Engine::from_source(src)?;
//! let solutions = engine.solve("path(a, X)")?;
//! assert_eq!(solutions.len(), 3);
//! # Ok::<(), tablog_engine::EngineError>(())
//! ```

mod budget;
mod builtins;
mod consumers;
mod database;
mod dispatch;
mod error;
mod explain;
mod justify;
mod machine;
mod options;
mod provenance;
mod report;
mod scheduler;
mod session;
mod table;

#[cfg(test)]
mod machine_tests;

pub use budget::{SampleConfig, Truncation, TruncationReason};
pub use builtins::{
    abs_ground, abs_unify, arith_eval, builtin_functors, is_builtin, lookup_builtin, term_compare,
    BuiltinImpl, DetFn, NonDetFn, GAMMA,
};
pub use database::{ClauseMatches, Database, LoadMode, StoredClause};
pub use error::EngineError;
pub use explain::Explanation;
pub use justify::{JustNode, JustStatus};
pub use options::{EngineOptions, Scheduling, TermHook, Unknown};
pub use provenance::{AnswerProv, AnswerRef, ClauseRef};
pub use report::{TableReport, TableRow};
pub use session::{Engine, Evaluation, Solutions};
pub use table::{AnswerIter, SubgoalView, TableBytes, TableStats};

// Re-exported for downstream convenience: the reader produces the programs
// the engine loads, and the trace types plug into `EngineOptions::trace`.
pub use tablog_syntax::{parse_program, ParseError, Program};
pub use tablog_trace::{
    chrome_trace, CountingSink, Forest, ForestAnswer, ForestSubgoal, JsonLinesSink,
    MetricsRegistry, MetricsReport, MultiSink, NoopSink, PredStats, Sample, SampleTrack,
    SpanEmitter, SpanEvent, SpanId, SpanRecorder, SpanTree, StallWatchdog, TraceEvent, TraceSink,
};
