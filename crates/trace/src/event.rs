//! Typed SLG trace events.
//!
//! A [`TraceEvent`] owns its term payloads: the engine materializes them
//! from its session arena only when a sink is attached and moves them into
//! the event, so the untraced hot path never allocates and a sink that
//! retains events just clones them.

use crate::json::escape;
use std::fmt::Write as _;
use tablog_term::{Functor, Term};

/// One SLG engine transition.
///
/// Every variant carries the predicate (`pred`) it concerns; byte counts
/// use the same heap-footprint estimate as `TableStats::table_bytes`. Term
/// payloads are canonical tuples (variables numbered `_0, _1, …` in
/// first-occurrence order), materialized by the engine from its arena.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A call created a fresh subgoal table entry.
    NewSubgoal {
        pred: Functor,
        call: Vec<Term>,
        /// Heap bytes charged to the table for this call key.
        bytes: usize,
    },
    /// A program clause was resolved against a subgoal.
    ClauseResolution { pred: Functor },
    /// A new answer entered a subgoal's answer table.
    AnswerInsert {
        pred: Functor,
        answer: Vec<Term>,
        /// Heap bytes charged to the table for this answer.
        bytes: usize,
    },
    /// An answer was derived again and rejected as a variant duplicate.
    DuplicateAnswer { pred: Functor, answer: Vec<Term> },
    /// An answer was returned to a consumer node.
    AnswerReturn { pred: Functor },
    /// The call-abstraction hook replaced a call key (e.g. depth-k).
    CallAbstracted {
        pred: Functor,
        original: Vec<Term>,
        abstracted: Vec<Term>,
    },
    /// The answer-widening hook replaced an answer (e.g. depth-k).
    AnswerWidened {
        pred: Functor,
        original: Vec<Term>,
        widened: Vec<Term>,
    },
    /// Forward subsumption reused an existing table for a new call.
    SubsumedCall {
        pred: Functor,
        call: Vec<Term>,
        subsumer: Vec<Term>,
    },
    /// A subgoal was marked complete.
    SubgoalComplete {
        pred: Functor,
        /// Answers in the completed table.
        answers: usize,
        /// Total heap bytes of the completed table.
        bytes: usize,
    },
}

impl TraceEvent {
    /// The snake_case event name used in the JSON schema.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::NewSubgoal { .. } => "new_subgoal",
            TraceEvent::ClauseResolution { .. } => "clause_resolution",
            TraceEvent::AnswerInsert { .. } => "answer_insert",
            TraceEvent::DuplicateAnswer { .. } => "duplicate_answer",
            TraceEvent::AnswerReturn { .. } => "answer_return",
            TraceEvent::CallAbstracted { .. } => "call_abstracted",
            TraceEvent::AnswerWidened { .. } => "answer_widened",
            TraceEvent::SubsumedCall { .. } => "subsumed_call",
            TraceEvent::SubgoalComplete { .. } => "subgoal_complete",
        }
    }

    /// The predicate this event concerns.
    pub fn pred(&self) -> Functor {
        match *self {
            TraceEvent::NewSubgoal { pred, .. }
            | TraceEvent::ClauseResolution { pred }
            | TraceEvent::AnswerInsert { pred, .. }
            | TraceEvent::DuplicateAnswer { pred, .. }
            | TraceEvent::AnswerReturn { pred }
            | TraceEvent::CallAbstracted { pred, .. }
            | TraceEvent::AnswerWidened { pred, .. }
            | TraceEvent::SubsumedCall { pred, .. }
            | TraceEvent::SubgoalComplete { pred, .. } => pred,
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    ///
    /// Schema: `{"event": <kind>, "pred": "name/arity", ...}` with
    /// variant-specific fields; terms are rendered in canonical notation
    /// with variables numbered `_0, _1, …`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        let _ = write!(
            s,
            "{{\"event\":\"{}\",\"pred\":\"{}\"",
            self.kind(),
            escape(&self.pred().to_string())
        );
        match self {
            TraceEvent::NewSubgoal { call, bytes, .. } => {
                let _ = write!(
                    s,
                    ",\"call\":\"{}\",\"bytes\":{bytes}",
                    escape(&render(call))
                );
            }
            TraceEvent::ClauseResolution { .. } | TraceEvent::AnswerReturn { .. } => {}
            TraceEvent::AnswerInsert { answer, bytes, .. } => {
                let _ = write!(
                    s,
                    ",\"answer\":\"{}\",\"bytes\":{bytes}",
                    escape(&render(answer))
                );
            }
            TraceEvent::DuplicateAnswer { answer, .. } => {
                let _ = write!(s, ",\"answer\":\"{}\"", escape(&render(answer)));
            }
            TraceEvent::CallAbstracted {
                original,
                abstracted,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"original\":\"{}\",\"abstracted\":\"{}\"",
                    escape(&render(original)),
                    escape(&render(abstracted))
                );
            }
            TraceEvent::AnswerWidened {
                original, widened, ..
            } => {
                let _ = write!(
                    s,
                    ",\"original\":\"{}\",\"widened\":\"{}\"",
                    escape(&render(original)),
                    escape(&render(widened))
                );
            }
            TraceEvent::SubsumedCall { call, subsumer, .. } => {
                let _ = write!(
                    s,
                    ",\"call\":\"{}\",\"subsumer\":\"{}\"",
                    escape(&render(call)),
                    escape(&render(subsumer))
                );
            }
            TraceEvent::SubgoalComplete { answers, bytes, .. } => {
                let _ = write!(s, ",\"answers\":{answers},\"bytes\":{bytes}");
            }
        }
        s.push('}');
        s
    }
}

/// Renders a canonical term tuple for the trace (comma-joined).
fn render(ts: &[Term]) -> String {
    let mut out = String::new();
    for (i, t) in ts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{t:?}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tablog_term::{atom, structure, var, Var};

    fn key() -> Vec<Term> {
        // A canonical tuple as the engine would materialize it: variables
        // already numbered in first-occurrence order.
        vec![structure("p", vec![var(Var(0)), atom("a")])]
    }

    #[test]
    fn kind_and_pred_cover_all_variants() {
        let k = key();
        let p = Functor::new("p", 2);
        let events = [
            TraceEvent::NewSubgoal {
                pred: p,
                call: k.clone(),
                bytes: 10,
            },
            TraceEvent::ClauseResolution { pred: p },
            TraceEvent::AnswerInsert {
                pred: p,
                answer: k.clone(),
                bytes: 10,
            },
            TraceEvent::DuplicateAnswer {
                pred: p,
                answer: k.clone(),
            },
            TraceEvent::AnswerReturn { pred: p },
            TraceEvent::CallAbstracted {
                pred: p,
                original: k.clone(),
                abstracted: k.clone(),
            },
            TraceEvent::AnswerWidened {
                pred: p,
                original: k.clone(),
                widened: k.clone(),
            },
            TraceEvent::SubsumedCall {
                pred: p,
                call: k.clone(),
                subsumer: k.clone(),
            },
            TraceEvent::SubgoalComplete {
                pred: p,
                answers: 1,
                bytes: 10,
            },
        ];
        let kinds: Vec<_> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            [
                "new_subgoal",
                "clause_resolution",
                "answer_insert",
                "duplicate_answer",
                "answer_return",
                "call_abstracted",
                "answer_widened",
                "subsumed_call",
                "subgoal_complete"
            ]
        );
        assert!(events.iter().all(|e| e.pred() == p));
    }

    #[test]
    fn json_lines_parse_and_carry_fields() {
        let k = key();
        let e = TraceEvent::AnswerInsert {
            pred: Functor::new("q", 1),
            answer: k.clone(),
            bytes: 32,
        };
        let v = crate::json::parse(&e.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("event").and_then(|x| x.as_str()),
            Some("answer_insert")
        );
        assert_eq!(v.get("pred").and_then(|x| x.as_str()), Some("q/1"));
        assert_eq!(v.get("bytes").and_then(|x| x.as_f64()), Some(32.0));
    }

    #[test]
    fn canonical_rendering_numbers_vars_in_occurrence_order() {
        let k = key();
        let e = TraceEvent::DuplicateAnswer {
            pred: Functor::new("p", 2),
            answer: k.clone(),
        };
        assert!(e.to_json().contains("p(_0,a)"), "got: {}", e.to_json());
    }

    #[test]
    fn events_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TraceEvent>();
    }
}
