//! Differential property tests for the id-backed answer tables.
//!
//! PR 3 swapped the seed's structural `Vec<CanonicalTerm>` + `HashSet`
//! answer store for hash-consed `TermId` keys. These tests re-run the seed
//! representation as a *shadow*: a naive structural table fed from the
//! engine's own trace events. Every `answer_insert`/`duplicate_answer`
//! verdict the id-keyed table reaches must be the verdict the structural
//! table reaches on the materialized terms, and the final tables must agree
//! byte-for-byte on content and insertion order.
//!
//! Forward subsumption is switched on for the replay test so each tabled
//! predicate owns exactly one table — that makes the per-predicate shadow
//! an exact model (events do not say *which* table of a predicate they hit).

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use tablog_engine::{Engine, EngineOptions, LoadMode, Scheduling, TraceEvent, TraceSink};
use tablog_term::{Bindings, Functor, Term};

/// A sink that retains every event in emission order.
#[derive(Default)]
struct Collect(Mutex<Vec<TraceEvent>>);

impl TraceSink for Collect {
    fn event(&self, e: &TraceEvent) {
        self.0.lock().unwrap().push(e.clone());
    }
}

/// A generated test program: source text plus the goal to run.
#[derive(Clone, Debug)]
struct Prog {
    src: String,
    goal: &'static str,
}

/// Renders graph node `i` wrapped in `depth` layers of `s/1` — ground
/// structure that recurs across facts, so the hash-consing arena actually
/// shares subterms and the byte accounting is exercised under sharing.
fn node(i: u8, depth: u8) -> String {
    let mut t = format!("n{i}");
    for _ in 0..depth {
        t = format!("s({t})");
    }
    t
}

/// Random Datalog programs: a random `edge/2` relation over wrapped nodes,
/// one of three recursion shapes for `path/2`, and a structured `pair/2`
/// layer on top so answers themselves are compound. Everything is a finite
/// Datalog program, so tabled evaluation always terminates.
fn arb_prog() -> impl Strategy<Value = Prog> {
    (
        2u8..5,                                                // node count
        prop::collection::vec((0u8..4, 0u8..4, 0u8..3), 1..9), // edges + wrap depth
        0u8..3,                                                // recursion shape
    )
        .prop_map(|(n, edges, shape)| {
            let mut src = String::from(":- table path/2.\n:- table pair/2.\n");
            src.push_str(match shape {
                0 => "path(X, Y) :- path(X, Z), edge(Z, Y).\n",
                1 => "path(X, Y) :- edge(X, Z), path(Z, Y).\n",
                _ => "path(X, Y) :- path(X, Z), path(Z, Y).\n",
            });
            src.push_str("path(X, Y) :- edge(X, Y).\n");
            src.push_str("pair(f(X, Y), f(Y, X)) :- path(X, Y).\n");
            for (a, b, d) in edges {
                src.push_str(&format!("edge({}, {}).\n", node(a % n, d), node(b % n, d)));
            }
            Prog {
                src,
                goal: "pair(U, V)",
            }
        })
}

/// The seed's table representation: structural terms in a `Vec` for order
/// plus a `HashSet` for duplicate detection.
#[derive(Default)]
struct ShadowTable {
    order: Vec<Vec<Term>>,
    seen: HashSet<Vec<Term>>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replaying the engine's own insert/duplicate events into a naive
    /// structural table reproduces its verdicts, contents, and order.
    #[test]
    fn id_keyed_tables_match_structural_shadow(prog in arb_prog()) {
        for mode in [LoadMode::Dynamic, LoadMode::Compiled] {
            let sink = Arc::new(Collect::default());
            let opts = EngineOptions {
                forward_subsumption: true,
                trace: Some(sink.clone()),
                ..EngineOptions::default()
            };
            let engine = Engine::from_source_with(&prog.src, mode, opts)
                .expect("generated program parses");
            let mut b = Bindings::new();
            let (g, _) = tablog_syntax::parse_term(prog.goal, &mut b).unwrap();
            let eval = engine.evaluate(&[g], &[], &b).expect("evaluation succeeds");
            let events = sink.0.lock().unwrap();

            let mut shadow: HashMap<Functor, ShadowTable> = HashMap::new();
            let mut tables_per_pred: HashMap<Functor, usize> = HashMap::new();
            let (mut inserts, mut dups) = (0usize, 0usize);
            for ev in events.iter() {
                match ev {
                    TraceEvent::NewSubgoal { pred, .. } => {
                        let n = tables_per_pred.entry(*pred).or_insert(0);
                        *n += 1;
                        // The shadow is keyed by predicate, which is only
                        // sound while subsumption keeps one table per pred.
                        prop_assert_eq!(*n, 1, "pred {:?} opened a second table", pred);
                    }
                    TraceEvent::AnswerInsert { pred, answer, .. } => {
                        inserts += 1;
                        let tuple = answer.clone();
                        let t = shadow.entry(*pred).or_default();
                        prop_assert!(
                            t.seen.insert(tuple.clone()),
                            "id table inserted {:?} but the structural table \
                             already contains it ({:?}, {:?})",
                            tuple, pred, mode
                        );
                        t.order.push(tuple);
                    }
                    TraceEvent::DuplicateAnswer { pred, answer } => {
                        dups += 1;
                        let tuple = answer.clone();
                        prop_assert!(
                            shadow.entry(*pred).or_default().seen.contains(&tuple),
                            "id table rejected {:?} as duplicate but the \
                             structural table has never seen it ({:?}, {:?})",
                            tuple, pred, mode
                        );
                    }
                    _ => {}
                }
            }

            // Stats agree with the event stream the tables were built from.
            let stats = eval.stats();
            prop_assert_eq!(stats.answers, inserts);
            prop_assert_eq!(stats.duplicate_answers, dups);

            // Final tables: same tuples, same insertion order, for every
            // subgoal the engine materialized.
            for view in eval.subgoals() {
                let got: Vec<Vec<Term>> = view.answer_tuples().collect();
                let want = shadow
                    .get(&view.functor())
                    .map(|t| t.order.as_slice())
                    .unwrap_or(&[]);
                prop_assert_eq!(&got, &want, "answer order for {:?}", view.functor());
            }
        }
    }

    /// Scheduling strategy is a performance knob, not a semantics knob:
    /// depth-first and breadth-first evaluation of the same random program
    /// reach identical answer sets for every subgoal, and identical
    /// table/subgoal counts.
    #[test]
    fn schedulers_agree_on_answer_sets(prog in arb_prog()) {
        let run = |scheduling: Scheduling| {
            let opts = EngineOptions { scheduling, ..EngineOptions::default() };
            let engine =
                Engine::from_source_with(&prog.src, LoadMode::Dynamic, opts).unwrap();
            let mut b = Bindings::new();
            let (g, _) = tablog_syntax::parse_term(prog.goal, &mut b).unwrap();
            let eval = engine.evaluate(&[g], &[], &b).unwrap();
            // Per-subgoal answer sets, keyed by the call pattern so tables
            // line up even if creation order differs between strategies.
            let mut tables: Vec<(String, Vec<String>)> = eval
                .subgoals()
                .map(|v| {
                    let call = tablog_syntax::term_to_string(&v.call_term());
                    let mut answers: Vec<String> = v
                        .answer_tuples()
                        .map(|t| {
                            t.iter()
                                .map(tablog_syntax::term_to_string)
                                .collect::<Vec<_>>()
                                .join(",")
                        })
                        .collect();
                    answers.sort();
                    (call, answers)
                })
                .collect();
            tables.sort();
            (tables, eval.stats().subgoals, eval.stats().answers)
        };
        let depth = run(Scheduling::DepthFirst);
        let breadth = run(Scheduling::BreadthFirst);
        prop_assert_eq!(&depth.0, &breadth.0, "depth-first vs breadth-first tables");
        prop_assert_eq!(depth.1, breadth.1, "subgoal counts");
        prop_assert_eq!(depth.2, breadth.2, "answer counts");
    }

    /// PR 5's heap attribution: each table's byte breakdown (terms +
    /// answer entries + provenance) sums exactly to that table's total,
    /// and the per-table totals sum exactly to the evaluation-wide
    /// `table_bytes()`, across option modes that change what gets charged.
    /// Cursor bytes are informational and deliberately outside the sum.
    #[test]
    fn per_table_attribution_sums_to_table_bytes(prog in arb_prog()) {
        let modes = [
            EngineOptions::default(),
            EngineOptions { forward_subsumption: true, ..EngineOptions::default() },
            EngineOptions { record_provenance: true, ..EngineOptions::default() },
        ];
        for opts in modes {
            for mode in [LoadMode::Dynamic, LoadMode::Compiled] {
                let engine =
                    Engine::from_source_with(&prog.src, mode, opts.clone()).unwrap();
                let mut b = Bindings::new();
                let (g, _) = tablog_syntax::parse_term(prog.goal, &mut b).unwrap();
                let eval = engine.evaluate(&[g], &[], &b).unwrap();
                let mut sum = 0usize;
                for view in eval.subgoals() {
                    let bd = view.byte_breakdown();
                    prop_assert_eq!(
                        bd.attributed(),
                        view.table_bytes(),
                        "attribution for {:?} ({:?}, {:?})",
                        view.functor(), mode, opts
                    );
                    sum += bd.attributed();
                }
                prop_assert_eq!(
                    sum,
                    eval.table_bytes(),
                    "per-table sum vs total ({:?}, {:?})",
                    mode,
                    opts
                );
                let report = eval.table_report();
                prop_assert_eq!(report.total_bytes(), sum);
            }
        }
    }

    /// The incremental byte accounting (charged as answers arrive, with
    /// arena sharing) agrees with a from-scratch rescan of the finished
    /// tables, across option modes that change what gets charged.
    #[test]
    fn incremental_bytes_match_rescan(prog in arb_prog()) {
        let modes = [
            EngineOptions::default(),
            EngineOptions { forward_subsumption: true, ..EngineOptions::default() },
            EngineOptions { record_provenance: true, ..EngineOptions::default() },
        ];
        for opts in modes {
            for mode in [LoadMode::Dynamic, LoadMode::Compiled] {
                let engine =
                    Engine::from_source_with(&prog.src, mode, opts.clone()).unwrap();
                let mut b = Bindings::new();
                let (g, _) = tablog_syntax::parse_term(prog.goal, &mut b).unwrap();
                let eval = engine.evaluate(&[g], &[], &b).unwrap();
                prop_assert_eq!(
                    eval.stats().table_bytes,
                    eval.rescan_table_bytes(),
                    "mode {:?}, opts {:?}",
                    mode,
                    opts
                );
            }
        }
    }
}
