//! Regression locks against the pre-arena (PR 2) engine.
//!
//! PR 3 replaced the table representation (hash-consed canonical terms,
//! id-keyed dedup, borrowed clause iteration). None of that may change what
//! the engine *computes*: answer sets, insertion order, duplicate verdicts,
//! step and clause-resolution counts must all match the seed `Vec`/`HashSet`
//! implementation. The constants below were captured by running the seed
//! engine (commit `6b79cf2`) on the same programs; the borrow rewrite of the
//! clause-resolution loops in particular must not alter `clause_resolutions`.

use std::sync::Arc;
use tablog_engine::{Engine, EngineOptions, LoadMode, SampleConfig, SampleTrack};
use tablog_term::Bindings;

struct Expect {
    name: &'static str,
    src: &'static str,
    goal: &'static str,
    /// (steps, clause_resolutions, subgoals, answers, duplicate_answers)
    dynamic: (usize, usize, usize, usize, usize),
    compiled: (usize, usize, usize, usize, usize),
}

/// Seed-engine counters, one row per (program, load mode).
const EXPECTED: &[Expect] = &[
    Expect {
        name: "graph",
        src: ":- table path/2.\n\
              path(X, Y) :- path(X, Z), edge(Z, Y).\n\
              path(X, Y) :- edge(X, Y).\n\
              edge(a, b). edge(b, c). edge(c, a).",
        goal: "path(X, Y)",
        dynamic: (40, 32, 2, 10, 0),
        compiled: (40, 14, 2, 10, 0),
    },
    Expect {
        name: "sg",
        src: ":- table sg/2.\n\
              sg(X, X).\n\
              sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).\n\
              par(c1, p1). par(c2, p1). par(p1, g1). par(p2, g1).",
        goal: "sg(c1, X)",
        dynamic: (20, 30, 4, 6, 0),
        compiled: (20, 20, 4, 6, 0),
    },
    Expect {
        name: "gp_ap",
        src: ":- table gp_ap/3.\n\
              gp_ap(X1, X2, X3) :- '$iff'(X1), '$iff'(X2, X3).\n\
              gp_ap(X1, X2, X3) :-\n\
                  '$iff'(X1, X, Xs), '$iff'(X3, X, Zs), gp_ap(Xs, X2, Zs).",
        goal: "gp_ap(X, Y, Z)",
        dynamic: (65, 10, 6, 9, 0),
        compiled: (65, 10, 6, 9, 0),
    },
    Expect {
        name: "app",
        src: ":- table app/3.\n\
              app([], Y, Y). app([H|T], Y, [H|Z]) :- app(T, Y, Z).",
        goal: "app(X, Y, [1,2,3,4])",
        dynamic: (36, 10, 6, 16, 0),
        compiled: (36, 10, 6, 16, 0),
    },
];

fn run(src: &str, goal: &str, mode: LoadMode) -> tablog_engine::TableStats {
    let e = Engine::from_source_with(src, mode, EngineOptions::default()).unwrap();
    let mut b = Bindings::new();
    let (g, _) = tablog_syntax::parse_term(goal, &mut b).unwrap();
    e.evaluate(&[g], &[], &b).unwrap().stats()
}

#[test]
fn counters_match_seed_engine() {
    for e in EXPECTED {
        for (mode, want) in [
            (LoadMode::Dynamic, e.dynamic),
            (LoadMode::Compiled, e.compiled),
        ] {
            let s = run(e.src, e.goal, mode);
            let got = (
                s.steps,
                s.clause_resolutions,
                s.subgoals,
                s.answers,
                s.duplicate_answers,
            );
            assert_eq!(
                got, want,
                "{} ({mode:?}): (steps, clause_resolutions, subgoals, answers, \
                 duplicate_answers) diverged from the seed engine",
                e.name
            );
        }
    }
}

/// Sampling is observation only: a run sampling after every step
/// computes byte-for-byte the same whole-run totals as a plain run, the
/// track holds one sample per engine step plus the initial state, and the
/// final sample agrees with the evaluation's own statistics.
#[test]
fn counter_sampling_does_not_perturb_evaluation() {
    for e in EXPECTED {
        for mode in [LoadMode::Dynamic, LoadMode::Compiled] {
            let plain = run(e.src, e.goal, mode);
            let track = Arc::new(SampleTrack::new());
            let opts = EngineOptions {
                trace: Some(track.clone()),
                sampling: Some(SampleConfig::every_steps(1)),
                ..Default::default()
            };
            let eng = Engine::from_source_with(e.src, mode, opts).unwrap();
            let mut b = Bindings::new();
            let (g, _) = tablog_syntax::parse_term(e.goal, &mut b).unwrap();
            let counted = eng.evaluate(&[g], &[], &b).unwrap().stats();
            assert_eq!(
                (
                    counted.steps,
                    counted.clause_resolutions,
                    counted.subgoals,
                    counted.answers,
                    counted.duplicate_answers,
                    counted.table_bytes,
                ),
                (
                    plain.steps,
                    plain.clause_resolutions,
                    plain.subgoals,
                    plain.answers,
                    plain.duplicate_answers,
                    plain.table_bytes,
                ),
                "{} ({mode:?}): counter sampling changed the evaluation",
                e.name
            );
            assert_eq!(
                track.len(),
                counted.steps + 1,
                "{} ({mode:?}): one sample per step plus the initial state",
                e.name
            );
            let last = track.last().expect("at least the initial sample");
            assert_eq!(last.worklist, 0, "{}: final worklist is drained", e.name);
            assert_eq!(last.expands + last.returns, 0, "{}", e.name);
            assert_eq!(last.answers, counted.answers, "{}", e.name);
            assert_eq!(last.tables, counted.subgoals, "{}", e.name);
            assert_eq!(last.table_bytes, counted.table_bytes, "{}", e.name);
        }
    }
}

/// Budgets and sampling are observation only: a run under generous budgets
/// (none of which trip) sampling after every step computes byte-for-byte
/// the same whole-run totals and answer sets as a plain run, is not
/// truncated, and the final sample agrees with the evaluation's own
/// statistics.
#[test]
fn generous_budgets_and_health_do_not_perturb_evaluation() {
    for e in EXPECTED {
        for mode in [LoadMode::Dynamic, LoadMode::Compiled] {
            let plain_eng =
                Engine::from_source_with(e.src, mode, EngineOptions::default()).unwrap();
            let plain = plain_eng.solve(e.goal).unwrap();
            let plain_stats = run(e.src, e.goal, mode);

            let track = Arc::new(SampleTrack::new());
            let opts = EngineOptions {
                trace: Some(track.clone()),
                max_steps: Some(1_000_000),
                deadline: Some(std::time::Duration::from_secs(3600)),
                max_table_bytes: Some(1 << 30),
                sampling: Some(SampleConfig::every_steps(1)),
                ..Default::default()
            };
            let eng = Engine::from_source_with(e.src, mode, opts).unwrap();
            let sols = eng.solve(e.goal).unwrap();
            assert!(!sols.is_truncated(), "{}: generous budgets tripped", e.name);
            assert_eq!(
                sols.rows(),
                plain.rows(),
                "{} ({mode:?}): budgets changed the answer set",
                e.name
            );

            let mut b = Bindings::new();
            let (g, _) = tablog_syntax::parse_term(e.goal, &mut b).unwrap();
            let budgeted = eng.evaluate(&[g], &[], &b).unwrap().stats();
            assert_eq!(
                (
                    budgeted.steps,
                    budgeted.clause_resolutions,
                    budgeted.subgoals,
                    budgeted.answers,
                    budgeted.duplicate_answers,
                    budgeted.table_bytes,
                ),
                (
                    plain_stats.steps,
                    plain_stats.clause_resolutions,
                    plain_stats.subgoals,
                    plain_stats.answers,
                    plain_stats.duplicate_answers,
                    plain_stats.table_bytes,
                ),
                "{} ({mode:?}): budgets/health changed the evaluation",
                e.name
            );

            // every_steps(1) emits one sample per step plus the initial one;
            // the track saw both solve() and evaluate() runs.
            assert!(!track.is_empty(), "{}: no samples", e.name);
            let last = track.last().expect("final sample");
            assert_eq!(last.steps, budgeted.steps, "{}", e.name);
            assert_eq!(last.worklist, 0, "{}: final worklist is drained", e.name);
            assert_eq!(last.answers, budgeted.answers, "{}", e.name);
            assert_eq!(last.tables, budgeted.subgoals, "{}", e.name);
            assert_eq!(
                last.completed_tables, budgeted.subgoals,
                "{}: a drained run completes every table",
                e.name
            );
            assert_eq!(last.table_bytes, budgeted.table_bytes, "{}", e.name);
            assert!(!last.stalled, "{}: bounded runs never stall", e.name);
        }
    }
}

#[test]
fn rescan_agrees_with_incremental_on_seed_programs() {
    for e in EXPECTED {
        for mode in [LoadMode::Dynamic, LoadMode::Compiled] {
            let eng = Engine::from_source_with(e.src, mode, EngineOptions::default()).unwrap();
            let mut b = Bindings::new();
            let (g, _) = tablog_syntax::parse_term(e.goal, &mut b).unwrap();
            let eval = eng.evaluate(&[g], &[], &b).unwrap();
            assert_eq!(
                eval.stats().table_bytes,
                eval.rescan_table_bytes(),
                "{} ({mode:?})",
                e.name
            );
        }
    }
}
