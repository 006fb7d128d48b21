//! Killed-evaluation behavior under each resource budget: a tripped
//! budget is graceful truncation — partial answers, a final snapshot, no
//! error, no panic, no hang — and `require_complete` is the analyzer-side
//! gate that turns truncation into an error.

use std::sync::Arc;
use std::time::Duration;
use tablog_engine::{
    Engine, EngineError, EngineOptions, LoadMode, SampleConfig, SampleTrack, TruncationReason,
};

/// A tabled predicate with infinitely many answers: every step makes
/// progress, so any budget kind eventually trips mid-derivation with a
/// non-empty partial answer set.
const NUMBERS: &str = ":- table num/1.\nnum(z).\nnum(s(X)) :- num(X).";

/// A divergent tabled query that never produces an answer: each recursive
/// call is a fresh call pattern, so tables (and table bytes) grow forever
/// while the answer count stays zero — the stall watchdog's signature.
const BARREN: &str = ":- table q/1.\nq(X) :- q(f(X)).";

/// A negation whose subcomputation does real work: each `\+ r(_)` runs a
/// sub-machine that resolves `n/1` a thousand ways before failing.
const NEGATION: &str = ":- table r/1.\n\
    n(0). n(1). n(2). n(3). n(4). n(5). n(6). n(7). n(8). n(9).\n\
    r(X) :- n(X), n(Y), n(Z), X > 100.\n\
    p(X) :- n(X), \\+ r(_).";

fn engine(src: &str, opts: EngineOptions) -> Engine {
    Engine::from_source_with(src, LoadMode::Dynamic, opts).unwrap()
}

#[test]
fn step_budget_truncates_with_partial_answers() {
    let e = engine(
        NUMBERS,
        EngineOptions {
            max_steps: Some(200),
            ..Default::default()
        },
    );
    let sols = e.solve("num(N)").unwrap();
    let t = sols.truncation().expect("the budget must trip");
    assert_eq!(t.reason, TruncationReason::Steps(200));
    assert_eq!(t.reason.name(), "steps");
    assert!(
        !sols.is_empty(),
        "200 steps derive plenty of numerals before the trip"
    );
    // Every partial answer is a genuine numeral.
    for row in sols.rows() {
        let text = format!("{}", row[0]);
        assert!(text == "z" || text.starts_with("s("), "{text}");
    }
    assert_eq!(t.snapshot.steps, 201, "the counted boundary task included");
    // The snapshot counts inserts across every table, including the root
    // `$query` rows the settle pass delivered.
    assert!(t.snapshot.answers >= sols.len());
}

#[test]
fn deadline_budget_truncates_without_hanging() {
    let e = engine(
        NUMBERS,
        EngineOptions {
            deadline: Some(Duration::from_millis(50)),
            ..Default::default()
        },
    );
    let start = std::time::Instant::now();
    let sols = e.solve("num(N)").unwrap();
    let elapsed = start.elapsed();
    let t = sols.truncation().expect("the deadline must pass");
    assert_eq!(t.reason, TruncationReason::DeadlineMs(50));
    assert!(!sols.is_empty(), "some numerals exist before the deadline");
    assert!(
        elapsed < Duration::from_secs(30),
        "deadline enforcement must not hang (took {elapsed:?})"
    );
}

#[test]
fn table_byte_budget_truncates_once_ceiling_crossed() {
    let ceiling = 4096;
    let e = engine(
        NUMBERS,
        EngineOptions {
            max_table_bytes: Some(ceiling),
            ..Default::default()
        },
    );
    let sols = e.solve("num(N)").unwrap();
    let t = sols.truncation().expect("the ceiling must be crossed");
    assert_eq!(t.reason, TruncationReason::TableBytes(ceiling));
    assert!(!sols.is_empty());
    assert!(
        t.snapshot.table_bytes > ceiling,
        "the run stops at the first dispatch boundary past the ceiling"
    );
}

#[test]
fn truncated_tables_stay_incomplete() {
    let e = engine(
        NUMBERS,
        EngineOptions {
            max_steps: Some(100),
            ..Default::default()
        },
    );
    let mut b = tablog_term::Bindings::new();
    let (g, _) = tablog_syntax::parse_term("num(N)", &mut b).unwrap();
    let eval = e.evaluate(&[g], &[], &b).unwrap();
    assert!(eval.is_truncated());
    assert!(
        eval.subgoals().all(|s| !s.is_complete()),
        "truncation must not mark tables complete"
    );
    // The byte accounting invariant holds on the partial tables too.
    assert_eq!(eval.stats().table_bytes, eval.rescan_table_bytes());
}

#[test]
fn require_complete_converts_truncation_to_error() {
    let e = engine(
        NUMBERS,
        EngineOptions {
            max_steps: Some(100),
            ..Default::default()
        },
    );
    let mut b = tablog_term::Bindings::new();
    let (g, _) = tablog_syntax::parse_term("num(N)", &mut b).unwrap();
    let err = e
        .evaluate(&[g], &[], &b)
        .unwrap()
        .require_complete()
        .expect_err("truncated runs fail the completeness gate");
    assert!(matches!(
        err,
        EngineError::Truncated(TruncationReason::Steps(100))
    ));
    assert!(err.to_string().contains("100"));

    // A completed run passes through untouched.
    let ok = engine(NUMBERS, EngineOptions::default());
    let mut b = tablog_term::Bindings::new();
    let (g, _) = tablog_syntax::parse_term("num(z)", &mut b).unwrap();
    assert!(ok
        .evaluate(&[g], &[], &b)
        .unwrap()
        .require_complete()
        .is_ok());
}

#[test]
fn health_snapshots_flow_during_truncated_runs() {
    let track = Arc::new(SampleTrack::new());
    let e = engine(
        NUMBERS,
        EngineOptions {
            trace: Some(track.clone()),
            max_steps: Some(500),
            sampling: Some(SampleConfig::every_steps(50)),
            ..Default::default()
        },
    );
    let sols = e.solve("num(N)").unwrap();
    assert!(sols.is_truncated());
    // 500 steps at a 50-step cadence: the initial sample, ten periodic
    // ones, and the final one stamped onto the truncation.
    assert!(track.len() >= 10, "periodic samples: {}", track.len());
    let samples = track.samples();
    assert!(
        samples.windows(2).all(|w| w[0].steps <= w[1].steps),
        "sample step counts are monotonic"
    );
    let last = track.last().unwrap();
    assert_eq!(
        last,
        sols.truncation().unwrap().snapshot,
        "the final emitted snapshot is the truncation snapshot"
    );
}

#[test]
fn stall_watchdog_flags_barren_divergence() {
    let track = Arc::new(SampleTrack::new());
    let e = engine(
        BARREN,
        EngineOptions {
            trace: Some(track.clone()),
            max_steps: Some(2_000),
            sampling: Some(SampleConfig::every_steps(100)),
            ..Default::default()
        },
    );
    let sols = e.solve("q(a)").unwrap();
    assert!(sols.is_empty(), "the barren query never answers");
    let t = sols.truncation().expect("the step budget trips");
    assert!(
        t.snapshot.stalled,
        "table-growth-only windows must be flagged as a stall: {:?}",
        t.snapshot
    );
    assert_eq!(t.snapshot.answers, 0);

    // The same cadence over a productive run never flags.
    let track2 = Arc::new(SampleTrack::new());
    let p = engine(
        NUMBERS,
        EngineOptions {
            trace: Some(track2.clone()),
            max_steps: Some(2_000),
            sampling: Some(SampleConfig::every_steps(100)),
            ..Default::default()
        },
    );
    let sols = p.solve("num(N)").unwrap();
    assert!(sols.is_truncated());
    assert!(
        track2.samples().iter().all(|s| !s.stalled),
        "a run deriving answers every window is healthy"
    );
}

#[test]
fn budget_trip_inside_negation_truncates_the_outer_run() {
    // The negation subcomputation diverges; its budget trip must surface
    // as truncation of the outer evaluation, not as a "proven" negation.
    let src = ":- table q/1.\nq(X) :- q(f(X)).\np(Y) :- \\+ q(Y).";
    let e = engine(
        src,
        EngineOptions {
            max_steps: Some(1_000),
            ..Default::default()
        },
    );
    let sols = e.solve("p(a)").unwrap();
    assert!(sols.is_truncated(), "the sub-machine's trip must propagate");
    assert!(
        sols.is_empty(),
        "a truncated negation must not count as failure-as-proof"
    );
}

#[test]
fn negation_subcomputations_do_not_sample_into_the_parent_series() {
    let track = Arc::new(SampleTrack::new());
    let e = engine(
        NEGATION,
        EngineOptions {
            trace: Some(track.clone()),
            sampling: Some(SampleConfig::every_steps(1)),
            ..Default::default()
        },
    );
    let sols = e.solve("p(X)").unwrap();
    assert_eq!(sols.len(), 10);
    let samples = track.samples();
    assert!(samples.len() > 2, "samples: {}", samples.len());
    for w in samples.windows(2) {
        assert!(w[0].steps <= w[1].steps, "steps went back: {w:?}");
        assert!(w[0].tables <= w[1].tables, "tables went back: {w:?}");
    }
}

#[test]
fn step_budget_bounds_negation_subcomputations() {
    // Sub-machines continue the parent's step count, so the budget bounds
    // the whole evaluation: the run stops at the first step past the limit
    // whether the parent or a negation subcomputation takes it.
    for limit in [10, 40] {
        let e = engine(
            NEGATION,
            EngineOptions {
                max_steps: Some(limit),
                ..Default::default()
            },
        );
        let sols = e.solve("p(X)").unwrap();
        let t = sols.truncation().expect("the step budget trips");
        assert_eq!(t.reason, TruncationReason::Steps(limit));
        assert_eq!(t.snapshot.steps, limit + 1, "limit {limit}");
    }
}

#[test]
fn jsonl_sink_flushes_health_and_truncation_lines() {
    use tablog_engine::{JsonLinesSink, TraceSink};
    use tablog_trace::SharedBuf;

    let buf = SharedBuf::new();
    let sink = Arc::new(JsonLinesSink::new(buf.clone()));
    let e = engine(
        NUMBERS,
        EngineOptions {
            trace: Some(sink.clone()),
            max_steps: Some(300),
            sampling: Some(SampleConfig::every_steps(50)),
            ..Default::default()
        },
    );
    let sols = e.solve("num(N)").unwrap();
    assert!(sols.is_truncated());
    sink.flush();
    let text = buf.contents();
    let health_lines: Vec<_> = text
        .lines()
        .filter(|l| l.starts_with("{\"sample\":"))
        .collect();
    assert!(!health_lines.is_empty(), "health lines reach the sink");
    for line in health_lines {
        tablog_trace::json::parse(line).expect("each health line is valid JSON");
    }
}
