//! Measures the cost of span instrumentation on a table-heavy workload:
//! left-recursive transitive closure over a 64-node edge chain (~2k
//! answers, thousands of dispatch/resolution/return events). Four
//! configurations:
//!
//! * `spans_off` — no trace sink at all: the shipping default. Every span
//!   site is gated on `Machine.spans.is_some()`, and sampling on
//!   `Machine.sampler.is_some()`, so this path takes no timestamps and mints
//!   no ids. The combined overhead budget for spans *and* sampling both off
//!   (relative to a build without the instrumentation) is <3%; this config
//!   is the evidence — the only residue is a handful of `Option`/bool
//!   branches per task.
//! * `noop_sink` — a [`NoopSink`] attached but `record_spans` off: the
//!   cost of event tracing alone, for reference.
//! * `noop_sink_spans` — [`NoopSink`] plus `record_spans`: the full span
//!   path (timestamp + id per enter/exit) minus serialization. The PR 5
//!   budget is <3% over `noop_sink`.
//! * `noop_sink_spans_counters` — spans plus `SampleConfig::every_steps(1)`
//!   (what `tablog timeline --counters` runs): one [`tablog_engine::Sample`]
//!   per worklist task, the full timeline-recording cost minus retention.
//! * `budgets_health` — generous resource budgets (never tripping) plus a
//!   sample every 64 tasks into a [`NoopSink`]: the budgeted-run cost — per
//!   task, two limit comparisons plus one clock read against the
//!   precomputed deadline cutoff, and sample assembly at the configured
//!   cadence. Note `spans_off` above also covers budgets-off:
//!   the unset `Option` limits share its dispatch-boundary branch budget.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use tablog_engine::{Engine, EngineOptions, LoadMode, NoopSink, SampleConfig};

fn chain_program(n: usize) -> String {
    let mut src = String::from(
        ":- table path/2.\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- path(X, Z), edge(Z, Y).\n",
    );
    for i in 0..n {
        src.push_str(&format!("edge(n{}, n{}).\n", i, i + 1));
    }
    src
}

fn engine_with(src: &str, opts: EngineOptions) -> Engine {
    Engine::from_source_with(src, LoadMode::Dynamic, opts).expect("chain program loads")
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("span_overhead");
    g.sample_size(30);
    let src = chain_program(64);

    let plain = engine_with(&src, EngineOptions::default());
    g.bench_function("spans_off", |b| {
        b.iter(|| {
            let sols = plain.solve(black_box("path(X, Y)")).expect("solves");
            black_box(sols.len())
        })
    });

    let traced_opts = EngineOptions {
        trace: Some(Arc::new(NoopSink)),
        ..EngineOptions::default()
    };
    let traced = engine_with(&src, traced_opts);
    g.bench_function("noop_sink", |b| {
        b.iter(|| {
            let sols = traced.solve(black_box("path(X, Y)")).expect("solves");
            black_box(sols.len())
        })
    });

    let span_opts = EngineOptions {
        trace: Some(Arc::new(NoopSink)),
        record_spans: true,
        ..EngineOptions::default()
    };
    let spanned = engine_with(&src, span_opts);
    g.bench_function("noop_sink_spans", |b| {
        b.iter(|| {
            let sols = spanned.solve(black_box("path(X, Y)")).expect("solves");
            black_box(sols.len())
        })
    });

    let counter_opts = EngineOptions {
        trace: Some(Arc::new(NoopSink)),
        record_spans: true,
        sampling: Some(SampleConfig::every_steps(1)),
        ..EngineOptions::default()
    };
    let counted = engine_with(&src, counter_opts);
    g.bench_function("noop_sink_spans_counters", |b| {
        b.iter(|| {
            let sols = counted.solve(black_box("path(X, Y)")).expect("solves");
            black_box(sols.len())
        })
    });

    let budget_opts = EngineOptions {
        trace: Some(Arc::new(NoopSink)),
        max_steps: Some(usize::MAX),
        deadline: Some(std::time::Duration::from_secs(86_400)),
        max_table_bytes: Some(usize::MAX),
        sampling: Some(SampleConfig::every_steps(64)),
        ..EngineOptions::default()
    };
    let budgeted = engine_with(&src, budget_opts);
    g.bench_function("budgets_health", |b| {
        b.iter(|| {
            let sols = budgeted.solve(black_box("path(X, Y)")).expect("solves");
            assert!(!sols.is_truncated(), "generous budgets must not trip");
            black_box(sols.len())
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
