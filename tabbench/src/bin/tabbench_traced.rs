//! Traced run of one workload: the counting allocator is installed, and
//! every layer is timed from outside by bracketing the call into its
//! public function. Nothing inside the program is traced.
//!
//! ```text
//! tabbench-traced --workload W --seed N --seconds S --reference DIR [--heap]
//! ```
//!
//! Without `--heap` it prints the per-layer metrics (medians over traced
//! passes of per-pass sums over programs) and the traced pass time. Every
//! traced pass is sequential, also for a concurrent workload: the
//! allocator counters are process-wide, and their shared atomics would
//! distort concurrent timings (`tabbench --layers` measures the
//! `core::parallel` layer instead). With
//! `--heap` it prints the end-to-end `peak_heap_mb`: the largest peak
//! live heap of one analysis, or of one whole pass for a concurrent
//! workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tabbench::{
    analyze, json_strings, median, metrics_json, ms, parse, run, run_batch, us, Args, Checker, Job,
    Kind, Parsed, Rng,
};
use tablog_alloc::{HeapScope, TrackingAlloc};
use tablog_core::depthk::transform_depthk;
use tablog_core::direct::DirectAnalyzer;
use tablog_core::groundness::{compile_time, transform_program, IffMode};
use tablog_core::strictness::translate_program;
use tablog_engine::{Database, LoadMode};
use tablog_term::{Bindings, Term, TermArena};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Fewest traced passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Passes whose peak heap `--heap` takes the median of, for a concurrent
/// workload (a sequential one is measured per analysis in one pass).
const HEAP_PASSES: usize = 5;

/// The per-layer metrics and their units, in output order.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("syntax.parse_us", "us"),
    ("syntax.clauses", "count"),
    ("syntax.alloc_count", "count"),
    ("funlang.parse_us", "us"),
    ("funlang.alloc_count", "count"),
    ("transform.us", "us"),
    ("transform.rules", "count"),
    ("transform.alloc_count", "count"),
    ("load.us", "us"),
    ("evaluate.us", "us"),
    ("evaluate.steps", "count"),
    ("evaluate.steps_per_ms", "1/ms"),
    ("evaluate.clause_resolutions", "count"),
    ("evaluate.subgoals", "count"),
    ("evaluate.answers", "count"),
    ("evaluate.duplicate_answers", "count"),
    ("evaluate.answer_yield", "ratio"),
    ("evaluate.calls_abstracted", "count"),
    ("evaluate.answers_widened", "count"),
    ("analyze.alloc_count", "count"),
    ("analyze.alloc_mb", "MB"),
    ("term.intern_ns", "ns"),
    ("term.nodes", "count"),
    ("collect.us", "us"),
    ("compile.us", "us"),
    ("compile.increase_pct", "%"),
    ("direct.us", "us"),
    ("direct.tabled_ratio", "ratio"),
    ("share.front_end_pct", "%"),
    ("share.evaluate_pct", "%"),
    ("share.collect_pct", "%"),
];

/// One traced pass's sums over programs, by metric name. Names starting
/// with `_` are intermediate sums that derived metrics are computed from.
#[derive(Default)]
struct Sample(BTreeMap<&'static str, f64>);

impl Sample {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_default() += v;
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `num / den`, or 0 when the layer did not run (`den` is 0).
    fn ratio(&self, num: f64, den: f64) -> f64 {
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

fn allocs(scope: HeapScope) -> f64 {
    scope.measure().map_or(0.0, |d| d.allocations as f64)
}

/// Brackets the front end's parser and the analyzer call of one job,
/// adding their times, allocations and the analyzer's own phase times and
/// counters to `s`. Returns the parsed input for the replays.
fn bracket(job: &Job, s: &mut Sample, checker: &mut Checker) -> Option<Parsed> {
    let scope = HeapScope::begin();
    let t = Instant::now();
    let parsed = parse(job);
    let parse_us = us(t.elapsed());
    let parse_allocs = allocs(scope);
    let parsed = match parsed {
        Ok(p) => p,
        Err(e) => {
            checker.observe(job, &Err(e));
            return None;
        }
    };
    match &parsed {
        Parsed::Logic(program, _) => {
            s.add("syntax.parse_us", parse_us);
            s.add("syntax.alloc_count", parse_allocs);
            s.add("syntax.clauses", program.clauses.len() as f64);
        }
        Parsed::Fun(_) => {
            s.add("funlang.parse_us", parse_us);
            s.add("funlang.alloc_count", parse_allocs);
        }
    }

    let scope = HeapScope::begin();
    let t = Instant::now();
    let result = analyze(job, &parsed, false);
    let call_us = us(t.elapsed());
    if let Some(d) = scope.measure() {
        s.add("analyze.alloc_count", d.allocations as f64);
        s.add("analyze.alloc_mb", d.allocated_bytes as f64 / 1e6);
    }
    checker.observe(job, &result);
    let report = result.ok()?;
    let t = report.timings();
    let st = report.stats();
    s.add("_preprocess_us", us(t.preprocess));
    s.add("evaluate.us", us(t.analysis));
    s.add("collect.us", us(t.collection));
    s.add("evaluate.steps", st.steps as f64);
    s.add("evaluate.clause_resolutions", st.clause_resolutions as f64);
    s.add("evaluate.subgoals", st.subgoals as f64);
    s.add("evaluate.answers", st.answers as f64);
    s.add("evaluate.duplicate_answers", st.duplicate_answers as f64);
    s.add("_call_us", parse_us + call_us);
    s.add("_front_end_us", parse_us + us(t.preprocess));
    let total = parse_us + us(t.total());
    s.add("_total_us", total);
    if job.kind == Kind::Ground {
        s.add("_ground_total_us", total);
    }
    Some(parsed)
}

/// Replays the layers an analyzer call hides, each from outside: the
/// abstract transformation, term interning of its rules, the plain
/// compile baseline, and (groundness) the direct analyzer.
fn replay(job: &Job, parsed: &Parsed, s: &mut Sample) {
    let scope = HeapScope::begin();
    let t = Instant::now();
    let rules = match parsed {
        Parsed::Logic(program, _) if job.kind == Kind::Ground => {
            transform_program(program, IffMode::Builtin).map(|(r, _)| r)
        }
        Parsed::Logic(program, _) => transform_depthk(program).map(|(r, _)| r),
        Parsed::Fun(program) => translate_program(program),
    };
    s.add("transform.us", us(t.elapsed()));
    s.add("transform.alloc_count", allocs(scope));
    let Ok(rules) = rules else { return };
    s.add("transform.rules", rules.len() as f64);

    let tuples: Vec<Vec<Term>> = rules
        .iter()
        .map(|r| std::iter::once(&r.head).chain(&r.body).cloned().collect())
        .collect();
    let bindings = Bindings::new();
    let mut arena = TermArena::new();
    let t = Instant::now();
    for ts in &tuples {
        black_box(arena.canonicalize(&bindings, ts));
    }
    s.add("term.intern_ns", t.elapsed().as_secs_f64() * 1e9);
    s.add("term.nodes", arena.stats().nodes as f64);

    let t = Instant::now();
    let compiled = match job.kind {
        Kind::Ground | Kind::Depthk => compile_time(job.source, LoadMode::Dynamic).is_ok(),
        // Table 3's compile proxy: parse, translate and load, no evaluation.
        Kind::Strict => tablog_funlang::parse_fun_program(job.source)
            .ok()
            .and_then(|p| translate_program(&p).ok())
            .is_some_and(|rules| {
                let mut db = Database::new(LoadMode::Dynamic);
                rules
                    .into_iter()
                    .all(|r| db.assert_clause(r.head, r.body).is_ok())
            }),
    };
    if compiled {
        s.add("compile.us", us(t.elapsed()));
    }

    if let (Kind::Ground, Parsed::Logic(program, entry)) = (job.kind, parsed) {
        let t = Instant::now();
        let direct =
            DirectAnalyzer::new().analyze_with_entries(program, std::slice::from_ref(entry));
        if direct.is_ok() {
            s.add("direct.us", us(t.elapsed()));
        }
    }
}

/// Fills in the metrics derived from a pass's sums.
fn derive(s: &mut Sample) {
    let load = s.get("_preprocess_us") - s.get("transform.us");
    let steps_per_ms = s.ratio(s.get("evaluate.steps"), s.get("evaluate.us") / 1e3);
    let answers = s.get("evaluate.answers");
    let answer_yield = s.ratio(answers, answers + s.get("evaluate.duplicate_answers"));
    let increase = 100.0 * s.ratio(s.get("_total_us"), s.get("compile.us"));
    let tabled_ratio = s.ratio(s.get("_ground_total_us"), s.get("direct.us"));
    let call = s.get("_call_us");
    let front_end = 100.0 * s.ratio(s.get("_front_end_us"), call);
    let evaluate = 100.0 * s.ratio(s.get("evaluate.us"), call);
    let collect = 100.0 * s.ratio(s.get("collect.us"), call);
    s.add("load.us", load);
    s.add("evaluate.steps_per_ms", steps_per_ms);
    s.add("evaluate.answer_yield", answer_yield);
    s.add("compile.increase_pct", increase);
    s.add("direct.tabled_ratio", tabled_ratio);
    s.add("share.front_end_pct", front_end);
    s.add("share.evaluate_pct", evaluate);
    s.add("share.collect_pct", collect);
}

fn main() {
    tabbench::refuse_debug_build();
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("tabbench-traced: {e}");
        std::process::exit(2);
    });
    if args.flag("heap") {
        peak_heap(&args);
    } else {
        layers(&args);
    }
}

fn layers(args: &Args) {
    let workload = args.workload;
    let jobs = workload.jobs();
    let mut rng = Rng::new(args.seed);
    let mut checker = Checker::default();

    // Set-up: a warm-up pass of profiled analyses, for the counters only
    // the metrics registry has (they are deterministic).
    let mut truncation = Sample::default();
    for job in &jobs {
        let report = parse(job).and_then(|p| analyze(job, &p, true));
        if let Some(t) = report
            .as_ref()
            .ok()
            .and_then(|r| r.metrics())
            .map(|m| m.totals())
        {
            truncation.add("evaluate.calls_abstracted", t.calls_abstracted as f64);
            truncation.add("evaluate.answers_widened", t.answers_widened as f64);
        }
        checker.observe(job, &report);
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut traced_pass_ms = Vec::new();
    while start.elapsed() < budget || samples.len() < MIN_PASSES {
        let order = rng.permutation(jobs.len());
        let ordered: Vec<&Job> = order.iter().map(|&i| &jobs[i]).collect();
        let mut s = Sample::default();
        for (&k, &v) in &truncation.0 {
            s.add(k, v);
        }

        let t = Instant::now();
        let parsed: Vec<(&Job, Parsed)> = ordered
            .iter()
            .filter_map(|&job| Some((job, bracket(job, &mut s, &mut checker)?)))
            .collect();
        traced_pass_ms.push(ms(t.elapsed()));
        for (job, p) in &parsed {
            replay(job, p, &mut s);
        }
        derive(&mut s);
        samples.push(s);
    }
    checker.finish(&jobs, &args.reference);

    let metrics: Vec<(&str, f64, &str)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let xs: Vec<f64> = samples.iter().map(|s| s.get(name)).collect();
            (name, median(&xs), unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
         \"info\": {{\"passes\": {}, \"traced_pass_ms\": {}, \"errors\": {}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        metrics_json(&metrics),
        samples.len(),
        median(&traced_pass_ms),
        json_strings(&checker.errors),
    );
    if checker.failed > 0 {
        std::process::exit(1);
    }
}

/// Live heap above the level at `base`, at the peak since the last
/// `HeapScope::begin`.
fn peak_mb(base: usize) -> f64 {
    let peak = tablog_alloc::stats().peak_bytes;
    peak.saturating_sub(base) as f64 / 1e6
}

fn peak_heap(args: &Args) {
    let workload = args.workload;
    let jobs = workload.jobs();
    let mut rng = Rng::new(args.seed);
    let mut checker = Checker::default();
    // Warm-up, so one-time process state (the symbol table) is not
    // charged to the first analysis measured.
    for job in &jobs {
        checker.observe(job, &run(job));
    }
    let mut peaks = Vec::new();
    if workload.threads() > 1 {
        for _ in 0..HEAP_PASSES {
            let order = rng.permutation(jobs.len());
            let ordered: Vec<&Job> = order.iter().map(|&i| &jobs[i]).collect();
            let base = tablog_alloc::stats().live_bytes;
            let _scope = HeapScope::begin();
            let results = run_batch(workload.threads(), &ordered);
            peaks.push(peak_mb(base));
            for (job, (r, _)) in ordered.iter().zip(&results) {
                checker.observe(job, r);
            }
        }
    } else {
        let order = rng.permutation(jobs.len());
        for &i in &order {
            let base = tablog_alloc::stats().live_bytes;
            let _scope = HeapScope::begin();
            let r = run(&jobs[i]);
            peaks.push(peak_mb(base));
            checker.observe(&jobs[i], &r);
        }
    }
    let peak = if workload.threads() > 1 {
        median(&peaks)
    } else {
        peaks.iter().copied().fold(0.0, f64::max)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
         \"info\": {{\"errors\": {}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        metrics_json(&[("peak_heap_mb", peak, "MB")]),
        json_strings(&checker.errors),
    );
    if checker.failed > 0 {
        std::process::exit(1);
    }
}
