//! Shared measurement harness for the paper-table reproduction.
//!
//! Every row of the paper's Tables 1–4 is regenerated by a function here;
//! the `paper_tables` binary prints them and the Criterion benches time
//! the same workloads. Times will not match a 1996 SPARCstation — what is
//! expected to reproduce is the *shape*: preprocessing dominating analysis,
//! totals below compilation time, small table space, and the relative
//! standing of the general-purpose engine against the special-purpose
//! comparators.

use std::time::{Duration, Instant};
use tablog_core::analyze_many;
use tablog_core::depthk::DepthKAnalyzer;
use tablog_core::direct::DirectAnalyzer;
use tablog_core::groundness::{compile_time, EntryPoint, GroundnessAnalyzer};
use tablog_core::strictness::StrictnessAnalyzer;
use tablog_domain::DomainKind;
use tablog_engine::{LoadMode, MetricsReport, Scheduling};
use tablog_suite::{depthk_benchmarks, fun_benchmarks, logic_benchmarks};
use tablog_syntax::parse_program;

/// One row of a paper table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub program: String,
    /// Source lines.
    pub lines: usize,
    /// Preprocessing time (read + transform + load).
    pub preprocess: Duration,
    /// Fixpoint evaluation time.
    pub analysis: Duration,
    /// Result extraction time.
    pub collection: Duration,
    /// Plain compilation time of the source program (no analysis).
    pub compile: Duration,
    /// Table space in bytes.
    pub table_bytes: usize,
    /// Per-predicate engine metrics when the workload ran profiled.
    pub metrics: Option<MetricsReport>,
    /// Process-heap cost of this row's analysis. `Some` only when the
    /// tracking allocator is installed (`paper_tables --features
    /// track-alloc`) *and* the suite ran sequentially — the counters are
    /// process-wide, so parallel rows would contaminate each other.
    pub heap: Option<tablog_alloc::HeapDelta>,
}

impl Row {
    /// Total analysis time.
    pub fn total(&self) -> Duration {
        self.preprocess + self.analysis + self.collection
    }

    /// The paper's "Compile time increase": total analysis time as a
    /// percentage of plain compilation time.
    pub fn compile_increase_pct(&self) -> f64 {
        if self.compile.is_zero() {
            return 0.0;
        }
        100.0 * self.total().as_secs_f64() / self.compile.as_secs_f64()
    }
}

/// Runs the Table 1 workload: Prop groundness, goal-directed from each
/// benchmark's entry point, dynamic loading, builtin `iff`.
///
/// # Panics
///
/// Panics if a benchmark fails to parse or analyze — the integration test
/// suite guards against that.
pub fn table1_rows() -> Vec<Row> {
    table1_rows_with(false)
}

/// [`table1_rows`] with optional per-predicate profiling.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table1_rows_with(profile: bool) -> Vec<Row> {
    table1_rows_jobs(profile, 1)
}

/// [`table1_rows_with`] on up to `jobs` worker threads, one isolated engine
/// session (and arena) per benchmark program. Row order is input order, so
/// output is identical to the sequential run.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table1_rows_jobs(profile: bool, jobs: usize) -> Vec<Row> {
    analyze_many(jobs, &logic_benchmarks(), |b| {
        let scope = heap_scope(jobs);
        let program = parse_program(b.source).expect("suite parses");
        let entry = EntryPoint::parse(b.entry).expect("suite entries parse");
        let mut an = GroundnessAnalyzer::new();
        an.profile = profile;
        let report = an
            .analyze_with_entries(&program, std::slice::from_ref(&entry))
            .expect("suite analyzes");
        let heap = scope.and_then(|s| s.measure());
        Row {
            program: b.name.to_owned(),
            lines: b.lines(),
            preprocess: report.timings.preprocess,
            analysis: report.timings.analysis,
            collection: report.timings.collection,
            compile: compile_time(b.source, LoadMode::Dynamic).expect("compiles"),
            table_bytes: report.table_bytes(),
            metrics: report.metrics,
            heap,
        }
    })
}

/// A heap-measurement scope for one benchmark row, or `None` when the run
/// is parallel (`jobs > 1` hands rows to worker threads, and the tracking
/// allocator's counters are process-wide — see `tablog_alloc`'s caveats).
/// With `jobs <= 1` the `analyze_many` driver runs every closure inline on
/// the calling thread, so consecutive scopes never overlap.
fn heap_scope(jobs: usize) -> Option<tablog_alloc::HeapScope> {
    (jobs <= 1).then(tablog_alloc::HeapScope::begin)
}

/// One comparison row of Table 2: total time on the tabled engine vs. the
/// hand-coded direct analyzer (the GAIA stand-in).
#[derive(Clone, Debug)]
pub struct VsRow {
    /// Benchmark name.
    pub program: String,
    /// Total time, declarative analysis on the tabled engine.
    pub tabled: Duration,
    /// Total time, special-purpose direct analyzer.
    pub direct: Duration,
}

/// Runs the Table 2 workload.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table2_rows() -> Vec<VsRow> {
    table2_rows_jobs(1)
}

/// [`table2_rows`] on up to `jobs` worker threads.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table2_rows_jobs(jobs: usize) -> Vec<VsRow> {
    analyze_many(jobs, &logic_benchmarks(), |b| {
        let program = parse_program(b.source).expect("suite parses");
        let entry = EntryPoint::parse(b.entry).expect("entries parse");
        let tabled = GroundnessAnalyzer::new()
            .analyze_with_entries(&program, std::slice::from_ref(&entry))
            .expect("tabled analyzes");
        let direct = DirectAnalyzer::new()
            .analyze_with_entries(&program, std::slice::from_ref(&entry))
            .expect("direct analyzes");
        VsRow {
            program: b.name.to_owned(),
            tabled: tabled.timings.total(),
            direct: direct.timings.total(),
        }
    })
}

/// Runs the Table 3 workload: strictness analysis of the functional suite.
/// The "compile" column is the frontend's parse + translate + load time
/// with no evaluation (the analog of the paper's comparison against plain
/// compilation).
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table3_rows() -> Vec<Row> {
    table3_rows_with(false)
}

/// [`table3_rows`] with optional per-predicate profiling.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table3_rows_with(profile: bool) -> Vec<Row> {
    table3_rows_jobs(profile, 1)
}

/// [`table3_rows_with`] on up to `jobs` worker threads.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table3_rows_jobs(profile: bool, jobs: usize) -> Vec<Row> {
    analyze_many(jobs, &fun_benchmarks(), |b| {
        let scope = heap_scope(jobs);
        let mut an = StrictnessAnalyzer::new();
        an.profile = profile;
        let report = an.analyze_source(b.source).expect("suite analyzes");
        // Compile proxy: parse + translate + load, no evaluation.
        let t = Instant::now();
        let prog = tablog_funlang::parse_fun_program(b.source).expect("parses");
        let rules = tablog_core::strictness::translate_program(&prog).expect("translates");
        let mut db = tablog_engine::Database::new(LoadMode::Dynamic);
        for r in &rules {
            db.assert_clause(r.head.clone(), r.body.clone())
                .expect("loads");
        }
        let compile = t.elapsed();
        Row {
            program: b.name.to_owned(),
            lines: b.lines(),
            preprocess: report.timings.preprocess,
            analysis: report.timings.analysis,
            collection: report.timings.collection,
            compile,
            table_bytes: report.table_bytes(),
            metrics: report.metrics,
            heap: scope.and_then(|s| s.measure()),
        }
    })
}

/// The truncation depth the Table 4 harness uses.
pub const TABLE4_K: usize = 1;

/// Runs the Table 4 workload: depth-k groundness (goal-directed, k = 1)
/// on the nine benchmarks the paper's Table 4 lists.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table4_rows() -> Vec<Row> {
    table4_rows_with(false)
}

/// [`table4_rows`] with optional per-predicate profiling; profiled rows
/// include the `calls_abstracted` / `answers_widened` truncation counts.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table4_rows_with(profile: bool) -> Vec<Row> {
    table4_rows_jobs(profile, 1)
}

/// [`table4_rows_with`] on up to `jobs` worker threads.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table4_rows_jobs(profile: bool, jobs: usize) -> Vec<Row> {
    analyze_many(jobs, &depthk_benchmarks(), |b| {
        let scope = heap_scope(jobs);
        let program = parse_program(b.source).expect("suite parses");
        let entry = EntryPoint::parse(b.entry).expect("entries parse");
        let mut an = DepthKAnalyzer::new(TABLE4_K);
        an.profile = profile;
        let report = an
            .analyze_with_entries(&program, std::slice::from_ref(&entry))
            .expect("depth-k analyzes");
        Row {
            program: b.name.to_owned(),
            lines: b.lines(),
            preprocess: report.timings.preprocess,
            analysis: report.timings.analysis,
            collection: report.timings.collection,
            compile: compile_time(b.source, LoadMode::Dynamic).expect("compiles"),
            table_bytes: report.table_bytes(),
            metrics: report.metrics,
            heap: scope.and_then(|s| s.measure()),
        }
    })
}

/// Per-strategy engine counters for one benchmark program: the same
/// groundness workload as Table 1, re-run under each worklist scheduling
/// strategy. Answer counts must agree across strategies (SLG answer sets
/// are order-independent); step counts show how the strategies differ.
#[derive(Clone, Debug)]
pub struct SchedRow {
    /// Benchmark name.
    pub program: String,
    /// Scheduler name (`depth_first` or `breadth_first`).
    pub strategy: &'static str,
    /// Engine steps (expansions + returns).
    pub steps: usize,
    /// Unique answers tabled.
    pub answers: usize,
    /// Duplicate answers rejected.
    pub duplicates: usize,
    /// Table space in bytes.
    pub table_bytes: usize,
}

/// Runs the Table 1 groundness workload under each scheduling strategy and
/// reports the engine counters side by side.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn scheduler_rows() -> Vec<SchedRow> {
    let mut rows = Vec::new();
    for sched in [Scheduling::DepthFirst, Scheduling::BreadthFirst] {
        for b in logic_benchmarks() {
            let program = parse_program(b.source).expect("suite parses");
            let entry = EntryPoint::parse(b.entry).expect("entries parse");
            let mut an = GroundnessAnalyzer::new();
            an.options.scheduling = sched;
            let report = an
                .analyze_with_entries(&program, std::slice::from_ref(&entry))
                .expect("suite analyzes");
            rows.push(SchedRow {
                program: b.name.to_owned(),
                strategy: sched.name(),
                steps: report.stats.steps,
                answers: report.stats.answers,
                duplicates: report.stats.duplicate_answers,
                table_bytes: report.stats.table_bytes,
            });
        }
    }
    rows
}

/// All four paper tables from one suite run.
#[derive(Clone, Debug)]
pub struct SuiteTables {
    /// Table 1 rows (groundness).
    pub t1: Vec<Row>,
    /// Table 2 rows (tabled vs. direct).
    pub t2: Vec<VsRow>,
    /// Table 3 rows (strictness).
    pub t3: Vec<Row>,
    /// Table 4 rows (depth-k).
    pub t4: Vec<Row>,
}

/// Runs the whole paper-table suite on up to `jobs` worker threads.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn run_suite(profile: bool, jobs: usize) -> SuiteTables {
    SuiteTables {
        t1: table1_rows_jobs(profile, jobs),
        t2: table2_rows_jobs(jobs),
        t3: table3_rows_jobs(profile, jobs),
        t4: table4_rows_jobs(profile, jobs),
    }
}

/// The deterministic fields of a suite run — program names, line counts and
/// table bytes, but no wall-clock times. Two runs of the same engine build
/// must produce equal fingerprints regardless of thread count; the parallel
/// driver's identity check compares exactly this.
pub fn fingerprint(tables: &SuiteTables) -> Vec<String> {
    let mut fp = Vec::new();
    for (name, rows) in [
        ("table1", &tables.t1),
        ("table3", &tables.t3),
        ("table4", &tables.t4),
    ] {
        for r in rows {
            fp.push(format!(
                "{name}/{}/{}/{}",
                r.program, r.lines, r.table_bytes
            ));
        }
    }
    for r in &tables.t2 {
        fp.push(format!("table2/{}", r.program));
    }
    fp
}

/// Wall-clock comparison of the suite run sequentially vs. on `jobs`
/// threads, plus the determinism check between the two runs.
#[derive(Clone, Debug)]
pub struct ParallelMeasurement {
    /// Worker threads used in the parallel run.
    pub jobs: usize,
    /// Hardware threads available to this process — the ceiling on any
    /// real speedup. On a single-core host the identity check is the
    /// meaningful assertion and the speedup hovers around 1.0.
    pub cpus: usize,
    /// Wall time of the sequential (jobs = 1) suite run.
    pub sequential: Duration,
    /// Wall time of the parallel suite run.
    pub parallel: Duration,
    /// Whether both runs produced identical deterministic results.
    pub identical: bool,
}

impl ParallelMeasurement {
    /// Sequential / parallel wall-time ratio.
    pub fn speedup(&self) -> f64 {
        if self.parallel.is_zero() {
            return 0.0;
        }
        self.sequential.as_secs_f64() / self.parallel.as_secs_f64()
    }
}

/// Times the full suite sequentially and then on `jobs` threads, returning
/// both wall times, the speedup, and whether the deterministic fields of
/// the two runs were identical. The parallel tables are returned so the
/// caller can render them without a third run.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn measure_parallel(jobs: usize) -> (ParallelMeasurement, SuiteTables) {
    let t = Instant::now();
    let seq = run_suite(false, 1);
    let sequential = t.elapsed();
    let t = Instant::now();
    let par = run_suite(false, jobs);
    let parallel = t.elapsed();
    let identical = fingerprint(&seq) == fingerprint(&par);
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (
        ParallelMeasurement {
            jobs,
            cpus,
            sequential,
            parallel,
            identical,
        },
        par,
    )
}

/// Order-independent fingerprint of a groundness report's answer sets:
/// per predicate, the sorted success rows, sorted call patterns, and the
/// per-argument meet, plus the engine's unique-answer and subgoal counts.
/// Two schedulers computed the same fixpoint iff these are equal.
fn groundness_fingerprint(r: &tablog_core::groundness::GroundnessReport) -> Vec<String> {
    let rows = |rows: &[Vec<Option<bool>>]| {
        let mut v: Vec<String> = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|b| match b {
                        Some(true) => 'g',
                        Some(false) => 'n',
                        None => '?',
                    })
                    .collect::<String>()
            })
            .collect();
        v.sort();
        v.join("|")
    };
    let mut fp: Vec<String> = r
        .predicates()
        .map(|p| {
            format!(
                "{}/{} success[{}] calls[{}] meet{:?}",
                p.name,
                p.arity,
                rows(&p.success_rows),
                rows(&p.call_patterns),
                p.definitely_ground
            )
        })
        .collect();
    fp.push(format!(
        "answers={} subgoals={}",
        r.stats.answers, r.stats.subgoals
    ));
    fp
}

/// One Prop-domain comparison row (PR 9): the Table 1 groundness query of
/// one benchmark under one domain backend, on both routes (tabled engine
/// and direct analyzer). The `table` rows re-run the default configuration;
/// the `bdd` rows run the same analyses on hash-consed BDDs and carry the
/// answer-set identity verdict against the table backend — `false` means
/// the backends diverged, which is a domain-layer bug every consumer must
/// hard-fail on.
#[derive(Clone, Debug)]
pub struct DomainRow {
    /// Unique row key for [`bench_diff`]: `benchmark[backend]`, e.g.
    /// `qsort[bdd]` (plain benchmark names would collide across backends).
    pub program: String,
    /// Backend that produced this row.
    pub domain: DomainKind,
    /// Total tabled-engine groundness time under this backend.
    pub tabled: Duration,
    /// Total direct-analyzer time under this backend.
    pub direct: Duration,
    /// Table space in bytes, including the backend's own memory (BDD
    /// manager arena and memo tables).
    pub table_bytes: usize,
    /// BDD nodes allocated by the tabled run's manager; 0 under `table`.
    pub bdd_nodes: usize,
    /// Whether this backend's results (tabled truth tables, call
    /// patterns, and direct-analyzer props) match the table backend's.
    pub identical: bool,
}

/// Runs the Table 1 groundness workload under every Prop-domain backend —
/// tabled engine and direct analyzer both — and cross-checks each backend's
/// results against the enumerative table baseline. See [`DomainRow`].
///
/// # Panics
///
/// As [`table1_rows`].
pub fn pos_domain_rows() -> Vec<DomainRow> {
    let mut rows = Vec::new();
    for b in logic_benchmarks() {
        let program = parse_program(b.source).expect("suite parses");
        let entry = EntryPoint::parse(b.entry).expect("entries parse");
        let tabled = |domain: DomainKind| {
            let mut an = GroundnessAnalyzer::new();
            an.options.domain = domain;
            an.analyze_with_entries(&program, std::slice::from_ref(&entry))
                .expect("suite analyzes")
        };
        let direct = |domain: DomainKind| {
            let mut an = DirectAnalyzer::new();
            an.domain = domain;
            an.analyze_with_entries(&program, std::slice::from_ref(&entry))
                .expect("direct analyzes")
        };
        let base = tabled(DomainKind::Table);
        let base_fp = groundness_fingerprint(&base);
        let base_direct = direct(DomainKind::Table);
        let direct_fp = |r: &tablog_core::direct::DirectReport| -> Vec<String> {
            r.predicates()
                .map(|p| {
                    format!(
                        "{}/{} rows{:?} meet{:?}",
                        p.name,
                        p.arity,
                        p.prop.rows(),
                        p.definitely_ground
                    )
                })
                .collect()
        };
        let base_direct_fp = direct_fp(&base_direct);
        for domain in DomainKind::ALL {
            let (t, d, identical) = if domain == DomainKind::Table {
                (base.clone(), base_direct.clone(), true)
            } else {
                let t = tabled(domain);
                let d = direct(domain);
                let identical =
                    groundness_fingerprint(&t) == base_fp && direct_fp(&d) == base_direct_fp;
                (t, d, identical)
            };
            rows.push(DomainRow {
                program: format!("{}[{}]", b.name, domain.name()),
                domain,
                tabled: t.timings.total(),
                direct: d.timings.total(),
                table_bytes: t.table_bytes(),
                bdd_nodes: t.bdd_nodes,
                identical,
            });
        }
    }
    rows
}

/// Formats a duration in fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

fn row_json(r: &Row) -> String {
    let mut doc = format!(
        "{{\"program\":\"{}\",\"lines\":{},\"preprocess_us\":{},\"analysis_us\":{},\
         \"collection_us\":{},\"total_us\":{},\"compile_us\":{},\"table_bytes\":{}",
        tablog_trace::json::escape(&r.program),
        r.lines,
        r.preprocess.as_micros(),
        r.analysis.as_micros(),
        r.collection.as_micros(),
        r.total().as_micros(),
        r.compile.as_micros(),
        r.table_bytes
    );
    if let Some(h) = &r.heap {
        doc.push_str(&format!(
            ",\"peak_heap_bytes\":{},\"heap_allocated_bytes\":{}",
            h.peak_bytes, h.allocated_bytes
        ));
    }
    doc.push('}');
    doc
}

fn vs_row_json(r: &VsRow) -> String {
    format!(
        "{{\"program\":\"{}\",\"tabled_us\":{},\"direct_us\":{}}}",
        tablog_trace::json::escape(&r.program),
        r.tabled.as_micros(),
        r.direct.as_micros()
    )
}

/// Renders the whole paper-table suite as one JSON document:
/// `{"table1": [row…], "table2": [row…], "table3": [row…], "table4":
/// [row…]}` with durations in integer microseconds. This is the format the
/// CI bench job archives (`BENCH_PR2.json`) and feeds back through
/// [`check_against_baseline`].
pub fn suite_json(t1: &[Row], t2: &[VsRow], t3: &[Row], t4: &[Row]) -> String {
    let join = |rows: Vec<String>| rows.join(",");
    format!(
        "{{\"table1\":[{}],\"table2\":[{}],\"table3\":[{}],\"table4\":[{}]}}",
        join(t1.iter().map(row_json).collect()),
        join(t2.iter().map(vs_row_json).collect()),
        join(t3.iter().map(row_json).collect()),
        join(t4.iter().map(row_json).collect())
    )
}

fn sched_row_json(r: &SchedRow) -> String {
    format!(
        "{{\"program\":\"{}\",\"strategy\":\"{}\",\"steps\":{},\"answers\":{},\
         \"duplicates\":{},\"table_bytes\":{}}}",
        tablog_trace::json::escape(&r.program),
        r.strategy,
        r.steps,
        r.answers,
        r.duplicates,
        r.table_bytes
    )
}

/// [`suite_json`] extended with the PR 4 measurements: a `"schedulers"`
/// array of per-strategy engine counters and a `"parallel"` object with the
/// sequential vs. parallel wall times and speedup. The four `"tableN"` keys
/// are unchanged, so [`check_against_baseline`] (which only inspects those)
/// keeps working against the existing baseline.
pub fn pr4_json(
    tables: &SuiteTables,
    sched: &[SchedRow],
    parallel: Option<&ParallelMeasurement>,
) -> String {
    let suite = suite_json(&tables.t1, &tables.t2, &tables.t3, &tables.t4);
    let scheds: Vec<String> = sched.iter().map(sched_row_json).collect();
    let par = match parallel {
        Some(p) => format!(
            ",\"parallel\":{{\"jobs\":{},\"cpus\":{},\"sequential_us\":{},\"parallel_us\":{},\
             \"speedup\":{:.3},\"identical\":{}}}",
            p.jobs,
            p.cpus,
            p.sequential.as_micros(),
            p.parallel.as_micros(),
            p.speedup(),
            p.identical
        ),
        None => String::new(),
    };
    format!(
        "{},\"schedulers\":[{}]{}}}",
        &suite[..suite.len() - 1],
        scheds.join(","),
        par
    )
}

/// Host metadata stamped into bench documents so a regression gate can
/// tell an engine regression from a hardware change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostMeta {
    /// Logical CPUs available to the process.
    pub num_cpus: usize,
    /// `"debug"` or `"release"`, from the build profile of this crate.
    pub profile: &'static str,
    /// Target OS (`std::env::consts::OS`).
    pub os: &'static str,
    /// Target architecture (`std::env::consts::ARCH`).
    pub arch: &'static str,
    /// Abbreviated git revision of the working tree, or `"unknown"` when
    /// git (or the repository) is unavailable.
    pub git_rev: String,
}

/// Collects the current host's metadata.
pub fn host_meta() -> HostMeta {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    HostMeta {
        num_cpus: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        os: std::env::consts::OS,
        arch: std::env::consts::ARCH,
        git_rev,
    }
}

fn host_json(h: &HostMeta) -> String {
    format!(
        "{{\"num_cpus\":{},\"profile\":\"{}\",\"os\":\"{}\",\"arch\":\"{}\",\"git_rev\":\"{}\"}}",
        h.num_cpus,
        h.profile,
        h.os,
        h.arch,
        tablog_trace::json::escape(&h.git_rev)
    )
}

/// [`pr4_json`] extended with a `"host"` object ([`HostMeta`]): cpu count,
/// build profile, OS/arch, and git revision. [`bench_diff`] reads the cpu
/// count to demote time regressions to warnings when the two documents
/// come from different machines. The earlier keys are unchanged, so both
/// [`check_against_baseline`] and PR 4 baselines keep working.
pub fn pr5_json(
    tables: &SuiteTables,
    sched: &[SchedRow],
    parallel: Option<&ParallelMeasurement>,
    host: &HostMeta,
) -> String {
    let doc = pr4_json(tables, sched, parallel);
    format!("{},\"host\":{}}}", &doc[..doc.len() - 1], host_json(host))
}

fn domain_row_json(r: &DomainRow) -> String {
    format!(
        "{{\"program\":\"{}\",\"domain\":\"{}\",\"time_us\":{},\"direct_us\":{},\
         \"table_bytes\":{},\"bdd_nodes\":{},\"identical\":{}}}",
        tablog_trace::json::escape(&r.program),
        r.domain.name(),
        r.tabled.as_micros(),
        r.direct.as_micros(),
        r.table_bytes,
        r.bdd_nodes,
        r.identical
    )
}

/// [`pr5_json`] extended with the Prop-domain comparison: a `"pos_domain"` array
/// of per-query [`DomainRow`]s — the Table 1/2 groundness workloads re-run
/// under each Prop-domain backend, with table space, BDD node counts, and
/// the cross-backend identity verdict. The earlier keys are unchanged, so
/// every older baseline still round-trips through [`bench_diff`]; the new
/// rows' `time_us`/`direct_us` get the same cross-host demotion as the
/// other time columns while `table_bytes` stays a hard gate.
pub fn pr9_json(
    tables: &SuiteTables,
    sched: &[SchedRow],
    parallel: Option<&ParallelMeasurement>,
    host: &HostMeta,
    domains: &[DomainRow],
) -> String {
    let doc = pr5_json(tables, sched, parallel, host);
    let rows: Vec<String> = domains.iter().map(domain_row_json).collect();
    format!(
        "{},\"pos_domain\":[{}]}}",
        &doc[..doc.len() - 1],
        rows.join(",")
    )
}

/// The verdict of [`bench_diff`]: hard failures (the gate should exit
/// nonzero) and advisory warnings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchDiff {
    /// Regressions beyond threshold; a nonempty list fails the gate.
    pub failures: Vec<String>,
    /// Advisory findings (new rows, host mismatches, demoted timings).
    pub warnings: Vec<String>,
}

impl BenchDiff {
    /// `true` when the gate should fail.
    pub fn is_regression(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// Compares two bench documents (`OLD` baseline vs. `NEW` candidate) and
/// gates on regression thresholds, both in percent:
///
/// * `table_bytes` growth beyond `max_bytes_regress_pct` is a **failure**
///   — table space is deterministic, so growth is a real engine change;
/// * wall-clock (`total_us`, `tabled_us`, `direct_us`, and the
///   `pos_domain` rows' `time_us`) growth beyond `max_time_regress_pct`
///   *plus an absolute 500µs slack* (sub-millisecond rows are pure noise)
///   is a **failure**, demoted to a warning when the two documents report
///   different host cpu counts (different machine — timing comparisons are
///   meaningless);
/// * `peak_heap_bytes` growth beyond `max_heap_regress_pct` *plus an
///   absolute 64 KiB slack* (allocator bookkeeping varies a little run to
///   run) is a **failure**, demoted across hosts like the time columns
///   (different libc allocators size identical workloads differently); a
///   baseline row carrying heap while the new row lacks it warns (the
///   candidate was likely built without `track-alloc`);
/// * a row present in `OLD` but missing from `NEW` is a **failure** (the
///   benchmark silently disappeared); rows only in `NEW` warn.
pub fn bench_diff(
    old: &tablog_trace::json::JsonValue,
    new: &tablog_trace::json::JsonValue,
    max_time_regress_pct: f64,
    max_bytes_regress_pct: f64,
    max_heap_regress_pct: f64,
) -> BenchDiff {
    use tablog_trace::json::JsonValue;
    const TIME_SLACK_US: f64 = 500.0;
    const HEAP_SLACK_BYTES: f64 = 64.0 * 1024.0;
    let mut diff = BenchDiff::default();
    let cpus = |doc: &JsonValue| {
        doc.get("host")
            .and_then(|h| h.get("num_cpus"))
            .and_then(JsonValue::as_f64)
    };
    let (old_cpus, new_cpus) = (cpus(old), cpus(new));
    let hosts_differ = match (old_cpus, new_cpus) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    };
    if hosts_differ {
        diff.warnings.push(format!(
            "host cpu counts differ (old {}, new {}): time regressions demoted to warnings",
            old_cpus.unwrap_or(0.0),
            new_cpus.unwrap_or(0.0)
        ));
    }
    let find = |rows: &[JsonValue], name: &str| -> Option<JsonValue> {
        rows.iter()
            .find(|r| r.get("program").and_then(JsonValue::as_str) == Some(name))
            .cloned()
    };
    for table in ["table1", "table2", "table3", "table4", "pos_domain"] {
        let old_rows = old
            .get(table)
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
            .to_vec();
        let new_rows = new
            .get(table)
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
            .to_vec();
        for old_row in &old_rows {
            let name = old_row
                .get("program")
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
                .to_owned();
            let Some(new_row) = find(&new_rows, &name) else {
                diff.failures
                    .push(format!("{table}/{name}: row missing from NEW"));
                continue;
            };
            let metric = |row: &JsonValue, key: &str| row.get(key).and_then(JsonValue::as_f64);
            if let (Some(o), Some(n)) = (
                metric(old_row, "table_bytes"),
                metric(&new_row, "table_bytes"),
            ) {
                if o > 0.0 && n > o * (1.0 + max_bytes_regress_pct / 100.0) {
                    diff.failures.push(format!(
                        "{table}/{name}: table_bytes {n} exceeds baseline {o} by >{max_bytes_regress_pct}%"
                    ));
                }
            }
            for key in ["total_us", "tabled_us", "direct_us", "time_us"] {
                if let (Some(o), Some(n)) = (metric(old_row, key), metric(&new_row, key)) {
                    if o > 0.0 && n > o * (1.0 + max_time_regress_pct / 100.0) + TIME_SLACK_US {
                        let msg = format!(
                            "{table}/{name}: {key} {n} exceeds baseline {o} by >{max_time_regress_pct}% (+{TIME_SLACK_US}us slack)"
                        );
                        if hosts_differ {
                            diff.warnings.push(msg);
                        } else {
                            diff.failures.push(msg);
                        }
                    }
                }
            }
            match (
                metric(old_row, "peak_heap_bytes"),
                metric(&new_row, "peak_heap_bytes"),
            ) {
                (Some(o), Some(n))
                    if o > 0.0
                        && n > o * (1.0 + max_heap_regress_pct / 100.0) + HEAP_SLACK_BYTES =>
                {
                    let msg = format!(
                        "{table}/{name}: peak_heap_bytes {n} exceeds baseline {o} \
                         by >{max_heap_regress_pct}% (+{HEAP_SLACK_BYTES}B slack)"
                    );
                    if hosts_differ {
                        diff.warnings.push(msg);
                    } else {
                        diff.failures.push(msg);
                    }
                }
                (Some(_), None) => diff.warnings.push(format!(
                    "{table}/{name}: baseline has peak_heap_bytes but NEW does not \
                     (candidate built without track-alloc?)"
                )),
                _ => {}
            }
        }
        for new_row in &new_rows {
            let name = new_row
                .get("program")
                .and_then(JsonValue::as_str)
                .unwrap_or("?");
            if find(&old_rows, name).is_none() {
                diff.warnings
                    .push(format!("{table}/{name}: new row not in baseline"));
            }
        }
    }
    diff
}

/// Compares a current [`suite_json`] document against a committed baseline.
///
/// Table-space regressions beyond `tolerance` (e.g. `0.20` for 20%) are
/// hard **failures** — table bytes are deterministic, so growth means the
/// engine genuinely started retaining more. Wall-clock regressions beyond
/// the same tolerance are **warnings** only (CI timing is noisy). Rows
/// present in only one document produce warnings.
///
/// Returns `(failures, warnings)` as human-readable strings.
pub fn check_against_baseline(
    current: &tablog_trace::json::JsonValue,
    baseline: &tablog_trace::json::JsonValue,
    tolerance: f64,
) -> (Vec<String>, Vec<String>) {
    use tablog_trace::json::JsonValue;
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    let find = |rows: &[JsonValue], name: &str| -> Option<JsonValue> {
        rows.iter()
            .find(|r| r.get("program").and_then(JsonValue::as_str) == Some(name))
            .cloned()
    };
    for table in ["table1", "table2", "table3", "table4"] {
        let cur_rows = current
            .get(table)
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
            .to_vec();
        let base_rows = baseline
            .get(table)
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
            .to_vec();
        for cur in &cur_rows {
            let name = cur
                .get("program")
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
                .to_owned();
            let Some(base) = find(&base_rows, &name) else {
                warnings.push(format!("{table}/{name}: no baseline row"));
                continue;
            };
            let metric = |row: &JsonValue, key: &str| row.get(key).and_then(JsonValue::as_f64);
            // Deterministic metric: hard-fail on regression.
            if let (Some(c), Some(b)) = (metric(cur, "table_bytes"), metric(&base, "table_bytes")) {
                if b > 0.0 && c > b * (1.0 + tolerance) {
                    failures.push(format!(
                        "{table}/{name}: table_bytes {c} exceeds baseline {b} by >{:.0}%",
                        tolerance * 100.0
                    ));
                }
            }
            // Noisy metrics: warn only.
            for key in ["total_us", "tabled_us", "direct_us"] {
                if let (Some(c), Some(b)) = (metric(cur, key), metric(&base, key)) {
                    if b > 0.0 && c > b * (1.0 + tolerance) {
                        warnings.push(format!(
                            "{table}/{name}: {key} {c} exceeds baseline {b} by >{:.0}%",
                            tolerance * 100.0
                        ));
                    }
                }
            }
        }
        for base in &base_rows {
            let name = base
                .get("program")
                .and_then(JsonValue::as_str)
                .unwrap_or("?");
            if find(&cur_rows, name).is_none() {
                warnings.push(format!("{table}/{name}: baseline row missing from run"));
            }
        }
    }
    (failures, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_twelve_rows_and_sane_shape() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.table_bytes > 0, "{}", r.program);
            assert!(r.total() > Duration::ZERO, "{}", r.program);
        }
    }

    #[test]
    fn table2_has_both_engines() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(
                r.tabled > Duration::ZERO && r.direct > Duration::ZERO,
                "{}",
                r.program
            );
        }
    }

    #[test]
    fn table3_has_ten_rows() {
        assert_eq!(table3_rows().len(), 10);
    }

    #[test]
    fn table4_has_nine_rows() {
        assert_eq!(table4_rows().len(), 9);
    }

    #[test]
    fn parallel_suite_is_identical_to_sequential() {
        let (m, tables) = measure_parallel(4);
        assert!(m.identical, "parallel run diverged from sequential");
        assert_eq!(m.jobs, 4);
        assert_eq!(tables.t1.len(), 12);
        assert!(m.sequential > Duration::ZERO && m.parallel > Duration::ZERO);
    }

    #[test]
    fn scheduler_strategies_agree_on_answer_counts() {
        let rows = scheduler_rows();
        assert_eq!(rows.len(), 24, "12 benchmarks x 2 strategies");
        let df: Vec<_> = rows
            .iter()
            .filter(|r| r.strategy == "depth_first")
            .collect();
        let bf: Vec<_> = rows
            .iter()
            .filter(|r| r.strategy == "breadth_first")
            .collect();
        assert_eq!(df.len(), bf.len());
        for (d, b) in df.iter().zip(bf.iter()) {
            assert_eq!(d.program, b.program);
            assert_eq!(
                d.answers, b.answers,
                "{}: answer sets must agree",
                d.program
            );
            assert!(d.steps > 0 && b.steps > 0, "{}", d.program);
        }
    }

    #[test]
    fn pr4_json_extends_suite_json_with_valid_keys() {
        let tables = run_suite(false, 2);
        let sched = scheduler_rows();
        let pm = ParallelMeasurement {
            jobs: 2,
            cpus: 1,
            sequential: Duration::from_micros(100),
            parallel: Duration::from_micros(50),
            identical: true,
        };
        let doc = pr4_json(&tables, &sched, Some(&pm));
        let v = tablog_trace::json::parse(&doc).expect("pr4_json is valid JSON");
        for key in [
            "table1",
            "table2",
            "table3",
            "table4",
            "schedulers",
            "parallel",
        ] {
            assert!(v.get(key).is_some(), "missing key {key}");
        }
        use tablog_trace::json::JsonValue;
        let par = v.get("parallel").unwrap();
        assert_eq!(par.get("jobs").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(
            v.get("schedulers")
                .and_then(JsonValue::as_arr)
                .map(<[JsonValue]>::len),
            Some(24)
        );
        // The shared prefix still parses as the baseline-checkable document.
        let plain = suite_json(&tables.t1, &tables.t2, &tables.t3, &tables.t4);
        let (failures, _warnings) = check_against_baseline(
            &tablog_trace::json::parse(&doc).unwrap(),
            &tablog_trace::json::parse(&plain).unwrap(),
            0.0,
        );
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn profiled_rows_carry_consistent_metrics() {
        for r in table1_rows_with(true) {
            let m = r.metrics.as_ref().expect("profiled row has metrics");
            assert_eq!(
                m.totals().table_bytes,
                r.table_bytes as u64,
                "{}",
                r.program
            );
        }
        assert!(table1_rows_with(false).iter().all(|r| r.metrics.is_none()));
    }

    #[test]
    fn host_meta_reports_this_build() {
        let h = host_meta();
        assert!(h.num_cpus >= 1);
        assert_eq!(
            h.profile,
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
        );
        assert!(!h.os.is_empty() && !h.arch.is_empty());
        let json = host_json(&h);
        let v = tablog_trace::json::parse(&json).expect("host_json is valid JSON");
        use tablog_trace::json::JsonValue;
        assert_eq!(
            v.get("num_cpus").and_then(JsonValue::as_f64),
            Some(h.num_cpus as f64)
        );
        assert!(v.get("git_rev").and_then(JsonValue::as_str).is_some());
    }

    fn synthetic_doc(
        total_us: u64,
        table_bytes: u64,
        num_cpus: usize,
    ) -> tablog_trace::json::JsonValue {
        synthetic_doc_heap(total_us, table_bytes, num_cpus, None)
    }

    fn synthetic_doc_heap(
        total_us: u64,
        table_bytes: u64,
        num_cpus: usize,
        peak_heap: Option<u64>,
    ) -> tablog_trace::json::JsonValue {
        let heap = match peak_heap {
            Some(p) => format!(
                ",\"peak_heap_bytes\":{p},\"heap_allocated_bytes\":{}",
                p * 4
            ),
            None => String::new(),
        };
        let doc = format!(
            "{{\"table1\":[{{\"program\":\"fig1\",\"total_us\":{total_us},\
             \"table_bytes\":{table_bytes}{heap}}}],\
             \"table2\":[{{\"program\":\"fig1\",\"tabled_us\":{total_us},\"direct_us\":10}}],\
             \"table3\":[],\"table4\":[],\
             \"host\":{{\"num_cpus\":{num_cpus},\"profile\":\"release\",\
             \"os\":\"linux\",\"arch\":\"x86_64\",\"git_rev\":\"abc\"}}}}"
        );
        tablog_trace::json::parse(&doc).unwrap()
    }

    #[test]
    fn bench_diff_fails_on_synthetic_regression() {
        let old = synthetic_doc(10_000, 1_000, 4);
        let new = synthetic_doc(20_000, 1_200, 4);
        let diff = bench_diff(&old, &new, 25.0, 5.0, 5.0);
        assert!(diff.is_regression(), "{diff:?}");
        assert!(
            diff.failures.iter().any(|f| f.contains("table_bytes")),
            "{diff:?}"
        );
        assert!(
            diff.failures.iter().any(|f| f.contains("total_us")),
            "{diff:?}"
        );
        assert!(
            diff.failures.iter().any(|f| f.contains("tabled_us")),
            "{diff:?}"
        );
    }

    #[test]
    fn bench_diff_passes_within_thresholds() {
        let old = synthetic_doc(10_000, 1_000, 4);
        let new = synthetic_doc(11_000, 1_020, 4);
        let diff = bench_diff(&old, &new, 25.0, 5.0, 5.0);
        assert!(!diff.is_regression(), "{diff:?}");
        assert!(diff.warnings.is_empty(), "{diff:?}");
    }

    #[test]
    fn bench_diff_time_slack_absorbs_submillisecond_noise() {
        // 200us -> 600us is a 200% regression but inside the 500us slack.
        let old = synthetic_doc(200, 1_000, 4);
        let new = synthetic_doc(600, 1_000, 4);
        let diff = bench_diff(&old, &new, 25.0, 5.0, 5.0);
        assert!(!diff.is_regression(), "{diff:?}");
    }

    #[test]
    fn bench_diff_demotes_time_failures_across_hosts() {
        let old = synthetic_doc(10_000, 1_000, 4);
        let new = synthetic_doc(50_000, 1_000, 16);
        let diff = bench_diff(&old, &new, 25.0, 5.0, 5.0);
        assert!(!diff.is_regression(), "{diff:?}");
        assert!(
            diff.warnings
                .iter()
                .any(|w| w.contains("cpu counts differ")),
            "{diff:?}"
        );
        assert!(
            diff.warnings.iter().any(|w| w.contains("total_us")),
            "{diff:?}"
        );
        // Bytes are host-independent: a bytes regression still fails.
        let bloated = synthetic_doc(10_000, 2_000, 16);
        assert!(bench_diff(&old, &bloated, 25.0, 5.0, 5.0).is_regression());
    }

    #[test]
    fn bench_diff_fails_on_synthetic_peak_heap_regression() {
        // 10 MiB -> 12 MiB is +20%, past the 5% threshold and far past the
        // 64 KiB slack: a same-host heap regression hard-fails.
        let old = synthetic_doc_heap(10_000, 1_000, 4, Some(10 << 20));
        let new = synthetic_doc_heap(10_000, 1_000, 4, Some(12 << 20));
        let diff = bench_diff(&old, &new, 25.0, 5.0, 5.0);
        assert!(diff.is_regression(), "{diff:?}");
        assert!(
            diff.failures.iter().any(|f| f.contains("peak_heap_bytes")),
            "{diff:?}"
        );
        // Across hosts the same growth demotes to a warning (allocator and
        // libc differences), exactly like the time columns.
        let other_host = synthetic_doc_heap(10_000, 1_000, 16, Some(12 << 20));
        let diff = bench_diff(&old, &other_host, 25.0, 5.0, 5.0);
        assert!(!diff.is_regression(), "{diff:?}");
        assert!(
            diff.warnings.iter().any(|w| w.contains("peak_heap_bytes")),
            "{diff:?}"
        );
    }

    #[test]
    fn bench_diff_heap_slack_absorbs_small_absolute_growth() {
        // 100 KiB -> 160 KiB is +60% but inside the 64 KiB absolute slack:
        // tiny rows wobble with allocator bookkeeping, not engine changes.
        let old = synthetic_doc_heap(10_000, 1_000, 4, Some(100 * 1024));
        let new = synthetic_doc_heap(10_000, 1_000, 4, Some(160 * 1024));
        let diff = bench_diff(&old, &new, 25.0, 5.0, 5.0);
        assert!(!diff.is_regression(), "{diff:?}");
    }

    #[test]
    fn bench_diff_warns_when_heap_column_disappears() {
        let old = synthetic_doc_heap(10_000, 1_000, 4, Some(10 << 20));
        let new = synthetic_doc(10_000, 1_000, 4);
        let diff = bench_diff(&old, &new, 25.0, 5.0, 5.0);
        assert!(!diff.is_regression(), "{diff:?}");
        assert!(
            diff.warnings
                .iter()
                .any(|w| w.contains("without track-alloc")),
            "{diff:?}"
        );
    }

    #[test]
    fn row_json_carries_heap_columns_only_when_measured() {
        let mut row = table1_rows()[0].clone();
        row.heap = Some(tablog_alloc::HeapDelta {
            allocated_bytes: 4096,
            allocations: 7,
            peak_bytes: 1 << 20,
        });
        let v = tablog_trace::json::parse(&row_json(&row)).expect("row parses");
        use tablog_trace::json::JsonValue;
        assert_eq!(
            v.get("peak_heap_bytes").and_then(JsonValue::as_f64),
            Some((1 << 20) as f64)
        );
        assert_eq!(
            v.get("heap_allocated_bytes").and_then(JsonValue::as_f64),
            Some(4096.0)
        );
        row.heap = None;
        let v = tablog_trace::json::parse(&row_json(&row)).expect("row parses");
        assert!(v.get("peak_heap_bytes").is_none());
    }

    #[test]
    fn bench_diff_flags_missing_and_new_rows() {
        let old = synthetic_doc(10_000, 1_000, 4);
        let empty =
            tablog_trace::json::parse("{\"table1\":[],\"table2\":[],\"table3\":[],\"table4\":[]}")
                .unwrap();
        let diff = bench_diff(&old, &empty, 25.0, 5.0, 5.0);
        assert!(diff.is_regression(), "{diff:?}");
        assert!(
            diff.failures.iter().any(|f| f.contains("missing from NEW")),
            "{diff:?}"
        );
        let diff = bench_diff(&empty, &old, 25.0, 5.0, 5.0);
        assert!(!diff.is_regression(), "{diff:?}");
        assert!(
            diff.warnings.iter().any(|w| w.contains("new row")),
            "{diff:?}"
        );
    }

    #[test]
    fn pos_domain_rows_agree_across_backends() {
        let rows = pos_domain_rows();
        assert_eq!(rows.len(), 24, "12 benchmarks x 2 backends");
        for r in &rows {
            assert!(r.identical, "{}: domain backends diverged", r.program);
            assert!(
                r.tabled > Duration::ZERO && r.direct > Duration::ZERO,
                "{}",
                r.program
            );
            assert!(r.table_bytes > 0, "{}", r.program);
            match r.domain {
                DomainKind::Table => {
                    assert!(r.program.ends_with("[table]"), "{}", r.program);
                    assert_eq!(r.bdd_nodes, 0, "{}", r.program);
                }
                DomainKind::Bdd => {
                    assert!(r.program.ends_with("[bdd]"), "{}", r.program);
                    assert!(r.bdd_nodes > 0, "{}", r.program);
                }
            }
        }
    }

    #[test]
    fn pr9_json_extends_pr5_with_pos_domain() {
        let tables = run_suite(false, 2);
        let sched = scheduler_rows();
        let host = host_meta();
        let domains = vec![
            DomainRow {
                program: "fig1[table]".to_owned(),
                domain: DomainKind::Table,
                tabled: Duration::from_micros(120),
                direct: Duration::from_micros(40),
                table_bytes: 1_000,
                bdd_nodes: 0,
                identical: true,
            },
            DomainRow {
                program: "fig1[bdd]".to_owned(),
                domain: DomainKind::Bdd,
                tabled: Duration::from_micros(150),
                direct: Duration::from_micros(60),
                table_bytes: 1_400,
                bdd_nodes: 23,
                identical: true,
            },
        ];
        let doc = pr9_json(&tables, &sched, None, &host, &domains);
        let v = tablog_trace::json::parse(&doc).expect("pr9_json is valid JSON");
        for key in [
            "table1",
            "table2",
            "table3",
            "table4",
            "schedulers",
            "host",
            "pos_domain",
        ] {
            assert!(v.get(key).is_some(), "missing key {key}");
        }
        use tablog_trace::json::JsonValue;
        let rows = v.get("pos_domain").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        for (row, want) in rows.iter().zip(["table", "bdd"]) {
            assert_eq!(row.get("domain").and_then(JsonValue::as_str), Some(want));
            for key in [
                "program",
                "time_us",
                "direct_us",
                "table_bytes",
                "bdd_nodes",
                "identical",
            ] {
                assert!(row.get(key).is_some(), "pos_domain row missing {key}");
            }
        }
        // A document compared with itself never regresses.
        let diff = bench_diff(&v, &v, 25.0, 5.0, 5.0);
        assert!(!diff.is_regression(), "{diff:?}");
    }

    fn synthetic_domain_doc(
        time_us: u64,
        table_bytes: u64,
        num_cpus: usize,
    ) -> tablog_trace::json::JsonValue {
        let doc = format!(
            "{{\"table1\":[],\"table2\":[],\"table3\":[],\"table4\":[],\
             \"pos_domain\":[{{\"program\":\"qsort[bdd]\",\"domain\":\"bdd\",\
             \"time_us\":{time_us},\"direct_us\":100,\"table_bytes\":{table_bytes},\
             \"bdd_nodes\":57,\"identical\":true}}],\
             \"host\":{{\"num_cpus\":{num_cpus},\"profile\":\"release\",\
             \"os\":\"linux\",\"arch\":\"x86_64\",\"git_rev\":\"abc\"}}}}"
        );
        tablog_trace::json::parse(&doc).unwrap()
    }

    #[test]
    fn bench_diff_gates_pos_domain_rows() {
        // Same host, 10ms -> 50ms under the bdd backend: a hard failure.
        let old = synthetic_domain_doc(10_000, 1_000, 4);
        let slow = synthetic_domain_doc(50_000, 1_000, 4);
        let diff = bench_diff(&old, &slow, 25.0, 5.0, 5.0);
        assert!(diff.is_regression(), "{diff:?}");
        assert!(
            diff.failures
                .iter()
                .any(|f| f.contains("pos_domain/qsort[bdd]") && f.contains("time_us")),
            "{diff:?}"
        );
        // Across hosts the time regression demotes; bytes never do.
        let other_host = synthetic_domain_doc(50_000, 2_000, 16);
        let diff = bench_diff(&old, &other_host, 25.0, 5.0, 5.0);
        assert!(diff.is_regression(), "{diff:?}");
        assert!(
            diff.failures
                .iter()
                .any(|f| f.contains("pos_domain/qsort[bdd]") && f.contains("table_bytes")),
            "{diff:?}"
        );
        assert!(
            diff.warnings
                .iter()
                .any(|w| w.contains("pos_domain/qsort[bdd]") && w.contains("time_us")),
            "{diff:?}"
        );
        // A vanished domain row fails, like every other table.
        let empty = tablog_trace::json::parse(
            "{\"table1\":[],\"table2\":[],\"table3\":[],\"table4\":[],\"pos_domain\":[]}",
        )
        .unwrap();
        let diff = bench_diff(&old, &empty, 25.0, 5.0, 5.0);
        assert!(
            diff.failures
                .iter()
                .any(|f| f.contains("pos_domain/qsort[bdd]") && f.contains("missing from NEW")),
            "{diff:?}"
        );
    }

    #[test]
    fn pr5_json_extends_pr4_json_with_host() {
        let tables = run_suite(false, 2);
        let sched = scheduler_rows();
        let host = host_meta();
        let doc = pr5_json(&tables, &sched, None, &host);
        let v = tablog_trace::json::parse(&doc).expect("pr5_json is valid JSON");
        for key in ["table1", "table2", "table3", "table4", "schedulers", "host"] {
            assert!(v.get(key).is_some(), "missing key {key}");
        }
        use tablog_trace::json::JsonValue;
        assert_eq!(
            v.get("host")
                .and_then(|h| h.get("num_cpus"))
                .and_then(JsonValue::as_f64),
            Some(host.num_cpus as f64)
        );
        // A document compared with itself never regresses.
        let diff = bench_diff(&v, &v, 25.0, 5.0, 5.0);
        assert!(!diff.is_regression(), "{diff:?}");
    }
}
