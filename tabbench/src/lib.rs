//! The repository benchmark.
//!
//! Four workloads run the paper's analyses over the fixed program suite
//! with every analyzer at its default options (dynamic load, builtin
//! `iff`, `table` domain, depth-first scheduling):
//!
//! * `ground` — Table 1 Prop groundness, goal-directed, 12 logic programs;
//! * `depthk` — Table 4 depth-k groundness at k = 1, 9 logic programs;
//! * `strict` — Table 3 demand strictness, 10 functional programs;
//! * `batch` — the 22 analyses of `ground` and `strict` as one
//!   [`analyze_many`] batch at [`BATCH_JOBS`] jobs.
//!
//! One *pass* runs every analysis of a workload once, from parse through
//! collection. The seed only shuffles program order inside each pass.
//!
//! This library holds what both binaries share: the workloads, one
//! analysis call per program, answer checking, and small statistics. The
//! `tabbench` binary measures end-to-end metrics with the system
//! allocator; `tabbench-traced` installs the counting allocator and times
//! each layer from outside by bracketing calls into its public functions.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;
use tablog_core::analyze_many;
use tablog_core::depthk::{DepthKAnalyzer, DepthKReport};
use tablog_core::direct::DirectAnalyzer;
use tablog_core::groundness::{EntryPoint, GroundnessAnalyzer, GroundnessReport};
use tablog_core::strictness::{StrictnessAnalyzer, StrictnessReport};
use tablog_core::PhaseTimings;
use tablog_engine::{MetricsReport, TableStats};
use tablog_funlang::{parse_fun_program, FunProgram};
use tablog_suite::{depthk_benchmarks, fun_benchmarks, logic_benchmarks};
use tablog_syntax::{parse_program, Program};

/// Table 4's truncation depth.
pub const DEPTH_K: usize = 1;

/// Worker threads of the `batch` workload.
pub const BATCH_JOBS: usize = 2;

/// A named workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Table 1 Prop groundness.
    Ground,
    /// Table 4 depth-k groundness.
    Depthk,
    /// Table 3 demand strictness.
    Strict,
    /// `ground` and `strict` as one concurrent batch.
    Batch,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ground" => Some(Workload::Ground),
            "depthk" => Some(Workload::Depthk),
            "strict" => Some(Workload::Strict),
            "batch" => Some(Workload::Batch),
            _ => None,
        }
    }

    /// The workload's analyses, in suite order.
    pub fn jobs(self) -> Vec<Job> {
        let ground = || {
            logic_benchmarks().into_iter().map(|b| Job {
                kind: Kind::Ground,
                name: b.name,
                source: b.source,
                entry: b.entry,
            })
        };
        let strict = || {
            fun_benchmarks().into_iter().map(|b| Job {
                kind: Kind::Strict,
                name: b.name,
                source: b.source,
                entry: "",
            })
        };
        match self {
            Workload::Ground => ground().collect(),
            Workload::Depthk => depthk_benchmarks()
                .into_iter()
                .map(|b| Job {
                    kind: Kind::Depthk,
                    name: b.name,
                    source: b.source,
                    entry: b.entry,
                })
                .collect(),
            Workload::Strict => strict().collect(),
            Workload::Batch => ground().chain(strict()).collect(),
        }
    }

    /// Worker threads one pass runs on.
    pub fn threads(self) -> usize {
        match self {
            Workload::Batch => BATCH_JOBS,
            _ => 1,
        }
    }
}

/// Which analysis a job runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Prop groundness from the suite entry point.
    Ground,
    /// Depth-k groundness from the suite entry point.
    Depthk,
    /// Demand strictness of a functional program.
    Strict,
}

/// One analysis of one program.
#[derive(Clone, Debug)]
pub struct Job {
    /// Which analysis.
    pub kind: Kind,
    /// Program name, unique within a workload.
    pub name: &'static str,
    /// Program source.
    pub source: &'static str,
    /// Entry point (`name(g, f)`) for the logic analyses; empty otherwise.
    pub entry: &'static str,
}

/// A job's input after the front end's first layer.
pub enum Parsed {
    /// A logic program and its entry point (`tablog_syntax`).
    Logic(Program, EntryPoint),
    /// A functional program (`tablog_funlang`).
    Fun(FunProgram),
}

/// Parses a job's source with its layer's public parser.
///
/// # Errors
///
/// Returns the parser's message.
pub fn parse(job: &Job) -> Result<Parsed, String> {
    match job.kind {
        Kind::Ground | Kind::Depthk => {
            let program = parse_program(job.source).map_err(|e| e.to_string())?;
            let entry = EntryPoint::parse(job.entry).map_err(|e| e.to_string())?;
            Ok(Parsed::Logic(program, entry))
        }
        Kind::Strict => parse_fun_program(job.source)
            .map(Parsed::Fun)
            .map_err(|e| e.to_string()),
    }
}

/// Runs a job's analyzer, at its default options, on a parsed input.
/// `profile` adds the per-predicate metrics report.
///
/// # Errors
///
/// Returns the analyzer's message; a truncated evaluation is an error.
pub fn analyze(job: &Job, parsed: &Parsed, profile: bool) -> Result<Report, String> {
    let report = match (job.kind, parsed) {
        (Kind::Ground, Parsed::Logic(program, entry)) => {
            let mut an = GroundnessAnalyzer::new();
            an.profile = profile;
            an.analyze_with_entries(program, std::slice::from_ref(entry))
                .map(Report::Ground)
        }
        (Kind::Depthk, Parsed::Logic(program, entry)) => {
            let mut an = DepthKAnalyzer::new(DEPTH_K);
            an.profile = profile;
            an.analyze_with_entries(program, std::slice::from_ref(entry))
                .map(Report::Depthk)
        }
        (Kind::Strict, Parsed::Fun(program)) => {
            let mut an = StrictnessAnalyzer::new();
            an.profile = profile;
            an.analyze_program(program).map(Report::Strict)
        }
        _ => return Err(format!("{}: input does not match its analysis", job.name)),
    };
    report.map_err(|e| e.to_string())
}

/// One analysis from source text: parse, then analyze.
///
/// # Errors
///
/// As [`parse`] and [`analyze`].
pub fn run(job: &Job) -> Result<Report, String> {
    analyze(job, &parse(job)?, false)
}

/// Runs `jobs` on `threads` workers through [`analyze_many`], timing each
/// analysis on the thread that runs it. Results are in `jobs` order.
pub fn run_batch(threads: usize, jobs: &[&Job]) -> Vec<(Result<Report, String>, Duration)> {
    analyze_many(threads, jobs, |job| {
        let t = std::time::Instant::now();
        let r = run(job);
        (r, t.elapsed())
    })
}

/// An analyzer's report.
pub enum Report {
    /// From [`GroundnessAnalyzer`].
    Ground(GroundnessReport),
    /// From [`DepthKAnalyzer`].
    Depthk(DepthKReport),
    /// From [`StrictnessAnalyzer`].
    Strict(StrictnessReport),
}

impl Report {
    /// Preprocess / analysis / collection wall times.
    pub fn timings(&self) -> &PhaseTimings {
        match self {
            Report::Ground(r) => &r.timings,
            Report::Depthk(r) => &r.timings,
            Report::Strict(r) => &r.timings,
        }
    }

    /// The engine's counters of the evaluation.
    pub fn stats(&self) -> &TableStats {
        match self {
            Report::Ground(r) => &r.stats,
            Report::Depthk(r) => &r.stats,
            Report::Strict(r) => &r.stats,
        }
    }

    /// Table space in bytes, the paper's space column.
    pub fn table_bytes(&self) -> usize {
        match self {
            Report::Ground(r) => r.table_bytes(),
            Report::Depthk(r) => r.table_bytes(),
            Report::Strict(r) => r.table_bytes(),
        }
    }

    /// The per-predicate metrics, present for a profiled run.
    pub fn metrics(&self) -> Option<&MetricsReport> {
        match self {
            Report::Ground(r) => r.metrics.as_ref(),
            Report::Depthk(r) => r.metrics.as_ref(),
            Report::Strict(r) => r.metrics.as_ref(),
        }
    }

    /// The answers, one line per predicate (function), in name order:
    /// groundness gives the definitely-ground bits of every predicate
    /// reachable from the entry; depth-k a digest of the sorted rendered
    /// answers; strictness the demand verdicts. The last line is the
    /// table space.
    pub fn answer_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = match self {
            Report::Ground(r) => r
                .predicates()
                .filter(|p| !p.success_rows.is_empty())
                .map(|p| format!("{}/{} {}", p.name, p.arity, bits(&p.definitely_ground)))
                .collect(),
            Report::Depthk(r) => r
                .predicates()
                .map(|p| {
                    let mut rows: Vec<String> = p
                        .answers
                        .iter()
                        .map(|row| {
                            let cells: Vec<String> = row.iter().map(|t| t.to_string()).collect();
                            cells.join(",")
                        })
                        .collect();
                    rows.sort();
                    format!(
                        "{}/{} answers={} ground={} digest={:016x}",
                        p.name,
                        p.arity,
                        rows.len(),
                        bits(&p.definitely_ground),
                        fnv1a(rows.join("\n").as_bytes())
                    )
                })
                .collect(),
            Report::Strict(r) => r
                .functions()
                .map(|f| format!("{}/{} {}", f.name, f.arity, f.summary()))
                .collect(),
        };
        lines.push(format!("{TABLE_BYTES} {}", self.table_bytes()));
        lines
    }
}

/// Key of the table-space line in [`Report::answer_lines`].
const TABLE_BYTES: &str = "table_bytes";

fn bits(v: &[bool]) -> String {
    v.iter().map(|&g| if g { '1' } else { '0' }).collect()
}

/// 64-bit FNV-1a, a stable digest that needs no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The answers of the hand-coded direct analyzer (the GAIA stand-in) for
/// the predicates a groundness run reported, in the same line format.
fn direct_lines(job: &Job, tabled: &[String]) -> Result<Vec<String>, String> {
    let Parsed::Logic(program, entry) = parse(job)? else {
        return Err(format!("{}: not a logic program", job.name));
    };
    let direct = DirectAnalyzer::new()
        .analyze_with_entries(&program, std::slice::from_ref(&entry))
        .map_err(|e| e.to_string())?;
    Ok(tabled
        .iter()
        .filter_map(|line| line.split_once(' ').map(|(key, _)| key))
        .filter(|key| *key != TABLE_BYTES)
        .map(|key| {
            let verdict = key
                .rsplit_once('/')
                .and_then(|(name, arity)| {
                    let g = direct.output_groundness(name, arity.parse().ok()?)?;
                    Some(bits(&g.definitely_ground))
                })
                .unwrap_or_else(|| "missing".to_owned());
            format!("{key} {verdict}")
        })
        .collect())
}

/// Checks every answer a run produces and counts analyses attempted and
/// failed.
///
/// Every analysis of a program must give the same answer lines as the
/// program's first analysis in the run. At the end of the run,
/// [`Checker::finish`] compares those lines with an independent route:
/// the direct analyzer for groundness, the committed reference files for
/// depth-k and strictness (which have no independent route in the
/// repository). An error, a truncation or a mismatch fails the analysis.
#[derive(Default)]
pub struct Checker {
    first: BTreeMap<&'static str, Vec<String>>,
    runs: BTreeMap<&'static str, u64>,
    /// Analyses attempted.
    pub attempted: u64,
    /// Analyses that errored, truncated or mismatched.
    pub failed: u64,
    /// One message per failure kind and program.
    pub errors: Vec<String>,
}

impl Checker {
    /// Records one analysis result.
    pub fn observe(&mut self, job: &Job, result: &Result<Report, String>) {
        self.attempted += 1;
        *self.runs.entry(job.name).or_default() += 1;
        let lines = match result {
            Ok(report) => report.answer_lines(),
            Err(e) => {
                self.fail(format!("{}: {e}", job.name));
                return;
            }
        };
        match self.first.get(job.name) {
            None => {
                self.first.insert(job.name, lines);
            }
            Some(first) if *first != lines => {
                self.fail(format!("{}: answers differ between passes", job.name));
            }
            Some(_) => {}
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if !self.errors.contains(&msg) {
            self.errors.push(msg);
        }
    }

    /// Total table space of the first analysis of each program, in bytes.
    pub fn table_bytes(&self) -> usize {
        self.first
            .values()
            .filter_map(|lines| {
                lines
                    .last()?
                    .strip_prefix(TABLE_BYTES)?
                    .trim()
                    .parse::<usize>()
                    .ok()
            })
            .sum()
    }

    /// Compares the run's answers with the independent route for each job
    /// (see the type docs). Every analysis of a mismatching program
    /// counts as failed.
    pub fn finish(&mut self, jobs: &[Job], reference_dir: &Path) {
        let mut files: BTreeMap<&str, Result<Reference, String>> = BTreeMap::new();
        for job in jobs {
            let Some(got) = self.first.get(job.name).cloned() else {
                continue;
            };
            let expected = match reference_file(job.kind) {
                None => {
                    let got: Vec<String> = got
                        .into_iter()
                        .filter(|l| !l.starts_with(TABLE_BYTES))
                        .collect();
                    direct_lines(job, &got).map(|want| (got, want))
                }
                Some(file) => files
                    .entry(file)
                    .or_insert_with(|| Reference::load(&reference_dir.join(file)))
                    .clone()
                    .map(|r| (got, r.lines(job.name))),
            };
            let runs = self.runs.get(job.name).copied().unwrap_or(0);
            let msg = match expected {
                Ok((got, want)) if got == want => continue,
                Ok((got, want)) => format!(
                    "{}: answers differ from the reference: got {got:?}, want {want:?}",
                    job.name
                ),
                Err(e) => format!("{}: no reference: {e}", job.name),
            };
            self.failed += runs;
            self.errors.push(msg);
        }
    }

    /// The first answer lines of each program, as a reference file body.
    pub fn reference_text(&self, jobs: &[Job]) -> String {
        let mut out = String::from(
            "# program key value — written by `tabbench --bless`; see tabbench/NOTES.md\n",
        );
        for job in jobs {
            for line in self.first.get(job.name).into_iter().flatten() {
                let _ = writeln!(out, "{} {line}", job.name);
            }
        }
        out
    }
}

/// The committed reference file of an analysis that has no independent
/// route in the repository; `None` for groundness, which the direct
/// analyzer checks.
pub fn reference_file(kind: Kind) -> Option<&'static str> {
    match kind {
        Kind::Ground => None,
        Kind::Depthk => Some("depthk.txt"),
        Kind::Strict => Some("strict.txt"),
    }
}

/// A parsed reference file: `program rest-of-line` rows.
#[derive(Clone)]
struct Reference(Vec<(String, String)>);

impl Reference {
    fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Reference(
            text.lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .filter_map(|l| l.split_once(' '))
                .map(|(p, rest)| (p.to_owned(), rest.to_owned()))
                .collect(),
        ))
    }

    fn lines(&self, program: &str) -> Vec<String> {
        self.0
            .iter()
            .filter(|(p, _)| p == program)
            .map(|(_, rest)| rest.clone())
            .collect()
    }
}

/// A splitmix64 generator: the only source of randomness, seeded from the
/// command line.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Milliseconds of `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Command-line options shared by both binaries.
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of the program-order shuffles.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Directory of the committed reference answers.
    pub reference: std::path::PathBuf,
    /// Flags without a value, such as `--bless`.
    pub flags: Vec<String>,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --reference DIR [--flag]…`.
    ///
    /// # Errors
    ///
    /// Names the missing or malformed option.
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut opts: BTreeMap<String, String> = BTreeMap::new();
        let mut flags = Vec::new();
        let mut argv = argv.peekable();
        while let Some(a) = argv.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a}"));
            };
            match argv.peek() {
                Some(v) if !v.starts_with("--") => {
                    opts.insert(key.to_owned(), argv.next().expect("peeked"));
                }
                _ => flags.push(key.to_owned()),
            }
        }
        let get = |k: &str| opts.get(k).ok_or_else(|| format!("missing --{k}"));
        let workload = get("workload")?;
        Ok(Args {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload {workload}"))?,
            seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds: get("seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            reference: get("reference")?.into(),
            flags,
        })
    }

    /// Whether flag `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// Refuses to measure an unoptimized build.
pub fn refuse_debug_build() {
    if cfg!(debug_assertions) {
        eprintln!("tabbench: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
}

/// Renders `(name, value, unit)` rows as the result's `metrics` object.
pub fn metrics_json(rows: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Renders strings as a JSON array.
pub fn json_strings(xs: &[String]) -> String {
    let body: Vec<String> = xs
        .iter()
        .map(|s| {
            let mut e = String::with_capacity(s.len() + 2);
            e.push('"');
            for c in s.chars() {
                match c {
                    '"' => e.push_str("\\\""),
                    '\\' => e.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(e, "\\u{:04x}", c as u32);
                    }
                    c => e.push(c),
                }
            }
            e.push('"');
            e
        })
        .collect();
    format!("[{}]", body.join(", "))
}
