//! Regenerates every table of the paper in the same row/column layout.
//!
//! Usage: `paper_tables [--table N] [--profile] [--json] [--check FILE]
//! [--jobs N] [--schedulers] [--domain bdd]`
//! (default: all four tables). With
//! `--profile`, each row is followed by the engine's per-evaluation
//! counters (subgoals, answers, duplicates, resolutions, and the hook
//! counts where the analysis uses truncation). With `--json`, the whole
//! suite is emitted as one machine-readable JSON document instead of text.
//! With `--check FILE`, the run is compared against a committed baseline
//! JSON (same format): table-space regressions beyond 20% fail the
//! process, wall-clock regressions only warn on stderr.
//!
//! With `--jobs N` (N > 1), the suite is first run sequentially and then
//! on N worker threads — one isolated engine session per benchmark — and
//! the two runs' deterministic fields (programs, line counts, table bytes)
//! are compared. Any divergence fails the process; the speedup is reported
//! and, under `--json`, recorded in a `"parallel"` object. `--schedulers`
//! (implied by `--json` with `--jobs`) additionally re-runs the groundness
//! workload under both worklist scheduling strategies (depth-first and
//! breadth-first) and reports the engine counters side by side.
//!
//! With `--domain bdd`, the Table 1/2 groundness workloads are re-run under
//! both Prop-domain backends — enumerative truth tables and hash-consed
//! BDDs, on the tabled engine and the direct analyzer alike — and each
//! benchmark's answer sets are cross-checked between backends: any
//! divergence fails the process. The per-query `{domain, time_us,
//! direct_us, table_bytes, bdd_nodes, identical}` rows are printed as a
//! comparison table and recorded under `"pos_domain"` in the `--json`
//! document. `--domain table` is accepted and a no-op (the default
//! backend already produced every other table).

use std::process::ExitCode;
use tablog_bench::{
    check_against_baseline, host_meta, measure_parallel, ms, pos_domain_rows, pr9_json, run_suite,
    scheduler_rows, DomainRow, Row, SuiteTables, TABLE4_K,
};

// With --features track-alloc the binary runs under the tracking global
// allocator, and sequential rows gain peak_heap_bytes columns (see
// tablog_alloc and Row::heap).
#[cfg(feature = "track-alloc")]
#[global_allocator]
static ALLOC: tablog_alloc::TrackingAlloc = tablog_alloc::TrackingAlloc;

fn print_row_table(title: &str, rows: &[Row]) {
    println!("\n{title}");
    println!(
        "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10} {:>9} {:>12}",
        "Program", "lines", "Preproc", "Analysis", "Collect", "Total", "Comp.%", "Table(bytes)"
    );
    for r in rows {
        println!(
            "{:<12} {:>6} {:>8}ms {:>8}ms {:>8}ms {:>8}ms {:>8.1} {:>12}",
            r.program,
            r.lines,
            ms(r.preprocess),
            ms(r.analysis),
            ms(r.collection),
            ms(r.total()),
            r.compile_increase_pct(),
            r.table_bytes
        );
        if let Some(m) = &r.metrics {
            let t = m.totals();
            let mut line = format!(
                "{:<12}   subgoals={} answers={} dups={} resolutions={}",
                "", t.subgoals, t.answers, t.duplicate_answers, t.clause_resolutions
            );
            if t.calls_abstracted + t.answers_widened > 0 {
                line.push_str(&format!(
                    " abstracted={} widened={}",
                    t.calls_abstracted, t.answers_widened
                ));
            }
            println!("{line}");
        }
    }
}

/// The fractional regression tolerance the baseline check allows.
const TOLERANCE: f64 = 0.20;

/// Runs the two-backend Prop-domain comparison and prints its verdict.
/// `Err` means a benchmark's groundness results differed between the table
/// and BDD backends — a domain-layer bug the caller must turn into a
/// nonzero exit.
fn run_domain_comparison() -> Result<Vec<DomainRow>, String> {
    let rows = pos_domain_rows();
    if let Some(bad) = rows.iter().find(|r| !r.identical) {
        return Err(format!(
            "Prop-domain groundness results diverged from the table backend on {}",
            bad.program
        ));
    }
    eprintln!(
        "domain check passed: {} rows identical across the table and bdd backends",
        rows.len()
    );
    Ok(rows)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let which: Option<u32> = args
        .iter()
        .position(|a| a == "--table")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let want = |n| which.is_none() || which == Some(n);
    let profile = args.iter().any(|a| a == "--profile");
    let json = args.iter().any(|a| a == "--json");
    let want_sched = args.iter().any(|a| a == "--schedulers");
    let jobs: usize = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1);
    let check: Option<&String> = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1));
    let domain: Option<&String> = args
        .iter()
        .position(|a| a == "--domain")
        .and_then(|i| args.get(i + 1));
    let want_domains = match domain.map(String::as_str) {
        Some("bdd") => true,
        Some("table") | None => false,
        Some(other) => {
            eprintln!("paper_tables: unknown --domain {other} (expected table or bdd)");
            return ExitCode::FAILURE;
        }
    };

    if json || check.is_some() {
        // With --jobs > 1, measure_parallel runs the suite both ways and
        // verifies the deterministic fields agree; the parallel tables are
        // what the JSON document and baseline check then see.
        let (parallel, tables): (Option<tablog_bench::ParallelMeasurement>, SuiteTables) =
            if jobs > 1 {
                let (m, t) = measure_parallel(jobs);
                (Some(m), t)
            } else {
                (None, run_suite(false, 1))
            };
        if let Some(p) = &parallel {
            if !p.identical {
                eprintln!(
                    "FAIL: parallel suite run (--jobs {}) diverged from the sequential run",
                    p.jobs
                );
                return ExitCode::FAILURE;
            }
            eprintln!(
                "parallel check passed: --jobs {} identical to sequential, \
                 {:.2}x speedup ({}ms -> {}ms, {} cpu(s) available)",
                p.jobs,
                p.speedup(),
                ms(p.sequential),
                ms(p.parallel),
                p.cpus,
            );
        }
        let sched = if want_sched || (json && jobs > 1) {
            scheduler_rows()
        } else {
            Vec::new()
        };
        let domains = if want_domains {
            match run_domain_comparison() {
                Ok(rows) => rows,
                Err(e) => {
                    eprintln!("FAIL: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            Vec::new()
        };
        let doc = pr9_json(&tables, &sched, parallel.as_ref(), &host_meta(), &domains);
        if json {
            println!("{doc}");
        }
        if let Some(path) = check {
            let baseline = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("paper_tables: cannot read baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let cur = tablog_trace::json::parse(&doc).expect("pr5_json is valid JSON");
            let base = match tablog_trace::json::parse(&baseline) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("paper_tables: bad baseline JSON in {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (failures, warnings) = check_against_baseline(&cur, &base, TOLERANCE);
            for w in &warnings {
                eprintln!("warning: {w}");
            }
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            if !failures.is_empty() {
                return ExitCode::FAILURE;
            }
            eprintln!("baseline check passed ({} warnings)", warnings.len());
        }
        return ExitCode::SUCCESS;
    }

    if want(1) {
        print_row_table(
            "Table 1: Performance of Prop-based groundness analysis (tabled engine)",
            &tablog_bench::table1_rows_jobs(profile, jobs),
        );
    }
    if want(2) {
        let rows = tablog_bench::table2_rows_jobs(jobs);
        println!(
            "\nTable 2: Total analysis time, tabled engine vs. direct analyzer (GAIA stand-in)"
        );
        println!(
            "{:<12} {:>12} {:>12} {:>8}",
            "Program", "tabled", "direct", "ratio"
        );
        for r in &rows {
            println!(
                "{:<12} {:>10}ms {:>10}ms {:>8.2}",
                r.program,
                ms(r.tabled),
                ms(r.direct),
                r.tabled.as_secs_f64() / r.direct.as_secs_f64().max(1e-9)
            );
        }
    }
    if want(3) {
        print_row_table(
            "Table 3: Performance of strictness analysis",
            &tablog_bench::table3_rows_jobs(profile, jobs),
        );
    }
    if want(4) {
        print_row_table(
            &format!("Table 4: Groundness analysis with term-depth abstraction (k = {TABLE4_K})"),
            &tablog_bench::table4_rows_jobs(profile, jobs),
        );
    }
    if want_domains {
        let rows = match run_domain_comparison() {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("FAIL: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "\nProp domain comparison: Table 1/2 groundness under each backend \
             (identical results enforced)"
        );
        println!(
            "{:<20} {:<8} {:>12} {:>12} {:>12} {:>10}",
            "Program", "domain", "tabled", "direct", "Table(bytes)", "BDD nodes"
        );
        for r in &rows {
            println!(
                "{:<20} {:<8} {:>10}ms {:>10}ms {:>12} {:>10}",
                r.program,
                r.domain.name(),
                ms(r.tabled),
                ms(r.direct),
                r.table_bytes,
                r.bdd_nodes
            );
        }
    }
    if want_sched {
        println!("\nScheduler comparison: groundness workload under each worklist strategy");
        println!(
            "{:<12} {:<12} {:>8} {:>8} {:>8} {:>12}",
            "Program", "strategy", "steps", "answers", "dups", "Table(bytes)"
        );
        for r in scheduler_rows() {
            println!(
                "{:<12} {:<12} {:>8} {:>8} {:>8} {:>12}",
                r.program, r.strategy, r.steps, r.answers, r.duplicates, r.table_bytes
            );
        }
    }
    ExitCode::SUCCESS
}
