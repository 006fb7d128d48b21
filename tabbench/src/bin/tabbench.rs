//! End-to-end run of one workload, with the system allocator and no
//! brackets: set-up, timed passes for `--seconds`, answer checks, and one
//! JSON line with the raw samples (`run.py` pools the samples of several
//! processes into the metrics).
//!
//! ```text
//! tabbench --workload W --seed N --seconds S --reference DIR [--bless]
//! ```
//!
//! `--bless` runs one pass and rewrites the workload's reference file in
//! `DIR` from its answers (depth-k and strictness only).
//!
//! `--layers` is for traced runs: the result's `info` then also carries
//! the untraced sequential pass time, and for a concurrent workload the
//! `core::parallel` layer metrics. Those are measured here, with the system
//! allocator, because the counting allocator's shared counters would
//! distort concurrent timings. A concurrent pass is then followed by a
//! sequential pass over the same order.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tabbench::{
    json_strings, median, ms, reference_file, run, run_batch, Args, Checker, Job, Report, Rng,
};

/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 2;

type Timed = (usize, Result<Report, String>, Duration);

/// One pass over `jobs` in `order` on `threads` workers: its wall time
/// and each analysis with its own time.
fn pass(threads: usize, jobs: &[Job], order: &[usize]) -> (Duration, Vec<Timed>) {
    let start = Instant::now();
    let results = if threads > 1 {
        let ordered: Vec<&Job> = order.iter().map(|&i| &jobs[i]).collect();
        run_batch(threads, &ordered)
            .into_iter()
            .zip(order)
            .map(|((r, d), &i)| (i, r, d))
            .collect()
    } else {
        order
            .iter()
            .map(|&i| {
                let t = Instant::now();
                let r = run(&jobs[i]);
                (i, r, t.elapsed())
            })
            .collect()
    };
    (start.elapsed(), results)
}

fn main() {
    let process_start = Instant::now();
    tabbench::refuse_debug_build();
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("tabbench: {e}");
        std::process::exit(2);
    });
    if args.flag("bless") {
        bless(&args);
        return;
    }
    let workload = args.workload;
    let threads = workload.threads();
    let layers = args.flag("layers");
    let mut rng = Rng::new(args.seed);
    let mut checker = Checker::default();

    // Set-up, timed from process start: build the inputs and run one
    // untimed warm-up pass.
    let jobs = workload.jobs();
    let order = rng.permutation(jobs.len());
    for (i, r, _) in pass(threads, &jobs, &order).1 {
        checker.observe(&jobs[i], &r);
    }
    let setup_s = process_start.elapsed().as_secs_f64();

    // Timed passes.
    let budget = Duration::from_secs_f64(args.seconds);
    let timed = Instant::now();
    let mut pass_ms = Vec::new();
    let mut program_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut timed_wall = Duration::ZERO;
    let mut busy_frac = Vec::new();
    let mut seq_pass_ms = Vec::new();
    let mut seq_program_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    while timed.elapsed() < budget || pass_ms.len() < MIN_PASSES {
        let order = rng.permutation(jobs.len());
        let (wall, results) = pass(threads, &jobs, &order);
        pass_ms.push(ms(wall));
        timed_wall += wall;
        let mut busy = Duration::ZERO;
        for (i, r, d) in &results {
            checker.observe(&jobs[*i], r);
            program_ms.entry(jobs[*i].name).or_default().push(ms(*d));
            busy += *d;
        }
        if layers && threads > 1 {
            busy_frac.push(busy.as_secs_f64() / (threads as f64 * wall.as_secs_f64()));
            let (wall, results) = pass(1, &jobs, &order);
            seq_pass_ms.push(ms(wall));
            for (i, r, d) in &results {
                checker.observe(&jobs[*i], r);
                seq_program_ms
                    .entry(jobs[*i].name)
                    .or_default()
                    .push(ms(*d));
            }
        }
    }
    checker.finish(&jobs, &args.reference);

    let layer_info = if !layers {
        String::new()
    } else if threads > 1 {
        let sum_of_medians =
            |m: &BTreeMap<&str, Vec<f64>>| m.values().map(|v| median(v)).sum::<f64>();
        format!(
            ", \"layers\": {{\"seq_pass_ms\": {}, \"batch.busy_frac\": {}, \"batch.slowdown\": {}}}",
            median(&seq_pass_ms),
            median(&busy_frac),
            sum_of_medians(&program_ms) / sum_of_medians(&seq_program_ms),
        )
    } else {
        format!(", \"layers\": {{\"seq_pass_ms\": {}}}", median(&pass_ms))
    };
    let program_ms: Vec<String> = program_ms
        .iter()
        .map(|(name, xs)| format!("\"{name}\": {xs:?}"))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"samples\": {{\"setup_s\": {setup_s}, \"pass_ms\": {pass_ms:?}, \
         \"program_ms\": {{{}}}, \"timed_s\": {}, \"table_bytes\": {}}}, \
         \"info\": {{\"threads\": {threads}, \"nproc\": {nproc}, \"profile\": \"release\", \
         \"errors\": {}}}{layer_info}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        program_ms.join(", "),
        timed_wall.as_secs_f64(),
        checker.table_bytes(),
        json_strings(&checker.errors),
    );
    if checker.failed > 0 {
        std::process::exit(1);
    }
}

/// Rewrites the reference file of a depth-k or strictness workload from
/// one pass of its answers.
fn bless(args: &Args) {
    let jobs = args.workload.jobs();
    let Some(file) = jobs.first().and_then(|j| reference_file(j.kind)) else {
        eprintln!("tabbench: only depthk and strict have reference files");
        std::process::exit(2);
    };
    let mut checker = Checker::default();
    for job in &jobs {
        checker.observe(job, &run(job));
    }
    if checker.failed > 0 {
        eprintln!(
            "tabbench: not blessing failed analyses: {:?}",
            checker.errors
        );
        std::process::exit(1);
    }
    let path = args.reference.join(file);
    if let Err(e) = std::fs::write(&path, checker.reference_text(&jobs)) {
        eprintln!("tabbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("tabbench: wrote {}", path.display());
}
