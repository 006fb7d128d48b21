//! Resource budgets and graceful truncation.
//!
//! A production tabled engine — XSB serving queries, the ROADMAP's
//! `tablog serve` daemon — cannot let one pathological query hang the
//! process or eat the heap. [`EngineOptions`](crate::EngineOptions)
//! therefore carries three budgets, all checked at the worklist dispatch
//! boundary (between tasks, never inside one):
//!
//! * `max_steps` — a ceiling on worklist tasks executed;
//! * `deadline` — a wall-clock allowance for the whole evaluation;
//! * `max_table_bytes` — a ceiling on table space, per the engine's
//!   incremental accounting.
//!
//! Tripping a budget is **not an error**: the machine stops scheduling,
//! keeps every table row derived so far, and hands back an
//! [`Evaluation`](crate::Evaluation) carrying a [`Truncation`] — the
//! tripped [`TruncationReason`] plus the final
//! [`Sample`](tablog_trace::Sample) of the run's vital signs. Answers in a truncated evaluation are all genuinely derivable
//! (a prefix of the complete fixpoint); what is missing is completeness,
//! which is why tables stay unmarked (`complete == false`) and why
//! analyses that need the full model call
//! [`Evaluation::require_complete`](crate::Evaluation::require_complete),
//! converting truncation into [`EngineError::Truncated`](crate::EngineError).

use std::fmt;
use tablog_trace::Sample;

/// Cadence of [`Sample`] emission through
/// [`TraceSink::sample`](tablog_trace::TraceSink::sample), plus the stall
/// watchdog's patience. The engine takes one sample before the first task,
/// one after each task that leaves work queued when *either* cadence has
/// elapsed (a zero disables that trigger), and one final sample when the
/// run ends, completed or truncated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleConfig {
    /// Sample every this many worklist tasks (0 = step cadence off). The
    /// step cadence costs no timestamp between samples; `every_steps(1)`
    /// samples after every task.
    pub every_steps: usize,
    /// Sample when this many milliseconds have passed since the last one
    /// (0 = time cadence off). The time cadence reads the clock once per
    /// task.
    pub every_ms: u64,
    /// Consecutive answer-free, table-growing sample windows before the
    /// watchdog reports `stalled` (0 = never); see
    /// [`StallWatchdog`](tablog_trace::StallWatchdog).
    pub stall_window: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            every_steps: 1024,
            every_ms: 100,
            stall_window: 3,
        }
    }
}

impl SampleConfig {
    /// A config sampling only on the step cadence (deterministic sample
    /// counts — what tests and `tablog timeline --counters` want).
    pub fn every_steps(n: usize) -> Self {
        SampleConfig {
            every_steps: n,
            every_ms: 0,
            ..Default::default()
        }
    }

    /// A config sampling only on the time cadence (what `tablog watch
    /// --interval` and `--progress` want).
    pub fn every_ms(ms: u64) -> Self {
        SampleConfig {
            every_steps: 0,
            every_ms: ms,
            ..Default::default()
        }
    }
}

/// Which resource budget cut an evaluation short.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TruncationReason {
    /// `EngineOptions::max_steps`: the step budget was exhausted.
    Steps(usize),
    /// `EngineOptions::deadline`: the wall-clock allowance (milliseconds)
    /// passed.
    DeadlineMs(u64),
    /// `EngineOptions::max_table_bytes`: table space crossed the ceiling.
    TableBytes(usize),
}

impl TruncationReason {
    /// The snake_case budget name used in reports and JSON
    /// (`"steps"`, `"deadline"`, `"table_bytes"`).
    pub fn name(self) -> &'static str {
        match self {
            TruncationReason::Steps(_) => "steps",
            TruncationReason::DeadlineMs(_) => "deadline",
            TruncationReason::TableBytes(_) => "table_bytes",
        }
    }

    /// The budget's configured limit, in its native unit (tasks,
    /// milliseconds, or bytes).
    pub fn limit(self) -> u64 {
        match self {
            TruncationReason::Steps(n) => n as u64,
            TruncationReason::DeadlineMs(ms) => ms,
            TruncationReason::TableBytes(b) => b as u64,
        }
    }
}

impl fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruncationReason::Steps(n) => write!(f, "step budget of {n} exhausted"),
            TruncationReason::DeadlineMs(ms) => write!(f, "deadline of {ms} ms passed"),
            TruncationReason::TableBytes(b) => {
                write!(f, "table-space ceiling of {b} bytes crossed")
            }
        }
    }
}

/// The record of a budget-truncated evaluation: why it stopped and what
/// the run looked like at that moment. Carried by
/// [`Evaluation::truncation`](crate::Evaluation::truncation) and by
/// [`Solutions::truncation`](crate::Solutions::truncation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Truncation {
    /// The budget that tripped.
    pub reason: TruncationReason,
    /// The run's final sample, taken after the dispatch boundary that
    /// stopped it (the same sample a sampling run emits last).
    pub snapshot: Sample,
}

impl Truncation {
    /// Renders the truncation as a JSON object:
    /// `{"reason":…,"limit":…,"message":…,"snapshot":{…}}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"reason\":\"{}\",\"limit\":{},\"message\":\"{}\",\"snapshot\":{}}}",
            self.reason.name(),
            self.reason.limit(),
            self.reason,
            self.snapshot.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_name_their_budget_and_limit() {
        assert_eq!(TruncationReason::Steps(10).name(), "steps");
        assert_eq!(TruncationReason::DeadlineMs(250).name(), "deadline");
        assert_eq!(TruncationReason::TableBytes(1 << 20).name(), "table_bytes");
        assert_eq!(TruncationReason::DeadlineMs(250).limit(), 250);
        assert_eq!(TruncationReason::TableBytes(42).limit(), 42);
        assert!(TruncationReason::Steps(10).to_string().contains("10"));
    }

    #[test]
    fn truncation_json_round_trips_the_reason() {
        let t = Truncation {
            reason: TruncationReason::TableBytes(4096),
            snapshot: Sample::default(),
        };
        let v = tablog_trace::json::parse(&t.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("reason").and_then(|x| x.as_str()),
            Some("table_bytes")
        );
        assert_eq!(v.get("limit").and_then(|x| x.as_f64()), Some(4096.0));
        assert!(v.get("snapshot").and_then(|s| s.get("steps")).is_some());
    }

    #[test]
    fn sample_config_defaults_are_sane() {
        let c = SampleConfig::default();
        assert!(c.every_steps > 0 && c.every_ms > 0 && c.stall_window > 0);
        assert_eq!(SampleConfig::every_steps(8).every_ms, 0);
        assert_eq!(SampleConfig::every_ms(50).every_steps, 0);
    }
}
