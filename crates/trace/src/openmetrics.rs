//! OpenMetrics text exposition of [`Sample`]s.
//!
//! The north-star `tablog serve` daemon wants its vital signs scraped by
//! off-the-shelf collectors (Prometheus and friends speak the OpenMetrics
//! text format). This module renders a sample — or a whole sample
//! series with timestamps — as `# TYPE`-declared gauge and counter
//! families, and ships a small validator so tests (and CI) can hold the
//! exporter to the format instead of to a golden string.
//!
//! Shape of the output, per the OpenMetrics spec:
//!
//! ```text
//! # TYPE tablog_steps counter
//! # HELP tablog_steps Worklist tasks executed.
//! tablog_steps_total 8231
//! # TYPE tablog_table_bytes gauge
//! tablog_table_bytes 145984
//! # EOF
//! ```
//!
//! Counter sample names carry the mandatory `_total` suffix; timestamps
//! (series export only) are seconds on the [`crate::span::now_ns`]
//! monotonic timeline; the exposition ends with the mandatory `# EOF`.

use crate::sample::Sample;

/// One metric family: its declared name, OpenMetrics type, help text, and
/// a closure projecting the sample line body out of a sample.
struct Family {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    /// Renders `(labels, value)` pairs for one sample; an empty list skips the
    /// sample (e.g. peak heap when the tracking allocator is absent).
    sample: fn(&Sample) -> Vec<(&'static str, f64)>,
}

fn families() -> Vec<Family> {
    vec![
        Family {
            name: "tablog_steps",
            kind: "counter",
            help: "Worklist tasks executed.",
            sample: |s| vec![("", s.steps as f64)],
        },
        Family {
            name: "tablog_answers",
            kind: "counter",
            help: "Unique answers admitted into tables.",
            sample: |s| vec![("", s.answers as f64)],
        },
        Family {
            name: "tablog_duplicate_answers",
            kind: "counter",
            help: "Duplicate answers rejected by tables.",
            sample: |s| vec![("", s.duplicate_answers as f64)],
        },
        Family {
            name: "tablog_worklist_depth",
            kind: "gauge",
            help: "Pending worklist tasks by task class.",
            sample: |s| {
                vec![
                    ("{class=\"expand\"}", s.expands as f64),
                    ("{class=\"return\"}", s.returns as f64),
                ]
            },
        },
        Family {
            name: "tablog_tables",
            kind: "gauge",
            help: "Call tables created so far.",
            sample: |s| vec![("", s.tables as f64)],
        },
        Family {
            name: "tablog_completed_tables",
            kind: "gauge",
            help: "Call tables marked complete.",
            sample: |s| vec![("", s.completed_tables as f64)],
        },
        Family {
            name: "tablog_table_bytes",
            kind: "gauge",
            help: "Table space in bytes (incremental accounting).",
            sample: |s| vec![("", s.table_bytes as f64)],
        },
        Family {
            name: "tablog_answer_rate",
            kind: "gauge",
            help: "Unique answers per second over the last window.",
            sample: |s| vec![("", s.answer_rate)],
        },
        Family {
            name: "tablog_peak_heap_bytes",
            kind: "gauge",
            help: "Peak process heap (tracking allocator only).",
            sample: |s| match s.peak_heap_bytes {
                Some(b) => vec![("", b as f64)],
                None => vec![],
            },
        },
        Family {
            name: "tablog_stalled",
            kind: "gauge",
            help: "Stall-watchdog verdict (1 = likely divergence).",
            sample: |s| vec![("", if s.stalled { 1.0 } else { 0.0 })],
        },
    ]
}

/// Formats a value the OpenMetrics way: integral values without a
/// fractional part, everything else with enough digits to round-trip.
fn value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render(samples: &[Sample], timestamps: bool) -> String {
    let mut out = String::new();
    for f in families() {
        let lines: Vec<String> = samples
            .iter()
            .flat_map(|s| {
                let ts = if timestamps {
                    // OpenMetrics timestamps are seconds (arbitrary
                    // decimal precision), here on the monotonic span
                    // timeline shared by every exporter.
                    format!(" {:.9}", s.t_ns as f64 / 1e9)
                } else {
                    String::new()
                };
                let suffix = if f.kind == "counter" { "_total" } else { "" };
                (f.sample)(s)
                    .into_iter()
                    .map(move |(labels, v)| {
                        format!("{}{}{} {}{}", f.name, suffix, labels, value(v), ts)
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        if lines.is_empty() {
            continue;
        }
        out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind));
        out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out.push_str("# EOF\n");
    out
}

/// Renders the latest sample as an OpenMetrics exposition (no
/// timestamps — scrape semantics: "the state right now").
pub fn openmetrics(latest: &Sample) -> String {
    render(std::slice::from_ref(latest), false)
}

/// Renders a sample series as an OpenMetrics exposition with one
/// timestamped sample line per sample per family — the whole run's
/// health history in a form collectors and humans can both read.
pub fn openmetrics_series(samples: &[Sample]) -> String {
    render(samples, true)
}

/// Checks an OpenMetrics text exposition for structural validity: every
/// sample belongs to a `# TYPE`-declared family, counter samples carry
/// the `_total` suffix, values and timestamps parse, and the exposition
/// ends with `# EOF` and nothing after it.
///
/// Not a complete spec implementation — it is the invariant the exporter
/// promises, kept separate so tests and CI validate *format*, not golden
/// strings.
pub fn validate_openmetrics(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut types: HashMap<&str, &str> = HashMap::new();
    let mut seen_eof = false;
    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.is_empty() {
            return Err(format!("line {n}: blank lines are not allowed"));
        }
        if seen_eof {
            return Err(format!("line {n}: content after # EOF"));
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if rest == "EOF" {
                seen_eof = true;
            } else if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let (name, kind) = match (it.next(), it.next(), it.next()) {
                    (Some(name), Some(kind), None) => (name, kind),
                    _ => return Err(format!("line {n}: malformed # TYPE")),
                };
                if !matches!(kind, "gauge" | "counter" | "info" | "unknown") {
                    return Err(format!("line {n}: unsupported metric type {kind:?}"));
                }
                if types.insert(name, kind).is_some() {
                    return Err(format!("line {n}: duplicate # TYPE for {name}"));
                }
            } else if rest.starts_with("HELP ") || rest.starts_with("UNIT ") {
                // Free-text metadata; nothing to check beyond the prefix.
            } else {
                return Err(format!("line {n}: unknown comment directive"));
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {n}: comments must start with \"# \""));
        }
        // Sample line: name[{labels}] value [timestamp]
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {n}: sample without a value"))?;
        let name = &line[..name_end];
        let rest = &line[name_end..];
        let rest = if let Some(r) = rest.strip_prefix('{') {
            let close = r
                .find('}')
                .ok_or_else(|| format!("line {n}: unclosed label set"))?;
            &r[close + 1..]
        } else {
            rest
        };
        let mut parts = rest.split_whitespace();
        let val = parts
            .next()
            .ok_or_else(|| format!("line {n}: sample without a value"))?;
        val.parse::<f64>()
            .map_err(|_| format!("line {n}: unparseable value {val:?}"))?;
        if let Some(ts) = parts.next() {
            ts.parse::<f64>()
                .map_err(|_| format!("line {n}: unparseable timestamp {ts:?}"))?;
        }
        if parts.next().is_some() {
            return Err(format!("line {n}: trailing tokens after timestamp"));
        }
        // Resolve the family: counters expose `name_total`, every other
        // type exposes the family name itself.
        let family_kind = types.get(name).copied().or_else(|| {
            name.strip_suffix("_total")
                .and_then(|f| types.get(f).copied())
                .filter(|k| *k == "counter")
        });
        match family_kind {
            None => {
                return Err(format!(
                    "line {n}: sample {name:?} has no preceding # TYPE declaration"
                ))
            }
            Some("counter") if !name.ends_with("_total") => {
                return Err(format!(
                    "line {n}: counter sample {name:?} must end with _total"
                ))
            }
            _ => {}
        }
    }
    if !seen_eof {
        return Err("missing # EOF terminator".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(t_ns: u64, answers: usize, peak: Option<usize>) -> Sample {
        Sample {
            t_ns,
            steps: 100,
            worklist: 5,
            expands: 3,
            returns: 2,
            tables: 7,
            completed_tables: 4,
            answers,
            duplicate_answers: 2,
            table_bytes: 4096,
            answer_rate: 250.5,
            peak_heap_bytes: peak,
            stalled: false,
        }
    }

    #[test]
    fn latest_snapshot_export_is_valid_and_complete() {
        let text = openmetrics(&snap(1_000_000, 42, Some(1 << 20)));
        validate_openmetrics(&text).expect("valid OpenMetrics");
        assert!(text.contains("# TYPE tablog_steps counter\n"));
        assert!(text.contains("tablog_steps_total 100\n"));
        assert!(text.contains("tablog_worklist_depth{class=\"expand\"} 3\n"));
        assert!(text.contains("tablog_worklist_depth{class=\"return\"} 2\n"));
        assert!(text.contains("tablog_answer_rate 250.5\n"));
        assert!(text.contains("tablog_peak_heap_bytes 1048576\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn heap_family_is_omitted_without_tracking_allocator() {
        let text = openmetrics(&snap(1, 1, None));
        validate_openmetrics(&text).expect("valid OpenMetrics");
        assert!(!text.contains("tablog_peak_heap_bytes"));
    }

    #[test]
    fn series_export_carries_second_timestamps() {
        let series = [snap(500_000_000, 10, None), snap(1_500_000_000, 20, None)];
        let text = openmetrics_series(&series);
        validate_openmetrics(&text).expect("valid OpenMetrics");
        assert!(text.contains("tablog_answers_total 10 0.500000000\n"));
        assert!(text.contains("tablog_answers_total 20 1.500000000\n"));
        // One TYPE declaration per family even with multiple samples.
        assert_eq!(text.matches("# TYPE tablog_answers ").count(), 1);
    }

    #[test]
    fn validator_rejects_format_violations() {
        // Missing EOF.
        assert!(validate_openmetrics("# TYPE x gauge\nx 1\n").is_err());
        // Sample without a TYPE declaration.
        assert!(validate_openmetrics("x 1\n# EOF\n")
            .unwrap_err()
            .contains("no preceding # TYPE"));
        // Counter sample without the _total suffix.
        let text = "# TYPE c counter\nc 1\n# EOF\n";
        assert!(validate_openmetrics(text).unwrap_err().contains("_total"));
        // Content after EOF.
        assert!(validate_openmetrics("# EOF\nx 1\n").is_err());
        // Unparseable value.
        assert!(validate_openmetrics("# TYPE x gauge\nx abc\n# EOF\n").is_err());
        // Duplicate TYPE.
        assert!(validate_openmetrics("# TYPE x gauge\n# TYPE x gauge\n# EOF\n").is_err());
    }
}
