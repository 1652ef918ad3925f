//! Comparing two bench JSON-lines files (`bench compare OLD NEW`).
//!
//! A bench run emits one JSON object per line. Two of its fields have
//! very different regression semantics:
//!
//! * `events` — simulated events per iteration. This is a property of the
//!   *simulation*, not the host: the same binary produces the same count
//!   on any machine. Any change is a behavioural diff and compares
//!   **exactly**.
//! * `secs_per_iter` — host wall clock. Noisy by nature, so it compares
//!   against a percentage threshold (default 25%), and only *slowdowns*
//!   beyond the threshold fail; speedups are reported but never fatal.
//!
//! Derived note lines (speedup/overhead summaries) carry a `name` but no
//! `secs_per_iter`/`events`; they parse fine and are skipped per-field.

use desim::obs::json::{self, Value};

/// One parsed bench line; `None` fields were absent from the JSON.
pub struct BenchLine {
    /// Benchmark name, e.g. `kernel/10k_timers_one_process`.
    pub name: String,
    /// Wall-clock seconds per iteration (host-dependent).
    pub secs_per_iter: Option<f64>,
    /// Simulated events per iteration (deterministic; 0 = not counted).
    pub events: Option<u64>,
}

/// Parse a bench JSON-lines document. Blank lines are skipped; every
/// other line must be a JSON object with a string `"name"`.
pub fn parse_lines(text: &str) -> Result<Vec<BenchLine>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line)
            .map_err(|(pos, msg)| format!("line {}: byte {pos}: {msg}", idx + 1))?;
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing string \"name\"", idx + 1))?
            .to_string();
        out.push(BenchLine {
            name,
            secs_per_iter: v.get("secs_per_iter").and_then(Value::as_f64),
            events: v.get("events").and_then(Value::as_u64),
        });
    }
    Ok(out)
}

/// The verdict of [`compare`]: per-benchmark rows plus the two failure
/// classes that matter for a gate.
pub struct Comparison {
    /// One human-readable row per compared benchmark.
    pub rows: Vec<String>,
    /// One summary line per benchmark group (the `name` prefix before the
    /// first `/`): count compared, median and worst wall-clock delta.
    pub group_summaries: Vec<String>,
    /// Names present in only one of the two files.
    pub warnings: Vec<String>,
    /// Fatal diffs: exact `events` mismatches and over-threshold slowdowns.
    pub failures: Vec<String>,
}

/// Compare `new` against `old`. Errs (rather than trivially passing)
/// when the two files share no benchmark names — that is a wiring
/// mistake, not a clean bill of health.
pub fn compare(
    old: &[BenchLine],
    new: &[BenchLine],
    threshold_pct: f64,
) -> Result<Comparison, String> {
    let mut cmp = Comparison {
        rows: Vec::new(),
        group_summaries: Vec::new(),
        warnings: Vec::new(),
        failures: Vec::new(),
    };
    // (group, secs delta %) per compared benchmark, in input order.
    let mut group_pcts: Vec<(String, Vec<f64>)> = Vec::new();
    let mut matched = 0usize;
    for n in new {
        let Some(o) = old.iter().find(|o| o.name == n.name) else {
            cmp.warnings
                .push(format!("{}: only in NEW (no baseline)", n.name));
            continue;
        };
        matched += 1;
        let mut row = format!("{}:", n.name);
        match (o.events, n.events) {
            (Some(oe), Some(ne)) if oe != ne => {
                row.push_str(&format!(" events {oe} -> {ne} [FAIL exact]"));
                cmp.failures.push(format!(
                    "{}: events changed {oe} -> {ne} (deterministic field; exact match required)",
                    n.name
                ));
            }
            (Some(oe), Some(_)) => row.push_str(&format!(" events {oe} (exact ok)")),
            _ => {}
        }
        // Register the group for every matched benchmark, even ones with
        // no comparable wall clock (derived note lines, or timing present
        // on only one side): the summary loop must see such groups and
        // warn, not index into an empty percentile list.
        let group = n.name.split('/').next().unwrap_or(&n.name).to_string();
        if !group_pcts.iter().any(|(g, _)| *g == group) {
            group_pcts.push((group.clone(), Vec::new()));
        }
        match (o.secs_per_iter, n.secs_per_iter) {
            (Some(os), Some(ns)) if os > 0.0 => {
                let pct = (ns - os) / os * 100.0;
                if let Some((_, v)) = group_pcts.iter_mut().find(|(g, _)| *g == group) {
                    v.push(pct);
                }
                row.push_str(&format!(" secs {os:.3e} -> {ns:.3e} ({pct:+.1}%)"));
                if pct > threshold_pct {
                    row.push_str(&format!(" [FAIL >{threshold_pct}%]"));
                    cmp.failures.push(format!(
                        "{}: {pct:+.1}% slower than baseline (threshold {threshold_pct}%)",
                        n.name
                    ));
                }
            }
            _ => {}
        }
        cmp.rows.push(row);
    }
    for o in old {
        if !new.iter().any(|n| n.name == o.name) {
            cmp.warnings
                .push(format!("{}: only in OLD (dropped?)", o.name));
        }
    }
    if matched == 0 {
        return Err("OLD and NEW share no benchmark names — nothing to compare".into());
    }
    for (group, mut pcts) in group_pcts {
        pcts.sort_by(|a, b| a.total_cmp(b));
        let Some(&worst) = pcts.last() else {
            cmp.warnings.push(format!(
                "group {group}: no comparable wall-clock pairs (timing on one side only)"
            ));
            continue;
        };
        // An even count has two middle values; the median is their mean.
        let mid = pcts.len() / 2;
        let median = if pcts.len() % 2 == 0 {
            (pcts[mid - 1] + pcts[mid]) / 2.0
        } else {
            pcts[mid]
        };
        cmp.group_summaries.push(format!(
            "group {group}: {} compared, median {median:+.1}%, worst {worst:+.1}%",
            pcts.len()
        ));
    }
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(name: &str, secs: f64, events: u64) -> String {
        format!(
            "{{\"name\": \"{name}\", \"iters\": 3, \"secs_per_iter\": {secs:e}, \
             \"events_per_sec\": null, \"events\": {events}, \"metrics\": {{}}}}"
        )
    }

    #[test]
    fn parses_bench_lines_and_notes() {
        let text = format!(
            "{}\n\n{}\n{{\"name\": \"fastpath/speedup\", \"speedup\": 12.5}}\n",
            line("a/x", 1e-3, 100),
            line("b/y", 2e-3, 0)
        );
        let lines = parse_lines(&text).unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].name, "a/x");
        assert_eq!(lines[0].events, Some(100));
        assert_eq!(lines[2].name, "fastpath/speedup");
        assert_eq!(lines[2].secs_per_iter, None);
        assert_eq!(lines[2].events, None);
    }

    #[test]
    fn rejects_missing_name() {
        assert!(parse_lines("{\"iters\": 3}").is_err());
        assert!(parse_lines("not json").is_err());
    }

    #[test]
    fn events_mismatch_is_fatal() {
        let old = parse_lines(&line("a/x", 1e-3, 100)).unwrap();
        let new = parse_lines(&line("a/x", 1e-3, 101)).unwrap();
        let cmp = compare(&old, &new, 25.0).unwrap();
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("events changed 100 -> 101"));
    }

    #[test]
    fn group_summary_reports_median_and_worst() {
        let old = parse_lines(&format!(
            "{}\n{}\n{}",
            line("a/x", 1.0e-3, 1),
            line("a/y", 1.0e-3, 1),
            line("b/z", 1.0e-3, 1)
        ))
        .unwrap();
        let new = parse_lines(&format!(
            "{}\n{}\n{}",
            line("a/x", 1.1e-3, 1),
            line("a/y", 0.9e-3, 1),
            line("b/z", 2.0e-3, 1)
        ))
        .unwrap();
        let cmp = compare(&old, &new, 1000.0).unwrap();
        assert_eq!(cmp.group_summaries.len(), 2);
        assert!(cmp.group_summaries[0].starts_with("group a: 2 compared"));
        assert!(cmp.group_summaries[0].contains("worst +10.0%"));
        assert!(cmp.group_summaries[1].contains("group b: 1 compared"));
        assert!(cmp.group_summaries[1].contains("worst +100.0%"));
    }

    #[test]
    fn even_group_median_lies_between_its_middle_deltas() {
        // Deltas of +8.9% and +29.0%: the median is their mean, not the
        // worse of the two.
        let pair = |x, y| parse_lines(&format!("{}\n{}", line("p/x", x, 1), line("p/y", y, 1)));
        let (old, new) = (pair(1.0e-3, 1.0e-3), pair(1.089e-3, 1.29e-3));
        let cmp = compare(&old.unwrap(), &new.unwrap(), 1000.0).unwrap();
        let summary = &cmp.group_summaries[0];
        let median = summary
            .split("median ")
            .nth(1)
            .and_then(|r| r.split('%').next());
        let median: f64 = median.and_then(|m| m.parse().ok()).expect(summary);
        assert!(8.9 < median && median < 29.0, "{summary}");
        assert!(summary.contains("worst +29.0%"), "{summary}");
    }

    #[test]
    fn group_without_comparable_timing_warns_instead_of_panicking() {
        // A group whose only lines are derived notes (no secs_per_iter)
        // matches by name on both sides but has nothing to summarize:
        // that must come out as a warning, never an empty-list index.
        let note = "{\"name\": \"fastpath/speedup\", \"speedup\": 12.5}";
        let old = parse_lines(&format!("{}\n{note}", line("a/x", 1e-3, 1))).unwrap();
        let new = parse_lines(&format!("{}\n{note}", line("a/x", 1e-3, 1))).unwrap();
        let cmp = compare(&old, &new, 25.0).unwrap();
        assert_eq!(cmp.group_summaries.len(), 1);
        assert!(cmp.group_summaries[0].starts_with("group a:"));
        assert!(
            cmp.warnings
                .iter()
                .any(|w| w.contains("group fastpath: no comparable wall-clock pairs")),
            "one-sided group must warn, got {:?}",
            cmp.warnings
        );
        assert!(cmp.failures.is_empty());
    }

    #[test]
    fn slowdown_beyond_threshold_fails_speedup_never_does() {
        let old = parse_lines(&line("a/x", 1.0e-3, 100)).unwrap();
        let slow = parse_lines(&line("a/x", 1.3e-3, 100)).unwrap();
        let cmp = compare(&old, &slow, 25.0).unwrap();
        assert_eq!(cmp.failures.len(), 1, "30% slowdown must fail at 25%");
        let cmp = compare(&old, &slow, 50.0).unwrap();
        assert!(cmp.failures.is_empty(), "30% slowdown passes at 50%");
        let fast = parse_lines(&line("a/x", 0.2e-3, 100)).unwrap();
        let cmp = compare(&old, &fast, 25.0).unwrap();
        assert!(cmp.failures.is_empty(), "big speedups are never fatal");
    }

    #[test]
    fn one_sided_names_warn_and_disjoint_errors() {
        let old = parse_lines(&format!(
            "{}\n{}",
            line("a/x", 1e-3, 1),
            line("a/gone", 1e-3, 1)
        ))
        .unwrap();
        let new = parse_lines(&format!(
            "{}\n{}",
            line("a/x", 1e-3, 1),
            line("a/new", 1e-3, 1)
        ))
        .unwrap();
        let cmp = compare(&old, &new, 25.0).unwrap();
        assert!(cmp.failures.is_empty());
        assert_eq!(cmp.warnings.len(), 2);
        let other = parse_lines(&line("z/z", 1e-3, 1)).unwrap();
        assert!(compare(&old, &other, 25.0).is_err());
    }
}
