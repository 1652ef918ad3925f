//! `repro ledger` — cross-run analysis over campaign ledgers.
//!
//! Ledger rows are joined across two campaigns by scenario key (the
//! stable axes string), so the tools survive spec reorderings and
//! partial sweeps:
//!
//! - [`diff`] flags **config changes** (the fingerprint moved — someone
//!   changed an input), **digest changes** (same fingerprint, different
//!   event stream: either determinism is broken or the model changed on
//!   purpose, always fatal), and **elapsed
//!   regressions** beyond a threshold. Digest and event-count comparison
//!   is exact: these fields are pure functions of the config.
//! - [`top`] ranks the matched rows by how much their blame
//!   decomposition moved — the biggest `*_share` delta first — so a
//!   tuning change surfaces as "slow-start share went from 4% to 31% on
//!   these scenarios", not just "it got slower".
//! - [`report`] folds one ledger into per-workload `.dat` tables and a
//!   text summary.

use std::collections::BTreeMap;
use std::path::Path;

use desim::obs::json::Value;
use desim::obs::ledger::{read_runs, RunRow};

/// Load the run rows of a ledger file, keeping file order.
pub fn load(path: &Path) -> Result<Vec<RunRow>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    read_runs(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn by_key(rows: &[RunRow]) -> BTreeMap<&str, &RunRow> {
    rows.iter().map(|r| (r.scenario.as_str(), r)).collect()
}

/// One scenario present in both campaigns.
#[derive(Debug)]
pub struct Matched {
    /// The shared scenario key.
    pub scenario: String,
    /// True when the fingerprint moved (an input changed).
    pub config_changed: bool,
    /// True when the fingerprint is identical but the digest is not:
    /// the simulator went non-deterministic, or its model changed.
    pub digest_changed: bool,
    /// Old → new virtual elapsed, nanoseconds.
    pub elapsed: (u64, u64),
    /// `new/old` elapsed ratio (1.0 = unchanged).
    pub ratio: f64,
}

/// What [`diff`] found between two ledgers.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Scenarios present in both ledgers.
    pub matched: Vec<Matched>,
    /// Keys only in the old ledger.
    pub only_old: Vec<String>,
    /// Keys only in the new ledger.
    pub only_new: Vec<String>,
}

impl DiffReport {
    /// Matched scenarios whose event digest changed under an unchanged
    /// fingerprint: a bug unless the model was changed on purpose.
    pub fn digest_changes(&self) -> Vec<&Matched> {
        self.matched.iter().filter(|m| m.digest_changed).collect()
    }

    /// Matched scenarios whose fingerprint moved (config change).
    pub fn config_changes(&self) -> Vec<&Matched> {
        self.matched.iter().filter(|m| m.config_changed).collect()
    }

    /// Matched scenarios that got slower by more than `threshold_pct`.
    pub fn regressions(&self, threshold_pct: f64) -> Vec<&Matched> {
        let limit = 1.0 + threshold_pct / 100.0;
        let mut out: Vec<&Matched> = self.matched.iter().filter(|m| m.ratio > limit).collect();
        out.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
        out
    }
}

/// Join two ledgers by scenario key and classify every match.
pub fn diff(old: &[RunRow], new: &[RunRow]) -> DiffReport {
    let old_by = by_key(old);
    let new_by = by_key(new);
    let mut report = DiffReport::default();
    for (key, o) in &old_by {
        let Some(n) = new_by.get(key) else {
            report.only_old.push(key.to_string());
            continue;
        };
        let config_changed = o.fingerprint != n.fingerprint;
        report.matched.push(Matched {
            scenario: key.to_string(),
            config_changed,
            // A digest change under the *same* fingerprint is broken
            // determinism; under a new fingerprint it is expected.
            digest_changed: !config_changed && (o.digest != n.digest || o.events != n.events),
            elapsed: (o.elapsed_ns, n.elapsed_ns),
            ratio: n.elapsed_ns as f64 / o.elapsed_ns.max(1) as f64,
        });
    }
    for key in new_by.keys() {
        if !old_by.contains_key(key) {
            report.only_new.push(key.to_string());
        }
    }
    report
}

/// One scenario ranked by blame movement.
#[derive(Debug)]
pub struct BlameShift {
    /// The shared scenario key.
    pub scenario: String,
    /// Largest absolute `*_share` delta across the blame buckets.
    pub max_delta: f64,
    /// The bucket that moved the most.
    pub bucket: String,
    /// Old → new share of that bucket.
    pub shares: (f64, f64),
    /// `new/old` elapsed ratio.
    pub ratio: f64,
    /// Every bucket's `(name, old, new)` with a nonzero delta, largest
    /// first.
    pub deltas: Vec<(String, f64, f64)>,
}

fn share_map(blame: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Value::Obj(members) = blame {
        for (k, v) in members {
            if k.ends_with("_share") {
                if let Some(x) = v.as_f64() {
                    out.insert(k.clone(), x);
                }
            }
        }
    }
    out
}

/// Rank the scenarios common to both ledgers by how far their blame
/// decomposition moved, worst first. Ties break toward the bigger
/// elapsed ratio, then the key.
pub fn top(old: &[RunRow], new: &[RunRow], limit: usize) -> Vec<BlameShift> {
    let old_by = by_key(old);
    let new_by = by_key(new);
    let mut shifts = Vec::new();
    for (key, o) in &old_by {
        let Some(n) = new_by.get(key) else { continue };
        let old_shares = share_map(&o.blame);
        let new_shares = share_map(&n.blame);
        let mut deltas: Vec<(String, f64, f64)> = Vec::new();
        let buckets: std::collections::BTreeSet<&String> =
            old_shares.keys().chain(new_shares.keys()).collect();
        for bucket in buckets {
            let a = old_shares.get(bucket).copied().unwrap_or(0.0);
            let b = new_shares.get(bucket).copied().unwrap_or(0.0);
            if a != b {
                deltas.push((bucket.clone(), a, b));
            }
        }
        deltas.sort_by(|x, y| (y.2 - y.1).abs().total_cmp(&(x.2 - x.1).abs()));
        let (bucket, old_s, new_s) = deltas
            .first()
            .cloned()
            .unwrap_or_else(|| ("none".to_string(), 0.0, 0.0));
        shifts.push(BlameShift {
            scenario: key.to_string(),
            max_delta: (new_s - old_s).abs(),
            bucket,
            shares: (old_s, new_s),
            ratio: n.elapsed_ns as f64 / o.elapsed_ns.max(1) as f64,
            deltas,
        });
    }
    shifts.sort_by(|a, b| {
        b.max_delta
            .total_cmp(&a.max_delta)
            .then(b.ratio.total_cmp(&a.ratio))
            .then(a.scenario.cmp(&b.scenario))
    });
    shifts.truncate(limit);
    shifts
}

/// A per-workload `.dat` table plus its text lines.
#[derive(Debug)]
pub struct WorkloadTable {
    /// The workload axis value.
    pub workload: String,
    /// `.dat` body: header comment then one row per scenario.
    pub dat: String,
    /// Row count.
    pub rows: usize,
}

fn axis(row: &RunRow, key: &str) -> String {
    row.axes
        .get(key)
        .map(|v| match v {
            Value::Str(s) => s.clone(),
            Value::Num(n) => format!("{n}"),
            Value::Bool(b) => b.to_string(),
            _ => String::new(),
        })
        .unwrap_or_default()
}

/// Fold one ledger into per-workload tables (sorted by workload, rows in
/// ledger order) and a short text summary.
pub fn report(rows: &[RunRow]) -> (Vec<WorkloadTable>, String) {
    let mut groups: BTreeMap<String, Vec<&RunRow>> = BTreeMap::new();
    for row in rows {
        groups.entry(axis(row, "workload")).or_default().push(row);
    }
    let mut tables = Vec::new();
    for (workload, group) in &groups {
        let mut dat = String::from("# impl tuning net loss coll elapsed_secs slow_start_share\n");
        for row in group {
            let slow_start = row
                .blame
                .get("slow_start_share")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            dat.push_str(&format!(
                "{} {} {} {} {} {:.6} {:.4}\n",
                axis(row, "impl"),
                axis(row, "tuning"),
                axis(row, "net"),
                axis(row, "loss"),
                axis(row, "coll"),
                row.elapsed_ns as f64 / 1e9,
                slow_start,
            ));
        }
        tables.push(WorkloadTable {
            workload: workload.clone(),
            dat,
            rows: group.len(),
        });
    }
    let mut summary = format!("{} runs over {} workloads\n", rows.len(), groups.len());
    for (workload, group) in &groups {
        let slowest = group
            .iter()
            .max_by_key(|r| r.elapsed_ns)
            .expect("group is non-empty");
        let fastest = group
            .iter()
            .min_by_key(|r| r.elapsed_ns)
            .expect("group is non-empty");
        summary.push_str(&format!(
            "  {workload}: {} runs, elapsed {:.4}s..{:.4}s (fastest {}, slowest {})\n",
            group.len(),
            fastest.elapsed_ns as f64 / 1e9,
            slowest.elapsed_ns as f64 / 1e9,
            fastest.scenario,
            slowest.scenario,
        ));
    }
    (tables, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::obs::ledger::SCHEMA;

    fn row(scenario: &str, fp: &str, digest_seed: u64, elapsed_ns: u64, ss_share: f64) -> RunRow {
        RunRow {
            campaign: "t".into(),
            seq: 0,
            scenario: scenario.into(),
            fingerprint: fp.into(),
            axes: Value::Obj(vec![
                ("workload".into(), Value::Str("pp".into())),
                ("impl".into(), Value::Str("MPICH2".into())),
                ("tuning".into(), Value::Str("default".into())),
                ("net".into(), Value::Str("grid".into())),
                ("loss".into(), Value::Num(0.0)),
                ("coll".into(), Value::Str("default".into())),
            ]),
            digest: format!("{digest_seed:032x}"),
            events: 10,
            elapsed_ns,
            clean: true,
            blame: Value::Obj(vec![
                ("slow_start_share".into(), Value::Num(ss_share)),
                ("wire_share".into(), Value::Num(1.0 - ss_share)),
            ]),
            metrics: Value::Obj(vec![]),
            cached: false,
            host_ns: 0,
        }
    }

    #[test]
    fn diff_classifies_changes() {
        let old = vec![
            row("a", "00000000000000aa", 1, 100, 0.1),
            row("b", "00000000000000bb", 2, 100, 0.1),
            row("c", "00000000000000cc", 3, 100, 0.1),
            row("gone", "00000000000000dd", 4, 100, 0.1),
        ];
        let new = vec![
            row("a", "00000000000000aa", 1, 100, 0.1), // unchanged
            row("b", "00000000000000be", 9, 100, 0.1), // config change
            row("c", "00000000000000cc", 7, 100, 0.1), // digest change!
            row("fresh", "00000000000000ee", 5, 100, 0.1),
        ];
        let d = diff(&old, &new);
        assert_eq!(d.matched.len(), 3);
        assert_eq!(d.only_old, vec!["gone".to_string()]);
        assert_eq!(d.only_new, vec!["fresh".to_string()]);
        let digests: Vec<&str> = d
            .digest_changes()
            .iter()
            .map(|m| m.scenario.as_str())
            .collect();
        assert_eq!(digests, vec!["c"]);
        let configs: Vec<&str> = d
            .config_changes()
            .iter()
            .map(|m| m.scenario.as_str())
            .collect();
        assert_eq!(configs, vec!["b"]);
    }

    #[test]
    fn diff_regressions_respect_threshold() {
        let old = vec![row("a", "00000000000000aa", 1, 100, 0.1)];
        let new = vec![row("a", "00000000000000aa", 1, 104, 0.1)];
        let d = diff(&old, &new);
        assert!(d.regressions(5.0).is_empty());
        assert_eq!(d.regressions(2.0).len(), 1);
    }

    #[test]
    fn top_ranks_by_share_delta() {
        let old = vec![
            row("quiet", "00000000000000aa", 1, 100, 0.10),
            row("loud", "00000000000000bb", 2, 100, 0.10),
        ];
        let new = vec![
            row("quiet", "00000000000000aa", 1, 100, 0.11),
            row("loud", "00000000000000bc", 3, 180, 0.45),
        ];
        let shifts = top(&old, &new, 10);
        assert_eq!(shifts[0].scenario, "loud");
        assert!((shifts[0].max_delta - 0.35).abs() < 1e-9);
        assert!(shifts[0].max_delta > shifts[1].max_delta);
        assert!(!shifts[0].deltas.is_empty());
    }

    #[test]
    fn report_groups_by_workload() {
        let rows = vec![
            row("a", "00000000000000aa", 1, 100_000_000, 0.1),
            row("b", "00000000000000bb", 2, 300_000_000, 0.2),
        ];
        let (tables, summary) = report(&rows);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].workload, "pp");
        assert_eq!(tables[0].rows, 2);
        assert!(tables[0].dat.starts_with("# impl tuning"));
        assert!(summary.contains("2 runs over 1 workloads"));
        let _ = SCHEMA; // schema is checked at parse time by read_runs
    }
}
