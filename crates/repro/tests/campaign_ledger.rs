//! End-to-end contract of `repro campaign` + `repro ledger`: determinism,
//! caching, schema validity, and regression triage, driven through the
//! real binary.

use std::path::{Path, PathBuf};
use std::process::Command;

use desim::obs::json;
use desim::obs::ledger::{normalize_line, read_runs};

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn run_campaign(dir: &Path, label: &str, extra: &[&str]) -> String {
    let ledger_dir = dir.join("ledger");
    let cache = dir.join("cache.json");
    let mut args = vec![
        "campaign",
        "--spec",
        "tiny",
        "--label",
        label,
        "--no-heartbeat",
    ];
    let ledger_dir_s = ledger_dir.to_str().unwrap().to_string();
    let cache_s = cache.to_str().unwrap().to_string();
    args.extend_from_slice(&["--ledger-dir", &ledger_dir_s, "--cache", &cache_s]);
    args.extend_from_slice(extra);
    let out = repro(&args);
    assert!(
        out.status.success(),
        "campaign {label} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(ledger_dir.join(format!("{label}.jsonl"))).expect("ledger written")
}

/// Campaign summary row fields we assert on.
fn summary(ledger: &str) -> (u64, u64) {
    let last = ledger.lines().last().expect("ledger has lines");
    let doc = json::parse(last).expect("summary row parses");
    assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("summary"));
    (
        doc.get("runs").and_then(|v| v.as_u64()).expect("runs"),
        doc.get("cache_hits")
            .and_then(|v| v.as_u64())
            .expect("cache_hits"),
    )
}

fn normalized(ledger: &str) -> String {
    ledger
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| normalize_line(l).expect("ledger line validates"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn rerun_is_fully_cached_and_byte_identical() {
    let dir = tmp("campaign_rerun");
    let cold = run_campaign(&dir, "one", &[]);
    let warm = run_campaign(&dir, "two", &[]);

    let (cold_runs, cold_hits) = summary(&cold);
    let (warm_runs, warm_hits) = summary(&warm);
    assert_eq!(cold_runs, warm_runs);
    assert_eq!(cold_hits, 0, "first run must simulate everything");
    assert_eq!(warm_hits, warm_runs, "second run must be 100% cache hits");

    // Modulo host-time fields (and the campaign label), the two ledgers
    // are byte-identical: every deterministic field replays exactly.
    let a = normalized(&cold).replace("\"campaign\":\"one\"", "\"campaign\":\"X\"");
    let b = normalized(&warm).replace("\"campaign\":\"two\"", "\"campaign\":\"X\"");
    assert_eq!(a, b, "normalized ledgers differ between cold and warm runs");

    // Rows parse back through the generic JSON parser into the same
    // values the writer emitted.
    for line in cold.lines() {
        let doc = json::parse(line).expect("row is valid JSON");
        assert!(doc.get("kind").is_some());
    }
    let rows = read_runs(&cold).expect("run rows parse");
    assert_eq!(rows.len(), cold_runs as usize);
    assert!(rows.iter().all(|r| r.digest.len() == 32));
}

#[test]
fn ledger_passes_repro_validate() {
    let dir = tmp("campaign_validate");
    run_campaign(&dir, "v", &[]);
    let path = dir.join("ledger/v.jsonl");
    let out = repro(&["validate", path.to_str().unwrap(), "--summary"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "validate failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("valid JSON lines"), "unexpected: {stdout}");
}

#[test]
fn diff_same_spec_reports_zero_digest_changes() {
    let dir = tmp("campaign_diff");
    run_campaign(&dir, "a", &[]);
    run_campaign(&dir, "b", &[]);
    let a = dir.join("ledger/a.jsonl");
    let b = dir.join("ledger/b.jsonl");
    let out = repro(&["ledger", "diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "diff failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("0 digest changes"), "unexpected: {stdout}");
    assert!(stdout.contains("0 config changes"), "unexpected: {stdout}");

    // A moved digest is told apart from a moved elapsed time, and either
    // still fails the diff.
    let mut rows = read_runs(&std::fs::read_to_string(&b).unwrap()).expect("run rows parse");
    rows[0].digest = "0".repeat(32);
    rows[1].digest = "0".repeat(32);
    let elapsed = rows[1].elapsed_ns;
    rows[1].elapsed_ns += 1;
    let c = dir.join("ledger/c.jsonl");
    let lines: Vec<String> = rows.iter().map(|r| r.to_line()).collect();
    std::fs::write(&c, lines.join("\n")).unwrap();
    let out = repro(&["ledger", "diff", a.to_str().unwrap(), c.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "unexpected: {stdout}");
    assert!(stdout.contains("2 digest changes"), "unexpected: {stdout}");
    let equal = format!("digest moved, elapsed equal: {}", rows[0].scenario);
    let moved = format!(
        "elapsed moved ({elapsed} -> {} ns): {}",
        elapsed + 1,
        rows[1].scenario
    );
    assert!(stdout.contains(&equal), "unexpected: {stdout}");
    assert!(stdout.contains(&moved), "unexpected: {stdout}");
}

#[test]
fn perturbation_surfaces_in_ledger_top_with_blame_delta() {
    let dir = tmp("campaign_perturb");
    run_campaign(&dir, "clean", &[]);
    run_campaign(&dir, "lossy", &["--perturb", "loss=0.003"]);
    let clean = dir.join("ledger/clean.jsonl");
    let lossy = dir.join("ledger/lossy.jsonl");

    // Every fingerprint moved (the loss overlay is a config change), but
    // the scenario keys still match row-for-row.
    let out = repro(&[
        "ledger",
        "diff",
        clean.to_str().unwrap(),
        lossy.to_str().unwrap(),
        "--threshold",
        "10000",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "diff: {stdout}");
    assert!(stdout.contains("11 config changes"), "unexpected: {stdout}");
    assert!(stdout.contains("0 digest changes"), "unexpected: {stdout}");

    // The triage view must attribute the damage: some scenario's blame
    // decomposition moved by a clearly nonzero share.
    let out = repro(&[
        "ledger",
        "top",
        clean.to_str().unwrap(),
        lossy.to_str().unwrap(),
        "--min-delta",
        "0.05",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "top found no blame movement:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn guidelines_format_json_is_parseable() {
    // The guideline checks themselves are exercised by `repro
    // guidelines` in CI; here only the JSON shape of a cheap subset.
    let out = repro(&["guidelines", "tuned-tcp-beats-untuned", "--format", "json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "guidelines failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&stdout).expect("guidelines --format json emits valid JSON");
    let json::Value::Arr(items) = &doc else {
        panic!("expected a JSON array, got: {stdout}");
    };
    assert_eq!(items.len(), 1);
    let g = &items[0];
    assert_eq!(
        g.get("name").and_then(|v| v.as_str()),
        Some("tuned-tcp-beats-untuned")
    );
    assert_eq!(g.get("pass"), Some(&json::Value::Bool(true)));
    assert!(g.get("claim").is_some() && g.get("detail").is_some());
}
