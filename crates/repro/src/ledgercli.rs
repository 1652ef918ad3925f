//! CLI front-ends for the campaign engine and the ledger tools:
//! printing and exit codes. The actual work lives in
//! [`repro::campaign`] and [`repro::ledger`].

use std::path::PathBuf;

use repro::campaign::{self, CampaignConfig, Spec};
use repro::ledger;

use crate::cli::Args;

/// `repro campaign [--spec quick|tiny] [--label NAME] [--ledger-dir DIR]
/// [--cache FILE] [--perturb loss[=RATE]] [--no-heartbeat]
/// [--min-cache-hits PCT] [--no-guidelines]`
pub(crate) fn cmd_campaign(args: &Args) {
    let spec = Spec::parse(args.text("--spec").unwrap_or("quick"))
        .expect("the parser admits only quick and tiny");
    let mut cfg = CampaignConfig::new(spec);
    if let Some(label) = args.text("--label") {
        cfg.label = label.to_string();
    }
    if let Some(dir) = args.text("--ledger-dir") {
        cfg.ledger_dir = PathBuf::from(dir);
    }
    if let Some(path) = args.text("--cache") {
        cfg.cache_path = PathBuf::from(path);
    }
    if let Some(rate) = args.num("--perturb") {
        cfg.perturb_loss = rate;
    }
    if args.switch("--no-heartbeat") {
        cfg.heartbeat_secs = None;
    }
    let min_hits = args.num("--min-cache-hits");

    crate::header(&format!(
        "Campaign: {} spec, {} cells{}",
        spec.name(),
        spec.cells().len(),
        if cfg.perturb_loss > 0.0 {
            format!(", perturb loss +{:e}", cfg.perturb_loss)
        } else {
            String::new()
        }
    ));
    let report = match campaign::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{} runs in {:.1}s host time, {} cache hits ({:.0}%)",
        report.runs,
        report.host_secs,
        report.cache_hits,
        report.hit_pct()
    );
    println!("ledger: {}", report.ledger_path.display());
    let mut failed = 0usize;
    for (name, pass, detail) in &report.guidelines {
        println!(
            "{} {name:<32} {detail}",
            if *pass { "PASS" } else { "FAIL" }
        );
        if !pass {
            failed += 1;
        }
    }
    // A perturbed campaign exists to violate the physics on purpose, so
    // CI runs it with --no-guidelines: outcomes are still printed and
    // recorded in the ledger, they just stop gating the exit status.
    if failed > 0 {
        if args.switch("--no-guidelines") {
            eprintln!("{failed} campaign guideline(s) failed (not gating: --no-guidelines)");
        } else {
            eprintln!("{failed} campaign guideline(s) failed");
            std::process::exit(1);
        }
    }
    if let Some(min) = min_hits {
        if report.hit_pct() < min {
            eprintln!(
                "cache hit rate {:.0}% is below the required {min:.0}%",
                report.hit_pct()
            );
            std::process::exit(1);
        }
    }
}

/// `repro ledger <diff|top|report> ...`
pub(crate) fn cmd_ledger(args: &Args) {
    let load = |path: &str| -> Vec<desim::obs::ledger::RunRow> {
        match ledger::load(std::path::Path::new(path)) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    };
    match args.name() {
        "ledger diff" => {
            let (old_path, new_path) = (args.arg(0), args.arg(1));
            let threshold = args.num("--threshold").unwrap_or(5.0);
            let (old, new) = (load(old_path), load(new_path));
            let d = ledger::diff(&old, &new);
            crate::header(&format!("Ledger diff: {old_path} -> {new_path}"));
            println!(
                "{} scenarios matched, {} only in old, {} only in new",
                d.matched.len(),
                d.only_old.len(),
                d.only_new.len()
            );
            for key in &d.only_old {
                println!("  only old: {key}");
            }
            for key in &d.only_new {
                println!("  only new: {key}");
            }
            let configs = d.config_changes();
            println!("{} config changes (fingerprint moved)", configs.len());
            for m in &configs {
                println!("  config: {} ({:.3}x elapsed)", m.scenario, m.ratio);
            }
            let digests = d.digest_changes();
            println!("{} digest changes", digests.len());
            for m in &digests {
                let (a, b) = m.elapsed;
                if a == b {
                    println!("  digest moved, elapsed equal: {}", m.scenario);
                } else {
                    println!("  elapsed moved ({a} -> {b} ns): {}", m.scenario);
                }
            }
            let regressions = d.regressions(threshold);
            println!(
                "{} elapsed regressions beyond {threshold}%",
                regressions.len()
            );
            for m in &regressions {
                println!(
                    "  slower: {} {:.4}s -> {:.4}s ({:.3}x)",
                    m.scenario,
                    m.elapsed.0 as f64 / 1e9,
                    m.elapsed.1 as f64 / 1e9,
                    m.ratio
                );
            }
            if !digests.is_empty() {
                std::process::exit(1);
            }
            if !regressions.is_empty() {
                std::process::exit(3);
            }
        }
        "ledger top" => {
            let (old_path, new_path) = (args.arg(0), args.arg(1));
            let limit = args.num("--limit").map_or(10, |n| n as usize);
            let min_delta = args.num("--min-delta");
            let (old, new) = (load(old_path), load(new_path));
            let shifts = ledger::top(&old, &new, limit);
            crate::header(&format!(
                "Ledger top: blame-share movement {old_path} -> {new_path}"
            ));
            if shifts.is_empty() {
                println!("no scenarios in common");
            }
            for (i, s) in shifts.iter().enumerate() {
                println!(
                    "{:>3}. {} — {} {:.1}% -> {:.1}% (Δ{:.1}pp), elapsed {:.3}x",
                    i + 1,
                    s.scenario,
                    s.bucket,
                    100.0 * s.shares.0,
                    100.0 * s.shares.1,
                    100.0 * s.max_delta,
                    s.ratio
                );
                for (bucket, a, b) in s.deltas.iter().skip(1).take(3) {
                    println!("       {bucket}: {:.1}% -> {:.1}%", 100.0 * a, 100.0 * b);
                }
            }
            if let Some(min) = min_delta {
                let max = shifts.first().map_or(0.0, |s| s.max_delta);
                if max < min {
                    eprintln!("largest blame-share delta {max:.4} is below {min}");
                    std::process::exit(1);
                }
            }
        }
        "ledger report" => {
            let path = args.arg(0);
            let rows = load(path);
            let (tables, summary) = ledger::report(&rows);
            crate::header(&format!("Ledger report: {path}"));
            print!("{summary}");
            for table in &tables {
                if let Some(mut f) = crate::dat_file(&format!("campaign_{}", table.workload)) {
                    use std::io::Write as _;
                    let _ = f.write_all(table.dat.as_bytes());
                    println!(
                        "wrote campaign_{}.dat ({} rows)",
                        table.workload, table.rows
                    );
                }
            }
        }
        other => unreachable!("{other:?} is not a ledger command"),
    }
}
