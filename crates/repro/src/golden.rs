//! `repro golden` — golden-run digests: the mechanical guard on the
//! simulator's bit-reproducibility claim.
//!
//! Each of the eight scenarios in [`SCENARIOS`] is a list of runs from
//! the [`catalogue`] registry. It runs them with a [`DigestSink`]
//! attached, folds the full structured event stream plus each run's
//! closing scalars (elapsed time, per-rank times, every
//! `RankCtx::record` measurement, the quiescence flag) into one 128-bit
//! digest, and compares it against the committed corpus under
//! `results/golden/`, the one place a run digest is pinned. A golden run
//! is exactly the registry's run, so the digest guards the wiring every
//! other command reads. Any change to a tuning constant, a protocol
//! decision, or an event emission — however small — moves the digest
//! and fails `repro golden check` with the offending scenario named.
//!
//! `repro golden record` re-records the corpus after an *intentional*
//! behaviour change; the diff of `results/golden/*.json` then documents
//! exactly which scenarios moved (see DESIGN.md §10).
//!
//! `repro golden check` runs every scenario once and compares it with the
//! corpus. A corpus file that records no scenario (a renamed or dropped
//! one's leftover) fails the check too.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use desim::obs::digest::DigestSink;
use desim::obs::Obs;
use mpisim::RunReport;

use crate::catalogue;
use crate::cli::Args;

/// One recomputed golden entry.
pub struct GoldenRecord {
    /// Scenario name (also the corpus file stem).
    pub scenario: &'static str,
    /// 128-bit digest, 32 hex digits.
    pub digest: String,
    /// Structured events folded into the digest.
    pub events: u64,
    /// Summed virtual elapsed time over the scenario's sub-runs, ns.
    pub elapsed_ns: u64,
}

/// Fold a finished run's closing scalars into the digest: a label
/// separating sub-runs, the elapsed and per-rank times, every recorded
/// measurement, and the quiescence flag. Returns the run's elapsed ns.
fn seal(sink: &DigestSink, label: &str, report: &RunReport) -> u64 {
    sink.absorb_str(label);
    let elapsed = report.elapsed.as_nanos();
    sink.absorb_u64(elapsed);
    for d in &report.per_rank {
        sink.absorb_u64(d.as_nanos());
    }
    for (rank, key, value) in &report.records {
        sink.absorb_u64(*rank as u64);
        sink.absorb_str(key);
        sink.absorb_f64(*value);
    }
    sink.absorb_u64(report.clean as u64);
    elapsed
}

/// A golden scenario's sub-runs, in digest order: the label each is
/// sealed under, and the [`catalogue`] run it is.
type SubRuns = &'static [(&'static str, &'static str)];

/// The corpus: scenario name → sub-runs. Order is the check/record order.
/// Together they cover every layer: the Figs. 3/6/7 ping-pong at eager,
/// rendezvous and bulk sizes, the Fig. 9 slow start per kernel
/// configuration, Table 4's 1-byte latencies, NPB CG and FT with their
/// full-run extrapolations, ray2mesh, both fault paths (seeded loss and
/// FT rank kills), every selectable collective algorithm, and the rank
/// engine's own checks (`engine`: a WAN ping-pong with and without
/// seeded loss, GridMPI collectives on 16 ranks, ray2mesh on 33).
pub const SCENARIOS: &[(&str, SubRuns)] = &[
    ("pingpong", &[("pingpong", "pingpong_sizes")]),
    (
        "slowstart",
        &[
            ("untuned", "send_16m_untuned"),
            ("tuned_unpaced", "send_16m_tuned"),
            ("tuned_paced", "send_16m_paced"),
        ],
    ),
    (
        "table4",
        &[
            ("MPICH2", "latency_cluster_MPICH2"),
            ("GridMPI", "latency_cluster_GridMPI"),
            ("MPICH-Madeleine", "latency_cluster_MPICH-Madeleine"),
            ("OpenMPI", "latency_cluster_OpenMPI"),
            ("MPICH2", "latency_grid_MPICH2"),
            ("GridMPI", "latency_grid_GridMPI"),
            ("MPICH-Madeleine", "latency_grid_MPICH-Madeleine"),
            ("OpenMPI", "latency_grid_OpenMPI"),
        ],
    ),
    ("nas", &[("CG", "nas_cg"), ("FT", "nas_ft")]),
    ("ray2mesh", &[("ray2mesh", "ray2mesh")]),
    (
        "faults",
        &[
            ("lossy_wan", "lossy_wan"),
            ("ft_ray2mesh", "ft_ray2mesh_lossy"),
        ],
    ),
    (
        "coll",
        &[
            ("bcast_linear", "bcast/linear"),
            ("bcast_chain", "bcast/chain"),
            ("bcast_pipeline", "bcast/pipeline"),
            ("bcast_binary", "bcast/binary"),
            ("bcast_inorder", "bcast/inorder_binary"),
            ("bcast_binomial", "bcast/binomial"),
            ("bcast_2lvl_binomial", "bcast/binomial+2lvl"),
            ("allreduce_ring", "allreduce/ring"),
            ("allreduce_rd", "allreduce/recursive_doubling"),
            ("allreduce_rab", "allreduce/rabenseifner"),
            ("allreduce_binomial", "allreduce/binomial"),
            ("allreduce_2lvl_ring", "allreduce/ring+2lvl"),
        ],
    ),
    (
        "engine",
        &[
            ("pingpong", "engine_pingpong"),
            ("faults", "engine_faults"),
            ("collectives", "engine_collectives"),
            ("ray2mesh", "engine_ray2mesh"),
        ],
    ),
];

/// Recompute one scenario's digest: run its sub-runs in order with the
/// digest sink attached, sealing each.
pub fn run_scenario(name: &'static str, runs: SubRuns) -> GoldenRecord {
    let sink = Arc::new(DigestSink::new());
    let mut elapsed_ns = 0;
    for &(seal_label, label) in runs {
        let run = catalogue::run(label);
        let nas = run.nas;
        let report = run.execute(Obs::none().recorder(sink.clone()));
        elapsed_ns += seal(&sink, seal_label, &report);
        if let Some(nas) = nas {
            // The full-run extrapolation is part of the contract too.
            sink.absorb_u64(nas.estimate(&report).as_nanos());
        }
    }
    GoldenRecord {
        scenario: name,
        digest: sink.value().to_string(),
        events: sink.events(),
        elapsed_ns,
    }
}

fn corpus_path(dir: &Path, scenario: &str) -> PathBuf {
    dir.join(format!("{scenario}.json"))
}

/// The `*.json` files in `dir` that no scenario in [`SCENARIOS`]
/// records, such as a renamed or dropped scenario's leftover.
fn stray_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new(); // each scenario reports the unreadable directory
    };
    let mut stray: Vec<PathBuf> = entries
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter(|p| {
            SCENARIOS
                .iter()
                .all(|&(name, _)| corpus_path(dir, name) != *p)
        })
        .collect();
    stray.sort();
    stray
}

fn write_record(dir: &Path, rec: &GoldenRecord) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let body = format!(
        "{{\n  \"scenario\": {},\n  \"digest\": {},\n  \"events\": {},\n  \"elapsed_ns\": {}\n}}\n",
        crate::json_str(rec.scenario),
        crate::json_str(&rec.digest),
        rec.events,
        rec.elapsed_ns
    );
    std::fs::write(corpus_path(dir, rec.scenario), body)
}

/// A committed golden entry, parsed back from the corpus.
struct StoredRecord {
    digest: String,
    events: u64,
    elapsed_ns: u64,
}

fn read_record(dir: &Path, scenario: &str) -> Result<StoredRecord, String> {
    let path = corpus_path(dir, scenario);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {}: {e} (run `repro golden record`?)",
            path.display()
        )
    })?;
    let v = desim::obs::json::parse(&text)
        .map_err(|(pos, msg)| format!("{}: invalid JSON at byte {pos}: {msg}", path.display()))?;
    let field = |key: &str| {
        v.get(key)
            .ok_or_else(|| format!("{}: missing field {key:?}", path.display()))
    };
    Ok(StoredRecord {
        digest: field("digest")?
            .as_str()
            .ok_or_else(|| format!("{}: \"digest\" is not a string", path.display()))?
            .to_string(),
        events: field("events")?
            .as_u64()
            .ok_or_else(|| format!("{}: \"events\" is not an integer", path.display()))?,
        elapsed_ns: field("elapsed_ns")?
            .as_u64()
            .ok_or_else(|| format!("{}: \"elapsed_ns\" is not an integer", path.display()))?,
    })
}

/// Recompute one scenario and compare it with the corpus, printing the
/// verdict. Returns whether it matched.
fn check_scenario(dir: &Path, name: &'static str, runs: SubRuns) -> bool {
    let got = run_scenario(name, runs);
    match read_record(dir, name) {
        Err(msg) => {
            println!("{name:<10} FAIL  {msg}");
            false
        }
        Ok(want) if want.digest == got.digest && want.events == got.events => {
            println!(
                "{:<10} ok    digest {} ({} events)",
                name, got.digest, got.events
            );
            true
        }
        Ok(want) => {
            println!("{name:<10} FAIL  behaviour diverged from the recorded golden run:");
            println!(
                "           digest     {} (want {})",
                got.digest, want.digest
            );
            println!(
                "           events     {} (want {})",
                got.events, want.events
            );
            println!(
                "           elapsed_ns {} (want {})",
                got.elapsed_ns, want.elapsed_ns
            );
            false
        }
    }
}

/// `repro golden <record|check> [--dir DIR]`.
pub fn cmd_golden(args: &Args) {
    let dir = PathBuf::from(args.text("--dir").unwrap_or("results/golden"));
    match args.arg(0) {
        "record" => {
            crate::header("Golden corpus: recording run digests");
            for &(name, runs) in SCENARIOS {
                let rec = run_scenario(name, runs);
                if let Err(e) = write_record(&dir, &rec) {
                    eprintln!("cannot write golden record for {name}: {e}");
                    std::process::exit(1);
                }
                println!(
                    "{:<10} digest {} ({} events, {:.3}s simulated) -> {}",
                    rec.scenario,
                    rec.digest,
                    rec.events,
                    rec.elapsed_ns as f64 / 1e9,
                    corpus_path(&dir, name).display()
                );
            }
        }
        "check" => {
            crate::header("Golden corpus: checking run digests");
            let mut failures: Vec<String> = Vec::new();
            for &(name, runs) in SCENARIOS {
                if !check_scenario(&dir, name, runs) {
                    failures.push(name.to_string());
                }
            }
            for path in stray_files(&dir) {
                println!(
                    "{:<10} FAIL  {} records no scenario",
                    "corpus",
                    path.display()
                );
                failures.push(path.display().to_string());
            }
            if !failures.is_empty() {
                eprintln!(
                    "\ngolden check FAILED for: {}\n\
                     If the behaviour change is intentional, re-record with \
                     `repro golden record` and commit the corpus diff; \
                     delete any corpus file that records no scenario.",
                    failures.join(", ")
                );
                std::process::exit(1);
            }
            println!("\ngolden check passed ({} scenarios)", SCENARIOS.len());
        }
        other => unreachable!("the parser admits only record and check, not {other:?}"),
    }
}
