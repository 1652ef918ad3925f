//! `repro golden` — golden-run digests: the mechanical guard on the
//! simulator's bit-reproducibility claim.
//!
//! Each scenario below wires a representative experiment through the
//! [`Scenario`] builder with a [`DigestSink`] attached, folds the full
//! structured event stream plus the run's closing scalars (elapsed time,
//! per-rank times, every `RankCtx::record` measurement, the quiescence
//! flag) into one 128-bit digest, and compares it against the committed
//! corpus under `results/golden/`. Any change to a tuning constant, a
//! protocol decision, or an event emission — however small — moves the
//! digest and fails `repro golden check` with the offending scenario
//! named.
//!
//! `repro golden record` re-records the corpus after an *intentional*
//! behaviour change; the diff of `results/golden/*.json` then documents
//! exactly which scenarios moved (see DESIGN.md §10).
//!
//! `repro golden check` runs every scenario twice: as recorded, then with
//! the closed-form bulk fast path pinned off through
//! [`ExecConfig::fast_path`]. Both passes must match the corpus, because
//! digests are defined to be identical in either mode.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use desim::obs::digest::DigestSink;
use desim::obs::Obs;
use desim::SimTime;
use gridapps::Ray2MeshConfig;
use mpisim::{
    CollAlgo, CollConfig, CollOp, CollSel, ExecConfig, FaultPlan, FaultPolicy, MpiImpl, RankCtx,
    RunReport,
};
use netsim::{grid5000_four_sites, Grid5000Site, KernelConfig, Network};
use npb::{NasBenchmark, NasClass, NasRun};

use crate::catalogue;
use crate::cli::Args;
use crate::scenario::{send_program, Scenario};
use crate::util::{Scope, TuningLevel};

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

/// The grid ping-pong of Figs. 3/6/7: three sizes spanning eager, small
/// rendezvous, and the 64 MB bulk fast path, fully tuned MPICH2.
fn golden_pingpong(sink: &Arc<DigestSink>, exec: ExecConfig) -> u64 {
    let report = Scenario::pair(Scope::Grid, TuningLevel::FullyTuned, MpiImpl::Mpich2)
        .exec(exec)
        .recorder(sink.clone())
        .run(|mut ctx: RankCtx| async move {
            const TAG: u64 = 1;
            for bytes in [1u64 << 10, 1 << 20, 64 << 20] {
                for _ in 0..3 {
                    if ctx.rank() == 0 {
                        let t0 = ctx.now();
                        ctx.send(1, bytes, TAG).await;
                        ctx.recv(1, TAG).await;
                        ctx.record("one_way", ctx.now().since(t0).as_secs_f64() / 2.0);
                    } else {
                        ctx.recv(0, TAG).await;
                        ctx.send(0, bytes, TAG).await;
                    }
                }
            }
        })
        .expect("golden pingpong completes");
    seal(sink, "pingpong", &report)
}

/// The Fig. 9 slow-start mechanism: one 16 MB WAN transfer per kernel
/// configuration (untuned, tuned, tuned + GridMPI pacing), cwnd samples
/// and all.
fn golden_slowstart(sink: &Arc<DigestSink>, exec: ExecConfig) -> u64 {
    let mut total = 0;
    for (label, level, id) in [
        ("untuned", TuningLevel::Default, MpiImpl::Mpich2),
        ("tuned_unpaced", TuningLevel::TcpTuned, MpiImpl::Mpich2),
        ("tuned_paced", TuningLevel::TcpTuned, MpiImpl::GridMpi),
    ] {
        let report = Scenario::pair(Scope::Grid, level, id)
            .exec(exec)
            .recorder(sink.clone())
            .run(send_program(16 << 20, 1))
            .expect("golden slowstart completes");
        total += seal(sink, label, &report);
    }
    total
}

/// Table 4's 1-byte latency: every implementation, cluster and grid, the
/// software-overhead model in isolation.
fn golden_table4(sink: &Arc<DigestSink>, exec: ExecConfig) -> u64 {
    let mut total = 0;
    for scope in [Scope::Cluster, Scope::Grid] {
        for id in MpiImpl::ALL {
            let report = Scenario::pair(scope, TuningLevel::Default, id)
                .exec(exec)
                .recorder(sink.clone())
                .run(|mut ctx: RankCtx| async move {
                    const TAG: u64 = 1;
                    for _ in 0..5 {
                        if ctx.rank() == 0 {
                            let t0 = ctx.now();
                            ctx.send(1, 1, TAG).await;
                            ctx.recv(1, TAG).await;
                            ctx.record("one_way", ctx.now().since(t0).as_secs_f64() / 2.0);
                        } else {
                            ctx.recv(0, TAG).await;
                            ctx.send(0, 1, TAG).await;
                        }
                    }
                })
                .expect("golden table4 completes");
            total += seal(sink, id.name(), &report);
        }
    }
    total
}

/// The NPB machinery on the 8+8 grid: CG (point-to-point transposes) and
/// FT (all-to-all collectives), class S quick runs.
fn golden_nas(sink: &Arc<DigestSink>, exec: ExecConfig) -> u64 {
    let mut total = 0;
    for bench in [NasBenchmark::Cg, NasBenchmark::Ft] {
        let run = NasRun::quick(bench, NasClass::S);
        let report = Scenario::npb(8, 8, 8, TuningLevel::FullyTuned, MpiImpl::GridMpi)
            .exec(exec)
            .recorder(sink.clone())
            .run(run.program())
            .expect("golden NAS completes");
        total += seal(sink, bench.name(), &report);
        // The full-run extrapolation is part of the contract too.
        sink.absorb_u64(run.estimate(&report).as_nanos());
    }
    total
}

/// The catalogued run `label` with `exec` and the digest sink attached.
fn catalogued(label: &'static str, sink: &Arc<DigestSink>, exec: ExecConfig) -> u64 {
    let mut run = catalogue::run(label);
    run.scenario = run.scenario.exec(exec);
    let report = run.execute(Obs::none().recorder(sink.clone()));
    seal(sink, label, &report)
}

/// The §4.4 master/worker application over four sites.
fn golden_ray2mesh(sink: &Arc<DigestSink>, exec: ExecConfig) -> u64 {
    catalogued("ray2mesh", sink, exec)
}

/// The fault-injection stack: a lossy 16 MB WAN transfer (seeded loss
/// RNG, recovery machinery, RTO path) and the fault-tolerant ray2mesh
/// surviving two mid-trace kills.
fn golden_faults(sink: &Arc<DigestSink>, exec: ExecConfig) -> u64 {
    let mut total = catalogued("lossy_wan", sink, exec);
    let cfg = Ray2MeshConfig {
        total_rays: 20_000,
        ..Ray2MeshConfig::small()
    };
    let plan = FaultPlan::new()
        .with_seed(7)
        .with_wan_loss(5e-4)
        .kill_rank(3, SimTime::from_nanos(1_000_000_000))
        .kill_rank(6, SimTime::from_nanos(2_000_000_000));
    let report = Scenario::four_sites(2, Grid5000Site::ALL[0], MpiImpl::GridMpi)
        .exec(exec)
        .faults(plan)
        .recorder(sink.clone())
        .run(cfg.program_ft(FaultPolicy::grid_default()))
        .expect("golden FT ray2mesh completes");
    total += seal(sink, "ft_ray2mesh", &report);
    total
}

/// The four-site testbed for [`golden_coll`], with the closed-form bulk
/// fast path pinned *off*. Collective phases routinely leave exactly one
/// flow active while other ranks keep emitting recorder events; the fast
/// path materializes that flow's round samples at commit time, which
/// reorders the recorded stream (same events, same times) — and the
/// digest folds stream order. Pinning the per-round model makes this
/// scenario's digest identical in both fast-path modes, which
/// `repro golden check` then verifies.
fn coll_testbed() -> Scenario {
    let (mut topo, _sites, nodes) = grid5000_four_sites(2);
    topo.set_kernel_all(KernelConfig::tuned(4 << 20));
    let mut placement = vec![nodes[0][0]];
    for site_nodes in &nodes {
        placement.extend(site_nodes.iter().copied());
    }
    let net = Network::new(topo);
    net.set_bulk_fast_path(false);
    Scenario::custom(net, placement, MpiImpl::Mpich2)
}

/// The collective algorithm suite on the four-site grid: a 64 kB bcast
/// sweep and a 256 kB allreduce sweep, one sub-run per selectable
/// algorithm (two-level variants included), on the 9-rank ray2mesh
/// placement — deliberately non-power-of-two so the shape-degradation
/// paths (Rabenseifner -> recursive doubling, etc.) are pinned too.
fn golden_coll(sink: &Arc<DigestSink>, exec: ExecConfig) -> u64 {
    let mut total = 0;
    let bcast_sels = [
        ("bcast_linear", CollSel::flat(CollAlgo::Linear)),
        ("bcast_chain", CollSel::flat(CollAlgo::Chain)),
        ("bcast_pipeline", CollSel::flat(CollAlgo::Pipeline)),
        ("bcast_binary", CollSel::flat(CollAlgo::Binary)),
        ("bcast_inorder", CollSel::flat(CollAlgo::InOrderBinary)),
        ("bcast_binomial", CollSel::flat(CollAlgo::Binomial)),
        (
            "bcast_2lvl_binomial",
            CollSel::two_level(CollAlgo::Binomial),
        ),
    ];
    for (label, sel) in bcast_sels {
        let coll = CollConfig::new().pin_all(CollOp::Bcast, sel);
        let report = coll_testbed()
            .exec(exec.coll(coll))
            .recorder(sink.clone())
            .run(|mut ctx: RankCtx| async move {
                for _ in 0..2 {
                    ctx.bcast(0, 64 << 10).await;
                }
            })
            .expect("golden coll bcast completes");
        total += seal(sink, label, &report);
    }
    let allreduce_sels = [
        ("allreduce_ring", CollSel::flat(CollAlgo::Ring)),
        ("allreduce_rd", CollSel::flat(CollAlgo::RecursiveDoubling)),
        ("allreduce_rab", CollSel::flat(CollAlgo::Rabenseifner)),
        ("allreduce_binomial", CollSel::flat(CollAlgo::Binomial)),
        ("allreduce_2lvl_ring", CollSel::two_level(CollAlgo::Ring)),
    ];
    for (label, sel) in allreduce_sels {
        let coll = CollConfig::new().pin_all(CollOp::Allreduce, sel);
        let report = coll_testbed()
            .exec(exec.coll(coll))
            .recorder(sink.clone())
            .run(|mut ctx: RankCtx| async move {
                for _ in 0..2 {
                    ctx.allreduce(256 << 10).await;
                }
            })
            .expect("golden coll allreduce completes");
        total += seal(sink, label, &report);
    }
    total
}

/// A golden scenario runner: feeds the sink, returns total elapsed ns.
/// The [`ExecConfig`] selects the fast-path mode.
type GoldenFn = fn(&Arc<DigestSink>, ExecConfig) -> u64;

/// The corpus: scenario name → runner. Order is the check/record order.
pub const SCENARIOS: &[(&str, GoldenFn)] = &[
    ("pingpong", golden_pingpong),
    ("slowstart", golden_slowstart),
    ("table4", golden_table4),
    ("nas", golden_nas),
    ("ray2mesh", golden_ray2mesh),
    ("faults", golden_faults),
    ("coll", golden_coll),
];

/// Recompute one scenario's digest.
pub fn run_scenario(name: &'static str, f: GoldenFn, exec: ExecConfig) -> GoldenRecord {
    let sink = Arc::new(DigestSink::new());
    let elapsed_ns = f(&sink, exec);
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

/// Recompute one scenario under `exec` and compare it with the corpus,
/// printing the verdict. Returns whether it matched.
fn check_scenario(dir: &Path, name: &'static str, f: GoldenFn, exec: ExecConfig) -> bool {
    let got = run_scenario(name, f, exec);
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
    let exec = ExecConfig::new();
    match args.arg(0) {
        "record" => {
            crate::header("Golden corpus: recording run digests");
            for &(name, f) in SCENARIOS {
                let rec = run_scenario(name, f, exec);
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
            for (mode, exec) in [
                ("fast path as configured", exec),
                ("fast path off", exec.fast_path(false)),
            ] {
                println!("-- {mode}");
                for &(name, f) in SCENARIOS {
                    if !check_scenario(&dir, name, f, exec) {
                        failures.push(format!("{name} ({mode})"));
                    }
                }
            }
            if !failures.is_empty() {
                eprintln!(
                    "\ngolden check FAILED for: {}\n\
                     If the behaviour change is intentional, re-record with \
                     `repro golden record` and commit the corpus diff.",
                    failures.join(", ")
                );
                std::process::exit(1);
            }
            println!(
                "\ngolden check passed ({} scenarios, fast path on and off)",
                SCENARIOS.len()
            );
        }
        other => unreachable!("the parser admits only record and check, not {other:?}"),
    }
}
