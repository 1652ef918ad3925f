//! `repro profile` / `repro timeline` — where the *simulator's* time
//! goes, in both time domains.
//!
//! `profile` runs one scenario and emits collapsed-stack folded text (or
//! speedscope JSON) for either domain:
//!
//! * `--domain host` attaches a [`desim::HostProfiler`] to the whole
//!   stack (kernel dispatch, netsim settle/allocate with per-link
//!   shard-candidate labels, mpisim job phases) and additionally times
//!   the post-run analysis pass under `analysis;from_events`. Weights
//!   are wall-clock nanoseconds.
//! * `--domain virtual` collects the structured event stream and folds
//!   it with [`desim::obs::profile::virtual_stacks`] into per-rank
//!   `rank;app_phase;mpi_op;wait_kind` stacks. Weights are *simulated*
//!   nanoseconds.
//!
//! `timeline` runs one scenario with a [`desim::TimeSeriesSink`] attached
//! and writes fixed-window series (event rate, cwnd, queue occupancy,
//! per-link throughput) as gnuplot `.dat` files plus one validated JSON
//! document.
//!
//! Both commands keep stdout machine-clean (pure folded text / pure
//! JSON); human-facing run summaries go to stderr.

use std::io::Write as _;
use std::sync::Arc;

use desim::obs::analysis::{Analysis, Collector};
use desim::obs::profile::{folded_text, speedscope_json, virtual_stacks};
use desim::{HostProfiler, TimeSeries, TimeSeriesSink};
use gridapps::Ray2MeshConfig;
use mpisim::{FaultPlan, MpiImpl, MpiProgram, RankCtx, RunReport, HEADER_BYTES};
use netsim::Grid5000Site;
use npb::{NasBenchmark, NasClass, NasRun};

use crate::scenario::{pingpong_program, Scenario};
use crate::util::{Scope, TuningLevel};

fn launch(
    detail: &str,
    scenario: Scenario,
    rec: Arc<dyn desim::obs::Recorder>,
    prof: Option<Arc<HostProfiler>>,
    program: impl MpiProgram,
) -> (String, RunReport) {
    let mut scenario = scenario.recorder(rec);
    if let Some(p) = prof {
        scenario = scenario.host_profiler(p);
    }
    let report = scenario
        .run(program)
        .unwrap_or_else(|e| panic!("profile scenario failed: {e:?}"));
    (detail.to_string(), report)
}

/// Run the named scenario with `rec` (and optionally a host profiler)
/// attached. The scenario set mirrors `repro blame`.
fn run_scenario(
    name: &str,
    rec: Arc<dyn desim::obs::Recorder>,
    prof: Option<Arc<HostProfiler>>,
) -> (String, RunReport) {
    match name {
        "pingpong" => launch(
            "64 MB WAN ping-pong, tuned kernel (4 MB buffers)",
            Scenario::pair(Scope::Grid, TuningLevel::TcpTuned, MpiImpl::Mpich2),
            rec,
            prof,
            pingpong_program(64 << 20, 1),
        ),
        "nas" => {
            let run = NasRun::quick(NasBenchmark::Cg, NasClass::S);
            launch(
                "NPB CG class S quick run, 8+8 grid, GridMPI fully tuned",
                Scenario::npb(8, 8, 8, TuningLevel::FullyTuned, MpiImpl::GridMpi),
                rec,
                prof,
                run.program(),
            )
        }
        "ray2mesh" => {
            let cfg = Ray2MeshConfig::small();
            launch(
                "ray2mesh small, four sites, master on the first site",
                Scenario::four_sites(2, Grid5000Site::ALL[0], MpiImpl::GridMpi),
                rec,
                prof,
                cfg.program(),
            )
        }
        "faults" => launch(
            "16 MB WAN transfer with seeded 1e-3 segment loss",
            Scenario::pair(Scope::Grid, TuningLevel::TcpTuned, MpiImpl::Mpich2)
                .faults(FaultPlan::new().with_seed(42).with_wan_loss(1e-3)),
            rec,
            prof,
            |mut ctx: RankCtx| async move {
                const TAG: u64 = 7;
                if ctx.rank() == 0 {
                    ctx.send(1, 16 << 20, TAG).await;
                } else {
                    ctx.recv(0, TAG).await;
                }
            },
        ),
        other => {
            eprintln!("unknown profile scenario {other:?} (want pingpong|nas|ray2mesh|faults)");
            std::process::exit(2);
        }
    }
}

/// Parse the common `SCENARIO [--flag value]` argument shape; returns the
/// scenario name and a lookup for flag values.
fn parse_args<'a>(args: &'a [String], flags: &[&str]) -> (&'a str, Vec<(String, String)>) {
    let mut scenario: Option<&str> = None;
    let mut got: Vec<(String, String)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if flags.contains(&a) {
            if let Some(v) = args.get(i + 1) {
                got.push((a.to_string(), v.clone()));
            }
            i += 2;
        } else if matches!(a, "--dat" | "--trace-out" | "--metrics") {
            // Global flags main() already consumed; skip their values.
            i += 2;
        } else if !a.starts_with('-') && scenario.is_none() {
            scenario = Some(a);
            i += 1;
        } else {
            i += 1;
        }
    }
    (scenario.unwrap_or("pingpong"), got)
}

fn flag<'a>(got: &'a [(String, String)], name: &str, default: &'a str) -> &'a str {
    got.iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
        .unwrap_or(default)
}

/// `repro profile <pingpong|nas|ray2mesh|faults> [--domain host|virtual]
/// [--format folded|speedscope]`.
pub fn cmd_profile(args: &[String]) {
    let (scenario, got) = parse_args(args, &["--domain", "--format"]);
    let domain = flag(&got, "--domain", "host");
    let format = flag(&got, "--format", "folded");
    if !matches!(domain, "host" | "virtual") {
        eprintln!("unknown --domain {domain:?} (want host|virtual)");
        std::process::exit(2);
    }
    if !matches!(format, "folded" | "speedscope") {
        eprintln!("unknown --format {format:?} (want folded|speedscope)");
        std::process::exit(2);
    }

    let col = Arc::new(Collector::new());
    let (detail, report, stacks) = match domain {
        "host" => {
            let prof = Arc::new(HostProfiler::new());
            let (detail, report) = run_scenario(scenario, col.clone(), Some(prof.clone()));
            // The analysis pass is part of the simulator's host-time
            // budget too: time it under its own stack.
            let events = col.events();
            let key = prof.intern("analysis;from_events");
            {
                let _scope = prof.scope(key);
                let _ = Analysis::from_events(&events, HEADER_BYTES);
            }
            let stacks: Vec<(String, u64)> = prof
                .stacks()
                .into_iter()
                .map(|(s, ns, _)| (s, ns))
                .collect();
            (detail, report, stacks)
        }
        _ => {
            let (detail, report) = run_scenario(scenario, col.clone(), None);
            (detail, report, virtual_stacks(&col.events()))
        }
    };

    let title = format!("profile_{scenario}_{domain}");
    let folded = folded_text(&stacks);
    let speedscope = speedscope_json(&title, &stacks);
    if let Some(mut f) = crate::dat_file(&title) {
        let _ = f.write_all(folded.as_bytes());
    }
    if let Some(mut f) = crate::json_file(&format!("{title}_speedscope")) {
        let _ = f.write_all(speedscope.as_bytes());
    }

    let total: u64 = stacks.iter().map(|(_, w)| *w).sum();
    eprintln!("# profile {scenario}: {detail}");
    eprintln!(
        "# domain {domain} ({}), {} stacks, {} total weight, virtual elapsed {:.6} s",
        if domain == "host" {
            "wall-clock ns"
        } else {
            "simulated ns"
        },
        stacks.iter().filter(|(_, w)| *w > 0).count(),
        total,
        report.elapsed.as_secs_f64()
    );
    match format {
        "speedscope" => println!("{speedscope}"),
        _ => print!("{folded}"),
    }
}

fn write_rate_dat(name: &str, rates: &[(u64, f64)]) {
    if let Some(mut f) = crate::dat_file(name) {
        let _ = writeln!(f, "# t_secs rate_per_sec");
        for (t, r) in rates {
            let _ = writeln!(f, "{:.9} {:.6}", *t as f64 / 1e9, r);
        }
    }
}

fn write_gauge_dat(name: &str, series: &desim::Windowed) {
    if let Some(mut f) = crate::dat_file(name) {
        let _ = f.write_all(TimeSeries::gauge_dat(&series.windows()).as_bytes());
    }
}

/// `repro timeline <pingpong|nas|ray2mesh|faults> [--window MS]`.
pub fn cmd_timeline(args: &[String]) {
    let (scenario, got) = parse_args(args, &["--window"]);
    let window_ms: u64 = flag(&got, "--window", "10").parse().unwrap_or_else(|_| {
        eprintln!("--window takes a number of milliseconds");
        std::process::exit(2);
    });
    let window_ms = window_ms.max(1);

    let sink = Arc::new(TimeSeriesSink::new(window_ms * 1_000_000));
    let (detail, report) = run_scenario(scenario, sink.clone(), None);
    let series = sink.series();

    let base = format!("timeline_{scenario}");
    write_rate_dat(&format!("{base}_events"), &series.events.rates());
    write_gauge_dat(&format!("{base}_cwnd"), &series.cwnd);
    write_gauge_dat(&format!("{base}_queue"), &series.queue);
    for (link, w) in &series.links {
        write_rate_dat(&format!("{base}_link{link}"), &w.rates());
    }
    let json = series.to_json();
    if let Some(mut f) = crate::json_file(&base) {
        let _ = f.write_all(json.as_bytes());
    }

    eprintln!("# timeline {scenario}: {detail}");
    eprintln!(
        "# window {window_ms} ms, {} event windows, {} links, virtual elapsed {:.6} s, \
         mpi span p50/p90/p99 = {}/{}/{} ns",
        series.events.len(),
        series.links.len(),
        report.elapsed.as_secs_f64(),
        series.span_ns_hist.percentile(0.50),
        series.span_ns_hist.percentile(0.90),
        series.span_ns_hist.percentile(0.99),
    );
    println!("{json}");
}
