//! `repro profile` / `repro timeline` — where the *simulator's* time
//! goes, in both time domains.
//!
//! `profile` runs one scenario and emits collapsed-stack folded text (or
//! speedscope JSON) for either domain:
//!
//! * `--domain host` attaches a [`desim::HostProfiler`] to the whole
//!   stack (kernel dispatch, netsim settle/allocate with per-link
//!   labels, mpisim job phases) and additionally times
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
use desim::obs::Obs;
use desim::{HostProfiler, TimeSeries, TimeSeriesSink};
use mpisim::HEADER_BYTES;

use crate::catalogue;
use crate::cli::Args;

/// `repro profile [pingpong|nas|ray2mesh|faults] [--domain host|virtual]
/// [--format folded|speedscope]`.
pub fn cmd_profile(args: &Args) {
    let scenario = args.positional(0).unwrap_or("pingpong");
    let domain = args.text("--domain").unwrap_or("host");
    let format = args.text("--format").unwrap_or("folded");
    let run = catalogue::instrumented(scenario);
    let detail = run.detail;

    let col = Arc::new(Collector::new());
    let (report, stacks) = match domain {
        "host" => {
            let prof = Arc::new(HostProfiler::new());
            let report = run.execute(Obs::none().recorder(col.clone()).profiler(prof.clone()));
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
            (report, stacks)
        }
        _ => {
            let report = run.execute(Obs::none().recorder(col.clone()));
            (report, virtual_stacks(&col.events()))
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

/// `repro timeline [pingpong|nas|ray2mesh|faults] [--window MS]`.
pub fn cmd_timeline(args: &Args) {
    let scenario = args.positional(0).unwrap_or("pingpong");
    let window_ms = args.num("--window").map_or(10, |n| n as u64);
    let run = catalogue::instrumented(scenario);
    let detail = run.detail;

    let sink = Arc::new(TimeSeriesSink::new(window_ms * 1_000_000));
    let report = run.execute(Obs::none().recorder(sink.clone()));
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
