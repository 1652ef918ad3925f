//! `simbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! simbench --workload <npb_b|rank_ring|pingpong_sweep> --seed N --seconds S --trace 0|1
//! simbench record --workload W        # print the reference table for W
//! ```
//!
//! One process runs one workload on one thread: jobs run one at a time
//! with the default `ExecConfig`. After set-up (repeated, median
//! reported) it runs passes over the seeded job list until `--seconds`
//! have gone by, checks every job's virtual outputs against the recorded
//! reference, and prints one JSON object as the last line of stdout.
//! With `--trace 0` that object holds the end-to-end metrics; with
//! `--trace 1`, untraced and traced passes alternate and it holds the
//! per-layer metrics. See README.md for the metric map.

mod jobs;
mod layers;
mod reference;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use desim::{DigestSink, HostProfiler, Obs, Recorder, Tee};

use jobs::{Job, JobCounts, Output, Workload};
use layers::{Counts, LayerSplit, WorkCounter};
use reference::{Reference, Verdict};
use spans::Spans;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Environment knobs that select a non-default engine or disable the fast
/// path; the benchmark measures the default configuration only.
const REFUSED_ENV: [&str; 2] = ["MPISIM_ENGINE", "NETSIM_NO_FAST_PATH"];
/// Failures printed in full before the rest are only counted.
const MAX_REPORTED_FAILURES: u64 = 5;

struct Args {
    record: bool,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (record, rest) = match args.first().map(String::as_str) {
        Some("record") => (true, &args[1..]),
        _ => (false, args),
    };
    let mut flags = BTreeMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        flags.insert(flag.as_str(), value.as_str());
    }
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        flags.get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} takes a whole number"))
        })
    };
    // Any integer seeds the inputs; a negative one by its two's complement.
    let seed = match flags.get("--seed") {
        Some(v) => v
            .parse::<u64>()
            .or_else(|_| v.parse::<i64>().map(|s| s as u64))
            .map_err(|_| "--seed takes an integer".to_string())?,
        None => 1,
    };
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let trace = match num("--trace", 0)? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    Ok(Args {
        record,
        workload,
        seed,
        seconds: num("--seconds", 10)?.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!("usage: simbench [record] --workload <npb_b|rank_ring|pingpong_sweep> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("simbench: refusing to run with {var} set: the benchmark measures the default execution configuration");
        return ExitCode::from(2);
    }
    if args.record {
        record(args.workload);
        return ExitCode::SUCCESS;
    }
    match bench(&args, epoch) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Print the reference table of every job `w` can produce.
fn record(w: Workload) {
    println!(
        "# simbench reference: {} (key elapsed_ns wire_msgs wire_bytes aux digest)",
        w.name()
    );
    for job in w.reachable() {
        let digest = Arc::new(DigestSink::new());
        let obs = Obs::none().recorder(Arc::clone(&digest) as Arc<dyn Recorder>);
        let (mut out, _) = job
            .execute(job.scenario(), obs)
            .unwrap_or_else(|e| panic!("{}: {e}", job.key()));
        out.digest = Some(digest.value());
        println!("{}", reference::line(&job.key(), &out));
    }
}

fn reference_text(w: Workload) -> &'static str {
    match w {
        Workload::NpbB => include_str!("../reference/npb_b.tsv"),
        Workload::RankRing => include_str!("../reference/rank_ring.tsv"),
        Workload::PingpongSweep => include_str!("../reference/pingpong_sweep.tsv"),
    }
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    wall: f64,
    build: f64,
    run: f64,
    check: f64,
    cpu: f64,
    attempted: u64,
    failed: u64,
    /// Host seconds of each job, by label (traced runs only).
    job_wall: Vec<(String, f64)>,
    wire_msgs: u64,
    wire_bytes: u64,
    job_counts: JobCounts,
    /// Traced passes only.
    split: Option<LayerSplit>,
    folded: String,
    counts: Counts,
    digests_matched: u64,
}

fn bench(args: &Args, epoch: Instant) -> Result<(), String> {
    let w = args.workload;
    // Spans and per-job times are kept for traced runs only, so that the
    // untraced run's memory does not grow with the number of passes.
    let mut spans = Spans::new(epoch, args.trace);

    // Set-up: process start (first repetition) or a fresh start through
    // the reference table, the seeded job list and one untimed warm-up job.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { epoch } else { Instant::now() };
        let reference = Reference::parse(reference_text(w))?;
        let jobs = w.jobs(args.seed);
        let warm = w.warmup();
        if let Err(e) = warm.execute(warm.scenario(), Obs::none()) {
            eprintln!("simbench: warm-up job {} failed: {e}", warm.key());
        }
        let end = Instant::now();
        spans.add("setup", start, end, None, None);
        setups.push(end.duration_since(start).as_secs_f64());
        state = Some((reference, jobs));
    }
    let (reference, jobs) = state.expect("at least one set-up");
    if reference.len() == 0 {
        return Err(format!(
            "no reference rows for {}; record them first",
            w.name()
        ));
    }

    // Passes (untraced, or untraced + traced pairs) until the next one
    // would end past the budget; at least one.
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut reported = 0;
    let mut rss = None;
    loop {
        let t = Instant::now();
        plain.push(run_pass(
            &jobs,
            &reference,
            false,
            &mut spans,
            &mut reported,
        ));
        // Peak memory through set-up and one pass: later passes repeat the
        // same work, and only add allocator noise that grows with their
        // number.
        rss.get_or_insert_with(peak_rss_mb);
        if args.trace {
            traced.push(run_pass(&jobs, &reference, true, &mut spans, &mut reported));
        }
        if started.elapsed() + t.elapsed() > budget {
            break;
        }
    }

    let all = plain.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|p| p.attempted).sum();
    let failed: u64 = all.map(|p| p.failed).sum();
    let wall = median(plain.iter().map(|p| p.wall));
    let setup = median(setups.iter().copied());
    let rss = rss.expect("one pass ran");

    let mut m = Metrics::default();
    if args.trace {
        per_layer(&mut m, &plain, &traced);
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let stem = format!("{dir}/{}-seed{}", w.name(), args.seed);
        let last = traced.last().expect("one traced pass");
        for (file, text) in [
            (format!("{stem}.spans.jsonl"), spans.jsonl()),
            (format!("{stem}.folded"), last.folded.clone()),
        ] {
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, text))
            {
                eprintln!("simbench: could not write {file}: {e}");
            }
        }
    } else {
        m.push("wall_s", wall, "s");
        m.push("setup_s", setup, "s");
        m.push("peak_rss_mb", rss, "MB");
    }

    println!(
        "# {} seed {}: {} untraced + {} traced passes of {} jobs",
        w.name(),
        args.seed,
        plain.len(),
        traced.len(),
        jobs.len()
    );
    println!("{:<28} {:>16}  unit", "metric", "value");
    for (name, v, unit) in [
        ("wall_s", wall, "s"),
        ("setup_s", setup, "s"),
        ("peak_rss_mb", rss, "MB"),
        (
            "fail_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ] {
        println!("{name:<28} {v:>16.6}  {unit}");
    }
    if args.trace {
        for (name, v, unit) in &m.list {
            println!("{name:<28} {v:>16.6}  {unit}");
        }
    }
    // Per-job host time, median over untraced passes (the NPB cells).
    if args.trace && w == Workload::NpbB {
        let mut by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (label, secs) in plain.iter().flat_map(|p| &p.job_wall) {
            by_label.entry(label).or_default().push(*secs);
        }
        for (label, secs) in by_label {
            let name = format!("npb.job.{label}.wall_s");
            println!("{name:<28} {:>16.6}  s", median(secs.into_iter()));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        m.json()
    );
    Ok(())
}

/// Run every job once; traced passes attach a host profiler, a counting
/// recorder and a per-job digest sink through the public `Obs`.
fn run_pass(
    jobs: &[Job],
    reference: &Reference,
    traced: bool,
    spans: &mut Spans,
    reported: &mut u64,
) -> Pass {
    let prof = traced.then(|| Arc::new(HostProfiler::new()));
    let counter = traced.then(|| Arc::new(WorkCounter::default()));
    let mut p = Pass::default();
    let pass_span = spans.open(if traced { "pass_traced" } else { "pass" }, None, None);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        let digest = traced.then(|| Arc::new(DigestSink::new()));
        let mut obs = Obs::none();
        if let (Some(prof), Some(counter), Some(digest)) = (&prof, &counter, &digest) {
            let sinks: Vec<Arc<dyn Recorder>> = vec![
                Arc::clone(digest) as Arc<dyn Recorder>,
                Arc::clone(counter) as Arc<dyn Recorder>,
            ];
            obs = obs
                .profiler(Arc::clone(prof))
                .recorder(Arc::new(Tee::new(sinks)));
        }
        let job_span = spans.open("job", Some(pass_span), Some(i));
        let key = job.key();
        let b0 = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let scenario = job.scenario();
            let b1 = Instant::now();
            let result = job.execute(scenario, obs);
            (b1, result, Instant::now())
        }));
        let (result, end_of_run) = match ran {
            Ok((b1, result, r1)) => {
                spans.add("build", b0, b1, Some(job_span), Some(i));
                spans.add("run", b1, r1, Some(job_span), Some(i));
                p.build += b1.duration_since(b0).as_secs_f64();
                p.run += r1.duration_since(b1).as_secs_f64();
                (result, r1)
            }
            Err(_) => (Err("job panicked".to_string()), Instant::now()),
        };
        let verdict = result.map(|(mut out, counts): (Output, JobCounts)| {
            out.digest = digest.as_ref().map(|d| d.value());
            p.wire_msgs += out.wire_msgs;
            p.wire_bytes += out.wire_bytes;
            p.job_counts.p2p_msgs += counts.p2p_msgs;
            p.job_counts.coll_calls += counts.coll_calls;
            reference.check(&key, &out)
        });
        let c1 = Instant::now();
        spans.add("check", end_of_run, c1, Some(job_span), Some(i));
        p.check += c1.duration_since(end_of_run).as_secs_f64();
        spans.close(job_span);
        if spans.enabled() {
            p.job_wall
                .push((job.label(), c1.duration_since(b0).as_secs_f64()));
        }
        p.attempted += 1;
        let failure = match verdict {
            Ok(Verdict::Match { digest_match }) => {
                p.digests_matched += u64::from(digest_match == Some(true));
                None
            }
            Ok(Verdict::Mismatch(why)) => Some(why),
            Err(e) => Some(format!("{key}: {e}")),
        };
        if let Some(why) = failure {
            p.failed += 1;
            *reported += 1;
            if *reported <= MAX_REPORTED_FAILURES {
                eprintln!("simbench: job failed: {why}");
            }
        }
        spans.set_key(job_span, key);
    }
    p.wall = t0.elapsed().as_secs_f64();
    p.cpu = cpu_seconds() - cpu0;
    spans.close(pass_span);
    if let (Some(prof), Some(counter)) = (prof, counter) {
        p.split = Some(LayerSplit::from_stacks(&prof.stacks()));
        p.folded = prof.folded();
        p.counts = counter.counts();
    }
    p
}

/// The per-layer metrics of a traced run.
fn per_layer(m: &mut Metrics, plain: &[Pass], traced: &[Pass]) {
    let med = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(f));
    let split =
        |f: fn(&LayerSplit) -> f64| med(traced, &|p| f(p.split.as_ref().expect("traced pass")));

    // The benchmark's own spans, untraced passes.
    let run_s = med(plain, &|p| p.run);
    m.push("netsim.build_s", med(plain, &|p| p.build), "s");
    m.push("mpisim.run_s", run_s, "s");
    m.push("bench.check_s", med(plain, &|p| p.check), "s");
    m.push("cpu_s", med(plain, &|p| p.cpu), "s");

    // Self times from the host profiler, traced passes.
    m.push("desim.dispatch_s", split(|s| s.dispatch), "s");
    m.push("desim.dispatch_self_s", split(|s| s.dispatch_self), "s");
    m.push("netsim.self_s", split(|s| s.netsim), "s");
    m.push("netsim.allocate_s", split(|s| s.allocate), "s");
    m.push("netsim.settle_s", split(|s| s.settle), "s");
    m.push("netsim.events_s", split(|s| s.events), "s");
    m.push("mpisim.setup_s", split(|s| s.mpisim_setup), "s");
    m.push("mpisim.collect_s", split(|s| s.mpisim_collect), "s");
    m.push(
        "mpisim.unattributed_s",
        split(|s| s.mpisim_unattributed),
        "s",
    );
    m.push(
        "mpisim.unattributed_frac",
        split(|s| s.mpisim_unattributed / s.self_total()),
        "ratio",
    );
    m.push(
        "obs.coverage",
        med(traced, &|p| {
            p.split.as_ref().expect("traced pass").self_total() / p.run
        }),
        "ratio",
    );

    // Exact work counters, one traced pass (they repeat exactly).
    let counters = |p: &Pass| {
        let (c, s) = (p.counts, p.split.expect("traced pass"));
        [
            ("desim.events", c.kernel_events, "count"),
            ("netsim.flows", c.flows, "count"),
            ("netsim.tcp_rounds", c.tcp_rounds, "count"),
            ("netsim.round_events", s.round_events, "count"),
            ("netsim.fast_commits", s.fast_commits, "count"),
            ("mpisim.wire_msgs", p.wire_msgs, "count"),
            ("mpisim.wire_bytes", p.wire_bytes, "B"),
            ("mpisim.p2p_msgs", p.job_counts.p2p_msgs, "count"),
            ("mpisim.coll_calls", p.job_counts.coll_calls, "count"),
            ("obs.events", c.obs_events, "count"),
        ]
    };
    let first = &traced[0];
    if traced.iter().any(|p| counters(p) != counters(first)) {
        eprintln!("simbench: warning: work counters differ between traced passes");
    }
    for (name, v, unit) in counters(first) {
        m.push(name, v as f64, unit);
    }
    let c = first.counts;
    let per = |secs: f64, n: u64| secs / n.max(1) as f64;
    m.push(
        "desim.ns_per_event",
        per(run_s * 1e9, c.kernel_events),
        "ns",
    );
    m.push("netsim.ns_per_round", per(run_s * 1e9, c.tcp_rounds), "ns");
    m.push(
        "mpisim.us_per_wire_msg",
        per(run_s * 1e6, first.wire_msgs),
        "us",
    );

    let plain_wall = med(plain, &|p| p.wall);
    m.push(
        "obs.trace_overhead",
        med(traced, &|p| p.wall) / plain_wall - 1.0,
        "ratio",
    );
    m.push(
        "obs.digest_match",
        traced.iter().map(|p| p.digests_matched).sum::<u64>() as f64
            / traced.iter().map(|p| p.attempted).sum::<u64>().max(1) as f64,
        "ratio",
    );
}

/// Metrics in insertion order, printed as the result's `metrics` object.
#[derive(Default)]
struct Metrics {
    list: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.list.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, v, unit)) in self.list.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// Median of `xs` (mean of the middle two for an even count).
fn median(xs: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds used by every thread of this process so far
/// (`/proc/self/task/*/schedstat`, nanosecond resolution).
fn cpu_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum::<u64>() as f64
        * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload rank_ring --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::RankRing);
        assert_eq!((a.seed, a.seconds, a.trace, a.record), (7, 20, true, false));
        assert!(parse_args(&argv("record --workload npb_b")).unwrap().record);
        let neg = parse_args(&argv("--workload npb_b --seed -3")).unwrap();
        assert_eq!(neg.seed, (-3i64) as u64);
        assert!(parse_args(&argv("--workload npb_b --seed x")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload npb_b --trace 2")).is_err());
        assert!(parse_args(&argv("--workload npb_b --seed")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    #[test]
    fn the_reference_has_a_row_for_every_reachable_job() {
        for w in Workload::ALL {
            let reference = Reference::parse(reference_text(w)).unwrap();
            let reachable = w.reachable();
            assert_eq!(reference.len(), reachable.len(), "{}", w.name());
            for job in reachable {
                assert!(reference.has(&job.key()), "{}", job.key());
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median([3.0, 1.0, 2.0].into_iter()), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0].into_iter()), 2.5);
        assert_eq!(median(std::iter::empty()), 0.0);
    }

    #[test]
    fn metrics_print_as_one_json_object() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        m.push("netsim.flows", 3.0, "count");
        let json = m.json();
        desim::obs::json::parse(&json).expect("valid JSON");
        assert_eq!(
            json,
            "{\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"netsim.flows\": {\"value\": 3, \"unit\": \"count\"}}"
        );
    }
}
