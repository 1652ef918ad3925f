//! Std-only wall-clock benchmark harness.
//!
//! Each benchmark is calibrated to ~0.3 s of wall time, then timed, and
//! one JSON line per benchmark is written to stdout (and to `--json FILE`
//! when given) with the wall-clock seconds per iteration and its
//! deterministic work count per iteration, `events`.
//!
//! ```text
//! bench [GROUP ...] [--json FILE]
//! bench compare OLD.json NEW.json [--threshold PCT]
//! ```
//!
//! Groups: `kernel` (desim event throughput; `events` are kernel
//! events), `profile` (host self-profiler overhead, gated ≤5%; wire
//! messages) and `campaign` (sweep engine cold vs warm result cache;
//! campaign runs). No groups = all three. `compare` diffs two recorded
//! files: exact on `events`, threshold (default 25%, slowdowns only) on
//! `secs_per_iter`. Tier-1 pins every `events` count in
//! `tests/counts.rs`; this binary only times.
//!
//! An unknown group or flag, a flag without its value, or a `--threshold`
//! that is not a non-negative number prints the usage on stderr and
//! exits 2 before anything runs.

use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use bench::{profile_pingpong, KERNEL_JOBS};
use desim::HostProfiler;

/// Wall-clock target per benchmark.
const TARGET_SECS: f64 = 0.3;
const MAX_ITERS: u32 = 1_000;

const GROUPS: [&str; 3] = ["kernel", "profile", "campaign"];

struct Harness {
    json: Option<std::fs::File>,
}

impl Harness {
    /// Time `f` (returning its deterministic work count per iteration)
    /// and emit one JSON line.
    fn bench(&mut self, name: &str, mut f: impl FnMut() -> u64) {
        // Warm-up iteration doubles as the calibration probe.
        let probe = Instant::now();
        black_box(f());
        let once = probe.elapsed().as_secs_f64();
        let iters = if once >= TARGET_SECS {
            1
        } else {
            ((TARGET_SECS / once.max(1e-9)) as u32).clamp(3, MAX_ITERS)
        };
        let t0 = Instant::now();
        let mut events = 0u64;
        for _ in 0..iters {
            events += black_box(f());
        }
        let total = t0.elapsed().as_secs_f64();
        let secs = total / iters as f64;
        let eps = if events > 0 {
            format!("{:.0}", events as f64 / total)
        } else {
            "null".into()
        };
        self.note(&format!(
            "{{\"name\": \"{name}\", \"iters\": {iters}, \"secs_per_iter\": {secs:.6e}, \
             \"events_per_sec\": {eps}, \"events\": {}}}",
            events / iters as u64
        ));
    }

    /// Emit a JSON line (derived metrics like speedups are notes too).
    fn note(&mut self, line: &str) {
        println!("{line}");
        if let Some(f) = &mut self.json {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// Print `msg` and the usage on stderr, then exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!(
        "{msg}\n\
         usage: bench [GROUP ...] [--json FILE]\n\
         \x20      bench compare OLD.json NEW.json [--threshold PCT]\n\
         groups: {}",
        GROUPS.join(" ")
    );
    std::process::exit(2);
}

/// Split `args` into positionals and the value of `flag`, the one flag
/// this command line takes. Any other `-`-prefixed argument, or `flag`
/// without a value, is a usage error.
fn parse<'a>(args: &'a [String], flag: &str) -> (Vec<&'a str>, Option<&'a str>) {
    let mut positional = Vec::new();
    let mut value = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            match it.next() {
                Some(v) => value = Some(v.as_str()),
                None => usage_error(&format!("{flag} needs a value")),
            }
        } else if a.starts_with('-') {
            usage_error(&format!("unknown flag: {a}"));
        } else {
            positional.push(a.as_str());
        }
    }
    (positional, value)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        cmd_compare(&args[1..]);
        return;
    }
    let (mut groups, json) = parse(&args, "--json");
    if let Some(bad) = groups.iter().find(|g| !GROUPS.contains(g)) {
        usage_error(&format!("unknown group: {bad}"));
    }
    if groups.is_empty() {
        groups = GROUPS.to_vec();
    }
    let json = json.map(|p| std::fs::File::create(p).expect("create --json file"));
    let mut h = Harness { json };
    for g in &groups {
        match *g {
            "kernel" => group_kernel(&mut h),
            "profile" => group_profile(&mut h),
            "campaign" => group_campaign(&mut h),
            other => unreachable!("group {other} was validated"),
        }
    }
}

/// `bench compare OLD.json NEW.json [--threshold PCT]` — exact on the
/// deterministic `events` field, threshold on wall clock (slowdowns only).
fn cmd_compare(args: &[String]) {
    let (files, threshold) = parse(args, "--threshold");
    let [old_path, new_path] = files[..] else {
        usage_error("bench compare takes two files");
    };
    let threshold = match threshold.map(str::parse::<f64>) {
        None => 25.0,
        Some(Ok(t)) if t.is_finite() && t >= 0.0 => t,
        Some(_) => usage_error("--threshold takes a non-negative number (percent)"),
    };
    let read = |p: &str| -> Vec<bench::compare::BenchLine> {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bench compare: cannot read {p}: {e}");
            std::process::exit(2);
        });
        bench::compare::parse_lines(&text).unwrap_or_else(|e| {
            eprintln!("bench compare: {p}: {e}");
            std::process::exit(2);
        })
    };
    let (old, new) = (read(old_path), read(new_path));
    let cmp = match bench::compare::compare(&old, &new, threshold) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench compare: {e}");
            std::process::exit(2);
        }
    };
    for row in &cmp.rows {
        println!("{row}");
    }
    for g in &cmp.group_summaries {
        println!("{g}");
    }
    for w in &cmp.warnings {
        println!("warn: {w}");
    }
    if cmp.failures.is_empty() {
        println!(
            "compare: {} benchmark(s) within threshold ({threshold}%), events exact",
            cmp.rows.len()
        );
    } else {
        for f in &cmp.failures {
            eprintln!("compare FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// desim micro-benchmarks: event throughput and task hand-off cost.
fn group_kernel(h: &mut Harness) {
    for (name, job) in KERNEL_JOBS {
        h.bench(name, job);
    }
}

/// Host self-profiler overhead: the identical 64 MB grid ping-pong with
/// and without a [`HostProfiler`] attached across the whole stack. The
/// profiler only reads the host clock and bumps its own table, so the
/// attached run must stay within 5% of the detached one — the gate
/// retries once before failing to ride out scheduler noise.
fn group_profile(h: &mut Harness) {
    fn measure() -> [f64; 2] {
        // One profiler accumulating across jobs, as a real profiling
        // session does: the label interning is paid once, and the gate
        // measures the steady-state per-event cost it exists to bound.
        let prof = Arc::new(HostProfiler::new());
        // The job runs ~40 µs, so a mean over a fixed window drowns a 5%
        // signal in scheduler noise. Instead: alternate short blocks so
        // host-load drift hits both variants equally, and keep each
        // variant's per-iteration *minimum* — preemption only ever adds
        // time, so min-of-many converges on the true cost.
        let mut best = [f64::INFINITY; 2];
        for _ in 0..6 {
            for (slot, attached) in [(0usize, false), (1, true)] {
                for _ in 0..25 {
                    let t0 = Instant::now();
                    black_box(profile_pingpong(attached.then(|| prof.clone())));
                    best[slot] = best[slot].min(t0.elapsed().as_secs_f64());
                }
            }
        }
        best
    }
    let mut timed = measure();
    let mut ratio = timed[1] / timed[0];
    if ratio > 1.05 {
        // One retry: a single descheduling blip can skew a 0.3 s window.
        timed = measure();
        ratio = timed[1] / timed[0];
    }
    h.bench("profile/pingpong_64M_detached", || profile_pingpong(None));
    let prof = Arc::new(HostProfiler::new());
    h.bench("profile/pingpong_64M_attached", || {
        profile_pingpong(Some(prof.clone()))
    });
    h.note(&format!(
        "{{\"name\": \"profile/host_profiler_overhead_pingpong_64M\", \"detached_secs\": {:.6e}, \
         \"attached_secs\": {:.6e}, \"overhead_ratio\": {ratio:.3}}}",
        timed[0], timed[1]
    ));
    assert!(
        ratio <= 1.05,
        "host profiler overhead {:.1}% exceeds the 5% gate \
         (detached {:.6e} s, attached {:.6e} s)",
        (ratio - 1.0) * 100.0,
        timed[0],
        timed[1]
    );
}

/// The campaign sweep engine, cold cache vs warm: `events` is the
/// deterministic run count, so the baseline compare gates the spec shape
/// exactly, and the note records the cache speedup.
fn group_campaign(h: &mut Harness) {
    use repro::campaign::{run, CampaignConfig, Spec};
    // Under the workspace's own target directory, wherever `bench` runs.
    let dir = std::path::PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/bench_campaign"
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create target/bench_campaign");
    let cfg = |label: &str, cache: &str| {
        let mut c = CampaignConfig::new(Spec::Tiny);
        c.label = label.to_string();
        c.ledger_dir = dir.join("ledger");
        c.cache_path = dir.join(cache);
        c.heartbeat_secs = None;
        c.quiet = true;
        c
    };
    let mut secs = [0.0f64; 2];
    h.bench("campaign/tiny_cold", || {
        let c = cfg("cold", "cold_cache.json");
        let _ = std::fs::remove_file(&c.cache_path);
        let r = run(&c).expect("cold campaign runs");
        assert_eq!(r.cache_hits, 0, "cold run must simulate everything");
        secs[0] = r.host_secs;
        r.runs as u64
    });
    // Warm the shared cache once, then every timed iteration replays.
    run(&cfg("warmup", "warm_cache.json")).expect("cache warm-up runs");
    h.bench("campaign/tiny_warm", || {
        let c = cfg("warm", "warm_cache.json");
        let r = run(&c).expect("warm campaign runs");
        assert_eq!(r.cache_hits, r.runs, "warm run must be 100% cache hits");
        secs[1] = r.host_secs;
        r.runs as u64
    });
    h.note(&format!(
        "{{\"name\": \"campaign/cache_speedup_tiny\", \"cold_secs\": {:.6e}, \
         \"warm_secs\": {:.6e}, \"speedup\": {:.2}}}",
        secs[0],
        secs[1],
        secs[0] / secs[1].max(1e-9)
    ));
}
