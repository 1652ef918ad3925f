//! Std-only wall-clock benchmark harness.
//!
//! Replaces the former criterion benches with a dependency-free runner:
//! each benchmark is calibrated to ~0.3 s of wall time, then timed, and
//! one JSON line per benchmark is written to stdout (and to `--json FILE`
//! when given) with the wall-clock seconds per iteration and — for
//! benchmarks that drive a [`desim::Sim`] directly — the simulator event
//! throughput from [`desim::RunStats`].
//!
//! ```text
//! bench [GROUP ...] [--json FILE] [--baseline FILE|none]
//! bench compare OLD.json NEW.json [--threshold PCT]
//! ```
//!
//! Groups: `kernel`, `tcp`, `pingpong`, `collectives`, `coll`
//! (selectable collective algorithms head-to-head), `npb`, `ray2mesh`,
//! `fastpath`, `obs` (observability overhead), `blame` (post-hoc
//! analyzer cost), `profile` (host self-profiler overhead, gated ≤5%),
//! `faults` (lossy-path and fault-tolerance overhead), `ranks`
//! (rank-scale execution), `pdes` (sharded-PDES wall-clock
//! scaling), `campaign` (sweep engine cold vs warm result cache),
//! `smoke` (a quick CI subset).
//! No groups = all of them except `smoke`.
//!
//! The `smoke` group doubles as a regression gate: after it runs, every
//! `smoke/*` line in the baseline file (`--baseline`, default
//! `BENCH_baseline.json`; `none` disables — use while regenerating) must
//! match the fresh run's `events` count *exactly*. `compare` diffs two
//! recorded files: exact on `events`, threshold (default 25%, slowdowns
//! only) on `secs_per_iter`.
//!
//! Each JSON line carries `events` (simulated events per iteration, 0 if
//! the benchmark does not count them) and `metrics` (a snapshot of the
//! harness's metrics registry, cleared between benchmarks — populated by
//! benchmarks that attach a recorder, `{}` otherwise).

use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use bench::{grid_job, ping_ring, pingpong_once, tuned_pair};
use desim::{completion, Analysis, Collector, Metrics, RingSink, Sim, SimDuration, SimTime};
use gridapps::Ray2MeshConfig;
use mpisim::{
    CollAlgo, CollConfig, CollOp, CollSel, CommPattern, ExecConfig, FaultPlan, FaultPolicy,
    MpiImpl, MpiJob, RankCtx,
};
use netsim::{grid5000_four_sites, KernelConfig, Network, SockBufRequest};
use npb::{NasBenchmark, NasClass, NasRun};

/// Wall-clock target per benchmark; keeps the full suite under a minute.
const TARGET_SECS: f64 = 0.3;
const MAX_ITERS: u32 = 1_000;

struct Harness {
    json: Option<std::fs::File>,
    /// Registry shared with any recorder a benchmark attaches; its
    /// snapshot lands in that benchmark's JSON line, then it is cleared.
    metrics: Arc<Metrics>,
    /// `(name, events-per-iteration)` for every benchmark run, so the
    /// smoke gate can check them against the baseline afterwards.
    recorded: Vec<(String, u64)>,
}

impl Harness {
    /// Time `f` (returning simulated events per iteration, 0 if unknown)
    /// and emit one JSON line.
    fn bench(&mut self, name: &str, mut f: impl FnMut() -> u64) {
        self.metrics.clear();
        // Warm-up iteration doubles as the calibration probe.
        let probe = Instant::now();
        black_box(f());
        let once = probe.elapsed().as_secs_f64();
        let iters = if once >= TARGET_SECS {
            1
        } else {
            ((TARGET_SECS / once.max(1e-9)) as u32).clamp(3, MAX_ITERS)
        };
        self.metrics.clear(); // count only the timed iterations
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
        let per_iter = events / iters as u64;
        let line = format!(
            "{{\"name\": \"{name}\", \"iters\": {iters}, \"secs_per_iter\": {secs:.6e}, \
             \"events_per_sec\": {eps}, \"events\": {per_iter}, \"metrics\": {}}}",
            self.metrics.snapshot().to_json()
        );
        self.recorded.push((name.to_string(), per_iter));
        println!("{line}");
        if let Some(f) = &mut self.json {
            let _ = writeln!(f, "{line}");
        }
        self.metrics.clear();
    }

    /// Emit a free-form JSON line (for derived metrics like speedups).
    fn note(&mut self, line: &str) {
        println!("{line}");
        if let Some(f) = &mut self.json {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// The value following `flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Positional arguments: everything that is neither a `--flag` nor the
/// value consumed by one.
fn positional(args: &[String]) -> Vec<&str> {
    const VALUED: &[&str] = &["--json", "--baseline", "--threshold"];
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = VALUED.contains(&a.as_str());
            continue;
        }
        out.push(a.as_str());
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        cmd_compare(&args[1..]);
        return;
    }
    let json =
        flag_value(&args, "--json").map(|p| std::fs::File::create(p).expect("create --json file"));
    let baseline = flag_value(&args, "--baseline").unwrap_or("BENCH_baseline.json");
    let groups = positional(&args);
    let all = [
        "kernel",
        "tcp",
        "pingpong",
        "collectives",
        "coll",
        "npb",
        "ray2mesh",
        "fastpath",
        "obs",
        "blame",
        "profile",
        "faults",
        "ranks",
        "pdes",
        "campaign",
    ];
    let groups: Vec<&str> = if groups.is_empty() {
        all.to_vec()
    } else {
        groups
    };
    let mut h = Harness {
        json,
        metrics: Arc::new(Metrics::new()),
        recorded: Vec::new(),
    };
    for g in &groups {
        match *g {
            "kernel" => group_kernel(&mut h),
            "tcp" => group_tcp(&mut h),
            "pingpong" => group_pingpong(&mut h),
            "collectives" => group_collectives(&mut h),
            "coll" => group_coll(&mut h),
            "npb" => group_npb(&mut h),
            "ray2mesh" => group_ray2mesh(&mut h),
            "fastpath" => group_fastpath(&mut h),
            "obs" => group_obs(&mut h),
            "blame" => group_blame(&mut h),
            "profile" => group_profile(&mut h),
            "faults" => group_faults(&mut h),
            "ranks" => group_ranks(&mut h),
            "pdes" => group_pdes(&mut h),
            "campaign" => group_campaign(&mut h),
            "smoke" => group_smoke(&mut h),
            other => eprintln!("unknown group: {other}"),
        }
    }
    if groups.contains(&"smoke") && baseline != "none" {
        check_smoke_baseline(baseline, &h.recorded);
    }
}

/// Rank-scale execution: ring widths far beyond thread-per-rank
/// territory (every rank is a pooled continuation task; the 512-rank row
/// measures per-MPI-call overhead) and NPB EP at 1024 ranks.
fn group_ranks(h: &mut Harness) {
    for (label, ranks, rounds) in [
        ("64", 64usize, 8u32),
        ("4096", 4096, 2),
        ("512_pooled", 512, 8),
    ] {
        h.bench(&format!("ranks/ping_ring_{label}"), move || {
            black_box(ping_ring(ranks, rounds));
            0
        });
    }
    h.bench("ranks/npb_ep_1024", || {
        let run = NasRun::quick(NasBenchmark::Ep, NasClass::S);
        let (net, rn, nn) = tuned_pair(8);
        let nodes: Vec<_> = rn.into_iter().chain(nn).collect();
        let placement: Vec<_> = (0..1024).map(|r| nodes[r % nodes.len()]).collect();
        let report = MpiJob::new(net, placement, MpiImpl::GridMpi)
            .run(run.program())
            .expect("EP completes");
        black_box(run.estimate(&report));
        0
    });
}

/// The smoke gate: every `smoke/*` entry in the baseline must match this
/// run's deterministic `events` count exactly. Wall clock is ignored —
/// this check is meant to be host-independent.
fn check_smoke_baseline(path: &str, recorded: &[(String, u64)]) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smoke baseline: cannot read {path}: {e} (use --baseline none to skip)");
            std::process::exit(1);
        }
    };
    let baseline = match bench::compare::parse_lines(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("smoke baseline: {path}: {e}");
            std::process::exit(1);
        }
    };
    let smoke: Vec<_> = baseline
        .iter()
        .filter(|l| l.name.starts_with("smoke/") && l.events.is_some())
        .collect();
    if smoke.is_empty() {
        eprintln!(
            "smoke baseline: {path} has no smoke/* entries — regenerate it with \
             `bench ... smoke --baseline none --json {path}`"
        );
        std::process::exit(1);
    }
    let mut failures = Vec::new();
    for b in &smoke {
        match recorded.iter().find(|(n, _)| *n == b.name) {
            Some((_, got)) if Some(*got) == b.events => {}
            Some((_, got)) => failures.push(format!(
                "{}: events {} (baseline) != {got} (this run)",
                b.name,
                b.events.unwrap()
            )),
            None => failures.push(format!("{}: in baseline but not run", b.name)),
        }
    }
    if failures.is_empty() {
        println!(
            "smoke baseline: {} benchmark(s) match {path} exactly",
            smoke.len()
        );
    } else {
        for f in &failures {
            eprintln!("smoke baseline FAIL: {f}");
        }
        eprintln!(
            "smoke baseline: {} mismatch(es) vs {path}; if the change is intentional, \
             regenerate the baseline",
            failures.len()
        );
        std::process::exit(1);
    }
}

/// `bench compare OLD.json NEW.json [--threshold PCT]` — exact on the
/// deterministic `events` field, threshold on wall clock (slowdowns only).
fn cmd_compare(args: &[String]) {
    let files = positional(args);
    let [old_path, new_path] = files[..] else {
        eprintln!("usage: bench compare OLD.json NEW.json [--threshold PCT]");
        std::process::exit(2);
    };
    let threshold: f64 = flag_value(args, "--threshold")
        .map(|t| t.parse().expect("--threshold takes a number (percent)"))
        .unwrap_or(25.0);
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
    h.bench("kernel/10k_timers_one_process", || {
        let sim = Sim::new();
        sim.spawn_task("timers", |cx| async move {
            for _ in 0..10_000 {
                cx.advance(SimDuration::from_nanos(black_box(17))).await;
            }
        });
        sim.run_counted().unwrap().events
    });
    h.bench("kernel/1k_completion_handoffs", || {
        let sim = Sim::new();
        let n = 1_000;
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..n {
            let (t, r) = completion::<u32>();
            txs.push(t);
            rxs.push(r);
        }
        sim.spawn_task("producer", move |cx| async move {
            let s = cx.sched();
            for tx in txs {
                cx.advance(SimDuration::from_nanos(5)).await;
                tx.fire_from(&s, 1);
            }
        });
        sim.spawn_task("consumer", move |cx| async move {
            let mut acc = 0u32;
            for rx in rxs {
                acc += cx.wait(rx).await;
            }
            assert_eq!(acc, n as u32);
        });
        sim.run_counted().unwrap().events
    });
    h.bench("kernel/32_processes_round_robin", || {
        let sim = Sim::new();
        for i in 0..32 {
            sim.spawn_task(format!("p{i}"), |cx| async move {
                for _ in 0..100 {
                    cx.yield_now().await;
                }
            });
        }
        sim.run_counted().unwrap().events
    });
}

/// netsim benchmarks: congestion state machine and fluid transfers.
fn group_tcp(h: &mut Harness) {
    for (label, bytes) in [("64k", 64u64 << 10), ("16M", 16 << 20)] {
        h.bench(&format!("tcp/wan_transfer_{label}"), || {
            let (net, rn, nn) = tuned_pair(1);
            let sim = Sim::new();
            let (a, z) = (rn[0], nn[0]);
            sim.spawn_task("xfer", move |cx| async move {
                let ch = net.channel(
                    a,
                    z,
                    SockBufRequest::OsDefault,
                    SockBufRequest::OsDefault,
                    false,
                );
                cx.wait(net.transfer(&cx.sched(), ch, black_box(bytes)))
                    .await;
            });
            sim.run_counted().unwrap().events
        });
    }
    h.bench("tcp/32_concurrent_wan_flows", || {
        let (net, rn, nn) = tuned_pair(8);
        let sim = Sim::new();
        for i in 0..8 {
            for j in 0..4 {
                let net = net.clone();
                let (a, z) = (rn[i], nn[(i + j) % 8]);
                sim.spawn_task(format!("f{i}-{j}"), move |cx| async move {
                    let ch = net.channel(
                        a,
                        z,
                        SockBufRequest::OsDefault,
                        SockBufRequest::OsDefault,
                        true,
                    );
                    cx.wait(net.transfer(&cx.sched(), ch, 2 << 20)).await;
                });
            }
        }
        sim.run_counted().unwrap().events
    });
}

/// The paper's pingpong (Figs. 3/5/6/7), one entry per MPI implementation.
fn group_pingpong(h: &mut Harness) {
    for id in MpiImpl::ALL {
        h.bench(&format!("pingpong_grid_1M/{}", id.name()), || {
            black_box(pingpong_once(id, 1 << 20, 20));
            0
        });
    }
}

/// Collective algorithms on the 8+8 grid (Fig. 10's FT/IS mechanism).
fn group_collectives(h: &mut Harness) {
    fn run_coll(id: MpiImpl, op: &'static str) -> f64 {
        let report = grid_job(16, id)
            .run(move |mut ctx: RankCtx| async move {
                match op {
                    "bcast" => ctx.bcast(0, 128 << 10).await,
                    "allreduce" => ctx.allreduce(128 << 10).await,
                    "alltoall" => ctx.alltoall(64 << 10).await,
                    _ => unreachable!(),
                }
            })
            .expect("collective completes");
        report.elapsed.as_secs_f64()
    }
    for op in ["bcast", "allreduce", "alltoall"] {
        for id in [MpiImpl::Mpich2, MpiImpl::GridMpi, MpiImpl::MpichMadeleine] {
            h.bench(&format!("coll_{op}_128k_8+8/{}", id.name()), || {
                black_box(run_coll(id, op));
                0
            });
        }
    }
}

/// Selectable collective algorithms head-to-head — the mechanism behind
/// `repro autotune-coll`. Per-algorithm bcast and allreduce at 1 kB /
/// 64 kB / 4 MB on a 16-rank single-site LAN and the four-site WAN, each
/// pinned via [`CollConfig::pin_all`]. The returned wire-message count is
/// deterministic, so `bench compare` gates these entries exactly.
fn group_coll(h: &mut Harness) {
    fn run(wan: bool, op: CollOp, sel: CollSel, bytes: u64) -> u64 {
        let (net, placement) = if wan {
            let (mut topo, _sites, nodes) = grid5000_four_sites(4);
            topo.set_kernel_all(KernelConfig::tuned(4 << 20));
            let placement = nodes.iter().flat_map(|s| s.iter().copied()).collect();
            (Network::new(topo), placement)
        } else {
            let (net, rn, _nn) = tuned_pair(16);
            (net, rn)
        };
        let exec = ExecConfig::new().coll(CollConfig::new().pin_all(op, sel));
        let report = MpiJob::new(net, placement, MpiImpl::Mpich2)
            .with_exec(exec)
            .run(move |mut ctx: RankCtx| async move {
                match op {
                    CollOp::Bcast => ctx.bcast(0, bytes).await,
                    _ => ctx.allreduce(bytes).await,
                }
            })
            .expect("collective completes");
        black_box(report.elapsed);
        report.stats.wire_messages
    }
    const SIZES: [(u64, &str); 3] = [(1 << 10, "1k"), (64 << 10, "64k"), (4 << 20, "4m")];
    let bcast: [(CollSel, &str); 4] = [
        (CollSel::flat(CollAlgo::Binomial), "binomial"),
        (CollSel::flat(CollAlgo::Pipeline), "pipeline"),
        (
            CollSel::flat(CollAlgo::ScatterAllgather),
            "scatter_allgather",
        ),
        (CollSel::two_level(CollAlgo::Binomial), "binomial_2lvl"),
    ];
    let allreduce: [(CollSel, &str); 4] = [
        (CollSel::flat(CollAlgo::Ring), "ring"),
        (CollSel::flat(CollAlgo::RecursiveDoubling), "rd"),
        (CollSel::flat(CollAlgo::Rabenseifner), "rabenseifner"),
        (CollSel::two_level(CollAlgo::Ring), "ring_2lvl"),
    ];
    for (wan, topo) in [(false, "lan"), (true, "wan4")] {
        for (bytes, size) in SIZES {
            for (sel, name) in bcast {
                h.bench(&format!("coll/bcast_{name}_{size}_{topo}"), || {
                    run(wan, CollOp::Bcast, sel, bytes)
                });
            }
            for (sel, name) in allreduce {
                h.bench(&format!("coll/allreduce_{name}_{size}_{topo}"), || {
                    run(wan, CollOp::Allreduce, sel, bytes)
                });
            }
        }
    }
}

/// One bench per NAS kernel (class S, 8+8 layout) — the full Fig. 10–13
/// machinery end to end.
fn group_npb(h: &mut Harness) {
    for bench_id in NasBenchmark::ALL {
        h.bench(&format!("npb_classS_8+8/{}", bench_id.name()), || {
            let run = NasRun::quick(bench_id, NasClass::S);
            let report = grid_job(16, MpiImpl::GridMpi)
                .run(run.program())
                .expect("NAS completes");
            black_box(run.estimate(&report));
            0
        });
    }
}

/// The ray2mesh application model (Tables 6/7).
fn group_ray2mesh(h: &mut Harness) {
    h.bench("ray2mesh/small_4_sites", || {
        let cfg = Ray2MeshConfig::small();
        let (mut topo, _sites, nodes) = grid5000_four_sites(8);
        topo.set_kernel_all(KernelConfig::tuned(4 << 20));
        let mut placement = vec![nodes[0][0]];
        for site_nodes in &nodes {
            placement.extend(site_nodes.iter().copied());
        }
        let report = MpiJob::new(Network::new(topo), placement, MpiImpl::GridMpi)
            .run(cfg.program())
            .expect("ray2mesh completes");
        black_box(report.elapsed);
        0
    });
}

/// The closed-form bulk-transfer fast path against the per-round model:
/// the Fig. 3-style 64 MB grid ping-pong, both directions timed.
fn group_fastpath(h: &mut Harness) {
    fn pingpong_64m(fast: bool) -> u64 {
        let (net, rn, nn) = tuned_pair(1);
        net.set_bulk_fast_path(fast);
        let sim = Sim::new();
        let (a, z) = (rn[0], nn[0]);
        sim.spawn_task("pingpong", move |cx| async move {
            let fwd = net.channel(
                a,
                z,
                SockBufRequest::OsDefault,
                SockBufRequest::OsDefault,
                false,
            );
            let back = net.channel(
                z,
                a,
                SockBufRequest::OsDefault,
                SockBufRequest::OsDefault,
                false,
            );
            // The paper's measurement is 200 round trips per size; 64 is
            // enough to dominate the fixed cost of standing up the Sim.
            for _ in 0..64 {
                cx.wait(net.transfer(&cx.sched(), fwd, 64 << 20)).await;
                cx.wait(net.transfer(&cx.sched(), back, 64 << 20)).await;
            }
        });
        sim.run_counted().unwrap().events
    }
    let mut timed = [0.0f64; 2];
    for (slot, fast) in [(0usize, false), (1, true)] {
        let label = if fast { "fast_path" } else { "per_round" };
        // Time this variant ourselves as well, so the speedup line does
        // not depend on the harness's per-bench calibration.
        let t0 = Instant::now();
        let mut iters = 0u32;
        while t0.elapsed().as_secs_f64() < TARGET_SECS || iters < 3 {
            black_box(pingpong_64m(fast));
            iters += 1;
            if iters >= MAX_ITERS {
                break;
            }
        }
        timed[slot] = t0.elapsed().as_secs_f64() / iters as f64;
        h.bench(&format!("fastpath/pingpong_64M_{label}"), || {
            pingpong_64m(fast)
        });
    }
    h.note(&format!(
        "{{\"name\": \"fastpath/speedup_pingpong_64M\", \"per_round_secs\": {:.6e}, \
         \"fast_path_secs\": {:.6e}, \"speedup\": {:.2}}}",
        timed[0],
        timed[1],
        timed[0] / timed[1]
    ));
}

/// Observability overhead: the identical 64 MB grid ping-pong with and
/// without the recorder pipeline attached. Virtual timestamps are
/// bit-identical either way (the observer-effect suite proves it); this
/// measures the *host-side* wall-clock cost of recording.
fn group_obs(h: &mut Harness) {
    fn pingpong_64m(rec: Option<Arc<RingSink>>) -> f64 {
        let mut job = grid_job(2, MpiImpl::Mpich2);
        if let Some(rec) = rec {
            job = job.with_obs(desim::obs::Obs::none().recorder(rec));
        }
        let report = job
            .run(move |mut ctx: RankCtx| async move {
                const TAG: u64 = 1;
                for _ in 0..2 {
                    if ctx.rank() == 0 {
                        ctx.send(1, 64 << 20, TAG).await;
                        ctx.recv(1, TAG).await;
                    } else {
                        ctx.recv(0, TAG).await;
                        ctx.send(0, 64 << 20, TAG).await;
                    }
                }
            })
            .expect("pingpong completes");
        report.elapsed.as_secs_f64()
    }
    let mut timed = [0.0f64; 2];
    for (slot, traced) in [(0usize, false), (1, true)] {
        // Time the variant ourselves so the overhead ratio does not
        // depend on the harness's per-bench calibration.
        let t0 = Instant::now();
        let mut iters = 0u32;
        while t0.elapsed().as_secs_f64() < TARGET_SECS || iters < 3 {
            let rec = traced.then(|| Arc::new(RingSink::new(1 << 18)));
            black_box(pingpong_64m(rec));
            iters += 1;
            if iters >= MAX_ITERS {
                break;
            }
        }
        timed[slot] = t0.elapsed().as_secs_f64() / iters as f64;
    }
    h.bench("obs/pingpong_64M_untraced", || {
        black_box(pingpong_64m(None));
        0
    });
    let metrics = h.metrics.clone();
    h.bench("obs/pingpong_64M_traced", move || {
        // Feed the harness registry so this line's metrics snapshot shows
        // the recorded event counts.
        let sink = Arc::new(RingSink::with_metrics(1 << 18, metrics.clone()));
        black_box(pingpong_64m(Some(sink)));
        0
    });
    h.note(&format!(
        "{{\"name\": \"obs/tracing_overhead_pingpong_64M\", \"untraced_secs\": {:.6e}, \
         \"traced_secs\": {:.6e}, \"overhead_ratio\": {:.3}}}",
        timed[0],
        timed[1],
        timed[1] / timed[0]
    ));
}

/// Host self-profiler overhead: the identical 64 MB grid ping-pong with
/// and without a [`desim::HostProfiler`] attached across the whole stack
/// (kernel dispatch, netsim settle, mpisim job phases). The profiler only
/// reads the host clock and bumps its own table, so the attached run must
/// stay within 5% of the detached one — the gate retries once before
/// failing to ride out scheduler noise.
fn group_profile(h: &mut Harness) {
    fn pingpong_64m(prof: Option<Arc<desim::HostProfiler>>) -> f64 {
        let mut job = grid_job(2, MpiImpl::Mpich2);
        if let Some(prof) = prof {
            job = job.with_obs(desim::obs::Obs::none().profiler(prof));
        }
        let report = job
            .run(move |mut ctx: RankCtx| async move {
                const TAG: u64 = 1;
                // 8 round trips: enough steady-state work that the
                // one-time profiler attach (key interning, link labels)
                // is measured at its amortized share, which is what the
                // overhead gate is about.
                for _ in 0..8 {
                    if ctx.rank() == 0 {
                        ctx.send(1, 64 << 20, TAG).await;
                        ctx.recv(1, TAG).await;
                    } else {
                        ctx.recv(0, TAG).await;
                        ctx.send(0, 64 << 20, TAG).await;
                    }
                }
            })
            .expect("pingpong completes");
        report.elapsed.as_secs_f64()
    }
    fn measure() -> [f64; 2] {
        // One profiler accumulating across jobs, as a real profiling
        // session does: the label interning is paid once, and the gate
        // measures the steady-state per-event cost it exists to bound.
        let prof = Arc::new(desim::HostProfiler::new());
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
                    black_box(pingpong_64m(attached.then(|| prof.clone())));
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
    h.bench("profile/pingpong_64M_detached", || {
        black_box(pingpong_64m(None));
        0
    });
    let prof = Arc::new(desim::HostProfiler::new());
    h.bench("profile/pingpong_64M_attached", || {
        black_box(pingpong_64m(Some(prof.clone())));
        0
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

/// Blame-analysis cost: capture one 64 MB grid ping-pong's event stream
/// through a [`Collector`], then time `Analysis::from_events` alone on
/// the captured stream — the post-hoc analyzer's cost per event — plus
/// the end-to-end capture-and-analyze variant for the live-tee case.
fn group_blame(h: &mut Harness) {
    fn captured() -> Vec<desim::obs::Event> {
        let collector = Arc::new(Collector::new());
        grid_job(2, MpiImpl::Mpich2)
            .with_obs(desim::obs::Obs::none().recorder(collector.clone()))
            .run(move |mut ctx: RankCtx| async move {
                const TAG: u64 = 1;
                for _ in 0..2 {
                    if ctx.rank() == 0 {
                        ctx.send(1, 64 << 20, TAG).await;
                        ctx.recv(1, TAG).await;
                    } else {
                        ctx.recv(0, TAG).await;
                        ctx.send(0, 64 << 20, TAG).await;
                    }
                }
            })
            .expect("pingpong completes");
        collector.events()
    }
    let events = captured();
    let n_events = events.len() as u64;
    h.bench("blame/analyze_pingpong_64M", move || {
        black_box(Analysis::from_events(&events, mpisim::HEADER_BYTES));
        n_events
    });
    h.bench("blame/capture_and_analyze_pingpong_64M", || {
        let events = captured();
        let n = events.len() as u64;
        black_box(Analysis::from_events(&events, mpisim::HEADER_BYTES));
        n
    });
    h.note(&format!(
        "{{\"name\": \"blame/stream_size_pingpong_64M\", \"events\": {n_events}}}"
    ));
}

/// Fault-injection cost: the same WAN bulk transfer clean (fast path
/// engaged) and with injected segment loss (per-round model + loss RNG +
/// recovery machinery), plus the fault-tolerant ray2mesh surviving two
/// mid-trace kills — the whole detection/reissue/degradation pipeline.
fn group_faults(h: &mut Harness) {
    fn bulk(plan: Option<FaultPlan>) -> f64 {
        let mut job = grid_job(2, MpiImpl::Mpich2);
        if let Some(plan) = plan {
            job = job.with_faults(plan);
        }
        let report = job
            .run(move |mut ctx: RankCtx| async move {
                const TAG: u64 = 1;
                if ctx.rank() == 0 {
                    ctx.send(1, 16 << 20, TAG).await;
                } else {
                    ctx.recv(0, TAG).await;
                }
            })
            .expect("bulk transfer completes");
        report.elapsed.as_secs_f64()
    }
    h.bench("faults/wan_16M_clean", || {
        black_box(bulk(None));
        0
    });
    for (label, loss) in [("1e-3", 1e-3), ("1e-2", 1e-2)] {
        h.bench(&format!("faults/wan_16M_loss_{label}"), move || {
            black_box(bulk(Some(
                FaultPlan::new().with_seed(42).with_wan_loss(loss),
            )));
            0
        });
    }
    h.bench("faults/ray2mesh_ft_2kills", || {
        let cfg = Ray2MeshConfig {
            total_rays: 20_000,
            ..Ray2MeshConfig::small()
        };
        let (mut topo, _sites, nodes) = grid5000_four_sites(2);
        topo.set_kernel_all(KernelConfig::tuned(4 << 20));
        let mut placement = vec![nodes[0][0]];
        for site_nodes in &nodes {
            placement.extend(site_nodes.iter().copied());
        }
        let plan = FaultPlan::new()
            .with_seed(7)
            .kill_rank(3, SimTime::from_nanos(1_000_000_000))
            .kill_rank(6, SimTime::from_nanos(2_000_000_000));
        let report = MpiJob::new(Network::new(topo), placement, MpiImpl::GridMpi)
            .with_faults(plan)
            .run(cfg.program_ft(FaultPolicy::grid_default()))
            .expect("FT ray2mesh completes");
        black_box(report.elapsed);
        0
    });
}

/// The campaign sweep engine, cold cache vs warm: `events` is the
/// deterministic run count, so the baseline compare gates the spec shape
/// exactly, and the note records the cache speedup.
fn group_campaign(h: &mut Harness) {
    use repro::campaign::{run, CampaignConfig, Spec};
    let dir = std::path::PathBuf::from("target/bench_campaign");
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

/// Quick CI subset: one benchmark per layer.
fn group_smoke(h: &mut Harness) {
    h.bench("smoke/kernel_10k_timers", || {
        let sim = Sim::new();
        sim.spawn_task("timers", |cx| async move {
            for _ in 0..10_000 {
                cx.advance(SimDuration::from_nanos(black_box(17))).await;
            }
        });
        sim.run_counted().unwrap().events
    });
    h.bench("smoke/wan_transfer_64k", || {
        let (net, rn, nn) = tuned_pair(1);
        let sim = Sim::new();
        let (a, z) = (rn[0], nn[0]);
        sim.spawn_task("xfer", move |cx| async move {
            let ch = net.channel(
                a,
                z,
                SockBufRequest::OsDefault,
                SockBufRequest::OsDefault,
                false,
            );
            cx.wait(net.transfer(&cx.sched(), ch, black_box(64u64 << 10)))
                .await;
        });
        sim.run_counted().unwrap().events
    });
    h.bench("smoke/pingpong_grid_1M_mpich2", || {
        black_box(pingpong_once(MpiImpl::Mpich2, 1 << 20, 5));
        0
    });
    // Deterministic wire-message count of the sharded driver at 4
    // workers: catches any scheduling change that alters the simulated
    // traffic, independent of the golden-digest gate.
    h.bench("smoke/pdes_four_site_4w", || pdes_four_site_run(4));
}

/// The `pdes` group's workload, shared with the smoke gate: a four-site
/// job whose traffic satisfies the site-disjoint partition contract — a
/// heavy eager ring inside each site (in-degree 1 per rank) plus an
/// ack-paced gateway stream between dedicated per-site gateway ranks
/// that receive no intra-site traffic. Returns the deterministic
/// wire-message count.
fn pdes_four_site_run(workers: u32) -> u64 {
    // 8 ranks per site: offset 0 is the gateway sender, offset 1 the
    // gateway receiver, offsets 2..8 form the intra-site ring.
    const K: usize = 8;
    const SITES: usize = 4;
    const INTRA_ROUNDS: u32 = 1500;
    const CROSS_ROUNDS: u32 = 4;
    const TAG_DATA: u64 = 1;
    const TAG_ACK: u64 = 2;
    const TAG_RING: u64 = 3;
    let (mut topo, _sites, nodes) = grid5000_four_sites(K);
    topo.set_kernel_all(KernelConfig::tuned(4 << 20));
    let mut placement = Vec::new();
    for site_nodes in &nodes {
        placement.extend(site_nodes.iter().copied());
    }
    let exec = ExecConfig::new()
        .shards(workers)
        .pattern(CommPattern::SiteDisjoint);
    let report = MpiJob::new(Network::new(topo), placement, MpiImpl::Mpich2)
        .with_exec(exec)
        .run(move |mut ctx: RankCtx| async move {
            let (site, off) = (ctx.rank() / K, ctx.rank() % K);
            match off {
                0 => {
                    // Gateway sender: ack-paced eager stream to the
                    // next site's gateway receiver.
                    let peer = ((site + 1) % SITES) * K + 1;
                    for _ in 0..CROSS_ROUNDS {
                        ctx.send(peer, 4096, TAG_DATA).await;
                        ctx.recv(peer, TAG_ACK).await;
                    }
                }
                1 => {
                    // Gateway receiver: inbound cross-site only, so
                    // its downlink is claimed by exactly one group.
                    let peer = ((site + SITES - 1) % SITES) * K;
                    for _ in 0..CROSS_ROUNDS {
                        ctx.recv(peer, TAG_DATA).await;
                        ctx.send(peer, 64, TAG_ACK).await;
                    }
                }
                _ => {
                    let m = K - 2;
                    let j = off - 2;
                    let right = site * K + 2 + (j + 1) % m;
                    let left = site * K + 2 + (j + m - 1) % m;
                    for _ in 0..INTRA_ROUNDS {
                        ctx.send(right, 1024, TAG_RING).await;
                        ctx.recv(left, TAG_RING).await;
                    }
                }
            }
        })
        .expect("pdes four-site run completes");
    report.stats.wire_messages
}

/// Sharded-PDES wall-clock scaling: [`pdes_four_site_run`] on the PDES
/// driver at 1 and 4 workers. Virtual results are digest-identical
/// across worker counts (the PDES golden corpus pins that); this group
/// measures only the host-side scaling, and reports `host_cpus` so
/// single-core CI hosts can treat the speedup line as informational.
fn group_pdes(h: &mut Harness) {
    let mut timed = [0.0f64; 2];
    for (slot, workers) in [(0usize, 1u32), (1, 4)] {
        let t0 = Instant::now();
        let mut iters = 0u32;
        while t0.elapsed().as_secs_f64() < TARGET_SECS || iters < 3 {
            black_box(pdes_four_site_run(workers));
            iters += 1;
            if iters >= MAX_ITERS {
                break;
            }
        }
        timed[slot] = t0.elapsed().as_secs_f64() / iters as f64;
        h.bench(&format!("pdes/four_site_ring_{workers}w"), || {
            pdes_four_site_run(workers)
        });
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    h.note(&format!(
        "{{\"name\": \"pdes/speedup_four_site\", \"one_worker_secs\": {:.6e}, \
         \"four_worker_secs\": {:.6e}, \"speedup\": {:.2}, \"host_cpus\": {cpus}}}",
        timed[0],
        timed[1],
        timed[0] / timed[1]
    ));
}
