//! Every deterministic work count the benchmarks have recorded, pinned
//! exactly: one row per distinct job, each job run once. A count is
//! kernel events for a job that drives a `Sim` directly and wire messages
//! for an MPI job; it is a property of the simulation, not of the host.
//!
//! A row names every benchmark that ran the same job. The `bench` binary
//! still times the `kernel/*` and `profile/*` jobs (their bodies live in
//! the crate's lib); the other jobs exist only here. `campaign/tiny_*`
//! (11 runs) is pinned by the repro crate's campaign ledger test.

use std::sync::Arc;

use bench::{grid_job, profile_pingpong, tuned_pair, KERNEL_JOBS};
use desim::{Analysis, Collector, HostProfiler, Obs, Recorder, RingSink, Sim};
use gridapps::Ray2MeshConfig;
use mpisim::{CollConfig, CollOp, ExecConfig, FaultPlan, MpiImpl, MpiJob, RankCtx, HEADER_BYTES};
use netsim::{Grid5000Site, NodeId, SockBufRequest};
use npb::{NasBenchmark, NasClass, NasRun};
use repro::catalogue;
use repro::scenario::{coll_program, coll_sel, ring_program, Scenario};
use repro::util::TuningLevel;

struct Row {
    /// Every benchmark name that ran this job.
    names: Vec<&'static str>,
    count: u64,
    job: Box<dyn Fn() -> u64>,
}

fn row(names: &[&'static str], count: u64, job: impl Fn() -> u64 + 'static) -> Row {
    Row {
        names: names.to_vec(),
        count,
        job: Box::new(job),
    }
}

fn table() -> Vec<Row> {
    use MpiImpl::{GridMpi, Mpich2, MpichMadeleine, OpenMpi};
    let [timers, handoffs, round_robin] = KERNEL_JOBS.map(|(_, job)| job);
    vec![
        row(
            &["kernel/10k_timers_one_process", "smoke/kernel_10k_timers"],
            10001,
            timers,
        ),
        row(&["kernel/1k_completion_handoffs"], 2002, handoffs),
        row(&["kernel/32_processes_round_robin"], 3232, round_robin),
        row(&["profile/pingpong_64M_detached"], 16, || {
            profile_pingpong(None)
        }),
        row(&["profile/pingpong_64M_attached"], 16, || {
            profile_pingpong(Some(Arc::new(HostProfiler::new())))
        }),
        // Kernel events count only live timers: the finishes a
        // reallocation supersedes are dropped from netsim's timers without
        // being dispatched, and a pinned segment is one dispatch however
        // many rounds it runs. An unpaced WAN sender's rounds may stall
        // until its first loss and BIC then regrows its window below the
        // bottleneck, so neither lone WAN transfer below runs a segment:
        // each window round is a dispatch (3 for 64 kB, 39 for 16 MB).
        row(
            &["tcp/wan_transfer_64k", "smoke/wan_transfer_64k"],
            7,
            || wan_transfer(64 << 10),
        ),
        row(&["tcp/wan_transfer_16M"], 43, || wan_transfer(16 << 20)),
        // Contended rounds are dispatched one by one; the last flow left
        // finishes on its finish event.
        row(&["tcp/32_concurrent_wan_flows"], 461, concurrent_wan_flows),
        row(&["pingpong_grid_1M/MPICH2"], 40, || pingpong(Mpich2, 20)),
        row(&["pingpong_grid_1M/GridMPI"], 40, || pingpong(GridMpi, 20)),
        row(&["pingpong_grid_1M/MPICH-Madeleine"], 40, || {
            pingpong(MpichMadeleine, 20)
        }),
        row(&["pingpong_grid_1M/OpenMPI"], 40, || pingpong(OpenMpi, 20)),
        row(&["smoke/pingpong_grid_1M_mpich2"], 10, || {
            pingpong(Mpich2, 5)
        }),
        coll_8_8("coll_bcast_128k_8+8/MPICH2", 255),
        coll_8_8("coll_bcast_128k_8+8/GridMPI", 71),
        coll_8_8("coll_bcast_128k_8+8/MPICH-Madeleine", 15),
        coll_8_8("coll_allreduce_128k_8+8/MPICH2", 128),
        coll_8_8("coll_allreduce_128k_8+8/GridMPI", 176),
        coll_8_8("coll_allreduce_128k_8+8/MPICH-Madeleine", 64),
        coll_8_8("coll_alltoall_128k_8+8/MPICH2", 240),
        coll_8_8("coll_alltoall_128k_8+8/GridMPI", 240),
        coll_8_8("coll_alltoall_128k_8+8/MPICH-Madeleine", 240),
        coll("coll/bcast_binomial_1k_lan", 15),
        coll("coll/bcast_pipeline_1k_lan", 15),
        coll("coll/bcast_scatter_allgather_1k_lan", 255),
        coll("coll/bcast_binomial_2lvl_1k_lan", 15),
        coll("coll/allreduce_ring_1k_lan", 480),
        coll("coll/allreduce_rd_1k_lan", 64),
        coll("coll/allreduce_rabenseifner_1k_lan", 128),
        coll("coll/allreduce_ring_2lvl_1k_lan", 480),
        coll("coll/bcast_binomial_64k_lan", 15),
        coll("coll/bcast_pipeline_64k_lan", 15),
        coll("coll/bcast_scatter_allgather_64k_lan", 255),
        coll("coll/bcast_binomial_2lvl_64k_lan", 15),
        coll("coll/allreduce_ring_64k_lan", 480),
        coll("coll/allreduce_rd_64k_lan", 64),
        coll("coll/allreduce_rabenseifner_64k_lan", 128),
        coll("coll/allreduce_ring_2lvl_64k_lan", 480),
        coll("coll/bcast_binomial_4m_lan", 15),
        coll("coll/bcast_pipeline_4m_lan", 960),
        coll("coll/bcast_scatter_allgather_4m_lan", 255),
        coll("coll/bcast_binomial_2lvl_4m_lan", 15),
        coll("coll/allreduce_ring_4m_lan", 480),
        coll("coll/allreduce_rd_4m_lan", 64),
        coll("coll/allreduce_rabenseifner_4m_lan", 128),
        coll("coll/allreduce_ring_2lvl_4m_lan", 480),
        coll("coll/bcast_binomial_1k_wan4", 15),
        coll("coll/bcast_pipeline_1k_wan4", 15),
        coll("coll/bcast_scatter_allgather_1k_wan4", 255),
        coll("coll/bcast_binomial_2lvl_1k_wan4", 15),
        coll("coll/allreduce_ring_1k_wan4", 480),
        coll("coll/allreduce_rd_1k_wan4", 64),
        coll("coll/allreduce_rabenseifner_1k_wan4", 128),
        coll("coll/allreduce_ring_2lvl_1k_wan4", 48),
        coll("coll/bcast_binomial_64k_wan4", 15),
        coll("coll/bcast_pipeline_64k_wan4", 15),
        coll("coll/bcast_scatter_allgather_64k_wan4", 255),
        coll("coll/bcast_binomial_2lvl_64k_wan4", 15),
        coll("coll/allreduce_ring_64k_wan4", 480),
        coll("coll/allreduce_rd_64k_wan4", 64),
        coll("coll/allreduce_rabenseifner_64k_wan4", 128),
        coll("coll/allreduce_ring_2lvl_64k_wan4", 48),
        coll("coll/bcast_binomial_4m_wan4", 15),
        coll("coll/bcast_pipeline_4m_wan4", 960),
        coll("coll/bcast_scatter_allgather_4m_wan4", 255),
        coll("coll/bcast_binomial_2lvl_4m_wan4", 15),
        coll("coll/allreduce_ring_4m_wan4", 480),
        coll("coll/allreduce_rd_4m_wan4", 64),
        coll("coll/allreduce_rabenseifner_4m_wan4", 128),
        coll("coll/allreduce_ring_2lvl_4m_wan4", 48),
        row(&["npb_classS_8+8/EP"], 399, || npb_8_8(NasBenchmark::Ep)),
        row(&["npb_classS_8+8/CG"], 5720, || npb_8_8(NasBenchmark::Cg)),
        row(&["npb_classS_8+8/MG"], 1856, || npb_8_8(NasBenchmark::Mg)),
        row(&["npb_classS_8+8/LU"], 1472, || npb_8_8(NasBenchmark::Lu)),
        row(&["npb_classS_8+8/SP"], 960, || npb_8_8(NasBenchmark::Sp)),
        row(&["npb_classS_8+8/BT"], 960, || npb_8_8(NasBenchmark::Bt)),
        row(&["npb_classS_8+8/IS"], 1344, || npb_8_8(NasBenchmark::Is)),
        row(&["npb_classS_8+8/FT"], 470, || npb_8_8(NasBenchmark::Ft)),
        row(&["ray2mesh/small_4_sites"], 1884, ray2mesh_small),
        // Rounds below the bottleneck are dispatched one by one: on each
        // channel the first transfer's slow start, RTO and BIC regrowth
        // (46 rounds), and each later transfer's restart in slow start
        // (3–5). Then two pinned segments per transfer (the second runs
        // the round after the one that left the first) and the finish.
        // With a dispatch per round this job took 6963 events.
        row(&["tcp/pingpong_64M_pinned_segments"], 1115, transfers_64m),
        row(&["obs/pingpong_64M_untraced"], 4, || pingpong_64m(None)),
        row(&["obs/pingpong_64M_traced"], 4, || {
            pingpong_64m(Some(Arc::new(RingSink::new(1 << 18))))
        }),
        row(
            &[
                "blame/analyze_pingpong_64M",
                "blame/capture_and_analyze_pingpong_64M",
                "blame/stream_size_pingpong_64M",
            ],
            283,
            blame_stream,
        ),
        row(&["faults/wan_16M_clean"], 1, || send_16m(None)),
        row(&["faults/wan_16M_loss_1e-3"], 1, || send_16m(Some(1e-3))),
        row(&["faults/wan_16M_loss_1e-2"], 1, || send_16m(Some(1e-2))),
        row(&["faults/ray2mesh_ft_2kills"], 62, || {
            // Fault-tolerant ray2mesh surviving two mid-trace rank kills.
            let report = catalogue::run("ft_ray2mesh").execute(Obs::none());
            report.stats.wire_messages
        }),
        row(&["ranks/ping_ring_64"], 512, || ping_ring(64, 8)),
        row(&["ranks/ping_ring_512_pooled"], 4096, || ping_ring(512, 8)),
        row(&["ranks/npb_ep_1024"], 62463, npb_ep_1024),
    ]
}

#[test]
fn every_bench_count_is_pinned() {
    let table = table();
    let mut failures = Vec::new();
    for r in &table {
        let got = (r.job)();
        if got != r.count {
            failures.push(format!(
                "{}: expected {}, got {got}",
                r.names.join(" = "),
                r.count
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "count mismatch:\n{}",
        failures.join("\n")
    );

    // Each benchmark name has one row, and every count the baseline still
    // records (but the campaign's) is this table's.
    let mut names: Vec<_> = table.iter().flat_map(|r| &r.names).collect();
    let n = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), n, "a benchmark name is in two rows");
    let baseline = include_str!("../../../BENCH_baseline.json");
    for line in bench::compare::parse_lines(baseline).expect("baseline parses") {
        if line.name.starts_with("campaign/") {
            continue;
        }
        let pinned = table.iter().find(|r| r.names.contains(&line.name.as_str()));
        assert_eq!(pinned.map(|r| r.count), line.events, "{}", line.name);
    }
}

const OS: SockBufRequest = SockBufRequest::OsDefault;

/// One bulk transfer across the tuned WAN pair; kernel events.
fn wan_transfer(bytes: u64) -> u64 {
    let (net, rn, nn) = tuned_pair(1);
    let sim = Sim::new();
    sim.spawn_task("xfer", move |cx| async move {
        let ch = net.channel(rn[0], nn[0], OS, OS, false);
        cx.wait(net.transfer(&cx.sched(), ch, bytes)).await;
    });
    sim.run_counted().unwrap().events
}

/// 32 concurrent 2 MB flows across the WAN, 4 from each of 8 nodes.
fn concurrent_wan_flows() -> u64 {
    let (net, rn, nn) = tuned_pair(8);
    let sim = Sim::new();
    for i in 0..8 {
        for j in 0..4 {
            let net = net.clone();
            let (a, z) = (rn[i], nn[(i + j) % 8]);
            sim.spawn_task(format!("f{i}-{j}"), move |cx| async move {
                let ch = net.channel(a, z, OS, OS, true);
                cx.wait(net.transfer(&cx.sched(), ch, 2 << 20)).await;
            });
        }
    }
    sim.run_counted().unwrap().events
}

/// 64 round trips of 64 MB on raw channels; kernel events.
fn transfers_64m() -> u64 {
    let (net, rn, nn) = tuned_pair(1);
    let sim = Sim::new();
    sim.spawn_task("pingpong", move |cx| async move {
        let fwd = net.channel(rn[0], nn[0], OS, OS, false);
        let back = net.channel(nn[0], rn[0], OS, OS, false);
        for _ in 0..64 {
            cx.wait(net.transfer(&cx.sched(), fwd, 64 << 20)).await;
            cx.wait(net.transfer(&cx.sched(), back, 64 << 20)).await;
        }
    });
    sim.run_counted().unwrap().events
}

/// `iters` round trips of `bytes` on a tuned two-rank grid job, with
/// `obs` attached; wire messages.
fn round_trips(id: MpiImpl, bytes: u64, iters: u32, obs: Obs) -> u64 {
    grid_job(2, id)
        .with_obs(obs)
        .run(move |mut ctx: RankCtx| async move {
            const TAG: u64 = 1;
            for _ in 0..iters {
                if ctx.rank() == 0 {
                    ctx.send(1, bytes, TAG).await;
                    ctx.recv(1, TAG).await;
                } else {
                    ctx.recv(0, TAG).await;
                    ctx.send(0, bytes, TAG).await;
                }
            }
        })
        .expect("pingpong completes")
        .stats
        .wire_messages
}

/// The paper's 1 MB grid pingpong (Figs. 3/5/6/7).
fn pingpong(id: MpiImpl, iters: u32) -> u64 {
    round_trips(id, 1 << 20, iters, Obs::none())
}

/// Two 64 MB grid round trips, optionally recorded.
fn pingpong_64m(rec: Option<Arc<dyn Recorder>>) -> u64 {
    let obs = rec.map_or(Obs::none(), |r| Obs::none().recorder(r));
    round_trips(MpiImpl::Mpich2, 64 << 20, 2, obs)
}

/// The structured events a 64 MB grid ping-pong emits, as the blame
/// analyzer consumes them.
fn blame_stream() -> u64 {
    let collector = Arc::new(Collector::new());
    pingpong_64m(Some(collector.clone()));
    let events = collector.events();
    Analysis::from_events(&events, HEADER_BYTES);
    events.len() as u64
}

/// One 16 MB message across the WAN, with seeded segment loss at
/// `wan_loss` when given.
fn send_16m(wan_loss: Option<f64>) -> u64 {
    let mut job = grid_job(2, MpiImpl::Mpich2);
    if let Some(rate) = wan_loss {
        job = job.with_faults(FaultPlan::new().with_seed(42).with_wan_loss(rate));
    }
    job.run(move |mut ctx: RankCtx| async move {
        const TAG: u64 = 1;
        if ctx.rank() == 0 {
            ctx.send(1, 16 << 20, TAG).await;
        } else {
            ctx.recv(0, TAG).await;
        }
    })
    .expect("bulk transfer completes")
    .stats
    .wire_messages
}

/// `coll_{op}_128k_8+8/{implementation}`: one bcast, allreduce or
/// all-to-all (64 kB per pair) on the tuned 8+8 grid, Fig. 10's FT/IS
/// mechanism.
fn coll_8_8(name: &'static str, count: u64) -> Row {
    let (op, id) = name["coll_".len()..].split_once("_128k_8+8/").unwrap();
    let id = MpiImpl::ALL.into_iter().find(|i| i.name() == id).unwrap();
    let op = match op {
        "bcast" => CollOp::Bcast,
        "allreduce" => CollOp::Allreduce,
        _ => CollOp::Alltoall,
    };
    row(&[name], count, move || {
        grid_job(16, id)
            .run(move |mut ctx: RankCtx| async move {
                match op {
                    CollOp::Bcast => ctx.bcast(0, 128 << 10).await,
                    CollOp::Allreduce => ctx.allreduce(128 << 10).await,
                    _ => ctx.alltoall(64 << 10).await,
                }
            })
            .expect("collective completes")
            .stats
            .wire_messages
    })
}

/// `coll/{op}_{algorithm}_{size}_{lan|wan4}`: one pinned bcast or
/// allreduce algorithm on 16 ranks of one LAN site or of four sites.
fn coll(name: &'static str, count: u64) -> Row {
    let spec = name.strip_prefix("coll/").unwrap();
    let (op, rest) = spec.split_once('_').unwrap();
    let (rest, topo) = rest.rsplit_once('_').unwrap();
    let (algo, size) = rest.rsplit_once('_').unwrap();
    let op = if op == "bcast" {
        CollOp::Bcast
    } else {
        CollOp::Allreduce
    };
    // Row names spell recursive doubling `rd` and two-level `_2lvl`.
    let algo = if algo == "rd" {
        "recursive_doubling"
    } else {
        algo
    };
    let sel = coll_sel(&algo.replace("_2lvl", "+2lvl"));
    let bytes: u64 = match size {
        "1k" => 1 << 10,
        "64k" => 64 << 10,
        "4m" => 4 << 20,
        other => panic!("{name}: unknown size {other}"),
    };
    let wan = topo == "wan4";
    row(&[name], count, move || {
        // TCP-tuned kernels, MPICH2's own thresholds.
        let level = TuningLevel::TcpTuned;
        let testbed = if wan {
            Scenario::four_sites_flat(4, level, MpiImpl::Mpich2)
        } else {
            Scenario::npb(16, 16, 0, level, MpiImpl::Mpich2)
        };
        testbed
            .exec(ExecConfig::new().coll(CollConfig::new().pin_all(op, sel)))
            .run(coll_program(op, bytes, 1))
            .expect("collective completes")
            .stats
            .wire_messages
    })
}

/// One NAS kernel, class S quick run, GridMPI on the tuned 8+8 grid.
fn npb_8_8(bench: NasBenchmark) -> u64 {
    grid_job(16, MpiImpl::GridMpi)
        .run(NasRun::quick(bench, NasClass::S).program())
        .expect("NAS completes")
        .stats
        .wire_messages
}

/// The ray2mesh application model (Tables 6/7), 8 slaves per site.
fn ray2mesh_small() -> u64 {
    Scenario::four_sites(8, Grid5000Site::ALL[0], MpiImpl::GridMpi)
        .run(Ray2MeshConfig::small().program())
        .expect("ray2mesh completes")
        .stats
        .wire_messages
}

/// `ranks` ranks in contiguous blocks over the tuned 8+8 testbed, each
/// exchanging `rounds` 1 kB messages with its ring neighbours.
fn ping_ring(ranks: usize, rounds: u32) -> u64 {
    let report = Scenario::ring(ranks).run(ring_program(rounds));
    report.expect("ring completes").stats.wire_messages
}

/// NPB EP class S on 1024 ranks dealt round robin over the 8+8 testbed.
fn npb_ep_1024() -> u64 {
    let (net, rn, nn) = tuned_pair(8);
    let nodes: Vec<NodeId> = rn.into_iter().chain(nn).collect();
    let placement = (0..1024).map(|r| nodes[r % nodes.len()]).collect();
    MpiJob::new(net, placement, MpiImpl::GridMpi)
        .run(NasRun::quick(NasBenchmark::Ep, NasClass::S).program())
        .expect("EP completes")
        .stats
        .wire_messages
}
