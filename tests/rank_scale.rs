//! The rank-scale execution engine: (a) worlds far beyond thread-per-rank
//! territory complete in one process, (b) workloads mirroring the golden
//! corpus reproduce pinned fingerprints — digest, event count, elapsed
//! virtual time, per-rank finish times — and (c) the fallible API's
//! timeout/kill semantics hold for ranks that are pooled continuations.
//!
//! The pinned fingerprints are the answers of the former thread-per-rank
//! oracle engine: they were recorded when that engine and the pooled one
//! agreed on them bit for bit, so the single engine is now checked
//! against the oracle's data rather than against a second code path. The
//! real golden corpus is additionally pinned by `repro golden check`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use grid_mpi_lab::desim::obs::Digest;
use grid_mpi_lab::desim::{DigestSink, Obs, SimDuration, SimTime};
use grid_mpi_lab::gridapps::Ray2MeshConfig;
use grid_mpi_lab::mpisim::{
    FaultPlan, FaultPolicy, MpiError, MpiImpl, MpiJob, MpiProgram, RankCtx, Tuning,
};
use grid_mpi_lab::netsim::{
    grid5000_four_sites, grid5000_pair, KernelConfig, Network, NodeId, NodeParams, SiteParams,
    Topology,
};
use grid_mpi_lab::npb::{NasBenchmark, NasClass, NasRun};

const TAG: u64 = 7;

/// The tuned 8+8 testbed with `ranks` ranks in contiguous blocks (ring
/// neighbours mostly node-local, so scale tests are engine-bound).
fn ring_testbed(ranks: usize) -> (Network, Vec<NodeId>) {
    let (mut topo, rn, nn) = grid5000_pair(8);
    topo.set_kernel_all(KernelConfig::tuned(4 << 20));
    let nodes: Vec<NodeId> = rn.into_iter().chain(nn).collect();
    let placement = (0..ranks)
        .map(|r| nodes[r * nodes.len() / ranks.max(nodes.len())])
        .collect();
    (Network::new(topo), placement)
}

fn ring_program(rounds: u32) -> impl MpiProgram {
    move |mut ctx: RankCtx| async move {
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        for _ in 0..rounds {
            ctx.sendrecv(right, 1024, left, TAG).await;
        }
    }
}

/// (a) A 4096-rank ring runs to completion in this single process. The
/// budget is generous — debug builds are several times slower than the
/// sub-second release number in BENCH_baseline.json — but it would still
/// catch the engine degenerating to thread-per-rank (thousands of thread
/// spawns) or losing wakeups (deadlock → test timeout).
#[test]
fn ring_4096_ranks_completes_within_budget() {
    let (net, placement) = ring_testbed(4096);
    let t0 = Instant::now();
    let report = MpiJob::new(net, placement, MpiImpl::Mpich2)
        .with_tuning(Tuning::paper_tuned(MpiImpl::Mpich2))
        .run(ring_program(2))
        .expect("4096-rank ring completes");
    assert!(report.clean, "ring left undrained messages");
    assert_eq!(report.per_rank.len(), 4096);
    let wall = t0.elapsed();
    assert!(
        wall < Duration::from_secs(120),
        "4096-rank ring took {wall:?}"
    );
}

/// Everything observable from one run, in the form it is pinned: hex
/// digests, counts, and the per-rank finish times folded into one digest.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    digest: String,
    events: u64,
    elapsed_ns: u64,
    ranks: usize,
    per_rank: String,
}

/// Run `job` with the full recorder pipeline attached and fold the run
/// report into the digest, exactly like the golden corpus does.
fn fingerprint(job: MpiJob, program: impl MpiProgram) -> Fingerprint {
    let sink = Arc::new(DigestSink::new());
    let report = job
        .with_obs(Obs::none().recorder(sink.clone()))
        .with_tracing()
        .run(program)
        .expect("scenario completes");
    sink.absorb_u64(report.elapsed.as_nanos());
    let mut per_rank = Digest::new();
    for d in &report.per_rank {
        sink.absorb_u64(d.as_nanos());
        per_rank.absorb_u64(d.as_nanos());
    }
    Fingerprint {
        digest: sink.value().to_string(),
        events: sink.events(),
        elapsed_ns: report.elapsed.as_nanos(),
        ranks: report.per_rank.len(),
        per_rank: per_rank.value().to_string(),
    }
}

/// (b) The run must reproduce the oracle's pinned answer bit for bit.
fn assert_pinned(label: &str, got: Fingerprint, pin: (&str, u64, u64, usize, &str)) {
    let (digest, events, elapsed_ns, ranks, per_rank) = pin;
    let want = Fingerprint {
        digest: digest.into(),
        events,
        elapsed_ns,
        ranks,
        per_rank: per_rank.into(),
    };
    assert_eq!(
        got, want,
        "{label}: diverged from the pinned oracle fingerprint"
    );
}

/// Tuned WAN pair, one rank per side — the golden pingpong shape.
fn wan_pair() -> (Network, Vec<NodeId>) {
    let (mut topo, rennes, nancy) = grid5000_pair(1);
    topo.set_kernel_all(KernelConfig::tuned(4 << 20));
    let mut placement = rennes;
    placement.extend(nancy);
    (Network::new(topo), placement)
}

#[test]
fn engines_agree_on_pingpong() {
    let (net, placement) = wan_pair();
    let job = MpiJob::new(net, placement, MpiImpl::Mpich2)
        .with_tuning(Tuning::paper_tuned(MpiImpl::Mpich2));
    let got = fingerprint(job, |mut ctx: RankCtx| async move {
        let peer = 1 - ctx.rank();
        for _ in 0..3 {
            if ctx.rank() == 0 {
                ctx.send(peer, 1 << 20, TAG).await;
                ctx.recv(peer, TAG).await;
            } else {
                ctx.recv(peer, TAG).await;
                ctx.send(peer, 1 << 20, TAG).await;
            }
        }
    });
    assert_pinned(
        "pingpong",
        got,
        (
            "f3b2309d94662080b8b29f9879ca3ea6",
            76,
            850684965,
            2,
            "d712eb4f73020575f128e95cee6379d3",
        ),
    );
}

#[test]
fn engines_agree_on_bulk_transfer_slow_start() {
    // Untuned kernel: the 16 MB transfer spends real virtual time in TCP
    // slow start, the behaviour the golden slowstart scenario pins.
    let (topo, rennes, nancy) = grid5000_pair(1);
    let mut placement = rennes;
    placement.extend(nancy);
    let job = MpiJob::new(Network::new(topo), placement, MpiImpl::Mpich2);
    let got = fingerprint(job, |mut ctx: RankCtx| async move {
        if ctx.rank() == 0 {
            ctx.send(1, 16 << 20, TAG).await;
        } else {
            ctx.recv(0, TAG).await;
        }
    });
    assert_pinned(
        "slowstart",
        got,
        (
            "27807a0d4ff1cbc9a7b94e9ead253f55",
            26,
            1547944636,
            2,
            "a7dea8887501b7079d19bfeeeab7691d",
        ),
    );
}

#[test]
fn engines_agree_on_collectives() {
    // 8+8 grid collectives — the golden table4 shape.
    let (net, placement) = ring_testbed(16);
    let job = MpiJob::new(net, placement, MpiImpl::GridMpi)
        .with_tuning(Tuning::paper_tuned(MpiImpl::GridMpi));
    let got = fingerprint(job, |mut ctx: RankCtx| async move {
        ctx.bcast(0, 128 << 10).await;
        ctx.allreduce(128 << 10).await;
        ctx.alltoall(16 << 10).await;
        ctx.barrier().await;
    });
    assert_pinned(
        "collectives",
        got,
        (
            "cca534c9f6308d2b9737e775ea584571",
            2891,
            107267158,
            16,
            "760714ea009a9fe9283a76549612987a",
        ),
    );
}

#[test]
fn engines_agree_on_nas_cg() {
    let (net, placement) = ring_testbed(16);
    let run = NasRun::quick(NasBenchmark::Cg, NasClass::S);
    let job = MpiJob::new(net, placement, MpiImpl::GridMpi)
        .with_tuning(Tuning::paper_tuned(MpiImpl::GridMpi));
    let got = fingerprint(job, run.program());
    assert_pinned(
        "nas_cg",
        got,
        (
            "8b6c019bf489545eb356d505ef648a07",
            41651,
            643890193,
            16,
            "e7b376afdc7500ece850608f3122a06e",
        ),
    );
}

#[test]
fn engines_agree_on_ray2mesh() {
    let cfg = Ray2MeshConfig::small();
    let (mut topo, _sites, nodes) = grid5000_four_sites(8);
    topo.set_kernel_all(KernelConfig::tuned(4 << 20));
    let mut placement = vec![nodes[0][0]];
    for site_nodes in &nodes {
        placement.extend(site_nodes.iter().copied());
    }
    let job = MpiJob::new(Network::new(topo), placement, MpiImpl::GridMpi);
    let got = fingerprint(job, cfg.program());
    assert_pinned(
        "ray2mesh",
        got,
        (
            "2ad5d9dfd854499dbffe6124170777ed",
            15319,
            45147740628,
            33,
            "6d9703c5d035cc5d3150719accb835d2",
        ),
    );
}

#[test]
fn engines_agree_under_faults() {
    // Seeded stochastic loss plus a timed kill absorbed by the
    // fault-tolerant master/worker — the golden faults shape.
    let (net, placement) = wan_pair();
    let plan = FaultPlan::new().with_seed(42).with_wan_loss(1e-3);
    let job = MpiJob::new(net, placement, MpiImpl::Mpich2)
        .with_tuning(Tuning::paper_tuned(MpiImpl::Mpich2))
        .with_faults(plan);
    let got = fingerprint(job, |mut ctx: RankCtx| async move {
        let peer = 1 - ctx.rank();
        for _ in 0..2 {
            if ctx.rank() == 0 {
                ctx.send(peer, 4 << 20, TAG).await;
                ctx.recv(peer, TAG).await;
            } else {
                ctx.recv(peer, TAG).await;
                ctx.send(peer, 4 << 20, TAG).await;
            }
        }
    });
    assert_pinned(
        "faults",
        got,
        (
            "cec4e2eb6bca3f38089117040eb67314",
            129,
            1314549501,
            2,
            "f3927c2286a44efb0632f04f3498b3ee",
        ),
    );
}

/// A one-site cluster of `n` default nodes (the fault_semantics testbed).
fn cluster(n: usize) -> (Network, Vec<NodeId>) {
    let mut t = Topology::new();
    let s = t.add_site("rennes", SiteParams::default());
    let nodes: Vec<_> = (0..n)
        .map(|_| t.add_node(s, NodeParams::default()))
        .collect();
    (Network::new(t), nodes)
}

/// (c) `recv_timeout` fires exactly at the armed deadline when the rank
/// is a pooled continuation, not a parked thread.
#[test]
fn recv_timeout_fires_on_schedule_under_pooled_engine() {
    let (net, nodes) = cluster(2);
    let timeout = SimDuration::from_millis(250);
    MpiJob::new(net, nodes, MpiImpl::Mpich2)
        .run(move |mut ctx: RankCtx| async move {
            if ctx.rank() == 0 {
                ctx.set_fault_policy(FaultPolicy {
                    recv_timeout: Some(timeout),
                    ..FaultPolicy::none()
                });
                let t0 = ctx.now();
                match ctx.try_recv(1, TAG).await {
                    Err(MpiError::Timeout { waited, .. }) => {
                        assert_eq!(waited, timeout);
                        assert_eq!(ctx.now().since(t0), timeout, "timeout fired off-schedule");
                    }
                    other => panic!("expected a timeout, got {other:?}"),
                }
            }
            // Rank 1 never sends.
        })
        .unwrap();
}

/// (c) A `kill_rank` fault surfaces as `SelfFailed` on the victim and
/// `PeerFailed` on the survivor under the pooled scheduler.
#[test]
fn kill_rank_semantics_hold_under_pooled_engine() {
    let (net, nodes) = cluster(2);
    let plan = FaultPlan::new().kill_rank(1, SimTime::from_nanos(1_000_000));
    MpiJob::new(net, nodes, MpiImpl::Mpich2)
        .with_faults(plan)
        .run(|mut ctx: RankCtx| async move {
            if ctx.rank() == 0 {
                ctx.compute(SimDuration::from_millis(10)).await;
                assert!(ctx.peer_failed(1));
                match ctx.try_send(1, 1 << 20, TAG).await {
                    Err(MpiError::PeerFailed { rank: 1 }) => {}
                    other => panic!("expected PeerFailed, got {other:?}"),
                }
            } else {
                match ctx.try_recv(0, TAG).await {
                    Err(MpiError::SelfFailed) => {}
                    other => panic!("expected SelfFailed, got {other:?}"),
                }
            }
        })
        .unwrap();
}
