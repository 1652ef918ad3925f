//! Sharding is performance-only: the partition is a pure function of
//! `(topology, placement, pattern)`, never of the worker count, so a PDES
//! run's observed event stream — and therefore its digest — must be
//! bit-identical for any `shards` value. This property test drives random
//! topologies, traffic shapes, and fast-path settings through
//! worker counts 1 vs {2, 3..8} and compares digests.
//!
//! Traffic under [`CommPattern::SiteDisjoint`] honours the audit contract
//! (every directed link carries flows of at most one group): the eager
//! ring has in-degree 1 per rank, and the rendezvous pingpong runs on a
//! two-site pair where both directed channels exist consistently.

use std::sync::Arc;

use desim::obs::Obs;
use desim::prop::forall;
use desim::{DigestSink, DigestValue, Recorder, SimDuration};
use mpisim::{CommPattern, ExecConfig, MpiImpl, MpiJob, RankCtx};
use netsim::{Network, NodeId, NodeParams, SiteParams, Topology};

/// Pure data describing one randomized job — topologies can't be reused
/// across runs, so the case is rebuilt identically for every shard count.
#[derive(Clone)]
struct Case {
    ranks_per_site: Vec<usize>,
    /// Symmetric RTT matrix in microseconds (upper triangle used).
    rtt_us: Vec<Vec<u64>>,
    pattern: CommPattern,
    fast_path: bool,
    traffic: Traffic,
}

#[derive(Clone, Copy)]
enum Traffic {
    /// Rank r sends to r+1, receives from r-1 (mod n); always eager.
    EagerRing { rounds: usize, bytes: u64 },
    /// Rank 0 <-> first rank of the second site, above the eager
    /// threshold (rendezvous); other ranks idle.
    RndvPingpong { rounds: usize, bytes: u64 },
    /// Everyone sends to rank 0, then a closing allreduce. General only.
    FanIn { rounds: usize, bytes: u64 },
}

fn build(case: &Case) -> (Network, Vec<NodeId>) {
    let mut topo = Topology::new();
    let mut sites = Vec::new();
    let mut placement = Vec::new();
    for (i, &n) in case.ranks_per_site.iter().enumerate() {
        let s = topo.add_site(format!("s{i}"), SiteParams::default());
        sites.push(s);
        for _ in 0..n {
            placement.push(topo.add_node(s, NodeParams::default()));
        }
    }
    for i in 0..sites.len() {
        for j in (i + 1)..sites.len() {
            topo.connect_sites(
                sites[i],
                sites[j],
                SimDuration::from_micros(case.rtt_us[i][j]),
                9.4e9 / 8.0,
                512 * 1024,
            );
        }
    }
    (Network::new(topo), placement)
}

fn digest_of(case: &Case, shards: u32) -> DigestValue {
    let (net, placement) = build(case);
    let n = placement.len();
    let partner = case.ranks_per_site[0]; // first rank of the second site
    let sink = Arc::new(DigestSink::new());
    let exec = ExecConfig::new()
        .shards(shards)
        .fast_path(case.fast_path)
        .pattern(case.pattern);
    let traffic = case.traffic;
    let report = MpiJob::new(net, placement, MpiImpl::Mpich2)
        .with_obs(Obs::none().recorder(Arc::clone(&sink) as Arc<dyn Recorder>))
        .with_exec(exec)
        .run(move |mut ctx: RankCtx| async move {
            const TAG: u64 = 7;
            let r = ctx.rank();
            match traffic {
                Traffic::EagerRing { rounds, bytes } => {
                    for _ in 0..rounds {
                        ctx.send((r + 1) % n, bytes, TAG).await;
                        ctx.recv((r + n - 1) % n, TAG).await;
                    }
                }
                Traffic::RndvPingpong { rounds, bytes } => {
                    if r == 0 {
                        for _ in 0..rounds {
                            ctx.send(partner, bytes, TAG).await;
                            ctx.recv(partner, TAG).await;
                        }
                    } else if r == partner {
                        for _ in 0..rounds {
                            ctx.recv(0, TAG).await;
                            ctx.send(0, bytes, TAG).await;
                        }
                    }
                }
                Traffic::FanIn { rounds, bytes } => {
                    if r == 0 {
                        for _ in 0..(n - 1) * rounds {
                            ctx.recv_any(TAG).await;
                        }
                    } else {
                        for _ in 0..rounds {
                            ctx.send(0, bytes, TAG).await;
                        }
                    }
                    ctx.allreduce(1024).await;
                }
            }
        })
        .expect("run succeeds");
    sink.absorb_u64(report.elapsed.as_nanos());
    for d in &report.per_rank {
        sink.absorb_u64(d.as_nanos());
    }
    sink.absorb_u64(report.clean as u64);
    sink.value()
}

/// The PDES driver changes the execution schedule, not the physics: a
/// pingpong's virtual elapsed time must agree with the classic kernel's
/// to within f64 settle noise.
#[test]
fn pdes_elapsed_matches_classic() {
    let run = |shards: Option<u32>| {
        let (topo, a, b) = netsim::grid5000_pair(1);
        let exec = match shards {
            None => ExecConfig::new(),
            Some(s) => ExecConfig::new()
                .shards(s)
                .pattern(CommPattern::SiteDisjoint),
        };
        MpiJob::new(Network::new(topo), vec![a[0], b[0]], MpiImpl::Mpich2)
            .with_exec(exec)
            .run(|mut ctx: RankCtx| async move {
                const TAG: u64 = 1;
                for bytes in [1u64, 64 * 1024, 1024 * 1024] {
                    if ctx.rank() == 0 {
                        ctx.send(1, bytes, TAG).await;
                        ctx.recv(1, TAG).await;
                    } else {
                        ctx.recv(0, TAG).await;
                        ctx.send(0, bytes, TAG).await;
                    }
                }
            })
            .expect("run succeeds")
            .elapsed
    };
    let classic = run(None).as_nanos() as f64;
    for shards in [1, 2, 4] {
        let pdes = run(Some(shards)).as_nanos() as f64;
        let rel = (pdes - classic).abs() / classic;
        assert!(
            rel < 1e-9,
            "pdes elapsed {pdes} ns vs classic {classic} ns at shards={shards}"
        );
    }
}

#[test]
fn digest_is_invariant_under_worker_count() {
    forall(10, 0x5EED_9DE5, |rng| {
        let kind = rng.range_usize(0, 3);
        // The rendezvous pair needs exactly two sites; the others roam.
        let nsites = if kind == 1 { 2 } else { rng.range_usize(2, 5) };
        let ranks_per_site: Vec<usize> = (0..nsites).map(|_| rng.range_usize(1, 3)).collect();
        let rtt_us: Vec<Vec<u64>> = (0..nsites)
            .map(|i| {
                (0..nsites)
                    .map(|j| {
                        if j > i {
                            rng.range_u64(4_000, 30_000)
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        let (pattern, traffic) = match kind {
            0 => (
                CommPattern::SiteDisjoint,
                Traffic::EagerRing {
                    rounds: rng.range_usize(1, 4),
                    bytes: rng.range_u64(1, 2048),
                },
            ),
            1 => (
                CommPattern::SiteDisjoint,
                Traffic::RndvPingpong {
                    rounds: rng.range_usize(1, 3),
                    bytes: rng.range_u64(512 * 1024, 2 * 1024 * 1024),
                },
            ),
            _ => (
                CommPattern::General,
                Traffic::FanIn {
                    rounds: rng.range_usize(1, 3),
                    bytes: rng.range_u64(1, 64 * 1024),
                },
            ),
        };
        let case = Case {
            ranks_per_site,
            rtt_us,
            pattern,
            fast_path: rng.chance(0.5),
            traffic,
        };
        let base = digest_of(&case, 1);
        for shards in [2, rng.range_u64(3, 9) as u32] {
            let got = digest_of(&case, shards);
            assert_eq!(
                got, base,
                "digest diverged at shards={shards} (pattern {:?}, fast {})",
                case.pattern, case.fast_path
            );
        }
    });
}
