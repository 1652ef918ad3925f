//! The three workloads and the jobs they are made of.
//!
//! A workload turns a seed into a list of [`Job`]s. A job is one
//! simulation: it is built through the `repro` [`Scenario`] builder (the
//! `netsim` topology and network), run through `mpisim`, and yields the
//! virtual outputs the reference table pins ([`Output`]). Every input a
//! seed can produce comes from a finite candidate set, so
//! [`Workload::reachable`] enumerates the whole input space and the
//! recorded reference covers every seed.

use std::sync::Arc;

use desim::prop::{mix_seed, Rng};
use desim::{DigestValue, Obs, SimError, SimTime};
use mpisim::{MpiImpl, RankCtx, RunReport, Tuning};
use netsim::{grid5000_pair, KernelConfig, Network, NodeId};
use npb::{NasBenchmark, NasClass, NasRun};
use repro::scenario::Scenario;
use repro::util::{Scope, TuningLevel};

/// Ranks of the `rank_ring` job (the `repro ring` default).
pub const RING_RANKS: usize = 4096;
/// Nodes per site the ring's ranks are block-placed on (8 + 8).
const RING_NODES_PER_SITE: usize = 8;
/// Per-round eager payloads of the `rank_ring` job, bytes: one round
/// each, in an order the seed draws, so every seed moves the same bytes.
const RING_PAYLOADS: [u64; 4] = [512, 1024, 2048, 4096];
/// Round trips per pingpong job (the `repro` figure sweeps use 20).
const PP_ROUND_TRIPS: u32 = 20;
/// Largest pingpong message: 64 MB, the right edge of Figs. 3/5/6/7.
const PP_MAX_OCTAVE: u32 = 26;
/// The `repro` NAS deadline: one hour of virtual time.
const NAS_DEADLINE: SimTime = SimTime::from_nanos(3_600_000_000_000);

const SCOPES: [Scope; 2] = [Scope::Cluster, Scope::Grid];
const LEVELS: [TuningLevel; 3] = [
    TuningLevel::Default,
    TuningLevel::TcpTuned,
    TuningLevel::FullyTuned,
];

/// One named workload of `BENCHMARK.json`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// NPB class B, all eight kernels on 16 ranks, cluster and 8+8 grid.
    NpbB,
    /// 4096 ranks block-placed on 8+8 nodes, `sendrecv` around a ring.
    RankRing,
    /// The Fig. 3/5/6/7 + Table 4 pingpong matrix.
    PingpongSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::NpbB, Workload::RankRing, Workload::PingpongSweep];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NpbB => "npb_b",
            Workload::RankRing => "rank_ring",
            Workload::PingpongSweep => "pingpong_sweep",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The jobs of one pass for `seed`. The seed permutes the job order
    /// of `npb_b`, draws the order of the per-round payloads of
    /// `rank_ring` and draws each pingpong job's message size within its
    /// octave. Every seed gives the same amount of work, up to the
    /// within-octave draws averaged over 648 pingpong jobs.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        let mut rng = Rng::new(mix_seed(seed, self as u64));
        match self {
            Workload::NpbB => shuffle(npb_cells(), &mut rng),
            Workload::RankRing => vec![Job::Ring {
                payloads: shuffle(RING_PAYLOADS.to_vec(), &mut rng),
            }],
            Workload::PingpongSweep => pingpong_configs()
                .flat_map(|(id, scope, level)| {
                    (0..=PP_MAX_OCTAVE)
                        .map(|k| (id, scope, level, *rng.pick(&octave_sizes(k))))
                        .collect::<Vec<_>>()
                })
                .map(|(id, scope, level, bytes)| Job::Pingpong {
                    id,
                    scope,
                    level,
                    bytes,
                })
                .collect(),
        }
    }

    /// Every job any seed can produce: the reference table's rows.
    pub fn reachable(self) -> Vec<Job> {
        match self {
            Workload::NpbB => npb_cells(),
            Workload::RankRing => permutations(&RING_PAYLOADS)
                .into_iter()
                .map(|payloads| Job::Ring { payloads })
                .collect(),
            Workload::PingpongSweep => pingpong_configs()
                .flat_map(|(id, scope, level)| {
                    (0..=PP_MAX_OCTAVE)
                        .flat_map(octave_sizes)
                        .map(move |bytes| Job::Pingpong {
                            id,
                            scope,
                            level,
                            bytes,
                        })
                })
                .collect(),
        }
    }

    /// The untimed job that ends set-up: one of the workload's own jobs
    /// (LU on the cluster, 64 MB over the untuned grid), or for the ring
    /// a one-round ring at full rank count.
    pub fn warmup(self) -> Job {
        match self {
            Workload::NpbB => Job::Npb {
                bench: NasBenchmark::Lu,
                grid: false,
            },
            Workload::RankRing => Job::Ring {
                payloads: vec![1024],
            },
            Workload::PingpongSweep => Job::Pingpong {
                id: MpiImpl::Mpich2,
                scope: Scope::Grid,
                level: TuningLevel::Default,
                bytes: 1 << PP_MAX_OCTAVE,
            },
        }
    }
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(mut v: Vec<T>, rng: &mut Rng) -> Vec<T> {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range_usize(0, i + 1));
    }
    v
}

/// Every ordering of `items`.
fn permutations(items: &[u64]) -> Vec<Vec<u64>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    (0..items.len())
        .flat_map(|i| {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            permutations(&rest).into_iter().map(move |mut p| {
                p.insert(0, first);
                p
            })
        })
        .collect()
}

/// The 16 NPB cells: eight kernels, each on one cluster and on the grid.
fn npb_cells() -> Vec<Job> {
    NasBenchmark::ALL
        .iter()
        .flat_map(|&bench| [false, true].map(|grid| Job::Npb { bench, grid }))
        .collect()
}

/// The 24 pingpong configurations: implementation × scope × tuning.
fn pingpong_configs() -> impl Iterator<Item = (MpiImpl, Scope, TuningLevel)> {
    MpiImpl::ALL.into_iter().flat_map(|id| {
        SCOPES
            .into_iter()
            .flat_map(move |scope| LEVELS.into_iter().map(move |level| (id, scope, level)))
    })
}

/// Candidate message sizes of octave `k`: `2^k` plus quarter steps
/// inside `[2^k, 2^(k+1))`; the last octave is exactly 64 MB.
fn octave_sizes(k: u32) -> Vec<u64> {
    let base = 1u64 << k;
    if k == PP_MAX_OCTAVE {
        return vec![base];
    }
    let step = (base / 4).max(1);
    (0..4)
        .map(|j| base + j * step)
        .filter(|&s| s < 2 * base)
        .collect()
}

/// One simulation of a workload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Job {
    /// One NPB class-B kernel on 16 ranks, MPICH2 fully tuned.
    Npb {
        /// Kernel.
        bench: NasBenchmark,
        /// 8+8 nodes over the WAN instead of 16 on one cluster.
        grid: bool,
    },
    /// The rank-scale ring, one payload per round.
    Ring {
        /// Bytes each rank sends right in each round.
        payloads: Vec<u64>,
    },
    /// One pingpong point: `PP_ROUND_TRIPS` round trips of `bytes`.
    Pingpong {
        /// MPI implementation.
        id: MpiImpl,
        /// Cluster or grid pair.
        scope: Scope,
        /// Tuning level.
        level: TuningLevel,
        /// Message size.
        bytes: u64,
    },
}

/// Virtual outputs of one job: what the reference table pins. Kernel
/// event counts are left out on purpose (a valid kernel optimisation may
/// change them); the digest is compared but never fails a job.
#[derive(Clone, Debug, PartialEq)]
pub struct Output {
    /// Virtual elapsed time, ns.
    pub elapsed_ns: u64,
    /// Wire messages (payload + protocol control).
    pub wire_msgs: u64,
    /// Wire bytes.
    pub wire_bytes: u64,
    /// The workload's own figure: the NAS full-run estimate in ns, the
    /// pingpong minimum one-way time in s, the ring's p2p message count.
    pub aux: f64,
    /// Event-stream digest, when a digest sink was attached.
    pub digest: Option<DigestValue>,
}

/// Work counters of one job that are not part of the reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobCounts {
    /// Point-to-point messages (`CommStats::p2p_messages`).
    pub p2p_msgs: u64,
    /// Collective calls over every operation and size.
    pub coll_calls: u64,
}

impl Job {
    /// The reference-table key.
    pub fn key(&self) -> String {
        match self {
            Job::Npb { .. } => format!("npb/{}", self.label()),
            Job::Ring { payloads } => {
                let p: Vec<String> = payloads.iter().map(u64::to_string).collect();
                format!("ring/{RING_RANKS}/{}", p.join("-"))
            }
            Job::Pingpong {
                id,
                scope,
                level,
                bytes,
            } => format!("pp/{id:?}/{scope:?}/{level:?}/{bytes}"),
        }
    }

    /// Short display label: `IS_c16`, `IS_g8x8`, `ring`, `pp`.
    pub fn label(&self) -> String {
        match self {
            Job::Npb { bench, grid } => {
                format!("{}_{}", bench.name(), if *grid { "g8x8" } else { "c16" })
            }
            Job::Ring { .. } => "ring".to_string(),
            Job::Pingpong { .. } => "pp".to_string(),
        }
    }

    /// Build the job's network and scenario (the `netsim` build span).
    pub fn scenario(&self) -> Scenario {
        match *self {
            Job::Npb { grid, .. } => {
                let (sites, rennes, nancy) = if grid { (8, 8, 8) } else { (16, 16, 0) };
                Scenario::npb(
                    sites,
                    rennes,
                    nancy,
                    TuningLevel::FullyTuned,
                    MpiImpl::Mpich2,
                )
            }
            Job::Ring { .. } => {
                let (mut topo, rn, nn) = grid5000_pair(RING_NODES_PER_SITE);
                topo.set_kernel_all(KernelConfig::tuned(4 << 20));
                let nodes: Vec<NodeId> = rn.into_iter().chain(nn).collect();
                let placement = (0..RING_RANKS)
                    .map(|r| nodes[r * nodes.len() / RING_RANKS])
                    .collect();
                Scenario::custom(Network::new(topo), placement, MpiImpl::Mpich2)
                    .tuning(Tuning::paper_tuned(MpiImpl::Mpich2))
            }
            Job::Pingpong {
                id, scope, level, ..
            } => Scenario::pair(scope, level, id),
        }
    }

    /// Run the job on a built scenario (the `mpisim` run span).
    pub fn execute(&self, scenario: Scenario, obs: Obs) -> Result<(Output, JobCounts), String> {
        let scenario = scenario.observe(obs);
        let (report, aux) =
            match self {
                Job::Npb { bench, .. } => {
                    let run = NasRun::new(*bench, NasClass::B);
                    let report = scenario.deadline(NAS_DEADLINE).run(run.program()).map_err(
                        |e| match e {
                            SimError::TimeLimitExceeded(t) => {
                                format!("unexpected NAS timeout at {t}")
                            }
                            e => e.to_string(),
                        },
                    )?;
                    let estimate = run.estimate(&report).as_nanos() as f64;
                    (report, estimate)
                }
                Job::Ring { payloads } => {
                    let payloads: Arc<[u64]> = payloads.as_slice().into();
                    let report = scenario
                        .run(move |mut ctx: RankCtx| {
                            let payloads = Arc::clone(&payloads);
                            async move {
                                const TAG: u64 = 7;
                                let right = (ctx.rank() + 1) % ctx.size();
                                let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
                                for &bytes in payloads.iter() {
                                    ctx.sendrecv(right, bytes, left, TAG).await;
                                }
                            }
                        })
                        .map_err(|e| e.to_string())?;
                    let p2p = report.stats.p2p_messages() as f64;
                    (report, p2p)
                }
                Job::Pingpong { bytes, .. } => {
                    let bytes = *bytes;
                    let report = scenario
                        .run(move |mut ctx: RankCtx| async move {
                            const TAG: u64 = 1;
                            for _ in 0..PP_ROUND_TRIPS {
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
                        })
                        .map_err(|e| e.to_string())?;
                    let min_one_way = report
                        .values("one_way")
                        .into_iter()
                        .map(|(_, v)| v)
                        .fold(f64::INFINITY, f64::min);
                    (report, min_one_way)
                }
            };
        if !report.clean {
            return Err("run left undrained messages (clean == false)".to_string());
        }
        Ok(outputs(&report, aux))
    }
}

fn outputs(report: &RunReport, aux: f64) -> (Output, JobCounts) {
    let out = Output {
        elapsed_ns: report.elapsed.as_nanos(),
        wire_msgs: report.stats.wire_messages,
        wire_bytes: report.stats.wire_bytes,
        aux,
        digest: None,
    };
    let counts = JobCounts {
        p2p_msgs: report.stats.p2p_messages(),
        coll_calls: report.stats.collective_calls.values().sum(),
    };
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seeded_job_is_reachable() {
        for w in Workload::ALL {
            let reachable: std::collections::HashSet<String> =
                w.reachable().iter().map(Job::key).collect();
            for seed in [0, 1, 7, 12345, u64::MAX] {
                for job in w.jobs(seed) {
                    assert!(
                        reachable.contains(&job.key()),
                        "{} not reachable",
                        job.key()
                    );
                }
            }
        }
    }

    #[test]
    fn seeds_fix_inputs_and_workloads_keep_their_size() {
        for w in Workload::ALL {
            assert_eq!(w.jobs(3), w.jobs(3));
            assert_eq!(w.jobs(3).len(), w.jobs(4).len());
        }
        assert_eq!(Workload::NpbB.jobs(1).len(), 16);
        assert_eq!(Workload::PingpongSweep.jobs(1).len(), 648);
        assert_eq!(Workload::PingpongSweep.reachable().len(), 2400);
        assert_eq!(Workload::RankRing.reachable().len(), 24);
    }

    #[test]
    fn octaves_cover_one_byte_to_64_megabytes() {
        assert_eq!(octave_sizes(0), vec![1]);
        assert_eq!(octave_sizes(1), vec![2, 3]);
        assert_eq!(octave_sizes(10), vec![1024, 1280, 1536, 1792]);
        assert_eq!(octave_sizes(PP_MAX_OCTAVE), vec![64 << 20]);
    }
}
