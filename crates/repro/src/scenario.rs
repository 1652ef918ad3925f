//! `Scenario` — one builder for every experiment's wiring, and the
//! registry of the testbeds and MPI programs the experiments share.
//!
//! `Scenario` owns the chain topology → tuning → workload → faults →
//! recorder → run, and is the only place that builds an [`MpiJob`].
//! Each testbed of the paper's §4 is one constructor here (the Fig. 2
//! pair, the NPB two-site grid, the four-site ray2mesh grid and its flat
//! variant, the block-placed ring), and each program more than one run
//! drives is one function (ping-pong, one-way send, ring, collective
//! loop), so experiments only state what is *different* about them.

use std::sync::Arc;

use desim::fault::FaultPlan;
use desim::obs::Obs;
use desim::{Sim, SimError, SimTime};
use mpisim::{
    CollAlgo, CollOp, CollSel, ExecConfig, ImplProfile, MpiImpl, MpiJob, MpiProgram, RankCtx,
    RunReport, Tuning,
};
use netsim::{
    grid5000_four_sites, grid5000_pair, Grid5000Site, KernelConfig, Network, NodeId, Path,
};

use crate::util::{Scope, TuningLevel};

/// A fully described experiment, ready to [`Scenario::run`].
pub struct Scenario {
    net: Network,
    placement: Vec<NodeId>,
    impl_id: MpiImpl,
    tuning: Tuning,
    profile: Option<ImplProfile>,
    faults: Option<FaultPlan>,
    observe: Obs,
    exec: ExecConfig,
    deadline: Option<SimTime>,
}

impl Scenario {
    /// Two endpoints on the Fig. 2 testbed (cluster or grid pair), with
    /// `level`'s kernel and MPI tuning applied for `id`. Rank 0 is the
    /// first endpoint, rank 1 the second.
    pub fn pair(scope: Scope, level: TuningLevel, id: MpiImpl) -> Scenario {
        let (net, placement) = pair_nodes(scope, level.kernel(Some(id)));
        Scenario::custom(net, placement, id).tuning(level.tuning(id))
    }

    /// A grid pair driven as raw TCP: the MPI machinery with a
    /// zero-overhead, all-eager, unpaced profile (what the paper's
    /// socket-level pingpong measures).
    pub fn raw_pair(scope: Scope, level: TuningLevel) -> Scenario {
        let (net, placement) = pair_nodes(scope, level.kernel(None));
        let mut profile = ImplProfile::mpich2();
        profile.overhead_lan = desim::SimDuration::ZERO;
        profile.overhead_wan = desim::SimDuration::ZERO;
        profile.eager_threshold = u64::MAX;
        Scenario::custom(net, placement, MpiImpl::Mpich2).profile(profile)
    }

    /// The NPB testbed: `ranks_rennes` + `ranks_nancy` ranks over two
    /// sites of `nodes_per_site` nodes each.
    pub fn npb(
        nodes_per_site: usize,
        ranks_rennes: usize,
        ranks_nancy: usize,
        level: TuningLevel,
        id: MpiImpl,
    ) -> Scenario {
        let per_site = nodes_per_site.max(ranks_rennes).max(ranks_nancy);
        let (net, rn, nn) = two_sites(per_site, level.kernel(Some(id)));
        let mut placement: Vec<NodeId> = rn.into_iter().take(ranks_rennes).collect();
        placement.extend(nn.into_iter().take(ranks_nancy));
        Scenario::custom(net, placement, id).tuning(level.tuning(id))
    }

    /// The ray2mesh testbed (Fig. 8): four sites of `slaves_per_site`
    /// nodes, the master (rank 0) co-located on the first node of
    /// `master`'s site, slaves laid out site by site.
    pub fn four_sites(slaves_per_site: usize, master: Grid5000Site, id: MpiImpl) -> Scenario {
        let (net, nodes) = four_site_nodes(slaves_per_site, KernelConfig::tuned(4 << 20));
        let mut placement = vec![nodes[master.index()][0]];
        placement.extend(nodes.concat());
        Scenario::custom(net, placement, id)
    }

    /// The four Fig. 8 sites without a master: `ranks_per_site` ranks on
    /// each site, laid out site by site, with `level`'s kernel and MPI
    /// tuning applied for `id` (the collective sweeps' WAN testbed).
    pub fn four_sites_flat(ranks_per_site: usize, level: TuningLevel, id: MpiImpl) -> Scenario {
        let (net, nodes) = four_site_nodes(ranks_per_site, level.kernel(Some(id)));
        Scenario::custom(net, nodes.concat(), id).tuning(level.tuning(id))
    }

    /// The rank-scale ring testbed: `ranks` MPICH2 ranks in contiguous
    /// blocks over the fully tuned 8+8 grid, so ring edges are mostly
    /// node-local.
    pub fn ring(ranks: usize) -> Scenario {
        let mut scenario = Scenario::npb(8, 8, 8, TuningLevel::FullyTuned, MpiImpl::Mpich2);
        let nodes = std::mem::take(&mut scenario.placement);
        scenario.placement = (0..ranks)
            .map(|r| nodes[r * nodes.len() / ranks.max(nodes.len())])
            .collect();
        scenario
    }

    /// An arbitrary network + placement (escape hatch for custom
    /// topologies).
    pub fn custom(net: Network, placement: Vec<NodeId>, id: MpiImpl) -> Scenario {
        Scenario {
            net,
            placement,
            impl_id: id,
            tuning: Tuning::none(),
            profile: None,
            faults: None,
            observe: Obs::none(),
            exec: ExecConfig::new(),
            deadline: None,
        }
    }

    /// A handle on the scenario's network (to read link counters after
    /// the run, or to drive background traffic from a setup hook).
    pub fn network(&self) -> Network {
        self.net.clone()
    }

    /// The node each rank runs on.
    pub fn placement(&self) -> &[NodeId] {
        &self.placement
    }

    /// The network path from rank `from`'s node to rank `to`'s.
    pub fn route(&self, from: usize, to: usize) -> Path {
        let (a, b) = (self.placement[from], self.placement[to]);
        self.net.with_topology(|t| t.route(a, b))
    }

    /// Replace the MPI tuning overrides.
    pub fn tuning(mut self, tuning: Tuning) -> Scenario {
        self.tuning = tuning;
        self
    }

    /// Replace the whole implementation profile.
    pub fn profile(mut self, profile: ImplProfile) -> Scenario {
        self.profile = Some(profile);
        self
    }

    /// Inject faults from `plan`; the job ignores an empty plan
    /// ([`mpisim::MpiJob::with_faults`]).
    pub fn faults(mut self, plan: FaultPlan) -> Scenario {
        self.faults = Some(plan);
        self
    }

    /// Configure observability in one shot: recorder and/or host-time
    /// self-profiler. `Some` fields of `obs` override earlier settings.
    pub fn observe(mut self, obs: Obs) -> Scenario {
        if let Some(rec) = obs.recorder {
            self.observe.recorder = Some(rec);
        }
        if let Some(prof) = obs.profiler {
            self.observe.profiler = Some(prof);
        }
        self
    }

    /// Configure execution: collective selection.
    pub fn exec(mut self, exec: ExecConfig) -> Scenario {
        self.exec = exec;
        self
    }

    /// Attach an observability recorder.
    pub fn recorder(self, rec: Arc<dyn desim::obs::Recorder>) -> Scenario {
        self.observe(Obs::none().recorder(rec))
    }

    /// Attach the `--trace-out` / `--metrics` sink, if the user asked for
    /// one on the command line.
    pub fn obs(self, sink: &Option<(Arc<desim::RingSink>, Arc<desim::Metrics>)>) -> Scenario {
        match sink {
            Some((sink, _)) => self.recorder(sink.clone() as Arc<dyn desim::obs::Recorder>),
            None => self,
        }
    }

    /// Abort the run past `limit` of virtual time.
    pub fn deadline(mut self, limit: SimTime) -> Scenario {
        self.deadline = Some(limit);
        self
    }

    /// Assemble the [`MpiJob`] and run `program` on every rank.
    pub fn run(self, program: impl MpiProgram) -> Result<RunReport, SimError> {
        self.run_with_setup(|_| {}, program)
    }

    /// Like [`Scenario::run`], with a hook that can spawn auxiliary
    /// simulation tasks (e.g. background traffic) before the ranks start.
    pub fn run_with_setup(
        self,
        setup: impl FnOnce(&Sim),
        program: impl MpiProgram,
    ) -> Result<RunReport, SimError> {
        let mut job = MpiJob::new(self.net, self.placement, self.impl_id)
            .with_tuning(self.tuning)
            .with_obs(self.observe)
            .with_exec(self.exec);
        if let Some(profile) = self.profile {
            job = job.with_profile(profile);
        }
        if let Some(limit) = self.deadline {
            job = job.with_deadline(limit);
        }
        if let Some(plan) = self.faults {
            job = job.with_faults(plan);
        }
        job.run_with_setup(setup, program)
    }
}

/// The Fig. 2 testbed: `per_site` nodes in Rennes and in Nancy, `kernel`
/// applied everywhere.
fn two_sites(per_site: usize, kernel: KernelConfig) -> (Network, Vec<NodeId>, Vec<NodeId>) {
    let (mut topo, rn, nn) = grid5000_pair(per_site);
    topo.set_kernel_all(kernel);
    (Network::new(topo), rn, nn)
}

/// The two endpoints of a Fig. 2 pair experiment in `scope`.
fn pair_nodes(scope: Scope, kernel: KernelConfig) -> (Network, Vec<NodeId>) {
    let (net, rn, nn) = two_sites(2, kernel);
    let second = match scope {
        Scope::Cluster => rn[1],
        Scope::Grid => nn[0],
    };
    (net, vec![rn[0], second])
}

/// `per_site` nodes on each of the four Fig. 8 sites, `kernel`
/// applied everywhere, grouped by site.
fn four_site_nodes(per_site: usize, kernel: KernelConfig) -> (Network, Vec<Vec<NodeId>>) {
    let (mut topo, _sites, nodes) = grid5000_four_sites(per_site);
    topo.set_kernel_all(kernel);
    (Network::new(topo), nodes)
}

/// The ping-pong every two-rank experiment drives: `iters` round trips
/// of `bytes` between ranks 0 and 1. After each round trip rank 0
/// records `"one_way"` (half the round trip, seconds) and `"t"` (the
/// virtual time at its end, seconds). Records emit no observability
/// event, so traces and digests are those of the bare exchange.
pub fn pingpong_program(bytes: u64, iters: u32) -> impl MpiProgram {
    move |mut ctx: RankCtx| async move {
        const TAG: u64 = 1;
        for _ in 0..iters {
            if ctx.rank() == 0 {
                let t0 = ctx.now();
                ctx.send(1, bytes, TAG).await;
                ctx.recv(1, TAG).await;
                ctx.record("one_way", ctx.now().since(t0).as_secs_f64() / 2.0);
                ctx.record("t", ctx.now().as_secs_f64());
            } else {
                ctx.recv(0, TAG).await;
                ctx.send(0, bytes, TAG).await;
            }
        }
    }
}

/// One one-way transfer: rank 0 sends `bytes` with `tag` and rank 1
/// receives it. The run's elapsed time is the transfer's completion.
pub fn send_program(bytes: u64, tag: u64) -> impl MpiProgram {
    move |mut ctx: RankCtx| async move {
        if ctx.rank() == 0 {
            ctx.send(1, bytes, tag).await;
        } else {
            ctx.recv(0, tag).await;
        }
    }
}

/// The rank-scale ring: every rank exchanges `rounds` 1 kB messages
/// with its ring neighbours through `sendrecv`.
pub fn ring_program(rounds: u32) -> impl MpiProgram {
    move |mut ctx: RankCtx| async move {
        const TAG: u64 = 7;
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        for _ in 0..rounds {
            ctx.sendrecv(right, 1024, left, TAG).await;
        }
    }
}

/// `rounds` back-to-back collectives of `bytes`: a bcast from rank 0
/// when `op` is [`CollOp::Bcast`], an allreduce otherwise.
pub fn coll_program(op: CollOp, bytes: u64, rounds: u32) -> impl MpiProgram {
    move |mut ctx: RankCtx| async move {
        for _ in 0..rounds {
            match op {
                CollOp::Bcast => ctx.bcast(0, bytes).await,
                _ => ctx.allreduce(bytes).await,
            }
        }
    }
}

/// The collective selection named `name`: an algorithm's
/// [`CollAlgo::name`], with `+2lvl` for its two-level grid variant.
pub fn coll_sel(name: &str) -> CollSel {
    use CollAlgo::*;
    let (algo, two_level) = match name.strip_suffix("+2lvl") {
        Some(flat) => (flat, true),
        None => (name, false),
    };
    let algo = [Linear, Chain, Pipeline, Binary, InOrderBinary, Binomial]
        .into_iter()
        .chain([ScatterAllgather, Ring, RecursiveDoubling, Rabenseifner])
        .find(|a| a.name() == algo)
        .unwrap_or_else(|| panic!("unknown collective algorithm {name:?}"));
    CollSel { algo, two_level }
}

/// The fault-tolerant ray2mesh run's fault plan: ranks 3 and 6 are
/// killed at 1 s and 2 s of virtual time (seed 7).
pub(crate) fn two_kills() -> FaultPlan {
    FaultPlan::new()
        .with_seed(7)
        .kill_rank(3, SimTime::from_nanos(1_000_000_000))
        .kill_rank(6, SimTime::from_nanos(2_000_000_000))
}

/// The fastest one-way time (seconds) of a [`pingpong_program`] run.
pub fn min_one_way(report: &RunReport) -> f64 {
    report
        .values("one_way")
        .into_iter()
        .map(|(_, v)| v)
        .fold(f64::INFINITY, f64::min)
}
