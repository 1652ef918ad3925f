//! The `mpirun` analogue: place ranks on nodes, apply a profile and
//! tuning, execute an SPMD program, and collect the run report.
//!
//! One run body ([`MpiJob::run_with_setup`]) serves every job: one plain
//! [`Sim`] over the job's one [`Network`], with the recorder attached
//! directly. Every rank is a pooled continuation task
//! ([`desim::Sim::spawn_task`]), and so is the fault-injection bootstrap
//! (`faultd`): no simulated actor occupies an OS thread.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;

use desim::fault::{FaultKind, FaultPlan};
use desim::obs::Obs;
use desim::{Sim, SimDuration, SimError, SimTime};

use netsim::{Network, NodeId};

use crate::exec::ExecConfig;
use crate::profile::{ImplProfile, MpiImpl, Tuning};
use crate::rank::RankCtx;
use crate::stats::CommStats;
use crate::world::WorldInner;

/// An MPI program: SPMD body run by every rank. Implemented automatically
/// for async closures taking the rank's [`RankCtx`] by value:
///
/// ```no_run
/// # use mpisim::{MpiImpl, MpiJob, RankCtx};
/// # use netsim::{grid5000_pair, Network};
/// # let (topo, rennes, _nancy) = grid5000_pair(2);
/// # let job = MpiJob::new(Network::new(topo), rennes, MpiImpl::Mpich2);
/// job.run(|mut ctx: RankCtx| async move {
///     ctx.barrier().await;
/// })
/// # .unwrap();
/// ```
pub trait MpiProgram: 'static {
    /// The per-rank body, as a boxed future (the kernel polls it as a
    /// pooled task).
    fn run(&self, ctx: RankCtx) -> Pin<Box<dyn Future<Output = ()> + 'static>>;
}

impl<F, Fut> MpiProgram for F
where
    F: Fn(RankCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    fn run(&self, ctx: RankCtx) -> Pin<Box<dyn Future<Output = ()> + 'static>> {
        Box::pin(self(ctx))
    }
}

/// A configured MPI job, ready to [`MpiJob::run`].
pub struct MpiJob {
    /// The network the job runs on.
    pub net: Network,
    /// Rank → node placement.
    pub placement: Vec<NodeId>,
    /// Implementation profile.
    pub profile: ImplProfile,
    /// Tuning overrides (§4.2).
    pub tuning: Tuning,
    /// Observability configuration (recorder + host profiler), consumed
    /// once at run start and attached to the network, the kernel, and
    /// every rank for the duration of the run.
    pub obs: Obs,
    /// Abort the run (with [`SimError::TimeLimitExceeded`]) if virtual time
    /// passes this limit — the `mpirun` timeout the paper hit with
    /// MPICH-Madeleine on BT/SP ("the application timeout", §4.3).
    pub deadline: Option<SimTime>,
    /// Deterministic fault plan: stochastic segment loss/duplication plus
    /// timed link flaps, NIC stalls, and rank kills. `None` (and the empty
    /// plan) leave every run bit-identical to a fault-free one.
    pub faults: Option<FaultPlan>,
    /// Execution configuration: collectives.
    pub exec: ExecConfig,
}

impl MpiJob {
    /// Job with an implementation's default (untuned) behaviour.
    pub fn new(net: Network, placement: Vec<NodeId>, impl_id: MpiImpl) -> MpiJob {
        MpiJob {
            net,
            placement,
            profile: impl_id.profile(),
            tuning: Tuning::none(),
            obs: Obs::none(),
            deadline: None,
            faults: None,
            exec: ExecConfig::new(),
        }
    }

    /// Replace the whole execution configuration (collective selection).
    pub fn with_exec(mut self, exec: ExecConfig) -> MpiJob {
        self.exec = exec;
        self
    }

    /// Apply tuning overrides.
    pub fn with_tuning(mut self, tuning: Tuning) -> MpiJob {
        self.tuning = tuning;
        self
    }

    /// Replace the whole profile (custom models).
    pub fn with_profile(mut self, profile: ImplProfile) -> MpiJob {
        self.profile = profile;
        self
    }

    /// Configure observability once: MPI spans and phase markers from
    /// every rank, flow/TCP/link probes from the network, the kernel's
    /// run statistics, and (when the profiler is set) host wall-clock
    /// attribution all follow this config. Probes are read-only; virtual
    /// timestamps are unaffected (the observer-effect test suites enforce
    /// this). Fields left `None` keep the corresponding output off.
    pub fn with_obs(mut self, obs: Obs) -> MpiJob {
        if let Some(rec) = obs.recorder {
            self.obs.recorder = Some(rec);
        }
        if let Some(prof) = obs.profiler {
            self.obs.profiler = Some(prof);
        }
        self
    }

    /// Abort the run if it exceeds `limit` of virtual time.
    pub fn with_deadline(mut self, limit: SimTime) -> MpiJob {
        self.deadline = Some(limit);
        self
    }

    /// Inject faults from `plan`: per-channel segment loss/duplication is
    /// installed on the network, and a bootstrap task schedules the
    /// plan's timed events (link flaps and NIC stalls on the network, rank
    /// kills/restarts on the MPI world). An empty plan is ignored
    /// entirely: the job installs no fault state, so it runs as if this
    /// were never called. This is the one place that rule is kept.
    pub fn with_faults(mut self, plan: FaultPlan) -> MpiJob {
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Run `program` on every rank to completion.
    pub fn run(self, program: impl MpiProgram) -> Result<RunReport, SimError> {
        self.run_with_setup(|_| {}, program)
    }

    /// Like [`MpiJob::run`], with a hook that can spawn auxiliary
    /// simulation tasks (e.g. background traffic generators) before
    /// the ranks start.
    pub fn run_with_setup(
        self,
        setup: impl FnOnce(&Sim),
        program: impl MpiProgram,
    ) -> Result<RunReport, SimError> {
        let n = self.placement.len();
        assert!(n > 0, "MPI job needs at least one rank");
        let prof = self.prof_keys();
        let t_setup = prof.as_ref().map(|_| std::time::Instant::now());
        if let Some(plan) = &self.faults {
            self.net.install_faults(plan);
        }
        let sim = Sim::new();
        sim.attach_obs(&self.obs);
        self.net.attach_obs(&self.obs);
        let world = WorldInner::new(
            self.net,
            self.placement,
            self.profile,
            self.tuning,
            self.exec.coll,
            self.obs.recorder.clone(),
        );
        let program = Rc::new(program);
        setup(&sim);
        if let Some(plan) = self.faults {
            let world = Rc::clone(&world);
            sim.spawn_task("faultd", move |cx| async move {
                let s = cx.sched();
                world.net.schedule_fault_events(&s, &plan);
                for ev in plan.sorted_events() {
                    if let FaultKind::RankFail {
                        rank,
                        restart_after,
                    } = ev.kind
                    {
                        let w = Rc::clone(&world);
                        s.call_at(ev.at, move |s2| {
                            let until = restart_after.map(|d| s2.now() + d);
                            w.fail_rank(s2, rank as usize, until);
                        });
                    }
                }
                // The bootstrap exits immediately; its scheduled
                // callbacks do not keep the simulation alive, so
                // faults trailing the workload are inert.
            });
        }
        let finish_times: Vec<_> = (0..n)
            .map(|rank| Self::spawn_rank(&sim, rank, &world, &program))
            .collect();
        let t_run = prof.as_ref().map(|(p, setup, ..)| {
            let t0 = t_setup.expect("setup timer exists with profiler");
            p.add_ns(*setup, t0.elapsed().as_nanos() as u64);
            std::time::Instant::now()
        });
        // The kernel stops at its last event, which is the job's elapsed.
        let end = match self.deadline {
            Some(limit) => sim.run_until(limit)?,
            None => sim.run()?,
        };
        let t_collect = prof.as_ref().map(|(p, _, run, _)| {
            let t0 = t_run.expect("run timer exists with profiler");
            p.add_ns(*run, t0.elapsed().as_nanos() as u64);
            std::time::Instant::now()
        });
        let per_rank: Vec<SimDuration> = finish_times
            .into_iter()
            .map(|rx| {
                rx.try_take()
                    .ok()
                    .expect("rank finished")
                    .since(SimTime::ZERO)
            })
            .collect();
        let report = RunReport {
            elapsed: end.since(SimTime::ZERO),
            per_rank,
            stats: world.stats.borrow().clone(),
            records: world.records.borrow().clone(),
            clean: world.quiescent(),
        };
        if let Some((p, _, _, collect)) = &prof {
            let t0 = t_collect.expect("collect timer exists with profiler");
            p.add_ns(*collect, t0.elapsed().as_nanos() as u64);
        }
        Ok(report)
    }

    /// Job-phase keys, interned once per profiler: setup (world/rank construction),
    /// run (the whole kernel drive), collect (report assembly).
    #[allow(clippy::type_complexity)]
    fn prof_keys(
        &self,
    ) -> Option<(
        Arc<desim::obs::HostProfiler>,
        desim::obs::ProfKey,
        desim::obs::ProfKey,
        desim::obs::ProfKey,
    )> {
        self.obs.profiler.clone().map(|p| {
            let k = p.intern_set("mpisim;job", || {
                ["setup", "run", "collect"]
                    .map(|s| format!("mpisim;job;{s}"))
                    .into()
            });
            (p, k[0], k[1], k[2])
        })
    }

    /// Spawn one rank onto `sim`, returning the completion that yields
    /// its finish time.
    fn spawn_rank(
        sim: &Sim,
        rank: usize,
        world: &Rc<WorldInner>,
        program: &Rc<impl MpiProgram>,
    ) -> desim::Completion<SimTime> {
        let world = Rc::clone(world);
        let program = Rc::clone(program);
        let (tx, rx) = desim::completion::<SimTime>();
        sim.spawn_task(format!("rank{rank}"), move |cx| async move {
            let sched = cx.sched();
            let ctx = RankCtx::new(rank, cx, world);
            program.run(ctx).await;
            tx.fire_from(&sched, sched.now());
        });
        rx
    }
}

/// Everything measured during one MPI run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock (virtual) time from t = 0 to the last rank's exit.
    pub elapsed: SimDuration,
    /// Per-rank finish times.
    pub per_rank: Vec<SimDuration>,
    /// Communication statistics.
    pub stats: CommStats,
    /// Named measurements emitted by ranks via [`RankCtx::record`].
    pub records: Vec<(usize, String, f64)>,
    /// True if no posted receives or unexpected messages were left behind
    /// (a well-formed program drains everything).
    pub clean: bool,
}

impl RunReport {
    /// All recorded values with the given key, in rank order.
    pub fn values(&self, key: &str) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .filter(|(_, k, _)| k == key)
            .map(|(r, _, v)| (*r, *v))
            .collect()
    }
}
