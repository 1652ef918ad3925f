//! The named runs: each run (label, detail, [`Scenario`], program) is
//! written once here. `repro blame`, `repro profile` and `repro timeline`
//! read the runs of their scenarios (`blame NAME` analyzes every run of
//! scenario NAME; `profile NAME` and `timeline NAME` instrument one of
//! them), and `repro golden` digests its sub-runs from here.

use desim::obs::Obs;
use desim::SimError;
use gridapps::Ray2MeshConfig;
use mpisim::{
    CollConfig, CollOp, CollSel, ExecConfig, FaultPlan, FaultPolicy, MpiImpl, MpiProgram, RankCtx,
    RunReport,
};
use netsim::Grid5000Site;
use npb::{NasBenchmark, NasClass, NasRun};

use crate::scenario::{
    coll_program, coll_sel, pingpong_program, send_program, two_kills, Scenario,
};
use crate::util::{Scope, TuningLevel};

/// The scenario names `blame`, `profile` and `timeline` accept.
pub const NAMES: [&str; 4] = ["pingpong", "nas", "ray2mesh", "faults"];

/// One catalogued run, ready to [`Run::execute`].
pub struct Run {
    /// The run's registry label.
    pub label: &'static str,
    /// What the run is, for report headers.
    pub detail: &'static str,
    /// Where and how the run is wired.
    pub scenario: Scenario,
    /// The NPB run an NPB program stands for, whose full-run time is
    /// extrapolated from the report.
    pub nas: Option<NasRun>,
    program: Box<dyn MpiProgram>,
}

impl Run {
    /// Run with `obs` attached.
    pub fn try_execute(self, obs: Obs) -> Result<RunReport, SimError> {
        let program = self.program;
        self.scenario.observe(obs).run(move |ctx| program.run(ctx))
    }

    /// Run with `obs` attached; a failed run is a bug in the catalogue.
    pub fn execute(self, obs: Obs) -> RunReport {
        let label = self.label;
        self.try_execute(obs)
            .unwrap_or_else(|e| panic!("catalogued run {label} failed: {e:?}"))
    }
}

/// The labels of scenario `name`'s runs, in report order.
pub fn labels(name: &str) -> &'static [&'static str] {
    match name {
        "pingpong" => &["untuned", "tuned", "eager", "rendezvous"],
        "nas" => &["nas_cg"],
        "ray2mesh" => &["ray2mesh"],
        "faults" => &["lossy_wan"],
        other => unreachable!("the parser admits only catalogued scenarios, not {other:?}"),
    }
}

/// The run `profile name` and `timeline name` instrument: the tuned
/// kernel's ping-pong, or the scenario's only run.
pub fn instrumented(name: &str) -> Run {
    run(if name == "pingpong" {
        "tuned"
    } else {
        labels(name)[0]
    })
}

/// The catalogued run labelled `label`.
pub fn run(label: &'static str) -> Run {
    let wan = |level| Scenario::pair(Scope::Grid, level, MpiImpl::Mpich2);
    let pingpong = |bytes| -> Box<dyn MpiProgram> { Box::new(pingpong_program(bytes, 1)) };
    let mut nas = None;
    let (detail, scenario, program): (_, _, Box<dyn MpiProgram>) = match label {
        "untuned" => (
            "64 MB WAN ping-pong, untuned kernel (default buffers)",
            wan(TuningLevel::Default),
            pingpong(64 << 20),
        ),
        "tuned" => (
            "64 MB WAN ping-pong, tuned kernel (4 MB buffers)",
            wan(TuningLevel::TcpTuned),
            pingpong(64 << 20),
        ),
        "eager" => (
            "1 MB WAN message, protocol forced eager",
            forced_mode(Scope::Grid, MpiImpl::Mpich2, Some(u64::MAX)),
            pingpong(1 << 20),
        ),
        "rendezvous" => (
            "1 MB WAN message, protocol forced rendezvous",
            forced_mode(Scope::Grid, MpiImpl::Mpich2, Some(0)),
            pingpong(1 << 20),
        ),
        "pingpong_sizes" => (
            "1 kB, 1 MB and 64 MB WAN ping-pongs, 3 each, MPICH2 fully tuned",
            Scenario::pair(Scope::Grid, TuningLevel::FullyTuned, MpiImpl::Mpich2),
            Box::new(round_trips(&[1 << 10, 1 << 20, 64 << 20], 3)),
        ),
        "send_16m_untuned" | "send_16m_tuned" | "send_16m_paced" => {
            let (level, id) = match label {
                "send_16m_untuned" => (TuningLevel::Default, MpiImpl::Mpich2),
                "send_16m_tuned" => (TuningLevel::TcpTuned, MpiImpl::Mpich2),
                _ => (TuningLevel::TcpTuned, MpiImpl::GridMpi),
            };
            (
                "16 MB WAN transfer (Fig. 9 slow start)",
                Scenario::pair(Scope::Grid, level, id),
                Box::new(send_program(16 << 20, 1)),
            )
        }
        latency if latency.starts_with("latency_") => {
            let rest = &latency["latency_".len()..];
            let (scope, name) = rest.split_once('_').expect("latency_SCOPE_IMPLEMENTATION");
            let scope = if scope == "cluster" {
                Scope::Cluster
            } else {
                Scope::Grid
            };
            let id = MpiImpl::ALL.into_iter().find(|id| id.name() == name);
            let id = id.unwrap_or_else(|| unreachable!("no implementation is named {name:?}"));
            (
                "1-byte ping-pong, 5 round trips, default tuning (Table 4)",
                Scenario::pair(scope, TuningLevel::Default, id),
                Box::new(round_trips(&[1], 5)),
            )
        }
        "nas_cg" | "nas_ft" => {
            let (bench, detail) = if label == "nas_cg" {
                (
                    NasBenchmark::Cg,
                    "NPB CG class S quick run, 8+8 grid, GridMPI fully tuned",
                )
            } else {
                (
                    NasBenchmark::Ft,
                    "NPB FT class S quick run, 8+8 grid, GridMPI fully tuned",
                )
            };
            let run = NasRun::quick(bench, NasClass::S);
            nas = Some(run);
            (
                detail,
                Scenario::npb(8, 8, 8, TuningLevel::FullyTuned, MpiImpl::GridMpi),
                Box::new(run.program()),
            )
        }
        "ray2mesh" => (
            "ray2mesh small, four sites, master on the first site",
            Scenario::four_sites(2, Grid5000Site::ALL[0], MpiImpl::GridMpi),
            Box::new(Ray2MeshConfig::small().program()),
        ),
        "engine_pingpong" => (
            "1 MB WAN ping-pong, 3 round trips, MPICH2 fully tuned",
            wan(TuningLevel::FullyTuned),
            Box::new(pingpong_program(1 << 20, 3)),
        ),
        "engine_faults" => (
            "4 MB WAN ping-pong, 2 round trips, seeded 1e-3 segment loss",
            wan(TuningLevel::FullyTuned).faults(FaultPlan::new().with_seed(42).with_wan_loss(1e-3)),
            Box::new(pingpong_program(4 << 20, 2)),
        ),
        "engine_collectives" => (
            "bcast, allreduce, alltoall and barrier, 16 GridMPI ranks on the ring testbed",
            Scenario::ring(16)
                .profile(MpiImpl::GridMpi.profile())
                .tuning(TuningLevel::FullyTuned.tuning(MpiImpl::GridMpi)),
            Box::new(|mut ctx: RankCtx| async move {
                ctx.bcast(0, 128 << 10).await;
                ctx.allreduce(128 << 10).await;
                ctx.alltoall(16 << 10).await;
                ctx.barrier().await;
            }),
        ),
        "engine_ray2mesh" => (
            "ray2mesh small, four sites of 8 slaves, master on the first site",
            Scenario::four_sites(8, Grid5000Site::ALL[0], MpiImpl::GridMpi),
            Box::new(Ray2MeshConfig::small().program()),
        ),
        "lossy_wan" => (
            "16 MB WAN transfer with seeded 1e-3 segment loss",
            wan(TuningLevel::TcpTuned).faults(FaultPlan::new().with_seed(42).with_wan_loss(1e-3)),
            Box::new(send_program(16 << 20, 7)),
        ),
        "ft_ray2mesh" | "ft_ray2mesh_lossy" => {
            let plan = match label {
                "ft_ray2mesh" => two_kills(),
                _ => two_kills().with_wan_loss(5e-4),
            };
            let cfg = Ray2MeshConfig {
                total_rays: 20_000,
                ..Ray2MeshConfig::small()
            };
            (
                "fault-tolerant ray2mesh, ranks 3 and 6 killed (lossy: 5e-4 WAN loss)",
                Scenario::four_sites(2, Grid5000Site::ALL[0], MpiImpl::GridMpi).faults(plan),
                Box::new(cfg.program_ft(FaultPolicy::grid_default())),
            )
        }
        coll => {
            let (op, bytes, sel) = coll_run(coll);
            let exec = ExecConfig::new().coll(CollConfig::new().pin_all(op, sel));
            (
                "one pinned collective algorithm, 2 rounds, 9 ranks on four sites",
                Scenario::four_sites(2, Grid5000Site::ALL[0], MpiImpl::Mpich2).exec(exec),
                Box::new(coll_program(op, bytes, 2)),
            )
        }
    };
    Run {
        label,
        detail,
        scenario,
        nas,
        program,
    }
}

/// A TCP-tuned pair with the eager/rendezvous decision forced.
pub fn forced_mode(scope: Scope, id: MpiImpl, threshold: Option<u64>) -> Scenario {
    let level = TuningLevel::TcpTuned;
    let mut tuning = level.tuning(id);
    tuning.eager_threshold = threshold;
    Scenario::pair(scope, level, id).tuning(tuning)
}

/// `iters` round trips of each of `sizes` between ranks 0 and 1; rank 0
/// records `"one_way"` after each.
fn round_trips(sizes: &'static [u64], iters: u32) -> impl MpiProgram {
    move |mut ctx: RankCtx| async move {
        const TAG: u64 = 1;
        for &bytes in sizes {
            for _ in 0..iters {
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
        }
    }
}

/// The collective suite run `label` (`bcast/SEL` or `allreduce/SEL`,
/// SEL as [`coll_sel`] reads it): a 64 kB bcast or a 256 kB allreduce
/// under one pinned algorithm. The suite runs MPICH2 on the 9-rank
/// ray2mesh placement, deliberately non-power-of-two so the
/// shape-degradation paths (Rabenseifner -> recursive doubling, etc.)
/// are exercised too.
fn coll_run(label: &str) -> (CollOp, u64, CollSel) {
    match label.split_once('/') {
        Some(("bcast", sel)) => (CollOp::Bcast, 64 << 10, coll_sel(sel)),
        Some(("allreduce", sel)) => (CollOp::Allreduce, 256 << 10, coll_sel(sel)),
        _ => unreachable!("no catalogued run is labelled {label:?}"),
    }
}
