//! The named runs behind `repro blame`, `repro profile` and
//! `repro timeline`: each run (label, detail, [`Scenario`], program) is
//! written once here. `blame NAME` analyzes every run of scenario NAME;
//! `profile NAME` and `timeline NAME` instrument one of them.

use desim::obs::Obs;
use gridapps::Ray2MeshConfig;
use mpisim::{FaultPlan, MpiImpl, MpiProgram, RunReport};
use netsim::Grid5000Site;
use npb::{NasBenchmark, NasClass, NasRun};

use crate::scenario::{pingpong_program, send_program, Scenario};
use crate::util::{Scope, TuningLevel};

/// The scenario names the three commands accept.
pub(crate) const NAMES: [&str; 4] = ["pingpong", "nas", "ray2mesh", "faults"];

/// One catalogued run, ready to [`Run::execute`].
pub(crate) struct Run {
    pub(crate) label: &'static str,
    /// What the run is, for report headers.
    pub(crate) detail: &'static str,
    pub(crate) scenario: Scenario,
    program: Box<dyn MpiProgram>,
}

impl Run {
    /// Run with `obs` attached.
    pub(crate) fn execute(self, obs: Obs) -> RunReport {
        let program = self.program;
        self.scenario
            .observe(obs)
            .run(move |ctx| program.run(ctx))
            .unwrap_or_else(|e| panic!("catalogued run {} failed: {e:?}", self.label))
    }
}

/// The labels of scenario `name`'s runs, in report order.
pub(crate) fn labels(name: &str) -> &'static [&'static str] {
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
pub(crate) fn instrumented(name: &str) -> Run {
    run(if name == "pingpong" {
        "tuned"
    } else {
        labels(name)[0]
    })
}

/// The catalogued run labelled `label`.
pub(crate) fn run(label: &'static str) -> Run {
    let wan = |level| Scenario::pair(Scope::Grid, level, MpiImpl::Mpich2);
    let pingpong = |bytes| -> Box<dyn MpiProgram> { Box::new(pingpong_program(bytes, 1)) };
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
        "nas_cg" => (
            "NPB CG class S quick run, 8+8 grid, GridMPI fully tuned",
            Scenario::npb(8, 8, 8, TuningLevel::FullyTuned, MpiImpl::GridMpi),
            Box::new(NasRun::quick(NasBenchmark::Cg, NasClass::S).program()),
        ),
        "ray2mesh" => (
            "ray2mesh small, four sites, master on the first site",
            Scenario::four_sites(2, Grid5000Site::ALL[0], MpiImpl::GridMpi),
            Box::new(Ray2MeshConfig::small().program()),
        ),
        "lossy_wan" => (
            "16 MB WAN transfer with seeded 1e-3 segment loss",
            wan(TuningLevel::TcpTuned).faults(FaultPlan::new().with_seed(42).with_wan_loss(1e-3)),
            Box::new(send_program(16 << 20, 7)),
        ),
        other => unreachable!("no catalogued run is labelled {other:?}"),
    };
    Run {
        label,
        detail,
        scenario,
        program,
    }
}

/// A TCP-tuned pair with the eager/rendezvous decision forced.
pub(crate) fn forced_mode(scope: Scope, id: MpiImpl, threshold: Option<u64>) -> Scenario {
    let level = TuningLevel::TcpTuned;
    let mut tuning = level.tuning(id);
    tuning.eager_threshold = threshold;
    Scenario::pair(scope, level, id).tuning(tuning)
}
