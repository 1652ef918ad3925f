//! The whole stack is a deterministic discrete-event simulation: identical
//! configurations must produce bit-identical virtual timings across runs
//! and regardless of host scheduling.

use grid_mpi_lab::gridapps::Ray2MeshConfig;
use grid_mpi_lab::mpisim::MpiImpl;
use grid_mpi_lab::netsim::Grid5000Site;
use grid_mpi_lab::npb::{NasBenchmark, NasClass, NasRun};
use repro::scenario::Scenario;
use repro::util::TuningLevel;

fn nas_elapsed(bench: NasBenchmark) -> u64 {
    let run = NasRun::quick(bench, NasClass::S);
    let report = Scenario::npb(8, 8, 8, TuningLevel::FullyTuned, MpiImpl::Mpich2)
        .run(run.program())
        .unwrap();
    report.elapsed.as_nanos()
}

#[test]
fn nas_runs_are_reproducible_to_the_nanosecond() {
    for bench in [NasBenchmark::Lu, NasBenchmark::Ft, NasBenchmark::Is] {
        let a = nas_elapsed(bench);
        let b = nas_elapsed(bench);
        let c = nas_elapsed(bench);
        assert_eq!(a, b, "{bench:?} differs between runs");
        assert_eq!(b, c, "{bench:?} differs between runs");
    }
}

#[test]
fn ray2mesh_is_reproducible() {
    fn one() -> (u64, f64) {
        let cfg = Ray2MeshConfig {
            total_rays: 50_000,
            ..Ray2MeshConfig::small()
        };
        let report = Scenario::four_sites(8, Grid5000Site::ALL[0], MpiImpl::GridMpi)
            .run(cfg.program())
            .unwrap();
        let rays0 = report.values("rays")[0].1;
        (report.elapsed.as_nanos(), rays0)
    }
    let (t1, r1) = one();
    let (t2, r2) = one();
    assert_eq!(t1, t2);
    assert_eq!(r1, r2);
}
