//! End-to-end assertions of the paper's headline claims, spanning every
//! crate: these are the statements RR-6200's abstract and conclusion make,
//! checked against the simulator.

use grid_mpi_lab::mpisim::MpiImpl;
use grid_mpi_lab::npb::{NasBenchmark, NasClass, NasRun};
use repro::scenario::{min_one_way, pingpong_program, Scenario};
use repro::util::{mbps, Scope, TuningLevel};

/// The best one-way bandwidth of 12 round trips of 8 MB on `pair`.
fn pingpong_mbps(pair: Scenario) -> f64 {
    let bytes = 8 << 20;
    let report = pair.run(pingpong_program(bytes, 12)).unwrap();
    mbps(bytes, min_one_way(&report))
}

fn grid_mbps(level: TuningLevel, id: MpiImpl) -> f64 {
    pingpong_mbps(Scenario::pair(Scope::Grid, level, id))
}

#[test]
fn untuned_grid_is_bad_for_everyone() {
    // "Results are very bad. None of the implementations ... reached a
    // higher bandwidth than 120 Mbps" (Fig. 3).
    for id in MpiImpl::ALL {
        let mbps = grid_mbps(TuningLevel::Default, id);
        assert!(mbps < 120.0, "{:?} untuned reached {mbps} Mbps", id);
    }
}

#[test]
fn tuned_grid_recovers_most_of_the_gigabit() {
    // "After tuning, each MPI implementation can reach as good performance
    // as TCP" — around 900 Mbps against 940 on the cluster (Figs. 6/7).
    for id in MpiImpl::ALL {
        let mbps = grid_mbps(TuningLevel::FullyTuned, id);
        let floor = if id == MpiImpl::OpenMpi { 600.0 } else { 800.0 };
        assert!(mbps > floor, "{:?} tuned only reached {mbps} Mbps", id);
    }
}

#[test]
fn tuning_the_kernel_alone_is_not_enough_for_gridmpi_and_openmpi() {
    // §4.2.1: raising rmem_max/wmem_max + triples fixes MPICH2 and
    // Madeleine, but GridMPI needs the middle value and OpenMPI its mca
    // buffer arguments.
    // MPICH2's TCP tuning is the kernel's alone: 4 MB maxima, default
    // middle values, no MPI-level overrides.
    let kernel_only = || Scenario::pair(Scope::Grid, TuningLevel::TcpTuned, MpiImpl::Mpich2);
    let gridmpi = pingpong_mbps(kernel_only().profile(MpiImpl::GridMpi.profile()));
    assert!(
        gridmpi < 120.0,
        "GridMPI should stay slow without the middle value, got {gridmpi}"
    );
    let mpich2 = pingpong_mbps(kernel_only());
    assert!(mpich2 > 600.0, "MPICH2 should recover, got {mpich2}");
}

/// The class A full-run estimate of `bench` on 16 ranks laid out as
/// `ranks_rennes` + `ranks_nancy`.
fn nas_secs(
    bench: NasBenchmark,
    ranks_rennes: usize,
    ranks_nancy: usize,
    level: TuningLevel,
    id: MpiImpl,
) -> f64 {
    let run = NasRun::new(bench, NasClass::A);
    let report = Scenario::npb(8, ranks_rennes, ranks_nancy, level, id)
        .run(run.program())
        .unwrap();
    run.estimate(&report).as_secs_f64()
}

fn nas_grid_secs(bench: NasBenchmark, id: MpiImpl) -> f64 {
    nas_secs(bench, 8, 8, TuningLevel::FullyTuned, id)
}

#[test]
fn gridmpi_wins_the_collective_benchmarks_on_the_grid() {
    // §4.3: "As GridMPI optimize the collective operations, its speed-up is
    // very important for the applications that communicate with collective
    // operations (FT ...)".
    let mpich2 = nas_grid_secs(NasBenchmark::Ft, MpiImpl::Mpich2);
    let gridmpi = nas_grid_secs(NasBenchmark::Ft, MpiImpl::GridMpi);
    assert!(
        mpich2 > 1.5 * gridmpi,
        "FT: MPICH2 {mpich2}s vs GridMPI {gridmpi}s"
    );
}

#[test]
fn ep_is_insensitive_to_the_wan() {
    // Fig. 12: EP's relative performance is close to 1.
    let grid = nas_grid_secs(NasBenchmark::Ep, MpiImpl::GridMpi);
    let cluster = nas_secs(
        NasBenchmark::Ep,
        16,
        0,
        TuningLevel::Default,
        MpiImpl::GridMpi,
    );
    let relative = cluster / grid;
    assert!(
        relative > 0.85,
        "EP grid penalty should be small: relative {relative}"
    );
}

#[test]
fn madeleine_times_out_on_bt_and_sp_over_the_wan() {
    // §4.3 encodes this as profile data; the harness surfaces it.
    let p = MpiImpl::MpichMadeleine.profile();
    assert!(p.grid_timeouts.contains(&"BT"));
    assert!(p.grid_timeouts.contains(&"SP"));
    assert!(MpiImpl::GridMpi.profile().grid_timeouts.is_empty());
}

#[test]
fn small_messages_suffer_most_from_the_grid() {
    // Conclusion: "applications with little messages have very bad
    // performances due to high latency" — CG degrades far more than BT.
    fn relative(bench: NasBenchmark) -> f64 {
        let grid = nas_grid_secs(bench, MpiImpl::GridMpi);
        nas_secs(bench, 16, 0, TuningLevel::FullyTuned, MpiImpl::GridMpi) / grid
    }
    let cg = relative(NasBenchmark::Cg);
    let bt = relative(NasBenchmark::Bt);
    assert!(
        cg < bt,
        "CG (small messages) should lose more than BT: cg={cg} bt={bt}"
    );
}
