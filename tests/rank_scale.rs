//! The rank-scale execution engine: (a) worlds far beyond thread-per-rank
//! territory complete in one process, and (b) the fallible API's
//! timeout/kill semantics hold for ranks that are pooled continuations.
//!
//! The engine's determinism is pinned by the golden corpus
//! (`results/golden/`, `repro golden check`): its `engine` scenario runs
//! a WAN ping-pong with and without seeded loss, GridMPI collectives on
//! 16 ranks and ray2mesh on 33.

use std::time::{Duration, Instant};

use grid_mpi_lab::desim::{SimDuration, SimTime};
use grid_mpi_lab::mpisim::{FaultPlan, FaultPolicy, MpiError, MpiImpl, RankCtx};
use repro::scenario::{ring_program, Scenario};
use repro::util::{Scope, TuningLevel};

const TAG: u64 = 7;

/// (a) A 4096-rank ring runs to completion in this single process. The
/// budget is generous — debug builds are several times slower than the
/// sub-second release run (`simbench rank_ring`) — but it would still
/// catch the engine degenerating to thread-per-rank (thousands of thread
/// spawns) or losing wakeups (deadlock → test timeout).
#[test]
fn ring_4096_ranks_completes_within_budget() {
    let t0 = Instant::now();
    let report = Scenario::ring(4096)
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

/// Two untuned MPICH2 ranks on one cluster.
fn cluster_pair() -> Scenario {
    Scenario::pair(Scope::Cluster, TuningLevel::Default, MpiImpl::Mpich2)
}

/// (b) `recv_timeout` fires exactly at the armed deadline when the rank
/// is a pooled continuation, not a parked thread.
#[test]
fn recv_timeout_fires_on_schedule_under_pooled_engine() {
    let timeout = SimDuration::from_millis(250);
    cluster_pair()
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

/// (b) A `kill_rank` fault surfaces as `SelfFailed` on the victim and
/// `PeerFailed` on the survivor under the pooled scheduler.
#[test]
fn kill_rank_semantics_hold_under_pooled_engine() {
    let plan = FaultPlan::new().kill_rank(1, SimTime::from_nanos(1_000_000));
    cluster_pair()
        .faults(plan)
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
