//! Tests for the extension surfaces: MPI span tracing, extended profiles,
//! parallel streams, and statistics matrices.

use std::sync::Arc;

use desim::{Analysis, Collector, Event, Obs};
use mpisim::{MpiImpl, MpiJob, RankCtx, HEADER_BYTES};
use netsim::{grid5000_pair, KernelConfig, Network, NodeId};

fn grid(nodes_per_site: usize) -> (Network, Vec<NodeId>) {
    let (mut topo, rn, nn) = grid5000_pair(nodes_per_site);
    topo.set_kernel_all(KernelConfig::tuned(4 << 20));
    let mut placement = rn;
    placement.extend(nn);
    (Network::new(topo), placement)
}

#[test]
fn tracing_captures_all_activity_kinds() {
    let (net, placement) = grid(1);
    let collector = Arc::new(Collector::new());
    MpiJob::new(net, placement, MpiImpl::Mpich2)
        .with_obs(Obs::none().recorder(collector.clone()))
        .run(|mut ctx: RankCtx| async move {
            ctx.compute_gflop(0.1).await;
            if ctx.rank() == 0 {
                ctx.send(1, 1000, 7).await;
            } else {
                ctx.recv(0, 7).await;
            }
            ctx.barrier().await;
        })
        .unwrap();
    let events = collector.events();
    let spans: Vec<(&str, u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::MpiSpan {
                op,
                start_ns,
                end_ns,
                ..
            } => Some((*op, *start_ns, *end_ns)),
            _ => None,
        })
        .collect();
    assert!(!spans.is_empty());
    for kind in ["compute", "send", "recv", "barrier"] {
        assert!(spans.iter().any(|s| s.0 == kind), "no {kind} span");
    }
    // Spans are well-formed and the analysis accounts for both ranks.
    for s in &spans {
        assert!(s.2 >= s.1);
    }
    let a = Analysis::from_events(&events, HEADER_BYTES);
    assert!(a.ranks[0].compute_secs > 0.0);
    let r1 = &a.ranks[1];
    assert!(r1.send_secs + r1.recv_secs + r1.wait_send_secs > 0.0);
    assert_eq!(a.pairs[0], (0, 1, 1000));
}

#[test]
fn pair_bytes_matrix_is_complete_and_directed() {
    let (net, placement) = grid(2);
    let report = MpiJob::new(net, placement, MpiImpl::Mpich2)
        .run(|mut ctx: RankCtx| async move {
            if ctx.rank() == 0 {
                ctx.send(2, 5000, 1).await;
                ctx.send(3, 111, 1).await;
            } else if ctx.rank() == 2 || ctx.rank() == 3 {
                ctx.recv(0, 1).await;
            }
        })
        .unwrap();
    assert_eq!(report.stats.pair_bytes[&(0, 2)], 5000);
    assert_eq!(report.stats.pair_bytes[&(0, 3)], 111);
    assert!(!report.stats.pair_bytes.contains_key(&(2, 0)));
    assert_eq!(report.stats.pair_msgs[&(0, 2)], 1);
}

#[test]
fn extended_profiles_run_the_same_programs() {
    for id in [MpiImpl::MpichG2, MpiImpl::MpichVmi] {
        let (net, placement) = grid(2);
        let report = MpiJob::new(net, placement, id)
            .run(|mut ctx: RankCtx| async move {
                ctx.bcast(0, 64 << 10).await;
                ctx.allreduce(4096).await;
                if ctx.rank() == 0 {
                    ctx.send(3, 2 << 20, 5).await;
                } else if ctx.rank() == 3 {
                    ctx.recv(0, 5).await;
                }
                ctx.barrier().await;
            })
            .unwrap();
        assert!(report.clean, "{id:?}");
    }
}

#[test]
fn g2_striping_preserves_message_semantics() {
    // A striped 4 MB message must still arrive as ONE message with the
    // right size, after all stripes land.
    let (net, placement) = grid(1);
    let mut profile = mpisim::ImplProfile::mpich_g2();
    profile.eager_threshold = u64::MAX;
    let report = MpiJob::new(net, placement, MpiImpl::MpichG2)
        .with_profile(profile)
        .run(|mut ctx: RankCtx| async move {
            if ctx.rank() == 0 {
                ctx.send(1, 4 << 20, 9).await;
                ctx.send(1, 100, 9).await;
            } else {
                let a = ctx.recv(0, 9).await;
                assert_eq!(a.bytes, 4 << 20);
                let b = ctx.recv(0, 9).await;
                assert_eq!(b.bytes, 100);
            }
        })
        .unwrap();
    assert!(report.clean);
}

#[test]
fn deadline_aborts_runaway_runs() {
    use desim::{SimError, SimTime};
    let (net, placement) = grid(1);
    let err = MpiJob::new(net, placement, MpiImpl::Mpich2)
        .with_deadline(SimTime::from_nanos(1_000_000_000))
        .run(|ctx: RankCtx| async move {
            // 10 virtual seconds of compute: must hit the 1 s deadline.
            ctx.compute_gflop(ctx.gflops() * 10.0).await;
        })
        .unwrap_err();
    assert!(matches!(err, SimError::TimeLimitExceeded(_)), "{err}");
}

#[test]
fn deadline_is_inert_when_met() {
    use desim::SimTime;
    let (net, placement) = grid(1);
    let report = MpiJob::new(net, placement, MpiImpl::Mpich2)
        .with_deadline(SimTime::from_nanos(10_000_000_000))
        .run(|mut ctx: RankCtx| async move {
            ctx.barrier().await;
        })
        .unwrap();
    assert!(report.clean);
}
