//! Property-based tests over the whole stack: physical invariants that
//! must hold for *any* topology, message size, and rank layout. Driven by
//! the std-only [`desim::prop`] helper.

use grid_mpi_lab::desim::prop::forall;
use grid_mpi_lab::desim::{Sim, SimDuration};
use grid_mpi_lab::mpisim::{MpiImpl, RankCtx};
use grid_mpi_lab::netsim::{
    KernelConfig, Network, NodeParams, SiteParams, SockBufRequest, Topology,
};
use repro::scenario::Scenario;

/// Build a two-site topology with arbitrary RTT/queue parameters.
fn two_sites(rtt_us: u64, queue_kb: u64, buf: u64) -> (Network, Vec<grid_mpi_lab::netsim::NodeId>) {
    let mut t = Topology::new();
    let s1 = t.add_site("a", SiteParams::default());
    let s2 = t.add_site("b", SiteParams::default());
    let mut nodes = Vec::new();
    for _ in 0..2 {
        nodes.push(t.add_node(s1, NodeParams::default()));
    }
    for _ in 0..2 {
        nodes.push(t.add_node(s2, NodeParams::default()));
    }
    t.connect_sites(
        s1,
        s2,
        SimDuration::from_micros(rtt_us),
        9.4e9 / 8.0,
        queue_kb * 1024,
    );
    t.set_kernel_all(KernelConfig::tuned(buf));
    (Network::new(t), nodes)
}

fn transfer_secs(
    net: &Network,
    a: grid_mpi_lab::netsim::NodeId,
    b: grid_mpi_lab::netsim::NodeId,
    bytes: u64,
) -> f64 {
    transfer_secs_n(net, a, b, bytes, 1)
}

/// Time of the last of `n` back-to-back transfers on one connection.
fn transfer_secs_n(
    net: &Network,
    a: grid_mpi_lab::netsim::NodeId,
    b: grid_mpi_lab::netsim::NodeId,
    bytes: u64,
    n: u32,
) -> f64 {
    let sim = Sim::new();
    let (tx, rx) = grid_mpi_lab::desim::completion::<f64>();
    let net = net.clone();
    sim.spawn_task("x", move |cx| async move {
        let ch = net.channel(
            a,
            b,
            SockBufRequest::OsDefault,
            SockBufRequest::OsDefault,
            false,
        );
        let mut last = 0.0;
        for _ in 0..n {
            let t0 = cx.now();
            cx.wait(net.transfer(&cx.sched(), ch, bytes)).await;
            last = cx.now().since(t0).as_secs_f64();
        }
        tx.fire_from(&cx.sched(), last);
    });
    sim.run().unwrap();
    rx.try_take().ok().unwrap()
}

/// More bytes never arrive sooner (same fresh connection).
#[test]
fn transfer_time_is_monotone_in_size() {
    forall(24, 0x5EED_3001, |rng| {
        let rtt_us = rng.range_u64(200, 30_000);
        let queue_kb = rng.range_u64(64, 2048);
        let small = rng.range_u64(1, 1_000_000);
        let extra = rng.range_u64(1, 8_000_000);
        let (net, nodes) = two_sites(rtt_us, queue_kb, 4 << 20);
        let t_small = transfer_secs(&net, nodes[0], nodes[2], small);
        let (net2, nodes2) = two_sites(rtt_us, queue_kb, 4 << 20);
        let t_big = transfer_secs(&net2, nodes2[0], nodes2[2], small + extra);
        assert!(
            t_big >= t_small - 1e-9,
            "bigger transfer finished sooner: {t_small} vs {t_big}"
        );
    });
}

/// A transfer can never beat propagation + line rate.
#[test]
fn transfer_respects_physics() {
    forall(24, 0x5EED_3002, |rng| {
        let rtt_us = rng.range_u64(200, 30_000);
        let bytes = rng.range_u64(1, 16_000_000);
        let (net, nodes) = two_sites(rtt_us, 512, 4 << 20);
        let t = transfer_secs(&net, nodes[0], nodes[2], bytes);
        let floor = rtt_us as f64 / 2.0 * 1e-6 + bytes as f64 / 117.5e6;
        assert!(
            t >= floor * 0.999,
            "transfer of {bytes}B in {t}s beats the physical floor {floor}s"
        );
    });
}

/// Bigger socket buffers never slow a *steady-state* transfer. (On a
/// cold connection they legitimately can: a larger window lets slow
/// start overshoot the bottleneck queue and pay an RTO — the very
/// pathology GridMPI's pacing addresses. So the property is asserted
/// after warming the connection.)
#[test]
fn buffers_help_or_do_nothing_once_warm() {
    forall(24, 0x5EED_3003, |rng| {
        let rtt_us = rng.range_u64(1_000, 30_000);
        let bytes = rng.range_u64(100_000, 8_000_000);
        let warmed = |buf: u64| -> f64 {
            let (net, n) = two_sites(rtt_us, 512, buf);
            transfer_secs_n(&net, n[0], n[2], bytes, 4)
        };
        let t_small_buf = warmed(256 << 10);
        let t_big_buf = warmed(8 << 20);
        assert!(
            t_big_buf <= t_small_buf * 1.05,
            "bigger buffers slowed the warm transfer: {t_small_buf} -> {t_big_buf}"
        );
    });
}

/// Collectives complete and leave no dangling state for arbitrary rank
/// counts and sizes, for every implementation.
#[test]
fn collectives_always_drain() {
    forall(24, 0x5EED_3004, |rng| {
        let ranks = rng.range_usize(2, 9);
        let bytes = rng.range_u64(1, 300_000);
        let which = rng.range_usize(0, 4);
        let impl_idx = rng.range_usize(0, 4);
        let (net, nodes) = two_sites(11_600, 512, 4 << 20);
        let placement: Vec<_> = (0..ranks).map(|i| nodes[i % 4]).collect();
        let id = MpiImpl::ALL[impl_idx];
        let report = Scenario::custom(net, placement, id)
            .run(move |mut ctx: RankCtx| async move {
                match which {
                    0 => ctx.bcast(0, bytes).await,
                    1 => ctx.allreduce(bytes).await,
                    2 => ctx.alltoall(bytes.min(65_536)).await,
                    _ => ctx.allgather(bytes.min(65_536)).await,
                }
                ctx.barrier().await;
            })
            .unwrap();
        assert!(report.clean, "{id:?} left unmatched messages");
    });
}

/// Point-to-point FIFO ordering holds for arbitrary message batches.
#[test]
fn p2p_fifo_for_random_batches() {
    forall(24, 0x5EED_3005, |rng| {
        let n = rng.range_usize(1, 12);
        let sizes: Vec<u64> = (0..n).map(|_| rng.range_u64(1, 500_000)).collect();
        let (net, nodes) = two_sites(11_600, 512, 4 << 20);
        let placement = vec![nodes[0], nodes[2]];
        let sizes2 = sizes.clone();
        let report = Scenario::custom(net, placement, MpiImpl::Mpich2)
            .run(move |mut ctx: RankCtx| {
                let sizes2 = sizes2.clone();
                async move {
                    const TAG: u64 = 9;
                    if ctx.rank() == 0 {
                        let mut reqs = Vec::with_capacity(sizes2.len());
                        for &b in &sizes2 {
                            reqs.push(ctx.isend(1, b, TAG).await);
                        }
                        ctx.waitall(reqs).await;
                    } else {
                        for &expect in &sizes2 {
                            let m = ctx.recv(0, TAG).await;
                            assert_eq!(m.bytes, expect, "message overtook another");
                        }
                    }
                }
            })
            .unwrap();
        assert!(report.clean);
    });
}
