//! Equivalence of the bulk-transfer fast path with the per-round model.
//!
//! The fast path (`netsim::flow`) claims to reproduce the per-round event
//! loop *bit for bit*: it replays the identical settle/reallocate f64
//! arithmetic in one closed pass instead of scheduling one event per RTT
//! round. These tests run the same scenario twice — fast path enabled and
//! disabled via [`Network::set_bulk_fast_path`] — across a sweep of RTT,
//! MSS, socket-buffer caps, congestion-control algorithm, and initial
//! window, and demand *identical* nanosecond timestamps, not approximate
//! ones.

use std::sync::Arc;

use desim::prop::{forall, Rng};
use desim::sync::Mutex;
use desim::{Sim, SimDuration};
use netsim::{
    CongestionControl, KernelConfig, Network, NodeId, NodeParams, SiteParams, SockBufRequest,
    Topology,
};

/// A randomly drawn grid scenario: two sites over one WAN link.
struct Scenario {
    rtt_us: u64,
    capacity: f64,
    queue_bytes: u64,
    buf: u64,
    mss: u32,
    init_cwnd_segments: u32,
    cc: CongestionControl,
    /// Back-to-back transfer sizes on one channel, with an idle gap in
    /// nanoseconds before each (0 = immediately after the previous).
    transfers: Vec<(u64, u64)>,
}

fn draw_scenario(rng: &mut Rng) -> Scenario {
    let cc = if rng.chance(0.5) {
        CongestionControl::Bic
    } else {
        CongestionControl::Reno
    };
    let n = rng.range_usize(1, 4);
    let transfers = (0..n)
        .map(|i| {
            let bytes = rng.range_u64(1, 4 << 20);
            // First transfer starts cold; later ones may follow an idle
            // period long enough to trigger slow-start-after-idle.
            let gap = if i == 0 {
                0
            } else {
                rng.range_u64(0, 2_000_000_000)
            };
            (bytes, gap)
        })
        .collect();
    Scenario {
        rtt_us: rng.range_u64(1_000, 60_000),
        capacity: rng.range_f64(20e6, 400e6),
        queue_bytes: rng.range_u64(64, 1024) * 1024,
        buf: rng.range_u64(64, 8192) * 1024,
        mss: [536u32, 1448, 8948][rng.range_usize(0, 3)],
        init_cwnd_segments: rng.range_u64(1, 11) as u32,
        cc,
        transfers,
    }
}

fn build_network(sc: &Scenario) -> (Network, NodeId, NodeId) {
    let mut t = Topology::new();
    let a = t.add_site("a", SiteParams::default());
    let b = t.add_site("b", SiteParams::default());
    let na = t.add_node(a, NodeParams::default());
    let nb = t.add_node(b, NodeParams::default());
    t.connect_sites(
        a,
        b,
        SimDuration::from_micros(sc.rtt_us),
        sc.capacity,
        sc.queue_bytes,
    );
    let mut cfg = KernelConfig::tuned(sc.buf);
    cfg.mss = sc.mss;
    cfg.init_cwnd_segments = sc.init_cwnd_segments;
    cfg.congestion_control = sc.cc;
    t.set_kernel_all(cfg);
    (Network::new(t), na, nb)
}

/// Run the scenario's transfer sequence, returning the completion
/// timestamp of every transfer in integer nanoseconds.
fn run_sequence(sc: &Scenario, fast: bool) -> Vec<u64> {
    let (net, na, nb) = build_network(sc);
    net.set_bulk_fast_path(fast);
    let log = Arc::new(Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);
    let transfers = sc.transfers.clone();
    let sim = Sim::new();
    sim.spawn_task("sender", move |cx| async move {
        let ch = net.channel(
            na,
            nb,
            SockBufRequest::OsDefault,
            SockBufRequest::OsDefault,
            true,
        );
        for (bytes, gap) in transfers {
            if gap > 0 {
                cx.advance(SimDuration::from_nanos(gap)).await;
            }
            cx.wait(net.transfer(&cx.sched(), ch, bytes)).await;
            log2.lock().push(cx.now().as_nanos());
        }
    });
    sim.run().unwrap();
    let v = log.lock().clone();
    v
}

/// Single-flow sequences: every completion timestamp must match the
/// per-round model exactly, across the full parameter sweep.
#[test]
fn single_flow_durations_are_bit_identical() {
    forall(40, 0x5EED_2001, |rng| {
        let sc = draw_scenario(rng);
        let slow = run_sequence(&sc, false);
        let fast = run_sequence(&sc, true);
        assert_eq!(
            slow, fast,
            "fast path diverged: rtt={}us cap={} buf={} mss={} icw={} cc={:?} transfers={:?}",
            sc.rtt_us, sc.capacity, sc.buf, sc.mss, sc.init_cwnd_segments, sc.cc, sc.transfers
        );
    });
}

/// Contention: a second flow arrives mid-transfer, forcing the fast path
/// to materialise its plan and fall back to per-round sharing. Both
/// flows' completion times must still match the per-round model exactly.
#[test]
fn interrupted_flows_are_bit_identical() {
    forall(40, 0x5EED_2002, |rng| {
        let sc = draw_scenario(rng);
        let bytes_a = rng.range_u64(64, 8 << 20);
        let bytes_b = rng.range_u64(64, 8 << 20);
        let stagger = rng.range_u64(0, 500_000_000);
        let run = |fast: bool| -> Vec<(usize, u64)> {
            let (net, na, nb) = build_network(&sc);
            net.set_bulk_fast_path(fast);
            let log = Arc::new(Mutex::new(Vec::new()));
            let sim = Sim::new();
            for (i, (bytes, delay)) in [(bytes_a, 0u64), (bytes_b, stagger)]
                .into_iter()
                .enumerate()
            {
                let net = net.clone();
                let log = Arc::clone(&log);
                sim.spawn_task(format!("f{i}"), move |cx| async move {
                    let ch = net.channel(
                        na,
                        nb,
                        SockBufRequest::OsDefault,
                        SockBufRequest::OsDefault,
                        true,
                    );
                    if delay > 0 {
                        cx.advance(SimDuration::from_nanos(delay)).await;
                    }
                    cx.wait(net.transfer(&cx.sched(), ch, bytes)).await;
                    log.lock().push((i, cx.now().as_nanos()));
                });
            }
            sim.run().unwrap();
            let v = log.lock().clone();
            v
        };
        let slow = run(false);
        let fast = run(true);
        assert_eq!(
            slow, fast,
            "fast path diverged under contention: rtt={}us cap={} buf={} mss={} icw={} cc={:?} \
             a={bytes_a} b={bytes_b} stagger={stagger}",
            sc.rtt_us, sc.capacity, sc.buf, sc.mss, sc.init_cwnd_segments, sc.cc
        );
    });
}
