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
//!
//! The LAN properties cover the replay's pinned segments: on a LAN the
//! window outgrows the bottleneck within a few rounds, so nearly every
//! round of a long transfer runs in one. There the traced streams (TCP
//! and link samples) are compared as well.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use desim::obs::{Event, Obs, RingSink};
use desim::prop::{forall, Rng};
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
/// timestamp of every transfer in integer nanoseconds and the bytes
/// credited to each link of the path, as f64 bits.
fn run_sequence(sc: &Scenario, fast: bool) -> (Vec<u64>, Vec<u64>) {
    let (net, na, nb) = build_network(sc);
    net.set_bulk_fast_path(fast);
    let log = Rc::new(RefCell::new(Vec::new()));
    let log2 = Rc::clone(&log);
    let transfers = sc.transfers.clone();
    let sim = Sim::new();
    let net2 = net.clone();
    sim.spawn_task("sender", move |cx| async move {
        let ch = net2.channel(
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
            cx.wait(net2.transfer(&cx.sched(), ch, bytes)).await;
            log2.borrow_mut().push(cx.now().as_nanos());
        }
    });
    sim.run().unwrap();
    let credited = net
        .route(na, nb)
        .links
        .iter()
        .map(|&l| net.link_delivered(l).to_bits())
        .collect();
    let v = log.borrow().clone();
    (v, credited)
}

/// Single-flow sequences: every completion timestamp and every link's
/// credited bytes must match the per-round model exactly, across the full
/// parameter sweep.
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
            let log = Rc::new(RefCell::new(Vec::new()));
            let sim = Sim::new();
            for (i, (bytes, delay)) in [(bytes_a, 0u64), (bytes_b, stagger)]
                .into_iter()
                .enumerate()
            {
                let net = net.clone();
                let log = Rc::clone(&log);
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
                    log.borrow_mut().push((i, cx.now().as_nanos()));
                });
            }
            sim.run().unwrap();
            let v = log.borrow().clone();
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

/// A lone flow that is not window-bound: its window outgrows a
/// deep-queued thin WAN link, which then bounds its rate for the rest of
/// a multi-second transfer. The replay must settle exactly where the
/// per-round model settles.
#[test]
fn link_bound_flow_is_bit_identical() {
    forall(12, 0x5EED_2003, |rng| {
        let sc = Scenario {
            rtt_us: rng.range_u64(5_000, 30_000),
            capacity: rng.range_f64(10e6, 40e6),
            queue_bytes: 64 << 20,
            buf: 8 << 20,
            mss: 1448,
            init_cwnd_segments: 10,
            cc: if rng.chance(0.5) {
                CongestionControl::Bic
            } else {
                CongestionControl::Reno
            },
            transfers: vec![(rng.range_u64(16 << 20, 48 << 20), 0)],
        };
        let slow = run_sequence(&sc, false);
        let fast = run_sequence(&sc, true);
        // Link-bound: the transfer takes at least its bytes over the
        // bottleneck.
        let (bytes, _) = sc.transfers[0];
        assert!(slow.0[0] as f64 * 1e-9 >= bytes as f64 / sc.capacity);
        assert_eq!(
            slow, fast,
            "fast path diverged on a link-bound flow: rtt={}us cap={} cc={:?} transfers={:?}",
            sc.rtt_us, sc.capacity, sc.cc, sc.transfers
        );
    });
}

/// A randomly drawn LAN scenario: two or three nodes of one site.
#[derive(Debug)]
struct LanScenario {
    /// One-way LAN latency: RTTs of 20–200 µs.
    one_way_us: u64,
    nic: f64,
    /// Socket-buffer bound; `None` keeps the untuned 2007 kernel.
    buf: Option<u64>,
    mss: u32,
    init_cwnd_segments: u32,
    cc: CongestionControl,
    pacing: bool,
}

fn draw_lan(rng: &mut Rng) -> LanScenario {
    LanScenario {
        one_way_us: rng.range_u64(10, 101),
        nic: rng.range_f64(50e6, 1.25e9),
        buf: (!rng.chance(0.15)).then(|| rng.range_u64(64, 8192) * 1024),
        mss: [536u32, 1448, 8948][rng.range_usize(0, 3)],
        init_cwnd_segments: rng.range_u64(1, 11) as u32,
        cc: if rng.chance(0.5) {
            CongestionControl::Bic
        } else {
            CongestionControl::Reno
        },
        pacing: rng.chance(0.5),
    }
}

/// Every completion (ns, in the order the transfers complete), each
/// link's credited bytes (f64 bits) and every recorded event: TCP
/// samples, flow starts and finishes, link samples.
type LanTrace = (Vec<(usize, u64)>, Vec<u64>, Vec<Event>);

/// Run `transfers` — `(source node, start ns, bytes)`, all to node 0,
/// each source on one channel whose transfers queue in order — on the
/// scenario's site with three nodes.
fn run_lan(sc: &LanScenario, transfers: &[(usize, u64, u64)], fast: bool) -> LanTrace {
    let mut t = Topology::new();
    let site = t.add_site(
        "lan",
        SiteParams {
            lan_one_way: SimDuration::from_micros(sc.one_way_us),
            ..SiteParams::default()
        },
    );
    let nic = NodeParams {
        nic_bytes_per_sec: sc.nic,
        ..NodeParams::default()
    };
    let nodes: Vec<NodeId> = (0..3).map(|_| t.add_node(site, nic.clone())).collect();
    let mut cfg = sc
        .buf
        .map_or_else(KernelConfig::untuned_2007, KernelConfig::tuned);
    cfg.mss = sc.mss;
    cfg.init_cwnd_segments = sc.init_cwnd_segments;
    cfg.congestion_control = sc.cc;
    t.set_kernel_all(cfg);
    let path = t.route(nodes[1], nodes[0]);
    assert!(
        path.queue_bytes >= path.bdp_bytes() / 4,
        "the LAN queue is at least a quarter of the BDP"
    );
    let net = Network::new(t);
    net.set_bulk_fast_path(fast);
    let sink = Arc::new(RingSink::new(1 << 24));
    net.attach_obs(&Obs::none().recorder(sink.clone()));
    let done = Rc::new(RefCell::new(Vec::new()));
    let sim = Sim::new();
    for src in [1, 2] {
        let mine: Vec<(usize, u64, u64)> = transfers
            .iter()
            .enumerate()
            .filter(|(_, tr)| tr.0 == src)
            .map(|(k, &(_, start, bytes))| (k, start, bytes))
            .collect();
        let (net, done, dst, src) = (net.clone(), Rc::clone(&done), nodes[0], nodes[src]);
        let pacing = sc.pacing;
        sim.spawn_task("sender", move |cx| async move {
            let os = SockBufRequest::OsDefault;
            let ch = net.channel(src, dst, os, os, pacing);
            for (k, start, bytes) in mine {
                if start > cx.now().as_nanos() {
                    cx.advance(SimDuration::from_nanos(start - cx.now().as_nanos()))
                        .await;
                }
                cx.wait(net.transfer(&cx.sched(), ch, bytes)).await;
                done.borrow_mut().push((k, cx.now().as_nanos()));
            }
        });
    }
    sim.run().unwrap();
    assert_eq!(sink.dropped(), 0, "the ring holds every event");
    // Both senders' uplinks and the shared downlink.
    let credited = [1, 2]
        .iter()
        .flat_map(|&src| net.route(nodes[src], nodes[0]).links)
        .map(|l| net.link_delivered(l).to_bits())
        .collect();
    let v = done.borrow().clone();
    (v, credited, sink.events())
}

/// Lone LAN flows, up to 64 MB with idle gaps, on tuned and untuned
/// buffers: the completions, the links' credits and the traced TCP and
/// link sample streams (and so the TCP state each round leaves) must
/// match the per-round model exactly.
#[test]
fn lan_pinned_flows_are_bit_identical() {
    forall(40, 0x5EED_2004, |rng| {
        let sc = draw_lan(rng);
        let mut start = 0;
        let transfers: Vec<(usize, u64, u64)> = (0..rng.range_usize(1, 4))
            .map(|_| {
                // Idle gaps up to 2 s: some past an RTO, so a later
                // transfer may restart in slow start.
                start += rng.range_u64(0, 2_000_000_000);
                (1, start, rng.range_u64(1, (64 << 20) + 1))
            })
            .collect();
        let slow = run_lan(&sc, &transfers, false);
        let fast = run_lan(&sc, &transfers, true);
        assert!(
            slow == fast,
            "fast path diverged on a LAN: {sc:?} transfers={transfers:?}"
        );
    });
}

/// A second LAN sender joins while a 16–64 MB flow runs at the shared
/// downlink's rate, tenths of its lone duration in: the plan is
/// materialised in the middle of its pinned segment and both flows share
/// the link per round. Everything traced must match the per-round model.
#[test]
fn lan_flows_interrupted_mid_segment_are_bit_identical() {
    forall(40, 0x5EED_2005, |rng| {
        let mut sc = draw_lan(rng);
        // Tuned buffers: the window sits above the bottleneck.
        sc.buf = Some(rng.range_u64(1024, 8192) * 1024);
        let bytes = rng.range_u64(16 << 20, (64 << 20) + 1);
        let lone_ns = bytes as f64 / sc.nic * 1e9;
        let stagger = (lone_ns * rng.range_f64(0.1, 0.8)) as u64 + rng.range_u64(0, 1_000);
        let transfers = [(1, 0, bytes), (2, stagger, rng.range_u64(1, 8 << 20))];
        let slow = run_lan(&sc, &transfers, false);
        let fast = run_lan(&sc, &transfers, true);
        assert!(
            slow == fast,
            "fast path diverged on an interrupted LAN flow: {sc:?} transfers={transfers:?}"
        );
    });
}
