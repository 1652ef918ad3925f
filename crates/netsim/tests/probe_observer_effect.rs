//! No-observer-effect guarantees of the observability probes.
//!
//! Two properties, both exact (integer-nanosecond / bit-level, never
//! approximate):
//!
//! 1. **Fast-path sample equivalence** — a cwnd-vs-time probe sees the
//!    *identical* sample sequence whether the closed-form bulk-transfer
//!    fast path is enabled or the per-round event loop runs. The fast
//!    path materializes the samples from its replay; per-channel virtual
//!    timestamps, cwnd values, raw ssthresh bits, phases, and outcomes
//!    must all match. `Network::set_bulk_fast_path` selects the mode.
//!
//!    A plan interrupted by a second transfer drops the samples its
//!    feasibility run gathered and emits only those of the prefix it
//!    replays, so the traced streams match there too.
//!
//! 2. **Observer invariance** — attaching a recorder never changes a
//!    run's virtual timestamps: probed and unprobed runs finish every
//!    transfer at the same nanosecond, with the fast path both on and
//!    off.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use desim::obs::{Event, RingSink};
use desim::prop::{forall, Rng};
use desim::{Sim, SimDuration};
use netsim::{
    CongestionControl, KernelConfig, Network, NodeId, NodeParams, SiteParams, SockBufRequest,
    Topology,
};

/// The paper's WAN pair: two sites, 11.6 ms RTT, 1 Gb/s bottleneck.
fn wan_pair(buf: u64) -> (Network, NodeId, NodeId) {
    let mut t = Topology::new();
    let a = t.add_site("rennes", SiteParams::default());
    let b = t.add_site("sophia", SiteParams::default());
    let na = t.add_node(a, NodeParams::default());
    let nb = t.add_node(b, NodeParams::default());
    t.connect_sites(a, b, SimDuration::from_micros(11_600), 125e6, 512 * 1024);
    t.set_kernel_all(KernelConfig::tuned(buf));
    (Network::new(t), na, nb)
}

/// Condensed, comparable form of one TCP sample. `ssthresh` is compared
/// by raw bits so an infinity/NaN can never alias a finite value.
type Sample = (u64, u64, u64, u64, &'static str, &'static str);

fn sample_key(ev: &Event) -> Option<Sample> {
    match ev {
        Event::TcpSample {
            channel,
            t_ns,
            cwnd,
            ssthresh,
            phase,
            outcome,
        } => Some((*channel, *t_ns, *cwnd, ssthresh.to_bits(), phase, outcome)),
        _ => None,
    }
}

/// `(start|finish, channel, t_ns, bytes)` — one flow lifecycle edge.
type FlowEdge = (&'static str, u64, u64, u64);

fn flow_key(ev: &Event) -> Option<FlowEdge> {
    match ev {
        Event::FlowStart {
            channel,
            t_ns,
            bytes,
            ..
        } => Some(("start", *channel, *t_ns, *bytes)),
        Event::FlowFinish {
            channel,
            t_ns,
            bytes,
        } => Some(("finish", *channel, *t_ns, *bytes)),
        _ => None,
    }
}

/// Run one `bytes`-sized WAN transfer with a probe attached; return the
/// TCP sample sequence, the flow start/finish sequence, and the
/// completion timestamp.
fn probed_transfer(
    bytes: u64,
    buf: u64,
    pacing: bool,
    fast: bool,
) -> (Vec<Sample>, Vec<FlowEdge>, u64) {
    let (net, na, nb) = wan_pair(buf);
    net.set_bulk_fast_path(fast);
    let sink = Arc::new(RingSink::new(1 << 20));
    net.attach_obs(&desim::obs::Obs::none().recorder(sink.clone()));
    let done = Rc::new(RefCell::new(0u64));
    let done2 = Rc::clone(&done);
    let sim = Sim::new();
    sim.spawn_task("sender", move |cx| async move {
        let ch = net.channel(
            na,
            nb,
            SockBufRequest::OsDefault,
            SockBufRequest::OsDefault,
            pacing,
        );
        cx.wait(net.transfer(&cx.sched(), ch, bytes)).await;
        *done2.borrow_mut() = cx.now().as_nanos();
    });
    sim.run().unwrap();
    let events = sink.events();
    assert_eq!(sink.dropped(), 0, "ring must be large enough for the test");
    let samples = events.iter().filter_map(sample_key).collect();
    let flows = events.iter().filter_map(flow_key).collect();
    let end = *done.borrow();
    (samples, flows, end)
}

/// The acceptance-criteria scenario: a 64 MB transfer across the WAN,
/// with big (tuned) buffers so slow start, loss, and recovery all play
/// out. The probe must report the identical sample sequence with the
/// fast path enabled and disabled — and the flow/link event streams and
/// the completion time must match too.
#[test]
fn cwnd_probe_64mb_wan_identical_with_and_without_fast_path() {
    for pacing in [false, true] {
        let (s_slow, f_slow, end_slow) = probed_transfer(64 << 20, 4 << 20, pacing, false);
        let (s_fast, f_fast, end_fast) = probed_transfer(64 << 20, 4 << 20, pacing, true);
        assert!(
            s_slow.len() > 10,
            "expected a real round cadence, got {} samples",
            s_slow.len()
        );
        assert_eq!(
            s_slow, s_fast,
            "cwnd sample sequences diverged (pacing={pacing})"
        );
        assert_eq!(
            f_slow, f_fast,
            "flow event sequences diverged (pacing={pacing})"
        );
        assert_eq!(
            end_slow, end_fast,
            "completion time diverged (pacing={pacing})"
        );
        // The scenario exercises actual congestion dynamics, not a flat
        // window: an unpaced tuned sender must see a loss episode.
        if !pacing {
            assert!(
                s_slow.iter().any(|s| s.5 == "rto_stall"),
                "expected a slow-start overshoot in the unpaced tuned run"
            );
        }
    }
}

/// One recorded event of the streams the flow engine emits: a TCP
/// sample, a flow start/finish edge or a link delivery total (by bits).
#[derive(Debug, PartialEq)]
enum Traced {
    Tcp(Sample),
    Flow(FlowEdge),
    Link(u64, u64, u64),
}

fn traced_key(ev: &Event) -> Option<Traced> {
    match ev {
        Event::LinkSample {
            link,
            t_ns,
            delivered_bytes,
        } => Some(Traced::Link(*link, *t_ns, delivered_bytes.to_bits())),
        _ => sample_key(ev)
            .map(Traced::Tcp)
            .or_else(|| flow_key(ev).map(Traced::Flow)),
    }
}

/// A 32 MB WAN transfer whose fast-path plan a second transfer on its
/// own channel, over the same links, interrupts `gap` ns in: the plan
/// is materialised. Returns every traced event, in order, and the two
/// completion times.
fn interrupted_transfer(
    gap: u64,
    second: u64,
    pacing: bool,
    fast: bool,
) -> (Vec<Traced>, [u64; 2]) {
    let (net, na, nb) = wan_pair(4 << 20);
    net.set_bulk_fast_path(fast);
    let sink = Arc::new(RingSink::new(1 << 20));
    net.attach_obs(&desim::obs::Obs::none().recorder(sink.clone()));
    let done = Rc::new(RefCell::new([0u64; 2]));
    let sim = Sim::new();
    for (k, (delay, bytes)) in [(0, 32 << 20), (gap, second)].into_iter().enumerate() {
        let (net, done) = (net.clone(), Rc::clone(&done));
        sim.spawn_task("sender", move |cx| async move {
            let os = SockBufRequest::OsDefault;
            let ch = net.channel(na, nb, os, os, pacing);
            if delay > 0 {
                cx.advance(SimDuration::from_nanos(delay)).await;
            }
            cx.wait(net.transfer(&cx.sched(), ch, bytes)).await;
            done.borrow_mut()[k] = cx.now().as_nanos();
        });
    }
    sim.run().unwrap();
    assert_eq!(sink.dropped(), 0, "ring must be large enough for the test");
    let events = sink.events().iter().filter_map(traced_key).collect();
    let end = *done.borrow();
    (events, end)
}

/// A second transfer starting mid-plan materialises the lone flow's
/// plan. With a recorder attached, the TCP sample, flow start/finish and
/// link sample streams and both completion times are identical with the
/// fast path on and off: no sample of the dropped plan's feasibility
/// run leaks out, and none of its prefix is lost.
#[test]
fn interrupted_plan_traces_identically_with_and_without_fast_path() {
    forall(6, 0x0B5E_7002, |rng: &mut Rng| {
        let gap = rng.range_u64(1, 250_000_000);
        let second = rng.range_u64(1, 8 << 20);
        let pacing = rng.chance(0.5);
        let (slow, end_slow) = interrupted_transfer(gap, second, pacing, false);
        let (fast, end_fast) = interrupted_transfer(gap, second, pacing, true);
        let case = format!("gap={gap} second={second} pacing={pacing}");
        // The second transfer starts before the first one finishes.
        let first_finish = slow
            .iter()
            .find_map(|e| match e {
                Traced::Flow(("finish", _, t, _)) => Some(*t),
                _ => None,
            })
            .expect("a flow finishes");
        assert!(gap < first_finish, "no interrupt: {case}");
        assert!(slow.iter().any(|e| matches!(e, Traced::Tcp(_))), "{case}");
        assert_eq!(slow, fast, "traced streams diverged: {case}");
        assert_eq!(end_slow, end_fast, "completion times diverged: {case}");
    });
}

/// Attaching every probe must not move a single virtual timestamp:
/// probed and unprobed runs of the same random scenario finish at
/// identical nanoseconds, fast path on and off.
#[test]
fn probes_never_change_virtual_timestamps() {
    forall(25, 0x0B5E_7001, |rng: &mut Rng| {
        let bytes = rng.range_u64(1, 16 << 20);
        let buf = rng.range_u64(64, 8192) * 1024;
        let pacing = rng.chance(0.5);
        let n = rng.range_usize(1, 4);
        let gaps: Vec<u64> = (0..n)
            .map(|i| {
                if i == 0 {
                    0
                } else {
                    rng.range_u64(0, 500_000_000)
                }
            })
            .collect();
        let cc = if rng.chance(0.5) {
            CongestionControl::Bic
        } else {
            CongestionControl::Reno
        };
        let run = |fast: bool, probed: bool| -> Vec<u64> {
            let (net, na, nb) = {
                let mut t = Topology::new();
                let a = t.add_site("a", SiteParams::default());
                let b = t.add_site("b", SiteParams::default());
                let na = t.add_node(a, NodeParams::default());
                let nb = t.add_node(b, NodeParams::default());
                t.connect_sites(a, b, SimDuration::from_micros(11_600), 125e6, 512 * 1024);
                let mut cfg = KernelConfig::tuned(buf);
                cfg.congestion_control = cc;
                t.set_kernel_all(cfg);
                (Network::new(t), na, nb)
            };
            net.set_bulk_fast_path(fast);
            if probed {
                net.attach_obs(&desim::obs::Obs::none().recorder(Arc::new(RingSink::new(1 << 16))));
            }
            let log = Rc::new(RefCell::new(Vec::new()));
            let log2 = Rc::clone(&log);
            let gaps = gaps.clone();
            let sim = Sim::new();
            sim.spawn_task("sender", move |cx| async move {
                let ch = net.channel(
                    na,
                    nb,
                    SockBufRequest::OsDefault,
                    SockBufRequest::OsDefault,
                    pacing,
                );
                for gap in gaps {
                    if gap > 0 {
                        cx.advance(SimDuration::from_nanos(gap)).await;
                    }
                    cx.wait(net.transfer(&cx.sched(), ch, bytes)).await;
                    log2.borrow_mut().push(cx.now().as_nanos());
                }
            });
            sim.run().unwrap();
            let v = log.borrow().clone();
            v
        };
        for fast in [false, true] {
            let bare = run(fast, false);
            let probed = run(fast, true);
            assert_eq!(
                bare, probed,
                "observer effect detected: fast={fast} bytes={bytes} buf={buf} \
                 pacing={pacing} cc={cc:?}"
            );
        }
    });
}
