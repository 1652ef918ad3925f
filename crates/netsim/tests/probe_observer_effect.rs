//! No observer effect: attaching a recorder never changes a run's
//! virtual timestamps. Probed and unprobed runs finish every transfer at
//! the same nanosecond (exact, never approximate), pinned segments
//! included: a segment emits each round's sample as the round runs.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use desim::obs::RingSink;
use desim::prop::{forall, Rng};
use desim::{Sim, SimDuration};
use netsim::{
    CongestionControl, KernelConfig, Network, NodeParams, SiteParams, SockBufRequest, Topology,
};

/// Attaching every probe must not move a single virtual timestamp:
/// probed and unprobed runs of the same random scenario finish at
/// identical nanoseconds.
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
        let run = |probed: bool| -> Vec<u64> {
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
        let bare = run(false);
        let probed = run(true);
        assert_eq!(
            bare, probed,
            "observer effect detected: bytes={bytes} buf={buf} pacing={pacing} cc={cc:?}"
        );
    });
}
