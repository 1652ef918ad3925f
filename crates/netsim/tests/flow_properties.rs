//! Property-based tests of the fluid bandwidth-sharing engine and the TCP
//! state machine, driven by the std-only [`desim::prop`] helper.

use desim::prop::forall;
use desim::{Sim, SimDuration};
use netsim::{
    CongestionControl, KernelConfig, Network, NodeId, NodeParams, SiteParams, SockBufRequest,
    TcpParams, TcpState, Topology,
};

fn star_topology(nodes: usize, buf: u64) -> (Network, Vec<NodeId>) {
    let mut t = Topology::new();
    let s = t.add_site("hub", SiteParams::default());
    let ids: Vec<NodeId> = (0..nodes)
        .map(|_| t.add_node(s, NodeParams::default()))
        .collect();
    t.set_kernel_all(KernelConfig::tuned(buf));
    (Network::new(t), ids)
}

/// N concurrent equal flows into one receiver share its downlink: the
/// aggregate completion time is ≈ N × the single-flow time, never
/// faster (capacity conservation).
#[test]
fn incast_conserves_capacity() {
    forall(32, 0x5EED_1001, |rng| {
        let n = rng.range_usize(2, 8);
        let kb = rng.range_u64(64, 4096);
        let bytes = kb * 1024;
        let single = {
            let (net, ids) = star_topology(2, 8 << 20);
            timed_flows(&net, &[(ids[1], ids[0], bytes)])
        };
        let (net, ids) = star_topology(n + 1, 8 << 20);
        let flows: Vec<(NodeId, NodeId, u64)> = (1..=n).map(|i| (ids[i], ids[0], bytes)).collect();
        let aggregate = timed_flows(&net, &flows);
        // Serialisation on the shared downlink dominates: at least
        // (N-1) extra transfer times beyond latency.
        let drain = bytes as f64 / 117.5e6;
        assert!(
            aggregate + 1e-6 >= single + (n as f64 - 1.0) * drain * 0.95,
            "n={n} aggregate={aggregate} single={single} drain={drain}"
        );
    });
}

/// Disjoint pairs don't interfere: k independent transfers finish in
/// single-transfer time.
#[test]
fn disjoint_pairs_run_in_parallel() {
    forall(32, 0x5EED_1002, |rng| {
        let k = rng.range_usize(1, 5);
        let kb = rng.range_u64(64, 2048);
        let bytes = kb * 1024;
        let single = {
            let (net, ids) = star_topology(2, 8 << 20);
            timed_flows(&net, &[(ids[0], ids[1], bytes)])
        };
        let (net, ids) = star_topology(2 * k, 8 << 20);
        let flows: Vec<(NodeId, NodeId, u64)> = (0..k)
            .map(|i| (ids[2 * i], ids[2 * i + 1], bytes))
            .collect();
        let parallel = timed_flows(&net, &flows);
        assert!(
            (parallel - single).abs() < single * 0.01 + 1e-6,
            "k={k}: parallel={parallel} single={single}"
        );
    });
}

/// The TCP window never exceeds flow-control bounds and never drops
/// below one segment, across arbitrary round sequences.
#[test]
fn window_stays_in_bounds() {
    forall(32, 0x5EED_1003, |rng| {
        let rounds = rng.range_u64(1, 4000) as u32;
        let max_window_kb = rng.range_u64(8, 8192);
        let params = TcpParams {
            mss: 1448,
            init_cwnd: 3 * 1448,
            cc: CongestionControl::Bic,
            pacing: false,
            max_window: max_window_kb * 1024,
            rtt: SimDuration::from_micros(11_600),
            bdp: 1_363_000,
            queue_bytes: 512 * 1024,
            wan: true,
            slow_start_after_idle: true,
            rto: SimDuration::from_millis(200),
            smax_paced_segments: 32.0,
            smax_unpaced_segments: 32.0,
            beta: 0.8,
        };
        let mut t = TcpState::new(params);
        for _ in 0..rounds {
            t.on_round();
            let w = t.effective_window();
            assert!(w >= 1448, "window fell below one MSS: {w}");
            assert!(
                w <= max_window_kb * 1024 || w == 1448,
                "window exceeded flow control: {w}"
            );
        }
    });
}

/// Reno never ramps faster than BIC from the same loss state.
#[test]
fn reno_is_never_faster_than_bic() {
    forall(32, 0x5EED_1004, |rng| {
        let rounds = rng.range_u64(50, 2000) as u32;
        fn window_after(cc: CongestionControl, rounds: u32) -> u64 {
            let params = TcpParams {
                mss: 1448,
                init_cwnd: 3 * 1448,
                cc,
                pacing: true,
                max_window: 8 << 20,
                rtt: SimDuration::from_micros(11_600),
                bdp: 1_363_000,
                queue_bytes: 512 * 1024,
                wan: true,
                slow_start_after_idle: true,
                rto: SimDuration::from_millis(200),
                smax_paced_segments: 32.0,
                smax_unpaced_segments: 32.0,
                beta: 0.8,
            };
            let mut t = TcpState::new(params);
            for _ in 0..rounds {
                t.on_round();
            }
            t.effective_window()
        }
        let bic = window_after(CongestionControl::Bic, rounds);
        let reno = window_after(CongestionControl::Reno, rounds);
        // Within a sawtooth both oscillate; compare conservatively.
        assert!(reno <= bic.saturating_mul(2), "reno={reno} bic={bic}");
    });
}

/// Run a set of flows to completion, returning the virtual makespan.
fn timed_flows(net: &Network, flows: &[(NodeId, NodeId, u64)]) -> f64 {
    let sim = Sim::new();
    for (i, &(a, b, bytes)) in flows.iter().enumerate() {
        let net = net.clone();
        sim.spawn_task(format!("f{i}"), move |cx| async move {
            let ch = net.channel(
                a,
                b,
                SockBufRequest::OsDefault,
                SockBufRequest::OsDefault,
                true,
            );
            cx.wait(net.transfer(&cx.sched(), ch, bytes)).await;
        });
    }
    sim.run().unwrap().as_secs_f64()
}
