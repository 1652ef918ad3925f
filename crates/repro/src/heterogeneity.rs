//! Extension study (the paper's §5 future work): heterogeneity
//! management. "Using these [high performance] networks for local
//! communications can be efficient to improve performance but has to
//! remain simple. The overhead introduced by the management of
//! heterogeneity has to be less important than the TCP cost."
//!
//! We equip both sites with Myrinet, let an MPICH-Madeleine profile route
//! intra-site traffic over it through its gateway layer, and vary the
//! per-message management overhead to find the break-even point.

use desim::SimDuration;
use mpisim::{ImplProfile, MpiImpl, Tuning};
use netsim::{FastLanParams, KernelConfig, Network, NodeId, Topology};
use npb::{NasBenchmark, NasClass, NasRun};

use crate::scenario::{min_one_way, pingpong_program, Scenario};
use crate::util::mbps;

/// The Fig. 2 testbed with Myrinet alongside Ethernet in both sites.
fn myrinet_pair(nodes_per_site: usize) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    // grid5000_pair has no fast-lan hook, so construct the two sites
    // manually, mirroring its parameters.
    let mut t = Topology::new();
    let mk_site = |t: &mut Topology, name: &str| {
        t.add_site(
            name,
            netsim::SiteParams {
                name: name.to_string(),
                fast_lan: Some(FastLanParams::myrinet()),
                ..netsim::SiteParams::default()
            },
        )
    };
    let rennes = mk_site(&mut t, "rennes");
    let nancy = mk_site(&mut t, "nancy");
    let rn: Vec<NodeId> = (0..nodes_per_site)
        .map(|_| t.add_node(rennes, netsim::NodeParams::default()))
        .collect();
    let nn: Vec<NodeId> = (0..nodes_per_site)
        .map(|_| t.add_node(nancy, netsim::NodeParams::default()))
        .collect();
    t.connect_sites(
        rennes,
        nancy,
        SimDuration::from_micros(11_600),
        9.4e9 / 8.0,
        512 * 1024,
    );
    t.set_kernel_all(KernelConfig::tuned(4 << 20));
    (t, rn, nn)
}

fn madeleine_with_fabric(gateway_overhead: Option<SimDuration>) -> ImplProfile {
    let mut p = ImplProfile::mpich_madeleine();
    p.fast_lan = gateway_overhead;
    p
}

fn lan_pingpong_us(profile: ImplProfile, bytes: u64) -> f64 {
    let (topo, rn, _) = myrinet_pair(2);
    let report = Scenario::custom(Network::new(topo), vec![rn[0], rn[1]], profile.impl_id)
        .profile(profile)
        .tuning(Tuning::paper_tuned(MpiImpl::MpichMadeleine))
        .run(pingpong_program(bytes, 10))
        .expect("fabric pingpong completes");
    min_one_way(&report) * 1e6
}

fn nas_secs(bench: NasBenchmark, profile: ImplProfile) -> f64 {
    let (topo, rn, nn) = myrinet_pair(8);
    let mut placement = rn;
    placement.extend(nn);
    let run = NasRun::new(bench, NasClass::B);
    let report = Scenario::custom(Network::new(topo), placement, profile.impl_id)
        .profile(profile)
        .tuning(Tuning::paper_tuned(MpiImpl::MpichMadeleine))
        .run(run.program())
        .expect("fabric NAS run completes");
    run.estimate(&report).as_secs_f64()
}

pub fn cmd_heterogeneity() {
    crate::header("Extension (paper §5): heterogeneity management over Myrinet");

    println!("\nIntra-site 1-byte latency (one-way µs), MPICH-Madeleine:");
    let tcp = lan_pingpong_us(madeleine_with_fabric(None), 1);
    println!("  over TCP/Ethernet:                 {tcp:6.0}");
    for us in [2u64, 5, 10, 20, 40] {
        let t = lan_pingpong_us(madeleine_with_fabric(Some(SimDuration::from_micros(us))), 1);
        let verdict = if t < tcp { "wins" } else { "LOSES to TCP" };
        println!("  over Myrinet, {us:>2} µs gateway cost:  {t:6.0}  ({verdict})");
    }

    println!("\nIntra-site 1 MB bandwidth (Mbps), MPICH-Madeleine:");
    for (label, profile) in [
        ("TCP/Ethernet", madeleine_with_fabric(None)),
        (
            "Myrinet (5 µs gateway)",
            madeleine_with_fabric(Some(SimDuration::from_micros(5))),
        ),
    ] {
        let ow = lan_pingpong_us(profile, 1 << 20) / 1e6;
        println!("  {label:<24} {:6.0}", mbps(1 << 20, ow));
    }

    println!("\nNPB class B, 8+8 grid, MPICH-Madeleine (intra-site fabric, WAN stays TCP):");
    println!(
        "{:<6} {:>14} {:>18} {:>10}",
        "", "TCP only (s)", "with Myrinet (s)", "gain"
    );
    for bench in [NasBenchmark::Cg, NasBenchmark::Mg, NasBenchmark::Lu] {
        let tcp_only = nas_secs(bench, madeleine_with_fabric(None));
        let fabric = nas_secs(
            bench,
            madeleine_with_fabric(Some(SimDuration::from_micros(5))),
        );
        println!(
            "{:<6} {:>14.1} {:>18.1} {:>9.2}x",
            bench.name(),
            tcp_only,
            fabric,
            tcp_only / fabric
        );
    }
    println!("\nLocal fabrics pay off as long as the gateway overhead stays under");
    println!("the ~40 µs TCP software cost — the paper's §5 conjecture.");
}
