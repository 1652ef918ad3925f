//! `repro faults` — behaviour under injected faults, beyond the paper's
//! fault-free testbed.
//!
//! Two exhibits:
//!
//! 1. **Loss sweep** — bulk-transfer goodput across a two-site WAN for a
//!    grid of per-segment loss rates × path RTTs. The knee where loss
//!    turns RTT-bound recovery into the dominant cost is the classic
//!    TCP-over-WAN result the paper's tuning advice presupposes; here it
//!    falls out of the injected-loss path of the TCP model.
//! 2. **ray2mesh degradation** — the §4.4 application with two workers
//!    killed mid-trace, run under the fault-tolerant master
//!    ([`Ray2MeshConfig::program_ft`]): lost work sets are reclaimed and
//!    reissued, surviving workers finish the job, and the run completes
//!    with a measurable (not fatal) slowdown versus the same
//!    configuration without faults.
//!
//! With `--dat DIR`, writes `faults_goodput.dat` (gnuplot blocks, one per
//! RTT) and `faults_ray2mesh.dat`. With `--trace-out FILE`, the
//! degradation run's fault events (`rank_fail`, `chunk_reissued`,
//! `segment_loss`, …) land in the exported Chrome trace.

use std::io::Write as _;

use desim::{SimDuration, SimTime};
use gridapps::Ray2MeshConfig;
use mpisim::{FaultPlan, FaultPolicy, MpiImpl};
use netsim::{Grid5000Site, KernelConfig, Network, NodeId, NodeParams, SiteParams, Topology};

use crate::par::par_map;
use crate::scenario::{send_program, Scenario};

/// Bulk-transfer size for the loss sweep.
const BULK: u64 = 16 << 20;

/// Per-segment WAN loss rates swept (0 = the fault-free run).
const LOSS_RATES: [f64; 5] = [0.0, 1e-4, 1e-3, 5e-3, 1e-2];

/// Path RTTs swept: half, exactly, and twice the paper's Rennes–Nancy
/// 11.6 ms.
const RTTS_US: [u64; 3] = [5_800, 11_600, 23_200];

/// A tuned two-site pair with a configurable WAN RTT (the Fig. 2 testbed
/// with the latency knob exposed).
fn lossy_pair(rtt: SimDuration) -> (Network, NodeId, NodeId) {
    let mut topo = Topology::new();
    let s1 = topo.add_site("rennes", SiteParams::default());
    let s2 = topo.add_site("nancy", SiteParams::default());
    let a = topo.add_node(s1, NodeParams::default());
    let b = topo.add_node(s2, NodeParams::default());
    topo.connect_sites(s1, s2, rtt, 9.4e9 / 8.0, 512 * 1024);
    topo.set_kernel_all(KernelConfig::tuned(4 << 20));
    (Network::new(topo), a, b)
}

/// One sweep point: transfer [`BULK`] bytes under `loss`, returning
/// (goodput Mbps, completion seconds).
fn goodput_run(rtt: SimDuration, loss: f64) -> (f64, f64) {
    let (net, a, b) = lossy_pair(rtt);
    let plan = FaultPlan::new().with_seed(42).with_wan_loss(loss);
    let report = Scenario::custom(net, vec![a, b], MpiImpl::Mpich2)
        .faults(plan)
        .run(send_program(BULK, 7))
        .expect("loss-sweep transfer completes");
    let secs = report.elapsed.as_secs_f64();
    (BULK as f64 * 8.0 / secs / 1e6, secs)
}

/// Outcome of one fault-tolerant ray2mesh run.
struct FtRun {
    survivors: f64,
    reissued: f64,
    lost: f64,
    compute_secs: f64,
    total_secs: f64,
}

/// Run the degradation demo: 2 slaves per site (8 workers + master) on
/// the Fig. 8 testbed, fault-tolerant master, `plan` injected.
fn ray2mesh_ft(plan: FaultPlan, trace: bool) -> FtRun {
    let cfg = Ray2MeshConfig {
        total_rays: 50_000,
        merge_gflop: 4.0,
        merge_bytes_per_pair: 500_000,
        ..Ray2MeshConfig::default()
    };
    let sink = if trace { crate::obs_sink() } else { None };
    let report = Scenario::four_sites(2, Grid5000Site::ALL[0], MpiImpl::GridMpi)
        .faults(plan)
        .obs(&sink)
        .run(cfg.program_ft(FaultPolicy::grid_default()))
        .expect("fault-tolerant ray2mesh completes");
    if let Some((sink, metrics)) = &sink {
        crate::write_obs(sink, metrics);
    }
    let value = |key: &str| report.values(key).first().map_or(f64::NAN, |&(_, v)| v);
    FtRun {
        survivors: value("survivors"),
        reissued: value("reissued_sets"),
        lost: value("lost_sets"),
        compute_secs: value("compute_secs"),
        total_secs: value("total_secs"),
    }
}

/// `repro faults`: the loss sweep and the degradation demo.
pub fn cmd_faults() {
    crate::header("Fault injection: goodput under loss, and graceful degradation");

    println!(
        "\n{} MB bulk transfer, Rennes->Nancy, tuned 4 MB buffers (Mbps | s):",
        BULK >> 20
    );
    print!("{:>10}", "loss");
    for &rtt_us in &RTTS_US {
        print!("{:>22}", format!("RTT {:.1} ms", rtt_us as f64 / 1e3));
    }
    println!();
    let points: Vec<(u64, f64)> = RTTS_US
        .iter()
        .flat_map(|&rtt_us| LOSS_RATES.iter().map(move |&loss| (rtt_us, loss)))
        .collect();
    let results = par_map(&points, |&(rtt_us, loss)| {
        goodput_run(SimDuration::from_micros(rtt_us), loss)
    });
    let result = |rtt_us: u64, loss: f64| {
        points
            .iter()
            .zip(&results)
            .find(|(&(r, l), _)| r == rtt_us && l == loss)
            .map(|(_, &v)| v)
            .expect("sweep point exists")
    };
    for &loss in &LOSS_RATES {
        print!("{:>10}", format!("{loss:.0e}"));
        for &rtt_us in &RTTS_US {
            let (mbps, secs) = result(rtt_us, loss);
            print!("{:>22}", format!("{mbps:.1} | {secs:.2}"));
        }
        println!();
    }
    if let Some(mut f) = crate::dat_file("faults_goodput") {
        let _ = writeln!(f, "# loss rtt_ms goodput_mbps secs (one block per rtt)");
        for &rtt_us in &RTTS_US {
            for &loss in &LOSS_RATES {
                let (mbps, secs) = result(rtt_us, loss);
                let _ = writeln!(f, "{loss:e} {:.1} {mbps:.2} {secs:.4}", rtt_us as f64 / 1e3);
            }
            let _ = writeln!(f);
        }
    }

    println!("\nray2mesh degradation: 8 workers, ranks 3 and 6 killed mid-trace");
    let baseline = ray2mesh_ft(FaultPlan::new(), false);
    let faulted = ray2mesh_ft(
        FaultPlan::new()
            .with_seed(7)
            .with_wan_loss(5e-4)
            .kill_rank(3, SimTime::from_nanos(3_000_000_000))
            .kill_rank(6, SimTime::from_nanos(6_000_000_000)),
        true,
    );
    println!(
        "{:>10} {:>10} {:>10} {:>6} {:>13} {:>11}",
        "", "survivors", "reissued", "lost", "compute (s)", "total (s)"
    );
    for (label, run) in [("fault-free", &baseline), ("2 killed", &faulted)] {
        println!(
            "{:>10} {:>10.0} {:>10.0} {:>6.0} {:>13.2} {:>11.2}",
            label, run.survivors, run.reissued, run.lost, run.compute_secs, run.total_secs
        );
    }
    assert_eq!(faulted.lost, 0.0, "FT master must reissue every lost set");
    if let Some(mut f) = crate::dat_file("faults_ray2mesh") {
        let _ = writeln!(f, "# run survivors reissued lost compute_secs total_secs");
        for (label, run) in [("fault-free", &baseline), ("two-killed", &faulted)] {
            let _ = writeln!(
                f,
                "{label} {:.0} {:.0} {:.0} {:.4} {:.4}",
                run.survivors, run.reissued, run.lost, run.compute_secs, run.total_secs
            );
        }
    }
}
