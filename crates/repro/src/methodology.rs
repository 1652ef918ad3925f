//! Methodology experiments.
//!
//! * `perturbation` — why the paper keeps the *minimum* latency and
//!   *maximum* bandwidth over 200 round trips: Grid'5000's shared WAN
//!   carries other users' traffic. We inject deterministic background
//!   flows and show the spread between best- and worst-case iterations.
//! * `simri` — the §2.2.2 application: master/slave MRI simulation whose
//!   efficiency approaches 100 % once the object is ≥ 256².

use desim::SimDuration;
use gridapps::SimriConfig;
use mpisim::{MpiImpl, RankCtx};

use crate::scenario::Scenario;
use crate::util::{Scope, TuningLevel};

pub fn cmd_perturbation() {
    crate::header("Methodology: min/max filtering under background traffic (§4.1)");
    let bytes = 1u64 << 20;
    println!("1 MB pingpong Rennes->Nancy, 60 round trips, MPICH2 tuned;");
    println!("background: 8 MB cross-flows on the same WAN path every 120 ms\n");
    for (label, with_bg) in [("quiet network", false), ("with cross-traffic", true)] {
        let scenario = Scenario::pair(Scope::Grid, TuningLevel::FullyTuned, MpiImpl::Mpich2);
        let net = scenario.network();
        let (rennes, nancy) = (scenario.placement()[0], scenario.placement()[1]);
        // The background generator rides Rennes' second node so only the
        // shared WAN link contends.
        let spare = net.with_topology(|t| t.nodes_of(t.site_of(rennes))[1]);
        let report = scenario
            .run_with_setup(
                move |sim| {
                    if with_bg {
                        // Incast on the pingpong receiver's downlink: the
                        // contended resource is the last hop, as on the
                        // real shared testbed.
                        net.spawn_background_traffic(
                            sim,
                            spare,
                            nancy,
                            8 << 20,
                            SimDuration::from_millis(120),
                            60,
                        );
                    }
                },
                move |mut ctx: RankCtx| async move {
                    const TAG: u64 = 1;
                    for _ in 0..60 {
                        if ctx.rank() == 0 {
                            let t0 = ctx.now();
                            ctx.send(1, bytes, TAG).await;
                            ctx.recv(1, TAG).await;
                            let ow = ctx.now().since(t0).as_secs_f64() / 2.0;
                            ctx.record("bw", bytes as f64 * 8.0 / ow / 1e6);
                        } else {
                            ctx.recv(0, TAG).await;
                            ctx.send(0, bytes, TAG).await;
                        }
                    }
                },
            )
            .expect("perturbation run completes");
        let bws: Vec<f64> = report.values("bw").into_iter().map(|(_, v)| v).collect();
        // Skip the slow-start ramp: the paper's spread comes from load, not
        // from the first iterations.
        let steady = &bws[10..];
        let max = steady.iter().copied().fold(0.0, f64::max);
        let min = steady.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = steady.iter().sum::<f64>() / steady.len() as f64;
        println!("{label:<22} min {min:6.1}  mean {mean:6.1}  max {max:6.1} Mbps");
    }
    println!("\nUnder load the mean (and worst iterations) degrade while the best");
    println!("iteration still sees the unloaded path — which is why the paper");
    println!("reports the max bandwidth / min latency over 200 round trips.");
}

pub fn cmd_simri() {
    crate::header("Simri (§2.2.2): MRI simulation efficiency vs object size");
    println!(
        "{:<14} {:>14} {:>14} {:>12}",
        "object", "1 slave (s)", "8 slaves (s)", "efficiency"
    );
    for size in [64u64, 128, 256, 512] {
        let cfg = SimriConfig {
            object_size: size,
            ..SimriConfig::default()
        };
        let secs = |slaves: usize| -> f64 {
            let report = Scenario::npb(9, slaves + 1, 0, TuningLevel::Default, MpiImpl::Mpich2)
                .run(cfg.program())
                .expect("simri completes");
            report.values("total_secs")[0].1
        };
        let t1 = secs(1);
        let t8 = secs(8);
        let eff = t1 / (8.0 * t8) * 100.0;
        println!(
            "{:<14} {:>14.3} {:>14.3} {:>11.1}%",
            format!("{size}x{size}"),
            t1,
            t8,
            eff
        );
    }
    println!("\nAs in the paper, communication drops under a few percent of the");
    println!("total once the object reaches 256x256 (efficiency near 100%).");
}
