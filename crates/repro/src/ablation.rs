//! Ablation studies over the model's design choices (DESIGN.md §4):
//! isolate each mechanism the paper's results depend on and show what
//! breaks without it.
//!
//! * **pacing** — GridMPI with pacing disabled must inherit the unpaced
//!   slow-start collapse (Fig. 9);
//! * **bottleneck queue depth** — deeper WAN port buffers delay the first
//!   burst loss and shorten the ramp;
//! * **congestion control** — Reno's additive increase recovers far more
//!   slowly than BIC's binary search;
//! * **collective algorithm** — the same 128 kB broadcast under the three
//!   algorithm families, cluster vs grid (the entire Fig. 10 FT story);
//! * **BTL window cap** — OpenMPI with the pipeline cap removed matches
//!   the other implementations at 64 MB.

use mpisim::{BcastAlgo, CollOp, ImplProfile, MpiImpl, Tuning};
use netsim::{grid5000_pair_with_queue, CongestionControl, KernelConfig, Network};

use crate::scenario::{coll_program, min_one_way, pingpong_program, Scenario};
use crate::slowstart::{series_points, time_to};
use crate::util::{mbps, TuningLevel};

/// Seconds until a train of 1 MB messages first reaches 500 Mbps
/// one-way (slow-start ramp probe).
fn ramp_time_to_500(
    mut profile: ImplProfile,
    queue_bytes: u64,
    cc: CongestionControl,
) -> Option<f64> {
    // Tuned thresholds (Table 5): the probe isolates TCP dynamics, not
    // the rendezvous handshake.
    profile.eager_threshold = u64::MAX;
    let (mut topo, rn, nn) = grid5000_pair_with_queue(1, queue_bytes);
    let mut kernel = KernelConfig::tuned_with_default(4 << 20, 4 << 20);
    kernel.congestion_control = cc;
    topo.set_kernel_all(kernel);
    let bytes = 1u64 << 20;
    let report = Scenario::custom(Network::new(topo), vec![rn[0], nn[0]], profile.impl_id)
        .profile(profile)
        .run(pingpong_program(bytes, 200))
        .expect("ramp probe completes");
    time_to(&series_points(bytes, &report), 500.0)
}

fn fmt_opt(t: Option<f64>) -> String {
    t.map_or("never".into(), |t| format!("{t:5.2}s"))
}

pub fn cmd_ablation() {
    crate::header("Ablation 1: software pacing (GridMPI's TCP optimisation)");
    let paced = ImplProfile::gridmpi();
    let mut unpaced = ImplProfile::gridmpi();
    unpaced.pacing = false;
    println!(
        "time to 500 Mbps on 1 MB messages: paced {}  |  pacing disabled {}",
        fmt_opt(ramp_time_to_500(paced, 512 << 10, CongestionControl::Bic)),
        fmt_opt(ramp_time_to_500(
            unpaced.clone(),
            512 << 10,
            CongestionControl::Bic
        )),
    );

    crate::header("Ablation 2: WAN bottleneck queue depth (unpaced sender)");
    for queue_kb in [128u64, 512, 2048, 8192] {
        let t = ramp_time_to_500(
            ImplProfile::mpich2(),
            queue_kb << 10,
            CongestionControl::Bic,
        );
        println!("queue {queue_kb:>5} kB -> 500 Mbps at {}", fmt_opt(t));
    }

    crate::header("Ablation 3: congestion control algorithm (unpaced sender)");
    for (name, cc) in [
        ("BIC ", CongestionControl::Bic),
        ("Reno", CongestionControl::Reno),
    ] {
        let t = ramp_time_to_500(ImplProfile::mpich2(), 512 << 10, cc);
        println!("{name} -> 500 Mbps at {}", fmt_opt(t));
    }

    crate::header("Ablation 4: broadcast algorithm, 128 kB, 16 ranks");
    for (label, algo) in [
        ("binomial tree", BcastAlgo::Binomial),
        ("scatter+ring (Van de Geijn)", BcastAlgo::ScatterAllgather),
        ("grid-aware hierarchical", BcastAlgo::GridAware),
    ] {
        let mut t_by_layout = Vec::new();
        for split in [false, true] {
            let mut profile = ImplProfile::gridmpi();
            profile.collectives.bcast = algo;
            // TCP-tuned kernels and no MPI tuning: the profile's own
            // thresholds hold.
            let level = TuningLevel::TcpTuned;
            let scenario = if split {
                Scenario::npb(8, 8, 8, level, MpiImpl::GridMpi)
            } else {
                Scenario::npb(16, 16, 0, level, MpiImpl::GridMpi)
            };
            let report = scenario
                .profile(profile)
                .run(coll_program(CollOp::Bcast, 128 << 10, 10))
                .expect("bcast ablation completes");
            t_by_layout.push(report.elapsed.as_secs_f64() / 10.0 * 1e3);
        }
        println!(
            "{label:<28} cluster {:>7.2} ms/bcast   8+8 grid {:>7.2} ms/bcast",
            t_by_layout[0], t_by_layout[1]
        );
    }

    crate::header("Ablation 5: OpenMPI BTL pipeline window cap, 64 MB transfer");
    for (label, cap) in [
        ("cap 1 MB (model)", Some(1u64 << 20)),
        ("cap removed", None),
    ] {
        let mut profile = ImplProfile::openmpi();
        profile.data_window_cap = cap;
        let (mut topo, rn, nn) = grid5000_pair_with_queue(1, 512 << 10);
        topo.set_kernel_all(KernelConfig::tuned(4 << 20));
        let bytes = 64u64 << 20;
        let report = Scenario::custom(Network::new(topo), vec![rn[0], nn[0]], MpiImpl::OpenMpi)
            .profile(profile)
            .tuning(Tuning::paper_tuned(MpiImpl::OpenMpi))
            .run(pingpong_program(bytes, 8))
            .expect("cap ablation completes");
        println!(
            "{label:<18} -> {:>6.0} Mbps",
            mbps(bytes, min_one_way(&report))
        );
    }
}
