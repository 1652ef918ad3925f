//! Extension study (the paper's §5 future work): MPICH-G2 alongside the
//! four evaluated implementations. G2's model brings topology-aware
//! collectives, GridFTP-style parallel TCP streams for large messages,
//! and Globus's extra per-message overhead.

use mpisim::MpiImpl;

use crate::nas::{Exhibit, Layout, NasStore};
use crate::scenario::{min_one_way, pingpong_program, Scenario};
use crate::util::{mbps, Scope, TuningLevel};

fn pingpong_mbps(id: MpiImpl, level: TuningLevel, bytes: u64) -> f64 {
    let report = Scenario::pair(Scope::Grid, level, id)
        .run(pingpong_program(bytes, 20))
        .expect("G2 pingpong completes");
    mbps(bytes, min_one_way(&report))
}

/// Renders the [`Exhibit::G2`] cells of `store`.
pub fn cmd_g2(store: &NasStore) {
    crate::header("Extension (paper §5): MPICH-G2 — parallel streams & topology-aware collectives");

    println!("\n8 MB grid pingpong (Mbps):");
    println!(
        "{:<18} {:>12} {:>12}",
        "implementation", "default", "fully tuned"
    );
    for id in [MpiImpl::Mpich2, MpiImpl::MpichG2, MpiImpl::GridMpi] {
        let untuned = pingpong_mbps(id, TuningLevel::Default, 8 << 20);
        let tuned = pingpong_mbps(id, TuningLevel::FullyTuned, 8 << 20);
        println!("{:<18} {:>12.0} {:>12.0}", id.name(), untuned, tuned);
    }
    println!("Parallel streams multiply the effective window: MPICH-G2 moves");
    println!("large messages ~4x faster than MPICH2 on *untuned* kernels, the");
    println!("GridFTP argument of §2.1.5 — at a latency premium from Globus.");

    println!(
        "\nNPB class {} on 8+8 nodes (estimated seconds):",
        store.class().name()
    );
    print!("{:<6}", "");
    for id in MpiImpl::EXTENDED {
        print!("{:>16}", id.name());
    }
    println!();
    for bench in Exhibit::G2_BENCHES {
        print!("{:<6}", bench.name());
        for id in MpiImpl::EXTENDED {
            match store.outcome(bench, id, Layout::Split(8, 8)).secs() {
                Some(s) => print!("{s:>16.1}"),
                None => print!("{:>16}", "timeout"),
            }
        }
        println!();
    }
    println!("G2's topology-aware collectives track GridMPI on FT; its Globus");
    println!("overhead costs it on latency-bound kernels.");
}
