//! Write your own grid-aware collective: use sub-communicators to keep
//! traffic inside sites (the GridMPI/Matsuda recipe), trace the run, and
//! compare against the topology-oblivious algorithm — the mechanism behind
//! the paper's Fig. 10 FT result, as a library tutorial.
//!
//! Run with: `cargo run --release --example grid_aware_collectives`

use std::sync::Arc;

use grid_mpi_lab::desim::{Analysis, Collector, Obs};
use grid_mpi_lab::mpisim::{BcastAlgo, ImplProfile, MpiImpl, MpiJob, RankCtx, HEADER_BYTES};
use grid_mpi_lab::netsim::{grid5000_pair, KernelConfig, Network};

fn main() {
    let bytes = 256 << 10;
    let reps = 10;

    // An 8+8 testbed with tuned kernels.
    let testbed = || {
        let (mut topo, rn, nn) = grid5000_pair(8);
        topo.set_kernel_all(KernelConfig::tuned_with_default(4 << 20, 4 << 20));
        let mut placement = rn;
        placement.extend(nn);
        (Network::new(topo), placement)
    };

    // 1. The oblivious broadcast (MPICH2's scatter + ring).
    let (net, placement) = testbed();
    let mut oblivious = ImplProfile::gridmpi();
    oblivious.collectives.bcast = BcastAlgo::ScatterAllgather;
    let t_oblivious = MpiJob::new(net, placement, MpiImpl::GridMpi)
        .with_profile(oblivious)
        .run(move |mut ctx: RankCtx| async move {
            for _ in 0..reps {
                ctx.bcast(0, bytes).await;
            }
        })
        .unwrap()
        .elapsed;

    // 2. A hand-written hierarchical broadcast over sub-communicators:
    //    one WAN hop to each remote site leader, then intra-site trees.
    let (net, placement) = testbed();
    let collector = Arc::new(Collector::new());
    let report = MpiJob::new(net, placement, MpiImpl::GridMpi)
        .with_obs(Obs::none().recorder(collector.clone()))
        .run(move |mut ctx: RankCtx| async move {
            let site = ctx.comm_site();
            let leaders = ctx.comm_split(|r| if r % 8 == 0 { 0 } else { 1 + r as u64 });
            for _ in 0..reps {
                // WAN hop between site leaders (ranks 0 and 8)...
                if ctx.rank() == 0 {
                    ctx.send(8, bytes, 42).await;
                } else if ctx.rank() == 8 {
                    ctx.recv(0, 42).await;
                }
                // ...then everyone fans out locally.
                ctx.comm_bcast(&site, 0, bytes).await;
            }
            let _ = leaders;
        })
        .unwrap();
    let t_hierarchical = report.elapsed;

    println!("256 kB broadcast x{reps}, 8+8 nodes across an 11.6 ms WAN:\n");
    println!("  topology-oblivious (scatter+ring): {t_oblivious}");
    println!("  hand-rolled hierarchical:          {t_hierarchical}");
    println!(
        "  speedup: {:.1}x\n",
        t_oblivious.as_secs_f64() / t_hierarchical.as_secs_f64()
    );

    let analysis = Analysis::from_events(&collector.events(), HEADER_BYTES);
    println!("hierarchical version, busiest pairs (note: only 0->8 crosses the WAN):");
    for &(a, b, n) in analysis.pairs.iter().take(4) {
        println!("  rank {a:>2} -> rank {b:>2}: {:.1} MB", n as f64 / 1e6);
    }
}
