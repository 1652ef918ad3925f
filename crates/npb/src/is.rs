//! IS — bucket integer sort.
//!
//! Per iteration: an allreduce of the 1 kB bucket histogram, a tiny
//! alltoall of send counts, and the large alltoallv that redistributes the
//! keys (class B/16: ≈ 512 kB per pair, 8 MB leaving each rank). This is the
//! "very big messages over collectives" profile of Table 2, and the
//! benchmark where the paper notes GridMPI only optimises one of the three
//! primitives used (`MPI_Allreduce`).

use mpisim::RankCtx;

use crate::run::{timed_loop, NasClass};

struct Params {
    total_keys: u64,
    total_gflop: f64,
}

fn params(class: NasClass) -> Params {
    match class {
        NasClass::S => Params {
            total_keys: 1 << 16,
            total_gflop: 0.01,
        },
        NasClass::W => Params {
            total_keys: 1 << 20,
            total_gflop: 0.3,
        },
        NasClass::A => Params {
            total_keys: 1 << 23,
            total_gflop: 8.0,
        },
        NasClass::B => Params {
            total_keys: 1 << 25,
            total_gflop: 30.0,
        },
        NasClass::C => Params {
            total_keys: 1 << 27,
            total_gflop: 120.0,
        },
    }
}

pub(crate) async fn run(ctx: &mut RankCtx, class: NasClass, warmup: u32, timed: u32) {
    let prm = params(class);
    let p = ctx.size() as u64;
    let full = crate::run::NasRun::new(crate::run::NasBenchmark::Is, class).full_iterations();
    let gflop_iter = prm.total_gflop / (full as f64 * p as f64);
    let per_pair = (prm.total_keys * 4 / (p * p)).max(1);

    timed_loop(ctx, warmup, timed, async |ctx, _i| {
        // Local bucket count.
        ctx.compute_gflop(gflop_iter * 0.5).await;
        // Global histogram.
        ctx.allreduce(1024).await;
        // Send counts.
        ctx.alltoall(4 * p).await;
        // Key redistribution.
        let sizes = vec![per_pair; ctx.size()];
        ctx.alltoallv(&sizes).await;
        // Local ranking of received keys.
        ctx.compute_gflop(gflop_iter * 0.5).await;
    })
    .await;
    // Full verification at the end.
    ctx.allreduce(8).await;
}
