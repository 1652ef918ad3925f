//! FT — 3D FFT.
//!
//! The paper's instrumented profile (Table 2) shows FT communicating
//! through `MPI_Bcast`: ≈ one 128 kB broadcast per rank per iteration plus
//! 1 B synchronisations, and §4.3 attributes GridMPI's large FT advantage
//! on the grid to its optimised broadcast. The skeleton follows that
//! measured profile (several 128 kB bcasts per iteration plus an
//! evolve/FFT compute phase) rather than the transpose-alltoall reading of
//! the NPB source, because the paper's Fig. 10/12/13 behaviour is what we
//! reproduce; see EXPERIMENTS.md for the discussion.

use mpisim::RankCtx;

use crate::run::{timed_loop, NasClass};

struct Params {
    bcast_bytes: u64,
    bcasts_per_iter: u32,
    total_gflop: f64,
}

fn params(class: NasClass) -> Params {
    match class {
        NasClass::S => Params {
            bcast_bytes: 8 << 10,
            bcasts_per_iter: 4,
            total_gflop: 0.1,
        },
        NasClass::W => Params {
            bcast_bytes: 32 << 10,
            bcasts_per_iter: 8,
            total_gflop: 1.5,
        },
        NasClass::A => Params {
            bcast_bytes: 128 << 10,
            bcasts_per_iter: 12,
            total_gflop: 12.0,
        },
        NasClass::B => Params {
            bcast_bytes: 128 << 10,
            bcasts_per_iter: 18,
            total_gflop: 50.0,
        },
        NasClass::C => Params {
            bcast_bytes: 256 << 10,
            bcasts_per_iter: 24,
            total_gflop: 200.0,
        },
    }
}

pub(crate) async fn run(ctx: &mut RankCtx, class: NasClass, warmup: u32, timed: u32) {
    let prm = params(class);
    let p = ctx.size() as f64;
    let full = crate::run::NasRun::new(crate::run::NasBenchmark::Ft, class).full_iterations();
    let gflop_iter = prm.total_gflop / (full as f64 * p);

    // Setup: initial condition broadcast.
    ctx.bcast(0, prm.bcast_bytes).await;
    ctx.bcast(0, 64).await;

    timed_loop(ctx, warmup, timed, async |ctx, _i| {
        // Evolve + local FFTs.
        ctx.compute_gflop(gflop_iter * 0.7).await;
        // Distributed transpose traffic (the paper's measured bcast
        // profile).
        for _ in 0..prm.bcasts_per_iter {
            ctx.bcast(0, prm.bcast_bytes).await;
        }
        // Checksum reduction.
        ctx.compute_gflop(gflop_iter * 0.3).await;
        ctx.allreduce(16).await;
    })
    .await;
}
