//! LU — SSOR with a 2D pipelined wavefront.
//!
//! For every one of the `nz` k-planes each rank receives the plane's
//! boundary from its north and west neighbours, computes, and forwards to
//! south and east — ~1 kB messages (class B/16: (102/4) × 5 × 8 B ≈
//! 1020 B, Table 2's "960 B < msg < 1040 B"), 1.2 million of them over a
//! full run. The wavefront pipelines across iterations, which is why the
//! paper finds LU performs *well* on the grid despite being the most
//! communication-intensive kernel.

use mpisim::RankCtx;

use crate::decomp::{coords2d, grid2d, rank2d};
use crate::run::{timed_loop, NasClass};

struct Params {
    n: u64,
    total_gflop: f64,
}

fn params(class: NasClass) -> Params {
    match class {
        NasClass::S => Params {
            n: 12,
            total_gflop: 0.5,
        },
        NasClass::W => Params {
            n: 33,
            total_gflop: 6.0,
        },
        NasClass::A => Params {
            n: 64,
            total_gflop: 320.0,
        },
        NasClass::B => Params {
            n: 102,
            total_gflop: 1280.0,
        },
        NasClass::C => Params {
            n: 162,
            total_gflop: 5_100.0,
        },
    }
}

const TAG: u64 = 400;

pub(crate) async fn run(ctx: &mut RankCtx, class: NasClass, warmup: u32, timed: u32) {
    let prm = params(class);
    let p = ctx.size();
    let me = ctx.rank();
    let (rows, cols) = grid2d(p);
    let (row, col) = coords2d(me, cols);
    let north = (row > 0).then(|| rank2d(row - 1, col, cols));
    let south = (row + 1 < rows).then(|| rank2d(row + 1, col, cols));
    let west = (col > 0).then(|| rank2d(row, col - 1, cols));
    let east = (col + 1 < cols).then(|| rank2d(row, col + 1, cols));
    let msg = (prm.n / cols as u64).max(1) * 40; // 5 unknowns × 8 B per cell
    let full_iters = crate::run::NasRun::new(crate::run::NasBenchmark::Lu, class).full_iterations();
    let gflop_iter = prm.total_gflop / (full_iters as f64 * p as f64);
    let plane_gflop = gflop_iter * 0.8 / (2.0 * prm.n as f64);

    timed_loop(ctx, warmup, timed, async |ctx, _i| {
        // RHS assembly (no communication).
        ctx.compute_gflop(gflop_iter * 0.2).await;
        // Lower-triangular sweep: wavefront from the north-west corner.
        for _k in 0..prm.n {
            if let Some(n) = north {
                ctx.recv(n, TAG).await;
            }
            if let Some(w) = west {
                ctx.recv(w, TAG + 1).await;
            }
            ctx.compute_gflop(plane_gflop).await;
            if let Some(s) = south {
                ctx.send(s, msg, TAG).await;
            }
            if let Some(e) = east {
                ctx.send(e, msg, TAG + 1).await;
            }
        }
        // Upper-triangular sweep: wavefront from the south-east corner.
        for _k in 0..prm.n {
            if let Some(s) = south {
                ctx.recv(s, TAG + 2).await;
            }
            if let Some(e) = east {
                ctx.recv(e, TAG + 3).await;
            }
            ctx.compute_gflop(plane_gflop).await;
            if let Some(n) = north {
                ctx.send(n, msg, TAG + 2).await;
            }
            if let Some(w) = west {
                ctx.send(w, msg, TAG + 3).await;
            }
        }
        // Residual norms (5 components).
        ctx.allreduce(40).await;
    })
    .await;
}
