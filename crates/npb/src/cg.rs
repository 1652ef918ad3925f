//! CG — conjugate gradient on a 2D processor grid.
//!
//! Per inner CG iteration each rank exchanges its vector segment with its
//! transpose partner (class B/16: 75 000/4 × 8 B ≈ 150 kB — the paper's
//! "147 kB" messages), sums partial mat-vec results along its processor
//! row, and participates in two 8 B dot-product reductions — the
//! `126 479 × 8 B + 86 944 × 147 kB` profile of Table 2. Small messages ×
//! high WAN latency is why the paper finds CG among the worst grid
//! performers.

use mpisim::RankCtx;

use crate::decomp::{coords2d, grid2d, rank2d};
use crate::run::{timed_loop, NasClass};

struct Params {
    na: u64,
    inner: u32,
    total_gflop: f64,
}

fn params(class: NasClass) -> Params {
    match class {
        NasClass::S => Params {
            na: 1_400,
            inner: 25,
            total_gflop: 0.5,
        },
        NasClass::W => Params {
            na: 7_000,
            inner: 25,
            total_gflop: 3.0,
        },
        NasClass::A => Params {
            na: 14_000,
            inner: 25,
            total_gflop: 30.0,
        },
        NasClass::B => Params {
            na: 75_000,
            inner: 25,
            total_gflop: 220.0,
        },
        NasClass::C => Params {
            na: 150_000,
            inner: 25,
            total_gflop: 900.0,
        },
    }
}

const TAG: u64 = 200;

pub(crate) async fn run(ctx: &mut RankCtx, class: NasClass, warmup: u32, timed: u32) {
    let prm = params(class);
    let p = ctx.size();
    let me = ctx.rank();
    let (rows, cols) = grid2d(p);
    let (row, col) = coords2d(me, cols);
    let seg_bytes = prm.na / cols as u64 * 8;
    // Transpose partner (square grids); degenerate grids pair across the
    // middle.
    let transpose = if rows == cols {
        rank2d(col, row, cols)
    } else {
        (me + p / 2) % p
    };
    let full_iters = crate::run::NasRun::new(crate::run::NasBenchmark::Cg, class).full_iterations();
    let gflop_per_inner = prm.total_gflop / (full_iters as f64 * prm.inner as f64 * p as f64);

    timed_loop(ctx, warmup, timed, async |ctx, _i| {
        for _ in 0..prm.inner {
            ctx.compute_gflop(gflop_per_inner).await;
            // Mat-vec transpose exchange.
            if transpose != me {
                ctx.sendrecv(transpose, seg_bytes, transpose, TAG).await;
            }
            // Partial-sum reduction along the processor row.
            let mut k = 1;
            while k < cols {
                let partner = rank2d(row, col ^ k, cols);
                ctx.sendrecv(partner, seg_bytes, partner, TAG + 1).await;
                k <<= 1;
            }
            // Dot-product reduction (rho): an 8 B butterfly. (The second
            // dot product of the textbook algorithm is folded into the
            // row sum above, matching the ~126 000 small messages the
            // paper's Table 2 counts at class B/16.)
            let mut k = 1;
            while k < p {
                let partner = me ^ k;
                ctx.sendrecv(partner, 8, partner, TAG + 2).await;
                k <<= 1;
            }
        }
        // Residual norm at the end of the outer iteration.
        ctx.allreduce(8).await;
    })
    .await;
}
