//! BT and SP — ADI (alternating-direction implicit) solvers.
//!
//! Both exchange large cell faces with their 2D-torus neighbours every
//! iteration (`copy_faces` plus the x/y/z line-solve substitutions). The
//! per-iteration schedules reproduce the Table 2 volumes at class B/16:
//! BT ≈ 15 messages of ~150 kB + 9 of 26 kB per rank per iteration, SP the
//! 45–54 kB / 100–160 kB mix. Big messages tolerate the WAN latency well —
//! the paper's Fig. 12/13 show BT and SP close to cluster performance —
//! but their size pushes them into rendezvous mode for untuned thresholds.

use mpisim::RankCtx;

use crate::decomp::{coords2d, grid2d, rank2d};
use crate::run::{timed_loop, NasClass};

struct Params {
    big_bytes: u64,
    big_rounds: u32,
    med_bytes: u64,
    med_rounds: u32,
    total_gflop: f64,
}

fn bt_params(class: NasClass) -> Params {
    match class {
        NasClass::S => Params {
            big_bytes: 8 << 10,
            big_rounds: 4,
            med_bytes: 2 << 10,
            med_rounds: 2,
            total_gflop: 2.0,
        },
        NasClass::W => Params {
            big_bytes: 12 << 10,
            big_rounds: 4,
            med_bytes: 2 << 10,
            med_rounds: 2,
            total_gflop: 30.0,
        },
        NasClass::A => Params {
            big_bytes: 38 << 10,
            big_rounds: 4,
            med_bytes: 7 << 10,
            med_rounds: 2,
            total_gflop: 700.0,
        },
        NasClass::B => Params {
            big_bytes: 150 << 10,
            big_rounds: 4,
            med_bytes: 26 << 10,
            med_rounds: 2,
            total_gflop: 2900.0,
        },
        NasClass::C => Params {
            big_bytes: 380 << 10,
            big_rounds: 4,
            med_bytes: 66 << 10,
            med_rounds: 2,
            total_gflop: 11_500.0,
        },
    }
}

fn sp_params(class: NasClass) -> Params {
    match class {
        NasClass::S => Params {
            big_bytes: 7 << 10,
            big_rounds: 4,
            med_bytes: 3 << 10,
            med_rounds: 2,
            total_gflop: 1.5,
        },
        NasClass::W => Params {
            big_bytes: 10 << 10,
            big_rounds: 4,
            med_bytes: 4 << 10,
            med_rounds: 2,
            total_gflop: 25.0,
        },
        NasClass::A => Params {
            big_bytes: 33 << 10,
            big_rounds: 4,
            med_bytes: 13 << 10,
            med_rounds: 2,
            total_gflop: 420.0,
        },
        NasClass::B => Params {
            big_bytes: 130 << 10,
            big_rounds: 4,
            med_bytes: 50 << 10,
            med_rounds: 2,
            total_gflop: 2600.0,
        },
        NasClass::C => Params {
            big_bytes: 330 << 10,
            big_rounds: 4,
            med_bytes: 125 << 10,
            med_rounds: 2,
            total_gflop: 10_000.0,
        },
    }
}

const TAG: u64 = 500;

async fn run_adi(ctx: &mut RankCtx, prm: Params, full_iters: u32, warmup: u32, timed: u32) {
    let p = ctx.size();
    let me = ctx.rank();
    let (rows, cols) = grid2d(p);
    let (row, col) = coords2d(me, cols);
    // 2D torus neighbours (self-loops collapse for degenerate dims).
    let mut nbrs: Vec<(usize, usize)> = Vec::new();
    if rows > 1 {
        nbrs.push((
            rank2d((row + 1) % rows, col, cols),
            rank2d((row + rows - 1) % rows, col, cols),
        ));
    }
    if cols > 1 {
        nbrs.push((
            rank2d(row, (col + 1) % cols, cols),
            rank2d(row, (col + cols - 1) % cols, cols),
        ));
    }
    let gflop_iter = prm.total_gflop / (full_iters as f64 * p as f64);

    // All faces of one round are posted at once (the ADI solvers overlap
    // their neighbour exchanges), so a round costs one WAN latency, not
    // four.
    let exchange = async |ctx: &mut RankCtx, nbrs: &[(usize, usize)], bytes: u64, tag: u64| {
        let mut reqs = Vec::with_capacity(4 * nbrs.len());
        for &(plus, minus) in nbrs {
            reqs.push(ctx.irecv(minus, tag));
            reqs.push(ctx.irecv(plus, tag));
        }
        for &(plus, minus) in nbrs {
            reqs.push(ctx.isend(plus, bytes, tag).await);
            reqs.push(ctx.isend(minus, bytes, tag).await);
        }
        ctx.waitall(reqs).await;
    };
    timed_loop(ctx, warmup, timed, async |ctx, _i| {
        // copy_faces + forward substitutions: big faces both ways on both
        // torus dimensions, interleaved with compute thirds.
        for r in 0..prm.big_rounds {
            if r == 0 || r == prm.big_rounds / 2 {
                ctx.compute_gflop(gflop_iter * 0.4).await;
            }
            exchange(ctx, &nbrs, prm.big_bytes, TAG).await;
        }
        // Back substitutions: medium blocks.
        ctx.compute_gflop(gflop_iter * 0.2).await;
        for _ in 0..prm.med_rounds {
            exchange(ctx, &nbrs, prm.med_bytes, TAG + 1).await;
        }
    })
    .await;
}

pub(crate) async fn run_bt(ctx: &mut RankCtx, class: NasClass, warmup: u32, timed: u32) {
    let full = crate::run::NasRun::new(crate::run::NasBenchmark::Bt, class).full_iterations();
    run_adi(ctx, bt_params(class), full, warmup, timed).await;
}

pub(crate) async fn run_sp(ctx: &mut RankCtx, class: NasClass, warmup: u32, timed: u32) {
    let full = crate::run::NasRun::new(crate::run::NasBenchmark::Sp, class).full_iterations();
    run_adi(ctx, sp_params(class), full, warmup, timed).await;
}
