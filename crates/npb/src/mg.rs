//! MG — V-cycle multigrid with 3D halo exchanges.
//!
//! Message sizes span the whole range the paper notes ("various sizes from
//! 4 B to 130 kB", Table 2): faces of the 256³ class-B grid shrink by 4×
//! per level on the way down the V-cycle.

use mpisim::RankCtx;

use crate::decomp::{coords3d, grid3d, rank3d};
use crate::run::{timed_loop, NasClass};

struct Params {
    n: u64,
    total_gflop: f64,
}

fn params(class: NasClass) -> Params {
    match class {
        NasClass::S => Params {
            n: 32,
            total_gflop: 0.1,
        },
        NasClass::W => Params {
            n: 128,
            total_gflop: 2.0,
        },
        NasClass::A => Params {
            n: 256,
            total_gflop: 45.0,
        },
        NasClass::B => Params {
            n: 256,
            total_gflop: 230.0,
        },
        NasClass::C => Params {
            n: 512,
            total_gflop: 1_000.0,
        },
    }
}

const TAG: u64 = 300;

pub(crate) async fn run(ctx: &mut RankCtx, class: NasClass, warmup: u32, timed: u32) {
    let prm = params(class);
    let p = ctx.size();
    let me = ctx.rank();
    let (px, py, pz) = grid3d(p);
    let (x, y, z) = coords3d(me, px, py);
    // Levels down to a 4³ coarse grid.
    let levels: u32 = prm.n.ilog2() - 1;
    let full_iters = crate::run::NasRun::new(crate::run::NasBenchmark::Mg, class).full_iterations();
    // Volume-weighted compute: level k has (n >> k)³ points.
    let total_vol: f64 = (0..levels).map(|k| ((prm.n >> k) as f64).powi(3)).sum();
    let gflop_iter = prm.total_gflop / (full_iters as f64 * p as f64);

    // Periodic neighbours per dimension.
    let nbrs = [
        (
            px,
            rank3d((x + 1) % px, y, z, px, py),
            rank3d((x + px - 1) % px, y, z, px, py),
        ),
        (
            py,
            rank3d(x, (y + 1) % py, z, px, py),
            rank3d(x, (y + py - 1) % py, z, px, py),
        ),
        (
            pz,
            rank3d(x, y, (z + 1) % pz, px, py),
            rank3d(x, y, (z + pz - 1) % pz, px, py),
        ),
    ];
    let pdims = [px as u64, py as u64, pz as u64];

    let halo = async |ctx: &mut RankCtx, level: u32| {
        let n_k = (prm.n >> level).max(4);
        // Local extents at this level.
        let lx = (n_k / pdims[0]).max(1);
        let ly = (n_k / pdims[1]).max(1);
        let lz = (n_k / pdims[2]).max(1);
        let faces = [ly * lz * 8, lx * lz * 8, lx * ly * 8];
        for (d, &(pd, plus, minus)) in nbrs.iter().enumerate() {
            if pd > 1 {
                ctx.sendrecv(plus, faces[d], minus, TAG + d as u64).await;
                ctx.sendrecv(minus, faces[d], plus, TAG + d as u64).await;
            }
        }
    };

    timed_loop(ctx, warmup, timed, async |ctx, _i| {
        // Down sweep: restrict.
        for k in 0..levels {
            let vol = ((prm.n >> k) as f64).powi(3);
            ctx.compute_gflop(gflop_iter * 0.5 * vol / total_vol).await;
            halo(ctx, k).await;
        }
        // Up sweep: prolongate + smooth.
        for k in (0..levels).rev() {
            let vol = ((prm.n >> k) as f64).powi(3);
            ctx.compute_gflop(gflop_iter * 0.5 * vol / total_vol).await;
            halo(ctx, k).await;
        }
        // Residual norm.
        ctx.allreduce(8).await;
    })
    .await;
}
