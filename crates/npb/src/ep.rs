//! EP — embarrassingly parallel.
//!
//! Generates pairs of Gaussian deviates and tallies them; communication is
//! limited to three tiny reductions at the end (Table 2: `192 × 8 B +
//! 68 × 80 B` — per rank a handful of 8 B and 80 B messages).

use mpisim::RankCtx;

use crate::run::{timed_loop, NasClass};

/// Effective compute for the whole benchmark, Gflop (memory-bound rates
/// folded in; see DESIGN.md §4).
fn total_gflop(class: NasClass) -> f64 {
    match class {
        NasClass::S => 0.5,
        NasClass::W => 10.0,
        NasClass::A => 75.0,
        NasClass::B => 300.0,
        NasClass::C => 1_200.0,
    }
}

const TAG: u64 = 100;

pub(crate) async fn run(ctx: &mut RankCtx, class: NasClass, warmup: u32, timed: u32) {
    let p = ctx.size() as f64;
    let work = total_gflop(class) / p;
    timed_loop(ctx, warmup, timed, async |ctx, _i| {
        ctx.compute_gflop(work).await;
        // sx, sy sums and the 10-bin deviate counts (80 B).
        ctx.allreduce(8).await;
        ctx.allreduce(8).await;
        ctx.allreduce(80).await;
    })
    .await;
    // Verification gather of per-rank counts.
    if ctx.rank() == 0 {
        for src in 1..ctx.size() {
            ctx.recv(src, TAG).await;
        }
    } else {
        ctx.send(0, 80, TAG).await;
    }
}
