//! Shared helpers for the std-only benchmark harness (`src/main.rs`).

use mpisim::{MpiImpl, MpiJob, RankCtx, Tuning};
use netsim::{grid5000_pair, KernelConfig, Network, NodeId};

pub mod compare;

/// Build the tuned two-site testbed with `n` nodes per site.
pub fn tuned_pair(n: usize) -> (Network, Vec<NodeId>, Vec<NodeId>) {
    let (mut topo, rn, nn) = grid5000_pair(n);
    topo.set_kernel_all(KernelConfig::tuned(4 << 20));
    (Network::new(topo), rn, nn)
}

/// A tuned MPI job across the WAN with `ranks` split evenly.
pub fn grid_job(ranks: usize, id: MpiImpl) -> MpiJob {
    let (net, rn, nn) = tuned_pair(ranks.div_ceil(2));
    let mut placement: Vec<NodeId> = rn.into_iter().take(ranks / 2).collect();
    placement.extend(nn.into_iter().take(ranks - ranks / 2));
    MpiJob::new(net, placement, id).with_tuning(Tuning::paper_tuned(id))
}

/// Ring exchange at rank scale: `ranks` ranks placed in contiguous blocks
/// across an 8+8-node testbed, each exchanging `rounds` 1 kB messages with
/// its ring neighbours. Block placement keeps most edges node-local
/// (loopback), so the measurement is dominated by per-MPI-call kernel
/// overhead rather than by the fluid model recomputing thousands of
/// concurrent WAN flows. Returns the deterministic wire-message count.
pub fn ping_ring(ranks: usize, rounds: u32) -> u64 {
    let (net, rn, nn) = tuned_pair(8);
    let nodes: Vec<NodeId> = rn.into_iter().chain(nn).collect();
    let placement: Vec<NodeId> = (0..ranks)
        .map(|r| nodes[r * nodes.len() / ranks.max(nodes.len())])
        .collect();
    let report = MpiJob::new(net, placement, MpiImpl::Mpich2)
        .with_tuning(Tuning::paper_tuned(MpiImpl::Mpich2))
        .run(move |mut ctx: RankCtx| async move {
            const TAG: u64 = 7;
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for _ in 0..rounds {
                ctx.sendrecv(right, 1024, left, TAG).await;
            }
        })
        .expect("ring completes");
    report.stats.wire_messages
}

/// `iters` grid pingpong round trips; returns the deterministic
/// wire-message count.
pub fn pingpong_once(id: MpiImpl, bytes: u64, iters: u32) -> u64 {
    let report = grid_job(2, id)
        .run(move |mut ctx: RankCtx| async move {
            const TAG: u64 = 1;
            for _ in 0..iters {
                if ctx.rank() == 0 {
                    ctx.send(1, bytes, TAG).await;
                    ctx.recv(1, TAG).await;
                } else {
                    ctx.recv(0, TAG).await;
                    ctx.send(0, bytes, TAG).await;
                }
            }
        })
        .expect("pingpong completes");
    report.stats.wire_messages
}
