//! The jobs the `bench` binary times (`src/main.rs`), each returning its
//! deterministic work count, and the `bench compare` diff. The count
//! table in `tests/counts.rs` pins every count exactly.

use std::hint::black_box;
use std::sync::Arc;

use desim::{completion, HostProfiler, Obs, Sim, SimDuration};
use mpisim::{MpiImpl, MpiJob, RankCtx, Tuning};
use netsim::{grid5000_pair, KernelConfig, Network, NodeId};

pub mod compare;

/// A benchmark job: runs once and returns its deterministic work count.
pub type Job = fn() -> u64;

/// The `kernel` group: desim event throughput and task hand-off cost.
/// Each job returns the kernel events it dispatched.
pub const KERNEL_JOBS: [(&str, Job); 3] = [
    ("kernel/10k_timers_one_process", kernel_timers),
    ("kernel/1k_completion_handoffs", kernel_handoffs),
    ("kernel/32_processes_round_robin", kernel_round_robin),
];

/// One task advancing its clock 10 000 times.
pub fn kernel_timers() -> u64 {
    let sim = Sim::new();
    sim.spawn_task("timers", |cx| async move {
        for _ in 0..10_000 {
            cx.advance(SimDuration::from_nanos(black_box(17))).await;
        }
    });
    sim.run_counted().unwrap().events
}

/// A producer firing 1 000 completions that a consumer waits on in turn.
pub fn kernel_handoffs() -> u64 {
    let sim = Sim::new();
    let n = 1_000;
    let mut txs = Vec::new();
    let mut rxs = Vec::new();
    for _ in 0..n {
        let (t, r) = completion::<u32>();
        txs.push(t);
        rxs.push(r);
    }
    sim.spawn_task("producer", move |cx| async move {
        let s = cx.sched();
        for tx in txs {
            cx.advance(SimDuration::from_nanos(5)).await;
            tx.fire_from(&s, 1);
        }
    });
    sim.spawn_task("consumer", move |cx| async move {
        let mut acc = 0u32;
        for rx in rxs {
            acc += cx.wait(rx).await;
        }
        assert_eq!(acc, n as u32);
    });
    sim.run_counted().unwrap().events
}

/// 32 tasks yielding 100 times each, round robin.
pub fn kernel_round_robin() -> u64 {
    let sim = Sim::new();
    for i in 0..32 {
        sim.spawn_task(format!("p{i}"), |cx| async move {
            for _ in 0..100 {
                cx.yield_now().await;
            }
        });
    }
    sim.run_counted().unwrap().events
}

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

/// The `profile` group's job: 8 round trips of 64 MB across the WAN,
/// with `prof` attached across the whole stack (kernel dispatch, netsim
/// settle, mpisim job phases) when given. Returns the wire messages.
pub fn profile_pingpong(prof: Option<Arc<HostProfiler>>) -> u64 {
    let mut job = grid_job(2, MpiImpl::Mpich2);
    if let Some(prof) = prof {
        job = job.with_obs(Obs::none().profiler(prof));
    }
    let report = job
        .run(move |mut ctx: RankCtx| async move {
            const TAG: u64 = 1;
            // 8 round trips: enough steady-state work that the one-time
            // profiler attach (key interning, link labels) is measured at
            // its amortized share, which is what the overhead gate is
            // about.
            for _ in 0..8 {
                if ctx.rank() == 0 {
                    ctx.send(1, 64 << 20, TAG).await;
                    ctx.recv(1, TAG).await;
                } else {
                    ctx.recv(0, TAG).await;
                    ctx.send(0, 64 << 20, TAG).await;
                }
            }
        })
        .expect("pingpong completes");
    report.stats.wire_messages
}
