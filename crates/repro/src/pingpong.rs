//! The pingpong experiment of §3.1/§4.1/§4.2: MPI and raw-TCP round trips
//! between two nodes, minimum latency and maximum bandwidth over the
//! iteration set (the paper uses 200 round trips and keeps min/max "to
//! eliminate perturbations due to other Grid'5000 users"; the simulator is
//! deterministic, so a smaller iteration count reaches the same steady
//! state).

use desim::Sim;
use mpisim::MpiImpl;
use netsim::SockBufRequest;

use crate::par::par_map;
use crate::scenario::{min_one_way, pingpong_program, Scenario};
use crate::util::{mbps, Scope, TuningLevel};

/// Stacks compared in Figs. 3/5/6/7 and Table 4.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stack {
    /// The pingpong written directly on TCP sockets.
    RawTcp,
    /// One of the four MPI implementations.
    Mpi(MpiImpl),
}

impl Stack {
    /// All five stacks in the figures' legend order.
    pub const ALL: [Stack; 5] = [
        Stack::RawTcp,
        Stack::Mpi(MpiImpl::Mpich2),
        Stack::Mpi(MpiImpl::GridMpi),
        Stack::Mpi(MpiImpl::MpichMadeleine),
        Stack::Mpi(MpiImpl::OpenMpi),
    ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Stack::RawTcp => "TCP",
            Stack::Mpi(MpiImpl::Mpich2) => "MPICH on TCP",
            Stack::Mpi(MpiImpl::GridMpi) => "GridMPI on TCP",
            Stack::Mpi(MpiImpl::MpichMadeleine) => "MPICH-Madeleine on TCP",
            Stack::Mpi(MpiImpl::OpenMpi) => "OpenMPI on TCP",
            Stack::Mpi(MpiImpl::MpichG2) => "MPICH-G2 on TCP",
            Stack::Mpi(MpiImpl::MpichVmi) => "MPICH-VMI on TCP",
        }
    }
}

/// Result of one pingpong configuration.
#[derive(Clone, Debug)]
pub struct PingpongPoint {
    /// Message size in bytes.
    pub bytes: u64,
    /// Minimum one-way latency over the iterations, seconds.
    pub min_one_way: f64,
    /// Maximum one-way bandwidth over the iterations, Mbps.
    pub max_mbps: f64,
}

/// Run one pingpong: `iters` round trips of `bytes`, returning min one-way
/// latency and max bandwidth.
pub fn pingpong(
    stack: Stack,
    scope: Scope,
    level: TuningLevel,
    bytes: u64,
    iters: u32,
) -> PingpongPoint {
    let best = match stack {
        Stack::RawTcp => {
            let pair = Scenario::raw_pair(scope, level);
            let (a, b) = (pair.placement()[0], pair.placement()[1]);
            raw_tcp_pingpong(pair.network(), a, b, bytes, iters)
                .into_iter()
                .fold(f64::INFINITY, f64::min)
        }
        Stack::Mpi(id) => min_one_way(
            &Scenario::pair(scope, level, id)
                .run(pingpong_program(bytes, iters))
                .expect("pingpong completes"),
        ),
    };
    PingpongPoint {
        bytes,
        min_one_way: best,
        max_mbps: mbps(bytes, best),
    }
}

/// The same pingpong written directly on the simulated sockets: two
/// tasks linked by pre-arranged completion chains (ping arrival wakes the
/// echo; reply arrival wakes the pinger).
fn raw_tcp_pingpong(
    net: netsim::Network,
    a: netsim::NodeId,
    b: netsim::NodeId,
    bytes: u64,
    iters: u32,
) -> Vec<f64> {
    let sim = Sim::new();
    let n = iters as usize;
    let mut ping_tx = Vec::with_capacity(n);
    let mut ping_rx = Vec::with_capacity(n);
    let mut reply_tx = Vec::with_capacity(n);
    let mut reply_rx = Vec::with_capacity(n);
    for _ in 0..n {
        let (t, r) = desim::completion::<()>();
        ping_tx.push(t);
        ping_rx.push(r);
        let (t, r) = desim::completion::<()>();
        reply_tx.push(t);
        reply_rx.push(r);
    }
    let net2 = net.clone();
    sim.spawn_task("echo", move |cx| async move {
        let back = net2.channel(
            b,
            a,
            SockBufRequest::OsDefault,
            SockBufRequest::OsDefault,
            false,
        );
        for (arrived, reply) in ping_rx.into_iter().zip(reply_tx) {
            cx.wait(arrived).await;
            let s = cx.sched();
            net2.transfer_then(&s, back, bytes, move |s2| reply.fire_from(s2, ()));
        }
    });
    let (tx, rx) = desim::completion::<Vec<f64>>();
    let net3 = net.clone();
    sim.spawn_task("pinger", move |cx| async move {
        let fwd = net3.channel(
            a,
            b,
            SockBufRequest::OsDefault,
            SockBufRequest::OsDefault,
            false,
        );
        let mut times = Vec::with_capacity(n);
        for (ping, reply) in ping_tx.into_iter().zip(reply_rx) {
            let t0 = cx.now();
            let s = cx.sched();
            net3.transfer_then(&s, fwd, bytes, move |s2| ping.fire_from(s2, ()));
            cx.wait(reply).await;
            times.push(cx.now().since(t0).as_secs_f64() / 2.0);
        }
        tx.fire_from(&cx.sched(), times);
    });
    sim.run().expect("raw tcp pingpong");
    rx.try_take().ok().expect("times recorded")
}

/// Sweep all stacks over the figure sizes in parallel.
pub fn bandwidth_sweep(
    scope: Scope,
    level: TuningLevel,
    sizes: &[u64],
    iters: u32,
) -> Vec<(Stack, Vec<PingpongPoint>)> {
    let tasks: Vec<(Stack, u64)> = Stack::ALL
        .iter()
        .flat_map(|&stack| sizes.iter().map(move |&bytes| (stack, bytes)))
        .collect();
    let points = par_map(&tasks, |&(stack, bytes)| {
        pingpong(stack, scope, level, bytes, iters)
    });
    Stack::ALL
        .iter()
        .map(|&stack| {
            let pts = tasks
                .iter()
                .zip(&points)
                .filter(|((s, _), _)| *s == stack)
                .map(|(_, p)| p.clone())
                .collect();
            (stack, pts)
        })
        .collect()
}
