#![warn(missing_docs)]

//! # netsim — flow-level network and TCP model
//!
//! A network substrate for the grid MPI study: a parametric grid topology
//! (sites, clusters, NICs, WAN links), a Linux-2.6-era TCP model (slow
//! start, BIC/Reno congestion avoidance, bounded socket buffers, kernel
//! autotuning, slow-start-after-idle, burst-loss at the bottleneck queue,
//! optional software pacing), and a fluid max-min fair bandwidth-sharing
//! engine driven by the [`desim`] discrete-event kernel.
//!
//! The model is *flow-level*: each message transfer is a fluid flow whose
//! instantaneous rate is the max-min fair share of its path, capped by the
//! sender's effective TCP window divided by the path RTT. TCP window state
//! evolves in RTT rounds while a flow is active, which reproduces the
//! slow-start and congestion-avoidance dynamics the paper observes
//! (RR-6200 §4.2.1, §4.2.3, Fig. 9).
//!
//! ```
//! use desim::Sim;
//! use netsim::{Network, Topology, SockBufRequest};
//!
//! // Two nodes in one cluster, 1 Gbps NICs.
//! let mut topo = Topology::new();
//! let site = topo.add_site("lyon", netsim::SiteParams::default());
//! let a = topo.add_node(site, netsim::NodeParams::default());
//! let b = topo.add_node(site, netsim::NodeParams::default());
//! let net = Network::new(topo);
//!
//! let sim = Sim::new();
//! let net2 = net.clone();
//! sim.spawn_task("sender", move |cx| async move {
//!     let ch = net2.channel(a, b, SockBufRequest::OsDefault, SockBufRequest::OsDefault, false);
//!     let done = net2.transfer(&cx.sched(), ch, 1_000_000);
//!     cx.wait(done).await;
//!     assert!(cx.now().as_micros() > 8000); // ~8 ms at 1 Gbps
//! });
//! sim.run().unwrap();
//! ```

mod config;
mod flow;
mod grid5000;
mod network;
mod tcp;
mod topology;

pub use config::{CongestionControl, KernelConfig, SockBufRequest};
pub use flow::ChannelId;
pub use grid5000::{
    grid5000_four_sites, grid5000_pair, grid5000_pair_with_queue, Grid5000Site, GRID5000_RTT_MS,
};
pub use network::Network;
pub use tcp::{TcpParams, TcpPhase, TcpState};
pub use topology::{
    FastLanParams, LinkId, NodeId, NodeParams, Path, SiteId, SiteParams, Topology, GIGABIT_GOODPUT,
};
