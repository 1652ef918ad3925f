#![warn(missing_docs)]

//! # mpisim — an MPI runtime model over the `netsim` substrate
//!
//! Models the MPI layer of the paper's experimental stack: blocking and
//! nonblocking point-to-point with the eager/rendezvous protocol split of
//! Fig. 4, the collectives used by the NAS Parallel Benchmarks, and — the
//! heart of the study — **per-implementation behaviour profiles** for
//! MPICH2, GridMPI, MPICH-Madeleine and OpenMPI (software overheads,
//! eager thresholds, socket policies, pacing, collective algorithms,
//! failure modes).
//!
//! ```
//! use desim::SimDuration;
//! use mpisim::{MpiImpl, MpiJob};
//! use netsim::{grid5000_pair, Network};
//!
//! // 1-rank-per-site pingpong, Rennes <-> Nancy, MPICH2 defaults.
//! let (topo, rennes, nancy) = grid5000_pair(1);
//! let job = MpiJob::new(
//!     Network::new(topo),
//!     vec![rennes[0], nancy[0]],
//!     MpiImpl::Mpich2,
//! );
//! let report = job
//!     .run(|mut ctx: mpisim::RankCtx| async move {
//!         const TAG: u64 = 1;
//!         if ctx.rank() == 0 {
//!             ctx.send(1, 1, TAG).await;
//!             ctx.recv(1, TAG).await;
//!         } else {
//!             ctx.recv(0, TAG).await;
//!             ctx.send(0, 1, TAG).await;
//!         }
//!     })
//!     .unwrap();
//! // One 1-byte round trip across the 11.6 ms WAN ≈ 11.6 ms + overheads.
//! assert!(report.elapsed > SimDuration::from_millis(11));
//! assert!(report.elapsed < SimDuration::from_millis(13));
//! ```

mod collectives;
mod comm;
mod error;
mod exec;
mod launcher;
mod profile;
mod rank;
mod stats;
pub mod trace;
mod world;

pub use collectives::{CollAlgo, CollConfig, CollOp, CollSel, SizeClass};
pub use comm::SubComm;
pub use desim::fault::{FaultEvent, FaultKind, FaultPlan};
pub use desim::obs::Obs;
pub use error::{FaultPolicy, MpiError};
pub use exec::{CommPattern, ExecConfig};
pub use launcher::{MpiJob, MpiProgram, RunReport};
pub use profile::{
    AllreduceAlgo, BcastAlgo, CollectiveSuite, ImplProfile, MpiImpl, SocketPolicy, Tuning,
};
pub use rank::{RankCtx, Request};
pub use stats::CommStats;
pub use world::{MsgInfo, CTRL_BYTES, HEADER_BYTES};
