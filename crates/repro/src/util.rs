//! Shared experiment plumbing: tuning levels, experiment scopes,
//! formatting.

use mpisim::{MpiImpl, Tuning};
use netsim::KernelConfig;

/// The three configurations the paper walks through in §4.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TuningLevel {
    /// Out-of-the-box kernels and MPI defaults (Fig. 3/5).
    Default,
    /// Kernel socket-buffer tuning to 4 MB, GridMPI middle value raised,
    /// OpenMPI `-mca btl_tcp_sndbuf/rcvbuf` (Fig. 6).
    TcpTuned,
    /// TCP tuning plus the ideal eager/rendezvous thresholds of Table 5
    /// (Fig. 7 and the NPB/application experiments).
    FullyTuned,
}

impl TuningLevel {
    /// Kernel configuration for all nodes when running `impl_id`.
    pub fn kernel(self, impl_id: Option<MpiImpl>) -> KernelConfig {
        match self {
            TuningLevel::Default => KernelConfig::untuned_2007(),
            _ => {
                if impl_id == Some(MpiImpl::GridMpi) {
                    // §4.2.1: GridMPI pins the kernel-default size, so the
                    // middle value of the triple must be raised too.
                    KernelConfig::tuned_with_default(4 << 20, 4 << 20)
                } else {
                    KernelConfig::tuned(4 << 20)
                }
            }
        }
    }

    /// MPI-level tuning overrides when running `impl_id`.
    pub fn tuning(self, impl_id: MpiImpl) -> Tuning {
        match self {
            TuningLevel::Default => Tuning::none(),
            TuningLevel::TcpTuned => Tuning {
                eager_threshold: None,
                socket_buffer: if impl_id == MpiImpl::OpenMpi {
                    Some(4 << 20)
                } else {
                    None
                },
            },
            TuningLevel::FullyTuned => Tuning::paper_tuned(impl_id),
        }
    }

    /// Label used in output headers.
    pub fn label(self) -> &'static str {
        match self {
            TuningLevel::Default => "default parameters",
            TuningLevel::TcpTuned => "after TCP tuning",
            TuningLevel::FullyTuned => "after TCP tuning and MPI optimizations",
        }
    }
}

/// Where a two-endpoint experiment runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// Two nodes of the Rennes cluster (PR1, PR2 in Fig. 2).
    Cluster,
    /// One node in Rennes, one in Nancy (PR1, PN1).
    Grid,
}

/// The pingpong message sizes of Fig. 3/5/6/7 (1 kB … 64 MB).
pub fn fig_sizes() -> Vec<u64> {
    (10..=26).map(|k| 1u64 << k).collect()
}

/// Human size label (1k, 2k, … 64M) as on the paper's x axes.
pub fn size_label(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}k", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

/// One-way bandwidth in Mbps from a message size and a one-way time.
pub fn mbps(bytes: u64, one_way_secs: f64) -> f64 {
    bytes as f64 * 8.0 / one_way_secs / 1e6
}
