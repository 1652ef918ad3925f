//! Typed execution configuration: whether the run is sharded by site over
//! a conservative-PDES driver, and which collective algorithms run.
//!
//! `ExecConfig` is the single front door for knobs that used to be spread
//! over builder methods and ad-hoc environment-variable reads; the
//! library reads no environment variable. Netsim-only callers set the
//! fast path with `Network::set_bulk_fast_path`.

use desim::SimDuration;
use netsim::{Network, NodeId, SiteId};

use crate::collectives::CollConfig;

/// Typed execution configuration for an [`crate::MpiJob`] (or a
/// `repro`-level scenario). `None` fields keep the built-in default (or,
/// for `fast_path`, the network's own setting).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecConfig {
    /// `Some(n)`: partition the world by site and, when that gives two
    /// or more groups, run them on the sharded conservative-PDES driver
    /// with `n` worker threads (the shard *count* is fixed by the
    /// partition; `n` only sets how many windows run concurrently). The
    /// program promises site-disjoint link usage: every *directed*
    /// network link carries flows of at most one site's group. The world
    /// audits that promise at channel creation and panics on a violation.
    /// A one-site job runs on the plain kernel, exactly as with `None`.
    pub shards: Option<u32>,
    /// Force the closed-form bulk-transfer fast path on or off. `None`:
    /// leave the network's setting (on unless
    /// `Network::set_bulk_fast_path(false)` was called).
    pub fast_path: Option<bool>,
    /// Collective-algorithm selection table. The default (all
    /// `ProfileDefault`) keeps the implementation profile's own dispatch
    /// and leaves every existing digest bit-identical.
    pub coll: CollConfig,
}

impl ExecConfig {
    /// The all-default configuration: unsharded, the network's own
    /// fast-path setting.
    pub fn new() -> ExecConfig {
        ExecConfig::default()
    }

    /// Partition by site and run on the PDES driver with `n` worker
    /// threads.
    pub fn shards(mut self, n: u32) -> ExecConfig {
        self.shards = Some(n);
        self
    }

    /// Force the bulk fast path on or off.
    pub fn fast_path(mut self, on: bool) -> ExecConfig {
        self.fast_path = Some(on);
        self
    }

    /// Pin collective algorithms per (op × size class).
    pub fn coll(mut self, coll: CollConfig) -> ExecConfig {
        self.coll = coll;
        self
    }
}

/// Rank → site-group index. Group indices are dense, in order of first
/// appearance along the placement (matching `WorldInner::site_groups`),
/// so the partition is reproducible from the placement alone and never
/// depends on the worker count.
pub(crate) fn partition(net: &Network, placement: &[NodeId]) -> Vec<usize> {
    let mut sites: Vec<SiteId> = Vec::new();
    placement
        .iter()
        .map(|&node| {
            let s = net.site_of(node);
            match sites.iter().position(|&x| x == s) {
                Some(i) => i,
                None => {
                    sites.push(s);
                    sites.len() - 1
                }
            }
        })
        .collect()
}

/// Conservative lookahead for a partition of two or more groups: the
/// minimum one-way latency (`rtt / 2`) over all cross-group rank pairs.
/// Any cross-group effect posted at local time `t` lands at
/// `≥ t + lookahead`, which is the correctness condition of the windowed
/// driver. O(n²) `rtt` queries, so only the sharded path calls it.
pub(crate) fn lookahead(net: &Network, placement: &[NodeId], groups: &[usize]) -> SimDuration {
    let mut min = SimDuration::MAX;
    for (i, &a) in placement.iter().enumerate() {
        for (j, &b) in placement.iter().enumerate() {
            if groups[i] != groups[j] {
                min = min.min(SimDuration::from_nanos(net.rtt(a, b).as_nanos() / 2));
            }
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{grid5000_pair, Network};

    #[test]
    fn one_site_is_one_group() {
        let (topo, a, _) = grid5000_pair(3);
        let net = Network::new(topo);
        assert_eq!(partition(&net, &[a[2], a[0], a[1]]), vec![0, 0, 0]);
    }

    #[test]
    fn site_disjoint_groups_by_site_in_first_appearance_order() {
        let (topo, a, b) = grid5000_pair(2);
        let net = Network::new(topo);
        let placement = vec![b[0], a[0], b[1], a[1]];
        assert_eq!(partition(&net, &placement), vec![0, 1, 0, 1]);
    }

    #[test]
    fn lookahead_is_min_cross_group_one_way() {
        let (topo, a, b) = grid5000_pair(1);
        let net = Network::new(topo);
        let placement = vec![a[0], b[0]];
        let groups = partition(&net, &placement);
        let la = lookahead(&net, &placement, &groups);
        let rtt = net.rtt(a[0], b[0]);
        assert_eq!(la.as_nanos(), rtt.as_nanos() / 2);
    }
}
