//! Typed execution configuration: whether the run is sharded over a
//! conservative-PDES driver, how the world may be partitioned, and which
//! collective algorithms run.
//!
//! `ExecConfig` is the single front door for knobs that used to be spread
//! over builder methods and ad-hoc environment-variable reads; the
//! library reads no environment variable. Netsim-only callers set the
//! fast path with `Network::set_bulk_fast_path`.

use desim::SimDuration;
use netsim::{Network, NodeId, SiteId};

use crate::collectives::CollConfig;

/// How the job's communication may be partitioned across PDES shards.
///
/// The partition is a pure function of `(topology, placement, pattern)` —
/// deliberately independent of the shard (worker) count, so the observed
/// event stream and digests are bit-identical for any `shards` value.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CommPattern {
    /// No structural guarantee: any rank may talk to any rank, collectives
    /// included. The whole world forms one logical group; `shards > 1`
    /// buys no parallelism but stays correct. The safe default.
    #[default]
    General,
    /// The program promises site-disjoint link usage: every *directed*
    /// network link carries flows of at most one site's group (intra-site
    /// traffic plus cross-site flows whose channels the group owns). One
    /// logical group per rank-bearing site. The world audits the promise
    /// at channel creation and panics on a violation — a wrong pattern is
    /// a bug, not a slow path.
    SiteDisjoint,
}

/// Typed execution configuration for an [`crate::MpiJob`] (or a
/// `repro`-level scenario). `None` fields keep the built-in default (or,
/// for `fast_path`, the network's own setting).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecConfig {
    /// `Some(n)`: run on the sharded conservative-PDES driver with `n`
    /// worker threads (shard *count* is fixed by the partition; `n` only
    /// sets how many windows run concurrently). `None`: the classic
    /// single-queue kernel, byte-identical to the pre-PDES code path.
    pub shards: Option<u32>,
    /// Force the closed-form bulk-transfer fast path on or off. `None`:
    /// leave the network's setting (on unless
    /// `Network::set_bulk_fast_path(false)` was called).
    pub fast_path: Option<bool>,
    /// Partition rule used when `shards` is set.
    pub pattern: CommPattern,
    /// Collective-algorithm selection table. The default (all
    /// `ProfileDefault`) keeps the implementation profile's own dispatch
    /// and leaves every existing digest bit-identical.
    pub coll: CollConfig,
}

impl ExecConfig {
    /// The all-default configuration: classic kernel, the network's own
    /// fast-path setting.
    pub fn new() -> ExecConfig {
        ExecConfig::default()
    }

    /// Run on the PDES driver with `n` worker threads.
    pub fn shards(mut self, n: u32) -> ExecConfig {
        self.shards = Some(n);
        self
    }

    /// Force the bulk fast path on or off.
    pub fn fast_path(mut self, on: bool) -> ExecConfig {
        self.fast_path = Some(on);
        self
    }

    /// Set the partition rule.
    pub fn pattern(mut self, pattern: CommPattern) -> ExecConfig {
        self.pattern = pattern;
        self
    }

    /// Pin collective algorithms per (op × size class).
    pub fn coll(mut self, coll: CollConfig) -> ExecConfig {
        self.coll = coll;
        self
    }
}

/// Rank → logical-group index for the given pattern. Group indices are
/// dense, in order of first appearance along the placement (matching
/// `WorldInner::site_groups`), so the partition is reproducible from the
/// placement alone.
pub(crate) fn partition(net: &Network, placement: &[NodeId], pattern: CommPattern) -> Vec<usize> {
    match pattern {
        CommPattern::General => vec![0; placement.len()],
        CommPattern::SiteDisjoint => {
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
    }
}

/// Conservative lookahead for the partition: the minimum one-way latency
/// (`rtt / 2`) over all cross-group rank pairs. Any cross-group effect
/// posted at local time `t` lands at `≥ t + lookahead`, which is the
/// correctness condition of the windowed driver. `None` when the
/// partition has a single group (no cross-group pairs).
pub(crate) fn lookahead(
    net: &Network,
    placement: &[NodeId],
    groups: &[usize],
) -> Option<SimDuration> {
    let mut min: Option<SimDuration> = None;
    for (i, &a) in placement.iter().enumerate() {
        for (j, &b) in placement.iter().enumerate() {
            if groups[i] == groups[j] {
                continue;
            }
            let one_way = SimDuration::from_nanos(net.rtt(a, b).as_nanos() / 2);
            min = Some(match min {
                Some(m) => m.min(one_way),
                None => one_way,
            });
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{grid5000_pair, Network};

    #[test]
    fn general_is_one_group() {
        let (topo, a, b) = grid5000_pair(2);
        let net = Network::new(topo);
        let placement = vec![a[0], a[1], b[0], b[1]];
        assert_eq!(
            partition(&net, &placement, CommPattern::General),
            vec![0, 0, 0, 0]
        );
    }

    #[test]
    fn site_disjoint_groups_by_site_in_first_appearance_order() {
        let (topo, a, b) = grid5000_pair(2);
        let net = Network::new(topo);
        let placement = vec![b[0], a[0], b[1], a[1]];
        let groups = partition(&net, &placement, CommPattern::SiteDisjoint);
        assert_eq!(groups, vec![0, 1, 0, 1]);
    }

    #[test]
    fn lookahead_is_min_cross_group_one_way() {
        let (topo, a, b) = grid5000_pair(1);
        let net = Network::new(topo);
        let placement = vec![a[0], b[0]];
        let groups = partition(&net, &placement, CommPattern::SiteDisjoint);
        let la = lookahead(&net, &placement, &groups).expect("two groups");
        let rtt = net.rtt(a[0], b[0]);
        assert_eq!(la.as_nanos(), rtt.as_nanos() / 2);
        // Single group: no cross pairs, no lookahead.
        let one = partition(&net, &placement, CommPattern::General);
        assert!(lookahead(&net, &placement, &one).is_none());
    }
}
