//! Deterministic fault plans: a layer-agnostic description of *what goes
//! wrong and when* during a simulated run.
//!
//! A [`FaultPlan`] combines two ingredients:
//!
//! * **stochastic faults** — per-segment loss and duplication probabilities
//!   drawn from seeded xorshift streams ([`crate::prop::Rng`]). Each
//!   consumer (e.g. one TCP channel) derives its own independent stream
//!   from the plan seed via [`FaultPlan::stream_seed`], so the draw
//!   sequence of one channel never depends on how many other channels
//!   exist or in which order they were created;
//! * **scheduled faults** — explicit timed [`FaultEvent`]s that flap a WAN
//!   link, stall a NIC, or kill (and optionally restart) an MPI rank.
//!
//! The plan itself is inert data: `desim` knows nothing about links,
//! channels, or ranks. The network and MPI layers interpret the plan —
//! and, crucially, an [empty](FaultPlan::is_empty) plan must be
//! indistinguishable from no plan at all: no RNG draws, no scheduled
//! events, bit-identical virtual timelines. The fault-determinism test
//! suite enforces both properties (same seed ⇒ same timeline; empty plan
//! ⇒ the fault-free timeline).

use crate::prop::{mix_seed, Rng};
use crate::time::{SimDuration, SimTime};

/// What kind of fault fires (identifiers are plain indices into the
/// interpreting layer's tables: link index, node index, rank number).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A directed-link pair goes dark for `down`: flows crossing it are
    /// frozen at zero rate, then resume (TCP state intact, modelling an
    /// outage shorter than the connection's patience).
    LinkDown {
        /// Undirected link index (as reported by the topology layer).
        link: u32,
        /// Outage duration.
        down: SimDuration,
    },
    /// A node's NIC stops serving traffic in both directions for `down`.
    NicStall {
        /// Node index.
        node: u32,
        /// Stall duration.
        down: SimDuration,
    },
    /// An MPI rank dies. With `restart_after = Some(d)` it comes back `d`
    /// later with its memory wiped (messages addressed to it meanwhile are
    /// lost); with `None` it stays dead for the rest of the run.
    RankFail {
        /// Rank number within the job.
        rank: u32,
        /// Downtime before the rank rejoins, or `None` for a permanent
        /// failure.
        restart_after: Option<SimDuration>,
    },
}

impl FaultKind {
    /// Stable lower-snake-case name (used for observability events).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "link_down",
            FaultKind::NicStall { .. } => "nic_stall",
            FaultKind::RankFail { .. } => "rank_fail",
        }
    }
}

/// One scheduled fault: `kind` fires at virtual time `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic fault-injection plan. See the [module docs](self).
///
/// `FaultPlan::default()` is the empty plan: zero probabilities, no
/// events — by contract it must leave every simulation bit-identical to a
/// run without any plan installed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Master seed for every stochastic stream the plan spawns.
    pub seed: u64,
    /// Per-segment loss probability on WAN (inter-site) paths.
    pub wan_loss: f64,
    /// Per-segment loss probability on LAN (intra-site) paths.
    pub lan_loss: f64,
    /// Fraction of wasted duplicate traffic on lossy paths: each transfer
    /// carries `1 + duplicate` times its payload on the wire (spurious
    /// retransmissions), lowering goodput proportionally.
    pub duplicate: f64,
    /// Scheduled faults, in no particular order (interpreters should use
    /// [`FaultPlan::sorted_events`]).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Set the master seed for stochastic faults.
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Set the WAN per-segment loss probability.
    pub fn with_wan_loss(mut self, p: f64) -> FaultPlan {
        assert!((0.0..1.0).contains(&p), "loss probability {p} not in [0,1)");
        self.wan_loss = p;
        self
    }

    /// Set the duplicate-traffic fraction.
    pub fn with_duplicate(mut self, frac: f64) -> FaultPlan {
        assert!(frac >= 0.0, "duplicate fraction must be non-negative");
        self.duplicate = frac;
        self
    }

    /// Schedule an arbitrary fault event.
    pub fn at(mut self, at: SimTime, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Schedule a link outage of `down` starting at `at`.
    pub fn flap_link(self, link: u32, at: SimTime, down: SimDuration) -> FaultPlan {
        self.at(at, FaultKind::LinkDown { link, down })
    }

    /// Schedule a NIC stall of `down` on `node` starting at `at`.
    pub fn stall_nic(self, node: u32, at: SimTime, down: SimDuration) -> FaultPlan {
        self.at(at, FaultKind::NicStall { node, down })
    }

    /// Kill `rank` permanently at `at`.
    pub fn kill_rank(self, rank: u32, at: SimTime) -> FaultPlan {
        self.at(
            at,
            FaultKind::RankFail {
                rank,
                restart_after: None,
            },
        )
    }

    /// Kill `rank` at `at` and restart it `downtime` later.
    pub fn restart_rank(self, rank: u32, at: SimTime, downtime: SimDuration) -> FaultPlan {
        self.at(
            at,
            FaultKind::RankFail {
                rank,
                restart_after: Some(downtime),
            },
        )
    }

    /// Append a seeded random flap schedule: `count` outages on links drawn
    /// from `links`, with start times uniform over `[0, horizon)` and
    /// durations uniform over `[min_down, max_down)`. The schedule is a
    /// pure function of the plan seed (stream tag `0xF1A9`), `links`, and
    /// the arguments — reproducible across runs and machines.
    pub fn random_link_flaps(
        mut self,
        links: &[u32],
        count: usize,
        horizon: SimDuration,
        min_down: SimDuration,
        max_down: SimDuration,
    ) -> FaultPlan {
        assert!(!links.is_empty(), "no links to flap");
        assert!(min_down <= max_down, "empty outage-duration range");
        let mut rng = Rng::new(mix_seed(self.seed, 0xF1A9));
        for _ in 0..count {
            let link = *rng.pick(links);
            let at = SimTime::from_nanos(rng.range_u64(0, horizon.as_nanos().max(1)));
            let down = SimDuration::from_nanos(rng.range_u64(
                min_down.as_nanos(),
                max_down.as_nanos().max(min_down.as_nanos()) + 1,
            ));
            self.events.push(FaultEvent {
                at,
                kind: FaultKind::LinkDown { link, down },
            });
        }
        self
    }

    /// True when the plan can have no effect whatsoever: interpreters must
    /// skip installation entirely so the run stays bit-identical to a run
    /// with no plan.
    pub fn is_empty(&self) -> bool {
        self.wan_loss == 0.0
            && self.lan_loss == 0.0
            && self.duplicate == 0.0
            && self.events.is_empty()
    }

    /// The per-segment loss probability applying to a path class.
    pub fn loss_for(&self, wan: bool) -> f64 {
        if wan {
            self.wan_loss
        } else {
            self.lan_loss
        }
    }

    /// Derive an independent, reproducible RNG seed for stream `stream`
    /// (e.g. a channel index). The derivation is order-free: stream `k`
    /// always gets the same seed no matter how many other streams exist.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        mix_seed(self.seed, stream)
    }

    /// The scheduled events ordered by `(time, insertion order)` — the
    /// deterministic application order.
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut v = self.events.clone();
        v.sort_by_key(|e| e.at);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(!FaultPlan::new().with_wan_loss(0.01).is_empty());
        assert!(!FaultPlan::new()
            .kill_rank(3, SimTime::from_nanos(5))
            .is_empty());
    }

    #[test]
    fn stream_seeds_are_stable_and_distinct() {
        let p = FaultPlan::new().with_seed(0xDEAD_BEEF);
        assert_eq!(p.stream_seed(4), p.stream_seed(4));
        assert_ne!(p.stream_seed(4), p.stream_seed(5));
        assert_ne!(
            p.stream_seed(4),
            FaultPlan::new().with_seed(1).stream_seed(4)
        );
    }

    #[test]
    fn random_flaps_are_reproducible() {
        let mk = || {
            FaultPlan::new().with_seed(7).random_link_flaps(
                &[0, 1, 2],
                5,
                SimDuration::from_secs(10),
                SimDuration::from_millis(10),
                SimDuration::from_millis(500),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 5);
        for e in &a.events {
            match e.kind {
                FaultKind::LinkDown { link, down } => {
                    assert!(link < 3);
                    assert!(down >= SimDuration::from_millis(10));
                    assert!(down <= SimDuration::from_millis(500));
                }
                other => panic!("unexpected kind {other:?}"),
            }
        }
    }

    #[test]
    fn sorted_events_are_time_ordered() {
        let p = FaultPlan::new()
            .kill_rank(1, SimTime::from_nanos(50))
            .flap_link(0, SimTime::from_nanos(10), SimDuration::from_nanos(5))
            .stall_nic(2, SimTime::from_nanos(30), SimDuration::from_nanos(5));
        let times: Vec<u64> = p.sorted_events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(times, vec![10, 30, 50]);
    }

    #[test]
    fn kind_names() {
        assert_eq!(
            FaultKind::LinkDown {
                link: 0,
                down: SimDuration::from_nanos(1)
            }
            .name(),
            "link_down"
        );
        assert_eq!(
            FaultKind::RankFail {
                rank: 0,
                restart_after: None
            }
            .name(),
            "rank_fail"
        );
    }
}
