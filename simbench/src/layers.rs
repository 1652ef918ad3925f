//! The per-layer split of a traced pass, measured from outside the
//! program: host self times derived from an attached `HostProfiler`'s
//! stack table, and exact work counters from a counting `Recorder`.
//!
//! The profiler's rows nest as `mpisim;job;run` ⊃ `desim;dispatch;*` ⊃
//! `netsim;*`, and the rows of each layer are layer-local: the netsim
//! handler rows (`round_event;*`, `finish_event`, `fast_commit`) include
//! the settle/allocate/replay work they trigger, while the leaf rows
//! (`settle*`, `allocate`, `replay`) also count that work plus the same
//! work done when a rank task starts a flow. Self times subtract each
//! layer's inclusive time from its parent. netsim's inclusive time is the
//! union of its handler and leaf rows; since the profile does not say how
//! much they overlap, the split takes the larger of the two, a lower
//! bound, and charges the rest to `desim.dispatch_self_s`.
//!
//! The hot rows are sampled (1 in 31 kernel events, 1 in 13 netsim
//! handlers) and extrapolated, so a layer's rows can add up to more than
//! its parent measured. The differences are kept as measured: a negative
//! self time says by how much the sampled child rows overshoot. The
//! disjoint self times always add up to the profiled job.

use std::sync::atomic::{AtomicU64, Ordering};

use desim::{Event, Recorder};

/// Host seconds per layer of one traced pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerSplit {
    /// `mpisim;job;setup`: world and rank construction.
    pub mpisim_setup: f64,
    /// `mpisim;job;collect`: report assembly.
    pub mpisim_collect: f64,
    /// `mpisim;job;run`, inclusive: the whole kernel drive.
    pub mpisim_run: f64,
    /// `mpisim;job;run` minus the dispatch rows: mpisim work the profile
    /// attributes to no deeper layer.
    pub mpisim_unattributed: f64,
    /// `desim;dispatch;*`, inclusive.
    pub dispatch: f64,
    /// `desim;dispatch;*` minus netsim's inclusive time.
    pub dispatch_self: f64,
    /// netsim's inclusive (= self) time: max(handler rows, leaf rows).
    pub netsim: f64,
    /// Every `netsim;settle` and `netsim;settle;<link>` row.
    pub settle: f64,
    /// `netsim;allocate`.
    pub allocate: f64,
    /// The per-event handler rows: `netsim;round_event;*` and
    /// `netsim;finish_event` (per-round model), `netsim;fast_commit`
    /// (closed-form fast path, its replay included).
    pub events: f64,
    /// Occurrences of the per-round model's round and finish events, as
    /// the profiler extrapolates them from its 1-in-13 samples.
    pub round_events: u64,
    /// Occurrences of fast-path commits, extrapolated likewise.
    pub fast_commits: u64,
}

impl LayerSplit {
    /// Derive the split from `HostProfiler::stacks` rows `(stack, ns, count)`.
    pub fn from_stacks(stacks: &[(String, u64, u64)]) -> LayerSplit {
        let mut s = LayerSplit::default();
        let mut replay = 0.0;
        for (stack, ns, count) in stacks {
            let secs = *ns as f64 * 1e-9;
            if stack == "netsim;fast_commit" {
                s.fast_commits += count;
            } else if stack == "netsim;finish_event" || stack.starts_with("netsim;round_event;") {
                s.round_events += count;
            }
            let slot = match stack.as_str() {
                "mpisim;job;setup" => &mut s.mpisim_setup,
                "mpisim;job;run" => &mut s.mpisim_run,
                "mpisim;job;collect" => &mut s.mpisim_collect,
                "netsim;allocate" => &mut s.allocate,
                "netsim;finish_event" | "netsim;fast_commit" => &mut s.events,
                "netsim;replay" => &mut replay,
                "netsim;settle" => &mut s.settle,
                x if x.starts_with("netsim;settle;") => &mut s.settle,
                x if x.starts_with("netsim;round_event;") => &mut s.events,
                x if x.starts_with("desim;dispatch;") => &mut s.dispatch,
                _ => continue,
            };
            *slot += secs;
        }
        s.netsim = s.events.max(s.settle + s.allocate + replay);
        s.dispatch_self = s.dispatch - s.netsim;
        s.mpisim_unattributed = s.mpisim_run - s.dispatch;
        s
    }

    /// The disjoint self times, which together cover the profiled job:
    /// setup + dispatch self + netsim + unattributed + collect.
    pub fn self_total(&self) -> f64 {
        self.mpisim_setup
            + self.dispatch_self
            + self.netsim
            + self.mpisim_unattributed
            + self.mpisim_collect
    }
}

/// Exact work counters taken from the structured event stream.
#[derive(Default)]
pub struct WorkCounter {
    obs_events: AtomicU64,
    kernel_events: AtomicU64,
    flows: AtomicU64,
    tcp_rounds: AtomicU64,
}

/// A snapshot of [`WorkCounter`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Structured events recorded (every kind).
    pub obs_events: u64,
    /// Kernel events dispatched, summed over `KernelRun` events.
    pub kernel_events: u64,
    /// Flows started (`FlowStart`).
    pub flows: u64,
    /// TCP rounds observed (`TcpSample`), closed-form replays included.
    pub tcp_rounds: u64,
}

impl WorkCounter {
    /// Current totals.
    pub fn counts(&self) -> Counts {
        Counts {
            obs_events: self.obs_events.load(Ordering::Relaxed),
            kernel_events: self.kernel_events.load(Ordering::Relaxed),
            flows: self.flows.load(Ordering::Relaxed),
            tcp_rounds: self.tcp_rounds.load(Ordering::Relaxed),
        }
    }
}

impl Recorder for WorkCounter {
    fn record(&self, ev: &Event) {
        self.obs_events.fetch_add(1, Ordering::Relaxed);
        let (slot, n) = match ev {
            Event::KernelRun { events, .. } => (&self.kernel_events, *events),
            Event::FlowStart { .. } => (&self.flows, 1),
            Event::TcpSample { .. } => (&self.tcp_rounds, 1),
            _ => return,
        };
        slot.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[(&str, u64)]) -> Vec<(String, u64, u64)> {
        rows.iter().map(|&(s, ns)| (s.to_string(), ns, 1)).collect()
    }

    const MS: u64 = 1_000_000;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn self_times_subtract_each_layer_from_its_parent() {
        let s = LayerSplit::from_stacks(&table(&[
            ("mpisim;job;setup", 2 * MS),
            ("mpisim;job;run", 100 * MS),
            ("mpisim;job;collect", MS),
            ("desim;dispatch;task_poll", 50 * MS),
            ("desim;dispatch;call", 30 * MS),
            ("desim;dispatch;wake", 0),
            ("netsim;round_event;wan:rennes->nancy", 10 * MS),
            ("netsim;finish_event", 8 * MS),
            ("netsim;fast_commit", 4 * MS),
            ("netsim;settle", MS),
            ("netsim;settle;site:rennes", 2 * MS),
            ("netsim;allocate", 6 * MS),
            ("netsim;replay", MS),
            ("analysis;from_events", 999 * MS),
        ]));
        assert!(close(s.events, 0.022));
        assert_eq!((s.round_events, s.fast_commits), (2, 1));
        assert!(close(s.settle, 0.003));
        assert!(close(s.allocate, 0.006));
        // Handlers (22 ms) outweigh leaves (10 ms): netsim = 22 ms.
        assert!(close(s.netsim, 0.022));
        assert!(close(s.dispatch_self, 0.080 - 0.022));
        assert!(close(s.mpisim_unattributed, 0.100 - 0.080));
        // The disjoint self times cover setup + run + collect exactly.
        assert!(close(s.self_total(), 0.103));
    }

    #[test]
    fn leaf_rows_bound_netsim_when_flow_starts_dominate() {
        let s = LayerSplit::from_stacks(&table(&[
            ("mpisim;job;run", 40 * MS),
            ("desim;dispatch;task_poll", 30 * MS),
            ("netsim;finish_event", 3 * MS),
            ("netsim;allocate", 9 * MS),
            ("netsim;settle;wan:nancy->rennes", MS),
        ]));
        assert!(close(s.netsim, 0.010));
        assert!(close(s.dispatch_self, 0.020));
        assert!(close(s.mpisim_unattributed, 0.010));
        assert!(close(s.self_total(), 0.040));
    }

    #[test]
    fn overshooting_sampled_rows_show_as_negative_self_time() {
        let s = LayerSplit::from_stacks(&table(&[
            ("mpisim;job;run", 10 * MS),
            ("desim;dispatch;call", 12 * MS),
            ("netsim;allocate", 13 * MS),
        ]));
        assert!(close(s.mpisim_unattributed, -0.002));
        assert!(close(s.dispatch_self, -0.001));
        assert!(close(s.netsim, 0.013));
        assert!(close(s.self_total(), 0.010));
        assert_eq!(LayerSplit::from_stacks(&[]), LayerSplit::default());
    }

    #[test]
    fn counter_sums_kernel_events_and_counts_kinds() {
        let c = WorkCounter::default();
        c.record(&Event::KernelRun {
            end_ns: 5,
            events: 40,
        });
        c.record(&Event::KernelRun {
            end_ns: 9,
            events: 2,
        });
        c.record(&Event::FlowStart {
            channel: 0,
            t_ns: 1,
            bytes: 8,
            queued: 0,
        });
        c.record(&Event::Phase {
            rank: 0,
            name: "p",
            t_ns: 2,
        });
        assert_eq!(
            c.counts(),
            Counts {
                obs_events: 4,
                kernel_events: 42,
                flows: 1,
                tcp_rounds: 0
            }
        );
    }
}
