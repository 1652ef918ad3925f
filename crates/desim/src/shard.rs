//! Conservative parallel discrete-event execution (PDES) over site shards.
//!
//! A [`ShardedSim`] drives several independent [`Sim`] instances in
//! lock-step windows: each round it computes the earliest pending event
//! time across all shards (`t_min`), widens it by the *lookahead* — the
//! minimum cross-shard interaction latency, e.g. the WAN one-way latency
//! between grid sites — and lets every shard with work below that horizon
//! run concurrently on a pool of worker threads. No event a shard executes
//! in round *k* can be invalidated by another shard, because any
//! cross-shard effect posted during the round lands at `t ≥ t_min +
//! lookahead = horizon` (the classic conservative barrier argument; see
//! DESIGN.md §14).
//!
//! Cross-shard effects travel through [`CrossPost`]: per-*source* outboxes
//! that shards append to during their window and that the driver drains at
//! the barrier, sorting by the deterministic key `(time, source shard,
//! sequence)` before delivery via [`Sim::post_at`]. Shard count and worker
//! count are independent: the partition (and therefore every virtual
//! timestamp and event payload) is fixed by the topology, while workers
//! only decide how many shards run their windows on distinct OS threads —
//! so results are bit-identical for any worker count, including one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::kernel::{RunStats, Sched, Sim, SimError};
use crate::obs::{Event, Recorder};
use crate::sync::Mutex;
use crate::time::{SimDuration, SimTime};

/// One queued cross-shard effect.
struct Mail {
    at: SimTime,
    dst: usize,
    seq: u64,
    f: Box<dyn FnOnce(&Sched) + Send>,
}

/// The inter-shard mail fabric: one outbox per *source* shard, so posting
/// during a window contends only with the poster's own shard. The driver
/// drains all outboxes at each barrier and delivers in `(time, source,
/// sequence)` order — a total order that is a pure function of the
/// simulated program, independent of worker scheduling.
#[derive(Clone)]
pub struct CrossPost {
    outboxes: Arc<Vec<Mutex<Vec<Mail>>>>,
}

impl CrossPost {
    /// A fabric connecting `shards` shards.
    pub fn new(shards: usize) -> CrossPost {
        CrossPost {
            outboxes: Arc::new((0..shards).map(|_| Mutex::new(Vec::new())).collect()),
        }
    }

    /// Number of shards the fabric connects.
    pub fn shards(&self) -> usize {
        self.outboxes.len()
    }

    /// Post `f` to run in shard `to` at virtual time `at`, from shard
    /// `from`. The conservative horizon makes `at` safely ahead of `to`'s
    /// clock; delivery happens at the next barrier.
    pub fn post(
        &self,
        from: usize,
        to: usize,
        at: SimTime,
        f: impl FnOnce(&Sched) + Send + 'static,
    ) {
        let mut box_ = self.outboxes[from].lock();
        let seq = box_.len() as u64;
        box_.push(Mail {
            at,
            dst: to,
            seq,
            f: Box::new(f),
        });
    }

    /// Drain every outbox into one delivery-ordered batch.
    fn drain(&self) -> Vec<(usize, Mail)> {
        let mut all: Vec<(usize, Mail)> = Vec::new();
        for (src, box_) in self.outboxes.iter().enumerate() {
            for m in box_.lock().drain(..) {
                all.push((src, m));
            }
        }
        all.sort_by_key(|(src, m)| (m.at, *src, m.seq));
        all
    }
}

/// Outcome of a completed sharded run.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Largest final virtual time over all shards.
    pub end: SimTime,
    /// Per-shard final time and dispatch count, in shard order.
    pub groups: Vec<RunStats>,
    /// Cross-shard messages delivered over the whole run.
    pub mail: u64,
}

/// The conservative-window driver over a fixed set of shards.
pub struct ShardedSim {
    sims: Vec<Sim>,
    cross: CrossPost,
    lookahead: SimDuration,
    workers: usize,
    limit: SimTime,
}

/// `t + d` with saturation at the top of the clock.
fn sat_add(t: SimTime, d: SimDuration) -> SimTime {
    SimTime::from_nanos(t.as_nanos().saturating_add(d.as_nanos()))
}

impl ShardedSim {
    /// Build a driver over `sims` with the given conservative lookahead
    /// and worker-thread count (clamped to at least one). With more than
    /// one shard the lookahead must be positive — a zero lookahead means
    /// the partition has no latency separation and is invalid.
    pub fn new(sims: Vec<Sim>, lookahead: SimDuration, workers: usize) -> ShardedSim {
        assert!(
            sims.len() <= 1 || lookahead > SimDuration::ZERO,
            "multi-shard execution requires a positive lookahead"
        );
        let cross = CrossPost::new(sims.len());
        ShardedSim {
            sims,
            cross,
            lookahead,
            workers: workers.max(1),
            limit: SimTime::MAX,
        }
    }

    /// The mail fabric shards use to reach each other.
    pub fn cross(&self) -> CrossPost {
        self.cross.clone()
    }

    /// The shards, in shard order.
    pub fn sims(&self) -> &[Sim] {
        &self.sims
    }

    /// Fail with [`SimError::TimeLimitExceeded`] if the earliest pending
    /// event ever lies beyond `limit` while work remains.
    pub fn set_limit(&mut self, limit: SimTime) {
        self.limit = limit;
    }

    /// Drive every shard to completion. Returns per-shard stats, the
    /// first failure of any shard (lowest shard index wins for
    /// determinism), a global deadlock if every shard starves while
    /// blocked, or a time-limit overrun.
    pub fn run(&self) -> Result<ShardStats, SimError> {
        let n = self.sims.len();
        let limit_horizon = sat_add(self.limit, SimDuration::from_nanos(1));
        let mut mail_count: u64 = 0;
        loop {
            // Barrier: deliver cross-shard mail in deterministic order.
            for (_src, m) in self.cross.drain() {
                mail_count += 1;
                self.sims[m.dst].post_at(m.at, m.f);
            }
            let nexts: Vec<Option<SimTime>> =
                self.sims.iter().map(|s| s.next_event_time()).collect();
            let Some(t_min) = nexts.iter().flatten().min().copied() else {
                if self.sims.iter().any(|s| s.anything_live()) {
                    let blocked = self.sims.iter().flat_map(|s| s.blocked_names()).collect();
                    return Err(SimError::Deadlock(blocked));
                }
                break;
            };
            if !self.sims.iter().any(|s| s.anything_live()) {
                // Every task everywhere has finished: what
                // remains is trailing timer/callback events (e.g. armed
                // TCP retransmit timers). Drop them, as the
                // single-threaded kernel does after its last task
                // exits — running them would only drag shard clocks
                // forward, at per-lookahead round granularity.
                break;
            }
            if t_min > self.limit {
                if self.sims.iter().any(|s| s.anything_live()) {
                    return Err(SimError::TimeLimitExceeded(self.limit));
                }
                // Only trailing events beyond the limit remain; drop them,
                // as the single-threaded kernel does after its last
                // task exits.
                break;
            }
            let horizon = if n == 1 {
                limit_horizon
            } else {
                sat_add(t_min, self.lookahead).min(limit_horizon)
            };
            let eligible: Vec<usize> = (0..n)
                .filter(|&i| nexts[i].is_some_and(|t| t < horizon))
                .collect();
            self.run_round(&eligible, horizon)?;
        }
        let groups: Vec<RunStats> = self.sims.iter().map(|s| s.stats()).collect();
        let end = groups.iter().map(|g| g.end).max().unwrap_or(SimTime::ZERO);
        Ok(ShardStats {
            end,
            groups,
            mail: mail_count,
        })
    }

    /// Run one window on every eligible shard, spreading shards over the
    /// worker pool. Each shard is claimed by exactly one worker; the
    /// claiming order cannot affect results (shards only touch their own
    /// state plus their own outbox during a window).
    fn run_round(&self, eligible: &[usize], horizon: SimTime) -> Result<(), SimError> {
        let workers = self.workers.min(eligible.len());
        if workers <= 1 {
            for &g in eligible {
                self.sims[g].run_window(horizon)?;
            }
            return Ok(());
        }
        let claim = AtomicUsize::new(0);
        let failures: Mutex<Vec<(usize, SimError)>> = Mutex::new(Vec::new());
        let work = || loop {
            let k = claim.fetch_add(1, Ordering::Relaxed);
            let Some(&g) = eligible.get(k) else { break };
            if let Err(e) = self.sims[g].run_window(horizon) {
                failures.lock().push((g, e));
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
        let mut failures = std::mem::take(&mut *failures.lock());
        failures.sort_by_key(|(g, _)| *g);
        match failures.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }
}

/// A per-shard event buffer: shards record into their own buffer during
/// the run; at the end the driver merges all buffers into the downstream
/// recorder in `(timestamp, shard)` order — see [`merge_events`].
#[derive(Default)]
pub struct GroupBuffer {
    events: Mutex<Vec<Event>>,
}

impl GroupBuffer {
    /// An empty buffer.
    pub fn new() -> GroupBuffer {
        GroupBuffer::default()
    }

    /// Append one event directly (for driver-synthesized events).
    pub fn push(&self, ev: Event) {
        self.events.lock().push(ev);
    }

    /// Take the buffered events, leaving the buffer empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock())
    }
}

impl Recorder for GroupBuffer {
    fn record(&self, ev: &Event) {
        self.events.lock().push(ev.clone());
    }
}

/// Merge per-shard event streams into `sink` in `(timestamp, shard)`
/// order, preserving each shard's own emission order within a timestamp.
/// This is the deterministic commit: the merged stream is a pure function
/// of the simulated program, whatever the worker count.
pub fn merge_events(groups: Vec<Vec<Event>>, sink: &dyn Recorder) {
    let mut all: Vec<(u64, usize, usize, Event)> = Vec::new();
    for (shard, events) in groups.into_iter().enumerate() {
        for (seq, ev) in events.into_iter().enumerate() {
            all.push((ev.time_ns(), shard, seq, ev));
        }
    }
    all.sort_by_key(|&(t, shard, seq, _)| (t, shard, seq));
    for (_, _, _, ev) in &all {
        sink.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    fn ms(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000_000)
    }

    #[test]
    fn single_shard_runs_to_completion() {
        let sim = Sim::new();
        sim.spawn_task("p", |cx| async move {
            cx.advance(SimDuration::from_millis(15)).await;
        });
        let sharded = ShardedSim::new(vec![sim], SimDuration::ZERO, 1);
        let stats = sharded.run().unwrap();
        assert_eq!(stats.end, ms(15));
        assert_eq!(stats.groups.len(), 1);
    }

    #[test]
    fn cross_shard_ping_is_deterministic() {
        // Each shard posts effects into the other one lookahead ahead.
        // The *per-shard* traces must be identical however many workers
        // run the windows (the global host-side interleaving of
        // concurrent windows is exactly what is not promised).
        type ShardLog = Mutex<Vec<(u64, usize)>>;
        fn trace(workers: usize) -> Vec<Vec<(u64, usize)>> {
            let logs: Arc<Vec<ShardLog>> =
                Arc::new((0..2).map(|_| Mutex::new(Vec::new())).collect());
            let sims = vec![Sim::new(), Sim::new()];
            let sharded = ShardedSim::new(sims, SimDuration::from_millis(5), workers);
            let cross = sharded.cross();
            for (i, sim) in sharded.sims().iter().enumerate() {
                let logs = Arc::clone(&logs);
                let cross = cross.clone();
                sim.spawn_task(format!("s{i}"), move |cx| async move {
                    for _ in 0..4 {
                        cx.advance(SimDuration::from_millis(3)).await;
                        logs[i].lock().push((cx.now().as_nanos(), i));
                        let to = 1 - i;
                        let at = sat_add(cx.now(), SimDuration::from_millis(5));
                        let logs2 = Arc::clone(&logs);
                        cross.post(i, to, at, move |s| {
                            logs2[to].lock().push((s.now().as_nanos(), 10 + to));
                        });
                    }
                });
            }
            let stats = sharded.run().unwrap();
            assert_eq!(stats.mail, 8);
            logs.iter().map(|l| l.lock().clone()).collect()
        }
        let one = trace(1);
        let four = trace(4);
        assert_eq!(one, four);
        // Mail lands in both shards, after the sender's local mark.
        assert!(one[1].iter().any(|&(_, who)| who == 11));
        assert!(one[0].iter().any(|&(_, who)| who == 10));
        for shard in &one {
            let times: Vec<u64> = shard.iter().map(|&(t, _)| t).collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            assert_eq!(times, sorted, "per-shard trace must be time-ordered");
        }
    }

    #[test]
    fn starved_shards_report_global_deadlock() {
        let sims = vec![Sim::new(), Sim::new()];
        let sharded = ShardedSim::new(sims, SimDuration::from_millis(1), 2);
        let (_tx, rx) = crate::completion::<()>();
        sharded.sims()[0].spawn_task("stuck", move |cx| async move {
            cx.wait(rx).await;
        });
        match sharded.run() {
            Err(SimError::Deadlock(names)) => assert_eq!(names, vec!["stuck".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn time_limit_spans_shards() {
        let sims = vec![Sim::new(), Sim::new()];
        let mut sharded = ShardedSim::new(sims, SimDuration::from_millis(1), 2);
        sharded.set_limit(ms(10));
        sharded.sims()[0].spawn_task("slow", |cx| async move {
            cx.advance(SimDuration::from_secs(100)).await;
        });
        match sharded.run() {
            Err(SimError::TimeLimitExceeded(t)) => assert_eq!(t, ms(10)),
            other => panic!("expected time limit, got {other:?}"),
        }
    }

    #[test]
    fn done_shard_is_revived_by_late_mail() {
        // Shard 1 finishes instantly; shard 0 posts into it afterwards
        // and stays alive past the mail's delivery time.
        let log = Arc::new(Mutex::new(Vec::new()));
        let sims = vec![Sim::new(), Sim::new()];
        let sharded = ShardedSim::new(sims, SimDuration::from_millis(2), 2);
        let cross = sharded.cross();
        {
            let log = Arc::clone(&log);
            sharded.sims()[0].spawn_task("poster", move |cx| async move {
                cx.advance(SimDuration::from_millis(20)).await;
                let at = sat_add(cx.now(), SimDuration::from_millis(2));
                let log2 = Arc::clone(&log);
                cross.post(0, 1, at, move |s| {
                    log2.lock().push(s.now().as_nanos());
                });
                cx.advance(SimDuration::from_millis(5)).await;
            });
        }
        sharded.sims()[1].spawn_task("early", |cx| async move {
            cx.advance(SimDuration::from_millis(1)).await;
        });
        sharded.run().unwrap();
        assert_eq!(log.lock().clone(), vec![ms(22).as_nanos()]);
    }

    #[test]
    fn trailing_mail_is_dropped_after_global_finish() {
        // Same shape, but the poster exits immediately after posting:
        // once every task everywhere has finished, the driver drops
        // trailing events instead of running them — the same semantics
        // as the single-threaded kernel after its last task exits.
        let log = Arc::new(Mutex::new(Vec::new()));
        let sims = vec![Sim::new(), Sim::new()];
        let sharded = ShardedSim::new(sims, SimDuration::from_millis(2), 2);
        let cross = sharded.cross();
        {
            let log = Arc::clone(&log);
            sharded.sims()[0].spawn_task("poster", move |cx| async move {
                cx.advance(SimDuration::from_millis(20)).await;
                let at = sat_add(cx.now(), SimDuration::from_millis(2));
                let log2 = Arc::clone(&log);
                cross.post(0, 1, at, move |s| {
                    log2.lock().push(s.now().as_nanos());
                });
            });
        }
        sharded.sims()[1].spawn_task("early", |cx| async move {
            cx.advance(SimDuration::from_millis(1)).await;
        });
        sharded.run().unwrap();
        assert!(log.lock().is_empty(), "trailing mail ran after finish");
    }

    #[test]
    fn merge_orders_by_time_then_shard() {
        struct Sink(Mutex<Vec<u64>>);
        impl Recorder for Sink {
            fn record(&self, ev: &Event) {
                self.0.lock().push(ev.time_ns());
            }
        }
        let a = vec![
            Event::Phase {
                rank: 0,
                name: "a",
                t_ns: 5,
            },
            Event::Phase {
                rank: 0,
                name: "b",
                t_ns: 9,
            },
        ];
        let b = vec![Event::Phase {
            rank: 1,
            name: "c",
            t_ns: 5,
        }];
        let sink = Sink(Mutex::new(Vec::new()));
        merge_events(vec![a, b], &sink);
        assert_eq!(sink.0.lock().clone(), vec![5, 5, 9]);
    }
}
