//! Structured observability: a zero-cost-when-disabled event bus carrying
//! typed events from every layer of the stack (kernel, TCP, flows, links,
//! MPI ranks, application phases), a metrics registry, and std-only
//! exporters (JSON lines and Chrome trace-event format).
//!
//! ## Design
//!
//! Producers (the desim kernel, `netsim`'s flow engine, `mpisim`'s ranks)
//! hold an `Option<Arc<dyn Recorder>>`. When no recorder is attached the
//! cost is one pointer-null check per would-be event; when one is
//! attached, producers *only read* simulation state and append to a
//! host-side sink — they never schedule events, never advance virtual
//! time, and never touch the floating-point state of the models. Virtual
//! timestamps are therefore bit-identical with and without observers
//! (the observer-effect determinism tests enforce this).
//!
//! Events carry virtual-time stamps in nanoseconds and plain scalar
//! payloads, so the bus has no dependency on the producing crates and the
//! exporters need no type knowledge beyond this module.

pub mod analysis;
pub mod digest;
pub mod export;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod profile;

pub use digest::{Digest, DigestSink, DigestValue, Tee};
pub use metrics::{Metrics, MetricsSnapshot, StreamHist, WindowAgg, Windowed};
pub use profile::{HostProfiler, ProfKey, ProfScope, TimeSeries, TimeSeriesSink};

use std::collections::VecDeque;
use std::sync::Arc;

use crate::sync::Mutex;

/// One structured observability event. All timestamps are virtual-time
/// nanoseconds; identifiers are plain indices into the producing layer's
/// tables (channel, link, rank).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A simulation run completed: final virtual time and the number of
    /// events the kernel dispatched.
    KernelRun {
        /// Final virtual time, ns.
        end_ns: u64,
        /// Events dispatched (process wakes plus kernel callbacks).
        events: u64,
    },
    /// TCP congestion state observed on a channel right after a window
    /// round (or a short-transfer ack) was applied.
    TcpSample {
        /// Channel index.
        channel: u64,
        /// Virtual time of the sample, ns.
        t_ns: u64,
        /// Congestion window, bytes.
        cwnd: u64,
        /// Slow-start threshold, bytes (`f64::INFINITY` until first loss).
        ssthresh: f64,
        /// Congestion phase name (`"slow_start"` / `"congestion_avoidance"`).
        phase: &'static str,
        /// What the round produced (`"progress"`, `"fast_recovery"`,
        /// `"rto_stall"`, `"short_ack"`).
        outcome: &'static str,
    },
    /// A queued transfer started draining on a channel.
    FlowStart {
        /// Channel index.
        channel: u64,
        /// Virtual time, ns.
        t_ns: u64,
        /// Transfer size, bytes.
        bytes: u64,
        /// Transfers still queued behind this one (channel queue occupancy).
        queued: u64,
    },
    /// The last byte of a transfer left the sender.
    FlowFinish {
        /// Channel index.
        channel: u64,
        /// Virtual time, ns.
        t_ns: u64,
        /// Transfer size, bytes.
        bytes: u64,
    },
    /// Cumulative bytes delivered over one directed link, sampled at a
    /// flow completion (utilization accounting).
    LinkSample {
        /// Directed-link index.
        link: u64,
        /// Virtual time, ns.
        t_ns: u64,
        /// Cumulative bytes delivered over the link since t = 0.
        delivered_bytes: f64,
    },
    /// One MPI operation span on one rank (compute, send, recv, wait,
    /// collective): the per-rank timeline of a "modified MPI
    /// implementation" (§3.1), digested by [`analysis`].
    MpiSpan {
        /// Acting rank.
        rank: u64,
        /// Operation name (`"compute"`, `"send"`, `"recv"`, `"wait_send"`,
        /// or the collective's name).
        op: &'static str,
        /// Peer rank for point-to-point operations, -1 if none.
        peer: i64,
        /// Payload bytes (0 for waits/compute).
        bytes: u64,
        /// Span start, ns.
        start_ns: u64,
        /// Span end, ns.
        end_ns: u64,
        /// Deterministic message id pairing a send span with its matching
        /// receive span (0 when the span carries no point-to-point
        /// message: compute, collectives).
        msg_id: u64,
    },
    /// An application-level phase marker (instantaneous).
    Phase {
        /// Emitting rank.
        rank: u64,
        /// Phase name.
        name: &'static str,
        /// Virtual time, ns.
        t_ns: u64,
    },
    /// A fault-injection event fired (or cleared): scheduled outages from
    /// a `FaultPlan` and the stochastic losses they cause downstream.
    Fault {
        /// Fault kind (`"link_down"`, `"link_up"`, `"nic_stall"`,
        /// `"nic_resume"`, `"rank_fail"`, `"rank_restart"`,
        /// `"segment_loss"`, `"induced_rto"`, `"msg_dropped"`,
        /// `"chunk_reissued"`).
        kind: &'static str,
        /// The affected entity: link, node, channel, or rank index,
        /// depending on `kind`.
        subject: u64,
        /// Virtual time, ns.
        t_ns: u64,
        /// Kind-specific scalar (outage duration in seconds, congestion
        /// window at loss, …); 0 when unused.
        info: f64,
    },
}

impl Event {
    /// Stable lower-snake-case name of the event's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::KernelRun { .. } => "kernel_run",
            Event::TcpSample { .. } => "tcp_sample",
            Event::FlowStart { .. } => "flow_start",
            Event::FlowFinish { .. } => "flow_finish",
            Event::LinkSample { .. } => "link_sample",
            Event::MpiSpan { .. } => "mpi_span",
            Event::Phase { .. } => "phase",
            Event::Fault { .. } => "fault",
        }
    }

    /// Metrics counter key for the event's kind (`"events.<kind>"`),
    /// precomputed so recording stays allocation-free.
    fn counter_key(&self) -> &'static str {
        match self {
            Event::KernelRun { .. } => "events.kernel_run",
            Event::TcpSample { .. } => "events.tcp_sample",
            Event::FlowStart { .. } => "events.flow_start",
            Event::FlowFinish { .. } => "events.flow_finish",
            Event::LinkSample { .. } => "events.link_sample",
            Event::MpiSpan { .. } => "events.mpi_span",
            Event::Phase { .. } => "events.phase",
            Event::Fault { .. } => "events.fault",
        }
    }
}

/// A consumer of observability events. Implementations must be cheap and
/// must not interact with the simulation (no scheduling, no blocking on
/// simulated state) — recording happens inside the dispatch loop.
pub trait Recorder: Send + Sync {
    /// Consume one event.
    fn record(&self, ev: &Event);
}

/// The single observability configuration: which recorder receives the
/// structured event stream and which host-time profiler the kernel and
/// network attribute their wall-clock time to. One `Obs` is handed to the
/// top of the stack (a `Scenario` or `MpiJob`) and fanned out from there
/// (`MpiJob::with_obs`, `Network::attach_obs`, [`crate::Sim::attach_obs`]).
#[derive(Clone, Default)]
pub struct Obs {
    /// Structured-event sink, if any.
    pub recorder: Option<Arc<dyn Recorder>>,
    /// Host-time self-profiler, if any.
    pub profiler: Option<Arc<HostProfiler>>,
}

impl Obs {
    /// Observe nothing (the zero-cost default).
    pub fn none() -> Obs {
        Obs::default()
    }

    /// Record structured events into `rec`.
    pub fn recorder(mut self, rec: Arc<dyn Recorder>) -> Obs {
        self.recorder = Some(rec);
        self
    }

    /// Attribute host time to `prof`.
    pub fn profiler(mut self, prof: Arc<HostProfiler>) -> Obs {
        self.profiler = Some(prof);
        self
    }

    /// True when nothing is attached.
    pub fn is_none(&self) -> bool {
        self.recorder.is_none() && self.profiler.is_none()
    }
}

struct Ring {
    buf: VecDeque<Event>,
    dropped: u64,
}

/// A bounded in-memory sink: keeps the most recent `capacity` events,
/// counting (not storing) the overflow. Optionally feeds a [`Metrics`]
/// registry with per-kind event counters.
pub struct RingSink {
    capacity: usize,
    ring: Mutex<Ring>,
    metrics: Option<Arc<Metrics>>,
}

impl RingSink {
    /// Sink keeping the last `capacity` events.
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                dropped: 0,
            }),
            metrics: None,
        }
    }

    /// Sink that additionally counts every event kind into `metrics`
    /// (counters named `events.<kind>`).
    pub fn with_metrics(capacity: usize, metrics: Arc<Metrics>) -> RingSink {
        RingSink {
            metrics: Some(metrics),
            ..RingSink::new(capacity)
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.lock().buf.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().buf.len()
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }
}

impl Recorder for RingSink {
    fn record(&self, ev: &Event) {
        if let Some(m) = &self.metrics {
            m.counter_add(ev.counter_key(), 1);
        }
        let mut g = self.ring.lock();
        if g.buf.len() == self.capacity {
            g.buf.pop_front();
            g.dropped += 1;
        }
        g.buf.push_back(ev.clone());
    }
}

/// A sink that discards events but still counts them into a [`Metrics`]
/// registry — the cheapest way to measure event volume.
pub struct CountingSink {
    metrics: Arc<Metrics>,
}

impl CountingSink {
    /// Counting sink over `metrics`.
    pub fn new(metrics: Arc<Metrics>) -> CountingSink {
        CountingSink { metrics }
    }
}

impl Recorder for CountingSink {
    fn record(&self, ev: &Event) {
        self.metrics.counter_add(ev.counter_key(), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(i: u64) -> Event {
        Event::Phase {
            rank: i,
            name: "p",
            t_ns: i,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_dropped() {
        let sink = RingSink::new(3);
        for i in 0..5 {
            sink.record(&phase(i));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let ts: Vec<u64> = sink
            .events()
            .iter()
            .map(|e| match e {
                Event::Phase { t_ns, .. } => *t_ns,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn metrics_backed_sink_counts_kinds() {
        let m = Arc::new(Metrics::new());
        let sink = RingSink::with_metrics(8, Arc::clone(&m));
        sink.record(&phase(0));
        sink.record(&phase(1));
        sink.record(&Event::KernelRun {
            end_ns: 1,
            events: 2,
        });
        let snap = m.snapshot();
        assert_eq!(snap.counter("events.phase"), Some(2));
        assert_eq!(snap.counter("events.kernel_run"), Some(1));
    }
}
