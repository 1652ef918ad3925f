//! Post-hoc blame analysis: turn a recorded event stream into an
//! explanation of where the time went.
//!
//! Three views, in the tradition of Scalasca's wait-state search and
//! MPICH-G2's multi-level timing attribution:
//!
//! * **Per-rank wait-state profile** ([`RankProfile`]): how much of each
//!   rank's run was computation, communication, and — within the
//!   communication — *late-sender* time (a receive posted before the
//!   matching send started) and *late-receiver* time (a rendezvous send
//!   blocked before the matching receive was posted). Span pairing uses
//!   the deterministic `msg_id` carried by send/recv spans, never
//!   heuristics.
//! * **Per-flow transfer decomposition** ([`FlowBlame`]): each TCP
//!   transfer's duration split into slow-start ramp, window-limited
//!   stagnation (cwnd pinned at the socket-buffer bound, still below
//!   ssthresh), congestion-avoidance steady state, RTO stalls, fault
//!   outages, and the sub-round-trip wire remainder — derived from the
//!   `TcpSample` stream the flow engine already emits, one per window
//!   round at the round's virtual time.
//! * **Critical path** ([`CriticalPath`]): a backward walk over the
//!   rank/message dependency graph from the last span to time zero,
//!   hopping rank at matched message edges, with per-activity blame
//!   percentages for the whole run.
//!
//! Alongside them, [`RankProfile::bytes_sent`] and [`Analysis::pairs`]
//! account point-to-point payload bytes, and [`ascii_timeline`] paints
//! the spans as a space-time diagram: the per-rank timelines the paper
//! got from a "modified MPI implementation" (§3.1), as `repro trace`
//! prints them.
//!
//! The analyzer consumes events either live (attach a [`Collector`] as a
//! [`Recorder`]) or replayed from a JSON-lines trace file
//! ([`events_from_jsonl`], the inverse of [`super::export::jsonl`]).
//! Either way it only *reads*: attaching a `Collector` never perturbs
//! virtual time (the observer-effect tests pin this).

use std::collections::HashMap;
use std::sync::OnceLock;

use super::json::{self, Value};
use super::{Event, Recorder};
use crate::sync::Mutex;

// ---------------------------------------------------------------- collector

/// A [`Recorder`] that retains every event in order, unbounded — the
/// live-attachment vehicle for the analyzer (a [`super::RingSink`] would
/// silently drop the oldest events on long runs).
#[derive(Default)]
pub struct Collector {
    events: Mutex<Vec<Event>>,
}

impl Collector {
    /// Fresh, empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Snapshot of the recorded events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for Collector {
    fn record(&self, ev: &Event) {
        self.events.lock().push(ev.clone());
    }
}

// ---------------------------------------------------------------- interning

/// Names the producers use today; replayed traces resolve to the same
/// static strings, so a live stream and its JSONL round trip compare
/// equal under `Event`'s derived `PartialEq`.
const KNOWN_NAMES: &[&str] = &[
    "compute",
    "send",
    "recv",
    "wait_send",
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "allgather",
    "alltoall",
    "alltoallv",
    "gather",
    "scatter",
    "collective",
    "slow_start",
    "congestion_avoidance",
    "progress",
    "fast_recovery",
    "rto_stall",
    "short_ack",
    "link_down",
    "link_up",
    "nic_stall",
    "nic_resume",
    "rank_fail",
    "rank_restart",
    "segment_loss",
    "induced_rto",
    "msg_dropped",
    "chunk_reissued",
    "warmup",
    "timed",
];

/// Intern `s` to a `&'static str`: known producer names resolve without
/// allocation; anything else (application phase markers, future kinds) is
/// leaked once and reused. Replay is a diagnostic path, so the bounded
/// leak (one allocation per distinct unknown name per process) is the
/// price of keeping `Event`'s fields `&'static str`.
fn intern(s: &str) -> &'static str {
    if let Some(k) = KNOWN_NAMES.iter().find(|k| **k == s) {
        return k;
    }
    static EXTRA: OnceLock<std::sync::Mutex<Vec<&'static str>>> = OnceLock::new();
    let extra = EXTRA.get_or_init(|| std::sync::Mutex::new(Vec::new()));
    let mut g = extra.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(k) = g.iter().find(|k| **k == s) {
        return k;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    g.push(leaked);
    leaked
}

// ------------------------------------------------------------ JSONL replay

fn field_u64(obj: &Value, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn field_i64(obj: &Value, key: &str) -> Result<i64, String> {
    obj.get(key)
        .and_then(Value::as_f64)
        .filter(|v| v.fract() == 0.0)
        .map(|v| v as i64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

/// Floats export non-finite values as `null` ([`super::export::json_f64`]);
/// the only non-finite value producers emit is `ssthresh = +inf`, so
/// `null` reads back as infinity.
fn field_f64(obj: &Value, key: &str) -> Result<f64, String> {
    match obj.get(key) {
        Some(Value::Null) => Ok(f64::INFINITY),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("non-numeric field {key:?}")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn field_str(obj: &Value, key: &str) -> Result<&'static str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(intern)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

/// Parse one exported JSON-lines trace back into events — the inverse of
/// [`super::export::jsonl`]. Blank lines are skipped; any malformed line
/// fails the whole replay with its line number (a trace is evidence, and
/// silently dropping part of it would fabricate conclusions). Spans from
/// traces recorded before `msg_id` existed default the field to 0.
pub fn events_from_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(ev);
    }
    Ok(out)
}

fn parse_line(line: &str) -> Result<Event, String> {
    let v = json::parse(line).map_err(|(pos, msg)| format!("invalid JSON at byte {pos}: {msg}"))?;
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing \"kind\"".to_string())?;
    match kind {
        "kernel_run" => Ok(Event::KernelRun {
            end_ns: field_u64(&v, "end_ns")?,
            events: field_u64(&v, "events")?,
        }),
        "tcp_sample" => Ok(Event::TcpSample {
            channel: field_u64(&v, "channel")?,
            t_ns: field_u64(&v, "t_ns")?,
            cwnd: field_u64(&v, "cwnd")?,
            ssthresh: field_f64(&v, "ssthresh")?,
            phase: field_str(&v, "phase")?,
            outcome: field_str(&v, "outcome")?,
        }),
        "flow_start" => Ok(Event::FlowStart {
            channel: field_u64(&v, "channel")?,
            t_ns: field_u64(&v, "t_ns")?,
            bytes: field_u64(&v, "bytes")?,
            queued: field_u64(&v, "queued")?,
        }),
        "flow_finish" => Ok(Event::FlowFinish {
            channel: field_u64(&v, "channel")?,
            t_ns: field_u64(&v, "t_ns")?,
            bytes: field_u64(&v, "bytes")?,
        }),
        "link_sample" => Ok(Event::LinkSample {
            link: field_u64(&v, "link")?,
            t_ns: field_u64(&v, "t_ns")?,
            delivered_bytes: field_f64(&v, "delivered_bytes")?,
        }),
        "mpi_span" => Ok(Event::MpiSpan {
            rank: field_u64(&v, "rank")?,
            op: field_str(&v, "op")?,
            peer: field_i64(&v, "peer")?,
            bytes: field_u64(&v, "bytes")?,
            start_ns: field_u64(&v, "start_ns")?,
            end_ns: field_u64(&v, "end_ns")?,
            msg_id: match v.get("msg_id") {
                Some(_) => field_u64(&v, "msg_id")?,
                None => 0,
            },
        }),
        "phase" => Ok(Event::Phase {
            rank: field_u64(&v, "rank")?,
            name: field_str(&v, "name")?,
            t_ns: field_u64(&v, "t_ns")?,
        }),
        "fault" => Ok(Event::Fault {
            kind: field_str(&v, "fault")?,
            subject: field_u64(&v, "subject")?,
            t_ns: field_u64(&v, "t_ns")?,
            info: field_f64(&v, "info")?,
        }),
        other => Err(format!("unknown event kind {other:?}")),
    }
}

// --------------------------------------------------------- wait-state view

/// Scalasca-style wait-state profile of one rank: where its wall time
/// went, and how much of its blocking was someone else's fault.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankProfile {
    /// The rank.
    pub rank: u64,
    /// Seconds of local computation.
    pub compute_secs: f64,
    /// Seconds initiating sends (eager buffering, handshake start).
    pub send_secs: f64,
    /// Seconds blocked in receives.
    pub recv_secs: f64,
    /// Seconds blocked completing rendezvous sends.
    pub wait_send_secs: f64,
    /// Seconds inside collectives.
    pub collective_secs: f64,
    /// Seconds covered by no span at all (startup skew, jitter).
    pub idle_secs: f64,
    /// Portion of `recv_secs` spent before the matching send even
    /// *started* — blocked purely on a late sender.
    pub late_sender_secs: f64,
    /// Portion of `send_secs + wait_send_secs` spent before the matching
    /// receive was posted — blocked purely on a late receiver.
    pub late_receiver_secs: f64,
    /// Computation imbalance: the heaviest rank's compute time minus this
    /// rank's (0 for the heaviest rank itself).
    pub imbalance_secs: f64,
    /// Point-to-point payload bytes this rank sent.
    pub bytes_sent: u64,
}

impl RankProfile {
    /// Total accounted time (all spans plus idle).
    pub fn total_secs(&self) -> f64 {
        self.compute_secs
            + self.send_secs
            + self.recv_secs
            + self.wait_send_secs
            + self.collective_secs
            + self.idle_secs
    }
}

// ------------------------------------------------------ flow decomposition

/// One TCP transfer's duration, decomposed against the congestion-control
/// state the channel was in while it drained.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowBlame {
    /// Channel the transfer used.
    pub channel: u64,
    /// Transfer start (first byte queued to the wire), ns.
    pub start_ns: u64,
    /// Transfer end (last byte left the sender), ns.
    pub end_ns: u64,
    /// Wire bytes moved.
    pub bytes: u64,
    /// Slow-start ramp: rounds where cwnd was still growing below
    /// ssthresh.
    pub slow_start_secs: f64,
    /// Window-limited stagnation: rounds still in the slow-start phase
    /// (never lost a segment, ssthresh untouched) but with cwnd pinned at
    /// the socket-buffer bound — the untuned-kernel signature.
    pub window_limited_secs: f64,
    /// Congestion-avoidance steady state (post-loss ramp and cruise).
    pub cong_avoid_secs: f64,
    /// Retransmission-timeout stalls (organic overshoot or injected loss).
    pub rto_stall_secs: f64,
    /// Time inside injected fault outages (link down, NIC stalled).
    pub outage_secs: f64,
    /// Sub-round-trip remainder: serialization and propagation of
    /// transfers (or tails) too short to produce a window round.
    pub wire_secs: f64,
    /// TCP samples observed while this flow drained.
    pub samples: u64,
}

impl FlowBlame {
    /// Transfer duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }

    /// Fraction of the duration spent in the slow-start phase, ramping or
    /// pinned below ssthresh. The paper's untuned 64 MB WAN transfers
    /// never leave this phase; tuned ones exit it after the first
    /// overshoot.
    pub fn slow_start_share(&self) -> f64 {
        let d = self.duration_secs();
        if d <= 0.0 {
            return 0.0;
        }
        (self.slow_start_secs + self.window_limited_secs) / d
    }
}

// ------------------------------------------------------- message pairing

/// One point-to-point message's life, paired by `msg_id` and aligned with
/// the wire flow that carried its payload.
#[derive(Clone, Debug, PartialEq)]
pub struct MessageBlame {
    /// Deterministic message id (pair index + per-pair sequence).
    pub msg_id: u64,
    /// Sending rank.
    pub src: u64,
    /// Receiving rank.
    pub dst: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Send-span start, ns.
    pub start_ns: u64,
    /// Recv-span end (payload landed), ns.
    pub end_ns: u64,
    /// Seconds from send start until the payload's first byte hit the
    /// wire: software overhead plus — for rendezvous — the control
    /// round trip. The eager/rendezvous protocol gap lives here.
    pub handshake_secs: f64,
    /// Seconds from wire start until the receive completed.
    pub transfer_secs: f64,
}

// ---------------------------------------------------------- critical path

/// One segment of the critical path: `rank` spent `[start_ns, end_ns]`
/// doing `kind` (`"compute"`, `"transfer"`, `"send"`, `"collective"`,
/// `"idle"`, `"startup"`, …).
#[derive(Clone, Debug, PartialEq)]
pub struct PathSegment {
    /// Rank on the path during this segment.
    pub rank: u64,
    /// Activity blamed for the segment.
    pub kind: &'static str,
    /// Segment start, ns.
    pub start_ns: u64,
    /// Segment end, ns.
    pub end_ns: u64,
}

impl PathSegment {
    /// Segment length in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// The run's critical path: the dependency chain ending at the last MPI
/// span, walked backward to time zero.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// Segments in forward time order; contiguous in time from 0 to
    /// `end_ns`.
    pub segments: Vec<PathSegment>,
    /// Path end (the run's last span end), ns.
    pub end_ns: u64,
    /// Seconds on the path per activity kind, heaviest first.
    pub blame: Vec<(&'static str, f64)>,
}

impl CriticalPath {
    /// Percentage of the path blamed on `kind`.
    pub fn share(&self, kind: &str) -> f64 {
        if self.end_ns == 0 {
            return 0.0;
        }
        let secs = self
            .blame
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |(_, s)| *s);
        secs / (self.end_ns as f64 / 1e9)
    }
}

// ---------------------------------------------------------------- analysis

/// A span index the analyses share.
#[derive(Clone, Copy, Debug)]
struct Span {
    rank: u64,
    op: &'static str,
    peer: i64,
    bytes: u64,
    start_ns: u64,
    end_ns: u64,
    msg_id: u64,
}

/// The complete blame analysis of one event stream.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Wait-state profile per rank (indexed by appearance order; each
    /// profile names its rank).
    pub ranks: Vec<RankProfile>,
    /// Transfer decomposition per flow, in start order.
    pub flows: Vec<FlowBlame>,
    /// Paired point-to-point messages, in send order.
    pub messages: Vec<MessageBlame>,
    /// Point-to-point payload bytes per directed rank pair as
    /// `(src, dst, bytes)`, heaviest first (ties in pair order).
    pub pairs: Vec<(u64, u64, u64)>,
    /// Critical path (absent when the stream has no MPI spans).
    pub path: Option<CriticalPath>,
}

impl Analysis {
    /// Analyze a recorded stream. `header_bytes` is the MPI envelope the
    /// sender adds to each payload on the wire (used to align messages
    /// with their data flows; `mpisim` uses 64).
    pub fn from_events(events: &[Event], header_bytes: u64) -> Analysis {
        let spans = collect_spans(events);
        let flows = analyze_flows(events);
        let messages = pair_messages(&spans, &flows, header_bytes);
        let ranks = rank_profiles(&spans);
        let pairs = pair_bytes(&spans);
        let path = critical_path(&spans);
        Analysis {
            ranks,
            flows,
            messages,
            pairs,
            path,
        }
    }

    /// Aggregate transfer decomposition across all flows.
    pub fn flow_totals(&self) -> FlowTotals {
        let mut t = FlowTotals {
            flows: self.flows.len(),
            ..FlowTotals::default()
        };
        for f in &self.flows {
            t.slow_start += f.slow_start_secs;
            t.window_limited += f.window_limited_secs;
            t.cong_avoid += f.cong_avoid_secs;
            t.rto_stall += f.rto_stall_secs;
            t.outage += f.outage_secs;
            t.wire += f.wire_secs;
        }
        t
    }

    /// Aggregate slow-start share across all flows (duration-weighted).
    pub fn slow_start_share(&self) -> f64 {
        let total: f64 = self.flows.iter().map(FlowBlame::duration_secs).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let ss: f64 = self
            .flows
            .iter()
            .map(|f| f.slow_start_secs + f.window_limited_secs)
            .sum();
        ss / total
    }
}

/// Aggregate transfer decomposition over every flow in an analysis — the
/// per-bucket seconds the blame report and the campaign ledger both emit.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FlowTotals {
    /// Flow count.
    pub flows: usize,
    /// Total slow-start ramp seconds.
    pub slow_start: f64,
    /// Total window-limited stagnation seconds.
    pub window_limited: f64,
    /// Total congestion-avoidance seconds.
    pub cong_avoid: f64,
    /// Total RTO-stall seconds.
    pub rto_stall: f64,
    /// Total fault-outage seconds.
    pub outage: f64,
    /// Total sub-RTT wire seconds.
    pub wire: f64,
}

impl FlowTotals {
    /// Sum of every bucket.
    pub fn total(&self) -> f64 {
        self.slow_start
            + self.window_limited
            + self.cong_avoid
            + self.rto_stall
            + self.outage
            + self.wire
    }

    /// The buckets as `(name, seconds)` rows, in report order.
    pub fn rows(&self) -> [(&'static str, f64); 6] {
        [
            ("slow_start", self.slow_start),
            ("window_limited", self.window_limited),
            ("cong_avoid", self.cong_avoid),
            ("rto_stall", self.rto_stall),
            ("outage", self.outage),
            ("wire", self.wire),
        ]
    }
}

fn collect_spans(events: &[Event]) -> Vec<Span> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::MpiSpan {
                rank,
                op,
                peer,
                bytes,
                start_ns,
                end_ns,
                msg_id,
            } => Some(Span {
                rank: *rank,
                op,
                peer: *peer,
                bytes: *bytes,
                start_ns: *start_ns,
                end_ns: *end_ns,
                msg_id: *msg_id,
            }),
            _ => None,
        })
        .collect()
}

fn is_p2p(op: &str) -> bool {
    matches!(op, "send" | "recv" | "wait_send")
}

fn rank_profiles(spans: &[Span]) -> Vec<RankProfile> {
    let mut by_rank: HashMap<u64, RankProfile> = HashMap::new();
    let mut sends: HashMap<u64, &Span> = HashMap::new();
    let mut recvs: HashMap<u64, &Span> = HashMap::new();
    for s in spans {
        if s.msg_id != 0 {
            match s.op {
                "send" => {
                    sends.entry(s.msg_id).or_insert(s);
                }
                "recv" => {
                    recvs.entry(s.msg_id).or_insert(s);
                }
                _ => {}
            }
        }
    }
    let mut bounds: HashMap<u64, (u64, u64, f64)> = HashMap::new(); // (first start, last end, busy)
    for s in spans {
        let p = by_rank.entry(s.rank).or_insert_with(|| RankProfile {
            rank: s.rank,
            ..RankProfile::default()
        });
        let secs = s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;
        match s.op {
            "compute" => p.compute_secs += secs,
            "send" => {
                p.send_secs += secs;
                p.bytes_sent += s.bytes;
            }
            "recv" => p.recv_secs += secs,
            "wait_send" => p.wait_send_secs += secs,
            _ => p.collective_secs += secs,
        }
        // Late sender: the receive was already blocked when the matching
        // send began.
        if s.op == "recv" {
            if let Some(send) = sends.get(&s.msg_id) {
                let waited = send.start_ns.min(s.end_ns).saturating_sub(s.start_ns);
                p.late_sender_secs += waited as f64 / 1e9;
            }
        }
        // Late receiver: the rendezvous send was already blocked when the
        // matching receive was posted.
        if s.op == "wait_send" {
            if let Some(recv) = recvs.get(&s.msg_id) {
                let waited = recv.start_ns.min(s.end_ns).saturating_sub(s.start_ns);
                p.late_receiver_secs += waited as f64 / 1e9;
            }
        }
        let b = bounds.entry(s.rank).or_insert((u64::MAX, 0, 0.0));
        b.0 = b.0.min(s.start_ns);
        b.1 = b.1.max(s.end_ns);
        b.2 += secs;
    }
    let run_end = bounds.values().map(|b| b.1).max().unwrap_or(0);
    let max_compute = by_rank.values().map(|p| p.compute_secs).fold(0.0, f64::max);
    let mut out: Vec<RankProfile> = by_rank.into_values().collect();
    out.sort_by_key(|p| p.rank);
    for p in &mut out {
        let (first, _, busy) = bounds[&p.rank];
        // Idle = everything in [0, run end] not covered by a span —
        // counting the startup skew before the rank's first span.
        let window = run_end as f64 / 1e9;
        p.idle_secs = (window - busy - first as f64 / 1e9).max(0.0) + first as f64 / 1e9;
        p.imbalance_secs = max_compute - p.compute_secs;
    }
    out
}

fn pair_bytes(spans: &[Span]) -> Vec<(u64, u64, u64)> {
    let mut by_pair: HashMap<(u64, u64), u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.op == "send" && s.peer >= 0) {
        *by_pair.entry((s.rank, s.peer as u64)).or_insert(0) += s.bytes;
    }
    let mut pairs: Vec<(u64, u64, u64)> =
        by_pair.into_iter().map(|((a, b), n)| (a, b, n)).collect();
    pairs.sort_by(|x, y| y.2.cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));
    pairs
}

/// Render an ASCII space-time diagram of the MPI spans in `events`: one
/// row per rank, `width` columns over `[t0_ns, t1_ns]`; `C` compute, `s`
/// send/wait, `r` receive, `A` collective, `.` idle.
pub fn ascii_timeline(
    events: &[Event],
    ranks: usize,
    t0_ns: u64,
    t1_ns: u64,
    width: usize,
) -> Vec<String> {
    if width == 0 || t1_ns <= t0_ns {
        // A zero-width canvas or an empty/inverted window has nothing to
        // paint (and `width - 1` below would underflow).
        return vec![String::new(); ranks];
    }
    let span = (t1_ns - t0_ns) as f64;
    let mut rows = vec![vec!['.'; width]; ranks];
    // Paint in priority order: collectives under p2p under compute, so the
    // densest information wins ties within a cell.
    let mut spans = collect_spans(events);
    spans.sort_by_key(|s| match s.op {
        "compute" => 2,
        op if is_p2p(op) => 1,
        _ => 0,
    });
    for s in spans {
        let rank = s.rank as usize;
        if rank >= ranks || s.end_ns < t0_ns || s.start_ns > t1_ns {
            continue;
        }
        let a = ((s.start_ns.max(t0_ns) - t0_ns) as f64 / span * width as f64) as usize;
        let b = ((s.end_ns.min(t1_ns) - t0_ns) as f64 / span * width as f64) as usize;
        let c = match s.op {
            "compute" => 'C',
            "send" | "wait_send" => 's',
            "recv" => 'r',
            _ => 'A',
        };
        for cell in &mut rows[rank][a.min(width - 1)..=b.min(width - 1)] {
            *cell = c;
        }
    }
    rows.into_iter().map(|r| r.into_iter().collect()).collect()
}

/// Classification of one inter-sample segment of a flow.
fn classify(
    prev_outcome: Option<&str>,
    phase: &str,
    outcome: &str,
    cwnd: u64,
    prev_cwnd: Option<u64>,
) -> Bucket {
    if prev_outcome == Some("rto_stall") {
        // The stall *follows* the sample that reported it: the connection
        // sat silent for the RTO before this round could happen.
        return Bucket::RtoStall;
    }
    if outcome == "short_ack" {
        return Bucket::Wire;
    }
    if phase == "slow_start" {
        match prev_cwnd {
            Some(pc) if cwnd <= pc => Bucket::WindowLimited,
            _ => Bucket::SlowStart,
        }
    } else {
        Bucket::CongAvoid
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Bucket {
    SlowStart,
    WindowLimited,
    CongAvoid,
    RtoStall,
    Wire,
}

fn analyze_flows(events: &[Event]) -> Vec<FlowBlame> {
    // Injected outages: [t, t + duration] windows during which no data
    // moves, attributed separately from congestion behaviour.
    let mut outages: Vec<(u64, u64)> = Vec::new();
    let mut samples: HashMap<u64, Vec<(u64, u64, &'static str, &'static str)>> = HashMap::new();
    let mut open: HashMap<u64, Vec<(u64, u64)>> = HashMap::new(); // channel -> FIFO of (start, bytes)
    let mut flows: Vec<(u64, u64, u64, u64)> = Vec::new(); // (channel, start, end, bytes)
    for e in events {
        match e {
            Event::Fault {
                kind, t_ns, info, ..
            } if matches!(*kind, "link_down" | "nic_stall") && *info > 0.0 => {
                outages.push((*t_ns, t_ns.saturating_add((*info * 1e9) as u64)));
            }
            Event::TcpSample {
                channel,
                t_ns,
                cwnd,
                phase,
                outcome,
                ..
            } => samples
                .entry(*channel)
                .or_default()
                .push((*t_ns, *cwnd, phase, outcome)),
            Event::FlowStart {
                channel,
                t_ns,
                bytes,
                ..
            } => open.entry(*channel).or_default().push((*t_ns, *bytes)),
            Event::FlowFinish {
                channel,
                t_ns,
                bytes,
            } => {
                // FIFO matching: each channel drains one transfer at a
                // time, so the earliest unmatched start is the finisher.
                let (start, b) = match open.get_mut(channel).filter(|q| !q.is_empty()) {
                    Some(q) => q.remove(0),
                    None => (*t_ns, *bytes),
                };
                flows.push((*channel, start, *t_ns, b));
            }
            _ => {}
        }
    }
    flows.sort_by_key(|f| (f.1, f.0));
    let outage_overlap = |a: u64, b: u64| -> u64 {
        outages
            .iter()
            .map(|&(s, e)| e.min(b).saturating_sub(s.max(a)))
            .sum()
    };
    flows
        .into_iter()
        .map(|(channel, start, end, bytes)| {
            let mut fb = FlowBlame {
                channel,
                start_ns: start,
                end_ns: end,
                bytes,
                slow_start_secs: 0.0,
                window_limited_secs: 0.0,
                cong_avoid_secs: 0.0,
                rto_stall_secs: 0.0,
                outage_secs: 0.0,
                wire_secs: 0.0,
                samples: 0,
            };
            let add = |fb: &mut FlowBlame, bucket: Bucket, a: u64, b: u64| {
                let b = b.max(a);
                let out = outage_overlap(a, b);
                let secs = (b - a).saturating_sub(out) as f64 / 1e9;
                fb.outage_secs += out as f64 / 1e9;
                match bucket {
                    Bucket::SlowStart => fb.slow_start_secs += secs,
                    Bucket::WindowLimited => fb.window_limited_secs += secs,
                    Bucket::CongAvoid => fb.cong_avoid_secs += secs,
                    Bucket::RtoStall => fb.rto_stall_secs += secs,
                    Bucket::Wire => fb.wire_secs += secs,
                }
            };
            let in_flow: Vec<&(u64, u64, &'static str, &'static str)> = samples
                .get(&channel)
                .map(|v| v.iter().filter(|(t, ..)| *t > start && *t <= end).collect())
                .unwrap_or_default();
            fb.samples = in_flow.len() as u64;
            let mut cursor = start;
            let mut prev: Option<&(u64, u64, &'static str, &'static str)> = None;
            for s in &in_flow {
                let (t, cwnd, phase, outcome) = **s;
                let bucket = classify(prev.map(|p| p.3), phase, outcome, cwnd, prev.map(|p| p.1));
                add(&mut fb, bucket, cursor, t);
                cursor = t;
                prev = Some(s);
            }
            // Tail after the last sample (or the whole flow when no round
            // completed): classified by the state the channel was left in.
            let tail_bucket = match prev {
                None => Bucket::Wire,
                Some(&(t_last, cwnd, phase, outcome)) => {
                    let prev_prev = if in_flow.len() >= 2 {
                        Some(in_flow[in_flow.len() - 2])
                    } else {
                        None
                    };
                    let mut bucket = classify(
                        Some(outcome),
                        phase,
                        "progress",
                        cwnd,
                        prev_prev.map(|p| p.1),
                    );
                    // A slow-start channel samples once per round trip while
                    // cwnd still grows; saturated channels (cwnd pinned at
                    // the socket-buffer cap) schedule no further rounds at
                    // all. A silent tail much longer than the sampling
                    // cadence is therefore the window-limited plateau, not
                    // more ramp.
                    if bucket == Bucket::SlowStart {
                        if let Some(pp) = prev_prev {
                            let cadence = t_last.saturating_sub(pp.0);
                            if end.saturating_sub(t_last) > 2 * cadence {
                                bucket = Bucket::WindowLimited;
                            }
                        }
                    }
                    bucket
                }
            };
            add(&mut fb, tail_bucket, cursor, end);
            fb
        })
        .collect()
}

fn pair_messages(spans: &[Span], flows: &[FlowBlame], header_bytes: u64) -> Vec<MessageBlame> {
    let mut sends: Vec<&Span> = spans
        .iter()
        .filter(|s| s.op == "send" && s.msg_id != 0)
        .collect();
    sends.sort_by_key(|s| s.start_ns);
    let mut recvs: HashMap<u64, &Span> = HashMap::new();
    for s in spans.iter().filter(|s| s.op == "recv" && s.msg_id != 0) {
        recvs.entry(s.msg_id).or_insert(s);
    }
    let mut claimed = vec![false; flows.len()];
    sends
        .iter()
        .filter_map(|send| {
            let recv = recvs.get(&send.msg_id)?;
            // The payload flow carries exactly bytes + header and starts
            // inside the message window; earliest unclaimed match wins
            // (per-channel FIFO order makes this exact for ping-pongs and
            // conservative under concurrency).
            let wire = send.bytes + header_bytes;
            let flow = flows.iter().enumerate().find(|(i, f)| {
                !claimed[*i]
                    && f.bytes == wire
                    && f.start_ns >= send.start_ns
                    && f.start_ns <= recv.end_ns
            });
            let (handshake, transfer) = match flow {
                Some((i, f)) => {
                    claimed[i] = true;
                    (
                        f.start_ns.saturating_sub(send.start_ns) as f64 / 1e9,
                        recv.end_ns.saturating_sub(f.start_ns) as f64 / 1e9,
                    )
                }
                None => (0.0, recv.end_ns.saturating_sub(send.start_ns) as f64 / 1e9),
            };
            Some(MessageBlame {
                msg_id: send.msg_id,
                src: send.rank,
                dst: recv.rank,
                bytes: send.bytes,
                start_ns: send.start_ns,
                end_ns: recv.end_ns,
                handshake_secs: handshake,
                transfer_secs: transfer,
            })
        })
        .collect()
}

fn path_kind(op: &'static str) -> &'static str {
    if is_p2p(op) || op == "compute" {
        op
    } else {
        "collective"
    }
}

fn critical_path(spans: &[Span]) -> Option<CriticalPath> {
    let mut by_rank: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut sends: HashMap<u64, &Span> = HashMap::new();
    let mut recvs: HashMap<u64, &Span> = HashMap::new();
    for s in spans {
        by_rank.entry(s.rank).or_default().push(s);
        if s.msg_id != 0 {
            if s.op == "send" {
                sends.entry(s.msg_id).or_insert(s);
            } else if s.op == "recv" {
                recvs.entry(s.msg_id).or_insert(s);
            }
        }
    }
    for v in by_rank.values_mut() {
        v.sort_by_key(|s| (s.start_ns, s.end_ns));
    }
    let last = spans.iter().max_by_key(|s| s.end_ns)?;
    let (mut rank, mut t) = (last.rank, last.end_ns);
    let end_ns = t;
    let mut segs: Vec<PathSegment> = Vec::new();
    let push = |segs: &mut Vec<PathSegment>, rank: u64, kind: &'static str, a: u64, b: u64| {
        if b > a {
            segs.push(PathSegment {
                rank,
                kind,
                start_ns: a,
                end_ns: b,
            });
        }
    };
    // The walk strictly decreases `t` (every arm moves to a span start,
    // a span end, or a send start below `t`), so it terminates; the guard
    // is a belt against malformed streams with zero-length cycles.
    let mut guard = spans.len() * 4 + 64;
    while t > 0 {
        guard -= 1;
        if guard == 0 {
            break;
        }
        // The latest span on this rank starting strictly before t.
        let sp = by_rank
            .get(&rank)
            .and_then(|v| v.iter().rev().find(|s| s.start_ns < t).copied());
        let Some(sp) = sp else {
            // Nothing earlier on this rank: the remainder is startup.
            push(&mut segs, rank, "startup", 0, t);
            break;
        };
        if sp.end_ns < t {
            // Gap between spans: untraced local time.
            push(&mut segs, rank, "idle", sp.end_ns, t);
            t = sp.end_ns;
            continue;
        }
        match sp.op {
            "recv" => {
                if let Some(send) = sends.get(&sp.msg_id).filter(|_| sp.msg_id != 0) {
                    let from = send.start_ns.max(sp.start_ns).min(t);
                    push(&mut segs, rank, "transfer", from, t);
                    if send.start_ns > sp.start_ns && send.rank != rank {
                        // Late sender: the wait is the sender's earlier
                        // activity — hop the edge and keep walking there.
                        rank = send.rank;
                        t = send.start_ns;
                    } else {
                        t = sp.start_ns;
                    }
                } else {
                    push(&mut segs, rank, "transfer", sp.start_ns.min(t), t);
                    t = sp.start_ns;
                }
            }
            "wait_send" => {
                if let Some(recv) = recvs.get(&sp.msg_id).filter(|_| sp.msg_id != 0) {
                    let from = recv.start_ns.max(sp.start_ns).min(t);
                    push(&mut segs, rank, "transfer", from, t);
                    if recv.start_ns > sp.start_ns && recv.rank != rank {
                        // Late receiver: hop to the receiving rank.
                        rank = recv.rank;
                        t = recv.start_ns;
                    } else {
                        t = sp.start_ns;
                    }
                } else {
                    push(&mut segs, rank, "transfer", sp.start_ns.min(t), t);
                    t = sp.start_ns;
                }
            }
            op => {
                push(&mut segs, rank, path_kind(op), sp.start_ns.min(t), t);
                t = sp.start_ns;
            }
        }
    }
    segs.reverse();
    let mut blame: HashMap<&'static str, f64> = HashMap::new();
    for s in &segs {
        *blame.entry(s.kind).or_insert(0.0) += s.secs();
    }
    let mut blame: Vec<(&'static str, f64)> = blame.into_iter().collect();
    blame.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    Some(CriticalPath {
        segments: segs,
        end_ns,
        blame,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        rank: u64,
        op: &'static str,
        bytes: u64,
        start_ns: u64,
        end_ns: u64,
        msg_id: u64,
    ) -> Event {
        Event::MpiSpan {
            rank,
            op,
            peer: -1,
            bytes,
            start_ns,
            end_ns,
            msg_id,
        }
    }

    fn tcp(t_ns: u64, cwnd: u64, phase: &'static str, outcome: &'static str) -> Event {
        Event::TcpSample {
            channel: 0,
            t_ns,
            cwnd,
            ssthresh: f64::INFINITY,
            phase,
            outcome,
        }
    }

    #[test]
    fn collector_retains_everything_in_order() {
        let c = Collector::new();
        for i in 0..10_000u64 {
            c.record(&Event::Phase {
                rank: 0,
                name: "p",
                t_ns: i,
            });
        }
        assert_eq!(c.len(), 10_000);
        let evs = c.events();
        assert!(matches!(evs[9_999], Event::Phase { t_ns: 9_999, .. }));
    }

    #[test]
    fn late_sender_is_charged_to_the_receive() {
        // Rank 1 posts its receive at t=0; the matching send starts at 60.
        let events = vec![
            span(0, "compute", 0, 0, 60, 0),
            span(0, "send", 100, 60, 70, 5),
            span(1, "recv", 100, 0, 100, 5),
        ];
        let a = Analysis::from_events(&events, 64);
        let r1 = a.ranks.iter().find(|p| p.rank == 1).unwrap();
        assert!((r1.late_sender_secs - 60e-9).abs() < 1e-15);
        assert!((r1.recv_secs - 100e-9).abs() < 1e-15);
        let r0 = a.ranks.iter().find(|p| p.rank == 0).unwrap();
        assert_eq!(r0.late_sender_secs, 0.0);
        // Rank 1 computes nothing: the whole compute imbalance is its.
        assert!((r1.imbalance_secs - 60e-9).abs() < 1e-15);
        assert_eq!(r0.imbalance_secs, 0.0);
    }

    #[test]
    fn late_receiver_is_charged_to_the_wait() {
        // Rank 0's rendezvous send blocks from t=0; the receive is only
        // posted at t=80.
        let events = vec![
            span(0, "send", 1 << 20, 0, 10, 9),
            span(0, "wait_send", 0, 10, 200, 9),
            span(1, "compute", 0, 0, 80, 0),
            span(1, "recv", 1 << 20, 80, 200, 9),
        ];
        let a = Analysis::from_events(&events, 64);
        let r0 = a.ranks.iter().find(|p| p.rank == 0).unwrap();
        assert!((r0.late_receiver_secs - 70e-9).abs() < 1e-15);
    }

    #[test]
    fn flow_decomposition_buckets() {
        // One flow on channel 0 over [0, 500]: ramp rounds at 100 and 200
        // (cwnd grows), a stagnant round at 300 (window-limited), an
        // rto_stall round at 400 whose stall covers [400, 500].
        let events = vec![
            Event::FlowStart {
                channel: 0,
                t_ns: 0,
                bytes: 1 << 20,
                queued: 0,
            },
            tcp(100, 2_000, "slow_start", "progress"),
            tcp(200, 4_000, "slow_start", "progress"),
            tcp(300, 4_000, "slow_start", "progress"),
            tcp(400, 4_000, "slow_start", "rto_stall"),
            Event::FlowFinish {
                channel: 0,
                t_ns: 500,
                bytes: 1 << 20,
            },
        ];
        let a = Analysis::from_events(&events, 64);
        assert_eq!(a.flows.len(), 1);
        let f = &a.flows[0];
        assert_eq!(f.samples, 4);
        // [0,100] first sample (no prev) + [100,200] growing -> ramp.
        assert!((f.slow_start_secs - 200e-9).abs() < 1e-15);
        // [200,300] stagnant + [300,400] stagnant -> window-limited.
        assert!((f.window_limited_secs - 200e-9).abs() < 1e-15);
        // Tail [400,500] follows the rto_stall sample -> stall.
        assert!((f.rto_stall_secs - 100e-9).abs() < 1e-15);
        assert!((f.slow_start_share() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn silent_slow_start_tail_is_window_limited() {
        // Ramp samples every 100 ns, then silence for 18x the cadence:
        // the channel was parked at the window cap (saturated channels
        // schedule no rounds), so the tail is plateau, not more ramp.
        let events = vec![
            Event::FlowStart {
                channel: 0,
                t_ns: 0,
                bytes: 1 << 26,
                queued: 0,
            },
            tcp(100, 2_000, "slow_start", "progress"),
            tcp(200, 4_000, "slow_start", "progress"),
            Event::FlowFinish {
                channel: 0,
                t_ns: 2_000,
                bytes: 1 << 26,
            },
        ];
        let a = Analysis::from_events(&events, 64);
        let f = &a.flows[0];
        assert!((f.slow_start_secs - 200e-9).abs() < 1e-15);
        assert!((f.window_limited_secs - 1_800e-9).abs() < 1e-15);
        assert!((f.slow_start_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn short_flow_is_wire_time() {
        let events = vec![
            Event::FlowStart {
                channel: 2,
                t_ns: 10,
                bytes: 4_160,
                queued: 0,
            },
            Event::TcpSample {
                channel: 2,
                t_ns: 90,
                cwnd: 4_344,
                ssthresh: f64::INFINITY,
                phase: "slow_start",
                outcome: "short_ack",
            },
            Event::FlowFinish {
                channel: 2,
                t_ns: 90,
                bytes: 4_160,
            },
        ];
        let a = Analysis::from_events(&events, 64);
        let f = &a.flows[0];
        assert!((f.wire_secs - 80e-9).abs() < 1e-15);
        assert_eq!(f.slow_start_share(), 0.0);
    }

    #[test]
    fn outage_time_is_split_out() {
        let events = vec![
            Event::FlowStart {
                channel: 0,
                t_ns: 0,
                bytes: 1 << 20,
                queued: 0,
            },
            Event::Fault {
                kind: "link_down",
                subject: 0,
                t_ns: 100,
                info: 100e-9, // 100 ns outage
            },
            Event::FlowFinish {
                channel: 0,
                t_ns: 400,
                bytes: 1 << 20,
            },
        ];
        let a = Analysis::from_events(&events, 64);
        let f = &a.flows[0];
        assert!((f.outage_secs - 100e-9).abs() < 1e-15);
        assert!((f.wire_secs - 300e-9).abs() < 1e-15);
    }

    #[test]
    fn messages_pair_and_split_handshake() {
        // Rendezvous shape: send span at 0, data flow starts at 40 (the
        // handshake RTT), receive completes at 100.
        let events = vec![
            span(0, "send", 1_000, 0, 5, 3),
            span(0, "wait_send", 0, 5, 100, 3),
            span(1, "recv", 1_000, 0, 100, 3),
            Event::FlowStart {
                channel: 0,
                t_ns: 40,
                bytes: 1_064,
                queued: 0,
            },
            Event::FlowFinish {
                channel: 0,
                t_ns: 95,
                bytes: 1_064,
            },
        ];
        let a = Analysis::from_events(&events, 64);
        assert_eq!(a.messages.len(), 1);
        let m = &a.messages[0];
        assert_eq!((m.src, m.dst, m.msg_id), (0, 1, 3));
        assert!((m.handshake_secs - 40e-9).abs() < 1e-15);
        assert!((m.transfer_secs - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn critical_path_hops_to_the_late_sender() {
        // Rank 1 waits from 0; rank 0 computes until 60, sends, data
        // lands at 100, rank 1 computes to 130. Path: rank0 compute
        // [0,60], transfer [60,100], rank1 compute [100,130].
        let events = vec![
            span(0, "compute", 0, 0, 60, 0),
            span(0, "send", 100, 60, 61, 5),
            span(1, "recv", 100, 0, 100, 5),
            span(1, "compute", 0, 100, 130, 0),
        ];
        let a = Analysis::from_events(&events, 64);
        let p = a.path.expect("has a path");
        assert_eq!(p.end_ns, 130);
        let kinds: Vec<(&str, u64)> = p.segments.iter().map(|s| (s.kind, s.rank)).collect();
        assert_eq!(kinds, vec![("compute", 0), ("transfer", 1), ("compute", 1)]);
        assert!((p.share("transfer") - 40.0 / 130.0).abs() < 1e-12);
        // Segments tile [0, end] with no holes.
        let mut t = 0;
        for s in &p.segments {
            assert_eq!(s.start_ns, t);
            t = s.end_ns;
        }
        assert_eq!(t, 130);
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let events = vec![
            Event::KernelRun {
                end_ns: 10,
                events: 3,
            },
            tcp(5, 2_920, "slow_start", "progress"),
            Event::FlowStart {
                channel: 1,
                t_ns: 0,
                bytes: 64,
                queued: 2,
            },
            Event::FlowFinish {
                channel: 1,
                t_ns: 9,
                bytes: 64,
            },
            Event::LinkSample {
                link: 4,
                t_ns: 9,
                delivered_bytes: 64.5,
            },
            span(3, "recv", 1 << 16, 1, 9, 77),
            Event::Phase {
                rank: 2,
                name: "a custom phase name",
                t_ns: 4,
            },
            Event::Fault {
                kind: "nic_stall",
                subject: 1,
                t_ns: 6,
                info: 0.25,
            },
        ];
        let text = super::super::export::jsonl(&events);
        let back = events_from_jsonl(&text).expect("replay parses");
        assert_eq!(back, events);
    }

    #[test]
    fn jsonl_replay_reports_bad_lines() {
        let err = events_from_jsonl("{\"kind\":\"phase\",\"rank\":0}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = events_from_jsonl("{}\n").unwrap_err();
        assert!(err.contains("kind"), "{err}");
        let err = events_from_jsonl("{\"kind\":\"starlight\"}\n").unwrap_err();
        assert!(err.contains("starlight"), "{err}");
        assert!(events_from_jsonl("\n\n").unwrap().is_empty());
    }

    #[test]
    fn replay_defaults_missing_msg_id_to_zero() {
        let line = "{\"kind\":\"mpi_span\",\"rank\":1,\"op\":\"send\",\"peer\":0,\
                    \"bytes\":8,\"start_ns\":0,\"end_ns\":5}\n";
        let evs = events_from_jsonl(line).expect("old traces still replay");
        assert!(matches!(evs[0], Event::MpiSpan { msg_id: 0, .. }));
    }

    fn p2p(rank: u64, op: &'static str, peer: i64, bytes: u64, a: u64, b: u64) -> Event {
        Event::MpiSpan {
            rank,
            op,
            peer,
            bytes,
            start_ns: a,
            end_ns: b,
            msg_id: 0,
        }
    }

    #[test]
    fn summary_accumulates_by_kind() {
        let events = vec![
            span(0, "compute", 0, 0, 1_000_000_000, 0),
            p2p(0, "send", 1, 500, 1_000_000_000, 1_100_000_000),
            p2p(1, "recv", 0, 0, 0, 1_100_000_000),
            span(1, "bcast", 64, 2_000_000_000, 2_500_000_000, 0),
        ];
        let a = Analysis::from_events(&events, 64);
        let (r0, r1) = (&a.ranks[0], &a.ranks[1]);
        let p2p_secs = |p: &RankProfile| p.send_secs + p.recv_secs + p.wait_send_secs;
        assert!((r0.compute_secs - 1.0).abs() < 1e-9);
        assert!((p2p_secs(r0) - 0.1).abs() < 1e-9);
        assert_eq!(r0.bytes_sent, 500);
        assert!((p2p_secs(r1) - 1.1).abs() < 1e-9);
        assert!((r1.collective_secs - 0.5).abs() < 1e-9);
        assert_eq!(r1.bytes_sent, 0);
        assert_eq!(a.pairs, vec![(0, 1, 500)]);
    }

    #[test]
    fn timeline_paints_rows() {
        let events = vec![
            span(0, "compute", 0, 0, 50, 0),
            p2p(0, "recv", 1, 0, 50, 100),
            span(1, "barrier", 0, 0, 100, 0),
        ];
        let rows = ascii_timeline(&events, 2, 0, 100, 10);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with('C'));
        assert!(rows[0].ends_with('r'));
        assert!(rows[1].chars().all(|c| c == 'A'));
    }

    #[test]
    fn timeline_clips_out_of_range_events() {
        let events = vec![span(0, "compute", 0, 200, 300, 0)];
        let rows = ascii_timeline(&events, 1, 0, 100, 10);
        assert!(rows[0].chars().all(|c| c == '.'));
    }

    #[test]
    fn timeline_degenerate_inputs_yield_empty_rows() {
        let events = vec![span(0, "compute", 0, 0, 50, 0)];
        // width == 0 used to underflow `width - 1` in the slice bound.
        let rows = ascii_timeline(&events, 2, 0, 100, 0);
        assert_eq!(rows, vec![String::new(), String::new()]);
        // Empty window (t1 == t0) and inverted window (t1 < t0).
        let rows = ascii_timeline(&events, 1, 100, 100, 10);
        assert_eq!(rows, vec![String::new()]);
        let rows = ascii_timeline(&events, 1, 100, 50, 10);
        assert_eq!(rows, vec![String::new()]);
        // No ranks: no rows, still no panic.
        assert!(ascii_timeline(&events, 0, 0, 100, 0).is_empty());
    }

    #[test]
    fn secs_clamps_inverted_spans() {
        // A malformed span (end before start) counts as zero seconds
        // rather than wrapping to ~584 years.
        let a = Analysis::from_events(&[span(0, "compute", 0, 100, 40, 0)], 64);
        assert_eq!(a.ranks[0].compute_secs, 0.0);
    }

    #[test]
    fn kind_names_are_stable() {
        let events = vec![
            span(0, "compute", 0, 0, 10, 0),
            span(0, "wait_send", 0, 10, 30, 0),
            span(0, "allreduce", 8, 30, 60, 0),
        ];
        let r = &Analysis::from_events(&events, 64).ranks[0];
        assert_eq!(
            (r.compute_secs, r.wait_send_secs, r.collective_secs),
            (10e-9, 20e-9, 30e-9)
        );
        let rows = ascii_timeline(&events, 1, 0, 60, 6);
        assert_eq!(rows, vec!["CCssAA".to_string()]);
    }
}
