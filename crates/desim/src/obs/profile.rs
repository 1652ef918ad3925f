//! Profiling in both time domains, plus windowed telemetry.
//!
//! Three coordinated pieces:
//!
//! * **Host-time self-profiler** ([`HostProfiler`]): scope-guard
//!   instrumentation inside the simulator itself (kernel dispatch loop,
//!   netsim settle/allocate, mpisim job phases, the analysis pass)
//!   attributing *wall-clock* nanoseconds to `layer;component;detail`
//!   stacks. Keys are interned once ([`HostProfiler::intern`]) so the
//!   hot-path cost is one `Instant` pair and one indexed add under a
//!   short lock.
//! * **Virtual-time profiler** ([`virtual_stacks`]): folds the recorded
//!   structured event stream into per-rank *simulated*-time stacks —
//!   `rank;app_phase;mpi_op;wait_kind` weighted by virtual nanoseconds,
//!   with late-sender/late-receiver wait frames recovered from `msg_id`
//!   span pairing (the same pairing `obs::analysis` uses).
//! * **Windowed time-series telemetry** ([`TimeSeriesSink`]): a
//!   [`Recorder`] that buckets the event stream into fixed virtual-time
//!   windows (per-link throughput, queue occupancy, cwnd, event rate)
//!   backed by [`Windowed`] rings and [`StreamHist`] percentile
//!   summaries.
//!
//! All three only *read*: the host profiler touches nothing but the host
//! clock and its own table, and the time-series sink is an ordinary
//! read-only recorder — attaching any of them leaves digests bit-for-bit
//! identical (`tests/profile_observer_effect.rs` pins this).
//!
//! Both profile domains export as collapsed-stack folded text
//! ([`folded_text`], one `frame;frame;frame weight` line each, the format
//! `inferno-flamegraph` consumes) and speedscope JSON
//! ([`speedscope_json`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::sync::Mutex;

use super::export::{json_f64, json_string};
use super::metrics::{StreamHist, WindowAgg, Windowed};
use super::{Event, Recorder};

// ------------------------------------------------------------ host profiler

/// Handle to one interned stack in a [`HostProfiler`] — cheap to copy,
/// valid for the profiler that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfKey(usize);

struct ProfSlot {
    stack: String,
    ns: u64,
    count: u64,
}

#[derive(Default)]
struct ProfSlots {
    index: HashMap<String, usize>,
    slots: Vec<ProfSlot>,
    /// [`HostProfiler::intern_set`]'s sets, by tag.
    sets: HashMap<String, Arc<[ProfKey]>>,
}

impl ProfSlots {
    fn intern(&mut self, stack: &str) -> ProfKey {
        if let Some(&i) = self.index.get(stack) {
            return ProfKey(i);
        }
        let i = self.slots.len();
        self.slots.push(ProfSlot {
            stack: stack.to_string(),
            ns: 0,
            count: 0,
        });
        self.index.insert(stack.to_string(), i);
        ProfKey(i)
    }
}

/// A host-time self-profiler: wall-clock nanoseconds attributed to
/// interned `layer;component;detail` stacks.
///
/// Producers intern their keys once (at attach time or lazily on first
/// use) and then record either through a [`ProfScope`] guard or an
/// explicit [`HostProfiler::add_ns`]. The profiler never interacts with
/// the simulation: it reads the host clock and updates its own table, so
/// attaching it cannot perturb virtual time.
#[derive(Default)]
pub struct HostProfiler {
    slots: Mutex<ProfSlots>,
    dispatched: AtomicU64,
}

impl HostProfiler {
    /// Empty profiler.
    pub fn new() -> HostProfiler {
        HostProfiler::default()
    }

    /// Intern `stack` (frames separated by `;`) and return its key.
    /// Interning the same stack twice returns the same key.
    pub fn intern(&self, stack: &str) -> ProfKey {
        self.slots.lock().intern(stack)
    }

    /// The keys of the stacks `stacks` lists, interned on the first call
    /// with `tag` and remembered under it: a producer that attaches once
    /// per job (a kernel, a network) pays one lookup per attach, not one
    /// intern per key. `tag` must name the list, since a later call with
    /// the same tag returns the first call's keys without running
    /// `stacks`.
    pub fn intern_set(&self, tag: &str, stacks: impl FnOnce() -> Vec<String>) -> Arc<[ProfKey]> {
        if let Some(keys) = self.slots.lock().sets.get(tag) {
            return Arc::clone(keys);
        }
        let stacks = stacks();
        let mut g = self.slots.lock();
        let keys: Arc<[ProfKey]> = stacks.iter().map(|s| g.intern(s)).collect();
        g.sets.insert(tag.to_string(), Arc::clone(&keys));
        keys
    }

    /// Events dispatched so far by the kernels attached to this profiler.
    /// A kernel picks its sampled events by their position in this one
    /// count, continuing where the previous run left it.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Count `n` more dispatched events (a kernel's, at the end of a run).
    pub fn add_dispatched(&self, n: u64) {
        self.dispatched.fetch_add(n, Ordering::Relaxed);
    }

    /// Attribute `ns` wall-clock nanoseconds (one occurrence) to `key`.
    pub fn add_ns(&self, key: ProfKey, ns: u64) {
        let mut g = self.slots.lock();
        let slot = &mut g.slots[key.0];
        slot.ns += ns;
        slot.count += 1;
    }

    /// Attribute one *sampled* measurement to `key`: a 1-in-`weight`
    /// sample of `ns` nanoseconds, extrapolated to `ns * weight` total
    /// time over `weight` occurrences. High-frequency call sites (the
    /// kernel dispatch loop) sample so the clock reads themselves stay
    /// below the profiler's overhead budget; low-frequency scopes keep
    /// using [`HostProfiler::add_ns`] and measure every occurrence.
    pub fn add_ns_sampled(&self, key: ProfKey, ns: u64, weight: u64) {
        let mut g = self.slots.lock();
        let slot = &mut g.slots[key.0];
        slot.ns += ns * weight;
        slot.count += weight;
    }

    /// Start a scope whose drop attributes its elapsed wall clock to
    /// `key`.
    pub fn scope(self: &Arc<Self>, key: ProfKey) -> ProfScope {
        self.scope_sampled(key, 1)
    }

    /// Start a 1-in-`weight` sampled scope: its drop extrapolates the
    /// elapsed wall clock to `weight` occurrences (see
    /// [`HostProfiler::add_ns_sampled`]). The caller owns the sampling
    /// decision; this just carries the weight into the drop guard.
    pub fn scope_sampled(self: &Arc<Self>, key: ProfKey, weight: u64) -> ProfScope {
        ProfScope {
            prof: Arc::clone(self),
            key,
            start: Instant::now(),
            weight,
        }
    }

    /// Snapshot of every stack as `(stack, ns, count)`, sorted by stack.
    pub fn stacks(&self) -> Vec<(String, u64, u64)> {
        let g = self.slots.lock();
        let mut out: Vec<(String, u64, u64)> = g
            .slots
            .iter()
            .map(|s| (s.stack.clone(), s.ns, s.count))
            .collect();
        out.sort();
        out
    }

    /// Total attributed wall-clock nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.slots.lock().slots.iter().map(|s| s.ns).sum()
    }

    /// Collapsed-stack folded text of the attributed host time
    /// (`stack ns` per line).
    pub fn folded(&self) -> String {
        folded_text(
            &self
                .stacks()
                .into_iter()
                .map(|(s, ns, _)| (s, ns))
                .collect::<Vec<_>>(),
        )
    }

    /// Speedscope JSON of the attributed host time.
    pub fn speedscope(&self, name: &str) -> String {
        speedscope_json(
            name,
            &self
                .stacks()
                .into_iter()
                .map(|(s, ns, _)| (s, ns))
                .collect::<Vec<_>>(),
        )
    }
}

/// Drop guard timing one [`HostProfiler`] scope.
pub struct ProfScope {
    prof: Arc<HostProfiler>,
    key: ProfKey,
    start: Instant,
    weight: u64,
}

impl Drop for ProfScope {
    fn drop(&mut self) {
        self.prof.add_ns_sampled(
            self.key,
            self.start.elapsed().as_nanos() as u64,
            self.weight,
        );
    }
}

// ----------------------------------------------------------- folded exports

/// Render `(stack, weight)` pairs as collapsed-stack folded text: one
/// `frame;frame;frame weight` line per stack, sorted, zero weights
/// skipped — the input format of `inferno-flamegraph` and
/// `speedscope`'s folded importer.
pub fn folded_text(stacks: &[(String, u64)]) -> String {
    let mut lines: Vec<&(String, u64)> = stacks.iter().filter(|(_, w)| *w > 0).collect();
    lines.sort();
    let mut out = String::new();
    for (stack, w) in lines {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&w.to_string());
        out.push('\n');
    }
    out
}

/// Render `(stack, weight)` pairs as a speedscope `sampled` profile
/// (JSON, weights in nanoseconds), loadable at <https://speedscope.app>.
pub fn speedscope_json(name: &str, stacks: &[(String, u64)]) -> String {
    let mut sorted: Vec<&(String, u64)> = stacks.iter().filter(|(_, w)| *w > 0).collect();
    sorted.sort();
    let mut frames: Vec<String> = Vec::new();
    let mut frame_idx: HashMap<&str, usize> = HashMap::new();
    let mut samples: Vec<Vec<usize>> = Vec::new();
    let mut weights: Vec<u64> = Vec::new();
    for (stack, w) in sorted {
        let idxs = stack
            .split(';')
            .map(|f| {
                *frame_idx.entry(f).or_insert_with(|| {
                    frames.push(f.to_string());
                    frames.len() - 1
                })
            })
            .collect();
        samples.push(idxs);
        weights.push(*w);
    }
    let total: u64 = weights.iter().sum();
    let frames_json = frames
        .iter()
        .map(|f| format!("{{\"name\":{}}}", json_string(f)))
        .collect::<Vec<_>>()
        .join(",");
    let samples_json = samples
        .iter()
        .map(|s| {
            format!(
                "[{}]",
                s.iter().map(usize::to_string).collect::<Vec<_>>().join(",")
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let weights_json = weights
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",\
         \"name\":{name},\
         \"shared\":{{\"frames\":[{frames_json}]}},\
         \"profiles\":[{{\"type\":\"sampled\",\"name\":{name},\
         \"unit\":\"nanoseconds\",\"startValue\":0,\"endValue\":{total},\
         \"samples\":[{samples_json}],\"weights\":[{weights_json}]}}]}}",
        name = json_string(name),
    )
}

// ------------------------------------------------------ virtual-time stacks

/// Fold a recorded event stream into per-rank virtual-time stacks:
/// `rankN;app_phase;mpi_op[;wait_kind]` weighted by simulated
/// nanoseconds, plus `rankN;(idle)` frames for the gaps between spans, so
/// every rank's column spans the whole run.
///
/// Wait frames are recovered from `msg_id` span pairing: the part of a
/// receive that elapsed before the matching send started is
/// `late_sender`, the part of a send that elapsed before the matching
/// receive was posted is `late_receiver`; the remainder of either is
/// `transfer`.
pub fn virtual_stacks(events: &[Event]) -> Vec<(String, u64)> {
    // One MPI span per rank: (op, peer, start_ns, end_ns, msg_id).
    type Span = (&'static str, i64, u64, u64, u64);
    // Phase markers per rank, in stream (time) order.
    let mut phases: HashMap<u64, Vec<(u64, &'static str)>> = HashMap::new();
    // (src, dst, msg_id) -> start of the send / recv span.
    let mut send_start: HashMap<(u64, u64, u64), u64> = HashMap::new();
    let mut recv_start: HashMap<(u64, u64, u64), u64> = HashMap::new();
    let mut spans: HashMap<u64, Vec<Span>> = HashMap::new();
    let mut global_end = 0u64;
    for ev in events {
        match ev {
            Event::Phase { rank, name, t_ns } => {
                phases.entry(*rank).or_default().push((*t_ns, name));
            }
            Event::MpiSpan {
                rank,
                op,
                peer,
                start_ns,
                end_ns,
                msg_id,
                ..
            } => {
                if *msg_id != 0 && *peer >= 0 {
                    let peer = *peer as u64;
                    if *op == "send" {
                        send_start.insert((*rank, peer, *msg_id), *start_ns);
                    } else if *op == "recv" {
                        recv_start.insert((peer, *rank, *msg_id), *start_ns);
                    }
                }
                spans
                    .entry(*rank)
                    .or_default()
                    .push((op, *peer, *start_ns, *end_ns, *msg_id));
                global_end = global_end.max(*end_ns);
            }
            Event::KernelRun { end_ns, .. } => global_end = global_end.max(*end_ns),
            _ => {}
        }
    }
    for v in phases.values_mut() {
        v.sort_unstable_by_key(|(t, _)| *t);
    }
    let phase_at = |rank: u64, t: u64| -> &'static str {
        phases
            .get(&rank)
            .and_then(|v| v.iter().rev().find(|(pt, _)| *pt <= t))
            .map(|(_, name)| *name)
            .unwrap_or("run")
    };

    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    let mut bump = |stack: String, w: u64| {
        if w > 0 {
            *agg.entry(stack).or_insert(0) += w;
        }
    };
    for (rank, mut rank_spans) in spans {
        rank_spans.sort_unstable_by_key(|(_, _, start, end, _)| (*start, *end));
        let mut cursor = 0u64;
        for (op, peer, start, end, msg_id) in rank_spans {
            bump(format!("rank{rank};(idle)"), start.saturating_sub(cursor));
            let dur = end.saturating_sub(start);
            let base = format!("rank{rank};{};{op}", phase_at(rank, start));
            let wait = if msg_id != 0 && peer >= 0 {
                match op {
                    "recv" => send_start
                        .get(&(peer as u64, rank, msg_id))
                        .map(|ss| ("late_sender", ss.saturating_sub(start).min(dur))),
                    "send" | "wait_send" => recv_start
                        .get(&(rank, peer as u64, msg_id))
                        .map(|rs| ("late_receiver", rs.saturating_sub(start).min(dur))),
                    _ => None,
                }
            } else {
                None
            };
            match wait {
                Some((kind, wait_ns)) if wait_ns > 0 => {
                    bump(format!("{base};{kind}"), wait_ns);
                    bump(format!("{base};transfer"), dur - wait_ns);
                }
                _ => bump(base, dur),
            }
            cursor = cursor.max(end);
        }
        bump(
            format!("rank{rank};(idle)"),
            global_end.saturating_sub(cursor),
        );
    }
    agg.into_iter().collect()
}

// ------------------------------------------------------- time-series sink

const DEFAULT_WINDOW_CAP: usize = 4096;

struct LinkTs {
    last_delivered: f64,
    bytes: Windowed,
}

struct TsState {
    events: Windowed,
    queue: Windowed,
    cwnd: Windowed,
    links: BTreeMap<u64, LinkTs>,
    cwnd_hist: StreamHist,
    queue_hist: StreamHist,
    span_ns_hist: StreamHist,
}

/// A [`Recorder`] folding the event stream into fixed-window time series:
/// event rate, channel queue occupancy and cwnd (gauge min/mean/max per
/// window), per-link delivered bytes (rate per window), plus
/// [`StreamHist`] percentile summaries of cwnd, queue depth, and MPI span
/// durations. Read-only by construction — it never touches simulation
/// state, so attaching it has zero observer effect.
pub struct TimeSeriesSink {
    window_ns: u64,
    cap: usize,
    state: Mutex<TsState>,
}

impl TimeSeriesSink {
    /// Sink with `window_ns`-wide windows and the default ring capacity
    /// (4096 windows per series).
    pub fn new(window_ns: u64) -> TimeSeriesSink {
        TimeSeriesSink::with_capacity(window_ns, DEFAULT_WINDOW_CAP)
    }

    /// Sink retaining at most `cap` windows per series.
    pub fn with_capacity(window_ns: u64, cap: usize) -> TimeSeriesSink {
        let window_ns = window_ns.max(1);
        let cap = cap.max(1);
        TimeSeriesSink {
            window_ns,
            cap,
            state: Mutex::new(TsState {
                events: Windowed::new(window_ns, cap),
                queue: Windowed::new(window_ns, cap),
                cwnd: Windowed::new(window_ns, cap),
                links: BTreeMap::new(),
                cwnd_hist: StreamHist::new(),
                queue_hist: StreamHist::new(),
                span_ns_hist: StreamHist::new(),
            }),
        }
    }

    /// Window length in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Snapshot every series.
    pub fn series(&self) -> TimeSeries {
        let g = self.state.lock();
        TimeSeries {
            window_ns: self.window_ns,
            events: g.events.clone(),
            queue: g.queue.clone(),
            cwnd: g.cwnd.clone(),
            links: g
                .links
                .iter()
                .map(|(l, ts)| (*l, ts.bytes.clone()))
                .collect(),
            cwnd_hist: g.cwnd_hist.clone(),
            queue_hist: g.queue_hist.clone(),
            span_ns_hist: g.span_ns_hist.clone(),
        }
    }
}

impl Recorder for TimeSeriesSink {
    fn record(&self, ev: &Event) {
        let t = match ev {
            Event::KernelRun { end_ns, .. } | Event::MpiSpan { end_ns, .. } => *end_ns,
            Event::TcpSample { t_ns, .. }
            | Event::FlowStart { t_ns, .. }
            | Event::FlowFinish { t_ns, .. }
            | Event::LinkSample { t_ns, .. }
            | Event::Phase { t_ns, .. }
            | Event::Fault { t_ns, .. } => *t_ns,
        };
        let mut g = self.state.lock();
        g.events.observe(t, 1.0);
        match ev {
            Event::TcpSample { cwnd, .. } => {
                g.cwnd.observe(t, *cwnd as f64);
                g.cwnd_hist.observe(*cwnd);
            }
            Event::FlowStart { queued, .. } => {
                g.queue.observe(t, *queued as f64);
                g.queue_hist.observe(*queued);
            }
            Event::LinkSample {
                link,
                delivered_bytes,
                ..
            } => {
                let (window_ns, cap) = (self.window_ns, self.cap);
                let lt = g.links.entry(*link).or_insert_with(|| LinkTs {
                    last_delivered: 0.0,
                    bytes: Windowed::new(window_ns, cap),
                });
                let delta = (*delivered_bytes - lt.last_delivered).max(0.0);
                lt.last_delivered = *delivered_bytes;
                lt.bytes.observe(t, delta);
            }
            Event::MpiSpan {
                start_ns, end_ns, ..
            } => {
                g.span_ns_hist.observe(end_ns.saturating_sub(*start_ns));
            }
            _ => {}
        }
    }
}

/// Point-in-time snapshot of a [`TimeSeriesSink`].
pub struct TimeSeries {
    /// Window length, nanoseconds.
    pub window_ns: u64,
    /// Recorded events per window (rate view = events/s).
    pub events: Windowed,
    /// Channel queue occupancy at each flow start (gauge).
    pub queue: Windowed,
    /// Congestion window samples across all channels (gauge, bytes).
    pub cwnd: Windowed,
    /// Per-link delivered bytes per window, keyed by link index.
    pub links: Vec<(u64, Windowed)>,
    /// Distribution of cwnd samples, bytes.
    pub cwnd_hist: StreamHist,
    /// Distribution of queue occupancy at flow start.
    pub queue_hist: StreamHist,
    /// Distribution of MPI span durations, nanoseconds.
    pub span_ns_hist: StreamHist,
}

fn gauge_json(w: &Windowed) -> String {
    let rows = w
        .windows()
        .iter()
        .map(|(t, a)| {
            format!(
                "{{\"t_ns\":{t},\"count\":{},\"min\":{},\"mean\":{},\"max\":{}}}",
                a.count,
                json_f64(a.min),
                json_f64(a.mean()),
                json_f64(a.max)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("[{rows}]")
}

fn rate_json(w: &Windowed) -> String {
    let rows = w
        .rates()
        .iter()
        .map(|(t, r)| format!("{{\"t_ns\":{t},\"rate\":{}}}", json_f64(*r)))
        .collect::<Vec<_>>()
        .join(",");
    format!("[{rows}]")
}

impl TimeSeries {
    /// Serialize every series as one JSON object (valid RFC 8259).
    pub fn to_json(&self) -> String {
        let links = self
            .links
            .iter()
            .map(|(l, w)| format!("{{\"link\":{l},\"bytes_per_sec\":{}}}", rate_json(w)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"window_ns\":{},\"events_per_sec\":{},\"queue\":{},\"cwnd\":{},\
             \"links\":[{links}],\"histograms\":{{\"cwnd_bytes\":{},\
             \"queue_depth\":{},\"mpi_span_ns\":{}}}}}",
            self.window_ns,
            rate_json(&self.events),
            gauge_json(&self.queue),
            gauge_json(&self.cwnd),
            self.cwnd_hist.to_json(),
            self.queue_hist.to_json(),
            self.span_ns_hist.to_json(),
        )
    }

    /// Gnuplot-friendly rows for one gauge series:
    /// `# t_secs count min mean max` per window.
    pub fn gauge_dat(w: &[(u64, WindowAgg)]) -> String {
        let mut out = String::from("# t_secs count min mean max\n");
        for (t, a) in w {
            out.push_str(&format!(
                "{:.9} {} {:.6} {:.6} {:.6}\n",
                *t as f64 / 1e9,
                a.count,
                a.min,
                a.mean(),
                a.max
            ));
        }
        out
    }
}

/// Parse one collapsed-stack folded line as `(stack, count)` — the exact
/// grammar flamegraph tools accept: everything before the final space is
/// the `;`-separated stack, the final token is a non-negative integer.
pub fn parse_folded_line(line: &str) -> Option<(&str, u64)> {
    let (stack, count) = line.rsplit_once(' ')?;
    if stack.is_empty() {
        return None;
    }
    count.parse::<u64>().ok().map(|c| (stack, c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_profiler_folds_and_counts() {
        let prof = Arc::new(HostProfiler::new());
        let k1 = prof.intern("desim;dispatch;call");
        let k2 = prof.intern("netsim;settle");
        assert_eq!(k1, prof.intern("desim;dispatch;call"));
        let set = prof.intern_set("t", || vec!["netsim;settle".into(), "x".into()]);
        assert_eq!(set[0], k2);
        let again = prof.intern_set("t", || unreachable!("a tag's stacks are listed once"));
        assert_eq!(&*again, &*set);
        prof.add_ns(k1, 100);
        prof.add_ns(k1, 50);
        prof.add_ns(k2, 7);
        {
            let _g = prof.scope(k2);
        }
        assert!(prof.total_ns() >= 157);
        let folded = prof.folded();
        for line in folded.lines() {
            let (stack, n) = parse_folded_line(line).expect("folded line must parse");
            assert!(stack.contains(';') || !stack.is_empty());
            assert!(n > 0);
        }
        assert!(folded.contains("desim;dispatch;call 150"));
    }

    #[test]
    fn speedscope_output_is_valid_json() {
        let stacks = vec![
            ("a;b;c".to_string(), 10u64),
            ("a;b".to_string(), 5),
            ("zero".to_string(), 0),
        ];
        let json = speedscope_json("test", &stacks);
        super::super::json::validate(&json).expect("speedscope json");
        assert!(json.contains("\"unit\":\"nanoseconds\""));
        assert!(json.contains("\"endValue\":15"));
        assert!(!json.contains("zero"), "zero-weight stacks are skipped");
    }

    #[test]
    fn virtual_stacks_attribute_phase_op_and_waits() {
        // Rank 1 posts its recv at t=0; rank 0 only starts sending at
        // t=100 — rank 1's recv is 100 ns late-sender + 100 ns transfer.
        let events = vec![
            Event::Phase {
                rank: 0,
                name: "warmup",
                t_ns: 0,
            },
            Event::MpiSpan {
                rank: 0,
                op: "send",
                peer: 1,
                bytes: 64,
                start_ns: 100,
                end_ns: 200,
                msg_id: 1,
            },
            Event::MpiSpan {
                rank: 1,
                op: "recv",
                peer: 0,
                bytes: 64,
                start_ns: 0,
                end_ns: 200,
                msg_id: 1,
            },
        ];
        let stacks = virtual_stacks(&events);
        let get = |s: &str| {
            stacks
                .iter()
                .find(|(k, _)| k == s)
                .map(|(_, w)| *w)
                .unwrap_or(0)
        };
        assert_eq!(get("rank1;run;recv;late_sender"), 100);
        assert_eq!(get("rank1;run;recv;transfer"), 100);
        assert_eq!(get("rank0;warmup;send"), 100);
        assert_eq!(get("rank0;(idle)"), 100, "rank 0 idles before its send");
        let folded = folded_text(&stacks);
        for line in folded.lines() {
            assert!(
                parse_folded_line(line).is_some(),
                "bad folded line {line:?}"
            );
        }
    }

    #[test]
    fn time_series_sink_windows_the_stream() {
        let sink = TimeSeriesSink::new(1_000_000);
        sink.record(&Event::TcpSample {
            channel: 0,
            t_ns: 100,
            cwnd: 4096,
            ssthresh: f64::INFINITY,
            phase: "slow_start",
            outcome: "progress",
        });
        sink.record(&Event::FlowStart {
            channel: 0,
            t_ns: 500,
            bytes: 1 << 20,
            queued: 2,
        });
        sink.record(&Event::LinkSample {
            link: 3,
            t_ns: 1_500_000,
            delivered_bytes: 1e6,
        });
        sink.record(&Event::LinkSample {
            link: 3,
            t_ns: 2_500_000,
            delivered_bytes: 3e6,
        });
        sink.record(&Event::MpiSpan {
            rank: 0,
            op: "send",
            peer: 1,
            bytes: 1,
            start_ns: 0,
            end_ns: 2_000_000,
            msg_id: 1,
        });
        let s = sink.series();
        assert_eq!(s.cwnd.windows()[0].1.max, 4096.0);
        assert_eq!(s.queue.windows()[0].1.mean(), 2.0);
        assert_eq!(s.links.len(), 1);
        // Second link sample is a 2 MB delta one window later.
        let link = &s.links[0].1;
        assert_eq!(link.windows().len(), 2);
        assert_eq!(link.windows()[1].1.sum, 2e6);
        assert_eq!(s.span_ns_hist.count, 1);
        super::super::json::validate(&s.to_json()).expect("series json");
    }

    #[test]
    fn folded_parser_rejects_garbage() {
        assert!(parse_folded_line("a;b 12").is_some());
        assert!(parse_folded_line("a;b twelve").is_none());
        assert!(parse_folded_line("nospace").is_none());
        assert!(parse_folded_line(" 12").is_none());
    }
}
