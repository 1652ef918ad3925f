//! Fluid max-min fair bandwidth sharing.
//!
//! Every in-flight message is a *flow*. A flow's instantaneous rate is the
//! max-min fair share of the directed links it crosses, additionally capped
//! by its TCP connection's window-limited rate (`effective_window / RTT`)
//! and the path bottleneck. Rates are piecewise constant between
//! *recompute points* (flow arrival, flow completion, TCP window round,
//! RTO stall boundaries), so progress integration is exact.
//!
//! Transfers on the same channel (same TCP socket direction) are FIFO: a
//! new message starts draining when the previous one has left the sender,
//! which is how a byte-stream socket actually behaves under MPI.
//!
//! ## Bulk-transfer fast path
//!
//! When exactly one flow is active in the whole network, the per-round
//! event cadence is pure bookkeeping: nothing can preempt the flow, so its
//! entire future (window growth, loss episodes, RTO stalls, completion
//! time) is determined at activation. [`try_enter_fast`] detects this,
//! *replays* the would-be event sequence in a tight arithmetic loop
//! ([`replay_flow`]) — performing bit-for-bit the same `settle`/`allocate`
//! floating-point operations the event loop would — and schedules one
//! commit event at the computed finish time. If anything else touches the
//! network first (a second transfer starting, a stalled channel resuming),
//! [`materialize`] replays only the elapsed prefix, re-arms the pending
//! round/stall events at their original absolute times, and drops back to
//! the exact per-round model. Virtual timings are identical either way;
//! only the host-side event count changes.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use desim::fault::FaultPlan;
use desim::obs::profile::{HostProfiler, ProfKey, ProfScope};
use desim::obs::{Event as ObsEvent, Recorder};
use desim::prop::Rng;
use desim::sync::Mutex;
use desim::{Sched, SimDuration, SimTime};

use crate::tcp::{RoundOutcome, TcpState};
use crate::topology::{LinkId, Path, Topology};

/// Identifier of a unidirectional TCP channel created by
/// [`crate::Network::channel`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ChannelId(pub(crate) usize);

/// Callback invoked (in `Sched` context) when the last byte of a transfer
/// reaches the receiving host.
pub(crate) type ArrivalFn = Box<dyn FnOnce(&Sched) + Send>;

/// Callback invoked (in `Sched` context) at the *finish* time — when the
/// last byte leaves the sender — receiving the computed receiver-side
/// arrival time as a value instead of as a scheduled event.
pub(crate) type FinishFn = Box<dyn FnOnce(&Sched, SimTime) + Send>;

/// How a transfer's completion is delivered. `AtArrival` schedules the
/// callback at the arrival time via the local event queue — the classic
/// path, byte-identical to the pre-PDES engine. `AtFinish` hands the
/// arrival time over at finish time instead: the sharded engine uses it
/// to ship cross-shard completions while they are still a full one-way
/// WAN latency (≥ the conservative lookahead) in the future.
pub(crate) enum DoneFn {
    AtArrival(ArrivalFn),
    AtFinish(FinishFn),
}

impl DoneFn {
    /// Deliver the completion: schedule or hand over, per the variant.
    /// Must be called without the net lock held.
    fn deliver(self, s: &Sched, arrival: SimTime) {
        match self {
            DoneFn::AtArrival(done) => s.call_at(arrival, done),
            DoneFn::AtFinish(f) => f(s, arrival),
        }
    }
}

pub(crate) struct PendingTransfer {
    bytes: u64,
    done: DoneFn,
}

pub(crate) struct ChannelState {
    pub(crate) path: Path,
    pub(crate) tcp: TcpState,
    active: Option<usize>,
    queue: VecDeque<PendingTransfer>,
    stalled_until: SimTime,
    round_gen: u64,
    pub(crate) bytes_done: u64,
    pub(crate) transfers: u64,
    /// Injected per-segment loss probability (0 when no fault plan).
    loss_rate: f64,
    /// Wire-bytes inflation factor for duplicate traffic (0 = none).
    dup: f64,
    /// Seeded draw stream for injected losses, `Some` iff `loss_rate > 0`.
    /// Each channel derives its own stream from the plan seed and its
    /// creation index, so draws are order-free across channels.
    loss_rng: Option<Rng>,
}

struct FlowState {
    chan: usize,
    total: u64,
    remaining: f64,
    rate: f64,
    started: SimTime,
    last_settle: SimTime,
    done: Option<DoneFn>,
}

/// A committed plan for an uncontended bulk transfer: the flow's whole
/// future, computed by [`replay_flow`] from the snapshot taken at `t0`.
struct FastPlan {
    ch: usize,
    fid: usize,
    /// Plan creation time (a settle point of the flow).
    t0: SimTime,
    /// True if the plan was created in the same event that activated the
    /// flow (so exactly one round event, at `t0 + rtt`, was pending).
    fresh: bool,
    /// TCP state snapshot at `t0`.
    tcp0: TcpState,
    remaining0: f64,
    rate0: f64,
    finish_at: SimTime,
    gen: u64,
}

pub(crate) struct NetState {
    pub(crate) topo: Topology,
    pub(crate) stack_overhead: SimDuration,
    pub(crate) channels: Vec<ChannelState>,
    flows: Vec<Option<FlowState>>,
    free: Vec<usize>,
    active: Vec<usize>,
    /// Per directed link, the number of active flows whose path starts on
    /// it (the sender's uplink): the burst-credit occupancy read by
    /// [`activate_next`].
    first_link_active: Vec<u32>,
    /// Reused buffers of [`NetState::allocate`].
    fill: WaterFill,
    finish_gen: u64,
    /// Bytes delivered over each directed link (utilization accounting).
    pub(crate) link_delivered: Vec<f64>,
    /// Closed-form bulk-transfer fast path (on by default; the equivalence
    /// tests disable it to compare against the per-round model).
    pub(crate) fast_enabled: bool,
    fast: Option<FastPlan>,
    fast_gen: u64,
    /// Observability sink. Probes only *read* model state and append to
    /// this host-side recorder — they never schedule events or touch the
    /// f64 arithmetic, so attaching one cannot change virtual timestamps.
    pub(crate) obs: Option<Arc<dyn Recorder>>,
    /// Installed fault plan (`None`, or a non-empty plan — empty plans are
    /// rejected at install so a fault-free network carries no fault state
    /// at all and stays bit-identical to pre-fault builds).
    pub(crate) faults: Option<FaultPlan>,
    /// Host-time self-profiler handle (see [`NetProf`]); `None` costs one
    /// null check per instrumented section.
    pub(crate) host_prof: Option<NetProf>,
}

/// The flow engine's handle on an attached
/// [`HostProfiler`]: event-handler keys are
/// interned at attach time, per-link settle keys carry shard-candidate
/// labels (`site:<name>` for LAN access links, `wan:<a>-><b>` for WAN
/// trunks — the boundaries a PDES sharding of netsim would cut along),
/// and per-channel round keys are interned lazily on first round.
///
/// Attribution is *layer-local*: `netsim;settle;<link>` rows re-slice
/// time that the enclosing `netsim;round_event;<label>` row also counts
/// (and that `desim;dispatch;call` counts again one layer up). Rows are
/// comparable within one prefix, not summable across prefixes.
pub(crate) struct NetProf {
    pub(crate) prof: Arc<HostProfiler>,
    /// Settle time not attributable to any link (no bytes moved).
    pub(crate) settle: ProfKey,
    /// Max-min water-fill allocation.
    pub(crate) allocate: ProfKey,
    /// Flow-finish handler.
    pub(crate) finish: ProfKey,
    /// Closed-form fast-path commit handler.
    pub(crate) commit: ProfKey,
    /// Closed-form replay (`apply_replay`) on interrupt/materialize.
    pub(crate) replay: ProfKey,
    /// Per-directed-link settle keys (`netsim;settle;<label>`).
    pub(crate) link_keys: Vec<ProfKey>,
    /// Shard-candidate label of each directed link.
    pub(crate) link_labels: Vec<String>,
    /// Lazily interned per-channel round keys
    /// (`netsim;round_event;<label>`).
    pub(crate) chan_keys: Vec<Option<ProfKey>>,
    /// Scratch copy of `link_delivered` taken at settle entry so the
    /// per-link deltas can be computed without a per-settle allocation.
    pub(crate) settle_scratch: Vec<f64>,
    /// Instrumentation-site counter driving the 1-in-[`NET_PROF_SAMPLE`]
    /// sampling of the per-event scopes below.
    pub(crate) tick: u64,
}

/// The flow engine's per-event handlers (settle, allocate, rounds,
/// finish/commit/replay) each run in the hundreds of nanoseconds, so
/// timing every one would cost more than it measures on hosts with slow
/// clocksources. Instead one occurrence in this many is timed and
/// extrapolated (weight-scaled), like the kernel dispatch loop's
/// sampling. Prime on purpose: the handlers fire in short repeating
/// patterns (round → settle → allocate …), and a stride sharing a factor
/// with the pattern length would sample the same site forever.
pub(crate) const NET_PROF_SAMPLE: u64 = 13;

/// Initial fast-path setting for new networks: on, unless the
/// `NETSIM_NO_FAST_PATH` environment variable is set (a debug knob for
/// diffing whole-program output against the per-round model).
fn default_fast_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("NETSIM_NO_FAST_PATH").is_none())
}

impl NetState {
    pub(crate) fn new(topo: Topology, stack_overhead: SimDuration) -> NetState {
        NetState {
            topo,
            stack_overhead,
            channels: Vec::new(),
            flows: Vec::new(),
            free: Vec::new(),
            active: Vec::new(),
            first_link_active: Vec::new(),
            fill: WaterFill::default(),
            finish_gen: 0,
            link_delivered: Vec::new(),
            fast_enabled: default_fast_enabled(),
            fast: None,
            fast_gen: 0,
            obs: None,
            faults: None,
            host_prof: None,
        }
    }

    /// Scope guard attributing to one of the flat handler keys (no-op
    /// when no profiler is attached; 1-in-[`NET_PROF_SAMPLE`] sampled).
    fn prof_scope(&mut self, pick: impl Fn(&NetProf) -> ProfKey) -> Option<ProfScope> {
        let hp = self.host_prof.as_mut()?;
        hp.tick += 1;
        if hp.tick % NET_PROF_SAMPLE != 0 {
            return None;
        }
        Some(hp.prof.scope_sampled(pick(hp), NET_PROF_SAMPLE))
    }

    /// Scope guard for one channel's round handler, keyed by the
    /// channel's shard-candidate label (its WAN trunk if it crosses one,
    /// else its first access link's site). Sampled like [`Self::prof_scope`].
    fn round_scope(&mut self, ch: usize) -> Option<ProfScope> {
        {
            let hp = self.host_prof.as_mut()?;
            hp.tick += 1;
            if hp.tick % NET_PROF_SAMPLE != 0 {
                return None;
            }
        }
        let cached = self
            .host_prof
            .as_ref()
            .and_then(|hp| hp.chan_keys.get(ch).copied().flatten());
        let key = match cached {
            Some(k) => k,
            None => {
                let links: Vec<LinkId> = self
                    .channels
                    .get(ch)
                    .map(|c| c.path.links.clone())
                    .unwrap_or_default();
                let hp = self.host_prof.as_mut().expect("checked above");
                let label = links
                    .iter()
                    .filter_map(|l| hp.link_labels.get(l.index()))
                    .find(|lab| lab.starts_with("wan:"))
                    .or_else(|| links.first().and_then(|l| hp.link_labels.get(l.index())))
                    .cloned()
                    .unwrap_or_else(|| "local".to_string());
                let k = hp.prof.intern(&format!("netsim;round_event;{label}"));
                if hp.chan_keys.len() <= ch {
                    hp.chan_keys.resize(ch + 1, None);
                }
                hp.chan_keys[ch] = Some(k);
                k
            }
        };
        let hp = self.host_prof.as_ref().expect("checked above");
        Some(hp.prof.scope_sampled(key, NET_PROF_SAMPLE))
    }

    pub(crate) fn add_channel(&mut self, path: Path, tcp: TcpState) -> ChannelId {
        let index = self.channels.len();
        let mut c = ChannelState {
            path,
            tcp,
            active: None,
            queue: VecDeque::new(),
            stalled_until: SimTime::ZERO,
            round_gen: 0,
            bytes_done: 0,
            transfers: 0,
            loss_rate: 0.0,
            dup: 0.0,
            loss_rng: None,
        };
        if let Some(plan) = &self.faults {
            arm_channel_faults(plan, index, &mut c);
        }
        self.channels.push(c);
        ChannelId(index)
    }

    /// Install a non-empty fault plan: every existing and future channel
    /// gets its loss/duplication parameters and seeded draw stream, and
    /// the closed-form bulk fast path is disabled — per-round loss draws
    /// need the real event cadence, and scheduled outages would force a
    /// materialize anyway. Empty plans are rejected by the caller
    /// ([`crate::Network::install_faults`]) so fault-free runs carry no
    /// fault state whatsoever.
    pub(crate) fn install_faults(&mut self, plan: &FaultPlan) {
        debug_assert!(!plan.is_empty(), "empty plans must not be installed");
        self.fast_enabled = false;
        for (i, c) in self.channels.iter_mut().enumerate() {
            arm_channel_faults(plan, i, c);
        }
        self.faults = Some(plan.clone());
    }

    fn alloc_flow(&mut self, f: FlowState) -> usize {
        if let Some(i) = self.free.pop() {
            self.flows[i] = Some(f);
            i
        } else {
            self.flows.push(Some(f));
            self.flows.len() - 1
        }
    }

    /// Integrate progress of all active flows up to `now`, crediting the
    /// moved bytes to every link each flow crosses.
    fn settle(&mut self, now: SimTime) {
        // When profiling (1-in-NET_PROF_SAMPLE sampled), snapshot the
        // per-link byte counters so the elapsed wall clock can be
        // attributed to the links that actually moved bytes — the
        // per-shard-candidate breakdown. The snapshot reuses the scratch
        // buffer: no allocation on the settle path.
        let t0 = match self.host_prof.as_mut() {
            Some(hp) => {
                hp.tick += 1;
                if hp.tick % NET_PROF_SAMPLE == 0 {
                    hp.settle_scratch.clear();
                    hp.settle_scratch.extend_from_slice(&self.link_delivered);
                    Some(Instant::now())
                } else {
                    None
                }
            }
            None => None,
        };
        if self.link_delivered.len() < self.topo.link_count() {
            self.link_delivered.resize(self.topo.link_count(), 0.0);
        }
        for &fid in &self.active {
            let f = self.flows[fid].as_mut().expect("active flow exists");
            let dt = now.since(f.last_settle).as_secs_f64();
            if dt > 0.0 {
                let moved = (f.rate * dt).min(f.remaining);
                f.remaining -= moved;
                let chan = f.chan;
                f.last_settle = now;
                for &l in &self.channels[chan].path.links {
                    self.link_delivered[l.0 as usize] += moved;
                }
            } else {
                f.last_settle = now;
            }
        }
        if let (Some(t0), Some(hp)) = (t0, self.host_prof.as_ref()) {
            let ns = t0.elapsed().as_nanos() as u64;
            let before = &hp.settle_scratch;
            let delta = |i: usize, d: f64| -> f64 { d - before.get(i).copied().unwrap_or(0.0) };
            let total: f64 = self
                .link_delivered
                .iter()
                .enumerate()
                .map(|(i, &d)| delta(i, d).max(0.0))
                .sum();
            if total > 0.0 {
                for (i, &d) in self.link_delivered.iter().enumerate() {
                    let d = delta(i, d);
                    if d > 0.0 {
                        if let Some(&key) = hp.link_keys.get(i) {
                            hp.prof.add_ns_sampled(
                                key,
                                (ns as f64 * d / total) as u64,
                                NET_PROF_SAMPLE,
                            );
                        }
                    }
                }
            } else {
                hp.prof.add_ns_sampled(hp.settle, ns, NET_PROF_SAMPLE);
            }
        }
    }

    /// Max-min fair allocation over the directed links, honouring per-flow
    /// caps: progressive filling, where each round freezes either every
    /// flow whose cap binds at the lowest level or every flow crossing the
    /// tightest link. Updates `FlowState::rate` in place.
    ///
    /// The result is a pure function of `active` (its order included) and
    /// the channels' caps and paths, down to the last bit: see
    /// [`WaterFill`] for the operation order that pins it. No allocation
    /// once the reused buffers have grown. Cost: O(flows + links) to
    /// gather, then O(links + flows frozen) per round, plus a rescan of
    /// the unfrozen flows each time the tightest cap moves.
    fn allocate(&mut self, now: SimTime) {
        if self.active.is_empty() {
            return;
        }
        let _prof = self.prof_scope(|p| p.allocate);
        let w = &mut self.fill;
        if w.slot.len() < self.topo.link_count() {
            w.slot.resize(self.topo.link_count(), NO_SLOT);
        }
        w.caps.clear();
        w.flow_links.clear();
        w.flow_nlinks.clear();
        for &fid in &self.active {
            let f = self.flows[fid].as_ref().expect("active flow exists");
            let ch = &self.channels[f.chan];
            let cap = if ch.stalled_until > now {
                0.0
            } else {
                ch.tcp.window_rate().min(ch.path.bottleneck)
            };
            w.caps.push(cap);
            // Each path crosses at most 3 links (uplink, WAN, downlink).
            let mut idxs = [NO_SLOT; 3];
            for (k, &l) in ch.path.links.iter().enumerate() {
                let slot = &mut w.slot[l.index()];
                if *slot == NO_SLOT {
                    *slot = w.residual.len() as u32;
                    w.link_ids.push(l.0);
                    w.residual.push(self.topo.link(l).capacity);
                    w.users.push(0);
                }
                w.users[*slot as usize] += 1;
                idxs[k] = *slot;
            }
            w.flow_links.push(idxs);
            w.flow_nlinks.push(ch.path.links.len() as u8);
        }
        w.fill();
        for (&fid, &r) in self.active.iter().zip(&w.rate) {
            self.flows[fid].as_mut().expect("active flow exists").rate = r;
        }
        w.reset();
    }

    /// Account for a flow on `ch` joining the active set.
    fn enter_first_link(&mut self, ch: usize) {
        if let Some(&l0) = self.channels[ch].path.links.first() {
            if self.first_link_active.len() <= l0.index() {
                self.first_link_active.resize(self.topo.link_count(), 0);
            }
            self.first_link_active[l0.index()] += 1;
        }
    }

    /// Account for a flow on `ch` leaving the active set.
    fn leave_first_link(&mut self, ch: usize) {
        if let Some(&l0) = self.channels[ch].path.links.first() {
            self.first_link_active[l0.index()] -= 1;
        }
    }

    /// True if `flow`'s allocation could change when its window cap moves:
    /// i.e. the cap is currently (nearly) binding.
    fn cap_is_binding(&self, fid: usize, now: SimTime) -> bool {
        let f = self.flows[fid].as_ref().unwrap();
        let ch = &self.channels[f.chan];
        if ch.stalled_until > now {
            return true;
        }
        let cap = ch.tcp.window_rate().min(ch.path.bottleneck);
        f.rate >= cap * 0.999
    }
}

/// [`WaterFill::slot`] of a link the current call has not met.
const NO_SLOT: u32 = u32::MAX;

/// Reused buffers of the max-min water-fill, owned by [`NetState`] so that
/// [`NetState::allocate`] allocates nothing in steady state.
///
/// Flows are numbered by their position in `active`; links by *dense
/// index*, in first-encounter order (flows in `active` order, each path's
/// links in path order). Bit-identity with the straightforward
/// progressive filling rests on three orders:
///
/// - a round's bottleneck is the *first* dense link at the lowest level
///   (strict `<`), so ties go to the link met first in `active` order;
/// - every round freezes its flows in ascending flow index — a cap round
///   walks `live`, a link round walks the link's `members` — so each
///   residual sees the same f64 subtractions in the same order;
/// - a freeze clamps the drained residual at zero (`.max(0.0)`).
///
/// The tightest unfrozen cap ([`CapLevel`]) is carried across rounds only
/// while some unfrozen flow holds exactly that cap, so it is always the
/// value a full rescan would return.
#[derive(Default)]
struct WaterFill {
    /// `LinkId` index → dense index; [`NO_SLOT`] between calls (only the
    /// slots a call touched are reset).
    slot: Vec<u32>,
    /// Dense index → `LinkId` index: the slots to reset.
    link_ids: Vec<u32>,
    /// Per link: capacity not yet drained by frozen flows.
    residual: Vec<f64>,
    /// Per link: unfrozen flows crossing it.
    users: Vec<u32>,
    /// Per link: its flows are `members[start[l]..start[l + 1]]`, in
    /// ascending flow index.
    start: Vec<u32>,
    members: Vec<u32>,
    /// Per flow: rate cap (0 when stalled).
    caps: Vec<f64>,
    /// Per flow: dense indices of its links, of which `flow_nlinks` used.
    flow_links: Vec<[u32; 3]>,
    flow_nlinks: Vec<u8>,
    /// Per flow: allocated rate, valid once frozen.
    rate: Vec<f64>,
    frozen: Vec<bool>,
    /// Unfrozen flows in ascending index, plus frozen ones not yet swept
    /// away.
    live: Vec<u32>,
}

/// The tightest cap among a set of unfrozen flows, and how many of them
/// hold exactly that cap. The level cannot move while `at > 0`, so
/// [`WaterFill::fill`] sweeps `live` for the next one only when `at`
/// reaches zero or a cap round freezes the holders.
#[derive(Clone, Copy)]
struct CapLevel {
    level: f64,
    at: usize,
}

impl CapLevel {
    const NONE: CapLevel = CapLevel {
        level: f64::INFINITY,
        at: 0,
    };

    /// Fold in one more cap. Caps are positive, so the result is the
    /// value `f64::min` would give, bit for bit.
    fn add(&mut self, c: f64) {
        if c < self.level {
            *self = CapLevel { level: c, at: 1 };
        } else if c == self.level {
            self.at += 1;
        }
    }
}

impl WaterFill {
    /// Progressive filling over the gathered caps and link table; leaves
    /// the result in `rate`.
    fn fill(&mut self) {
        let n = self.caps.len();
        // Member lists: count-then-place, flows placed in descending
        // index so each list ends up ascending and `start[l]` ends up at
        // the list's first entry.
        self.start.clear();
        let mut end = 0u32;
        for &u in &self.users {
            end += u;
            self.start.push(end);
        }
        self.start.push(end);
        self.members.clear();
        self.members.resize(end as usize, 0);
        for i in (0..n).rev() {
            for &li in &self.flow_links[i][..self.flow_nlinks[i] as usize] {
                let at = &mut self.start[li as usize];
                *at -= 1;
                self.members[*at as usize] = i as u32;
            }
        }
        self.rate.clear();
        self.rate.resize(n, 0.0);
        self.frozen.clear();
        self.frozen.resize(n, false);
        // Stalled flows freeze at zero immediately; the rest start live.
        let mut cap = CapLevel::NONE;
        self.live.clear();
        for i in 0..n {
            if self.caps[i] <= 0.0 {
                self.freeze(i, 0.0);
            } else {
                self.live.push(i as u32);
                cap.add(self.caps[i]);
            }
        }
        let mut unfrozen = self.live.len();
        let eps = 1e-9;
        while unfrozen > 0 {
            // Tightest link level and tightest unfrozen cap.
            let mut link_level = f64::INFINITY;
            let mut link_at = usize::MAX;
            for (li, (&res, &users)) in self.residual.iter().zip(&self.users).enumerate() {
                if users > 0 {
                    let lvl = res / users as f64;
                    if lvl < link_level {
                        link_level = lvl;
                        link_at = li;
                    }
                }
            }
            if cap.at == 0 {
                cap = self.sweep(f64::NEG_INFINITY);
            }
            if cap.level <= link_level * (1.0 + eps) || link_at == usize::MAX {
                // Freeze every flow whose cap binds at this level.
                cap = self.sweep(cap.level * (1.0 + eps));
                unfrozen = self.live.len();
            } else {
                // Freeze every unfrozen flow crossing the bottleneck link.
                for k in self.start[link_at]..self.start[link_at + 1] {
                    let i = self.members[k as usize] as usize;
                    if !self.frozen[i] {
                        if self.caps[i] == cap.level {
                            cap.at -= 1;
                        }
                        self.freeze(i, link_level);
                        unfrozen -= 1;
                    }
                }
            }
        }
    }

    /// One pass over `live`, in ascending flow index: freeze every
    /// unfrozen flow whose cap is at most `bound` at its cap, drop frozen
    /// flows from `live`, and return the tightest cap among the rest.
    fn sweep(&mut self, bound: f64) -> CapLevel {
        let mut next = CapLevel::NONE;
        let mut kept = 0;
        for k in 0..self.live.len() {
            let i = self.live[k] as usize;
            if self.frozen[i] {
                continue;
            }
            let c = self.caps[i];
            if c <= bound {
                self.freeze(i, c);
            } else {
                self.live[kept] = i as u32;
                kept += 1;
                next.add(c);
            }
        }
        self.live.truncate(kept);
        next
    }

    /// Freeze flow `i` at `r`, draining its share from its links.
    fn freeze(&mut self, i: usize, r: f64) {
        self.frozen[i] = true;
        self.rate[i] = r;
        for &li in &self.flow_links[i][..self.flow_nlinks[i] as usize] {
            let li = li as usize;
            self.residual[li] = (self.residual[li] - r).max(0.0);
            self.users[li] -= 1;
        }
    }

    /// Return the slot table to all-[`NO_SLOT`] and drop the link table.
    fn reset(&mut self) {
        for &l in &self.link_ids {
            self.slot[l as usize] = NO_SLOT;
        }
        self.link_ids.clear();
        self.residual.clear();
        self.users.clear();
    }
}

/// Arm one channel with the loss/duplication parameters its path class
/// draws from `plan`.
fn arm_channel_faults(plan: &FaultPlan, index: usize, c: &mut ChannelState) {
    c.loss_rate = plan.loss_for(c.path.wan);
    c.dup = plan.duplicate;
    c.loss_rng = if c.loss_rate > 0.0 {
        Some(Rng::new(plan.stream_seed(index as u64)))
    } else {
        None
    };
}

pub(crate) type SharedNet = Arc<Mutex<NetState>>;

/// Observability name of a round outcome.
fn outcome_name(out: RoundOutcome) -> &'static str {
    match out {
        RoundOutcome::Progress => "progress",
        RoundOutcome::FastRecovery => "fast_recovery",
        RoundOutcome::RtoStall(_) => "rto_stall",
    }
}

/// A TCP congestion sample of `tcp` as it stands after a round (or a
/// short-transfer ack) has been applied.
fn tcp_sample(ch: usize, t: SimTime, tcp: &TcpState, outcome: &'static str) -> ObsEvent {
    ObsEvent::TcpSample {
        channel: ch as u64,
        t_ns: t.as_nanos(),
        cwnd: tcp.cwnd(),
        ssthresh: tcp.ssthresh(),
        phase: tcp.phase().name(),
        outcome,
    }
}

/// The rate `allocate` assigns to the only active flow in the network:
/// its cap unless some path link is tighter. Performs the same
/// floating-point comparisons as the water-fill with `n = 1`.
fn single_flow_rate(tcp: &TcpState, bottleneck: f64, min_link: Option<f64>) -> f64 {
    let cap = tcp.window_rate().min(bottleneck);
    match min_link {
        // One user per link: the tightest level is the smallest capacity.
        Some(lvl) if cap > lvl * (1.0 + 1e-9) => lvl,
        _ => cap,
    }
}

/// Result of [`replay_flow`]: the flow's state at the stop point, plus
/// whichever of its events were still pending there.
struct ReplayOutcome {
    tcp: TcpState,
    remaining: f64,
    rate: f64,
    last_settle: SimTime,
    /// Completion time, if the flow finished strictly before `upto`.
    finished_at: Option<SimTime>,
    /// An RTO stall in force at the stop point (the stall-clear time).
    stalled_until: Option<SimTime>,
    /// Absolute time of the pending window-round event, if any.
    next_round: Option<SimTime>,
}

/// Replay the per-round event sequence of an uncontended flow, applying
/// events with time strictly before `upto` (pass [`SimTime::MAX`] to run
/// to completion). `on_settle` receives the bytes moved by each settle
/// step, in order — the caller credits them to the path links exactly as
/// `NetState::settle` would. `on_round` observes the TCP state right
/// after each window round is applied (the cwnd probe stream); it is a
/// read-only tap and takes no part in the arithmetic.
///
/// This mirrors `round_event`/`stall_clear`/`finish_event`/`reallocate`
/// for the single-flow case *operation for operation*, including the
/// two-event priority queue semantics (time, then insertion order), so
/// the resulting f64 state is bit-identical to the event loop's.
#[allow(clippy::too_many_arguments)]
fn replay_flow(
    tcp0: &TcpState,
    remaining0: f64,
    rate0: f64,
    t0: SimTime,
    fresh: bool,
    bottleneck: f64,
    min_link: Option<f64>,
    upto: SimTime,
    mut on_settle: impl FnMut(f64),
    mut on_round: impl FnMut(SimTime, &TcpState, RoundOutcome),
) -> ReplayOutcome {
    let mut tcp = tcp0.clone();
    let mut remaining = remaining0;
    let mut rate = rate0;
    let mut last = t0;
    let rtt = tcp.params().rtt;
    // Pending events, at most one of each kind, ordered by (time, seq)
    // like the kernel heap. `fresh` activation pushed its round before
    // the first finish; every later reallocation pushes finish first.
    let mut seq: u64 = 0;
    let mut round: Option<(SimTime, u64)> = None;
    let mut finish: Option<(SimTime, u64)> = None;
    let mut stall: Option<(SimTime, u64)> = None;
    let finish_time = |at: SimTime, remaining: f64, rate: f64| {
        at + SimDuration::from_secs_f64(remaining / rate) + SimDuration::from_nanos(1)
    };
    if fresh && !tcp.saturated() {
        round = Some((t0 + rtt, seq));
        seq += 1;
    }
    if rate > 0.0 {
        finish = Some((finish_time(t0, remaining, rate), seq));
        seq += 1;
    }
    let mut finished_at = None;
    // `settle(t)` for this flow alone.
    macro_rules! settle {
        ($t:expr) => {{
            let dt = $t.since(last).as_secs_f64();
            if dt > 0.0 {
                let moved = (rate * dt).min(remaining);
                remaining -= moved;
                on_settle(moved);
            }
            last = $t;
        }};
    }
    // `reallocate` minus the finish-event scheduling the caller does.
    macro_rules! reallocate {
        ($t:expr) => {{
            rate = single_flow_rate(&tcp, bottleneck, min_link);
            finish = if rate > 0.0 {
                let f = Some((finish_time($t, remaining, rate), seq));
                seq += 1;
                f
            } else {
                None
            };
        }};
    }
    loop {
        let next = [round, finish, stall]
            .into_iter()
            .flatten()
            .min_by_key(|&(t, q)| (t, q));
        let Some((t, _)) = next else { break };
        if t >= upto {
            break;
        }
        if stall.is_some_and(|e| Some(e) == next) {
            // stall_clear: settle, reallocate, schedule the next round.
            stall = None;
            settle!(t);
            reallocate!(t);
            if !tcp.saturated() {
                round = Some((t + rtt, seq));
                seq += 1;
            }
        } else if finish.is_some_and(|e| Some(e) == next) {
            finish.take();
            settle!(t);
            if remaining < 0.5 {
                finished_at = Some(t);
                break;
            }
            // Not done yet (float slack): finish_event reallocates.
            reallocate!(t);
        } else {
            // Window round: settle, grow/collapse the window, reallocate
            // only if the window cap was binding.
            round = None;
            settle!(t);
            let cap = tcp.window_rate().min(bottleneck);
            let was_binding = rate >= cap * 0.999;
            let out = tcp.on_round();
            on_round(t, &tcp, out);
            match out {
                RoundOutcome::Progress => {
                    if was_binding {
                        reallocate!(t);
                    }
                    if !tcp.saturated() {
                        round = Some((t + rtt, seq));
                        seq += 1;
                    }
                }
                RoundOutcome::FastRecovery => {
                    reallocate!(t);
                    if !tcp.saturated() {
                        round = Some((t + rtt, seq));
                        seq += 1;
                    }
                }
                RoundOutcome::RtoStall(d) => {
                    // The stalled allocation zeroes the rate and cancels
                    // the finish; the stall-clear event resumes.
                    rate = 0.0;
                    finish = None;
                    stall = Some((t + d, seq));
                    seq += 1;
                }
            }
        }
    }
    ReplayOutcome {
        tcp,
        remaining,
        rate,
        last_settle: last,
        finished_at,
        stalled_until: stall.map(|(t, _)| t),
        next_round: round.map(|(t, _)| t),
    }
}

/// Path constants the replay needs, extracted so the borrow of `g` can be
/// released before mutating link counters.
fn replay_inputs(g: &NetState, ch: usize) -> (f64, Option<f64>, Vec<LinkId>) {
    let path = &g.channels[ch].path;
    let min_link =
        path.links
            .iter()
            .map(|&l| g.topo.link(l).capacity)
            .fold(None, |acc: Option<f64>, c| {
                Some(match acc {
                    Some(a) if a < c => a,
                    _ => c,
                })
            });
    (path.bottleneck, min_link, path.links.clone())
}

/// If the network has exactly one active flow with nothing that can
/// preempt it, absorb its whole future into a [`FastPlan`] and schedule a
/// single commit event at the finish time. Returns true if the plan was
/// installed (the caller then skips normal finish scheduling).
fn try_enter_fast(g: &mut NetState, net: &SharedNet, s: &Sched, now: SimTime) -> bool {
    if !g.fast_enabled || g.fast.is_some() || g.active.len() != 1 {
        return false;
    }
    let fid = g.active[0];
    let f = g.flows[fid].as_ref().expect("active flow exists");
    let ch = f.chan;
    let c = &g.channels[ch];
    if c.stalled_until > now || f.last_settle != now {
        return false;
    }
    let fresh = f.started == now;
    // A mid-flight flow may have a pending round event at an arbitrary
    // phase; only adopt it once saturated (no rounds will ever fire).
    if !fresh && !c.tcp.saturated() {
        return false;
    }
    let (bottleneck, min_link, _) = replay_inputs(g, ch);
    // Speculative probe run: no link crediting, no observability samples —
    // apply_replay performs both when the plan actually lands.
    let outcome = replay_flow(
        &c.tcp,
        f.remaining,
        f.rate,
        now,
        fresh,
        bottleneck,
        min_link,
        SimTime::MAX,
        |_| {},
        |_, _, _| {},
    );
    let Some(finish_at) = outcome.finished_at else {
        return false;
    };
    // Cancel the activation's round event; the plan replays it instead.
    g.channels[ch].round_gen += 1;
    g.fast_gen += 1;
    let gen = g.fast_gen;
    g.fast = Some(FastPlan {
        ch,
        fid,
        t0: now,
        fresh,
        tcp0: g.channels[ch].tcp.clone(),
        remaining0: g.flows[fid].as_ref().unwrap().remaining,
        rate0: g.flows[fid].as_ref().unwrap().rate,
        finish_at,
        gen,
    });
    let net2 = Arc::clone(net);
    s.call_at(finish_at, move |s2| fast_commit(&net2, s2, gen));
    true
}

/// Re-run a plan's replay up to `upto`, crediting the moved bytes to the
/// plan's path links in settle order and materializing the per-round TCP
/// samples the event loop would have emitted (same channel, same virtual
/// timestamps, same post-round state — the probe stream is identical to
/// the per-round model's).
fn apply_replay(g: &mut NetState, plan: &FastPlan, upto: SimTime) -> ReplayOutcome {
    let _prof = g.prof_scope(|p| p.replay);
    let (bottleneck, min_link, links) = replay_inputs(g, plan.ch);
    let mut steps: Vec<f64> = Vec::new();
    let mut samples: Vec<ObsEvent> = Vec::new();
    let want_samples = g.obs.is_some();
    let ch = plan.ch;
    let outcome = replay_flow(
        &plan.tcp0,
        plan.remaining0,
        plan.rate0,
        plan.t0,
        plan.fresh,
        bottleneck,
        min_link,
        upto,
        |moved| steps.push(moved),
        |t, tcp, out| {
            if want_samples {
                samples.push(tcp_sample(ch, t, tcp, outcome_name(out)));
            }
        },
    );
    if g.link_delivered.len() < g.topo.link_count() {
        g.link_delivered.resize(g.topo.link_count(), 0.0);
    }
    for moved in steps {
        for &l in &links {
            g.link_delivered[l.0 as usize] += moved;
        }
    }
    if let Some(rec) = &g.obs {
        for s in &samples {
            rec.record(s);
        }
    }
    outcome
}

/// Abandon the active plan because another flow is about to start (or a
/// stalled channel to resume): replay the elapsed prefix onto the real
/// state and re-arm the pending per-round events at their original
/// absolute times. The caller settles and reallocates afterwards, exactly
/// as the per-round model would have at this interrupt.
fn materialize(g: &mut NetState, net: &SharedNet, s: &Sched, now: SimTime) {
    let Some(plan) = g.fast.take() else { return };
    g.fast_gen += 1; // Cancel the pending commit event.
    let outcome = apply_replay(g, &plan, now);
    debug_assert!(
        outcome.finished_at.is_none(),
        "a finished plan must commit, not materialize"
    );
    let f = g.flows[plan.fid].as_mut().expect("planned flow exists");
    f.remaining = outcome.remaining;
    f.rate = outcome.rate;
    f.last_settle = outcome.last_settle;
    g.channels[plan.ch].tcp = outcome.tcp;
    let ch = plan.ch;
    let gen = g.channels[ch].round_gen;
    if let Some(until) = outcome.stalled_until {
        g.channels[ch].stalled_until = until;
        let net2 = Arc::clone(net);
        s.call_at(until, move |s2| stall_clear(&net2, s2, ch, gen));
    } else if let Some(at) = outcome.next_round {
        let net2 = Arc::clone(net);
        s.call_at(at, move |s2| round_event(&net2, s2, ch, gen));
    }
    // The pending finish event needs no re-arming: the interrupting event
    // reallocates, which cancels and reschedules finishes in the
    // per-round model too.
}

/// The plan's single completion event: replay the transfer in full, then
/// perform `finish_event`'s bookkeeping for the one finished flow.
fn fast_commit(net: &SharedNet, s: &Sched, gen: u64) {
    let now = s.now();
    let mut g = net.lock();
    if g.fast.as_ref().is_none_or(|p| p.gen != gen) {
        return; // Superseded by a materialize.
    }
    let _prof = g.prof_scope(|p| p.commit);
    let plan = g.fast.take().expect("plan checked above");
    debug_assert_eq!(plan.finish_at, now, "commit must fire at the finish time");
    let outcome = apply_replay(&mut g, &plan, SimTime::MAX);
    debug_assert!(outcome.finished_at == Some(now));
    let ch = plan.ch;
    let fid = plan.fid;
    g.channels[ch].tcp = outcome.tcp;
    g.active.retain(|&x| x != fid);
    g.leave_first_link(ch);
    let mut f = g.flows[fid].take().expect("finished flow exists");
    g.free.push(fid);
    g.channels[ch].bytes_done += f.total;
    emit_flow_finish(&g, ch, now, f.total);
    if now.since(f.started) < g.channels[ch].tcp.params().rtt {
        let stall = g.channels[ch].tcp.on_short_ack(f.total);
        if let Some(rec) = &g.obs {
            rec.record(&tcp_sample(ch, now, &g.channels[ch].tcp, "short_ack"));
        }
        if let Some(stall) = stall {
            let until = now + stall;
            g.channels[ch].stalled_until = until;
            g.channels[ch].round_gen += 1;
            let net2 = Arc::clone(net);
            s.call_at(until, move |s2| resume_channel(&net2, s2, ch));
        }
    }
    let one_way = g.channels[ch].path.rtt / 2;
    let arrival = now + one_way + g.stack_overhead;
    let done = f.done.take();
    g.channels[ch].tcp.touch(now);
    g.channels[ch].active = None;
    g.channels[ch].round_gen += 1;
    if g.channels[ch].stalled_until <= now {
        activate_next(&mut g, net, s, ch, now);
    }
    reallocate(&mut g, net, s, now);
    drop(g);
    if let Some(done) = done {
        done.deliver(s, arrival);
    }
}

/// Enqueue a transfer on `ch`; the returned trigger fires when the last
/// byte reaches the receiver.
pub(crate) fn start_transfer(net: &SharedNet, s: &Sched, ch: ChannelId, bytes: u64, done: DoneFn) {
    let now = s.now();
    let mut g = net.lock();
    // Duplicate traffic (fault injection): spurious retransmissions put
    // extra copies of some segments on the wire, so the flow carries more
    // bytes than the payload for the same goodput.
    let bytes = if g.channels[ch.0].dup > 0.0 {
        bytes + (bytes as f64 * g.channels[ch.0].dup).round() as u64
    } else {
        bytes
    };
    g.channels[ch.0].queue.push_back(PendingTransfer {
        bytes: bytes.max(1),
        done,
    });
    if g.channels[ch.0].active.is_none() && g.channels[ch.0].stalled_until <= now {
        // A new flow is joining: any single-flow plan is no longer alone.
        materialize(&mut g, net, s, now);
        g.settle(now);
        activate_next(&mut g, net, s, ch.0, now);
        reallocate(&mut g, net, s, now);
    }
}

/// Start the next queued transfer on an idle channel. Caller must settle
/// first and reallocate afterwards.
fn activate_next(g: &mut NetState, net: &SharedNet, s: &Sched, ch: usize, now: SimTime) {
    let Some(pt) = g.channels[ch].queue.pop_front() else {
        return;
    };
    g.channels[ch].tcp.on_transfer_start(now);
    // One-time burst credit: the first window's worth of bytes leaves at
    // line rate rather than at the ack-clocked fluid rate, so a
    // window-limited transfer of B bytes costs
    // `rtt/2 + W/line + (B-W)/(W/rtt)` as real TCP does. We charge the
    // difference by discounting the initial backlog.
    let remaining = {
        // Concurrent flows on the same first link (the sender's uplink)
        // share the line: their initial bursts cannot all ride a full
        // pipe, so the credit shrinks with the occupancy.
        let sharing = g.channels[ch]
            .path
            .links
            .first()
            .map(|&l0| 1 + g.first_link_active.get(l0.index()).copied().unwrap_or(0))
            .unwrap_or(1) as f64;
        let c = &g.channels[ch];
        let w = c.tcp.effective_window() as f64;
        let line_bdp = c.path.bottleneck * c.tcp.params().rtt.as_secs_f64() / sharing;
        let factor = (1.0 - w / line_bdp.max(1.0)).max(0.0);
        let credit = (pt.bytes as f64).min(w) * factor;
        // The credited bytes still cross the wire: account them to the
        // links now since `settle` will never see them.
        if g.link_delivered.len() < g.topo.link_count() {
            g.link_delivered.resize(g.topo.link_count(), 0.0);
        }
        let links = g.channels[ch].path.links.clone();
        for l in links {
            g.link_delivered[l.index()] += credit;
        }
        (pt.bytes as f64 - credit).max(1e-3)
    };
    let fid = g.alloc_flow(FlowState {
        chan: ch,
        total: pt.bytes,
        remaining,
        rate: 0.0,
        started: now,
        last_settle: now,
        done: Some(pt.done),
    });
    g.active.push(fid);
    g.enter_first_link(ch);
    g.channels[ch].active = Some(fid);
    g.channels[ch].transfers += 1;
    g.channels[ch].round_gen += 1;
    if let Some(rec) = &g.obs {
        rec.record(&ObsEvent::FlowStart {
            channel: ch as u64,
            t_ns: now.as_nanos(),
            bytes: g.flows[fid].as_ref().unwrap().total,
            queued: g.channels[ch].queue.len() as u64,
        });
    }
    schedule_round(g, net, s, ch, now);
}

/// Record a flow completion and the cumulative delivery of every link on
/// its path (shared by `finish_event` and `fast_commit`, which both call
/// it at the same virtual time with the same link totals).
fn emit_flow_finish(g: &NetState, ch: usize, now: SimTime, bytes: u64) {
    let Some(rec) = &g.obs else { return };
    rec.record(&ObsEvent::FlowFinish {
        channel: ch as u64,
        t_ns: now.as_nanos(),
        bytes,
    });
    for &l in &g.channels[ch].path.links {
        rec.record(&ObsEvent::LinkSample {
            link: l.index() as u64,
            t_ns: now.as_nanos(),
            delivered_bytes: g.link_delivered.get(l.index()).copied().unwrap_or(0.0),
        });
    }
}

fn schedule_round(g: &mut NetState, net: &SharedNet, s: &Sched, ch: usize, now: SimTime) {
    let c = &g.channels[ch];
    if c.tcp.saturated() {
        return; // Flow-control-bound: the window will never move again.
    }
    let gen = c.round_gen;
    let at = now + c.tcp.params().rtt;
    let net2 = Arc::clone(net);
    s.call_at(at, move |s2| round_event(&net2, s2, ch, gen));
}

fn round_event(net: &SharedNet, s: &Sched, ch: usize, gen: u64) {
    let now = s.now();
    let mut g = net.lock();
    if g.channels[ch].round_gen != gen || g.channels[ch].active.is_none() {
        return;
    }
    if g.channels[ch].stalled_until > now {
        return; // The stall-clear event resumes rounds.
    }
    let _prof = g.round_scope(ch);
    g.settle(now);
    let was_binding = g.channels[ch]
        .active
        .map(|fid| g.cap_is_binding(fid, now))
        .unwrap_or(false);
    // Injected segment loss (fault plans only): one Bernoulli draw per
    // window round, with the per-window loss probability derived from the
    // per-segment rate and the number of segments in flight. Channels
    // without a plan take the `false` branch with zero draws, keeping
    // fault-free runs bit-identical.
    let injected = {
        let c = &mut g.channels[ch];
        match c.loss_rng.as_mut() {
            Some(rng) => {
                let segs = (c.tcp.effective_window() as f64 / c.tcp.params().mss as f64).max(1.0);
                let p = 1.0 - (1.0 - c.loss_rate).powf(segs);
                rng.chance(p)
            }
            None => false,
        }
    };
    let out = if injected {
        g.channels[ch].tcp.on_injected_loss()
    } else {
        g.channels[ch].tcp.on_round()
    };
    if injected {
        if let Some(rec) = &g.obs {
            rec.record(&ObsEvent::Fault {
                kind: "segment_loss",
                subject: ch as u64,
                t_ns: now.as_nanos(),
                info: g.channels[ch].tcp.cwnd() as f64,
            });
            if let RoundOutcome::RtoStall(d) = out {
                rec.record(&ObsEvent::Fault {
                    kind: "induced_rto",
                    subject: ch as u64,
                    t_ns: now.as_nanos(),
                    info: d.as_secs_f64(),
                });
            }
        }
    }
    if let Some(rec) = &g.obs {
        rec.record(&tcp_sample(ch, now, &g.channels[ch].tcp, outcome_name(out)));
    }
    match out {
        RoundOutcome::Progress => {
            // Window growth only changes the allocation if the window cap
            // was actually the binding constraint.
            if was_binding {
                reallocate(&mut g, net, s, now);
            }
            schedule_round(&mut g, net, s, ch, now);
        }
        RoundOutcome::FastRecovery => {
            reallocate(&mut g, net, s, now);
            schedule_round(&mut g, net, s, ch, now);
        }
        RoundOutcome::RtoStall(d) => {
            let until = now + d;
            g.channels[ch].stalled_until = until;
            reallocate(&mut g, net, s, now);
            let net2 = Arc::clone(net);
            s.call_at(until, move |s2| stall_clear(&net2, s2, ch, gen));
        }
    }
}

/// Wake a channel whose post-completion RTO stall has elapsed.
fn resume_channel(net: &SharedNet, s: &Sched, ch: usize) {
    let now = s.now();
    let mut g = net.lock();
    if g.channels[ch].stalled_until > now || g.channels[ch].active.is_some() {
        return;
    }
    materialize(&mut g, net, s, now);
    g.settle(now);
    activate_next(&mut g, net, s, ch, now);
    reallocate(&mut g, net, s, now);
}

fn stall_clear(net: &SharedNet, s: &Sched, ch: usize, gen: u64) {
    let now = s.now();
    let mut g = net.lock();
    if g.channels[ch].round_gen != gen {
        return;
    }
    g.settle(now);
    if g.channels[ch].active.is_some() {
        reallocate(&mut g, net, s, now);
        schedule_round(&mut g, net, s, ch, now);
    } else if g.channels[ch].queue.front().is_some() {
        activate_next(&mut g, net, s, ch, now);
        reallocate(&mut g, net, s, now);
    }
}

/// Take every channel whose path crosses one of `links` down for `down`,
/// reusing the RTO-stall machinery: the outage freezes the channel's rate
/// at zero (the water-fill skips stalled channels) and a `stall_clear` at
/// the end of the outage resumes whatever was active or queued. Channels
/// created *during* an outage are not retroactively stalled.
pub(crate) fn fault_path_outage(
    net: &SharedNet,
    s: &Sched,
    links: Vec<LinkId>,
    down: SimDuration,
    kind: &'static str,
    subject: u64,
) {
    let now = s.now();
    let until = now + down;
    let mut g = net.lock();
    materialize(&mut g, net, s, now);
    g.settle(now);
    for ch in 0..g.channels.len() {
        let hit = g.channels[ch].path.links.iter().any(|l| links.contains(l));
        if !hit || g.channels[ch].stalled_until >= until {
            continue;
        }
        g.channels[ch].stalled_until = until;
        g.channels[ch].round_gen += 1;
        let gen = g.channels[ch].round_gen;
        let net2 = Arc::clone(net);
        s.call_at(until, move |s2| stall_clear(&net2, s2, ch, gen));
    }
    if let Some(rec) = &g.obs {
        rec.record(&ObsEvent::Fault {
            kind,
            subject,
            t_ns: now.as_nanos(),
            info: down.as_secs_f64(),
        });
        let up_kind = match kind {
            "link_down" => "link_up",
            _ => "nic_resume",
        };
        let net2 = Arc::clone(net);
        s.call_at(until, move |s2| {
            let g2 = net2.lock();
            if let Some(rec) = &g2.obs {
                rec.record(&ObsEvent::Fault {
                    kind: up_kind,
                    subject,
                    t_ns: s2.now().as_nanos(),
                    info: 0.0,
                });
            }
        });
    }
    reallocate(&mut g, net, s, now);
}

/// Recompute rates and (re)schedule the earliest-finish event — or, when
/// a lone flow qualifies, absorb its future into a fast plan instead.
fn reallocate(g: &mut NetState, net: &SharedNet, s: &Sched, now: SimTime) {
    g.allocate(now);
    g.finish_gen += 1;
    if try_enter_fast(g, net, s, now) {
        return;
    }
    let gen = g.finish_gen;
    let mut earliest: Option<SimTime> = None;
    for &fid in &g.active {
        let f = g.flows[fid].as_ref().unwrap();
        if f.rate > 0.0 {
            let t =
                now + SimDuration::from_secs_f64(f.remaining / f.rate) + SimDuration::from_nanos(1);
            earliest = Some(match earliest {
                Some(e) => e.min(t),
                None => t,
            });
        }
    }
    if let Some(at) = earliest {
        let net2 = Arc::clone(net);
        s.call_at(at, move |s2| finish_event(&net2, s2, gen));
    }
}

fn finish_event(net: &SharedNet, s: &Sched, gen: u64) {
    let now = s.now();
    let mut g = net.lock();
    if g.finish_gen != gen {
        return; // Superseded by a later reallocation.
    }
    let _prof = g.prof_scope(|p| p.finish);
    g.settle(now);
    // Drop finished flows from `active` in one order-preserving pass.
    // Flows the loop below activates are appended after the survivors,
    // in the order their predecessors finished — as if each finished
    // flow had been removed just before its successor started.
    let mut finished: Vec<usize> = Vec::new();
    let NetState { active, flows, .. } = &mut *g;
    active.retain(|&fid| {
        let done = flows[fid].as_ref().expect("active flow exists").remaining < 0.5;
        if done {
            finished.push(fid);
        }
        !done
    });
    let mut fires: Vec<(DoneFn, SimTime)> = Vec::new();
    for fid in finished {
        let mut f = g.flows[fid].take().expect("finished flow exists");
        g.free.push(fid);
        let ch = f.chan;
        // Per flow, not in the pass above: a successor activated below
        // counts the finished flows not yet processed as still sharing
        // the uplink (pinned by a unit test).
        g.leave_first_link(ch);
        g.channels[ch].bytes_done += f.total;
        emit_flow_finish(&g, ch, now, f.total);
        if now.since(f.started) < g.channels[ch].tcp.params().rtt {
            // The flow never lived through a window round: apply the
            // ack-clocked growth it earned. A first-burst overshoot on an
            // unpaced WAN path stalls the channel for one RTO.
            let stall = g.channels[ch].tcp.on_short_ack(f.total);
            if let Some(rec) = &g.obs {
                rec.record(&tcp_sample(ch, now, &g.channels[ch].tcp, "short_ack"));
            }
            if let Some(stall) = stall {
                let until = now + stall;
                g.channels[ch].stalled_until = until;
                g.channels[ch].round_gen += 1;
                let net2 = Arc::clone(net);
                s.call_at(until, move |s2| resume_channel(&net2, s2, ch));
            }
        }
        let one_way = g.channels[ch].path.rtt / 2;
        let arrival = now + one_way + g.stack_overhead;
        if let Some(done) = f.done.take() {
            fires.push((done, arrival));
        }
        g.channels[ch].tcp.touch(now);
        g.channels[ch].active = None;
        g.channels[ch].round_gen += 1;
        if g.channels[ch].stalled_until <= now {
            activate_next(&mut g, net, s, ch, now);
        }
        // A stalled channel resumes from stall_clear.
    }
    reallocate(&mut g, net, s, now);
    drop(g);
    for (done, at) in fires {
        done.deliver(s, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;
    use crate::tcp::TcpParams;
    use crate::topology::{NodeId, NodeParams, SiteParams};
    use desim::prop::forall;
    use std::collections::BTreeMap;

    fn mk_state() -> NetState {
        let mut t = Topology::new();
        let s1 = t.add_site("a", SiteParams::default());
        let _n = t.add_node(s1, NodeParams::default());
        NetState::new(t, SimDuration::from_micros(11))
    }

    fn flow_params(cap_window: u64) -> TcpParams {
        TcpParams {
            mss: 1448,
            init_cwnd: u64::MAX / 4, // effectively no slow start for this test
            cc: KernelConfig::untuned_2007().congestion_control,
            pacing: false,
            max_window: cap_window,
            rtt: SimDuration::from_micros(100),
            bdp: 1 << 30,
            queue_bytes: 1 << 30,
            wan: false,
            slow_start_after_idle: false,
            rto: SimDuration::from_millis(200),
            smax_paced_segments: 8.0,
            smax_unpaced_segments: 2.0,
            beta: 0.8,
        }
    }

    #[test]
    fn waterfill_equal_share_on_common_link() {
        let mut g = mk_state();
        // Two flows, both crossing one 100-unit link, generous caps.
        let link = {
            let mut t = Topology::new();
            let s = t.add_site("x", SiteParams::default());
            let a = t.add_node(s, NodeParams::default());
            let b = t.add_node(s, NodeParams::default());
            let p = t.route(a, b);
            g.topo = t;
            p
        };
        for _ in 0..2 {
            let ch = g.add_channel(link.clone(), TcpState::new(flow_params(1 << 30)));
            let fid = g.alloc_flow(FlowState {
                chan: ch.0,
                total: 1_000_000,
                remaining: 1e6,
                rate: 0.0,
                started: SimTime::ZERO,
                last_settle: SimTime::ZERO,
                done: None,
            });
            g.active.push(fid);
        }
        g.allocate(SimTime::ZERO);
        let r0 = g.flows[0].as_ref().unwrap().rate;
        let r1 = g.flows[1].as_ref().unwrap().rate;
        let nic = NodeParams::default().nic_bytes_per_sec;
        assert!((r0 - r1).abs() < 1.0, "fair shares differ: {r0} vs {r1}");
        // Both cross the same uplink: each gets half the NIC.
        assert!((r0 - nic / 2.0).abs() < 1.0, "r0={r0} nic/2={}", nic / 2.0);
    }

    #[test]
    fn waterfill_respects_window_cap() {
        let mut g = mk_state();
        let (path, _) = {
            let mut t = Topology::new();
            let s = t.add_site("x", SiteParams::default());
            let a = t.add_node(s, NodeParams::default());
            let b = t.add_node(s, NodeParams::default());
            let p = t.route(a, b);
            g.topo = t;
            (p, ())
        };
        // Flow 0 window-capped well below its fair share; flow 1 takes over
        // the slack.
        let small_window = 2_896; // 2 MSS / 100 µs ≈ 29 MB/s
        let ch0 = g.add_channel(path.clone(), TcpState::new(flow_params(small_window)));
        let ch1 = g.add_channel(path.clone(), TcpState::new(flow_params(1 << 30)));
        for ch in [ch0, ch1] {
            let fid = g.alloc_flow(FlowState {
                chan: ch.0,
                total: 1_000_000,
                remaining: 1e6,
                rate: 0.0,
                started: SimTime::ZERO,
                last_settle: SimTime::ZERO,
                done: None,
            });
            g.active.push(fid);
        }
        g.allocate(SimTime::ZERO);
        let r0 = g.flows[0].as_ref().unwrap().rate;
        let r1 = g.flows[1].as_ref().unwrap().rate;
        let nic = NodeParams::default().nic_bytes_per_sec;
        assert!((r0 - 2.896e7).abs() < 10.0, "r0={r0}");
        assert!((r1 - (nic - 2.896e7)).abs() < 10.0, "r1={r1}");
    }

    /// Reference water-fill: the progressive filling `allocate` replaced
    /// (a `BTreeMap` link table and fresh buffers per call, and a rescan
    /// of every flow per bottleneck round). `allocate` must reproduce its
    /// rates bit for bit. Returns the rates in `active` order.
    fn oracle_rates(g: &NetState, now: SimTime) -> Vec<f64> {
        let n = g.active.len();
        let mut caps: Vec<f64> = Vec::with_capacity(n);
        let mut memberships: Vec<&[LinkId]> = Vec::with_capacity(n);
        for &fid in &g.active {
            let f = g.flows[fid].as_ref().unwrap();
            let ch = &g.channels[f.chan];
            let cap = if ch.stalled_until > now {
                0.0
            } else {
                ch.tcp.window_rate().min(ch.path.bottleneck)
            };
            caps.push(cap);
            memberships.push(&ch.path.links);
        }
        let mut link_index: BTreeMap<LinkId, usize> = BTreeMap::new();
        let mut residual: Vec<f64> = Vec::new();
        let mut users: Vec<usize> = Vec::new();
        let mut flow_links: Vec<[usize; 3]> = Vec::with_capacity(n);
        let mut flow_nlinks: Vec<u8> = Vec::with_capacity(n);
        for m in &memberships {
            let mut idxs = [usize::MAX; 3];
            for (k, &l) in m.iter().enumerate() {
                let li = *link_index.entry(l).or_insert_with(|| {
                    residual.push(g.topo.link(l).capacity);
                    users.push(0);
                    residual.len() - 1
                });
                users[li] += 1;
                idxs[k] = li;
            }
            flow_links.push(idxs);
            flow_nlinks.push(m.len() as u8);
        }
        let mut rate = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        let mut unfrozen = n;
        macro_rules! freeze {
            ($i:expr, $r:expr) => {{
                frozen[$i] = true;
                unfrozen -= 1;
                rate[$i] = $r;
                for k in 0..flow_nlinks[$i] as usize {
                    let li = flow_links[$i][k];
                    residual[li] = (residual[li] - $r).max(0.0);
                    users[li] -= 1;
                }
            }};
        }
        for i in 0..n {
            if !frozen[i] && caps[i] <= 0.0 {
                freeze!(i, 0.0);
            }
        }
        while unfrozen > 0 {
            let mut link_level = f64::INFINITY;
            let mut link_at = usize::MAX;
            for li in 0..residual.len() {
                if users[li] > 0 {
                    let lvl = residual[li] / users[li] as f64;
                    if lvl < link_level {
                        link_level = lvl;
                        link_at = li;
                    }
                }
            }
            let mut cap_level = f64::INFINITY;
            for i in 0..n {
                if !frozen[i] {
                    cap_level = cap_level.min(caps[i]);
                }
            }
            let eps = 1e-9;
            if cap_level <= link_level * (1.0 + eps) || link_at == usize::MAX {
                for i in 0..n {
                    if !frozen[i] && caps[i] <= cap_level * (1.0 + eps) {
                        let r = caps[i];
                        freeze!(i, r);
                    }
                }
            } else {
                for i in 0..n {
                    if !frozen[i] && flow_links[i][..flow_nlinks[i] as usize].contains(&link_at) {
                        freeze!(i, link_level);
                    }
                }
            }
        }
        rate
    }

    /// Start a flow on a fresh channel over `path` and make it active.
    fn push_flow(g: &mut NetState, path: Path, window: u64) -> usize {
        let ch = g.add_channel(path, TcpState::new(flow_params(window)));
        let fid = g.alloc_flow(FlowState {
            chan: ch.0,
            total: 1_000_000,
            remaining: 1e6,
            rate: 0.0,
            started: SimTime::ZERO,
            last_settle: SimTime::ZERO,
            done: None,
        });
        g.active.push(fid);
        fid
    }

    fn rates(g: &NetState) -> Vec<f64> {
        g.active
            .iter()
            .map(|&fid| g.flows[fid].as_ref().unwrap().rate)
            .collect()
    }

    #[test]
    fn allocate_matches_oracle_bit_for_bit() {
        let base = NodeParams::default().nic_bytes_per_sec;
        // Deviations around a level: exact, inside and at the 1e-9
        // tolerance, and just outside it.
        let deltas = [0.0, 0.0, 3e-10, -3e-10, 1e-9, -1e-9, 2e-9, -2e-9];
        forall(2000, 0x0a11_0ca7_e5ee_d001, |rng| {
            // NIC and WAN capacities: equal, within 1e-9 relative, or apart.
            let nics = [
                base,
                base,
                base * (1.0 + 4e-10),
                base * (1.0 - 7e-10),
                base / 2.0,
            ];
            let mut t = Topology::new();
            let sites = [
                t.add_site("a", SiteParams::default()),
                t.add_site("b", SiteParams::default()),
            ];
            let mut nodes: Vec<NodeId> = Vec::new();
            for &site in &sites {
                for _ in 0..3 {
                    let nic = *rng.pick(&nics);
                    nodes.push(t.add_node(
                        site,
                        NodeParams {
                            nic_bytes_per_sec: nic,
                            ..NodeParams::default()
                        },
                    ));
                }
            }
            let wan = *rng.pick(&[base, base * (1.0 + 1e-9), base / 3.0, 2.0 * base]);
            t.connect_sites(
                sites[0],
                sites[1],
                SimDuration::from_millis(10),
                wan,
                1 << 20,
            );
            // Every level a link of k ≤ 4 users can sit at.
            let levels: Vec<f64> = (0..t.link_count())
                .flat_map(|l| {
                    let c = t.link(LinkId(l as u32)).capacity;
                    (1..=4).map(move |k| c / k as f64)
                })
                .collect();
            let mut g = NetState::new(t, SimDuration::ZERO);
            let now = SimTime::from_nanos(1_000);
            let add = |g: &mut NetState, rng: &mut Rng| {
                let a = *rng.pick(&nodes);
                // Loopback (no links), LAN (2 links) or WAN (3 links).
                let b = if rng.chance(0.15) {
                    a
                } else {
                    *rng.pick(&nodes)
                };
                let mut path = g.topo.route(a, b);
                if rng.chance(0.6) {
                    path.bottleneck = rng.pick(&levels) * (1.0 + rng.pick(&deltas));
                }
                // Mostly link- or bottleneck-bound; some window-bound.
                let window = if rng.chance(0.2) {
                    rng.range_u64(1448, 40_000)
                } else {
                    1 << 40
                };
                let fid = push_flow(g, path, window);
                let ch = g.flows[fid].as_ref().unwrap().chan;
                // Stalled (cap 0), stall ending exactly now, or running.
                g.channels[ch].stalled_until = match rng.range_u64(0, 8) {
                    0 => now + SimDuration::from_micros(1),
                    1 => now,
                    _ => SimTime::ZERO,
                };
            };
            for _ in 0..rng.range_usize(1, 25) {
                add(&mut g, rng);
            }
            // Back-to-back calls as the active set shrinks (and now and
            // then gains a flow), so stale scratch state would show.
            while !g.active.is_empty() {
                let want = oracle_rates(&g, now);
                g.allocate(now);
                let got = rates(&g);
                for (i, (r, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(r.to_bits(), w.to_bits(), "flow {i}: {r} vs oracle {w}");
                }
                assert!(
                    g.fill.slot.iter().all(|&s| s == NO_SLOT),
                    "slot table not reset"
                );
                g.active.retain(|_| !rng.chance(0.35));
                if rng.chance(0.25) {
                    add(&mut g, rng);
                }
            }
        });
    }

    #[test]
    fn tied_links_freeze_in_encounter_order() {
        // Five flows inside one site: `s` = a→b plus two more out of a's
        // uplink (a→c, a→d) and two more into b's downlink (c→b, d→b).
        // Both of those links sit at level C/3. Whichever is frozen first
        // hands its three flows exactly C/3; the other link's two
        // remaining flows then get (C − C/3)/2, one ulp off C/3.
        let build = |order: &[usize]| -> Vec<f64> {
            let mut g = mk_state();
            let mut t = Topology::new();
            let site = t.add_site("x", SiteParams::default());
            let [a, b, c, d] = [0; 4].map(|_| t.add_node(site, NodeParams::default()));
            let paths = [
                t.route(a, b),
                t.route(a, c),
                t.route(a, d),
                t.route(c, b),
                t.route(d, b),
            ];
            g.topo = t;
            let fids: Vec<usize> = order
                .iter()
                .map(|&k| push_flow(&mut g, paths[k].clone(), 1 << 40))
                .collect();
            g.allocate(SimTime::ZERO);
            // Rates indexed by flow kind, whatever the active order.
            let mut by_kind = vec![0.0; 5];
            for (&k, &fid) in order.iter().zip(&fids) {
                by_kind[k] = g.flows[fid].as_ref().unwrap().rate;
            }
            by_kind
        };
        let c = NodeParams::default().nic_bytes_per_sec;
        let third = c / 3.0;
        let rest = (c - third) / 2.0;
        assert_ne!(
            third.to_bits(),
            rest.to_bits(),
            "the tie must be observable"
        );
        let bits = |v: Vec<f64>| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        // `s` first: a's uplink is met first and wins the tie.
        assert_eq!(
            bits(build(&[0, 1, 2, 3, 4])),
            bits(vec![third, third, third, rest, rest])
        );
        // c→b first: b's downlink is met before a's uplink and wins.
        assert_eq!(
            bits(build(&[3, 4, 0, 1, 2])),
            bits(vec![third, rest, rest, third, third])
        );
    }

    #[test]
    fn successor_burst_credit_counts_flows_finishing_in_the_same_event() {
        // a→b carries X then, queued behind it, Z; a→c carries Y. X and Y
        // share a's uplink, run at the same window-capped rate and are
        // sized to finish in one event. X is processed first, so when Z
        // starts, Y still counts as occupying the uplink: Z's first burst
        // is credited at `sharing` = 2, not 1.
        let mut t = Topology::new();
        let site = t.add_site("x", SiteParams::default());
        let [a, b, c] = [0; 3].map(|_| t.add_node(site, NodeParams::default()));
        let (ab, ac) = (t.route(a, b), t.route(a, c));
        let line_bdp = ab.bottleneck * 100e-6; // flow_params RTT: 100 µs
        let w = 4_344u64; // 3 MSS, well under the line BDP
        let credit = |sharing: f64| w as f64 * (1.0 - w as f64 / (line_bdp / sharing)).max(0.0);
        let x_bytes = 200_000u64;
        let y_bytes = (x_bytes as f64 - credit(1.0) + credit(2.0)).round() as u64;
        let z_bytes = 50_000u64;
        let net: SharedNet = Arc::new(Mutex::new(NetState::new(t, SimDuration::ZERO)));
        let (ch_x, ch_y) = {
            let mut g = net.lock();
            (
                g.add_channel(ab, TcpState::new(flow_params(w))),
                g.add_channel(ac, TcpState::new(flow_params(w))),
            )
        };
        // At X's finish: how many flows are left, and Z's backlog.
        let seen: Arc<Mutex<Option<(usize, f64)>>> = Arc::new(Mutex::new(None));
        let sim = desim::Sim::new();
        let (net2, seen2) = (Arc::clone(&net), Arc::clone(&seen));
        sim.spawn_task("sender", move |cx| async move {
            let s = cx.sched();
            let net3 = Arc::clone(&net2);
            let on_x = DoneFn::AtFinish(Box::new(move |_: &Sched, _| {
                let g = net3.lock();
                let z = g.channels[ch_x.0].active.expect("Z started");
                let z_remaining = g.flows[z].as_ref().unwrap().remaining;
                *seen2.lock() = Some((g.active.len(), z_remaining));
            }));
            let noop = || DoneFn::AtFinish(Box::new(|_: &Sched, _| {}));
            start_transfer(&net2, &s, ch_x, x_bytes, on_x);
            start_transfer(&net2, &s, ch_y, y_bytes, noop());
            start_transfer(&net2, &s, ch_x, z_bytes, noop());
            // Keep the run alive while the transfers drain.
            cx.advance(SimDuration::from_secs(1)).await;
        });
        sim.run().unwrap();
        let (left, z_remaining) = seen.lock().expect("X finished");
        assert_eq!(left, 1, "X and Y must finish in the same event");
        let want = z_bytes as f64 - credit(2.0);
        assert!(
            (z_remaining - want).abs() < 1e-6,
            "Z backlog {z_remaining}, want {want} (sharing 1 would give {})",
            z_bytes as f64 - credit(1.0)
        );
    }
}
