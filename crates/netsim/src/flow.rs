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
//! ## Pinned segments
//!
//! A lone flow whose rate is pinned at its path bottleneck gains nothing
//! from a window round but its window: every round settles one RTT at the
//! one rate and reallocates to that rate again. While the flow's next
//! round would also be the next entry its kernel runs ([`Sched::bound`]),
//! [`round_event`] runs those rounds back to back on the live state, in a
//! *pinned segment* ([`pinned_segment`]), and queues only the last one's
//! reallocation and successor. Every round still applies its window
//! step, emits its TCP sample and credits its bytes to the path links, at
//! its own virtual time and in its own order, so virtual timings and
//! traced streams are those of one round per dispatch; only the host-side
//! event count changes.
//!
//! ## Timers
//!
//! Window rounds and the finish event are not kernel heap events: each
//! network keeps them in its [`Timers`], a [`Timeline`] attached to the
//! kernel that drives it. Every entry is keyed by [`Sched::stamp`], so the
//! kernel runs it exactly where the `call_at` event it replaces would
//! have run.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use desim::fault::FaultPlan;
use desim::obs::profile::{HostProfiler, ProfKey, ProfScope};
use desim::obs::{Event as ObsEvent, Recorder};
use desim::prop::Rng;
use desim::{EventKey, Sched, SimDuration, SimTime, Timeline, TimelineId};

use crate::tcp::{RoundOutcome, TcpState};
use crate::topology::{LinkId, Path, Topology};

/// Identifier of a unidirectional TCP channel created by
/// [`crate::Network::channel`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ChannelId(pub(crate) usize);

/// Callback invoked (in `Sched` context) when the last byte of a transfer
/// reaches the receiving host.
pub(crate) type ArrivalFn = Box<dyn FnOnce(&Sched)>;

pub(crate) struct PendingTransfer {
    bytes: u64,
    done: ArrivalFn,
}

pub(crate) struct ChannelState {
    pub(crate) path: Path,
    pub(crate) tcp: TcpState,
    active: Option<usize>,
    queue: VecDeque<PendingTransfer>,
    stalled_until: SimTime,
    /// Bumped whenever the channel's pending round is cancelled: a round
    /// queued under an older value is stale.
    round_gen: u64,
    /// Index of the channel's round lane in [`Timers::lanes`].
    lane: usize,
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

impl ChannelState {
    /// The rate cap the water-fill gives this channel's flow at `now`: 0
    /// while the channel is stalled, else its window rate clipped to the
    /// path bottleneck.
    fn cap(&self, now: SimTime) -> f64 {
        if self.stalled_until > now {
            0.0
        } else {
            self.tcp.window_rate().min(self.path.bottleneck)
        }
    }
}

struct FlowState {
    chan: usize,
    total: u64,
    remaining: f64,
    rate: f64,
    started: SimTime,
    last_settle: SimTime,
    done: Option<ArrivalFn>,
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
    /// Pending window rounds and the finish event.
    timers: Timers,
    /// Reused buffers of [`finish_event`]: the flows finishing at this
    /// instant, and their arrival callbacks.
    finished: Vec<usize>,
    fires: Vec<(ArrivalFn, SimTime)>,
    /// The instant of the last reallocation [`request_realloc`] ran at
    /// once: later requests at that instant share one queued reallocation.
    realloc_at: Option<SimTime>,
    /// True while that queued reallocation has not run yet.
    realloc_queued: bool,
    /// The instant every active flow is settled to, if any: a second
    /// [`NetState::settle`] at that instant has nothing to integrate.
    settled_at: Option<SimTime>,
    /// True once an input of the water-fill may have changed since the
    /// last fill (see [`NetState::allocate`]).
    fill_dirty: bool,
    /// The earliest stall end among the flows the last fill gave cap 0
    /// ([`SimTime::MAX`] if none): from that instant their caps differ
    /// although nothing was written.
    fill_stall_end: SimTime,
    /// The last fill's inputs, one `(channel, cap bits)` per position in
    /// `active`: debug builds check every skipped fill against them.
    #[cfg(debug_assertions)]
    fill_inputs: Vec<(usize, u64)>,
    /// Water-fills run so far: the unit tests pin what a burst costs.
    #[cfg(test)]
    fills: u64,
    /// Finish instants converted so far: the unit tests pin what a
    /// pinned segment saves.
    #[cfg(test)]
    finish_conversions: u64,
    /// Whether rounds may run in pinned segments: the unit tests turn
    /// them off to compare with one round per dispatch.
    #[cfg(test)]
    pub(crate) segments: bool,
    /// Bytes delivered over each directed link (utilization accounting).
    pub(crate) link_delivered: Vec<f64>,
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
/// [`HostProfiler`]. Per-link settle keys and per-channel round keys carry
/// link labels (`site:<name>` for LAN access links, `wan:<a>-><b>` for
/// WAN trunks). Every key a network can use is interned once per
/// profiler and set of labels ([`HostProfiler::intern_set`]): attaching
/// looks the set up, and a link or channel indexes it by its label.
///
/// Sampling is the kernel's: a handler times its scopes only when the
/// dispatch it runs in is sampled ([`Sched::host_sample`]), with that
/// dispatch's weight, so a sampled window round times its round, settle
/// and allocate scopes together and an unsampled one reads no clock.
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
    /// The key set: the three above, the round key of a channel without
    /// links, then each of the topology's link labels' settle keys
    /// (`netsim;settle;<label>`), then their round keys
    /// (`netsim;round_event;<label>`).
    keys: Arc<[ProfKey]>,
    /// Scratch copy of `link_delivered` taken at settle entry so the
    /// per-link deltas can be computed without a per-settle allocation.
    settle_scratch: Vec<f64>,
    /// The sample weight of the dispatch in progress, 0 if unsampled.
    weight: u64,
}

impl NetProf {
    pub(crate) fn new(prof: Arc<HostProfiler>, topo: &Topology) -> NetProf {
        let keys = prof.intern_set(&topo.link_labels_tag("netsim"), || {
            let labels = topo.link_labels();
            let flat = ["settle", "allocate", "finish_event", "round_event;local"];
            let settle = labels.iter().map(|l| format!("settle;{l}"));
            let round = labels.iter().map(|l| format!("round_event;{l}"));
            flat.into_iter()
                .map(String::from)
                .chain(settle)
                .chain(round)
                .map(|k| format!("netsim;{k}"))
                .collect()
        });
        NetProf {
            prof,
            settle: keys[0],
            allocate: keys[1],
            finish: keys[2],
            keys,
            settle_scratch: Vec::new(),
            weight: 0,
        }
    }

    /// The settle key of link `l`'s label.
    fn link_key(&self, topo: &Topology, l: LinkId) -> ProfKey {
        self.keys[4 + topo.link_label_index(l)]
    }

    /// The round key of a channel over `links`: its WAN trunk's label if
    /// it crosses one, else its first link's.
    fn round_key(&self, topo: &Topology, links: &[LinkId]) -> ProfKey {
        let labels = (self.keys.len() - 4) / 2;
        match links
            .iter()
            .find(|&&l| topo.is_wan_link(l))
            .or(links.first())
        {
            Some(&l) => self.keys[4 + labels + topo.link_label_index(l)],
            None => self.keys[3],
        }
    }
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
            timers: Timers::default(),
            finished: Vec::new(),
            fires: Vec::new(),
            realloc_at: None,
            realloc_queued: false,
            settled_at: None,
            fill_dirty: true,
            fill_stall_end: SimTime::MAX,
            #[cfg(debug_assertions)]
            fill_inputs: Vec::new(),
            #[cfg(test)]
            fills: 0,
            #[cfg(test)]
            finish_conversions: 0,
            #[cfg(test)]
            segments: true,
            link_delivered: Vec::new(),
            obs: None,
            faults: None,
            host_prof: None,
        }
    }

    /// Take the kernel's sampling decision for the dispatch in progress.
    /// Every handler starts with this (see [`NetProf`]).
    fn follow_sample(&mut self, s: &Sched) {
        if let Some(hp) = self.host_prof.as_mut() {
            hp.weight = s.host_sample().unwrap_or(0);
        }
    }

    /// Mark the water-fill's inputs changed if channel `ch`'s cap at `t`
    /// is no longer `before` (bit for bit): a window round's, or a pinned
    /// segment's last round's.
    fn cap_moved(&mut self, ch: usize, t: SimTime, before: f64) {
        if self.channels[ch].cap(t).to_bits() != before.to_bits() {
            self.fill_dirty = true;
        }
    }

    /// Scope guard attributing to one of the flat handler keys (no-op
    /// when no profiler is attached or the dispatch is unsampled).
    fn prof_scope(&mut self, pick: impl Fn(&NetProf) -> ProfKey) -> Option<ProfScope> {
        let hp = self.host_prof.as_ref().filter(|hp| hp.weight != 0)?;
        Some(hp.prof.scope_sampled(pick(hp), hp.weight))
    }

    /// Scope guard for one channel's round handler, keyed by the
    /// channel's link label (its WAN trunk if it crosses one,
    /// else its first access link's site). Sampled like [`Self::prof_scope`].
    fn round_scope(&mut self, ch: usize) -> Option<ProfScope> {
        let hp = self.host_prof.as_ref().filter(|hp| hp.weight != 0)?;
        let key = hp.round_key(&self.topo, &self.channels[ch].path.links);
        Some(hp.prof.scope_sampled(key, hp.weight))
    }

    pub(crate) fn add_channel(&mut self, path: Path, tcp: TcpState) -> ChannelId {
        let index = self.channels.len();
        let lane = self.timers.lane_for(tcp.params().rtt);
        let mut c = ChannelState {
            path,
            tcp,
            active: None,
            queue: VecDeque::new(),
            stalled_until: SimTime::ZERO,
            round_gen: 0,
            lane,
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
    /// gets its loss/duplication parameters and seeded draw stream (a
    /// channel that draws losses runs no pinned segment). Empty plans are
    /// rejected by the caller ([`crate::Network::install_faults`]) so
    /// fault-free runs carry no fault state whatsoever.
    pub(crate) fn install_faults(&mut self, plan: &FaultPlan) {
        debug_assert!(!plan.is_empty(), "empty plans must not be installed");
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
        if self.settled_at == Some(now) {
            return;
        }
        // In a sampled dispatch, snapshot the
        // per-link byte counters so the elapsed wall clock can be
        // attributed to the links that actually moved bytes — the
        // per-link breakdown. The snapshot reuses the scratch
        // buffer: no allocation on the settle path.
        let t0 = match self.host_prof.as_mut() {
            Some(hp) if hp.weight != 0 => {
                hp.settle_scratch.clear();
                hp.settle_scratch.extend_from_slice(&self.link_delivered);
                Some(Instant::now())
            }
            _ => None,
        };
        for &fid in &self.active {
            let f = self.flows[fid].as_mut().expect("active flow exists");
            let dt = now.since(f.last_settle).as_secs_f64();
            if dt > 0.0 {
                let moved = (f.rate * dt).min(f.remaining);
                f.remaining -= moved;
                f.last_settle = now;
                let links = &self.channels[f.chan].path.links;
                credit_links(&mut self.link_delivered, &self.topo, links, moved);
            } else {
                f.last_settle = now;
            }
        }
        if let (Some(t0), Some(hp)) = (t0, self.host_prof.as_mut()) {
            let ns = t0.elapsed().as_nanos() as u64;
            let delta = |before: &[f64], i: usize, d: f64| -> f64 {
                d - before.get(i).copied().unwrap_or(0.0)
            };
            let total: f64 = self
                .link_delivered
                .iter()
                .enumerate()
                .map(|(i, &d)| delta(&hp.settle_scratch, i, d).max(0.0))
                .sum();
            if total > 0.0 {
                for (i, &d) in self.link_delivered.iter().enumerate() {
                    let d = delta(&hp.settle_scratch, i, d);
                    if d > 0.0 {
                        let key = hp.link_key(&self.topo, LinkId(i as u32));
                        hp.prof
                            .add_ns_sampled(key, (ns as f64 * d / total) as u64, hp.weight);
                    }
                }
            } else {
                hp.prof.add_ns_sampled(hp.settle, ns, hp.weight);
            }
        }
        self.settled_at = Some(now);
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
    ///
    /// A call whose inputs are those of the last fill skips the fill and
    /// leaves every rate as that fill set it; only the fill is skipped.
    /// Link capacities and channel paths never change, so `fill_dirty`
    /// is set wherever another input may move:
    /// - `active` gains a flow ([`activate_next`]) or loses one
    ///   ([`finish_event`]);
    /// - `stalled_until` is written ([`NetState::stall`]: RTO and
    ///   short-ack stalls, outages);
    /// - the top of [`stall_clear`] and [`resume_channel`], stale or not;
    /// - a window round moves its flow's cap bits ([`round_event`],
    ///   [`pinned_segment`]).
    ///
    /// A stalled flow's cap also moves, unwritten, when its stall ends, so
    /// no fill is skipped from `fill_stall_end` on. Debug builds check
    /// every skipped fill against the last fill's inputs.
    fn allocate(&mut self, now: SimTime) {
        if self.active.is_empty() {
            return;
        }
        if !self.fill_dirty && now < self.fill_stall_end {
            #[cfg(debug_assertions)]
            self.check_skipped_fill(now);
            return;
        }
        let _prof = self.prof_scope(|p| p.allocate);
        #[cfg(test)]
        {
            self.fills += 1;
        }
        self.fill_dirty = false;
        let mut stall_end = SimTime::MAX;
        #[cfg(debug_assertions)]
        self.fill_inputs.clear();
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
            let cap = ch.cap(now);
            if ch.stalled_until > now {
                stall_end = stall_end.min(ch.stalled_until);
            }
            #[cfg(debug_assertions)]
            self.fill_inputs.push((f.chan, cap.to_bits()));
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
        self.fill_stall_end = stall_end;
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

    /// Panic unless the active flows' channels and cap bits are those the
    /// last fill saw: a skipped fill must be one that would change nothing.
    /// Channels, not flow ids, are compared: flow slots are reused.
    #[cfg(debug_assertions)]
    fn check_skipped_fill(&self, now: SimTime) {
        let inputs = self.active.iter().map(|&fid| {
            let ch = self.flows[fid].as_ref().expect("active flow exists").chan;
            (ch, self.channels[ch].cap(now).to_bits())
        });
        assert!(
            inputs.eq(self.fill_inputs.iter().copied()),
            "water-fill skipped at {now:?} although its inputs changed"
        );
    }

    /// Stall channel `ch` until `until`: its flow's cap is 0 before then.
    fn stall(&mut self, ch: usize, until: SimTime) {
        self.channels[ch].stalled_until = until;
        self.fill_dirty = true;
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

pub(crate) type SharedNet = Rc<RefCell<NetState>>;

/// A network's pending window rounds and finish event, dispatched by the
/// kernel as a [`Timeline`] in the kernel's `(time, seq)` order.
///
/// A round is due one RTT after it is queued, and a channel's RTT never
/// changes, so a FIFO lane per distinct RTT stays sorted by key. A network
/// has at most one live finish event, so it is one slot that each
/// [`reallocate`] overwrites. Stale rounds (their channel's `round_gen`
/// moved on) are dropped at the lane heads and never dispatched.
#[derive(Default)]
struct Timers {
    /// The timeline this network is attached as, on the kernel that
    /// drives it.
    id: Option<TimelineId>,
    lanes: Vec<Lane>,
    finish: Option<EventKey>,
    /// The key last published to the kernel.
    published: Option<EventKey>,
}

/// The rounds due one `rtt` after they were queued, in key order.
struct Lane {
    rtt: SimDuration,
    rounds: VecDeque<Round>,
}

/// A pending window round of channel `ch`, queued under `round_gen` `gen`.
#[derive(Clone, Copy)]
struct Round {
    key: EventKey,
    ch: usize,
    gen: u64,
}

impl Timers {
    /// The lane of channels whose RTT is `rtt`, added if new.
    fn lane_for(&mut self, rtt: SimDuration) -> usize {
        if let Some(i) = self.lanes.iter().position(|l| l.rtt == rtt) {
            return i;
        }
        self.lanes.push(Lane {
            rtt,
            rounds: VecDeque::new(),
        });
        self.lanes.len() - 1
    }

    /// Queue a round keyed `key`: keys of one lane arrive in order.
    fn push_round(&mut self, lane: usize, round: Round) {
        let rounds = &mut self.lanes[lane].rounds;
        debug_assert!(rounds.back().is_none_or(|r| r.key < round.key));
        rounds.push_back(round);
    }
}

/// The kernel's handle on a network's [`Timers`]. `id` is the timeline id
/// it was attached under; once the network has moved to another kernel,
/// the old kernel's dispatches find the ids differ and run nothing.
struct NetTimeline {
    net: SharedNet,
    id: Cell<Option<TimelineId>>,
}

impl Timeline for NetTimeline {
    fn dispatch(&self, s: &Sched, key: EventKey) -> bool {
        let net = &self.net;
        let mut g = net.borrow_mut();
        let id = self.id.get().expect("set at attach");
        if g.timers.id != Some(id) {
            s.publish(id, None);
            return false;
        }
        g.follow_sample(s);
        let lane = g
            .timers
            .lanes
            .iter()
            .position(|l| l.rounds.front().is_some_and(|r| r.key == key));
        // Published keys are kept exact (every handler ends in `sync`),
        // so the key names the finish or a lane head.
        let ran = if g.timers.finish == Some(key) {
            g.timers.finish = None;
            finish_event(&mut g, net, s);
            true
        } else if let Some(lane) = lane {
            let r = g.timers.lanes[lane].rounds.pop_front().expect("found");
            round_event(&mut g, net, s, r.ch, r.gen);
            true
        } else {
            false
        };
        g.sync(s);
        ran
    }
}

impl NetState {
    /// Attach the timers to `s`'s kernel unless they already are. The
    /// entries pending on a previous kernel are dropped, as that kernel's
    /// heap events would be.
    fn bind(&mut self, net: &SharedNet, s: &Sched) {
        if self.timers.id.is_some_and(|id| s.owns(id)) {
            return;
        }
        for lane in &mut self.timers.lanes {
            lane.rounds.clear();
        }
        self.timers.finish = None;
        self.timers.published = None;
        let tl = Rc::new(NetTimeline {
            net: Rc::clone(net),
            id: Cell::new(None),
        });
        let id = s.attach_timeline(Rc::clone(&tl) as Rc<dyn Timeline>);
        tl.id.set(Some(id));
        self.timers.id = Some(id);
    }

    /// Drop the stale rounds at the lane heads and publish the earliest
    /// pending key if it moved. Every handler ends with this, so the
    /// published key is always a live entry when the kernel looks.
    fn sync(&mut self, s: &Sched) {
        let NetState {
            timers, channels, ..
        } = self;
        let mut next = timers.finish;
        for lane in &mut timers.lanes {
            while let Some(r) = lane.rounds.front() {
                let c = &channels[r.ch];
                if c.round_gen == r.gen && c.active.is_some() {
                    next = Some(next.map_or(r.key, |n| n.min(r.key)));
                    break;
                }
                lane.rounds.pop_front();
            }
        }
        if next != timers.published {
            timers.published = next;
            s.publish(timers.id.expect("bound by the handler"), next);
        }
    }
}

/// Run one handler on the network for kernel `s`: bind the timers to it,
/// run `f`, then publish the timers' earliest key.
fn handle(net: &SharedNet, s: &Sched, f: impl FnOnce(&mut NetState)) {
    let mut g = net.borrow_mut();
    g.bind(net, s);
    g.follow_sample(s);
    f(&mut g);
    g.sync(s);
}

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

/// Record window round `out` of channel `ch` at `t`, if a recorder is
/// attached: each round's dispatch, and each round of a pinned segment.
fn record_round(
    obs: &Option<Arc<dyn Recorder>>,
    ch: usize,
    t: SimTime,
    tcp: &TcpState,
    out: RoundOutcome,
) {
    if let Some(rec) = obs {
        rec.record(&tcp_sample(ch, t, tcp, outcome_name(out)));
    }
}

/// Credit `moved` bytes to each of `links` in the per-link delivery
/// counters: every settled interval, a pinned segment's rounds included.
fn credit_links(delivered: &mut Vec<f64>, topo: &Topology, links: &[LinkId], moved: f64) {
    if delivered.len() < topo.link_count() {
        delivered.resize(topo.link_count(), 0.0);
    }
    for &l in links {
        delivered[l.index()] += moved;
    }
}

/// Enqueue a transfer on `ch`; the returned trigger fires when the last
/// byte reaches the receiver.
pub(crate) fn start_transfer(
    net: &SharedNet,
    s: &Sched,
    ch: ChannelId,
    bytes: u64,
    done: ArrivalFn,
) {
    handle(net, s, |g| enqueue_transfer(g, net, s, ch, bytes, done));
}

fn enqueue_transfer(
    g: &mut NetState,
    net: &SharedNet,
    s: &Sched,
    ch: ChannelId,
    bytes: u64,
    done: ArrivalFn,
) {
    let now = s.now();
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
        g.settle(now);
        activate_next(g, s, ch.0, now);
        request_realloc(g, net, s, now);
    }
}

/// Start the next queued transfer on an idle channel. Caller must settle
/// first and reallocate afterwards.
fn activate_next(g: &mut NetState, s: &Sched, ch: usize, now: SimTime) {
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
        let NetState {
            channels,
            link_delivered,
            ..
        } = &mut *g;
        for &l in &channels[ch].path.links {
            link_delivered[l.index()] += credit;
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
    g.fill_dirty = true;
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
    schedule_round(g, s, ch, now);
}

/// Record a flow completion and the cumulative delivery of every link on
/// its path.
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

/// Queue `ch`'s next window round, one RTT from `now`.
fn schedule_round(g: &mut NetState, s: &Sched, ch: usize, now: SimTime) {
    let c = &g.channels[ch];
    if c.tcp.saturated() {
        return; // Flow-control-bound: the window will never move again.
    }
    let key = s.stamp(now + c.tcp.params().rtt);
    let round = Round {
        key,
        ch,
        gen: c.round_gen,
    };
    g.timers.push_round(c.lane, round);
}

fn round_event(g: &mut NetState, net: &SharedNet, s: &Sched, ch: usize, gen: u64) {
    let now = s.now();
    debug_assert!(
        g.channels[ch].round_gen == gen && g.channels[ch].active.is_some(),
        "stale rounds are dropped before dispatch"
    );
    if g.channels[ch].stalled_until > now {
        return; // The stall-clear event resumes rounds.
    }
    let _prof = g.round_scope(ch);
    if let Some(end) = pinned_segment(g, s, ch, now) {
        // The last round's reallocation and successor.
        request_realloc(g, net, s, end);
        schedule_round(g, s, ch, end);
        return;
    }
    // The flow's allocation can change with its cap only if the cap is
    // (nearly) binding. A flow running at its path bottleneck counts too.
    let fid = g.channels[ch].active.expect("checked above");
    let cap = g.channels[ch].cap(now);
    let was_binding = g.flows[fid].as_ref().expect("active flow exists").rate >= cap * 0.999;
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
    record_round(&g.obs, ch, now, &g.channels[ch].tcp, out);
    g.cap_moved(ch, now, cap);
    // Window growth only changes the allocation if the window cap was
    // actually the binding constraint. Between rate changes the fluid
    // integration is exact, so only a round that reallocates settles.
    let realloc = was_binding || out != RoundOutcome::Progress;
    if realloc {
        g.settle(now);
    }
    match out {
        RoundOutcome::Progress | RoundOutcome::FastRecovery => {
            if realloc {
                request_realloc(g, net, s, now);
            }
            schedule_round(g, s, ch, now);
        }
        RoundOutcome::RtoStall(d) => {
            let until = now + d;
            g.stall(ch, until);
            request_realloc(g, net, s, now);
            let net2 = Rc::clone(net);
            s.call_at(until, move |s2| stall_clear(&net2, s2, ch, gen));
        }
    }
}

/// Run `ch`'s window rounds from `now` in one *pinned segment* if the
/// round at `now` qualifies, and return the instant of the last round run;
/// `None` leaves the round to [`round_event`]'s one-round path.
///
/// A round qualifies when it is pure bookkeeping: its flow is the only
/// active one, draws no injected loss and cannot stall; it settles exactly
/// one RTT, so nothing has settled, and so nothing has reallocated, at
/// `now` yet (every reallocation request settles first), and its own
/// reallocation runs at once; and its rate is pinned at the path
/// bottleneck, which is the rate that reallocation gives again. Such
/// a round counts as binding, settles `step = rate * rtt` and queues a
/// finish that the next round precedes while more than two steps remain.
/// So the segment runs each round as its dispatch would, in the same
/// order (the window step, the TCP sample at the round's time, one RTT's
/// settle credited to every path link), and skips the reallocation and
/// the two keys the next round supersedes. The next round joins the
/// segment only if it would also be the kernel's next entry, before every
/// foreign key ([`Sched::bound`]); the caller then reallocates and queues
/// the next round as the last round's dispatch would have (DESIGN §2.2).
fn pinned_segment(g: &mut NetState, s: &Sched, ch: usize, now: SimTime) -> Option<SimTime> {
    #[cfg(test)]
    if !g.segments {
        return None;
    }
    if g.active.len() != 1 {
        return None;
    }
    let NetState {
        topo,
        channels,
        flows,
        link_delivered,
        obs,
        timers,
        ..
    } = g;
    let c = &mut channels[ch];
    let fid = c.active.expect("a round's channel is active");
    let f = flows[fid].as_mut().expect("active flow exists");
    let rtt = c.tcp.params().rtt;
    let bottleneck = c.path.bottleneck;
    if c.loss_rng.is_some()
        || rtt == SimDuration::ZERO
        || f.last_settle + rtt != now
        || f.rate < bottleneck * 0.999
        || c.tcp.window_rate() < bottleneck
        || !c.tcp.rounds_cannot_stall()
    {
        return None;
    }
    let min_link = c
        .path
        .links
        .iter()
        .map(|&l| topo.link(l).capacity)
        .reduce(|a, cap| if a < cap { a } else { cap });
    if f.rate.to_bits() != single_flow_rate(&c.tcp, bottleneck, min_link).to_bits() {
        return None;
    }
    let horizon = s.bound(timers.id.expect("bound by the handler")).time;
    let step = f.rate * rtt.as_secs_f64();
    let mut t = now;
    loop {
        let out = c.tcp.on_round();
        debug_assert!(!matches!(out, RoundOutcome::RtoStall(_)));
        record_round(obs, ch, t, &c.tcp, out);
        let moved = step.min(f.remaining);
        f.remaining -= moved;
        f.last_settle = t;
        credit_links(link_delivered, topo, &c.path.links, moved);
        if f.remaining <= 2.0 * step + 1.0
            || c.tcp.window_rate() < bottleneck
            || c.tcp.saturated()
            || t + rtt >= horizon
        {
            break;
        }
        t += rtt;
    }
    g.settled_at = Some(t);
    g.cap_moved(ch, t, bottleneck);
    Some(t)
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

/// Wake a channel whose post-completion RTO stall has elapsed.
fn resume_channel(net: &SharedNet, s: &Sched, ch: usize) {
    handle(net, s, |g| {
        let now = s.now();
        g.fill_dirty = true;
        if g.channels[ch].stalled_until > now || g.channels[ch].active.is_some() {
            return;
        }
        g.settle(now);
        activate_next(g, s, ch, now);
        request_realloc(g, net, s, now);
    });
}

fn stall_clear(net: &SharedNet, s: &Sched, ch: usize, gen: u64) {
    handle(net, s, |g| {
        let now = s.now();
        g.fill_dirty = true;
        if g.channels[ch].round_gen != gen {
            return;
        }
        g.settle(now);
        if g.channels[ch].active.is_some() {
            request_realloc(g, net, s, now);
            schedule_round(g, s, ch, now);
        } else if g.channels[ch].queue.front().is_some() {
            activate_next(g, s, ch, now);
            request_realloc(g, net, s, now);
        }
    });
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
    handle(net, s, |g| {
        outage(g, net, s, &links, down, kind, subject);
    });
}

fn outage(
    g: &mut NetState,
    net: &SharedNet,
    s: &Sched,
    links: &[LinkId],
    down: SimDuration,
    kind: &'static str,
    subject: u64,
) {
    let now = s.now();
    let until = now + down;
    g.settle(now);
    for ch in 0..g.channels.len() {
        let hit = g.channels[ch].path.links.iter().any(|l| links.contains(l));
        if !hit || g.channels[ch].stalled_until >= until {
            continue;
        }
        g.stall(ch, until);
        g.channels[ch].round_gen += 1;
        let gen = g.channels[ch].round_gen;
        let net2 = Rc::clone(net);
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
        let net2 = Rc::clone(net);
        s.call_at(until, move |s2| {
            let g2 = net2.borrow();
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
    request_realloc(g, net, s, now);
}

/// Ask for the rates to be recomputed at `now`. The first request at an
/// instant reallocates at once, so a lone transfer is handled in its own
/// event. Each later request at that instant cancels the pending finish
/// event and leaves the work to one reallocation queued behind the events
/// already due at `now`: a burst of starts and finishes at one instant
/// pays for one water-fill, not one per flow.
fn request_realloc(g: &mut NetState, net: &SharedNet, s: &Sched, now: SimTime) {
    if g.realloc_at != Some(now) {
        g.realloc_at = Some(now);
        reallocate(g, s, now);
        return;
    }
    g.timers.finish = None;
    if !g.realloc_queued {
        g.realloc_queued = true;
        let net2 = Rc::clone(net);
        s.call_at(now, move |s2| {
            handle(&net2, s2, |g| {
                g.realloc_queued = false;
                reallocate(g, s2, s2.now());
            });
        });
    }
}

/// Recompute rates and put the earliest finish in the finish slot.
fn reallocate(g: &mut NetState, s: &Sched, now: SimTime) {
    g.allocate(now);
    g.timers.finish = None;
    if let Some(q) = earliest_finish_secs(g) {
        #[cfg(test)]
        {
            g.finish_conversions += 1;
        }
        let at = now + SimDuration::from_secs_f64(q) + SimDuration::from_nanos(1);
        g.timers.finish = Some(s.stamp(at));
    }
}

/// The smallest `remaining / rate` over the active flows that move. A
/// flow finishes at `now + from_secs_f64(remaining / rate) + 1 ns`; the
/// conversion is monotone, so the earliest of those instants is this
/// minimum converted once.
fn earliest_finish_secs(g: &NetState) -> Option<f64> {
    let mut earliest: Option<f64> = None;
    for &fid in &g.active {
        let f = g.flows[fid].as_ref().expect("active flow exists");
        if f.rate > 0.0 {
            let q = f.remaining / f.rate;
            if earliest.is_none_or(|e| q < e) {
                earliest = Some(q);
            }
        }
    }
    earliest
}

fn finish_event(g: &mut NetState, net: &SharedNet, s: &Sched) {
    let now = s.now();
    let _prof = g.prof_scope(|p| p.finish);
    g.settle(now);
    // Drop finished flows from `active` in one order-preserving pass.
    // Flows the loop below activates are appended after the survivors,
    // in the order their predecessors finished — as if each finished
    // flow had been removed just before its successor started.
    let mut finished = std::mem::take(&mut g.finished);
    let NetState { active, flows, .. } = g;
    active.retain(|&fid| {
        let done = flows[fid].as_ref().expect("active flow exists").remaining < 0.5;
        if done {
            finished.push(fid);
        }
        !done
    });
    if !finished.is_empty() {
        g.fill_dirty = true;
    }
    let mut fires = std::mem::take(&mut g.fires);
    for &fid in &finished {
        let mut f = g.flows[fid].take().expect("finished flow exists");
        g.free.push(fid);
        let ch = f.chan;
        // Per flow, not in the pass above: a successor activated below
        // counts the finished flows not yet processed as still sharing
        // the uplink (pinned by a unit test).
        g.leave_first_link(ch);
        g.channels[ch].bytes_done += f.total;
        emit_flow_finish(g, ch, now, f.total);
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
                g.stall(ch, until);
                g.channels[ch].round_gen += 1;
                let net2 = Rc::clone(net);
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
            activate_next(g, s, ch, now);
        }
        // A stalled channel resumes from stall_clear.
    }
    finished.clear();
    g.finished = finished;
    request_realloc(g, net, s, now);
    for (done, at) in fires.drain(..) {
        s.call_at(at, done);
    }
    g.fires = fires;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KernelConfig, SockBufRequest};
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
        g.fill_dirty = true;
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
        g.fill_dirty = true;
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
        g.fill_dirty = true;
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
                // The loop rewrites `active` and `stalled_until` directly.
                g.fill_dirty = true;
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
    fn a_stall_that_ends_unwritten_still_refills() {
        // Two flows share a's uplink; the first is stalled until `end`.
        // The fill before `end` gives it nothing. At `end` its cap is
        // back although no input was written, so the fill runs again.
        let mut g = mk_state();
        let mut t = Topology::new();
        let site = t.add_site("x", SiteParams::default());
        let [a, b, c] = [0; 3].map(|_| t.add_node(site, NodeParams::default()));
        let paths = [t.route(a, b), t.route(a, c)];
        g.topo = t;
        let fids = paths.map(|p| push_flow(&mut g, p, 1 << 40));
        let end = SimTime::from_nanos(1_000);
        let ch = g.flows[fids[0]].as_ref().unwrap().chan;
        g.channels[ch].stalled_until = end;
        let nic = NodeParams::default().nic_bytes_per_sec;
        g.allocate(SimTime::from_nanos(999));
        assert_eq!(rates(&g), [0.0, nic]);
        g.allocate(end);
        assert_eq!(g.fills, 2);
        assert_eq!(rates(&g), [nic / 2.0, nic / 2.0]);
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
        let net: SharedNet = Rc::new(RefCell::new(NetState::new(t, SimDuration::ZERO)));
        let (ch_x, ch_y) = {
            let mut g = net.borrow_mut();
            (
                g.add_channel(ab, TcpState::new(flow_params(w))),
                g.add_channel(ac, TcpState::new(flow_params(w))),
            )
        };
        // At X's arrival: how many flows are left, and Z's backlog.
        let seen: Rc<Cell<Option<(usize, f64)>>> = Rc::new(Cell::new(None));
        let sim = desim::Sim::new();
        let (net2, seen2) = (Rc::clone(&net), Rc::clone(&seen));
        sim.spawn_task("sender", move |cx| async move {
            let s = cx.sched();
            let net3 = Rc::clone(&net2);
            let on_x: ArrivalFn = Box::new(move |_: &Sched| {
                let g = net3.borrow();
                let z = g.channels[ch_x.0].active.expect("Z started");
                let z_remaining = g.flows[z].as_ref().unwrap().remaining;
                seen2.set(Some((g.active.len(), z_remaining)));
            });
            let noop = || -> ArrivalFn { Box::new(|_: &Sched| {}) };
            start_transfer(&net2, &s, ch_x, x_bytes, on_x);
            start_transfer(&net2, &s, ch_y, y_bytes, noop());
            start_transfer(&net2, &s, ch_x, z_bytes, noop());
            // Keep the run alive while the transfers drain.
            cx.advance(SimDuration::from_secs(1)).await;
        });
        sim.run().unwrap();
        let (left, z_remaining) = seen.get().expect("X finished");
        assert_eq!(left, 1, "X and Y must finish in the same event");
        let want = z_bytes as f64 - credit(2.0);
        assert!(
            (z_remaining - want).abs() < 1e-6,
            "Z backlog {z_remaining}, want {want} (sharing 1 would give {})",
            z_bytes as f64 - credit(1.0)
        );
    }

    /// Arrival times of the burst's transfers, virtual ns, as the
    /// reallocation per request (one water-fill per start) computed them.
    #[rustfmt::skip]
    const BURST_ARRIVALS_NS: [u64; 256] = [
        9037678, 32145089, 66750523, 323133617, 16355282, 478807738, 10452915, 33341272,
        6315724, 323805547, 390998095, 478962799, 2132575, 34419313, 68495572, 324359336,
        14682022, 478637910, 9517628, 32556123, 6315724, 323369900, 390734738, 478871732,
        2132575, 33712925, 67939322, 324002450, 14682022, 478987412, 12237344, 34751586,
        6315724, 322882567, 390444307, 478728977, 2132575, 32954851, 67358460, 323593877,
        13008763, 478923419, 11358666, 34072272, 6315724, 324187046, 391229456, 479000504,
        2132575, 32145089, 66750523, 323133617, 16355282, 478807738, 10452915, 33341272,
        6315724, 323805547, 390998095, 478962799, 2132575, 34419313, 68495572, 324359336,
        14682022, 478637910, 9517628, 32556123, 67055722, 323369900, 390734738, 478871732,
        2132575, 33712925, 67939322, 324002450, 14682022, 478987412, 12237344, 34751586,
        6315724, 322882567, 390444307, 478728977, 2132575, 32954851, 67358460, 323593877,
        13008763, 478923419, 11358666, 34072272, 6315724, 324187046, 391229456, 479000504,
        2132575, 32145089, 66750523, 323133617, 16355282, 478807738, 10452915, 33341272,
        6315724, 323805547, 390998095, 478962799, 2132575, 34419313, 68495572, 324359336,
        14682022, 478637910, 9517628, 32556123, 6315724, 323369900, 390734738, 478871732,
        2132575, 33712925, 67939322, 324002450, 14682022, 478987412, 12237344, 34751586,
        6315724, 322882567, 390444307, 478728977, 2132575, 32954851, 67358460, 323593877,
        390867647, 478923419, 11358666, 34072272, 6315724, 324187046, 391229456, 479000504,
        2132575, 32145089, 66750523, 323133617, 16355282, 478807738, 10452915, 33341272,
        6315724, 323805547, 390998095, 478962799, 2132575, 34419313, 68495572, 324359336,
        14682022, 478637910, 9517628, 32556123, 6315724, 323369900, 390734738, 478871732,
        2132575, 33712925, 67939322, 324002450, 14682022, 478987412, 12237344, 34751586,
        6315724, 322882567, 390444307, 478728977, 2132575, 32954851, 67358460, 323593877,
        13008763, 478923419, 11358666, 34072272, 6315724, 324187046, 391229456, 479000504,
        2132575, 32145089, 66750523, 323133617, 16355282, 478807738, 10452915, 33341272,
        6315724, 323805547, 390998095, 478962799, 11799236, 34419313, 68495572, 324359336,
        14682022, 478637910, 9517628, 32556123, 6315724, 323369900, 390734738, 478871732,
        2132575, 33712925, 67939322, 324002450, 14682022, 478987412, 12237344, 34751586,
        6315724, 322882567, 390444307, 478728977, 2132575, 32954851, 67358460, 323593877,
        13008763, 478923419, 11358666, 34072272, 6315724, 324187046, 391229456, 479000504,
        2132575, 32145089, 66750523, 323133617, 16355282, 478807738, 10452915, 33341272,
        6315724, 323805547, 390998095, 478962799, 2132575, 34419313, 68495572, 324359336,
    ];

    /// 256 transfers started in one task poll, at one instant, over a
    /// 16+16 grid: LAN and WAN paths, six sizes, TCP windows that grow,
    /// and flows sharing every uplink and the WAN trunk. The burst costs
    /// at most two water-fills, and every transfer arrives when it did
    /// with one water-fill per start.
    #[test]
    fn a_burst_at_one_instant_costs_at_most_two_water_fills() {
        let mut t = Topology::new();
        let a = t.add_site("a", SiteParams::default());
        let b = t.add_site("b", SiteParams::default());
        t.connect_sites(a, b, SimDuration::from_micros(11_600), 1.25e8, 512 * 1024);
        let sites = [a, b].map(|s| [0; 16].map(|_| t.add_node(s, NodeParams::default())));
        let net: SharedNet = Rc::new(RefCell::new(NetState::new(t, SimDuration::from_micros(11))));
        let arrivals = Rc::new(RefCell::new(vec![0u64; 256]));
        let fills_at_burst = Rc::new(Cell::new(0));
        let (net2, arrivals2, fills2) = (
            Rc::clone(&net),
            Rc::clone(&arrivals),
            Rc::clone(&fills_at_burst),
        );
        let sim = desim::Sim::new();
        sim.spawn_task("burst", move |cx| async move {
            let s = cx.sched();
            for k in 0..256 {
                let (i, j) = (k / 16, k % 16);
                let dst = if j % 4 == 0 && i != j {
                    sites[0][j]
                } else {
                    sites[1][j]
                };
                let path = net2.borrow().topo.route(sites[0][i], dst);
                let params = TcpParams {
                    init_cwnd: 10 * 1448,
                    max_window: 4 << 20,
                    rtt: path.rtt,
                    bdp: path.bdp_bytes(),
                    queue_bytes: path.queue_bytes,
                    wan: path.wan,
                    ..flow_params(0)
                };
                let ch = net2.borrow_mut().add_channel(path, TcpState::new(params));
                let arrivals3 = Rc::clone(&arrivals2);
                let done: ArrivalFn = Box::new(move |s2: &Sched| {
                    arrivals3.borrow_mut()[k] = s2.now().as_nanos();
                });
                start_transfer(&net2, &s, ch, 16_384 << (k % 6), done);
            }
            // Just after the burst's instant: no transfer has finished.
            cx.advance(SimDuration::from_nanos(1)).await;
            fills2.set(net2.borrow().fills);
            // Keep the run alive while the transfers drain.
            cx.advance(SimDuration::from_secs(60)).await;
        });
        sim.run().unwrap();
        assert!(
            fills_at_burst.get() <= 2,
            "{} water-fills at one instant",
            fills_at_burst.get()
        );
        assert_eq!(*arrivals.borrow(), BURST_ARRIVALS_NS);
    }

    /// Arrival times of the four transfers, virtual ns, as a water-fill
    /// per reallocation request computed them.
    const LOSS_ROUND_ARRIVALS_NS: [u64; 4] = [89281512, 81394460, 64583358, 38848205];

    /// Four LAN flows out of one sender share its uplink, each started at
    /// its own instant. Their windows stay far above their share of the
    /// uplink, so every flow's cap is its path bottleneck while the
    /// window cycles through loss rounds (`FastRecovery`) and the rounds
    /// in between. No round moves a cap, so the only water-fills are at
    /// the instants where a flow starts or finishes; and every transfer
    /// arrives when it did with a water-fill per request.
    #[test]
    fn a_round_that_moves_no_cap_costs_no_water_fill() {
        let mut t = Topology::new();
        let site = t.add_site("x", SiteParams::default());
        let [a, b, c, d, e] = [0; 5].map(|_| t.add_node(site, NodeParams::default()));
        let paths = [b, c, d, e].map(|dst| t.route(a, dst));
        let net: SharedNet = Rc::new(RefCell::new(NetState::new(t, SimDuration::from_micros(11))));
        let params = TcpParams {
            init_cwnd: 10 * 1448,
            max_window: 1 << 30,
            bdp: 64 << 10,
            queue_bytes: 64 << 10,
            ..flow_params(0)
        };
        let channels = paths.map(|p| {
            net.borrow_mut()
                .add_channel(p, TcpState::new(params.clone()))
        });
        let arrivals = Rc::new(RefCell::new(vec![0u64; 4]));
        let (net2, arrivals2) = (Rc::clone(&net), Rc::clone(&arrivals));
        let sim = desim::Sim::new();
        sim.spawn_task("sender", move |cx| async move {
            let s = cx.sched();
            for (k, &ch) in channels.iter().enumerate() {
                // Start offsets that are no multiple of the 100 µs RTT:
                // no start shares an instant with another flow's round.
                if k > 0 {
                    cx.advance(SimDuration::from_micros(1_037)).await;
                }
                let arrivals3 = Rc::clone(&arrivals2);
                let done: ArrivalFn = Box::new(move |s2: &Sched| {
                    arrivals3.borrow_mut()[k] = s2.now().as_nanos();
                });
                start_transfer(&net2, &s, ch, (4 - k as u64) << 20, done);
            }
            // Keep the run alive while the transfers drain.
            cx.advance(SimDuration::from_secs(1)).await;
        });
        sim.run().unwrap();
        let g = net.borrow();
        let losses: u64 = g.channels.iter().map(|c| c.tcp.losses()).sum();
        assert!(losses >= 100, "only {losses} loss rounds");
        // Four starts and four finishes; the last finish leaves nothing
        // to fill.
        assert_eq!(g.fills, 7, "water-fills over {losses} loss rounds");
        assert_eq!(*arrivals.borrow(), LOSS_ROUND_ARRIVALS_NS);
    }

    /// Arrival of the lone 64 MB WAN transfer, virtual ns, and the bytes
    /// credited to each link of its path (uplink, WAN, downlink) as f64
    /// bits, as one round per dispatch gives them.
    const LONE_WAN_ARRIVAL_NS: u64 = 1_091_253_637;
    const LONE_WAN_LINK_BITS: [u64; 3] = [4724276009111650304; 3];

    /// A lone 64 MB transfer across the WAN, unpaced with tuned buffers so
    /// that slow start, an RTO stall and recovery all run. Once BIC's
    /// recovery has grown its window past the bottleneck (its last ~30
    /// rounds), its rounds run in pinned segments; it arrives, and credits
    /// each link, to the bit as pinned.
    #[test]
    fn a_lone_wan_transfer_runs_pinned_and_arrives_as_pinned() {
        let (t, na, nb) = pinned_topo(KernelConfig::tuned(4 << 20), Some(512 * 1024));
        let links = t.route(na, nb).links;
        let senders = [(na, nb, vec![(0, 64 << 20)])];
        let (trace, cost) = traced_run(&t, false, &senders, true);
        let bits: Vec<u64> = links.iter().map(|l| trace.links[l.index()]).collect();
        assert_eq!(trace.arrivals, [LONE_WAN_ARRIVAL_NS]);
        assert_eq!(bits, LONE_WAN_LINK_BITS);
        let (per_round, _) = segment_equivalence(&t, false, &senders);
        assert!(
            cost.dispatches + 20 < per_round.dispatches,
            "{cost:?} {per_round:?}"
        );
    }

    /// What one run leaves for segments on and off to agree on: each
    /// transfer's arrival (ns), the bytes credited to every link (f64
    /// bits) and every recorded event, TCP samples included.
    #[derive(Debug, PartialEq)]
    struct Trace {
        arrivals: Vec<u64>,
        links: Vec<u64>,
        events: Vec<ObsEvent>,
    }

    /// What a run cost: kernel dispatches, finish instants converted and
    /// window rounds recorded.
    #[derive(Debug)]
    struct Cost {
        dispatches: u64,
        conversions: u64,
        rounds: usize,
    }

    /// One sender: `(src, dst, transfers)` on a channel of its own. Each
    /// transfer `(delay ns, bytes)` starts `delay` after the previous one
    /// arrived (the first, `delay` after the run starts).
    type Sender = (NodeId, NodeId, Vec<(u64, u64)>);

    /// Start `senders` over `net` in `sim`; the arrivals land in the
    /// returned vector, in sender order.
    fn spawn_senders(
        sim: &desim::Sim,
        net: &crate::Network,
        pacing: bool,
        senders: &[Sender],
    ) -> Rc<RefCell<Vec<u64>>> {
        let n = senders.iter().map(|s| s.2.len()).sum();
        let arrivals = Rc::new(RefCell::new(vec![0u64; n]));
        let mut first = 0;
        for (src, dst, transfers) in senders.iter().cloned() {
            let (net, arrivals) = (net.clone(), Rc::clone(&arrivals));
            let k0 = first;
            first += transfers.len();
            sim.spawn_task("sender", move |cx| async move {
                let os = SockBufRequest::OsDefault;
                let ch = net.channel(src, dst, os, os, pacing);
                for (k, (delay, bytes)) in transfers.into_iter().enumerate() {
                    if delay > 0 {
                        cx.advance(SimDuration::from_nanos(delay)).await;
                    }
                    cx.wait(net.transfer(&cx.sched(), ch, bytes)).await;
                    arrivals.borrow_mut()[k0 + k] = cx.now().as_nanos();
                }
            });
        }
        arrivals
    }

    /// Run `senders` over `topo`, traced, with pinned segments on or off.
    fn traced_run(
        topo: &Topology,
        pacing: bool,
        senders: &[Sender],
        segments: bool,
    ) -> (Trace, Cost) {
        let net = crate::Network::new(topo.clone());
        net.state.borrow_mut().segments = segments;
        let sink = Arc::new(desim::obs::RingSink::new(1 << 24));
        net.attach_obs(&desim::obs::Obs::none().recorder(sink.clone()));
        let sim = desim::Sim::new();
        let arrivals = spawn_senders(&sim, &net, pacing, senders);
        let dispatches = sim.run_counted().unwrap().events;
        assert_eq!(sink.dropped(), 0);
        let events = sink.events();
        let rounds = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::TcpSample { outcome, .. } if *outcome != "short_ack"))
            .count();
        let g = net.state.borrow();
        let trace = Trace {
            arrivals: arrivals.borrow().clone(),
            links: g.link_delivered.iter().map(|d| d.to_bits()).collect(),
            events,
        };
        let cost = Cost {
            dispatches,
            conversions: g.finish_conversions,
            rounds,
        };
        (trace, cost)
    }

    /// Run `senders` one round per dispatch and with pinned segments: the
    /// traces must agree to the bit. Returns both costs, per round first.
    fn segment_equivalence(topo: &Topology, pacing: bool, senders: &[Sender]) -> (Cost, Cost) {
        let (per_round, per_round_cost) = traced_run(topo, pacing, senders, false);
        let (pinned, cost) = traced_run(topo, pacing, senders, true);
        assert_eq!(per_round_cost.rounds, cost.rounds);
        assert!(
            per_round == pinned,
            "pinned segments diverged from one round per dispatch: {senders:?}"
        );
        (per_round_cost, cost)
    }

    /// One site of two nodes under `kernel`, or two such sites over an
    /// 11.6 ms, 1 Gb/s WAN link with a `queue`-byte drop-tail buffer.
    fn pinned_topo(kernel: KernelConfig, wan_queue: Option<u64>) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_site("a", SiteParams::default());
        let na = t.add_node(a, NodeParams::default());
        let nb = match wan_queue {
            None => t.add_node(a, NodeParams::default()),
            Some(queue) => {
                let b = t.add_site("b", SiteParams::default());
                t.connect_sites(a, b, SimDuration::from_micros(11_600), 125e6, queue);
                t.add_node(b, NodeParams::default())
            }
        };
        t.set_kernel_all(kernel);
        (t, na, nb)
    }

    /// A lone 64 MB LAN transfer with tuned buffers: after two slow-start
    /// rounds its window stays far above the 1 Gb/s NIC's 7 kB BDP through
    /// every loss, so ~9,500 rounds run in one pinned segment. It converts
    /// a handful of finish instants, not one per round, takes a handful of
    /// dispatches, and leaves when fewer than two steps remain.
    #[test]
    fn a_pinned_lan_plan_converts_a_few_finishes_not_one_per_round() {
        let (t, a, b) = pinned_topo(KernelConfig::tuned(4 << 20), None);
        let (per_round, cost) = segment_equivalence(&t, false, &[(a, b, vec![(0, 64 << 20)])]);
        assert!(cost.rounds > 9_000, "{cost:?}");
        assert!(cost.conversions <= 8, "{cost:?}");
        assert!(cost.dispatches <= 10, "{cost:?}");
        assert!(per_round.dispatches > 9_000, "{per_round:?}");
    }

    /// A shallow WAN queue (under a quarter of the BDP): each loss cuts
    /// the window below the bottleneck, the segment leaves and the rounds
    /// below the bottleneck convert their finishes, then the window climbs
    /// back and a new segment starts. Paced, so no round can stall.
    #[test]
    fn a_pinned_segment_leaves_when_the_window_drops_below_the_bottleneck() {
        let (t, a, b) = pinned_topo(KernelConfig::tuned(8 << 20), Some(128 << 10));
        let (_, cost) = segment_equivalence(&t, true, &[(a, b, vec![(0, 512 << 20)])]);
        assert!(cost.rounds > 300, "{cost:?}");
        // Slow start, then some rounds below the bottleneck per loss.
        assert!(cost.conversions > 20, "{cost:?}");
        assert!(cost.conversions < cost.rounds as u64 / 2, "{cost:?}");
    }

    /// Untuned buffers on a LAN: the 128 kB window bound sits below the
    /// loss limit and far above the BDP, so the window saturates inside a
    /// pinned segment; the segment leaves, and no round follows.
    #[test]
    fn a_pinned_segment_leaves_when_the_window_saturates() {
        let (t, a, b) = pinned_topo(KernelConfig::untuned_2007(), None);
        let (_, cost) = segment_equivalence(&t, false, &[(a, b, vec![(0, 64 << 20)])]);
        // The window doubles from 3 segments to the bound in five rounds;
        // from the second on it is above the BDP.
        assert_eq!(cost.rounds, 5, "rounds stop at saturation: {cost:?}");
        // The activation's, the first round's and the segment's exit.
        assert_eq!(cost.conversions, 3, "{cost:?}");
    }

    /// An unpaced WAN sender whose queue is deeper than the BDP: its rate
    /// is pinned at the bottleneck before its first slow-start overshoot,
    /// which stalls it one RTO. Until that first loss no segment starts;
    /// the stall runs round by round, and segments follow it.
    #[test]
    fn no_pinned_segment_starts_while_a_round_can_stall() {
        let (t, a, b) = pinned_topo(KernelConfig::tuned(16 << 20), Some(4 << 20));
        let senders = [(a, b, vec![(0, 256 << 20)])];
        let (per_round, _) = traced_run(&t, false, &senders, false);
        let stalls = per_round
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ObsEvent::TcpSample {
                        outcome: "rto_stall",
                        ..
                    }
                )
            })
            .count();
        assert_eq!(stalls, 1, "one first-burst RTO");
        let (_, cost) = segment_equivalence(&t, false, &senders);
        assert!(cost.conversions < cost.rounds as u64 / 2, "{cost:?}");
    }

    /// A second LAN transfer from another sender starts 100 ms into a lone
    /// 64 MB transfer, in the middle of its pinned segment: the sender's
    /// wake-up is a foreign heap event, so the segment stops short of it
    /// and both transfers share the link round by round, bit for bit as
    /// with one round per dispatch.
    #[test]
    fn a_pinned_segment_stops_at_the_interrupt() {
        let (mut t, a, b) = pinned_topo(KernelConfig::tuned(4 << 20), None);
        let site = t.site_of(a);
        let c = t.add_node(site, NodeParams::default());
        t.set_kernel_all(KernelConfig::tuned(4 << 20));
        let interrupt = 100_000_037;
        let (per_round, cost) = segment_equivalence(
            &t,
            false,
            &[
                (a, b, vec![(0, 64 << 20)]),
                (c, b, vec![(interrupt, 8 << 20)]),
            ],
        );
        // The lone stretches before and after the shared one are pinned.
        assert!(
            cost.dispatches < per_round.dispatches / 2,
            "{cost:?} {per_round:?}"
        );
    }

    /// The model state of `net`, to the bit: every link's credit, every
    /// active flow's progress, every channel's TCP state and stall, the
    /// settle and reallocation instants, and when the finish and the live
    /// rounds are due (not their sequence numbers: a segment stamps fewer
    /// keys).
    fn model_state(net: &crate::Network) -> String {
        let g = net.state.borrow();
        let links: Vec<u64> = g.link_delivered.iter().map(|d| d.to_bits()).collect();
        let flows: Vec<_> = g
            .active
            .iter()
            .map(|&fid| {
                let f = g.flows[fid].as_ref().unwrap();
                (
                    f.chan,
                    f.remaining.to_bits(),
                    f.rate.to_bits(),
                    f.last_settle,
                )
            })
            .collect();
        let channels: Vec<_> = g
            .channels
            .iter()
            .map(|c| (format!("{:?}", c.tcp), c.stalled_until, c.bytes_done))
            .collect();
        let rounds: Vec<_> = g
            .timers
            .lanes
            .iter()
            .flat_map(|l| &l.rounds)
            .filter(|r| g.channels[r.ch].round_gen == r.gen && g.channels[r.ch].active.is_some())
            .map(|r| (r.ch, r.key.time))
            .collect();
        let finish = g.timers.finish.map(|k| k.time);
        format!(
            "{links:?} {flows:?} {channels:?} {:?} {:?} {finish:?} {rounds:?}",
            g.settled_at, g.realloc_at
        )
    }

    /// A lone 64 MB LAN transfer, and a task that wakes 100 ms in, in the
    /// middle of what would be one pinned segment, and reads the network.
    /// The segment stops short of that foreign heap timer: the task sees
    /// the model state one round per dispatch leaves there, bit for bit.
    #[test]
    fn a_pinned_segment_stops_at_a_foreign_heap_timer() {
        let (t, a, b) = pinned_topo(KernelConfig::tuned(4 << 20), None);
        let run = |segments: bool| {
            let net = crate::Network::new(t.clone());
            net.state.borrow_mut().segments = segments;
            let sim = desim::Sim::new();
            let arrivals = spawn_senders(&sim, &net, false, &[(a, b, vec![(0, 64 << 20)])]);
            let seen = Rc::new(RefCell::new(String::new()));
            let (net2, seen2) = (net.clone(), Rc::clone(&seen));
            sim.spawn_task("reader", move |cx| async move {
                cx.advance(SimDuration::from_nanos(100_000_037)).await;
                *seen2.borrow_mut() = model_state(&net2);
            });
            let dispatches = sim.run_counted().unwrap().events;
            let seen = seen.borrow().clone();
            let arrival = arrivals.borrow()[0];
            (seen, arrival, model_state(&net), dispatches)
        };
        let (per_round, pinned) = (run(false), run(true));
        assert!(per_round.1 > 100_000_037, "the timer falls mid-transfer");
        assert_eq!(per_round.0, pinned.0, "state at the timer");
        assert_eq!(per_round.1, pinned.1, "arrival");
        assert_eq!(per_round.2, pinned.2, "state at the end");
        assert!(pinned.3 <= 20, "segments on both sides: {}", pinned.3);
    }

    /// `run_until`'s limit falls in the middle of a lone 64 MB LAN
    /// transfer's pinned segment: the segment stops at the limit, and the
    /// run ends with the model state one round per dispatch leaves there.
    #[test]
    fn a_pinned_segment_stops_at_the_run_limit() {
        let (t, a, b) = pinned_topo(KernelConfig::tuned(4 << 20), None);
        let limit = SimTime::from_nanos(200_000_000);
        let run = |segments: bool| {
            let net = crate::Network::new(t.clone());
            net.state.borrow_mut().segments = segments;
            let sim = desim::Sim::new();
            spawn_senders(&sim, &net, false, &[(a, b, vec![(0, 64 << 20)])]);
            let end = sim.run_until(limit);
            assert_eq!(end, Err(desim::SimError::TimeLimitExceeded(limit)));
            model_state(&net)
        };
        let (per_round, pinned) = (run(false), run(true));
        assert_eq!(per_round, pinned);
    }

    /// A channel that draws injected losses draws once per round, so it
    /// runs no pinned segment: a paced WAN flow whose window sits far
    /// above the bottleneck, under a low loss rate, loses in the same
    /// rounds and arrives at the same nanosecond as with one round per
    /// dispatch.
    #[test]
    fn a_lossy_channel_runs_no_pinned_segment() {
        let (t, a, b) = pinned_topo(KernelConfig::tuned(8 << 20), Some(4 << 20));
        let plan = FaultPlan::new().with_seed(7).with_wan_loss(1e-5);
        let run = |segments: bool| {
            let net = crate::Network::new(t.clone());
            net.state.borrow_mut().segments = segments;
            net.install_faults(&plan);
            let sim = desim::Sim::new();
            let arrivals = spawn_senders(&sim, &net, true, &[(a, b, vec![(0, 256 << 20)])]);
            sim.run().unwrap();
            let losses = net.state.borrow().channels[0].tcp.losses();
            let arrival = arrivals.borrow()[0];
            (arrival, losses, model_state(&net))
        };
        let (per_round, pinned) = (run(false), run(true));
        assert!(per_round.1 > 1, "injected losses: {}", per_round.1);
        assert_eq!(per_round, pinned);
    }

    /// A randomly drawn grid: two sites over one WAN link, tuned kernels.
    #[derive(Debug)]
    struct WanScenario {
        rtt_us: u64,
        capacity: f64,
        queue_bytes: u64,
        buf: u64,
        mss: u32,
        init_cwnd_segments: u32,
        cc: crate::CongestionControl,
    }

    fn draw_cc(rng: &mut Rng) -> crate::CongestionControl {
        if rng.chance(0.5) {
            crate::CongestionControl::Bic
        } else {
            crate::CongestionControl::Reno
        }
    }

    fn draw_wan(rng: &mut Rng) -> WanScenario {
        WanScenario {
            rtt_us: rng.range_u64(1_000, 60_000),
            capacity: rng.range_f64(20e6, 400e6),
            queue_bytes: rng.range_u64(64, 1024) * 1024,
            buf: rng.range_u64(64, 8192) * 1024,
            mss: [536u32, 1448, 8948][rng.range_usize(0, 3)],
            init_cwnd_segments: rng.range_u64(1, 11) as u32,
            cc: draw_cc(rng),
        }
    }

    fn wan_topo(sc: &WanScenario) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_site("a", SiteParams::default());
        let b = t.add_site("b", SiteParams::default());
        let na = t.add_node(a, NodeParams::default());
        let nb = t.add_node(b, NodeParams::default());
        let rtt = SimDuration::from_micros(sc.rtt_us);
        t.connect_sites(a, b, rtt, sc.capacity, sc.queue_bytes);
        let mut cfg = KernelConfig::tuned(sc.buf);
        cfg.mss = sc.mss;
        cfg.init_cwnd_segments = sc.init_cwnd_segments;
        cfg.congestion_control = sc.cc;
        t.set_kernel_all(cfg);
        (t, na, nb)
    }

    /// Paced WAN sequences of one to three transfers on one channel, the
    /// later ones after idle gaps long enough for slow-start-after-idle:
    /// every arrival, link credit and traced event matches one round per
    /// dispatch across the sweep of RTT, capacity, buffers, MSS, initial
    /// window and congestion control.
    #[test]
    fn single_flow_durations_are_bit_identical() {
        forall(40, 0x5EED_2001, |rng| {
            let sc = draw_wan(rng);
            let transfers: Vec<(u64, u64)> = (0..rng.range_usize(1, 4))
                .map(|i| {
                    let gap = if i == 0 {
                        0
                    } else {
                        rng.range_u64(0, 2_000_000_000)
                    };
                    (gap, rng.range_u64(1, 4 << 20))
                })
                .collect();
            let (t, na, nb) = wan_topo(&sc);
            segment_equivalence(&t, true, &[(na, nb, transfers)]);
        });
    }

    /// Contention: a second paced flow over the same WAN path arrives
    /// while the first may be mid-segment, and both share the path round
    /// by round. Everything matches one round per dispatch.
    #[test]
    fn interrupted_flows_are_bit_identical() {
        forall(40, 0x5EED_2002, |rng| {
            let sc = draw_wan(rng);
            let bytes_a = rng.range_u64(64, 8 << 20);
            let bytes_b = rng.range_u64(64, 8 << 20);
            let stagger = rng.range_u64(0, 500_000_000);
            let (t, na, nb) = wan_topo(&sc);
            segment_equivalence(
                &t,
                true,
                &[
                    (na, nb, vec![(0, bytes_a)]),
                    (na, nb, vec![(stagger, bytes_b)]),
                ],
            );
        });
    }

    /// A lone flow that is not window-bound: its window outgrows a
    /// deep-queued thin WAN link, which then bounds its rate for the rest
    /// of a multi-second transfer. Its segments settle exactly where one
    /// round per dispatch settles.
    #[test]
    fn link_bound_flow_is_bit_identical() {
        forall(12, 0x5EED_2003, |rng| {
            let sc = WanScenario {
                rtt_us: rng.range_u64(5_000, 30_000),
                capacity: rng.range_f64(10e6, 40e6),
                queue_bytes: 64 << 20,
                buf: 8 << 20,
                mss: 1448,
                init_cwnd_segments: 10,
                cc: draw_cc(rng),
            };
            let bytes = rng.range_u64(16 << 20, 48 << 20);
            let (t, na, nb) = wan_topo(&sc);
            let senders = [(na, nb, vec![(0, bytes)])];
            segment_equivalence(&t, true, &senders);
            // Link-bound: the transfer takes at least its bytes over the
            // bottleneck.
            let (trace, _) = traced_run(&t, true, &senders, true);
            assert!(trace.arrivals[0] as f64 * 1e-9 >= bytes as f64 / sc.capacity);
        });
    }

    /// A randomly drawn LAN: three nodes of one site, RTTs of 20–200 µs,
    /// tuned buffers or (`buf` `None`) the untuned 2007 kernel.
    #[derive(Debug)]
    struct LanScenario {
        one_way_us: u64,
        nic: f64,
        buf: Option<u64>,
        mss: u32,
        init_cwnd_segments: u32,
        cc: crate::CongestionControl,
        pacing: bool,
    }

    fn draw_lan(rng: &mut Rng) -> LanScenario {
        LanScenario {
            one_way_us: rng.range_u64(10, 101),
            nic: rng.range_f64(50e6, 1.25e9),
            buf: (!rng.chance(0.15)).then(|| rng.range_u64(64, 8192) * 1024),
            mss: [536u32, 1448, 8948][rng.range_usize(0, 3)],
            init_cwnd_segments: rng.range_u64(1, 11) as u32,
            cc: draw_cc(rng),
            pacing: rng.chance(0.5),
        }
    }

    fn lan_topo(sc: &LanScenario) -> (Topology, [NodeId; 3]) {
        let mut t = Topology::new();
        let lan_one_way = SimDuration::from_micros(sc.one_way_us);
        let site = t.add_site(
            "lan",
            SiteParams {
                lan_one_way,
                ..SiteParams::default()
            },
        );
        let nic = NodeParams {
            nic_bytes_per_sec: sc.nic,
            ..NodeParams::default()
        };
        let nodes = [0; 3].map(|_| t.add_node(site, nic.clone()));
        let mut cfg = sc
            .buf
            .map_or_else(KernelConfig::untuned_2007, KernelConfig::tuned);
        cfg.mss = sc.mss;
        cfg.init_cwnd_segments = sc.init_cwnd_segments;
        cfg.congestion_control = sc.cc;
        t.set_kernel_all(cfg);
        let path = t.route(nodes[1], nodes[0]);
        assert!(
            path.queue_bytes >= path.bdp_bytes() / 4,
            "the LAN queue is at least a quarter of the BDP"
        );
        (t, nodes)
    }

    /// Lone LAN flows, up to 64 MB with idle gaps, on tuned and untuned
    /// buffers: nearly every round of a long one runs in a pinned segment.
    /// Arrivals, link credits and the traced TCP and link sample streams
    /// (and so the TCP state each round leaves) match one round per
    /// dispatch.
    #[test]
    fn lan_pinned_flows_are_bit_identical() {
        forall(40, 0x5EED_2004, |rng| {
            let sc = draw_lan(rng);
            // Idle gaps up to 2 s: some past an RTO, so a later transfer
            // may restart in slow start.
            let transfers: Vec<(u64, u64)> = (0..rng.range_usize(1, 4))
                .map(|_| {
                    (
                        rng.range_u64(0, 2_000_000_000),
                        rng.range_u64(1, (64 << 20) + 1),
                    )
                })
                .collect();
            let (t, [dst, src, _]) = lan_topo(&sc);
            segment_equivalence(&t, sc.pacing, &[(src, dst, transfers)]);
        });
    }

    /// A second LAN sender joins while a 16–64 MB flow runs at the shared
    /// downlink's rate, tenths of its lone duration in: the first flow's
    /// segment stops at the newcomer's wake-up and both share the link
    /// round by round. Everything traced matches one round per dispatch.
    #[test]
    fn lan_flows_interrupted_mid_segment_are_bit_identical() {
        forall(40, 0x5EED_2005, |rng| {
            let mut sc = draw_lan(rng);
            // Tuned buffers: the window sits above the bottleneck.
            sc.buf = Some(rng.range_u64(1024, 8192) * 1024);
            let bytes = rng.range_u64(16 << 20, (64 << 20) + 1);
            let lone_ns = bytes as f64 / sc.nic * 1e9;
            let stagger = (lone_ns * rng.range_f64(0.1, 0.8)) as u64 + rng.range_u64(0, 1_000);
            let second = rng.range_u64(1, 8 << 20);
            let (t, [dst, a, b]) = lan_topo(&sc);
            segment_equivalence(
                &t,
                sc.pacing,
                &[
                    (a, dst, vec![(0, bytes)]),
                    (b, dst, vec![(stagger, second)]),
                ],
            );
        });
    }

    /// A 64 MB transfer across the paper's WAN pair (11.6 ms, 1 Gb/s) with
    /// tuned buffers, so slow start, loss and recovery all play out: the
    /// cwnd probe reports the same sample sequence (channel, virtual time,
    /// cwnd, ssthresh bits, phase, outcome) with segments on and off, and
    /// so do the flow and link streams and the arrival.
    #[test]
    fn cwnd_probe_64mb_wan_identical_with_and_without_segments() {
        let (t, na, nb) = pinned_topo(KernelConfig::tuned(4 << 20), Some(512 * 1024));
        for pacing in [false, true] {
            let senders = [(na, nb, vec![(0, 64 << 20)])];
            let (per_round, _) = segment_equivalence(&t, pacing, &senders);
            assert!(per_round.rounds > 10, "{pacing}: {per_round:?}");
            if !pacing {
                // The unpaced tuned sender overshoots in slow start.
                let (trace, _) = traced_run(&t, pacing, &senders, true);
                assert!(trace.events.iter().any(|e| matches!(
                    e,
                    ObsEvent::TcpSample {
                        outcome: "rto_stall",
                        ..
                    }
                )));
            }
        }
    }

    /// A 32 MB WAN transfer that a second transfer on its own channel,
    /// over the same links, interrupts `gap` ns in: with a recorder
    /// attached, the TCP sample, flow and link streams and both arrivals
    /// match one round per dispatch, so no sample of a segment is lost or
    /// emitted twice where it stops.
    #[test]
    fn interrupted_segment_traces_identically_with_and_without_segments() {
        let (t, na, nb) = pinned_topo(KernelConfig::tuned(4 << 20), Some(512 * 1024));
        forall(6, 0x0B5E_7002, |rng: &mut Rng| {
            let gap = rng.range_u64(1, 250_000_000);
            let second = rng.range_u64(1, 8 << 20);
            let pacing = rng.chance(0.5);
            let senders = [(na, nb, vec![(0, 32 << 20)]), (na, nb, vec![(gap, second)])];
            segment_equivalence(&t, pacing, &senders);
            let (trace, _) = traced_run(&t, pacing, &senders, true);
            let first_finish = trace
                .events
                .iter()
                .find_map(|e| match e {
                    ObsEvent::FlowFinish { t_ns, .. } => Some(*t_ns),
                    _ => None,
                })
                .expect("a flow finishes");
            assert!(gap < first_finish, "no interrupt: gap={gap}");
        });
    }

    /// The finish slot's instant, one conversion of the smallest
    /// `remaining / rate`, is the earliest of the per-flow instants
    /// `now + from_secs_f64(remaining / rate) + 1 ns`, on random flows
    /// (some stalled at rate 0, some tied).
    #[test]
    fn earliest_finish_converts_once_as_the_per_flow_minimum() {
        forall(2000, 0x0f17_1540_0000_0001, |rng| {
            let mut g = mk_state();
            let path = g.topo.route(NodeId(0), NodeId(0));
            let now = SimTime::from_nanos(rng.range_u64(0, 1 << 50));
            let mut want: Option<SimTime> = None;
            for _ in 0..rng.range_usize(0, 40) {
                let fid = push_flow(&mut g, path.clone(), 1 << 20);
                let f = g.flows[fid].as_mut().unwrap();
                f.remaining =
                    *rng.pick(&[1e-3, 0.4, 1.0, 1448.0, 65536.0]) * rng.range_f64(1.0, 1e4);
                f.rate = match rng.range_u64(0, 6) {
                    0 => 0.0,
                    1 => 1.25e8,
                    _ => rng.range_f64(1e3, 1.25e9),
                };
                if f.rate > 0.0 {
                    let t = now
                        + SimDuration::from_secs_f64(f.remaining / f.rate)
                        + SimDuration::from_nanos(1);
                    want = Some(want.map_or(t, |w| w.min(t)));
                }
            }
            let got = earliest_finish_secs(&g)
                .map(|q| now + SimDuration::from_secs_f64(q) + SimDuration::from_nanos(1));
            assert_eq!(got, want);
        });
    }

    /// One network driven by two simulations in turn: each run binds the
    /// network's timers to its own kernel, so the second run's rounds and
    /// finishes are dispatched (not left on the first, dropped kernel)
    /// and a fresh channel's transfer takes exactly as long as the first.
    #[test]
    fn a_network_driven_by_two_sims_rebinds_to_each() {
        let mut t = Topology::new();
        let a = t.add_site("a", SiteParams::default());
        let b = t.add_site("b", SiteParams::default());
        let na = t.add_node(a, NodeParams::default());
        let nb = t.add_node(b, NodeParams::default());
        t.connect_sites(a, b, SimDuration::from_micros(11_600), 125e6, 512 * 1024);
        t.set_kernel_all(KernelConfig::tuned(4 << 20));
        let net = crate::Network::new(t);
        // One round per dispatch: the transfer lives on window rounds
        // and finish events.
        net.state.borrow_mut().segments = false;
        let mut runs = Vec::new();
        for _ in 0..2 {
            let net2 = net.clone();
            let sim = desim::Sim::new();
            sim.spawn_task("sender", move |cx| async move {
                let os = SockBufRequest::OsDefault;
                let ch = net2.channel(na, nb, os, os, false);
                cx.wait(net2.transfer(&cx.sched(), ch, 4 << 20)).await;
            });
            let stats = sim.run_counted().expect("the transfer completes");
            let id = net.state.borrow().timers.id.expect("bound");
            runs.push((stats, id));
        }
        assert_ne!(runs[0].1, runs[1].1, "the second run rebinds");
        assert_eq!(runs[0].0, runs[1].0, "the same transfer, the same run");
        // Two task polls, a finish and an arrival, and window rounds.
        assert!(runs[1].0.events > 10, "rounds dispatched: {:?}", runs[1].0);
    }
}
