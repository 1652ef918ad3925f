//! The shared state of one MPI run: rank placement, per-pair TCP channels,
//! message matching, and the eager / rendezvous wire protocols of Fig. 4.
//!
//! ## Protocol model
//!
//! * **Eager** (`bytes ≤ threshold`): the sender pays its software overhead,
//!   hands `header + bytes` to the TCP channel and returns (buffered-send
//!   semantics). At arrival the envelope either matches a posted receive
//!   (data lands in the application buffer — Fig. 4 arrow 1) or joins the
//!   *unexpected queue*; a receive that matches an unexpected message pays
//!   the extra memory copy (Fig. 4 arrow 2).
//! * **Rendezvous** (`bytes > threshold`): the sender transmits a small
//!   `MPI_Request` control message and blocks. When the matching receive
//!   is posted, the receiver returns an acknowledgement; data then flows
//!   and both sides complete at data arrival. The handshake costs a full
//!   RTT, which is why the paper raises the threshold on the grid
//!   (Table 5).
//!
//! Both control and data messages share the per-(src,dst) TCP channel, so
//! head-of-line blocking across messages is modelled faithfully.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use desim::{completion, Completion, Sched, SimDuration, SimTime, Trigger};
use netsim::{ChannelId, Network, NodeId};

use crate::error::MpiError;
use crate::profile::{ImplProfile, Tuning};
use crate::stats::CommStats;

/// MPI envelope header bytes added to every data message on the wire.
pub const HEADER_BYTES: u64 = 64;
/// Size of rendezvous control messages (request / acknowledgement).
pub const CTRL_BYTES: u64 = 64;

/// What a completed receive reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgInfo {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Deterministic message id assigned at send time (encodes the
    /// directed rank pair and a per-pair sequence number), pairing the
    /// sender's and receiver's trace spans without heuristics.
    pub msg_id: u64,
}

/// Internal receive completion: the envelope plus any deferred copy cost
/// (unexpected-message copy) the receiving process must pay.
pub(crate) struct RecvDone {
    pub info: MsgInfo,
    pub copy: SimDuration,
}

struct PostedRecv {
    /// Unique id, so a timeout can cancel exactly this entry (and only if
    /// it is still posted — a completed receive leaves the queue first,
    /// making the late timeout callback a no-op).
    id: u64,
    sel_src: Option<usize>,
    sel_tag: Option<u64>,
    tx: Trigger<Result<RecvDone, MpiError>>,
}

/// What posting a receive produced: either an unexpected eager message
/// satisfied it on the spot, or it is pending under `id`.
pub(crate) enum Posted {
    Immediate(RecvDone),
    Pending {
        /// Cancellation handle; `None` when the receive already matched a
        /// rendezvous request (the data is in flight — a timeout can no
        /// longer abort it).
        id: Option<u64>,
        rx: Completion<Result<RecvDone, MpiError>>,
    },
}

enum Unexpected {
    Eager {
        src: usize,
        tag: u64,
        bytes: u64,
        msg_id: u64,
    },
    RndvReq {
        src: usize,
        tag: u64,
        bytes: u64,
        msg_id: u64,
        sender_done: Trigger<Result<(), MpiError>>,
    },
}

impl Unexpected {
    fn matches(&self, sel_src: Option<usize>, sel_tag: Option<u64>) -> bool {
        let (src, tag) = match self {
            Unexpected::Eager { src, tag, .. } => (*src, *tag),
            Unexpected::RndvReq { src, tag, .. } => (*src, *tag),
        };
        sel_src.is_none_or(|s| s == src) && sel_tag.is_none_or(|t| t == tag)
    }
}

#[derive(Default)]
struct RankMatch {
    unexpected: VecDeque<Unexpected>,
    posted: VecDeque<PostedRecv>,
}

/// Shared state of one MPI world (all ranks of one run). The world is
/// owned by the run's one simulation thread, so its mutable parts are
/// plain cells; each borrow is released before anything that could
/// re-enter the world (a trigger fire, a network transfer's callback).
pub(crate) struct WorldInner {
    /// The network every channel of the run lives on.
    pub net: Network,
    pub profile: ImplProfile,
    pub eager_threshold: u64,
    /// Collective-algorithm pins (see [`crate::CollConfig`]); consulted
    /// by the dispatchers in `collectives` before the profile's own
    /// algorithm choice.
    pub coll: crate::collectives::CollConfig,
    pub placement: Vec<NodeId>,
    /// Ranks grouped by site, in order of first appearance.
    pub site_groups: Vec<Vec<usize>>,
    /// Rank → index into `site_groups`.
    pub rank_site: Vec<usize>,
    matchers: Vec<RefCell<RankMatch>>,
    /// Per-rank failure window: `Some(until)` means the rank has been
    /// dead since its kill and stays dead for virtual times `t < until`
    /// (`SimTime::MAX` = no restart).
    failed: Vec<Cell<Option<SimTime>>>,
    next_posted_id: Cell<u64>,
    /// Per-directed-pair message sequence counters, keyed `(src, dst)` and
    /// created on first use — dense `n × n` storage would cost O(n²) memory
    /// at rank scale while real traffic touches only O(active pairs).
    /// Ids are assigned at the MPI layer, before any network timing.
    msg_seq: RefCell<HashMap<(usize, usize), u64>>,
    channels: RefCell<HashMap<(usize, usize, u32), ChannelId>>,
    pub stats: RefCell<CommStats>,
    pub records: RefCell<Vec<(usize, String, f64)>>,
    /// Observability sink: every traced-or-not MPI span, app-phase marker
    /// and fault event is forwarded here when set. A read-only tap;
    /// recording never touches the simulation.
    pub obs: Option<Arc<dyn desim::obs::Recorder>>,
}

impl WorldInner {
    /// The world of one run on `net`.
    pub fn new(
        net: Network,
        placement: Vec<NodeId>,
        profile: ImplProfile,
        tuning: Tuning,
        coll: crate::collectives::CollConfig,
        obs: Option<Arc<dyn desim::obs::Recorder>>,
    ) -> Rc<WorldInner> {
        let eager_threshold = tuning.eager_threshold.unwrap_or(profile.eager_threshold);
        let mut profile = profile;
        if let Some(buf) = tuning.socket_buffer {
            profile.socket_policy = crate::profile::SocketPolicy::Fixed(buf);
        }
        let n = placement.len();
        let mut site_groups: Vec<(netsim::SiteId, Vec<usize>)> = Vec::new();
        let mut rank_site = Vec::with_capacity(n);
        for (r, &node) in placement.iter().enumerate() {
            let s = net.site_of(node);
            match site_groups.iter_mut().position(|(sid, _)| *sid == s) {
                Some(i) => {
                    site_groups[i].1.push(r);
                    rank_site.push(i);
                }
                None => {
                    site_groups.push((s, vec![r]));
                    rank_site.push(site_groups.len() - 1);
                }
            }
        }
        let site_groups = site_groups.into_iter().map(|(_, g)| g).collect();
        Rc::new(WorldInner {
            net,
            profile,
            eager_threshold,
            coll,
            placement,
            site_groups,
            rank_site,
            matchers: (0..n).map(|_| RefCell::new(RankMatch::default())).collect(),
            failed: (0..n).map(|_| Cell::new(None)).collect(),
            next_posted_id: Cell::new(1),
            msg_seq: RefCell::new(HashMap::new()),
            channels: RefCell::new(HashMap::new()),
            stats: RefCell::new(CommStats::default()),
            records: RefCell::new(Vec::new()),
            obs,
        })
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.placement.len()
    }

    /// Allocate the next message id for the directed pair `src → dst`:
    /// the pair index in the high 32 bits, a 1-based per-pair sequence
    /// number in the low 32. Never 0, so 0 can mean "no message".
    pub(crate) fn next_msg_id(&self, src: usize, dst: usize) -> u64 {
        let pair = src * self.size() + dst;
        let mut g = self.msg_seq.borrow_mut();
        let seq = g.entry((src, dst)).or_insert(0);
        *seq += 1;
        ((pair as u64) << 32) | (*seq & 0xffff_ffff)
    }

    /// True if the two ranks live on different sites (WAN path).
    pub fn is_wan(&self, a: usize, b: usize) -> bool {
        self.net.site_of(self.placement[a]) != self.net.site_of(self.placement[b])
    }

    /// Per-message software overhead between two ranks (Table 4), plus the
    /// heterogeneity-management cost when the message rides the fast
    /// fabric.
    pub fn overhead(&self, src: usize, dst: usize) -> SimDuration {
        if self.is_wan(src, dst) {
            self.profile.overhead_wan
        } else {
            let mut o = self.profile.overhead_lan;
            if let Some(gateway) = self.profile.fast_lan {
                if self.net.with_topology(|t| {
                    t.route_fast(self.placement[src], self.placement[dst])
                        .is_some()
                }) {
                    o += gateway;
                }
            }
            o
        }
    }

    /// The lazily-created TCP channel from `src` to `dst`.
    pub fn channel(&self, src: usize, dst: usize) -> ChannelId {
        self.channel_stream(src, dst, 0)
    }

    /// One of the parallel sockets between a pair (stream 0 carries
    /// control traffic and unstriped data).
    fn channel_stream(&self, src: usize, dst: usize, stream: u32) -> ChannelId {
        let mut g = self.channels.borrow_mut();
        *g.entry((src, dst, stream)).or_insert_with(|| {
            if self.profile.fast_lan.is_some() {
                if let Some(ch) = self
                    .net
                    .fast_channel(self.placement[src], self.placement[dst])
                {
                    return ch;
                }
            }
            let req = self.profile.socket_policy.request();
            self.net.channel_with(
                self.placement[src],
                self.placement[dst],
                req,
                req,
                self.profile.pacing,
                self.profile.data_window_cap,
            )
        })
    }

    /// Move `bytes` of user data (plus header) from `src` to `dst`,
    /// invoking `done` when the last byte has arrived. Messages above the
    /// profile's parallel-stream threshold are striped over several TCP
    /// connections (MPICH-G2, §2.1.5); the callback fires when every
    /// stripe has landed.
    fn data_transfer(
        self: &Rc<Self>,
        s: &Sched,
        src: usize,
        dst: usize,
        bytes: u64,
        done: impl FnOnce(&Sched) + 'static,
    ) {
        let streams = match self.profile.parallel_streams {
            Some((threshold, k)) if bytes > threshold && k > 1 => k,
            _ => 1,
        };
        if streams == 1 {
            let ch = self.channel_stream(src, dst, 0);
            self.net.transfer_then(s, ch, bytes + HEADER_BYTES, done);
            return;
        }
        let chunk = bytes / streams as u64;
        let pending = Rc::new(RefCell::new((streams, Some(done))));
        for k in 0..streams {
            let this_chunk = if k == streams - 1 {
                bytes - chunk * (streams as u64 - 1)
            } else {
                chunk
            };
            let ch = self.channel_stream(src, dst, k);
            let pending = Rc::clone(&pending);
            self.net
                .transfer_then(s, ch, this_chunk + HEADER_BYTES, move |s2| {
                    let mut g = pending.borrow_mut();
                    g.0 -= 1;
                    if g.0 == 0 {
                        let done = g.1.take().expect("stripe callback pending");
                        drop(g);
                        done(s2);
                    }
                });
        }
    }

    /// Start an eager transmission (sender does not block).
    pub fn eager_send(
        self: &Rc<Self>,
        s: &Sched,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: u64,
        msg_id: u64,
    ) {
        let w = Rc::clone(self);
        self.data_transfer(s, src, dst, bytes, move |s2| {
            w.deliver_eager(s2, src, dst, tag, bytes, msg_id)
        });
    }

    #[allow(clippy::too_many_arguments)] // protocol state, deliberately flat
    fn deliver_eager(&self, s: &Sched, src: usize, dst: usize, tag: u64, bytes: u64, msg_id: u64) {
        if self.rank_failed(dst, s.now()) {
            // The destination is dead: the message vanishes on its NIC
            // (buffered-send semantics — the sender completed long ago).
            self.emit_fault(s, "msg_dropped", dst as u64, bytes as f64);
            return;
        }
        let mut m = self.matchers[dst].borrow_mut();
        if let Some(pos) = m
            .posted
            .iter()
            .position(|p| p.sel_src.is_none_or(|x| x == src) && p.sel_tag.is_none_or(|t| t == tag))
        {
            let pr = m.posted.remove(pos).expect("position valid");
            drop(m);
            pr.tx.fire_from(
                s,
                Ok(RecvDone {
                    info: MsgInfo {
                        src,
                        tag,
                        bytes,
                        msg_id,
                    },
                    copy: SimDuration::ZERO,
                }),
            );
        } else {
            m.unexpected.push_back(Unexpected::Eager {
                src,
                tag,
                bytes,
                msg_id,
            });
        }
    }

    /// Start a rendezvous transmission; the returned completion fires (for
    /// the sender) once the data has been delivered.
    #[allow(clippy::too_many_arguments)] // protocol state, deliberately flat
    pub fn rndv_send(
        self: &Rc<Self>,
        s: &Sched,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: u64,
        msg_id: u64,
    ) -> Completion<Result<(), MpiError>> {
        let (stx, srx) = completion();
        let ch = self.channel(src, dst);
        let w = Rc::clone(self);
        self.net.transfer_then(s, ch, CTRL_BYTES, move |s2| {
            w.deliver_rndv_req(s2, src, dst, tag, bytes, msg_id, stx)
        });
        srx
    }

    #[allow(clippy::too_many_arguments)] // protocol state, deliberately flat
    fn deliver_rndv_req(
        self: &Rc<Self>,
        s: &Sched,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: u64,
        msg_id: u64,
        sender_done: Trigger<Result<(), MpiError>>,
    ) {
        if self.rank_failed(dst, s.now()) {
            // The handshake request reached a dead receiver: the sender's
            // blocking send aborts with a typed error instead of hanging.
            self.emit_fault(s, "msg_dropped", dst as u64, bytes as f64);
            sender_done.fire_from(s, Err(MpiError::PeerFailed { rank: dst }));
            return;
        }
        let mut m = self.matchers[dst].borrow_mut();
        if let Some(pos) = m
            .posted
            .iter()
            .position(|p| p.sel_src.is_none_or(|x| x == src) && p.sel_tag.is_none_or(|t| t == tag))
        {
            let pr = m.posted.remove(pos).expect("position valid");
            drop(m);
            self.rndv_matched(s, src, dst, tag, bytes, msg_id, sender_done, pr.tx);
        } else {
            m.unexpected.push_back(Unexpected::RndvReq {
                src,
                tag,
                bytes,
                msg_id,
                sender_done,
            });
        }
    }

    /// The receive matching a rendezvous request exists: send the
    /// acknowledgement back, then the bulk data.
    #[allow(clippy::too_many_arguments)] // protocol state, deliberately flat
    fn rndv_matched(
        self: &Rc<Self>,
        s: &Sched,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: u64,
        msg_id: u64,
        sender_done: Trigger<Result<(), MpiError>>,
        recv_tx: Trigger<Result<RecvDone, MpiError>>,
    ) {
        let ack_ch = self.channel(dst, src);
        let w = Rc::clone(self);
        self.net.transfer_then(s, ack_ch, CTRL_BYTES, move |s2| {
            let w2 = Rc::clone(&w);
            w2.data_transfer(s2, src, dst, bytes, move |s3| {
                recv_tx.fire_from(
                    s3,
                    Ok(RecvDone {
                        info: MsgInfo {
                            src,
                            tag,
                            bytes,
                            msg_id,
                        },
                        copy: SimDuration::ZERO,
                    }),
                );
                sender_done.fire_from(s3, Ok(()));
            });
        });
    }

    /// Post a receive for rank `me`. Returns [`Posted::Immediate`] if an
    /// unexpected eager message satisfies it on the spot, otherwise the
    /// pending completion (plus its id, for timeout cancellation).
    pub fn post_recv(
        self: &Rc<Self>,
        s: &Sched,
        me: usize,
        sel_src: Option<usize>,
        sel_tag: Option<u64>,
    ) -> Posted {
        let mut m = self.matchers[me].borrow_mut();
        if let Some(pos) = m
            .unexpected
            .iter()
            .position(|u| u.matches(sel_src, sel_tag))
        {
            let u = m.unexpected.remove(pos).expect("position valid");
            drop(m);
            match u {
                Unexpected::Eager {
                    src,
                    tag,
                    bytes,
                    msg_id,
                } => {
                    // Extra copy out of the temporary MPI buffer (Fig. 4).
                    let copy = SimDuration::from_secs_f64(bytes as f64 / self.profile.copy_rate);
                    Posted::Immediate(RecvDone {
                        info: MsgInfo {
                            src,
                            tag,
                            bytes,
                            msg_id,
                        },
                        copy,
                    })
                }
                Unexpected::RndvReq {
                    src,
                    tag,
                    bytes,
                    msg_id,
                    sender_done,
                } => {
                    let (rtx, rrx) = completion();
                    self.rndv_matched(s, src, me, tag, bytes, msg_id, sender_done, rtx);
                    Posted::Pending { id: None, rx: rrx }
                }
            }
        } else {
            let id = self.next_posted_id.get();
            self.next_posted_id.set(id + 1);
            let (rtx, rrx) = completion();
            m.posted.push_back(PostedRecv {
                id,
                sel_src,
                sel_tag,
                tx: rtx,
            });
            Posted::Pending {
                id: Some(id),
                rx: rrx,
            }
        }
    }

    /// Abort posted receive `id` on rank `me` with a timeout error, if it
    /// is still pending. A receive that completed (and left the posted
    /// queue) in the meantime makes this a no-op: a match and a timeout
    /// both remove the entry from the queue, so whichever runs first wins.
    pub fn cancel_posted(&self, s: &Sched, me: usize, id: u64, waited: SimDuration) {
        let mut m = self.matchers[me].borrow_mut();
        let Some(pos) = m.posted.iter().position(|p| p.id == id) else {
            return;
        };
        let pr = m.posted.remove(pos).expect("position valid");
        drop(m);
        pr.tx
            .fire_from(s, Err(MpiError::Timeout { op: "recv", waited }));
    }

    /// True if `rank` is inside a failure window at `now`.
    pub fn rank_failed(&self, rank: usize, now: SimTime) -> bool {
        self.failed[rank].get().is_some_and(|until| now < until)
    }

    /// Kill `rank` at the current instant, optionally restarting it at
    /// `until`. Models a fail-stop crash with a perfect failure detector:
    ///
    /// * the dead rank's own posted receives abort with
    ///   [`MpiError::SelfFailed`] (the program observes its death on its
    ///   next fallible call and can exit);
    /// * every other rank's posted receive that *selects* the dead rank as
    ///   its source aborts with [`MpiError::PeerFailed`] — wildcard
    ///   receives stay posted, since another sender may still satisfy
    ///   them;
    /// * rendezvous handshakes parked in the dead rank's unexpected queue
    ///   abort their senders' blocking sends;
    /// * in-flight and future messages addressed to the window are dropped
    ///   on delivery ([`Self::deliver_eager`] / [`Self::deliver_rndv_req`]).
    pub fn fail_rank(self: &Rc<Self>, s: &Sched, rank: usize, until: Option<SimTime>) {
        let until = until.unwrap_or(SimTime::MAX);
        self.failed[rank].set(Some(until));
        self.emit_fault(
            s,
            "rank_fail",
            rank as u64,
            if until == SimTime::MAX {
                0.0
            } else {
                until.since(s.now()).as_secs_f64()
            },
        );
        // Drain the dead rank's own matcher.
        let (own_posted, own_unexpected) = {
            let mut m = self.matchers[rank].borrow_mut();
            let posted: Vec<PostedRecv> = m.posted.drain(..).collect();
            let unexpected: Vec<Unexpected> = m.unexpected.drain(..).collect();
            (posted, unexpected)
        };
        for pr in own_posted {
            pr.tx.fire_from(s, Err(MpiError::SelfFailed));
        }
        for u in own_unexpected {
            if let Unexpected::RndvReq { sender_done, .. } = u {
                sender_done.fire_from(s, Err(MpiError::PeerFailed { rank }));
            }
        }
        self.abort_selected_on(s, rank);
        if until != SimTime::MAX {
            let w = Rc::clone(self);
            s.call_at(until, move |s2| {
                w.emit_fault(s2, "rank_restart", rank as u64, 0.0);
            });
        }
    }

    /// Abort posted receives that select `rank` as their source (wildcard
    /// receives stay posted — another sender may still satisfy them).
    fn abort_selected_on(&self, s: &Sched, rank: usize) {
        for (r, matcher) in self.matchers.iter().enumerate() {
            if r == rank {
                continue;
            }
            let aborted: Vec<PostedRecv> = {
                let mut m = matcher.borrow_mut();
                let mut out = Vec::new();
                let mut keep = VecDeque::with_capacity(m.posted.len());
                for pr in m.posted.drain(..) {
                    if pr.sel_src == Some(rank) {
                        out.push(pr);
                    } else {
                        keep.push_back(pr);
                    }
                }
                m.posted = keep;
                out
            };
            for pr in aborted {
                pr.tx.fire_from(s, Err(MpiError::PeerFailed { rank }));
            }
        }
    }

    /// Forward a fault event to the observability bus (no-op without a
    /// recorder; never touches the simulation).
    pub(crate) fn emit_fault(&self, s: &Sched, kind: &'static str, subject: u64, info: f64) {
        if let Some(rec) = &self.obs {
            rec.record(&desim::obs::Event::Fault {
                kind,
                subject,
                t_ns: s.now().as_nanos(),
                info,
            });
        }
    }

    /// True if nothing is pending anywhere (used by tests to assert
    /// quiescence at the end of a run).
    pub fn quiescent(&self) -> bool {
        self.matchers.iter().all(|m| {
            let g = m.borrow();
            g.unexpected.is_empty() && g.posted.is_empty()
        })
    }
}
