//! `RankCtx` — the MPI-like API each simulated rank programs against.
//!
//! The surface mirrors the MPI subset the paper's workloads need:
//! blocking and nonblocking point-to-point (`send`/`recv`/`isend`/
//! `irecv`/`wait`), and the collectives used by the NAS benchmarks
//! (`barrier`, `bcast`, `reduce`, `allreduce`, `allgather`, `alltoall`,
//! `alltoallv`, `gather`, `scatter`). Payloads are sizes, not data — the
//! simulator models time, not values.
//!
//! Rank programs are `async`: every potentially blocking operation
//! returns a future, and a suspended rank waits as a pooled continuation
//! that the kernel polls inline when its wake-up event comes due (no OS
//! thread per rank). See `desim::exec` for the blocking-point contract.

use std::rc::Rc;

use desim::{Completion, Cx, SimDuration, SimTime};

use crate::collectives;
use crate::error::{FaultPolicy, MpiError};
use crate::world::{MsgInfo, Posted, RecvDone, WorldInner, CTRL_BYTES, HEADER_BYTES};

/// A nonblocking operation handle (the `MPI_Request` analogue).
pub struct Request(ReqInner);

enum ReqInner {
    /// Already complete (eager sends); carries the send's message id.
    Done(u64, Option<MsgInfo>),
    /// A rendezvous send in flight (message id + delivery completion).
    Send(u64, Completion<Result<(), MpiError>>),
    /// A receive in flight; the id (when present) lets a fault policy's
    /// timeout cancel the still-posted receive.
    Recv(Option<u64>, Completion<Result<RecvDone, MpiError>>),
    /// A receive satisfied from the unexpected queue; the copy cost is paid
    /// at wait time.
    RecvImmediate(MsgInfo, SimDuration),
}

impl Request {
    /// The message id carried by a send request (0 for receives still in
    /// flight — their id arrives with the envelope).
    fn msg_id(&self) -> u64 {
        match &self.0 {
            ReqInner::Done(id, _) | ReqInner::Send(id, _) => *id,
            ReqInner::Recv(..) => 0,
            ReqInner::RecvImmediate(info, _) => info.msg_id,
        }
    }
}

/// Execution context handed to each rank of an MPI program.
pub struct RankCtx {
    rank: usize,
    size: usize,
    cx: Cx,
    world: Rc<WorldInner>,
    gflops: f64,
    /// Per-op-kind collective sequence counters. Tags are namespaced by
    /// [`collectives::CollOp`], so overlapping collectives of different
    /// ops on disjoint subgroups can never collide, and ranks that ran a
    /// different op mix on their subgroups still agree on the sequence
    /// number of any op they later meet in together.
    pub(crate) coll_seq: [u64; collectives::CollOp::COUNT],
    in_collective: bool,
    policy: FaultPolicy,
}

impl RankCtx {
    pub(crate) fn new(rank: usize, cx: Cx, world: Rc<WorldInner>) -> RankCtx {
        let gflops = world.net.cpu_gflops(world.placement[rank]);
        RankCtx {
            rank,
            size: world.size(),
            cx,
            world,
            gflops,
            coll_seq: [0; collectives::CollOp::COUNT],
            in_collective: false,
            policy: FaultPolicy::none(),
        }
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.cx.now()
    }

    /// The underlying execution context handle.
    pub fn cx(&self) -> &Cx {
        &self.cx
    }

    /// The node's compute rate in Gflop/s (heterogeneous across sites).
    pub fn gflops(&self) -> f64 {
        self.gflops
    }

    pub(crate) fn world(&self) -> &Rc<WorldInner> {
        &self.world
    }

    /// Rank → site name (topology introspection for grid-aware workloads).
    pub fn site_of_rank(&self, rank: usize) -> String {
        let node = self.world.placement[rank];
        self.world.net.site_name(self.world.net.site_of(node))
    }

    /// Model `gflop` billion floating-point operations of local compute.
    pub async fn compute_gflop(&self, gflop: f64) {
        self.compute(SimDuration::from_secs_f64(gflop / self.gflops))
            .await;
    }

    /// Model a fixed amount of local compute time.
    pub async fn compute(&self, d: SimDuration) {
        let t0 = self.cx.now();
        self.cx.advance(d).await;
        self.trace("compute", None, 0, t0, 0);
    }

    /// Emit an MPI span ending now (no-op unless an observability
    /// recorder is attached).
    fn trace(
        &self,
        op: &'static str,
        peer: Option<usize>,
        bytes: u64,
        start: SimTime,
        msg_id: u64,
    ) {
        if let Some(rec) = &self.world.obs {
            rec.record(&desim::obs::Event::MpiSpan {
                rank: self.rank as u64,
                op,
                peer: peer.map(|p| p as i64).unwrap_or(-1),
                bytes,
                start_ns: start.as_nanos(),
                end_ns: self.cx.now().as_nanos(),
                msg_id,
            });
        }
    }

    /// Emit an application-level fault event (e.g. `"chunk_reissued"`)
    /// into the observability stream, so recovery actions show up on the
    /// trace's fault track. No-op without a recorder; never affects
    /// timing either way.
    pub fn emit_fault(&self, kind: &'static str, subject: u64, info: f64) {
        let s = self.cx.sched();
        self.world.emit_fault(&s, kind, subject, info);
    }

    /// Emit an application-phase marker (e.g. `"warmup"`, `"timed"`) into
    /// the observability stream. No-op without a recorder; never affects
    /// timing either way.
    pub fn phase(&self, name: &'static str) {
        if let Some(rec) = &self.world.obs {
            rec.record(&desim::obs::Event::Phase {
                rank: self.rank as u64,
                name,
                t_ns: self.cx.now().as_nanos(),
            });
        }
    }

    /// Record a named measurement for the run report.
    pub fn record(&self, key: impl Into<String>, value: f64) {
        self.world
            .records
            .borrow_mut()
            .push((self.rank, key.into(), value));
    }

    async fn pay_overhead(&self, peer: usize) {
        self.cx.advance(self.world.overhead(self.rank, peer)).await;
    }

    /// Blocking standard-mode send (`MPI_Send`): eager messages buffer and
    /// return, rendezvous messages block until delivered.
    pub async fn send(&mut self, dst: usize, bytes: u64, tag: u64) {
        let r = self.isend(dst, bytes, tag).await;
        self.wait(r).await;
    }

    /// Nonblocking send (`MPI_Isend`). Async only for the per-message
    /// software overhead; the transfer itself never blocks the caller.
    pub async fn isend(&mut self, dst: usize, bytes: u64, tag: u64) -> Request {
        if !self.in_collective {
            self.world.stats.borrow_mut().record_p2p(bytes);
        }
        let t0 = self.cx.now();
        let r = self.send_raw(dst, bytes, tag).await;
        if !self.in_collective {
            self.trace("send", Some(dst), bytes, t0, r.msg_id());
        }
        r
    }

    /// Internal send without application-level statistics (collective
    /// steps).
    pub(crate) async fn send_raw(&mut self, dst: usize, bytes: u64, tag: u64) -> Request {
        self.world
            .stats
            .borrow_mut()
            .record_pair(self.rank, dst, bytes);
        self.pay_overhead(dst).await;
        let s = self.cx.sched();
        let msg_id = self.world.next_msg_id(self.rank, dst);
        if bytes <= self.world.eager_threshold {
            self.world
                .stats
                .borrow_mut()
                .record_wire(bytes + HEADER_BYTES);
            self.world
                .eager_send(&s, self.rank, dst, tag, bytes, msg_id);
            Request(ReqInner::Done(msg_id, None))
        } else {
            self.world
                .stats
                .borrow_mut()
                .record_wire(bytes + HEADER_BYTES + 2 * CTRL_BYTES);
            let c = self.world.rndv_send(&s, self.rank, dst, tag, bytes, msg_id);
            Request(ReqInner::Send(msg_id, c))
        }
    }

    /// Blocking receive from a specific source and tag (`MPI_Recv`).
    pub async fn recv(&mut self, src: usize, tag: u64) -> MsgInfo {
        self.recv_sel(Some(src), Some(tag)).await
    }

    /// Blocking receive from any source (`MPI_ANY_SOURCE`).
    pub async fn recv_any(&mut self, tag: u64) -> MsgInfo {
        self.recv_sel(None, Some(tag)).await
    }

    /// Blocking receive with full wildcard control.
    pub async fn recv_sel(&mut self, src: Option<usize>, tag: Option<u64>) -> MsgInfo {
        let r = self.irecv_sel(src, tag);
        self.wait(r).await.expect("receive yields a message")
    }

    /// Nonblocking receive (`MPI_Irecv`).
    pub fn irecv(&mut self, src: usize, tag: u64) -> Request {
        self.irecv_sel(Some(src), Some(tag))
    }

    /// Nonblocking receive with wildcards.
    pub fn irecv_sel(&mut self, src: Option<usize>, tag: Option<u64>) -> Request {
        let s = self.cx.sched();
        match self.world.post_recv(&s, self.rank, src, tag) {
            Posted::Immediate(done) => Request(ReqInner::RecvImmediate(done.info, done.copy)),
            Posted::Pending { id, rx } => Request(ReqInner::Recv(id, rx)),
        }
    }

    // ----- fallible API (fault-tolerant programs) -----

    /// Set this rank's retry/timeout policy for the `try_*` operations.
    /// The default, [`FaultPolicy::none`], arms no timers at all.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.policy = policy;
    }

    /// True if `rank` is currently inside a failure window (perfect
    /// failure detector).
    pub fn peer_failed(&self, rank: usize) -> bool {
        self.world.rank_failed(rank, self.cx.now())
    }

    /// Fallible blocking send: retries per the fault policy while the
    /// peer is down, then reports [`MpiError::PeerFailed`]. Detects the
    /// caller's own death between attempts.
    pub async fn try_send(&mut self, dst: usize, bytes: u64, tag: u64) -> Result<(), MpiError> {
        let mut attempt = 0u32;
        loop {
            if self.peer_failed(self.rank) {
                return Err(MpiError::SelfFailed);
            }
            if !self.peer_failed(dst) {
                let r = self.isend(dst, bytes, tag).await;
                return self.try_wait(r).await.map(|_| ());
            }
            if attempt >= self.policy.retries {
                return Err(MpiError::PeerFailed { rank: dst });
            }
            self.cx.advance(self.policy.backoff(attempt)).await;
            attempt += 1;
        }
    }

    /// Fallible blocking receive from a specific source and tag.
    pub async fn try_recv(&mut self, src: usize, tag: u64) -> Result<MsgInfo, MpiError> {
        self.try_recv_sel(Some(src), Some(tag)).await
    }

    /// Fallible blocking receive from any source.
    pub async fn try_recv_any(&mut self, tag: u64) -> Result<MsgInfo, MpiError> {
        self.try_recv_sel(None, Some(tag)).await
    }

    /// Fallible blocking receive with wildcards. Honors the policy's
    /// `recv_timeout`.
    pub async fn try_recv_sel(
        &mut self,
        src: Option<usize>,
        tag: Option<u64>,
    ) -> Result<MsgInfo, MpiError> {
        let r = self.irecv_sel(src, tag);
        match self.try_wait(r).await? {
            Some(info) => Ok(info),
            None => unreachable!("receive requests always carry an envelope"),
        }
    }

    /// Fallible `MPI_Wait`: completes the request or reports why it
    /// cannot. For pending receives, a `recv_timeout` in the fault policy
    /// arms a one-shot cancellation timer; the timer finds nothing to do
    /// when the message wins the race, so it never disturbs a successful
    /// receive's timing.
    pub async fn try_wait(&mut self, r: Request) -> Result<Option<MsgInfo>, MpiError> {
        match r.0 {
            ReqInner::Done(_, info) => Ok(info),
            ReqInner::Send(msg_id, c) => {
                let t0 = self.cx.now();
                let res = self.cx.wait(c).await;
                if !self.in_collective {
                    self.trace("wait_send", None, 0, t0, msg_id);
                }
                res.map(|()| None)
            }
            ReqInner::Recv(id, c) => {
                let t0 = self.cx.now();
                if let (Some(timeout), Some(id)) = (self.policy.recv_timeout, id) {
                    let w = Rc::clone(&self.world);
                    let me = self.rank;
                    let s = self.cx.sched();
                    s.call_at(self.cx.now() + timeout, move |s2| {
                        w.cancel_posted(s2, me, id, timeout);
                    });
                }
                let done = self.cx.wait(c).await?;
                if !done.copy.is_zero() {
                    self.cx.advance(done.copy).await;
                }
                if !self.in_collective {
                    self.trace(
                        "recv",
                        Some(done.info.src),
                        done.info.bytes,
                        t0,
                        done.info.msg_id,
                    );
                }
                Ok(Some(done.info))
            }
            ReqInner::RecvImmediate(info, copy) => {
                let t0 = self.cx.now();
                if !copy.is_zero() {
                    self.cx.advance(copy).await;
                }
                if !self.in_collective {
                    self.trace("recv", Some(info.src), info.bytes, t0, info.msg_id);
                }
                Ok(Some(info))
            }
        }
    }

    /// Fallible `MPI_Waitall`: first failure wins; remaining requests are
    /// still waited on (so no completion is leaked mid-collective).
    pub async fn try_waitall(
        &mut self,
        rs: Vec<Request>,
    ) -> Result<Vec<Option<MsgInfo>>, MpiError> {
        let mut out = Vec::with_capacity(rs.len());
        let mut first_err = None;
        for r in rs {
            match self.try_wait(r).await {
                Ok(info) => out.push(info),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            None => Ok(out),
            Some(e) => Err(e),
        }
    }

    /// Complete a request (`MPI_Wait`). Returns the envelope for receives.
    /// Panics on injected faults — use [`RankCtx::try_wait`] in
    /// fault-tolerant programs.
    pub async fn wait(&mut self, r: Request) -> Option<MsgInfo> {
        self.try_wait(r)
            .await
            .unwrap_or_else(|e| panic!("MPI operation failed: {e}"))
    }

    /// Complete a set of requests (`MPI_Waitall`).
    pub async fn waitall(&mut self, rs: Vec<Request>) -> Vec<Option<MsgInfo>> {
        let mut out = Vec::with_capacity(rs.len());
        for r in rs {
            out.push(self.wait(r).await);
        }
        out
    }

    /// Simultaneous send and receive (`MPI_Sendrecv`).
    pub async fn sendrecv(&mut self, dst: usize, send_bytes: u64, src: usize, tag: u64) -> MsgInfo {
        let rr = self.irecv(src, tag);
        let sr = self.isend(dst, send_bytes, tag).await;
        let info = self.wait(rr).await.expect("sendrecv receives");
        self.wait(sr).await;
        info
    }

    // ----- collectives (delegate to `collectives`) -----

    /// Shared collective prologue/epilogue for sub-communicator operations.
    pub(crate) async fn coll_on(
        &mut self,
        op: &str,
        bytes: u64,
        f: impl AsyncFnOnce(&mut RankCtx, u64),
    ) {
        self.coll(op, bytes, f).await
    }

    async fn coll<R>(
        &mut self,
        op: &str,
        bytes: u64,
        f: impl AsyncFnOnce(&mut RankCtx, u64) -> R,
    ) -> R {
        self.world.stats.borrow_mut().record_collective(op, bytes);
        let kind = collectives::CollOp::from_name(op);
        self.coll_seq[kind as usize] += 1;
        let tag = collectives::coll_tag(kind, self.coll_seq[kind as usize]);
        let was = std::mem::replace(&mut self.in_collective, true);
        let t0 = self.cx.now();
        let r = f(self, tag).await;
        self.in_collective = was;
        if !was {
            let name = match op {
                "barrier" => "barrier",
                "bcast" | "comm_bcast" => "bcast",
                "reduce" | "comm_reduce" => "reduce",
                "allreduce" | "comm_allreduce" => "allreduce",
                "allgather" | "comm_allgather" => "allgather",
                "alltoall" => "alltoall",
                "alltoallv" => "alltoallv",
                "gather" => "gather",
                "scatter" => "scatter",
                _ => "collective",
            };
            self.trace(name, None, bytes, t0, 0);
        }
        r
    }

    /// `MPI_Barrier` (dissemination algorithm).
    pub async fn barrier(&mut self) {
        self.coll("barrier", 0, async |c, tag| {
            let all: Vec<usize> = (0..c.size()).collect();
            collectives::subgroup_barrier(c, &all, tag).await
        })
        .await;
    }

    /// `MPI_Bcast` of `bytes` from `root` (algorithm per implementation).
    pub async fn bcast(&mut self, root: usize, bytes: u64) {
        self.coll("bcast", bytes, async |c, tag| {
            collectives::bcast(c, root, bytes, tag).await
        })
        .await;
    }

    /// `MPI_Reduce` of `bytes` to `root` (binomial tree).
    pub async fn reduce(&mut self, root: usize, bytes: u64) {
        self.coll("reduce", bytes, async |c, tag| {
            collectives::reduce(c, root, bytes, tag).await
        })
        .await;
    }

    /// `MPI_Allreduce` of `bytes` (algorithm per implementation).
    pub async fn allreduce(&mut self, bytes: u64) {
        self.coll("allreduce", bytes, async |c, tag| {
            collectives::allreduce(c, bytes, tag).await
        })
        .await;
    }

    /// `MPI_Allgather` with `bytes_each` contributed per rank (ring).
    pub async fn allgather(&mut self, bytes_each: u64) {
        self.coll("allgather", bytes_each, async |c, tag| {
            collectives::ring_allgather(c, bytes_each, tag).await
        })
        .await;
    }

    /// `MPI_Alltoall` with `bytes_per_pair` exchanged between every pair.
    pub async fn alltoall(&mut self, bytes_per_pair: u64) {
        self.coll("alltoall", bytes_per_pair, async |c, tag| {
            let sizes = vec![bytes_per_pair; c.size()];
            collectives::alltoallv(c, &sizes, tag).await
        })
        .await;
    }

    /// `MPI_Alltoallv`: `send_sizes[d]` bytes go to rank `d`.
    pub async fn alltoallv(&mut self, send_sizes: &[u64]) {
        let total: u64 = send_sizes.iter().sum();
        let sizes = send_sizes.to_vec();
        self.coll("alltoallv", total, async move |c, tag| {
            collectives::alltoallv(c, &sizes, tag).await
        })
        .await;
    }

    /// `MPI_Gather` of `bytes_each` per rank to `root` (linear).
    pub async fn gather(&mut self, root: usize, bytes_each: u64) {
        self.coll("gather", bytes_each, async |c, tag| {
            let all: Vec<usize> = (0..c.size()).collect();
            collectives::subgroup_linear_reduce(c, &all, root, bytes_each, tag).await
        })
        .await;
    }

    /// `MPI_Scatter` of `bytes_each` per rank from `root` (linear).
    pub async fn scatter(&mut self, root: usize, bytes_each: u64) {
        self.coll("scatter", bytes_each, async |c, tag| {
            let all: Vec<usize> = (0..c.size()).collect();
            collectives::subgroup_linear_bcast(c, &all, root, bytes_each, tag).await
        })
        .await;
    }
}
