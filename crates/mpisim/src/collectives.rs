//! Collective-operation algorithms.
//!
//! Three families, matching §2.1 of the paper:
//!
//! * **Binomial / recursive doubling** — the MPICH-1-era defaults
//!   (MPICH-Madeleine).
//! * **Scatter + ring allgather** (Van de Geijn) and **Rabenseifner** for
//!   large messages — the MPICH2/OpenMPI defaults. These are
//!   topology-*oblivious*: their ring and butterfly steps cross the WAN
//!   over and over, which is what makes FT and IS so slow on the grid for
//!   the non-grid-aware implementations (Fig. 10).
//! * **Grid-aware hierarchical** algorithms (GridMPI, after Matsuda et al.,
//!   Cluster'06): intra-site trees plus one set of *parallel* inter-site
//!   transfers, exploiting the fact that the WAN backbone is faster than a
//!   single node's NIC.

use crate::rank::RankCtx;

/// Collective operation kinds. Each kind owns an independent per-rank
/// sequence counter (see `RankCtx::coll_seq`) and a distinct tag
/// namespace, so two overlapping collectives of *different* ops running
/// on disjoint subgroups can never mint colliding tags — and ranks whose
/// op mix differs across subgroups still agree on the sequence number of
/// any op they later meet in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CollOp {
    /// `MPI_Barrier`.
    Barrier = 0,
    /// `MPI_Bcast`.
    Bcast = 1,
    /// `MPI_Reduce`.
    Reduce = 2,
    /// `MPI_Allreduce`.
    Allreduce = 3,
    /// `MPI_Allgather`.
    Allgather = 4,
    /// `MPI_Alltoall` / `MPI_Alltoallv`.
    Alltoall = 5,
    /// `MPI_Gather`.
    Gather = 6,
    /// `MPI_Scatter`.
    Scatter = 7,
}

impl CollOp {
    /// Number of op kinds (sizes the per-rank sequence-counter array).
    pub const COUNT: usize = 8;

    /// The ops whose algorithm can be pinned through [`CollConfig`].
    pub const PINNABLE: [CollOp; 5] = [
        CollOp::Bcast,
        CollOp::Reduce,
        CollOp::Allreduce,
        CollOp::Allgather,
        CollOp::Alltoall,
    ];

    /// Map the operation label used by `RankCtx::coll` (including the
    /// `comm_*` sub-communicator labels) to its kind.
    pub(crate) fn from_name(op: &str) -> CollOp {
        match op {
            "barrier" | "comm_barrier" => CollOp::Barrier,
            "bcast" | "comm_bcast" => CollOp::Bcast,
            "reduce" | "comm_reduce" => CollOp::Reduce,
            "allreduce" | "comm_allreduce" => CollOp::Allreduce,
            "allgather" | "comm_allgather" => CollOp::Allgather,
            "alltoall" | "alltoallv" => CollOp::Alltoall,
            "gather" => CollOp::Gather,
            "scatter" => CollOp::Scatter,
            _ => CollOp::Barrier,
        }
    }

    /// Row of this op in [`CollConfig`]'s selection table.
    fn pin_index(self) -> Option<usize> {
        match self {
            CollOp::Bcast => Some(0),
            CollOp::Reduce => Some(1),
            CollOp::Allreduce => Some(2),
            CollOp::Allgather => Some(3),
            CollOp::Alltoall => Some(4),
            _ => None,
        }
    }
}

/// Tag namespace for collective traffic (clear of application tags):
/// bit 62 marks the collective namespace, bits 56..59 carry the op kind,
/// and the low bits the per-rank per-op sequence number.
pub(crate) fn coll_tag(op: CollOp, seq: u64) -> u64 {
    (1 << 62) | ((op as u64) << 56) | seq
}

/// A selectable collective algorithm (the OpenMPI `tuned`-module family
/// plus the grid-aware building blocks already modelled). Not every
/// algorithm applies to every op: a pin that makes no sense for the op
/// (or needs a power-of-two group it does not have) degrades to the
/// nearest applicable algorithm — see `algo_bcast` and friends — so a
/// pinned scenario can never deadlock on a shape mismatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CollAlgo {
    /// Keep the implementation profile's own dispatch (the default; leaves
    /// every existing scenario bit-identical).
    #[default]
    ProfileDefault,
    /// Root sends to every rank directly (bcast/reduce/alltoall).
    Linear,
    /// Single chain through the ranks in rotated order.
    Chain,
    /// Segmented chain: `segment_bytes` chunks pipelined down the chain.
    Pipeline,
    /// Balanced binary tree (children `2v+1`, `2v+2`).
    Binary,
    /// In-order binary tree: children own contiguous rank ranges.
    InOrderBinary,
    /// Binomial tree (the MPICH-1-era default).
    Binomial,
    /// Van de Geijn scatter + ring allgather (large-message bcast).
    ScatterAllgather,
    /// Ring: reduce-scatter + allgather rings (allreduce/allgather).
    Ring,
    /// Recursive doubling butterfly.
    RecursiveDoubling,
    /// Rabenseifner: recursive halving + recursive doubling.
    Rabenseifner,
    /// Pairwise exchange (alltoall).
    Pairwise,
}

impl CollAlgo {
    /// Short stable label (decision tables, bench names, CLI).
    pub fn name(self) -> &'static str {
        match self {
            CollAlgo::ProfileDefault => "profile",
            CollAlgo::Linear => "linear",
            CollAlgo::Chain => "chain",
            CollAlgo::Pipeline => "pipeline",
            CollAlgo::Binary => "binary",
            CollAlgo::InOrderBinary => "inorder_binary",
            CollAlgo::Binomial => "binomial",
            CollAlgo::ScatterAllgather => "scatter_allgather",
            CollAlgo::Ring => "ring",
            CollAlgo::RecursiveDoubling => "recursive_doubling",
            CollAlgo::Rabenseifner => "rabenseifner",
            CollAlgo::Pairwise => "pairwise",
        }
    }
}

/// One selection: an algorithm plus whether to run it hierarchically
/// (intra-site phases + one inter-site phase over per-site leaders).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CollSel {
    /// The algorithm (inter-site phase when `two_level`).
    pub algo: CollAlgo,
    /// Run the two-level grid variant on multi-site topologies.
    pub two_level: bool,
}

impl CollSel {
    /// Flat (topology-oblivious) selection.
    pub fn flat(algo: CollAlgo) -> CollSel {
        CollSel {
            algo,
            two_level: false,
        }
    }

    /// Two-level (intra-site + inter-site) selection.
    pub fn two_level(algo: CollAlgo) -> CollSel {
        CollSel {
            algo,
            two_level: true,
        }
    }
}

/// Message-size classes for per-(op × size) pinning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SizeClass {
    /// `bytes < small_max`.
    Small = 0,
    /// `small_max ≤ bytes < large_min`.
    Medium = 1,
    /// `bytes ≥ large_min`.
    Large = 2,
}

impl SizeClass {
    /// All classes, ascending.
    pub const ALL: [SizeClass; 3] = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];

    /// Stable label (decision tables).
    pub fn name(self) -> &'static str {
        match self {
            SizeClass::Small => "small",
            SizeClass::Medium => "medium",
            SizeClass::Large => "large",
        }
    }
}

/// Per-(op × size class) algorithm selection table, threaded through
/// [`crate::ExecConfig`] so any scenario can pin collective algorithms.
/// The default table is all-[`CollAlgo::ProfileDefault`]: behaviour (and
/// every golden digest) is bit-identical to the un-pinned simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollConfig {
    /// Exclusive upper bound of the [`SizeClass::Small`] class.
    pub small_max: u64,
    /// Inclusive lower bound of the [`SizeClass::Large`] class.
    pub large_min: u64,
    /// Segment size used by [`CollAlgo::Pipeline`].
    pub segment_bytes: u64,
    /// `sel[op.pin_index()][size_class]`.
    sel: [[CollSel; 3]; 5],
}

impl Default for CollConfig {
    fn default() -> CollConfig {
        CollConfig {
            small_max: 8 << 10,
            large_min: 512 << 10,
            segment_bytes: 64 << 10,
            sel: [[CollSel::default(); 3]; 5],
        }
    }
}

impl CollConfig {
    /// The all-default table (profile dispatch for every op and size).
    pub fn new() -> CollConfig {
        CollConfig::default()
    }

    /// The size class `bytes` falls in.
    pub fn size_class(&self, bytes: u64) -> SizeClass {
        if bytes < self.small_max {
            SizeClass::Small
        } else if bytes < self.large_min {
            SizeClass::Medium
        } else {
            SizeClass::Large
        }
    }

    /// Pin `op` at `class` to `sel`. Pins on non-pinnable ops (barrier,
    /// gather, scatter) are ignored.
    pub fn pin(mut self, op: CollOp, class: SizeClass, sel: CollSel) -> CollConfig {
        if let Some(i) = op.pin_index() {
            self.sel[i][class as usize] = sel;
        }
        self
    }

    /// Pin `op` to `sel` for every size class.
    pub fn pin_all(mut self, op: CollOp, sel: CollSel) -> CollConfig {
        for class in SizeClass::ALL {
            self = self.pin(op, class, sel);
        }
        self
    }

    /// Override the pipeline segment size.
    pub fn segment(mut self, bytes: u64) -> CollConfig {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// The selection in force for `op` at `bytes`.
    pub fn select(&self, op: CollOp, bytes: u64) -> CollSel {
        match op.pin_index() {
            Some(i) => self.sel[i][self.size_class(bytes) as usize],
            None => CollSel::default(),
        }
    }
}

fn prev_pow2(n: usize) -> usize {
    let mut p = 1;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

fn pos_in(group: &[usize], rank: usize) -> usize {
    group
        .iter()
        .position(|&g| g == rank)
        .expect("rank is in group")
}

/// Parent and children of vrank `v` in the in-order (range-splitting)
/// binary tree over `0..p`: the root of a range owns its first vrank,
/// and each child subtree owns a contiguous vrank range.
fn inorder_tree(p: usize, v: usize) -> (Option<usize>, Vec<usize>) {
    let (mut lo, mut hi, mut parent) = (0usize, p, None);
    loop {
        let rest = hi - lo - 1;
        let mid = lo + 1 + rest / 2;
        if v == lo {
            let mut children = Vec::new();
            if lo + 1 < mid {
                children.push(lo + 1);
            }
            if mid < hi {
                children.push(mid);
            }
            return (parent, children);
        }
        parent = Some(lo);
        if v < mid {
            lo += 1;
            hi = mid;
        } else {
            lo = mid;
        }
    }
}

/// Linear (flat-tree) broadcast: the root sends the full payload to every
/// other rank directly.
pub(crate) async fn subgroup_linear_bcast(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
) {
    if group.len() <= 1 {
        return;
    }
    if ctx.rank() == root {
        let mut reqs = Vec::new();
        for &g in group {
            if g != root {
                reqs.push(ctx.send_raw(g, bytes, tag).await);
            }
        }
        for r in reqs {
            ctx.wait(r).await;
        }
    } else {
        ctx.recv(root, tag).await;
    }
}

/// Chain broadcast: one store-and-forward chain in rotated rank order.
async fn subgroup_chain_bcast(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let rootpos = pos_in(group, root);
    let vrank = (me + p - rootpos) % p;
    let real = |v: usize| group[(v + rootpos) % p];
    if vrank > 0 {
        ctx.recv(real(vrank - 1), tag).await;
    }
    if vrank + 1 < p {
        let r = ctx.send_raw(real(vrank + 1), bytes, tag).await;
        ctx.wait(r).await;
    }
}

/// Pipelined (segmented) chain broadcast: `segment`-byte chunks overlap
/// down the chain, hiding per-hop latency for large payloads.
async fn subgroup_pipeline_bcast(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
    segment: u64,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let rootpos = pos_in(group, root);
    let vrank = (me + p - rootpos) % p;
    let real = |v: usize| group[(v + rootpos) % p];
    let seg = segment.max(1);
    let nseg = bytes.div_ceil(seg).max(1);
    let mut reqs = Vec::new();
    for s in 0..nseg {
        let sz = if s + 1 == nseg {
            (bytes - seg * (nseg - 1)).max(1)
        } else {
            seg
        };
        if vrank > 0 {
            ctx.recv(real(vrank - 1), tag).await;
        }
        if vrank + 1 < p {
            reqs.push(ctx.send_raw(real(vrank + 1), sz, tag).await);
        }
    }
    for r in reqs {
        ctx.wait(r).await;
    }
}

/// Balanced-binary-tree broadcast (children `2v+1`, `2v+2` in vrank
/// space).
async fn subgroup_binary_bcast(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let rootpos = pos_in(group, root);
    let vrank = (me + p - rootpos) % p;
    let real = |v: usize| group[(v + rootpos) % p];
    if vrank > 0 {
        ctx.recv(real((vrank - 1) / 2), tag).await;
    }
    let mut reqs = Vec::new();
    for c in [2 * vrank + 1, 2 * vrank + 2] {
        if c < p {
            reqs.push(ctx.send_raw(real(c), bytes, tag).await);
        }
    }
    for r in reqs {
        ctx.wait(r).await;
    }
}

/// In-order binary-tree broadcast (children own contiguous vrank ranges —
/// the shape OpenMPI uses for non-commutative reductions).
async fn subgroup_inorder_bcast(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let rootpos = pos_in(group, root);
    let vrank = (me + p - rootpos) % p;
    let real = |v: usize| group[(v + rootpos) % p];
    let (parent, children) = inorder_tree(p, vrank);
    if let Some(par) = parent {
        ctx.recv(real(par), tag).await;
    }
    let mut reqs = Vec::new();
    for c in children {
        reqs.push(ctx.send_raw(real(c), bytes, tag).await);
    }
    for r in reqs {
        ctx.wait(r).await;
    }
}

/// Linear reduce: every rank sends its contribution straight to the root.
pub(crate) async fn subgroup_linear_reduce(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
) {
    if group.len() <= 1 {
        return;
    }
    if ctx.rank() == root {
        for &g in group {
            if g != root {
                ctx.recv(g, tag).await;
            }
        }
    } else {
        let r = ctx.send_raw(root, bytes, tag).await;
        ctx.wait(r).await;
    }
}

/// Chain reduce: partial results flow down the chain towards the root.
async fn subgroup_chain_reduce(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let rootpos = pos_in(group, root);
    let vrank = (me + p - rootpos) % p;
    let real = |v: usize| group[(v + rootpos) % p];
    if vrank + 1 < p {
        ctx.recv(real(vrank + 1), tag).await;
    }
    if vrank > 0 {
        let r = ctx.send_raw(real(vrank - 1), bytes, tag).await;
        ctx.wait(r).await;
    }
}

/// Pipelined (segmented) chain reduce.
async fn subgroup_pipeline_reduce(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
    segment: u64,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let rootpos = pos_in(group, root);
    let vrank = (me + p - rootpos) % p;
    let real = |v: usize| group[(v + rootpos) % p];
    let seg = segment.max(1);
    let nseg = bytes.div_ceil(seg).max(1);
    let mut reqs = Vec::new();
    for s in 0..nseg {
        let sz = if s + 1 == nseg {
            (bytes - seg * (nseg - 1)).max(1)
        } else {
            seg
        };
        if vrank + 1 < p {
            ctx.recv(real(vrank + 1), tag).await;
        }
        if vrank > 0 {
            reqs.push(ctx.send_raw(real(vrank - 1), sz, tag).await);
        }
    }
    for r in reqs {
        ctx.wait(r).await;
    }
}

/// Balanced-binary-tree reduce.
async fn subgroup_binary_reduce(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let rootpos = pos_in(group, root);
    let vrank = (me + p - rootpos) % p;
    let real = |v: usize| group[(v + rootpos) % p];
    for c in [2 * vrank + 1, 2 * vrank + 2] {
        if c < p {
            ctx.recv(real(c), tag).await;
        }
    }
    if vrank > 0 {
        let r = ctx.send_raw(real((vrank - 1) / 2), bytes, tag).await;
        ctx.wait(r).await;
    }
}

/// In-order binary-tree reduce.
async fn subgroup_inorder_reduce(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let rootpos = pos_in(group, root);
    let vrank = (me + p - rootpos) % p;
    let real = |v: usize| group[(v + rootpos) % p];
    let (parent, children) = inorder_tree(p, vrank);
    for c in children {
        ctx.recv(real(c), tag).await;
    }
    if let Some(par) = parent {
        let r = ctx.send_raw(real(par), bytes, tag).await;
        ctx.wait(r).await;
    }
}

/// Van de Geijn scatter+allgather broadcast over a subgroup (power-of-two
/// group sizes; callers fall back to binomial otherwise): binomial
/// scatter, then ring allgather. Oblivious to sites — over the world in
/// rank order the ring crosses the WAN twice per lap, the grid pathology.
async fn subgroup_vdg_bcast(ctx: &mut RankCtx, group: &[usize], root: usize, bytes: u64, tag: u64) {
    let p = group.len();
    let me = pos_in(group, ctx.rank());
    let rootpos = pos_in(group, root);
    let vrank = (me + p - rootpos) % p;
    let real = |v: usize| group[(v + rootpos) % p];
    let mut mask = p >> 1;
    while mask >= 1 {
        if vrank.is_multiple_of(mask << 1) {
            let req = ctx
                .send_raw(real(vrank + mask), bytes * mask as u64 / p as u64, tag)
                .await;
            ctx.wait(req).await;
        } else if vrank % (mask << 1) == mask {
            ctx.recv(real(vrank - mask), tag).await;
        }
        if mask == 1 {
            break;
        }
        mask >>= 1;
    }
    let chunk = (bytes / p as u64).max(1);
    let right = real((vrank + 1) % p);
    let left = real((vrank + p - 1) % p);
    for _ in 0..p - 1 {
        let rr = ctx.irecv(left, tag);
        let sr = ctx.send_raw(right, chunk, tag).await;
        ctx.wait(rr).await;
        ctx.wait(sr).await;
    }
}

/// Ring allreduce: reduce-scatter ring + allgather ring, `2(p-1)` rounds
/// of `bytes/p` chunks.
async fn subgroup_ring_allreduce(ctx: &mut RankCtx, group: &[usize], bytes: u64, tag: u64) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let chunk = (bytes / p as u64).max(1);
    // Both phases move the same chunks around the same ring.
    subgroup_ring_allgather(ctx, group, chunk, tag).await;
    subgroup_ring_allgather(ctx, group, chunk, tag).await;
}

/// Rabenseifner allreduce over a subgroup (power-of-two sizes; callers
/// fall back to recursive doubling otherwise): reduce-scatter by
/// recursive halving, then allgather by recursive doubling.
async fn subgroup_rabenseifner_allreduce(ctx: &mut RankCtx, group: &[usize], bytes: u64, tag: u64) {
    let p = group.len();
    let me = pos_in(group, ctx.rank());
    let lg = p.trailing_zeros();
    for k in 0..lg {
        let partner = group[me ^ (1 << k)];
        let size = (bytes >> (k + 1)).max(1);
        ctx.sendrecv(partner, size, partner, tag).await;
    }
    for k in (0..lg).rev() {
        let partner = group[me ^ (1 << k)];
        let size = (bytes >> (k + 1)).max(1);
        ctx.sendrecv(partner, size, partner, tag).await;
    }
}

/// Recursive-doubling allgather (power-of-two sizes; callers fall back to
/// the ring otherwise): round `k` exchanges `2^k` accumulated blocks.
async fn subgroup_rd_allgather(ctx: &mut RankCtx, group: &[usize], bytes_each: u64, tag: u64) {
    let p = group.len();
    let me = pos_in(group, ctx.rank());
    let lg = p.trailing_zeros();
    for k in 0..lg {
        let partner = group[me ^ (1 << k)];
        let size = (bytes_each << k).max(1);
        ctx.sendrecv(partner, size, partner, tag).await;
    }
}

/// Pairwise-exchange alltoall over a subgroup: `p - 1` rounds; in round
/// `k` position `i` sends `sizes[i + k]` bytes to `group[i + k]` and
/// receives from `group[i - k]` (indices mod `p`).
async fn subgroup_pairwise_alltoall(ctx: &mut RankCtx, group: &[usize], sizes: &[u64], tag: u64) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let mut recvs = Vec::with_capacity(p - 1);
    for k in 1..p {
        recvs.push(ctx.irecv(group[(me + p - k) % p], tag));
    }
    let mut sends = Vec::with_capacity(p - 1);
    for k in 1..p {
        let to = (me + k) % p;
        sends.push(ctx.send_raw(group[to], sizes[to].max(1), tag).await);
    }
    ctx.waitall(recvs).await;
    ctx.waitall(sends).await;
}

/// Linear alltoallv: post every receive, then every send, then drain.
async fn linear_alltoallv(ctx: &mut RankCtx, send_sizes: &[u64], tag: u64) {
    let p = ctx.size();
    let r = ctx.rank();
    let mut recvs = Vec::with_capacity(p - 1);
    for k in 0..p {
        if k != r {
            recvs.push(ctx.irecv(k, tag));
        }
    }
    let mut sends = Vec::with_capacity(p - 1);
    for (k, &sz) in send_sizes.iter().enumerate() {
        if k != r {
            sends.push(ctx.send_raw(k, sz.max(1), tag).await);
        }
    }
    ctx.waitall(recvs).await;
    ctx.waitall(sends).await;
}

/// Run the pinned broadcast algorithm over `group` (flat). Shape-infeasible
/// pins degrade: ScatterAllgather needs a power-of-two group larger than 2,
/// and selections that only make sense for other ops fall back to binomial.
async fn algo_bcast(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
    algo: CollAlgo,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let segment = ctx.world().coll.segment_bytes;
    match algo {
        CollAlgo::Linear => subgroup_linear_bcast(ctx, group, root, bytes, tag).await,
        CollAlgo::Chain => subgroup_chain_bcast(ctx, group, root, bytes, tag).await,
        CollAlgo::Pipeline => subgroup_pipeline_bcast(ctx, group, root, bytes, tag, segment).await,
        CollAlgo::Binary => subgroup_binary_bcast(ctx, group, root, bytes, tag).await,
        CollAlgo::InOrderBinary => subgroup_inorder_bcast(ctx, group, root, bytes, tag).await,
        CollAlgo::ScatterAllgather if p.is_power_of_two() && p > 2 => {
            subgroup_vdg_bcast(ctx, group, root, bytes, tag).await
        }
        _ => subgroup_binomial_bcast(ctx, group, root, bytes, tag).await,
    }
}

/// Run the pinned reduce algorithm over `group` (flat).
async fn algo_reduce(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
    algo: CollAlgo,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let segment = ctx.world().coll.segment_bytes;
    match algo {
        CollAlgo::Linear => subgroup_linear_reduce(ctx, group, root, bytes, tag).await,
        CollAlgo::Chain => subgroup_chain_reduce(ctx, group, root, bytes, tag).await,
        CollAlgo::Pipeline => subgroup_pipeline_reduce(ctx, group, root, bytes, tag, segment).await,
        CollAlgo::Binary => subgroup_binary_reduce(ctx, group, root, bytes, tag).await,
        CollAlgo::InOrderBinary => subgroup_inorder_reduce(ctx, group, root, bytes, tag).await,
        _ => subgroup_binomial_reduce(ctx, group, root, bytes, tag).await,
    }
}

/// Run the pinned allreduce algorithm over `group` (flat). Tree-family
/// pins compose as reduce-to-first + bcast with the same tree shape.
async fn algo_allreduce(ctx: &mut RankCtx, group: &[usize], bytes: u64, tag: u64, algo: CollAlgo) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    match algo {
        CollAlgo::Ring | CollAlgo::Pairwise => {
            subgroup_ring_allreduce(ctx, group, bytes, tag).await
        }
        CollAlgo::RecursiveDoubling => subgroup_allreduce(ctx, group, bytes, tag).await,
        CollAlgo::Rabenseifner | CollAlgo::ScatterAllgather => {
            if p.is_power_of_two() && p > 1 {
                subgroup_rabenseifner_allreduce(ctx, group, bytes, tag).await
            } else {
                subgroup_allreduce(ctx, group, bytes, tag).await
            }
        }
        tree => {
            algo_reduce(ctx, group, group[0], bytes, tag, tree).await;
            algo_bcast(ctx, group, group[0], bytes, tag, tree).await;
        }
    }
}

/// Run the pinned allgather algorithm over `group` (flat).
async fn algo_allgather(
    ctx: &mut RankCtx,
    group: &[usize],
    bytes_each: u64,
    tag: u64,
    algo: CollAlgo,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    match algo {
        CollAlgo::RecursiveDoubling | CollAlgo::Rabenseifner if p.is_power_of_two() => {
            subgroup_rd_allgather(ctx, group, bytes_each, tag).await
        }
        _ => subgroup_ring_allgather(ctx, group, bytes_each, tag).await,
    }
}

/// Per-site leaders, with `root` (when given) standing in for its own
/// site's leader so rooted two-level collectives need no extra hop.
fn leaders_of(groups: &[Vec<usize>], rank_site: &[usize], root: Option<usize>) -> Vec<usize> {
    groups
        .iter()
        .enumerate()
        .map(|(si, g)| match root {
            Some(r) if rank_site[r] == si => r,
            _ => g[0],
        })
        .collect()
}

/// Two-level broadcast: `algo` over the per-site leaders (WAN phase),
/// then `algo` inside each site.
async fn two_level_bcast(ctx: &mut RankCtx, root: usize, bytes: u64, tag: u64, algo: CollAlgo) {
    let groups = ctx.world().site_groups.clone();
    let rank_site = ctx.world().rank_site.clone();
    let rank = ctx.rank();
    let my_site = rank_site[rank];
    let leaders = leaders_of(&groups, &rank_site, Some(root));
    if leaders.contains(&rank) {
        algo_bcast(ctx, &leaders, root, bytes, tag, algo).await;
    }
    let group = groups[my_site].clone();
    algo_bcast(ctx, &group, leaders[my_site], bytes, tag, algo).await;
}

/// Two-level reduce: `algo` inside each site towards its leader, then
/// `algo` over the leaders towards the root.
async fn two_level_reduce(ctx: &mut RankCtx, root: usize, bytes: u64, tag: u64, algo: CollAlgo) {
    let groups = ctx.world().site_groups.clone();
    let rank_site = ctx.world().rank_site.clone();
    let rank = ctx.rank();
    let my_site = rank_site[rank];
    let leaders = leaders_of(&groups, &rank_site, Some(root));
    let group = groups[my_site].clone();
    algo_reduce(ctx, &group, leaders[my_site], bytes, tag, algo).await;
    if leaders.contains(&rank) {
        algo_reduce(ctx, &leaders, root, bytes, tag, algo).await;
    }
}

/// Two-level allreduce: binomial intra-site reduce, `algo` allreduce over
/// the leaders, binomial intra-site bcast.
async fn two_level_allreduce(ctx: &mut RankCtx, bytes: u64, tag: u64, algo: CollAlgo) {
    let groups = ctx.world().site_groups.clone();
    let rank_site = ctx.world().rank_site.clone();
    let rank = ctx.rank();
    let my_site = rank_site[rank];
    let leaders = leaders_of(&groups, &rank_site, None);
    let group = groups[my_site].clone();
    subgroup_binomial_reduce(ctx, &group, group[0], bytes, tag).await;
    if rank == group[0] {
        algo_allreduce(ctx, &leaders, bytes, tag, algo).await;
    }
    subgroup_binomial_bcast(ctx, &group, group[0], bytes, tag).await;
}

/// Two-level allgather: intra-site allgather, leaders exchange aggregated
/// site blocks over parallel WAN streams, leader rebroadcasts the remote
/// total inside the site.
async fn two_level_allgather(ctx: &mut RankCtx, bytes_each: u64, tag: u64, algo: CollAlgo) {
    let groups = ctx.world().site_groups.clone();
    let rank_site = ctx.world().rank_site.clone();
    let rank = ctx.rank();
    let my_site = rank_site[rank];
    let group = groups[my_site].clone();
    algo_allgather(ctx, &group, bytes_each, tag, algo).await;
    if rank == group[0] {
        let mut reqs = Vec::new();
        for (si, g) in groups.iter().enumerate() {
            if si != my_site {
                reqs.push(ctx.irecv(g[0], tag));
            }
        }
        let block = (bytes_each * group.len() as u64).max(1);
        for (si, g) in groups.iter().enumerate() {
            if si != my_site {
                reqs.push(ctx.send_raw(g[0], block, tag).await);
            }
        }
        ctx.waitall(reqs).await;
    }
    let remote: u64 = groups
        .iter()
        .enumerate()
        .filter(|(si, _)| *si != my_site)
        .map(|(_, g)| bytes_each * g.len() as u64)
        .sum();
    if remote > 0 && group.len() > 1 {
        subgroup_binomial_bcast(ctx, &group, group[0], remote, tag).await;
    }
}

/// Two-level alltoall (uniform payload): funnel off-site payloads to the
/// site leader, leaders exchange aggregated site-to-site blocks, leaders
/// deliver inbound payloads, then an intra-site pairwise exchange.
async fn two_level_alltoall(ctx: &mut RankCtx, bytes: u64, tag: u64) {
    let groups = ctx.world().site_groups.clone();
    let rank_site = ctx.world().rank_site.clone();
    let rank = ctx.rank();
    let p = ctx.size();
    let my_site = rank_site[rank];
    let group = groups[my_site].clone();
    let leader = group[0];
    let off_site = (p - group.len()) as u64 * bytes;
    if off_site > 0 && group.len() > 1 {
        if rank == leader {
            for &g in &group[1..] {
                ctx.recv(g, tag).await;
            }
        } else {
            let r = ctx.send_raw(leader, off_site, tag).await;
            ctx.wait(r).await;
        }
    }
    if rank == leader && groups.len() > 1 {
        let mut reqs = Vec::new();
        for (si, g) in groups.iter().enumerate() {
            if si != my_site {
                reqs.push(ctx.irecv(g[0], tag));
            }
        }
        for (si, g) in groups.iter().enumerate() {
            if si != my_site {
                let block = (bytes * group.len() as u64 * g.len() as u64).max(1);
                reqs.push(ctx.send_raw(g[0], block, tag).await);
            }
        }
        ctx.waitall(reqs).await;
    }
    if off_site > 0 && group.len() > 1 {
        if rank == leader {
            let mut reqs = Vec::new();
            for &g in &group[1..] {
                reqs.push(ctx.send_raw(g, off_site, tag).await);
            }
            for r in reqs {
                ctx.wait(r).await;
            }
        } else {
            ctx.recv(leader, tag).await;
        }
    }
    subgroup_pairwise_alltoall(ctx, &group, &vec![bytes; group.len()], tag).await;
}

/// Binomial-tree broadcast over an arbitrary rank subgroup.
pub(crate) async fn subgroup_binomial_bcast(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let rootpos = pos_in(group, root);
    let vrank = (me + p - rootpos) % p;
    let real = |v: usize| group[(v + rootpos) % p];
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            ctx.recv(real(vrank - mask), tag).await;
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    let mut reqs = Vec::new();
    while mask > 0 {
        if vrank + mask < p {
            reqs.push(ctx.send_raw(real(vrank + mask), bytes, tag).await);
        }
        mask >>= 1;
    }
    for r in reqs {
        ctx.wait(r).await;
    }
}

/// Binomial-tree reduce over an arbitrary rank subgroup.
pub(crate) async fn subgroup_binomial_reduce(
    ctx: &mut RankCtx,
    group: &[usize],
    root: usize,
    bytes: u64,
    tag: u64,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let rootpos = pos_in(group, root);
    let vrank = (me + p - rootpos) % p;
    let real = |v: usize| group[(v + rootpos) % p];
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            let req = ctx.send_raw(real(vrank - mask), bytes, tag).await;
            ctx.wait(req).await;
            break;
        }
        if vrank + mask < p {
            ctx.recv(real(vrank + mask), tag).await;
        }
        mask <<= 1;
    }
}

/// Ring allgather over a subgroup: `steps = |group| - 1` rounds of
/// `chunk` bytes to the right neighbour.
pub(crate) async fn subgroup_ring_allgather(
    ctx: &mut RankCtx,
    group: &[usize],
    chunk: u64,
    tag: u64,
) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let right = group[(me + 1) % p];
    let left = group[(me + p - 1) % p];
    for _ in 0..p - 1 {
        let rr = ctx.irecv(left, tag);
        let sr = ctx.send_raw(right, chunk, tag).await;
        ctx.wait(rr).await;
        ctx.wait(sr).await;
    }
}

/// Dissemination barrier over an explicit subgroup.
pub(crate) async fn subgroup_barrier(ctx: &mut RankCtx, group: &[usize], tag: u64) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let mut k = 1;
    while k < p {
        let to = group[(me + k) % p];
        let from = group[(me + p - k) % p];
        let req = ctx.send_raw(to, 1, tag).await;
        ctx.recv(from, tag).await;
        ctx.wait(req).await;
        k <<= 1;
    }
}

/// Recursive-doubling allreduce over an explicit subgroup (non-power-of-two
/// sizes fold into the nearest power of two).
pub(crate) async fn subgroup_allreduce(ctx: &mut RankCtx, group: &[usize], bytes: u64, tag: u64) {
    let p = group.len();
    if p <= 1 {
        return;
    }
    let me = pos_in(group, ctx.rank());
    let p2 = prev_pow2(p);
    let extra = p - p2;
    if me >= p2 {
        let peer = group[me - p2];
        let req = ctx.send_raw(peer, bytes, tag).await;
        ctx.wait(req).await;
        ctx.recv(peer, tag).await;
        return;
    }
    if me < extra {
        ctx.recv(group[me + p2], tag).await;
    }
    let mut mask = 1;
    while mask < p2 {
        let partner = group[me ^ mask];
        ctx.sendrecv(partner, bytes, partner, tag).await;
        mask <<= 1;
    }
    if me < extra {
        let req = ctx.send_raw(group[me + p2], bytes, tag).await;
        ctx.wait(req).await;
    }
}

/// `MPI_Bcast` dispatch: a [`CollConfig`] pin wins; otherwise the
/// implementation profile decides.
pub(crate) async fn bcast(ctx: &mut RankCtx, root: usize, bytes: u64, tag: u64) {
    use crate::profile::BcastAlgo;
    let p = ctx.size();
    if p <= 1 {
        return;
    }
    let sel = ctx.world().coll.select(CollOp::Bcast, bytes);
    if sel.algo != CollAlgo::ProfileDefault {
        if sel.two_level && ctx.world().site_groups.len() > 1 {
            two_level_bcast(ctx, root, bytes, tag, sel.algo).await;
        } else {
            let all: Vec<usize> = (0..p).collect();
            algo_bcast(ctx, &all, root, bytes, tag, sel.algo).await;
        }
        return;
    }
    let suite = ctx.world().profile.collectives;
    let all: Vec<usize> = (0..p).collect();
    match suite.bcast {
        BcastAlgo::Binomial => subgroup_binomial_bcast(ctx, &all, root, bytes, tag).await,
        BcastAlgo::ScatterAllgather => {
            if bytes >= suite.large_threshold && p.is_power_of_two() && p > 2 {
                subgroup_vdg_bcast(ctx, &all, root, bytes, tag).await;
            } else {
                subgroup_binomial_bcast(ctx, &all, root, bytes, tag).await;
            }
        }
        BcastAlgo::GridAware => {
            let multi_site = ctx.world().site_groups.len() > 1;
            if multi_site && bytes >= suite.large_threshold {
                grid_bcast(ctx, root, bytes, tag).await;
            } else if multi_site {
                // Topology-aware small-message bcast: site leaders first
                // (one WAN hop), then intra-site trees.
                grid_small_bcast(ctx, root, bytes, tag).await;
            } else {
                subgroup_binomial_bcast(ctx, &all, root, bytes, tag).await;
            }
        }
    }
}

/// GridMPI small-message bcast: root → remote site leaders (parallel WAN),
/// then intra-site binomial trees.
async fn grid_small_bcast(ctx: &mut RankCtx, root: usize, bytes: u64, tag: u64) {
    let groups = ctx.world().site_groups.clone();
    let rank_site = ctx.world().rank_site.clone();
    let rank = ctx.rank();
    let my_site = rank_site[rank];
    let root_site = rank_site[root];
    // WAN fan-out to each remote site's leader.
    let mut reqs = Vec::new();
    for (si, group) in groups.iter().enumerate() {
        if si == root_site {
            continue;
        }
        if rank == root {
            reqs.push(ctx.send_raw(group[0], bytes, tag).await);
        } else if rank == group[0] {
            ctx.recv(root, tag).await;
        }
    }
    for r in reqs {
        ctx.wait(r).await;
    }
    // Intra-site trees.
    let local_root = if my_site == root_site {
        root
    } else {
        groups[my_site][0]
    };
    let group = groups[my_site].clone();
    subgroup_binomial_bcast(ctx, &group, local_root, bytes, tag).await;
}

/// GridMPI large-message bcast: intra-site bcast at the root site, then
/// chunk-parallel inter-site transfers over multiple node pairs, then
/// intra-site allgather at each remote site (Matsuda, Cluster'06).
async fn grid_bcast(ctx: &mut RankCtx, root: usize, bytes: u64, tag: u64) {
    let groups = ctx.world().site_groups.clone();
    let rank_site = ctx.world().rank_site.clone();
    let rank = ctx.rank();
    let my_site = rank_site[rank];
    let root_site = rank_site[root];
    let root_group = groups[root_site].clone();

    // Phase A: full data everywhere in the root site (cheap, LAN).
    if my_site == root_site {
        subgroup_binomial_bcast(ctx, &root_group, root, bytes, tag).await;
    }

    // Phase B: for each remote site, min(|root site|, |site|) parallel WAN
    // streams each carry one chunk.
    let mut reqs = Vec::new();
    for (si, group) in groups.iter().enumerate() {
        if si == root_site {
            continue;
        }
        let m = root_group.len().min(group.len());
        let chunk = (bytes / m as u64).max(1);
        if my_site == root_site {
            if let Some(i) = root_group.iter().position(|&g| g == rank) {
                if i < m {
                    reqs.push(ctx.send_raw(group[i], chunk, tag).await);
                }
            }
        } else if my_site == si {
            if let Some(i) = group.iter().position(|&g| g == rank) {
                if i < m {
                    ctx.recv(root_group[i], tag).await;
                }
            }
        }
    }
    for r in reqs {
        ctx.wait(r).await;
    }

    // Phase C: reassemble inside each remote site.
    if my_site != root_site {
        let group = groups[my_site].clone();
        let m = root_group.len().min(group.len());
        let chunk = (bytes / m as u64).max(1);
        let me_pos = pos_in(&group, rank);
        if me_pos < m {
            let holders: Vec<usize> = group[..m].to_vec();
            subgroup_ring_allgather(ctx, &holders, chunk, tag).await;
        }
        // Ranks beyond the chunk holders get the full payload from the
        // local leader.
        if group.len() > m {
            if me_pos == 0 {
                let mut reqs = Vec::new();
                for &g in &group[m..] {
                    reqs.push(ctx.send_raw(g, bytes, tag).await);
                }
                for r in reqs {
                    ctx.wait(r).await;
                }
            } else if me_pos >= m {
                ctx.recv(group[0], tag).await;
            }
        }
    }
}

/// Global reduce to `root`: a [`CollConfig`] pin wins; the profile
/// default is the binomial tree.
pub(crate) async fn reduce(ctx: &mut RankCtx, root: usize, bytes: u64, tag: u64) {
    let p = ctx.size();
    if p <= 1 {
        return;
    }
    let sel = ctx.world().coll.select(CollOp::Reduce, bytes);
    if sel.algo != CollAlgo::ProfileDefault {
        if sel.two_level && ctx.world().site_groups.len() > 1 {
            two_level_reduce(ctx, root, bytes, tag, sel.algo).await;
        } else {
            let all: Vec<usize> = (0..p).collect();
            algo_reduce(ctx, &all, root, bytes, tag, sel.algo).await;
        }
        return;
    }
    let all: Vec<usize> = (0..p).collect();
    subgroup_binomial_reduce(ctx, &all, root, bytes, tag).await;
}

/// `MPI_Allreduce` dispatch: a [`CollConfig`] pin wins; otherwise the
/// implementation profile decides.
pub(crate) async fn allreduce(ctx: &mut RankCtx, bytes: u64, tag: u64) {
    use crate::profile::AllreduceAlgo;
    let p = ctx.size();
    if p <= 1 {
        return;
    }
    let sel = ctx.world().coll.select(CollOp::Allreduce, bytes);
    if sel.algo != CollAlgo::ProfileDefault {
        if sel.two_level && ctx.world().site_groups.len() > 1 {
            two_level_allreduce(ctx, bytes, tag, sel.algo).await;
        } else {
            let all: Vec<usize> = (0..p).collect();
            algo_allreduce(ctx, &all, bytes, tag, sel.algo).await;
        }
        return;
    }
    let suite = ctx.world().profile.collectives;
    let all: Vec<usize> = (0..p).collect();
    match suite.allreduce {
        AllreduceAlgo::RecursiveDoubling => subgroup_allreduce(ctx, &all, bytes, tag).await,
        AllreduceAlgo::Rabenseifner => {
            if bytes >= suite.large_threshold && p.is_power_of_two() && p > 2 {
                subgroup_rabenseifner_allreduce(ctx, &all, bytes, tag).await;
            } else {
                subgroup_allreduce(ctx, &all, bytes, tag).await;
            }
        }
        AllreduceAlgo::GridAware => {
            // The GridMPI optimisation targets large payloads; small
            // reductions keep the default butterfly (Matsuda 2006).
            if ctx.world().site_groups.len() > 1 && bytes >= suite.large_threshold {
                grid_allreduce(ctx, bytes, tag).await;
            } else {
                subgroup_allreduce(ctx, &all, bytes, tag).await;
            }
        }
    }
}

/// GridMPI hierarchical allreduce (Matsuda, Cluster'06). For equal
/// power-of-two site groups: reduce-scatter within each site, exchange
/// only the owned chunk with the counterpart rank of every other site
/// (parallel WAN streams), then allgather within the site. Falls back to
/// a leader-based tree for irregular layouts or tiny payloads.
async fn grid_allreduce(ctx: &mut RankCtx, bytes: u64, tag: u64) {
    let groups = ctx.world().site_groups.clone();
    let rank_site = ctx.world().rank_site.clone();
    let rank = ctx.rank();
    let my_site = rank_site[rank];
    let group = groups[my_site].clone();
    let k = group.len();
    let regular = groups.iter().all(|g| g.len() == k) && k.is_power_of_two() && k > 1;

    if !regular || bytes < 4096 {
        // Leader-based: intra-site reduce, leader exchange, intra-site
        // bcast.
        let leader = group[0];
        subgroup_binomial_reduce(ctx, &group, leader, bytes, tag).await;
        if rank == leader {
            let mut reqs = Vec::new();
            for (si, g) in groups.iter().enumerate() {
                if si != my_site {
                    reqs.push(ctx.send_raw(g[0], bytes, tag).await);
                }
            }
            for (si, g) in groups.iter().enumerate() {
                if si != my_site {
                    ctx.recv(g[0], tag).await;
                }
            }
            for r in reqs {
                ctx.wait(r).await;
            }
        }
        subgroup_binomial_bcast(ctx, &group, leader, bytes, tag).await;
        return;
    }

    let pos = pos_in(&group, rank);
    // Phase A: intra-site reduce-scatter (recursive halving).
    let lg = k.trailing_zeros();
    for j in 0..lg {
        let partner = group[pos ^ (1 << j)];
        let size = (bytes >> (j + 1)).max(1);
        ctx.sendrecv(partner, size, partner, tag).await;
    }
    let chunk = (bytes / k as u64).max(1);
    // Phase B: chunk exchange with the counterpart rank of each remote
    // site — many parallel node-to-node WAN streams, the Matsuda insight.
    let mut reqs = Vec::new();
    for (si, g) in groups.iter().enumerate() {
        if si != my_site {
            reqs.push(ctx.irecv(g[pos], tag));
        }
    }
    for (si, g) in groups.iter().enumerate() {
        if si != my_site {
            reqs.push(ctx.send_raw(g[pos], chunk, tag).await);
        }
    }
    ctx.waitall(reqs).await;
    // Phase C: intra-site allgather of the reduced chunks.
    subgroup_ring_allgather(ctx, &group, chunk, tag).await;
}

/// `MPI_Allgather` dispatch: a [`CollConfig`] pin wins; the profile
/// default is the ring.
pub(crate) async fn ring_allgather(ctx: &mut RankCtx, bytes_each: u64, tag: u64) {
    let p = ctx.size();
    if p <= 1 {
        return;
    }
    let sel = ctx.world().coll.select(CollOp::Allgather, bytes_each);
    if sel.algo != CollAlgo::ProfileDefault {
        if sel.two_level && ctx.world().site_groups.len() > 1 {
            two_level_allgather(ctx, bytes_each, tag, sel.algo).await;
        } else {
            let all: Vec<usize> = (0..p).collect();
            algo_allgather(ctx, &all, bytes_each, tag, sel.algo).await;
        }
        return;
    }
    let all: Vec<usize> = (0..p).collect();
    subgroup_ring_allgather(ctx, &all, bytes_each, tag).await;
}

/// Alltoall(v) dispatch: a [`CollConfig`] pin can select the linear
/// variant or (for uniform payloads on multi-site topologies) the
/// two-level variant; the default is the pairwise exchange over the world.
pub(crate) async fn alltoallv(ctx: &mut RankCtx, send_sizes: &[u64], tag: u64) {
    let p = ctx.size();
    if p <= 1 {
        return;
    }
    let per_pair = send_sizes.iter().copied().max().unwrap_or(0);
    let sel = ctx.world().coll.select(CollOp::Alltoall, per_pair);
    if sel.algo != CollAlgo::ProfileDefault {
        let uniform = send_sizes.windows(2).all(|w| w[0] == w[1]);
        if sel.two_level && uniform && ctx.world().site_groups.len() > 1 {
            two_level_alltoall(ctx, per_pair, tag).await;
            return;
        }
        if sel.algo == CollAlgo::Linear {
            linear_alltoallv(ctx, send_sizes, tag).await;
            return;
        }
        // Pairwise (and any other pin) falls through to the exchange below.
    }
    let all: Vec<usize> = (0..p).collect();
    subgroup_pairwise_alltoall(ctx, &all, send_sizes, tag).await;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coll_tags_are_namespaced_by_op() {
        // Same sequence number, different ops: never the same tag.
        for (i, &a) in CollOp::PINNABLE.iter().enumerate() {
            for &b in &CollOp::PINNABLE[i + 1..] {
                assert_ne!(coll_tag(a, 1), coll_tag(b, 1), "{a:?} vs {b:?}");
            }
        }
        // All collective tags stay in the reserved namespace.
        assert_ne!(coll_tag(CollOp::Barrier, 7) & (1 << 62), 0);
    }

    #[test]
    fn default_config_pins_nothing() {
        let cfg = CollConfig::new();
        for op in CollOp::PINNABLE {
            for bytes in [1u64, 64 << 10, 16 << 20] {
                assert_eq!(cfg.select(op, bytes), CollSel::default());
            }
        }
    }

    #[test]
    fn pin_is_per_op_and_size_class() {
        let cfg = CollConfig::new()
            .pin(
                CollOp::Bcast,
                SizeClass::Large,
                CollSel::flat(CollAlgo::Pipeline),
            )
            .pin_all(CollOp::Allreduce, CollSel::two_level(CollAlgo::Ring));
        assert_eq!(cfg.select(CollOp::Bcast, 4 << 20).algo, CollAlgo::Pipeline);
        assert_eq!(
            cfg.select(CollOp::Bcast, 1024).algo,
            CollAlgo::ProfileDefault
        );
        assert_eq!(
            cfg.select(CollOp::Reduce, 4 << 20).algo,
            CollAlgo::ProfileDefault
        );
        for bytes in [1u64, 64 << 10, 16 << 20] {
            let sel = cfg.select(CollOp::Allreduce, bytes);
            assert_eq!(sel.algo, CollAlgo::Ring);
            assert!(sel.two_level);
        }
        // Non-pinnable ops always report the default.
        let pinned = CollConfig::new().pin_all(CollOp::Barrier, CollSel::flat(CollAlgo::Ring));
        assert_eq!(pinned.select(CollOp::Barrier, 1), CollSel::default());
    }

    #[test]
    fn size_classes_split_at_the_documented_bounds() {
        let cfg = CollConfig::new();
        assert_eq!(cfg.size_class(cfg.small_max - 1), SizeClass::Small);
        assert_eq!(cfg.size_class(cfg.small_max), SizeClass::Medium);
        assert_eq!(cfg.size_class(cfg.large_min - 1), SizeClass::Medium);
        assert_eq!(cfg.size_class(cfg.large_min), SizeClass::Large);
    }

    #[test]
    fn inorder_tree_is_a_tree_over_all_vranks() {
        for p in 1..=17 {
            let mut seen = vec![0u32; p];
            seen[0] += 1; // the root has no parent edge
            for v in 0..p {
                let (parent, children) = inorder_tree(p, v);
                assert_eq!(parent.is_none(), v == 0);
                for c in children {
                    assert!(c < p);
                    seen[c] += 1;
                    // Child/parent views agree.
                    assert_eq!(inorder_tree(p, c).0, Some(v));
                }
            }
            // Every vrank is reached exactly once.
            assert!(seen.iter().all(|&n| n == 1), "p={p}: {seen:?}");
        }
    }
}
