//! Sub-communicators: `MPI_Comm_split`-style rank groups with their own
//! collective operations — the building block grid-aware applications use
//! to keep traffic inside a site (and what the hierarchical algorithms of
//! [`crate::collectives`] do internally).

use crate::collectives;
use crate::rank::RankCtx;

/// A sub-communicator: an ordered subset of world ranks that the owning
/// rank belongs to.
#[derive(Clone, Debug)]
pub struct SubComm {
    ranks: Vec<usize>,
    my_pos: usize,
}

impl SubComm {
    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// The calling rank's index within this communicator.
    pub fn rank(&self) -> usize {
        self.my_pos
    }

    /// World rank of communicator index `i`.
    pub fn world_rank(&self, i: usize) -> usize {
        self.ranks[i]
    }

    /// The member world ranks, in communicator order.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }
}

impl RankCtx {
    /// Split the world by `color` (`MPI_Comm_split` with key = world
    /// rank). Every rank must call this with its own colour; ranks sharing
    /// a colour form one sub-communicator. Purely local — the grouping is
    /// derived from `color_of`, which must be a pure function of the world
    /// rank on every caller.
    pub fn comm_split(&self, color_of: impl Fn(usize) -> u64) -> SubComm {
        let my_color = color_of(self.rank());
        let ranks: Vec<usize> = (0..self.size())
            .filter(|&r| color_of(r) == my_color)
            .collect();
        let my_pos = ranks
            .iter()
            .position(|&r| r == self.rank())
            .expect("caller has its own colour");
        SubComm { ranks, my_pos }
    }

    /// The sub-communicator of all ranks on this rank's site — the
    /// topology-aware split every grid library builds first.
    pub fn comm_site(&self) -> SubComm {
        let site = self.world().rank_site.clone();
        self.comm_split(|r| site[r] as u64)
    }

    /// Binomial broadcast within a sub-communicator from communicator
    /// root index `root`.
    pub async fn comm_bcast(&mut self, comm: &SubComm, root: usize, bytes: u64) {
        let group = comm.ranks.clone();
        let root_world = comm.world_rank(root);
        self.coll_on("comm_bcast", bytes, async |ctx, tag| {
            collectives::subgroup_binomial_bcast(ctx, &group, root_world, bytes, tag).await;
        })
        .await;
    }

    /// Binomial reduce within a sub-communicator to root index `root`.
    pub async fn comm_reduce(&mut self, comm: &SubComm, root: usize, bytes: u64) {
        let group = comm.ranks.clone();
        let root_world = comm.world_rank(root);
        self.coll_on("comm_reduce", bytes, async |ctx, tag| {
            collectives::subgroup_binomial_reduce(ctx, &group, root_world, bytes, tag).await;
        })
        .await;
    }

    /// Recursive-doubling allreduce within a sub-communicator.
    pub async fn comm_allreduce(&mut self, comm: &SubComm, bytes: u64) {
        let group = comm.ranks.clone();
        self.coll_on("comm_allreduce", bytes, async |ctx, tag| {
            collectives::subgroup_allreduce(ctx, &group, bytes, tag).await;
        })
        .await;
    }

    /// Ring allgather within a sub-communicator (`bytes_each` per member).
    pub async fn comm_allgather(&mut self, comm: &SubComm, bytes_each: u64) {
        let group = comm.ranks.clone();
        self.coll_on("comm_allgather", bytes_each, async |ctx, tag| {
            collectives::subgroup_ring_allgather(ctx, &group, bytes_each, tag).await;
        })
        .await;
    }

    /// Dissemination barrier within a sub-communicator.
    pub async fn comm_barrier(&mut self, comm: &SubComm) {
        let group = comm.ranks.clone();
        self.coll_on("comm_barrier", 0, async |ctx, tag| {
            collectives::subgroup_barrier(ctx, &group, tag).await;
        })
        .await;
    }
}
