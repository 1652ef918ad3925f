//! The NPB experiment matrix of §4.3: Figs. 10–13, Table 2 and the §5
//! MPICH-G2 extension.
//!
//! Every exhibit reads one matrix of `(kernel, implementation, layout)`
//! cells; several read the same cells (Figs. 10, 12 and 13 all read the
//! 8+8 grid run). Each exhibit declares its cells ([`Exhibit::cells`]),
//! a [`NasStore`] simulates the distinct cells of the exhibits being
//! rendered once, and the exhibits render from the store.

use std::collections::{HashMap, HashSet};

use desim::{SimDuration, SimError, SimTime};
use mpisim::{CommStats, MpiImpl};
use npb::{NasBenchmark, NasClass, NasRun};

use crate::par::par_map;
use crate::scenario::Scenario;
use crate::util::TuningLevel;

/// Node layouts used by the paper's NPB experiments.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Layout {
    /// All ranks on the Rennes cluster.
    Cluster(usize),
    /// Ranks split evenly across Rennes and Nancy.
    Split(usize, usize),
}

impl Layout {
    /// Total rank count.
    pub fn ranks(self) -> usize {
        match self {
            Layout::Cluster(n) => n,
            Layout::Split(a, b) => a + b,
        }
    }

    /// Display label.
    pub fn label(self) -> String {
        match self {
            Layout::Cluster(n) => format!("{n} nodes, one cluster"),
            Layout::Split(a, b) => format!("{a}+{b} nodes, two clusters"),
        }
    }
}

/// Outcome of one NPB execution.
#[derive(Clone, Copy, Debug)]
pub enum NasOutcome {
    /// Estimated full-run time.
    Time(SimDuration),
    /// The implementation cannot finish this kernel in this configuration
    /// (MPICH-Madeleine on BT/SP over the WAN, §4.3).
    Timeout,
}

impl NasOutcome {
    /// Seconds, if the run finished.
    pub fn secs(self) -> Option<f64> {
        match self {
            NasOutcome::Time(d) => Some(d.as_secs_f64()),
            NasOutcome::Timeout => None,
        }
    }
}

/// Whether `id` is known not to finish `bench` on `layout`: the paper
/// observed the MPICH-Madeleine timeouts in the 8+8 runs (§4.3); the 2+2
/// configuration of Fig. 11 completed. Such cells are never simulated.
fn known_timeout(bench: NasBenchmark, id: MpiImpl, layout: Layout) -> bool {
    matches!(layout, Layout::Split(..))
        && layout.ranks() >= 16
        && id.profile().grid_timeouts.contains(&bench.name())
}

/// Run one benchmark in one configuration (paper methodology: tuned TCP
/// and MPI; best of repeated runs — the simulator is deterministic, so a
/// single run suffices). The run's communication counters come back
/// with the outcome (`None` when the run did not finish).
pub fn run_nas(
    bench: NasBenchmark,
    class: NasClass,
    id: MpiImpl,
    layout: Layout,
) -> (NasOutcome, Option<CommStats>) {
    if known_timeout(bench, id, layout) {
        return (NasOutcome::Timeout, None);
    }
    let level = TuningLevel::FullyTuned;
    let scenario = match layout {
        Layout::Cluster(n) => Scenario::npb(n, n, 0, level, id),
        Layout::Split(a, b) => Scenario::npb(a.max(b), a, b, level, id),
    };
    let run = NasRun::new(bench, class);
    // A generous virtual deadline (one hour of simulated time for the
    // reduced-iteration window) backstops the known-failure list: any
    // future pathology surfaces as a timeout, exactly as mpirun's would.
    let report = match scenario
        .deadline(SimTime::from_nanos(3_600_000_000_000))
        .run(run.program())
    {
        Ok(r) => r,
        Err(SimError::TimeLimitExceeded(_)) => return (NasOutcome::Timeout, None),
        Err(e) => panic!("NAS run failed: {e}"),
    };
    (NasOutcome::Time(run.estimate(&report)), Some(report.stats))
}

/// One NPB measurement: a kernel under one implementation on one layout.
pub type Cell = (NasBenchmark, MpiImpl, Layout);

/// The exhibits that read NPB cells.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Exhibit {
    /// Fig. 10: the four implementations on the 8+8 grid.
    Fig10,
    /// Fig. 11: the four implementations on the 2+2 grid.
    Fig11,
    /// Fig. 12: the 8+8 grid against 16 nodes of one cluster.
    Fig12,
    /// Fig. 13: the 8+8 grid against 4 nodes of one cluster.
    Fig13,
    /// Table 2: the instrumented MPICH2 run on 16 nodes of one cluster.
    Table2,
    /// §5 extension: MPICH-G2 and MPICH-VMI beside the four on the 8+8
    /// grid, for FT, IS and CG.
    G2,
}

impl Exhibit {
    /// Every NPB exhibit, as `repro all` renders them.
    pub const ALL: [Exhibit; 6] = [
        Exhibit::Table2,
        Exhibit::Fig10,
        Exhibit::Fig11,
        Exhibit::Fig12,
        Exhibit::Fig13,
        Exhibit::G2,
    ];

    /// The kernels of the G2 extension table.
    pub const G2_BENCHES: [NasBenchmark; 3] =
        [NasBenchmark::Ft, NasBenchmark::Is, NasBenchmark::Cg];

    /// The cells this exhibit reads.
    pub fn cells(self) -> Vec<Cell> {
        let grid = |benches: &[NasBenchmark], ids: &[MpiImpl], layouts: &[Layout]| {
            let mut cells = Vec::new();
            for &bench in benches {
                for &id in ids {
                    cells.extend(layouts.iter().map(|&layout| (bench, id, layout)));
                }
            }
            cells
        };
        let all = &NasBenchmark::ALL;
        let four = &MpiImpl::ALL;
        let split = Layout::Split(8, 8);
        match self {
            Exhibit::Fig10 => grid(all, four, &[split]),
            Exhibit::Fig11 => grid(all, four, &[Layout::Split(2, 2)]),
            Exhibit::Fig12 => grid(all, four, &[Layout::Cluster(16), split]),
            Exhibit::Fig13 => grid(all, four, &[Layout::Cluster(4), split]),
            Exhibit::Table2 => grid(all, &[MpiImpl::Mpich2], &[Layout::Cluster(16)]),
            Exhibit::G2 => grid(&Exhibit::G2_BENCHES, &MpiImpl::EXTENDED, &[split]),
        }
    }
}

/// The distinct cells `exhibits` read, in first-declared order.
pub fn distinct_cells(exhibits: &[Exhibit]) -> Vec<Cell> {
    let mut seen = HashSet::new();
    exhibits
        .iter()
        .flat_map(|e| e.cells())
        .filter(|&cell| seen.insert(cell))
        .collect()
}

/// The NPB results of one class, keyed by cell: every distinct cell of
/// the exhibits it was built for, each simulated once by [`run_nas`].
pub struct NasStore {
    class: NasClass,
    cells: HashMap<Cell, (NasOutcome, Option<CommStats>)>,
}

impl NasStore {
    /// Simulate the distinct cells of `exhibits` in parallel.
    pub fn build(class: NasClass, exhibits: &[Exhibit]) -> NasStore {
        let keys = distinct_cells(exhibits);
        let runs = par_map(&keys, |&(bench, id, layout)| {
            run_nas(bench, class, id, layout)
        });
        NasStore {
            class,
            cells: keys.into_iter().zip(runs).collect(),
        }
    }

    /// The problem class every cell ran.
    pub fn class(&self) -> NasClass {
        self.class
    }

    fn cell(
        &self,
        bench: NasBenchmark,
        id: MpiImpl,
        layout: Layout,
    ) -> &(NasOutcome, Option<CommStats>) {
        self.cells
            .get(&(bench, id, layout))
            .unwrap_or_else(|| panic!("{bench:?}/{id:?}/{layout:?} is not a declared cell"))
    }

    /// The outcome of one cell.
    pub fn outcome(&self, bench: NasBenchmark, id: MpiImpl, layout: Layout) -> NasOutcome {
        self.cell(bench, id, layout).0
    }
}

/// Table 2: communication profile of each kernel (class B, 16 ranks, one
/// cluster, MPICH2 — the "modified MPI implementation" instrumentation).
pub struct Table2Row {
    /// Kernel.
    pub bench: NasBenchmark,
    /// "P. to P." or "Collective".
    pub comm_type: &'static str,
    /// Point-to-point (size → count), whole run (extrapolated).
    pub p2p: Vec<(u64, u64, u64)>,
    /// Collective calls ((op, size) → count), whole run (extrapolated).
    pub collectives: Vec<(String, u64, u64)>,
}

/// Table 2 rows from the instrumented MPICH2 `Cluster(16)` cells.
pub fn table2(store: &NasStore) -> Vec<Table2Row> {
    NasBenchmark::ALL
        .iter()
        .map(|&bench| {
            let stats = store
                .cell(bench, MpiImpl::Mpich2, Layout::Cluster(16))
                .1
                .as_ref()
                .expect("table2 run completes");
            // Extrapolate observed counts (warmup + timed window) to the
            // full iteration count.
            let run = NasRun::new(bench, store.class());
            let scale = run.full_iterations() as f64 / (run.warmup + run.timed).max(1) as f64;
            let p2p = stats
                .p2p_buckets()
                .into_iter()
                .map(|(lo, hi, n)| (lo, hi, (n as f64 * scale) as u64))
                .collect();
            let collectives = stats
                .collective_calls
                .iter()
                .map(|((op, sz), &n)| (op.clone(), *sz, (n as f64 * scale) as u64))
                .collect();
            Table2Row {
                bench,
                comm_type: if bench.is_collective() {
                    "Collective"
                } else {
                    "P. to P."
                },
                p2p,
                collectives,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cell algebra of `repro all`: which cells the exhibits declare,
    /// how many are distinct, and which never run.
    #[test]
    fn all_exhibits_share_one_deduplicated_matrix() {
        let declared: Vec<Cell> = Exhibit::ALL.iter().flat_map(|e| e.cells()).collect();
        let union = distinct_cells(&Exhibit::ALL);
        assert_eq!((declared.len(), union.len()), (218, 134));
        let runs = |cells: &[Cell]| {
            cells
                .iter()
                .filter(|&&(b, id, l)| !known_timeout(b, id, l))
                .count()
        };
        // Simulations: 212 when each exhibit ran its own cells, 132 now.
        assert_eq!((runs(&declared), runs(&union)), (212, 132));
        let in_union: HashSet<Cell> = union.iter().copied().collect();
        for e in Exhibit::ALL {
            let cells = e.cells();
            assert!(cells.iter().all(|c| in_union.contains(c)), "{e:?}");
            assert_eq!(
                distinct_cells(&[e]).len(),
                cells.len(),
                "{e:?} repeats a cell"
            );
        }
        let timeouts: Vec<Cell> = union
            .iter()
            .copied()
            .filter(|&(b, id, l)| known_timeout(b, id, l))
            .collect();
        let split = Layout::Split(8, 8);
        assert_eq!(
            timeouts,
            [
                (NasBenchmark::Sp, MpiImpl::MpichMadeleine, split),
                (NasBenchmark::Bt, MpiImpl::MpichMadeleine, split),
            ]
        );
    }
}
