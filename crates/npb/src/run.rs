//! Benchmark selection, class parameters, and the warmup/timed-window
//! measurement protocol.

use desim::SimDuration;
use mpisim::{MpiProgram, RankCtx, RunReport};

/// The eight NAS Parallel Benchmarks (NPB 2.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NasBenchmark {
    /// Embarrassingly parallel: compute-only plus tiny final reductions.
    Ep,
    /// Conjugate gradient: 147 kB transpose exchanges + 8 B dot products.
    Cg,
    /// Multigrid: halo exchanges from 4 B to 130 kB over a V-cycle.
    Mg,
    /// LU (SSOR): 2D pipelined wavefront of ~1 kB messages — the most
    /// communication-intensive kernel (1.2 M messages at class B/16).
    Lu,
    /// Scalar pentadiagonal ADI: many 50–130 kB face exchanges.
    Sp,
    /// Block tridiagonal ADI: many 26–156 kB face exchanges.
    Bt,
    /// Integer sort: allreduce + large alltoallv.
    Is,
    /// 3D FFT: large `MPI_Bcast` traffic (the paper's Table 2 profile).
    Ft,
}

impl NasBenchmark {
    /// All benchmarks in the paper's presentation order (Fig. 10).
    pub const ALL: [NasBenchmark; 8] = [
        NasBenchmark::Ep,
        NasBenchmark::Cg,
        NasBenchmark::Mg,
        NasBenchmark::Lu,
        NasBenchmark::Sp,
        NasBenchmark::Bt,
        NasBenchmark::Is,
        NasBenchmark::Ft,
    ];

    /// Uppercase name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            NasBenchmark::Ep => "EP",
            NasBenchmark::Cg => "CG",
            NasBenchmark::Mg => "MG",
            NasBenchmark::Lu => "LU",
            NasBenchmark::Sp => "SP",
            NasBenchmark::Bt => "BT",
            NasBenchmark::Is => "IS",
            NasBenchmark::Ft => "FT",
        }
    }

    /// Whether the paper classifies the benchmark's communication as
    /// collective (Table 2).
    pub fn is_collective(self) -> bool {
        matches!(self, NasBenchmark::Is | NasBenchmark::Ft)
    }
}

/// Problem classes. The paper runs class B; S and A exist for fast tests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NasClass {
    /// Sample (tiny) size.
    S,
    /// Workstation class.
    W,
    /// Class A.
    A,
    /// Class B — the paper's configuration.
    B,
    /// Class C (4× the class B problem).
    C,
}

impl NasClass {
    /// Class letter.
    pub fn name(self) -> &'static str {
        match self {
            NasClass::S => "S",
            NasClass::W => "W",
            NasClass::A => "A",
            NasClass::B => "B",
            NasClass::C => "C",
        }
    }
}

/// A configured benchmark execution: which kernel, which class, and how
/// many iterations are simulated (warmup + timed window) out of the full
/// iteration count.
#[derive(Clone, Copy, Debug)]
pub struct NasRun {
    /// Kernel.
    pub bench: NasBenchmark,
    /// Problem class.
    pub class: NasClass,
    /// Untimed warmup iterations (TCP windows and pipelines settle).
    pub warmup: u32,
    /// Timed iterations; the full-run estimate scales these to
    /// [`NasRun::full_iterations`].
    pub timed: u32,
}

impl NasRun {
    /// Default scaled configuration: enough timed iterations for a stable
    /// per-iteration estimate at a tractable message count.
    pub fn new(bench: NasBenchmark, class: NasClass) -> NasRun {
        let (warmup, timed) = match bench {
            NasBenchmark::Ep => (0, 1),
            NasBenchmark::Cg => (1, 5),
            NasBenchmark::Mg => (2, 6),
            NasBenchmark::Lu => (1, 5),
            NasBenchmark::Sp => (2, 8),
            NasBenchmark::Bt => (2, 8),
            NasBenchmark::Is => (1, 4),
            NasBenchmark::Ft => (2, 6),
        };
        NasRun {
            bench,
            class,
            warmup,
            timed,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn quick(bench: NasBenchmark, class: NasClass) -> NasRun {
        let timed = if bench == NasBenchmark::Ep { 1 } else { 2 };
        NasRun {
            bench,
            class,
            warmup: 0,
            timed,
        }
    }

    /// Simulate every iteration (no extrapolation).
    pub fn full(bench: NasBenchmark, class: NasClass) -> NasRun {
        let mut r = NasRun::new(bench, class);
        r.warmup = 0;
        r.timed = r.full_iterations();
        r
    }

    /// The benchmark's real iteration count for this class.
    pub fn full_iterations(&self) -> u32 {
        match (self.bench, self.class) {
            (NasBenchmark::Ep, _) => 1,
            (NasBenchmark::Cg, NasClass::B | NasClass::C) => 75,
            (NasBenchmark::Cg, _) => 15,
            (NasBenchmark::Mg, NasClass::B | NasClass::C) => 20,
            (NasBenchmark::Mg, _) => 4,
            (NasBenchmark::Lu, NasClass::S) => 50,
            (NasBenchmark::Lu, NasClass::W) => 300,
            (NasBenchmark::Lu, _) => 250,
            (NasBenchmark::Sp, NasClass::S) => 100,
            (NasBenchmark::Sp, _) => 400,
            (NasBenchmark::Bt, NasClass::S) => 60,
            (NasBenchmark::Bt, _) => 200,
            (NasBenchmark::Is, _) => 10,
            (NasBenchmark::Ft, NasClass::B | NasClass::C) => 20,
            (NasBenchmark::Ft, _) => 6,
        }
    }

    /// The SPMD program realising this run.
    pub fn program(&self) -> impl MpiProgram + use<> {
        let run = *self;
        move |mut ctx: RankCtx| async move {
            let ctx = &mut ctx;
            let (warmup, timed, class) = (run.warmup, run.timed, run.class);
            match run.bench {
                NasBenchmark::Ep => crate::ep::run(ctx, class, warmup, timed).await,
                NasBenchmark::Cg => crate::cg::run(ctx, class, warmup, timed).await,
                NasBenchmark::Mg => crate::mg::run(ctx, class, warmup, timed).await,
                NasBenchmark::Lu => crate::lu::run(ctx, class, warmup, timed).await,
                NasBenchmark::Sp => crate::bt_sp::run_sp(ctx, class, warmup, timed).await,
                NasBenchmark::Bt => crate::bt_sp::run_bt(ctx, class, warmup, timed).await,
                NasBenchmark::Is => crate::is::run(ctx, class, warmup, timed).await,
                NasBenchmark::Ft => crate::ft::run(ctx, class, warmup, timed).await,
            }
        }
    }

    /// Extrapolate a report's timed window to the full iteration count.
    pub fn estimate(&self, report: &RunReport) -> SimDuration {
        let timed_secs = report
            .values("timed_secs")
            .into_iter()
            .map(|(_, v)| v)
            .fold(0.0f64, f64::max);
        SimDuration::from_secs_f64(timed_secs / self.timed as f64 * self.full_iterations() as f64)
    }
}

/// Shared measurement scaffold: barrier; warmup; barrier; timed window;
/// barrier; record `timed_secs`. `body` runs once per iteration and gets
/// the global iteration index (warmup included).
pub(crate) async fn timed_loop(
    ctx: &mut RankCtx,
    warmup: u32,
    timed: u32,
    mut body: impl AsyncFnMut(&mut RankCtx, usize),
) {
    ctx.barrier().await;
    ctx.phase("warmup");
    for i in 0..warmup {
        body(ctx, i as usize).await;
    }
    ctx.barrier().await;
    ctx.phase("timed");
    let t0 = ctx.now();
    for i in 0..timed {
        body(ctx, (warmup + i) as usize).await;
    }
    ctx.barrier().await;
    ctx.phase("end");
    let timed_secs = ctx.now().since(t0).as_secs_f64();
    ctx.record("timed_secs", timed_secs);
}
