//! Fig. 9 — the impact of TCP slow start and congestion avoidance: 200
//! pingpong messages of 1 MB between Rennes and Nancy, reporting the
//! per-message bandwidth against elapsed time for each stack.

use std::io::Write as _;
use std::sync::Arc;

use desim::{Event, RingSink};
use mpisim::{MpiImpl, RankCtx, RunReport};

use crate::pingpong::Stack;
use crate::scenario::{pingpong_program, Scenario};
use crate::util::{mbps, Scope, TuningLevel};

/// One point of the Fig. 9 series.
#[derive(Clone, Copy, Debug)]
pub struct SlowstartPoint {
    /// Elapsed time at the end of the round trip, seconds.
    pub t: f64,
    /// One-way bandwidth of this message, Mbps.
    pub mbps: f64,
}

/// Run the Fig. 9 experiment for one stack (TCP-tuned configuration, as
/// in §4.2.3): `count` messages of `bytes`.
pub fn slowstart_series(stack: Stack, bytes: u64, count: u32) -> Vec<SlowstartPoint> {
    let level = TuningLevel::FullyTuned;
    let scenario = match stack {
        // Raw TCP reuses the MPI machinery with a zero-overhead profile:
        // an MPI stack with no software overhead, no rendezvous and no
        // pacing.
        Stack::RawTcp => Scenario::raw_pair(Scope::Grid, level),
        Stack::Mpi(id) => Scenario::pair(Scope::Grid, level, id),
    };
    let report = scenario
        .run(pingpong_program(bytes, count))
        .expect("slowstart run completes");
    series_points(bytes, &report)
}

/// Per-message `(t, Mbps)` points of a [`pingpong_program`] run.
pub fn series_points(bytes: u64, report: &RunReport) -> Vec<SlowstartPoint> {
    report
        .values("t")
        .into_iter()
        .zip(report.values("one_way"))
        .map(|((_, t), (_, one_way))| SlowstartPoint {
            t,
            mbps: mbps(bytes, one_way),
        })
        .collect()
}

/// Seconds until the series first reaches `target` Mbps (`None` if never).
pub fn time_to(series: &[SlowstartPoint], target: f64) -> Option<f64> {
    series.iter().find(|p| p.mbps >= target).map(|p| p.t)
}

/// One cwnd sample of the figure data: time, window, threshold, phase,
/// round outcome.
struct CwndPoint {
    t_secs: f64,
    cwnd: u64,
    ssthresh: f64,
    phase: &'static str,
    outcome: &'static str,
}

/// `repro cwnd`: the congestion-window view behind Fig. 9 — one 64 MB
/// Rennes→Nancy transfer with the TCP probes attached, for the untuned
/// kernel, the tuned kernel, and the tuned kernel with pacing (GridMPI).
/// With `--dat DIR`, writes `slowstart_cwnd_<variant>.dat`.
pub fn cmd_cwnd() {
    crate::header("TCP congestion window during one 64 MB WAN transfer (Fig. 9 mechanism)");
    const BYTES: u64 = 64 << 20;
    for (variant, level, id) in [
        ("untuned", TuningLevel::Default, MpiImpl::Mpich2),
        ("tuned_unpaced", TuningLevel::TcpTuned, MpiImpl::Mpich2),
        ("tuned_paced", TuningLevel::TcpTuned, MpiImpl::GridMpi),
    ] {
        let series = cwnd_series(id, level, BYTES);
        if let Some(mut f) = crate::dat_file(&format!("slowstart_cwnd_{variant}")) {
            let _ = writeln!(f, "# t_secs cwnd_bytes ssthresh_bytes phase outcome");
            for p in &series {
                let thresh = if p.ssthresh.is_finite() {
                    p.ssthresh as u64
                } else {
                    0 // unset (no loss yet)
                };
                let _ = writeln!(
                    f,
                    "{:.6} {} {} {} {}",
                    p.t_secs, p.cwnd, thresh, p.phase, p.outcome
                );
            }
        }
        let max_cwnd = series.iter().map(|p| p.cwnd).max().unwrap_or(0);
        let leave_ss = series
            .iter()
            .find(|p| p.phase != "slow_start")
            .map(|p| p.t_secs);
        let stalls = series.iter().filter(|p| p.outcome == "rto_stall").count();
        println!(
            "{variant:<14} {:>5} samples, max cwnd {:>9} B, leaves slow start {}, {} RTO stalls",
            series.len(),
            max_cwnd,
            leave_ss.map_or("never".into(), |t| format!("at {t:.2}s")),
            stalls
        );
    }
}

/// Run one `bytes` send over the WAN with a recorder attached and return
/// the TCP sample stream of the bulk channel.
fn cwnd_series(id: MpiImpl, level: TuningLevel, bytes: u64) -> Vec<CwndPoint> {
    let sink = Arc::new(RingSink::new(1 << 20));
    let report = Scenario::pair(Scope::Grid, level, id)
        .recorder(sink.clone())
        .run(move |mut ctx: RankCtx| async move {
            const TAG: u64 = 1;
            if ctx.rank() == 0 {
                ctx.send(1, bytes, TAG).await;
            } else {
                ctx.recv(0, TAG).await;
            }
        })
        .expect("cwnd probe run completes");
    assert_eq!(sink.dropped(), 0, "ring sink too small for cwnd probe");
    drop(report);
    sink.events()
        .iter()
        .filter_map(|e| match e {
            Event::TcpSample {
                t_ns,
                cwnd,
                ssthresh,
                phase,
                outcome,
                ..
            } => Some(CwndPoint {
                t_secs: *t_ns as f64 / 1e9,
                cwnd: *cwnd,
                ssthresh: *ssthresh,
                phase,
                outcome,
            }),
            _ => None,
        })
        .collect()
}
