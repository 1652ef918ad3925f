//! Observer-effect determinism across the whole stack.
//!
//! Attaching the full observability pipeline — network probes (flow,
//! TCP, link), MPI spans, app-phase markers, kernel run stats, and the
//! metrics registry — must not move a single virtual timestamp. Each
//! scenario here runs once bare and once fully probed, and demands
//! byte-identical elapsed and per-rank nanosecond times.

use std::sync::Arc;

use grid_mpi_lab::desim::obs::{Event, Metrics, RingSink};
use grid_mpi_lab::gridapps::Ray2MeshConfig;
use grid_mpi_lab::mpisim::{MpiImpl, MpiProgram};
use grid_mpi_lab::netsim::Grid5000Site;
use grid_mpi_lab::npb::{NasBenchmark, NasClass, NasRun};
use repro::scenario::{pingpong_program, Scenario};
use repro::util::{Scope, TuningLevel};

/// Elapsed + per-rank times in integer nanoseconds, and the probe's
/// event stream (empty when unprobed).
struct Timing {
    elapsed_ns: u64,
    per_rank_ns: Vec<u64>,
    events: Vec<Event>,
}

/// Run `program` on `scenario`, fully probed when `probed`.
fn run_job(scenario: Scenario, probed: bool, program: impl MpiProgram) -> Timing {
    let sink = Arc::new(RingSink::with_metrics(1 << 18, Arc::new(Metrics::new())));
    let mut scenario = scenario;
    if probed {
        scenario = scenario.recorder(sink.clone());
    }
    let report = scenario.run(program).unwrap();
    Timing {
        elapsed_ns: report.elapsed.as_nanos(),
        per_rank_ns: report.per_rank.iter().map(|d| d.as_nanos()).collect(),
        events: sink.events(),
    }
}

/// The tuned MPICH2 pair across the WAN.
fn wan_pair() -> Scenario {
    Scenario::pair(Scope::Grid, TuningLevel::FullyTuned, MpiImpl::Mpich2)
}

fn check(label: &str, run_once: impl Fn(bool) -> Timing, want_phases: &[&str]) {
    let bare = run_once(false);
    let probed = run_once(true);
    assert_eq!(
        bare.elapsed_ns, probed.elapsed_ns,
        "{label}: probes changed the elapsed time"
    );
    assert_eq!(
        bare.per_rank_ns, probed.per_rank_ns,
        "{label}: probes changed per-rank times"
    );
    assert!(bare.events.is_empty());
    assert!(
        probed
            .events
            .iter()
            .any(|e| matches!(e, Event::MpiSpan { .. })),
        "{label}: probed run recorded no MPI spans"
    );
    assert!(
        probed
            .events
            .iter()
            .any(|e| matches!(e, Event::KernelRun { .. })),
        "{label}: probed run recorded no kernel stats"
    );
    let phases: Vec<&str> = probed
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Phase { name, .. } => Some(*name),
            _ => None,
        })
        .collect();
    for want in want_phases {
        assert!(
            phases.contains(want),
            "{label}: missing phase marker {want:?}"
        );
    }
}

/// Cross-site ping-pong with bulk messages: the scenario where pinned
/// segments engage and the cwnd probe stream is dense.
#[test]
fn pingpong_has_no_observer_effect() {
    let run_once = |probed: bool| run_job(wan_pair(), probed, pingpong_program(4 << 20, 5));
    check("pingpong", run_once, &[]);
}

/// One NAS kernel (CG: transpose exchanges + dot products) across two
/// sites, with all probes and phase markers attached.
#[test]
fn nas_cg_has_no_observer_effect() {
    let run_once = |probed: bool| {
        let scenario = Scenario::npb(8, 8, 8, TuningLevel::FullyTuned, MpiImpl::Mpich2);
        let run = NasRun::quick(NasBenchmark::Cg, NasClass::S);
        run_job(scenario, probed, run.program())
    };
    check("nas-cg", run_once, &["warmup", "timed", "end"]);
}

/// The blame analyzer attached live (a [`Collector`] teed alongside the
/// digest sink) must leave both the virtual clock and the golden digest
/// untouched: same elapsed time, bit-identical digest value — and the
/// collected stream must actually analyze.
#[test]
fn live_analyzer_has_no_observer_effect() {
    use grid_mpi_lab::desim::obs::analysis::{Analysis, Collector};
    use grid_mpi_lab::desim::obs::digest::DigestSink;
    use grid_mpi_lab::desim::obs::Tee;
    use grid_mpi_lab::desim::Recorder;
    use grid_mpi_lab::mpisim::HEADER_BYTES;

    let run_once = |with_analyzer: bool| {
        let digest = Arc::new(DigestSink::new());
        let collector = Arc::new(Collector::new());
        let recorder: Arc<dyn Recorder> = if with_analyzer {
            Arc::new(Tee::new(vec![
                digest.clone() as Arc<dyn Recorder>,
                collector.clone() as Arc<dyn Recorder>,
            ]))
        } else {
            digest.clone()
        };
        let report = wan_pair()
            .recorder(recorder)
            .run(pingpong_program(4 << 20, 3))
            .unwrap();
        (
            report.elapsed.as_nanos(),
            digest.value().to_string(),
            collector.events(),
        )
    };
    let (bare_ns, bare_digest, bare_events) = run_once(false);
    let (teed_ns, teed_digest, teed_events) = run_once(true);
    assert!(bare_events.is_empty());
    assert_eq!(bare_ns, teed_ns, "analyzer tee changed elapsed time");
    assert_eq!(
        bare_digest, teed_digest,
        "analyzer tee changed the golden digest"
    );
    // The side channel actually fed the analyzer: spans pair up and the
    // flow decomposition is populated.
    let analysis = Analysis::from_events(&teed_events, HEADER_BYTES);
    assert!(!analysis.ranks.is_empty(), "no rank profiles");
    assert!(!analysis.flows.is_empty(), "no flows analyzed");
    assert!(!analysis.messages.is_empty(), "no messages paired");
    assert!(
        analysis.messages.iter().all(|m| m.msg_id != 0),
        "a paired message lost its id"
    );
    assert!(analysis.path.is_some(), "no critical path");
}

/// Ray2mesh (master/worker over four sites), all probes attached.
#[test]
fn ray2mesh_has_no_observer_effect() {
    let run_once = |probed: bool| {
        let scenario = Scenario::four_sites(4, Grid5000Site::ALL[0], MpiImpl::GridMpi);
        let cfg = Ray2MeshConfig {
            total_rays: 20_000,
            ..Ray2MeshConfig::small()
        };
        run_job(scenario, probed, cfg.program())
    };
    check("ray2mesh", run_once, &["trace", "merge", "write"]);
}
