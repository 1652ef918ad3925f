//! Observer-effect determinism for the profiling layer.
//!
//! The host self-profiler ([`HostProfiler`]) and the windowed telemetry
//! sink ([`TimeSeriesSink`]) are read-only by construction: the profiler
//! touches nothing but the host clock and its own table, and the sink is
//! an ordinary recorder. Attaching either must leave the golden digest
//! bit-for-bit identical while still producing non-trivial output (folded
//! stacks that parse, windows that fill).

use std::sync::Arc;

use grid_mpi_lab::desim::obs::digest::DigestSink;
use grid_mpi_lab::desim::obs::profile::parse_folded_line;
use grid_mpi_lab::desim::obs::{Obs, Tee};
use grid_mpi_lab::desim::{HostProfiler, Recorder, TimeSeriesSink};
use grid_mpi_lab::mpisim::{MpiImpl, MpiProgram};
use repro::scenario::{pingpong_program, Scenario};
use repro::util::{Scope, TuningLevel};

fn pingpong() -> impl MpiProgram {
    pingpong_program(4 << 20, 3)
}

/// The tuned MPICH2 WAN pair with `rec` attached.
fn wan_pair(rec: Arc<dyn Recorder>) -> Scenario {
    Scenario::pair(Scope::Grid, TuningLevel::FullyTuned, MpiImpl::Mpich2).recorder(rec)
}

fn base_job() -> (Scenario, Arc<DigestSink>) {
    let digest = Arc::new(DigestSink::new());
    (wan_pair(digest.clone()), digest)
}

/// Attaching the host profiler (kernel dispatch + netsim + mpisim scopes)
/// must not move a single virtual timestamp or digest bit, and the
/// profile it produces must be non-empty, parseable folded text.
#[test]
fn host_profiler_has_no_observer_effect() {
    let (job, digest) = base_job();
    let bare = job.run(pingpong()).unwrap();
    let bare_digest = digest.value().to_string();

    let prof = Arc::new(HostProfiler::new());
    let (job, digest) = base_job();
    let attached = job
        .observe(Obs::none().profiler(prof.clone()))
        .run(pingpong())
        .unwrap();
    let attached_digest = digest.value().to_string();

    assert_eq!(
        bare.elapsed.as_nanos(),
        attached.elapsed.as_nanos(),
        "profiler changed elapsed time"
    );
    assert_eq!(
        bare_digest, attached_digest,
        "profiler changed the golden digest"
    );
    assert!(prof.total_ns() > 0, "profiler attributed no host time");
    let folded = prof.folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, w) =
            parse_folded_line(line).unwrap_or_else(|| panic!("bad folded line {line:?}"));
        assert!(stack.contains(';'), "stack {stack:?} has no layer prefix");
        assert!(w > 0);
    }
    assert!(
        folded.contains("mpisim;job;run"),
        "job phases missing from profile: {folded}"
    );
}

/// The windowed telemetry sink teed next to the digest sink must leave
/// the digest untouched while actually filling windows and histograms.
#[test]
fn time_series_sink_has_no_observer_effect() {
    let (job, digest) = base_job();
    let bare = job.run(pingpong()).unwrap();
    let bare_digest = digest.value().to_string();

    let sink = Arc::new(TimeSeriesSink::new(10_000_000));
    let digest = Arc::new(DigestSink::new());
    let tee = Tee::new(vec![
        digest.clone() as Arc<dyn Recorder>,
        sink.clone() as Arc<dyn Recorder>,
    ]);
    let teed = wan_pair(Arc::new(tee)).run(pingpong()).unwrap();

    assert_eq!(
        bare.elapsed.as_nanos(),
        teed.elapsed.as_nanos(),
        "telemetry sink changed elapsed time"
    );
    assert_eq!(
        bare_digest,
        digest.value().to_string(),
        "telemetry sink changed the golden digest"
    );
    let series = sink.series();
    assert!(!series.events.is_empty(), "no event windows recorded");
    assert!(
        series.span_ns_hist.count > 0,
        "no MPI span durations observed"
    );
    grid_mpi_lab::desim::obs::json::validate(&series.to_json()).expect("series JSON must validate");
}
