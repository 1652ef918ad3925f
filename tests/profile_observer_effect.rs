//! Observer-effect determinism for the profiling layer.
//!
//! The host self-profiler ([`HostProfiler`]) and the windowed telemetry
//! sink ([`TimeSeriesSink`]) are read-only by construction: the profiler
//! touches nothing but the host clock and its own table, and the sink is
//! an ordinary recorder. Attaching either must leave the golden digest
//! bit-for-bit identical — with the TCP bulk fast path on and off — while
//! still producing non-trivial output (folded stacks that parse, windows
//! that fill).

use std::sync::Arc;

use grid_mpi_lab::desim::obs::digest::DigestSink;
use grid_mpi_lab::desim::obs::profile::parse_folded_line;
use grid_mpi_lab::desim::obs::{Obs, Tee};
use grid_mpi_lab::desim::{HostProfiler, Recorder, TimeSeriesSink};
use grid_mpi_lab::mpisim::{MpiImpl, MpiJob, MpiProgram, RankCtx, Tuning};
use grid_mpi_lab::netsim::{grid5000_pair, KernelConfig, Network};

fn pingpong() -> impl MpiProgram {
    |mut ctx: RankCtx| async move {
        let peer = 1 - ctx.rank();
        for _ in 0..3 {
            if ctx.rank() == 0 {
                ctx.send(peer, 4 << 20, 7).await;
                ctx.recv(peer, 7).await;
            } else {
                ctx.recv(peer, 7).await;
                ctx.send(peer, 4 << 20, 7).await;
            }
        }
    }
}

fn base_job(fast: bool) -> (MpiJob, Arc<DigestSink>) {
    let (mut topo, rennes, nancy) = grid5000_pair(1);
    topo.set_kernel_all(KernelConfig::tuned(4 << 20));
    let mut placement = rennes;
    placement.extend(nancy);
    let net = Network::new(topo);
    net.set_bulk_fast_path(fast);
    let digest = Arc::new(DigestSink::new());
    let job = MpiJob::new(net, placement, MpiImpl::Mpich2)
        .with_tuning(Tuning::paper_tuned(MpiImpl::Mpich2))
        .with_obs(Obs::none().recorder(digest.clone() as Arc<dyn Recorder>));
    (job, digest)
}

/// Attaching the host profiler (kernel dispatch + netsim + mpisim scopes)
/// must not move a single virtual timestamp or digest bit, and the
/// profile it produces must be non-empty, parseable folded text.
#[test]
fn host_profiler_has_no_observer_effect() {
    for fast in [false, true] {
        let (job, digest) = base_job(fast);
        let bare = job.run(pingpong()).unwrap();
        let bare_digest = digest.value().to_string();

        let prof = Arc::new(HostProfiler::new());
        let (job, digest) = base_job(fast);
        let attached = job
            .with_obs(Obs::none().profiler(prof.clone()))
            .run(pingpong())
            .unwrap();
        let attached_digest = digest.value().to_string();

        assert_eq!(
            bare.elapsed.as_nanos(),
            attached.elapsed.as_nanos(),
            "profiler changed elapsed time (fast={fast})"
        );
        assert_eq!(
            bare_digest, attached_digest,
            "profiler changed the golden digest (fast={fast})"
        );
        assert!(
            prof.total_ns() > 0,
            "profiler attributed no host time (fast={fast})"
        );
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
            "job phases missing from profile (fast={fast}): {folded}"
        );
    }
}

/// The windowed telemetry sink teed next to the digest sink must leave
/// the digest untouched while actually filling windows and histograms.
#[test]
fn time_series_sink_has_no_observer_effect() {
    for fast in [false, true] {
        let (job, digest) = base_job(fast);
        let bare = job.run(pingpong()).unwrap();
        let bare_digest = digest.value().to_string();

        let sink = Arc::new(TimeSeriesSink::new(10_000_000));
        let (mut topo, rennes, nancy) = grid5000_pair(1);
        topo.set_kernel_all(KernelConfig::tuned(4 << 20));
        let mut placement = rennes;
        placement.extend(nancy);
        let net = Network::new(topo);
        net.set_bulk_fast_path(fast);
        let digest = Arc::new(DigestSink::new());
        let teed = MpiJob::new(net, placement, MpiImpl::Mpich2)
            .with_tuning(Tuning::paper_tuned(MpiImpl::Mpich2))
            .with_obs(Obs::none().recorder(Arc::new(Tee::new(vec![
                digest.clone() as Arc<dyn Recorder>,
                sink.clone() as Arc<dyn Recorder>,
            ]))))
            .run(pingpong())
            .unwrap();

        assert_eq!(
            bare.elapsed.as_nanos(),
            teed.elapsed.as_nanos(),
            "telemetry sink changed elapsed time (fast={fast})"
        );
        assert_eq!(
            bare_digest,
            digest.value().to_string(),
            "telemetry sink changed the golden digest (fast={fast})"
        );
        let series = sink.series();
        assert!(
            !series.events.is_empty(),
            "no event windows recorded (fast={fast})"
        );
        assert!(
            series.span_ns_hist.count > 0,
            "no MPI span durations observed (fast={fast})"
        );
        grid_mpi_lab::desim::obs::json::validate(&series.to_json())
            .expect("series JSON must validate");
    }
}
