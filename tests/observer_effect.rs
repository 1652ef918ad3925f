//! Observer-effect determinism across the whole stack.
//!
//! Attaching the full observability pipeline — network probes (flow,
//! TCP, link), MPI spans, app-phase markers, kernel run stats, and the
//! metrics registry — must not move a single virtual timestamp. Each
//! scenario here runs once bare and once fully probed, with the TCP bulk
//! fast path both enabled and disabled (`Network::set_bulk_fast_path`),
//! and demands byte-identical elapsed and per-rank nanosecond times.

use std::sync::Arc;

use grid_mpi_lab::desim::obs::{Event, Metrics, Obs, RingSink};
use grid_mpi_lab::gridapps::Ray2MeshConfig;
use grid_mpi_lab::mpisim::{MpiImpl, MpiJob, MpiProgram, RankCtx, Tuning};
use grid_mpi_lab::netsim::{grid5000_four_sites, grid5000_pair, KernelConfig, Network};
use grid_mpi_lab::npb::{NasBenchmark, NasClass, NasRun};

/// Elapsed + per-rank times in integer nanoseconds, and the probe's
/// event stream (empty when unprobed).
struct Timing {
    elapsed_ns: u64,
    per_rank_ns: Vec<u64>,
    events: Vec<Event>,
}

fn run_job(job: MpiJob, probed: bool, program: impl MpiProgram) -> Timing {
    let sink = Arc::new(RingSink::with_metrics(1 << 18, Arc::new(Metrics::new())));
    let job = if probed {
        job.with_obs(Obs::none().recorder(sink.clone()))
    } else {
        job
    };
    let report = job.run(program).unwrap();
    Timing {
        elapsed_ns: report.elapsed.as_nanos(),
        per_rank_ns: report.per_rank.iter().map(|d| d.as_nanos()).collect(),
        events: sink.events(),
    }
}

fn check(label: &str, run_once: impl Fn(bool, bool) -> Timing, want_phases: &[&str]) {
    for fast in [false, true] {
        let bare = run_once(fast, false);
        let probed = run_once(fast, true);
        assert_eq!(
            bare.elapsed_ns, probed.elapsed_ns,
            "{label}: probes changed the elapsed time (fast={fast})"
        );
        assert_eq!(
            bare.per_rank_ns, probed.per_rank_ns,
            "{label}: probes changed per-rank times (fast={fast})"
        );
        assert!(bare.events.is_empty());
        assert!(
            probed
                .events
                .iter()
                .any(|e| matches!(e, Event::MpiSpan { .. })),
            "{label}: probed run recorded no MPI spans (fast={fast})"
        );
        assert!(
            probed
                .events
                .iter()
                .any(|e| matches!(e, Event::KernelRun { .. })),
            "{label}: probed run recorded no kernel stats (fast={fast})"
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
                "{label}: missing phase marker {want:?} (fast={fast})"
            );
        }
    }
}

/// Cross-site ping-pong with bulk messages: the scenario where the fast
/// path actually engages and the cwnd probe stream is dense.
#[test]
fn pingpong_has_no_observer_effect() {
    let run_once = |fast: bool, probed: bool| {
        let (mut topo, rennes, sophia) = grid5000_pair(1);
        topo.set_kernel_all(KernelConfig::tuned(4 << 20));
        let mut placement = rennes;
        placement.extend(sophia);
        let net = Network::new(topo);
        net.set_bulk_fast_path(fast);
        let job = MpiJob::new(net, placement, MpiImpl::Mpich2)
            .with_tuning(Tuning::paper_tuned(MpiImpl::Mpich2));
        run_job(job, probed, |mut ctx: RankCtx| async move {
            let peer = 1 - ctx.rank();
            for _ in 0..5 {
                if ctx.rank() == 0 {
                    ctx.send(peer, 4 << 20, 7).await;
                    ctx.recv(peer, 7).await;
                } else {
                    ctx.recv(peer, 7).await;
                    ctx.send(peer, 4 << 20, 7).await;
                }
            }
        })
    };
    check("pingpong", run_once, &[]);
}

/// One NAS kernel (CG: transpose exchanges + dot products) across two
/// sites, with all probes and phase markers attached.
#[test]
fn nas_cg_has_no_observer_effect() {
    let run_once = |fast: bool, probed: bool| {
        let (mut topo, rennes, nancy) = grid5000_pair(8);
        topo.set_kernel_all(KernelConfig::tuned(4 << 20));
        let mut placement = rennes;
        placement.extend(nancy);
        let net = Network::new(topo);
        net.set_bulk_fast_path(fast);
        let job = MpiJob::new(net, placement, MpiImpl::Mpich2)
            .with_tuning(Tuning::paper_tuned(MpiImpl::Mpich2));
        let run = NasRun::quick(NasBenchmark::Cg, NasClass::S);
        run_job(job, probed, run.program())
    };
    check("nas-cg", run_once, &["warmup", "timed", "end"]);
}

/// The blame analyzer attached live (a [`Collector`] teed alongside the
/// digest sink) must leave both the virtual clock and the golden digest
/// untouched: same elapsed time, bit-identical digest value, fast path on
/// and off — and the collected stream must actually analyze.
#[test]
fn live_analyzer_has_no_observer_effect() {
    use grid_mpi_lab::desim::obs::analysis::{Analysis, Collector};
    use grid_mpi_lab::desim::obs::digest::DigestSink;
    use grid_mpi_lab::desim::obs::Tee;
    use grid_mpi_lab::desim::Recorder;
    use grid_mpi_lab::mpisim::HEADER_BYTES;

    let run_once = |fast: bool, with_analyzer: bool| {
        let (mut topo, rennes, nancy) = grid5000_pair(1);
        topo.set_kernel_all(KernelConfig::tuned(4 << 20));
        let mut placement = rennes;
        placement.extend(nancy);
        let net = Network::new(topo);
        net.set_bulk_fast_path(fast);
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
        let report = MpiJob::new(net, placement, MpiImpl::Mpich2)
            .with_tuning(Tuning::paper_tuned(MpiImpl::Mpich2))
            .with_obs(Obs::none().recorder(recorder))
            .run(|mut ctx: RankCtx| async move {
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
            })
            .unwrap();
        (
            report.elapsed.as_nanos(),
            digest.value().to_string(),
            collector.events(),
        )
    };
    for fast in [false, true] {
        let (bare_ns, bare_digest, bare_events) = run_once(fast, false);
        let (teed_ns, teed_digest, teed_events) = run_once(fast, true);
        assert!(bare_events.is_empty());
        assert_eq!(
            bare_ns, teed_ns,
            "analyzer tee changed elapsed time (fast={fast})"
        );
        assert_eq!(
            bare_digest, teed_digest,
            "analyzer tee changed the golden digest (fast={fast})"
        );
        // The side channel actually fed the analyzer: spans pair up and
        // the flow decomposition is populated.
        let analysis = Analysis::from_events(&teed_events, HEADER_BYTES);
        assert!(!analysis.ranks.is_empty(), "no rank profiles (fast={fast})");
        assert!(
            !analysis.flows.is_empty(),
            "no flows analyzed (fast={fast})"
        );
        assert!(
            !analysis.messages.is_empty(),
            "no messages paired (fast={fast})"
        );
        assert!(
            analysis.messages.iter().all(|m| m.msg_id != 0),
            "a paired message lost its id (fast={fast})"
        );
        assert!(analysis.path.is_some(), "no critical path (fast={fast})");
    }
}

/// Ray2mesh (master/worker over four sites), all probes attached.
#[test]
fn ray2mesh_has_no_observer_effect() {
    let run_once = |fast: bool, probed: bool| {
        let (mut topo, _sites, nodes) = grid5000_four_sites(4);
        topo.set_kernel_all(KernelConfig::tuned(4 << 20));
        let mut placement = vec![nodes[0][0]];
        for site_nodes in &nodes {
            placement.extend(site_nodes.iter().copied());
        }
        let net = Network::new(topo);
        net.set_bulk_fast_path(fast);
        let job = MpiJob::new(net, placement, MpiImpl::GridMpi);
        let cfg = Ray2MeshConfig {
            total_rays: 20_000,
            ..Ray2MeshConfig::small()
        };
        run_job(job, probed, cfg.program())
    };
    check("ray2mesh", run_once, &["trace", "merge", "write"]);
}
