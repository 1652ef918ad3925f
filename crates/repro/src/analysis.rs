//! Analysis experiments built on the instrumentation subsystems: traces,
//! link utilization, placement optimisation, and application scaling.

use std::sync::Arc;

use desim::obs::analysis::ascii_timeline;
use desim::{Analysis, Collector, Event, Recorder, Tee};
use gridapps::Ray2MeshConfig;
use mpisim::MpiImpl;
use netsim::{Grid5000Site, Network};
use npb::{NasBenchmark, NasClass, NasRun};
use placer::{optimize_master, CommProfile};

use crate::scenario::Scenario;
use crate::util::TuningLevel;

/// `repro trace <BENCH>`: run one kernel on the 8+8 grid with a
/// [`Collector`] on the MPI span stream and print the per-rank activity
/// breakdown, hot pairs, and a space-time diagram of the run.
pub fn cmd_trace(bench: NasBenchmark) {
    crate::header(&format!(
        "Trace: {} class A, 8+8 grid, GridMPI — per-rank activity",
        bench.name()
    ));
    let scenario = Scenario::npb(8, 8, 8, TuningLevel::FullyTuned, MpiImpl::GridMpi);
    let ranks = scenario.placement().len();
    let run = NasRun::quick(bench, NasClass::A);
    let obs = crate::obs_sink();
    let collector = Arc::new(Collector::new());
    let recorder: Arc<dyn Recorder> = match &obs {
        Some((sink, _)) => Arc::new(Tee::new(vec![collector.clone(), sink.clone()])),
        None => collector.clone(),
    };
    let report = scenario
        .recorder(recorder)
        .run(run.program())
        .expect("traced run completes");
    if let Some((sink, metrics)) = &obs {
        crate::write_obs(sink, metrics);
    }
    let events = collector.events();
    let analysis = Analysis::from_events(&events, mpisim::HEADER_BYTES);
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>14}",
        "rank", "compute (s)", "p2p (s)", "coll (s)", "bytes sent"
    );
    for p in &analysis.ranks {
        println!(
            "{:>5} {:>12.4} {:>12.4} {:>12.4} {:>14}",
            p.rank,
            p.compute_secs,
            p.send_secs + p.recv_secs + p.wait_send_secs,
            p.collective_secs,
            p.bytes_sent
        );
    }
    if !analysis.pairs.is_empty() {
        println!("\nbusiest directed pairs:");
        for &(a, b, n) in analysis.pairs.iter().take(5) {
            println!("  rank {a:>2} -> rank {b:>2}: {n} bytes");
        }
    }
    let t1 = report.elapsed.as_nanos();
    println!("\nspace-time diagram (C compute, s send, r recv, A collective, . idle):");
    for (r, row) in ascii_timeline(&events, ranks, 0, t1, 72)
        .into_iter()
        .enumerate()
    {
        println!("rank {r:>2} |{row}|");
    }
    let spans = events
        .iter()
        .filter(|e| matches!(e, Event::MpiSpan { .. }))
        .count();
    println!("({spans} traced events over {})", report.elapsed);
}

/// `repro utilization`: WAN bytes moved by each implementation for the
/// collective-heavy kernels — the mechanism behind Fig. 10 made visible.
pub fn cmd_utilization() {
    crate::header("WAN utilization: bytes crossing Rennes->Nancy per NPB run (class A, 8+8)");
    println!(
        "{:<6} {:>14} {:>14} {:>14}   (MB over the WAN, both directions)",
        "", "MPICH2", "GridMPI", "MPICH-Mad."
    );
    for bench in [NasBenchmark::Ft, NasBenchmark::Is, NasBenchmark::Cg] {
        print!("{:<6}", bench.name());
        for id in [MpiImpl::Mpich2, MpiImpl::GridMpi, MpiImpl::MpichMadeleine] {
            let scenario = Scenario::npb(8, 8, 8, TuningLevel::FullyTuned, id);
            let net = scenario.network();
            scenario
                .run(NasRun::quick(bench, NasClass::A).program())
                .expect("utilization run completes");
            let wan_bytes: f64 = net
                .with_topology(|t| t.wan_links()) // (from, to, link)
                .iter()
                .map(|&(_, _, l)| net.link_delivered(l))
                .sum();
            print!("{:>14.1}", wan_bytes / 1e6);
        }
        println!();
    }
    println!("\nGridMPI's hierarchical collectives cross the WAN once per payload;");
    println!("the oblivious ring/butterfly algorithms cross it over and over.");
}

/// `repro placement`: profile a kernel, optimise its rank->node mapping,
/// and verify the predicted win by re-simulating (the §1 task-placement
/// question).
pub fn cmd_placement() {
    crate::header("Task placement: profile-driven optimisation (paper §1, §2.1.6)");
    let level = TuningLevel::FullyTuned;
    for bench in [NasBenchmark::Cg, NasBenchmark::Mg] {
        // 1. Profile on a single cluster (placement-neutral).
        let run = NasRun::quick(bench, NasClass::A);
        let report = Scenario::npb(16, 16, 0, level, MpiImpl::GridMpi)
            .run(run.program())
            .expect("profiling run completes");
        let profile = CommProfile::from_stats(16, &report.stats);

        // 2. Start from the *worst reasonable* assignment — ranks
        // alternating between sites, the layout a site-oblivious scheduler
        // could produce — and let the optimizer repair it.
        let testbed = Scenario::npb(8, 8, 8, level, MpiImpl::GridMpi);
        let topo = testbed.network().with_topology(|t| t.clone());
        let block = testbed.placement().to_vec();
        let (rn, nn) = block.split_at(8);
        let interleaved: Vec<netsim::NodeId> =
            rn.iter().zip(nn).flat_map(|(&a, &b)| [a, b]).collect();
        let result = placer::optimize_detailed(&topo, &interleaved, &profile);

        // 3. Verify by simulation.
        let simulate = |placement: Vec<netsim::NodeId>| -> f64 {
            let run = NasRun::new(bench, NasClass::A);
            let report = Scenario::custom(Network::new(topo.clone()), placement, MpiImpl::GridMpi)
                .tuning(level.tuning(MpiImpl::GridMpi))
                .run(run.program())
                .expect("verification run completes");
            run.estimate(&report).as_secs_f64()
        };
        let t_interleaved = simulate(interleaved.clone());
        let t_optimized = simulate(result.placement.clone());
        let t_block = simulate(block.clone());
        println!(
            "{}: predicted cost {:.2} -> {:.2} in {} swaps;",
            bench.name(),
            result.initial_cost,
            result.cost,
            result.steps,
        );
        println!(
            "    simulated: interleaved {t_interleaved:.2}s -> optimized {t_optimized:.2}s              (block default: {t_block:.2}s)"
        );
    }

    // Master placement for ray2mesh: the paper's §4.4 conclusion is that
    // it barely matters; the predictor should agree.
    println!("\nray2mesh master placement, predicted communication cost:");
    let cfg = Ray2MeshConfig {
        total_rays: 50_000,
        ..Ray2MeshConfig::small()
    };
    let scenario = Scenario::four_sites(8, Grid5000Site::ALL[0], MpiImpl::GridMpi);
    let topo = scenario.network().with_topology(|t| t.clone());
    let workers: Vec<netsim::NodeId> = scenario.placement()[1..].to_vec();
    let report = scenario
        .run(cfg.program())
        .expect("ray2mesh profile run completes");
    let profile = CommProfile::from_stats(33, &report.stats);
    let masters: Vec<netsim::NodeId> = workers.chunks(8).map(|site| site[0]).collect();
    for (node, cost) in optimize_master(&topo, &masters, &workers, &profile) {
        let site = topo.site_name(topo.site_of(node)).to_string();
        println!("  master at {site:<10} predicted cost {cost:10.2}");
    }
    println!("Costs are within a few percent of each other — task placement does");
    println!("not change ray2mesh's outcome, as the paper found (Table 7).");
}

/// `repro scaling`: ray2mesh speed-up vs slave count — the [14] result the
/// paper cites (linear compute speed-up, flat communication phase).
pub fn cmd_scaling() {
    crate::header("ray2mesh scaling (Genaud 2007, cited §2.2.1): compute scales, merge does not");
    println!(
        "{:<8} {:>14} {:>14} {:>12}",
        "slaves", "compute (s)", "merge (s)", "speedup"
    );
    let mut base: Option<f64> = None; // compute time at 8 slaves
    for per_site in [2usize, 4, 8, 16] {
        let slaves = per_site * 4;
        let cfg = Ray2MeshConfig {
            total_rays: 200_000,
            // Keep per-node merge traffic constant, as in the application:
            // every node always exchanges its full submesh contributions.
            merge_bytes_per_pair: (235_000_000 / (slaves as u64 - 1)).min(8_000_000),
            merge_gflop: 32.0,
            ..Ray2MeshConfig::small()
        };
        let report = Scenario::four_sites(per_site, Grid5000Site::ALL[0], MpiImpl::GridMpi)
            .run(cfg.program())
            .expect("scaling run completes");
        let compute = report.values("compute_secs")[0].1;
        let merge = report.values("merge_secs")[0].1;
        let speedup = *base.get_or_insert(compute) / compute;
        println!("{slaves:<8} {compute:>14.1} {merge:>14.1} {speedup:>11.1}x");
    }
    println!("\nThe computing phase scales with the slave count; the merge phase is");
    println!("bounded below by the fixed per-node exchange volume — the cited");
    println!("observation that communication speed-up flattens out.");
}
