//! Property-based tests of the simulation kernel's core guarantees,
//! driven by the std-only [`desim::prop`] helper.

use std::sync::{Arc, Mutex};

use desim::prop::forall;
use desim::{completion, Sim, SimDuration, SimTime};

/// Observed event times never decrease, whatever the mix of task
/// step lengths.
#[test]
fn time_never_goes_backwards() {
    forall(48, 0x5EED_0001, |rng| {
        let nprocs = rng.range_usize(1, 8);
        let steps: Vec<(u64, u32)> = (0..nprocs)
            .map(|_| (rng.range_u64(1, 1_000_000), rng.range_u64(1, 20) as u32))
            .collect();
        let log = Arc::new(Mutex::new(Vec::new()));
        let sim = Sim::new();
        for (i, (dt, count)) in steps.into_iter().enumerate() {
            let log = Arc::clone(&log);
            sim.spawn_task(format!("p{i}"), move |cx| async move {
                for _ in 0..count {
                    cx.advance(SimDuration::from_nanos(dt)).await;
                    log.lock().unwrap().push(cx.now().as_nanos());
                }
            });
        }
        sim.run().unwrap();
        let log = log.lock().unwrap();
        for w in log.windows(2) {
            assert!(w[0] <= w[1], "time went backwards: {} -> {}", w[0], w[1]);
        }
    });
}

/// The final time equals the maximum per-task total, independent of
/// spawn order.
#[test]
fn end_time_is_the_slowest_process() {
    forall(48, 0x5EED_0002, |rng| {
        let n = rng.range_usize(1, 10);
        let durations: Vec<u64> = (0..n).map(|_| rng.range_u64(1, 1_000_000_000)).collect();
        let expect = *durations.iter().max().unwrap();
        let sim = Sim::new();
        for (i, d) in durations.into_iter().enumerate() {
            sim.spawn_task(format!("p{i}"), move |cx| async move {
                cx.advance(SimDuration::from_nanos(d)).await;
            });
        }
        let end = sim.run().unwrap();
        assert_eq!(end.as_nanos(), expect);
    });
}

/// A chain of completions preserves the sum of delays.
#[test]
fn completion_chains_accumulate_delays() {
    forall(48, 0x5EED_0003, |rng| {
        let n = rng.range_usize(1, 12);
        let delays: Vec<u64> = (0..n).map(|_| rng.range_u64(1, 10_000_000)).collect();
        let total: u64 = delays.iter().sum();
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..n {
            let (t, r) = completion::<()>();
            txs.push(Some(t));
            rxs.push(Some(r));
        }
        let sim = Sim::new();
        for (i, d) in delays.into_iter().enumerate() {
            let prev = if i > 0 { rxs[i - 1].take() } else { None };
            let tx = txs[i].take().unwrap();
            sim.spawn_task(format!("stage{i}"), move |cx| async move {
                if let Some(prev) = prev {
                    cx.wait(prev).await;
                }
                cx.advance(SimDuration::from_nanos(d)).await;
                tx.fire_from(&cx.sched(), ());
            });
        }
        let last = rxs[n - 1].take().unwrap();
        sim.spawn_task("sink", move |cx| async move {
            cx.wait(last).await;
            assert_eq!(cx.now().as_nanos(), total);
        });
        let end = sim.run().unwrap();
        assert_eq!(end.as_nanos(), total);
    });
}

/// Determinism under arbitrary workloads: two runs, one trace.
#[test]
fn identical_runs_identical_traces() {
    forall(48, 0x5EED_0004, |rng| {
        let n = rng.range_usize(2, 6);
        let seeds: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.range_u64(1, 5_000), rng.range_u64(1, 97)))
            .collect();
        fn trace(seeds: &[(u64, u64)]) -> Vec<(u64, usize)> {
            let log = Arc::new(Mutex::new(Vec::new()));
            let sim = Sim::new();
            for (i, &(base, step)) in seeds.iter().enumerate() {
                let log = Arc::clone(&log);
                sim.spawn_task(format!("p{i}"), move |cx| async move {
                    for k in 0..10u64 {
                        cx.advance(SimDuration::from_nanos(base + k * step)).await;
                        log.lock().unwrap().push((cx.now().as_nanos(), i));
                    }
                });
            }
            sim.run().unwrap();
            let v = log.lock().unwrap().clone();
            v
        }
        assert_eq!(trace(&seeds), trace(&seeds));
    });
}

/// `Sched::call_at` with a timestamp in the past clamps to the current
/// virtual time, and callbacks landing at the same instant fire in
/// insertion order.
#[test]
fn call_at_in_the_past_clamps_and_preserves_insertion_order() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);
    let sim = Sim::new();
    sim.spawn_task("driver", move |cx| async move {
        cx.advance(SimDuration::from_millis(5)).await;
        let s = cx.sched();
        // All four target times are now or earlier; each must clamp to
        // t = 5 ms and run in the order scheduled.
        for (label, at) in [
            ("past-zero", SimTime::ZERO),
            ("past-mid", SimTime::from_nanos(1_000_000)),
            ("now", s.now()),
            ("past-again", SimTime::from_nanos(4_999_999)),
        ] {
            let log = Arc::clone(&log2);
            s.call_at(at, move |s2| {
                log.lock().unwrap().push((label, s2.now().as_nanos()));
            });
        }
        // Let the callbacks drain before the task exits, so their
        // firing times are observable.
        cx.advance(SimDuration::from_millis(1)).await;
    });
    let end = sim.run().unwrap();
    assert_eq!(end.as_millis(), 6);
    let log = log.lock().unwrap();
    let labels: Vec<&str> = log.iter().map(|(l, _)| *l).collect();
    assert_eq!(
        labels,
        vec!["past-zero", "past-mid", "now", "past-again"],
        "equal-timestamp callbacks must fire in insertion order"
    );
    for (label, t) in log.iter() {
        assert_eq!(*t, 5_000_000, "callback {label} did not clamp to now");
    }
}
