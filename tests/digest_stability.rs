//! Stability of the golden-run digest across everything that is allowed
//! to vary between two runs of the same scenario.
//!
//! The digest is the foundation of `repro golden check`: it must be a
//! pure function of the simulated behaviour. These tests pin the two
//! invariances that make that true — rerunning in the same process and
//! attaching additional observers via [`Tee`] — and one sensitivity:
//! actually changing the workload must change the digest.

use std::sync::Arc;

use grid_mpi_lab::desim::obs::Recorder;
use grid_mpi_lab::desim::{DigestSink, DigestValue, RingSink, Tee};
use grid_mpi_lab::mpisim::{FaultPlan, MpiImpl};
use repro::scenario::{pingpong_program, Scenario};
use repro::util::{Scope, TuningLevel};

/// Three WAN round trips of `bytes` driven through the full recorder
/// pipeline; returns the digest and the number of events it folded in.
fn pingpong_digest(
    bytes: u64,
    seed: Option<u64>,
    extra: Option<Arc<dyn Recorder>>,
) -> (DigestValue, u64) {
    let sink = Arc::new(DigestSink::new());
    let rec: Arc<dyn Recorder> = match extra {
        Some(extra) => Arc::new(Tee::new(vec![sink.clone(), extra])),
        None => sink.clone(),
    };
    let plan = match seed {
        Some(seed) => FaultPlan::new().with_seed(seed).with_wan_loss(1e-3),
        None => FaultPlan::new(),
    };
    let report = Scenario::pair(Scope::Grid, TuningLevel::FullyTuned, MpiImpl::Mpich2)
        .faults(plan)
        .recorder(rec)
        .run(pingpong_program(bytes, 3))
        .expect("pingpong completes");
    // Fold the final times in too, exactly like the golden corpus does.
    sink.absorb_u64(report.elapsed.as_nanos());
    for d in &report.per_rank {
        sink.absorb_u64(d.as_nanos());
    }
    (sink.value(), sink.events())
}

/// Two in-process runs of the identical scenario produce the identical
/// digest — and a real one (events were actually folded in).
#[test]
fn same_run_same_digest() {
    let (a, ev_a) = pingpong_digest(4 << 20, None, None);
    let (b, ev_b) = pingpong_digest(4 << 20, None, None);
    assert!(ev_a > 0, "digest saw no events — recorder not wired?");
    assert_eq!(ev_a, ev_b, "reruns folded different event counts");
    assert_eq!(a, b, "identical scenario reruns must digest identically");
}

/// Tee-ing a RingSink (or any other observer) alongside the digest does
/// not perturb it, and the ring actually sees the same events.
#[test]
fn extra_observers_do_not_change_digest() {
    let (alone, ev_alone) = pingpong_digest(4 << 20, None, None);
    let ring = Arc::new(RingSink::new(1 << 18));
    let (teed, ev_teed) = pingpong_digest(4 << 20, None, Some(ring.clone()));
    assert_eq!(alone, teed, "an extra Tee'd observer changed the digest");
    assert_eq!(ev_alone, ev_teed);
    assert_eq!(
        ring.events().len() as u64,
        ev_teed,
        "the Tee'd ring saw a different event stream than the digest"
    );
}

/// Deterministic fault injection digests deterministically: same seed =>
/// same digest, different seed => different digest.
#[test]
fn fault_seed_determinism() {
    let (a, _) = pingpong_digest(4 << 20, Some(42), None);
    let (b, _) = pingpong_digest(4 << 20, Some(42), None);
    let (c, _) = pingpong_digest(4 << 20, Some(43), None);
    assert_eq!(a, b, "same loss seed must digest identically");
    assert_ne!(a, c, "different loss seeds should perturb the digest");
}

/// Sensitivity: the digest is not a constant — changing the workload
/// (message size) changes it.
#[test]
fn different_workload_different_digest() {
    let (small, _) = pingpong_digest(1 << 20, None, None);
    let (big, _) = pingpong_digest(4 << 20, None, None);
    assert_ne!(
        small, big,
        "digest failed to distinguish 1 MB from 4 MB transfers"
    );
}

/// The hex round trip used by the golden corpus files.
#[test]
fn digest_value_roundtrips_through_hex() {
    let (d, _) = pingpong_digest(1 << 20, None, None);
    let s = d.to_string();
    assert_eq!(s.len(), 32, "digest renders as 32 hex digits");
    assert_eq!(DigestValue::parse(&s), Some(d));
}
