//! `repro autotune-coll` — the collective-algorithm sweep engine.
//!
//! Hunold-style selection tuning: run every candidate algorithm for each
//! (operation × message size × topology × MPI profile) cell, all through
//! [`crate::par::par_map`], and emit per-profile *decision tables* — the
//! winning algorithm per cell — as gnuplot-ready `.dat` files plus a full
//! JSON record of every measured time. Virtual times are deterministic,
//! so results are cached under a digest key and a re-run only simulates
//! cells whose definition changed.
//!
//! The interesting output is the LAN / WAN divergence list: cells where
//! the best algorithm on a single cluster differs from the best on the
//! four-site grid — the paper's core claim that grid collectives need
//! different algorithms than cluster collectives. `--check` turns that
//! into a gate: exit nonzero unless at least one (op, size class)
//! diverges.

use std::collections::BTreeMap;
use std::path::PathBuf;

use desim::obs::json::Value;
use desim::SimTime;
use mpisim::{CollAlgo, CollConfig, CollOp, CollSel, ExecConfig, MpiImpl};
use repro::cache::{self, fnv1a64};

use crate::cli::Args;
use crate::par::par_map;
use crate::scenario::{coll_program, Scenario};
use crate::util::{size_label, TuningLevel};

/// Rank count for every sweep cell (the paper's 16-node testbeds).
const RANKS: usize = 16;
/// Back-to-back repetitions per measurement (steady-state, not cold).
const ROUNDS: u32 = 4;
/// Bump to invalidate every cached measurement (2: values are stored
/// exactly; version 1 rounded them to 10 significant digits).
const CACHE_VERSION: u32 = 2;

/// The two placements every cell runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Topo {
    /// 16 ranks on 16 Rennes nodes: one cluster, no WAN.
    Lan,
    /// 4 ranks on each of the four Fig. 8 sites.
    Wan4,
}

impl Topo {
    const ALL: [Topo; 2] = [Topo::Lan, Topo::Wan4];

    fn name(self) -> &'static str {
        match self {
            Topo::Lan => "lan",
            Topo::Wan4 => "wan4",
        }
    }

    /// The MPICH2 testbed with `level`'s kernel and MPI tuning, every
    /// run bounded by a generous virtual deadline.
    fn scenario(self, level: TuningLevel) -> Scenario {
        let id = MpiImpl::Mpich2;
        match self {
            Topo::Lan => Scenario::npb(RANKS, RANKS, 0, level, id),
            Topo::Wan4 => Scenario::four_sites_flat(RANKS / 4, level, id),
        }
        .deadline(SimTime::from_nanos(600_000_000_000))
    }
}

/// The tuned 16-rank testbeds, shared with the collective guideline
/// checks: one Rennes cluster, or 4 ranks on each of the four sites.
pub(crate) fn testbed(wan: bool) -> Scenario {
    let topo = if wan { Topo::Wan4 } else { Topo::Lan };
    topo.scenario(TuningLevel::FullyTuned)
}

/// An MPI software profile to tune for.
#[derive(Clone, Copy)]
struct Profile {
    name: &'static str,
    level: TuningLevel,
}

const PROFILES: [Profile; 2] = [
    Profile {
        name: "untuned",
        level: TuningLevel::Default,
    },
    Profile {
        name: "tuned",
        level: TuningLevel::FullyTuned,
    },
];

/// Candidate selections per operation: every flat algorithm that applies
/// plus the grid-aware two-level variants.
fn candidates(op: CollOp) -> Vec<CollSel> {
    match op {
        CollOp::Bcast => vec![
            CollSel::flat(CollAlgo::Linear),
            CollSel::flat(CollAlgo::Chain),
            CollSel::flat(CollAlgo::Pipeline),
            CollSel::flat(CollAlgo::Binary),
            CollSel::flat(CollAlgo::Binomial),
            CollSel::flat(CollAlgo::ScatterAllgather),
            CollSel::two_level(CollAlgo::Binomial),
            CollSel::two_level(CollAlgo::Pipeline),
        ],
        _ => vec![
            CollSel::flat(CollAlgo::Ring),
            CollSel::flat(CollAlgo::RecursiveDoubling),
            CollSel::flat(CollAlgo::Rabenseifner),
            CollSel::flat(CollAlgo::Binomial),
            CollSel::two_level(CollAlgo::Ring),
            CollSel::two_level(CollAlgo::RecursiveDoubling),
        ],
    }
}

fn sel_name(sel: CollSel) -> String {
    if sel.two_level {
        format!("{}+2lvl", sel.algo.name())
    } else {
        sel.algo.name().to_string()
    }
}

fn op_name(op: CollOp) -> &'static str {
    match op {
        CollOp::Bcast => "bcast",
        _ => "allreduce",
    }
}

/// One sweep cell: everything that determines a measurement.
#[derive(Clone, Copy)]
struct Cell {
    profile: usize,
    topo: Topo,
    op: CollOp,
    sel: CollSel,
    bytes: u64,
}

impl Cell {
    /// Human-readable cell description (diagnostics and digesting).
    fn desc(&self) -> String {
        format!(
            "v{CACHE_VERSION}|{}|{}|{}|{}|{}|r{RANKS}|x{ROUNDS}",
            PROFILES[self.profile].name,
            self.topo.name(),
            op_name(self.op),
            sel_name(self.sel),
            self.bytes
        )
    }

    /// Digest cache key: any change to the cell definition (or
    /// `CACHE_VERSION`) moves the key and forces a re-simulation.
    fn key(&self) -> String {
        format!("{:016x}", fnv1a64(&self.desc()))
    }

    /// Virtual seconds for `ROUNDS` back-to-back collectives.
    fn measure(&self) -> f64 {
        let coll = CollConfig::new().pin_all(self.op, self.sel);
        let report = self
            .topo
            .scenario(PROFILES[self.profile].level)
            .exec(ExecConfig::new().coll(coll))
            .run(coll_program(self.op, self.bytes, ROUNDS))
            .unwrap_or_else(|e| panic!("autotune cell {} did not complete: {e:?}", self.desc()));
        assert!(report.clean, "autotune cell {} left messages", self.desc());
        report.elapsed.as_secs_f64()
    }
}

/// `repro autotune-coll [--quick] [--check] [--cache FILE]`. The
/// decision tables are written only with `--dat DIR`.
pub fn cmd_autotune_coll(args: &Args) {
    let quick = args.switch("--quick");
    let check = args.switch("--check");
    let cache_path = PathBuf::from(
        args.text("--cache")
            .unwrap_or("target/autotune_coll_cache.json"),
    );
    let sizes: &[u64] = if quick {
        &[1 << 10, 64 << 10, 1 << 20]
    } else {
        &[1 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20]
    };
    crate::header(&format!(
        "Collective autotuning: sweep over (algorithm x size x topology x profile), \
         {RANKS} ranks, {} sizes{}",
        sizes.len(),
        if quick { " (--quick)" } else { "" }
    ));

    let mut cells: Vec<Cell> = Vec::new();
    for profile in 0..PROFILES.len() {
        for topo in Topo::ALL {
            for op in [CollOp::Bcast, CollOp::Allreduce] {
                for sel in candidates(op) {
                    for &bytes in sizes {
                        cells.push(Cell {
                            profile,
                            topo,
                            op,
                            sel,
                            bytes,
                        });
                    }
                }
            }
        }
    }

    let mut cache = cache::load(&cache_path, |v| v.as_f64());
    let missing: Vec<Cell> = cells
        .iter()
        .copied()
        .filter(|c| !cache.contains_key(&c.key()))
        .collect();
    println!(
        "{} cells ({} cached, {} to simulate) -> cache {}",
        cells.len(),
        cells.len() - missing.len(),
        missing.len(),
        cache_path.display()
    );
    let measured = par_map(&missing, |c| (c.key(), c.measure()));
    for (key, secs) in measured {
        cache.insert(key, secs);
    }
    if let Err(e) = cache::save(&cache_path, &cache, |&secs| Value::Num(secs)) {
        eprintln!("{e}");
    }
    let time_of = |c: &Cell| cache[&c.key()];

    // Per-profile decision tables: winner per (op, bytes, topo).
    let mut divergences: Vec<String> = Vec::new();
    for (pi, profile) in PROFILES.iter().enumerate() {
        println!(
            "\n--- profile {} ({}) ---",
            profile.name,
            profile.level.label()
        );
        println!(
            "{:<10} {:>8} {:>6} {:>22} {:>12} {:>22}",
            "op", "size", "topo", "winner", "secs", "runner-up"
        );
        let mut dat = String::from("# op bytes class topo winner secs runner_up runner_secs\n");
        let mut json_cells: Vec<String> = Vec::new();
        let coll_cfg = CollConfig::new();
        for op in [CollOp::Bcast, CollOp::Allreduce] {
            for &bytes in sizes {
                let mut winners: BTreeMap<&'static str, String> = BTreeMap::new();
                for topo in Topo::ALL {
                    let mut ranked: Vec<(f64, CollSel)> = candidates(op)
                        .into_iter()
                        .map(|sel| {
                            (
                                time_of(&Cell {
                                    profile: pi,
                                    topo,
                                    op,
                                    sel,
                                    bytes,
                                }),
                                sel,
                            )
                        })
                        .collect();
                    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let (best_t, best) = ranked[0];
                    let (next_t, next) = ranked[1];
                    println!(
                        "{:<10} {:>8} {:>6} {:>22} {:>12.6} {:>22}",
                        op_name(op),
                        size_label(bytes),
                        topo.name(),
                        sel_name(best),
                        best_t,
                        format!("{} ({:.6})", sel_name(next), next_t)
                    );
                    dat.push_str(&format!(
                        "{} {} {} {} {} {:.9e} {} {:.9e}\n",
                        op_name(op),
                        bytes,
                        coll_cfg.size_class(bytes).name(),
                        topo.name(),
                        sel_name(best),
                        best_t,
                        sel_name(next),
                        next_t
                    ));
                    let times: Vec<String> = ranked
                        .iter()
                        .map(|(t, sel)| {
                            format!("      {}: {t:.9e}", crate::json_str(&sel_name(*sel)))
                        })
                        .collect();
                    json_cells.push(format!(
                        "  {{\n    \"op\": {},\n    \"bytes\": {},\n    \"class\": {},\n    \
                         \"topo\": {},\n    \"winner\": {},\n    \"times\": {{\n{}\n    }}\n  }}",
                        crate::json_str(op_name(op)),
                        bytes,
                        crate::json_str(coll_cfg.size_class(bytes).name()),
                        crate::json_str(topo.name()),
                        crate::json_str(&sel_name(best)),
                        times.join(",\n")
                    ));
                    winners.insert(topo.name(), sel_name(best));
                }
                if winners["lan"] != winners["wan4"] {
                    divergences.push(format!(
                        "{}/{}: {} {} -> lan {} vs wan4 {}",
                        profile.name,
                        coll_cfg.size_class(bytes).name(),
                        op_name(op),
                        size_label(bytes),
                        winners["lan"],
                        winners["wan4"]
                    ));
                }
            }
        }
        let Some(dir) = crate::global_path("--dat") else {
            continue;
        };
        let _ = std::fs::create_dir_all(dir);
        let json = format!(
            "{{\n  \"profile\": {},\n  \"ranks\": {RANKS},\n  \"rounds\": {ROUNDS},\n  \
             \"cells\": [\n{}\n  ]\n}}\n",
            crate::json_str(profile.name),
            json_cells.join(",\n")
        );
        for (ext, body) in [("dat", dat), ("json", json)] {
            let path = dir.join(format!("coll_decision_{}.{ext}", profile.name));
            match std::fs::write(&path, body) {
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
                Ok(()) => println!("wrote {}", path.display()),
            }
        }
    }

    println!("\nLAN vs WAN divergences (cells where the grid wants a different algorithm):");
    if divergences.is_empty() {
        println!("  none");
    } else {
        for d in &divergences {
            println!("  {d}");
        }
    }
    if check && divergences.is_empty() {
        eprintln!(
            "autotune-coll --check: no (op, size) cell picked a different winner on \
             LAN vs the four-site WAN — the two-level/grid algorithms are not earning \
             their keep"
        );
        std::process::exit(1);
    }
}
