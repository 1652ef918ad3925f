//! The library half of `repro`: the pieces of the reproduction harness
//! that other crates (the `bench` harness, integration tests) drive
//! programmatically rather than through the CLI.
//!
//! - [`par`] — the std-only parallel map every sweep fans out through.
//! - [`util`] — tuning levels, topology builders, formatting shared by
//!   every experiment.
//! - [`scenario`] — the one builder that assembles topology → tuning →
//!   faults → observability → run, with the shared testbeds and MPI
//!   programs; the only place an `MpiJob` is built.
//! - [`catalogue`] — the named runs (`blame`/`profile`/`timeline`
//!   scenarios and every golden sub-run), each written once.
//! - [`nas`] — the NPB cell model of §4.3: one `(kernel, implementation,
//!   layout)` cell per run, the cells each exhibit reads, and the store
//!   that simulates them once.
//! - [`campaign`] — the sweep engine: expands a declarative spec into
//!   scenario runs with digest-keyed caching and writes the run ledger.
//! - [`cache`] — the digest-keyed JSON result cache behind `campaign`
//!   and `autotune-coll`.
//! - [`ledger`] — cross-run analysis over ledgers: `diff`, `top`,
//!   `report`.
//!
//! The table/figure subcommands stay in the binary; everything here is
//! deliberately free of CLI state (no `--dat` globals, no `exit`).

pub mod cache;
pub mod campaign;
pub mod catalogue;
pub mod ledger;
pub mod nas;
pub mod par;
pub mod scenario;
pub mod util;
