//! Typed execution configuration: the fast-path switch and which
//! collective algorithms run.
//!
//! `ExecConfig` is the single front door for knobs that used to be spread
//! over builder methods and ad-hoc environment-variable reads; the
//! library reads no environment variable. Netsim-only callers set the
//! fast path with `Network::set_bulk_fast_path`.

use crate::collectives::CollConfig;

/// Typed execution configuration for an [`crate::MpiJob`] (or a
/// `repro`-level scenario). `None` fields keep the built-in default (or,
/// for `fast_path`, the network's own setting).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecConfig {
    /// Force the closed-form bulk-transfer fast path on or off. `None`:
    /// leave the network's setting (on unless
    /// `Network::set_bulk_fast_path(false)` was called).
    pub fast_path: Option<bool>,
    /// Collective-algorithm selection table. The default (all
    /// `ProfileDefault`) keeps the implementation profile's own dispatch
    /// and leaves every existing digest bit-identical.
    pub coll: CollConfig,
}

impl ExecConfig {
    /// The all-default configuration: the network's own fast-path
    /// setting and the profile's collectives.
    pub fn new() -> ExecConfig {
        ExecConfig::default()
    }

    /// Force the bulk fast path on or off.
    pub fn fast_path(mut self, on: bool) -> ExecConfig {
        self.fast_path = Some(on);
        self
    }

    /// Pin collective algorithms per (op × size class).
    pub fn coll(mut self, coll: CollConfig) -> ExecConfig {
        self.coll = coll;
        self
    }
}
