//! Typed execution configuration: which collective algorithms run.
//!
//! `ExecConfig` is the single front door for knobs that used to be spread
//! over builder methods and ad-hoc environment-variable reads; the
//! library reads no environment variable.

use crate::collectives::CollConfig;

/// Typed execution configuration for an [`crate::MpiJob`] (or a
/// `repro`-level scenario).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecConfig {
    /// Collective-algorithm selection table. The default (all
    /// `ProfileDefault`) keeps the implementation profile's own dispatch
    /// and leaves every existing digest bit-identical.
    pub coll: CollConfig,
}

impl ExecConfig {
    /// The all-default configuration: the profile's collectives.
    pub fn new() -> ExecConfig {
        ExecConfig::default()
    }

    /// Pin collective algorithms per (op × size class).
    pub fn coll(mut self, coll: CollConfig) -> ExecConfig {
        self.coll = coll;
        self
    }
}
