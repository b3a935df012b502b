//! Deterministic fault injection for robustness tests.
//!
//! The engine's panic-isolation and limit paths are hard to exercise
//! organically, so a handful of **instrumented sites** (see [`site`]) sit
//! at the same coarse boundaries the query monitor polls. A site fires
//! only the [`FaultPlan`] installed on the service its query runs on
//! ([`crate::QueryService::set_fault_plan`], or
//! [`crate::DccsSession::set_fault_plan`], which forwards to the session's
//! service): no other service sees the plan, so tests that arm faults run
//! beside each other freely. A plan is written `<site>:<mode>[:<count>]`:
//!
//! ```text
//!     site   one of the names in [`site`] (e.g. bu.eval)
//!     mode   panic       — panic at the site
//!            delay<ms>   — sleep <ms> milliseconds at the site (e.g. delay50)
//!     count  how many times the fault fires (default 1)
//! ```
//!
//! Examples: `bu.eval:panic` panics the first bottom-up child job;
//! `lattice.branch:delay200:3` delays the first three lattice branch walks
//! by 200 ms (used to make deadline tests deterministic). The `dccs` CLI is
//! the only reader of the `DCCS_FAULT_INJECT` environment variable: it
//! parses the value with [`FaultPlan::parse`] and installs the plan on the
//! engine each command creates.
//!
//! While a plan is installed every query of its service runs under a query
//! monitor, which carries the plan to the sites; on an unarmed service a
//! site tests one `Option`. The panics a plan injects are ordinary Rust
//! panics, converted by the engine's isolation layer into
//! [`crate::DccsError::TaskPanicked`].

use crate::limits::QueryMonitor;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The instrumented site names a [`FaultPlan`] can target.
pub mod site {
    /// Top of each vertex-deletion fixpoint round.
    pub const PREPROCESS_ROUND: &str = "preprocess.round";
    /// Each per-layer d-core peel job of preprocessing.
    pub const PREPROCESS_LAYER: &str = "preprocess.layer";
    /// Start of each depth-1 lattice branch walk (GD/Exact candidate
    /// generation).
    pub const LATTICE_BRANCH: &str = "lattice.branch";
    /// Start of each bottom-up child job: one per child peel of a node's
    /// batch.
    pub const BU_EVAL: &str = "bu.eval";
    /// Start of each top-down child job: one per `RefineU` and child peel of
    /// a node's batch.
    pub const TD_EVAL: &str = "td.eval";
    /// Each BU/TD node commit on the driver, after the node's batch.
    pub const GRAPH_COMMIT: &str = "graph.commit";
    /// Start of each query job of a batch sweep.
    pub const BATCH_QUERY: &str = "batch.query";
    /// The mutation-batch commit point of the query service: after the
    /// batch is validated and the next snapshot's shared tier repaired,
    /// immediately **before** the new snapshot is published — a panic here
    /// must leave the old snapshot serving, untouched.
    pub const BATCH_COMMIT: &str = "batch.commit";
    /// Start of the greedy max-k-cover selection.
    pub const SELECT: &str = "select";
    /// Every site above.
    pub const ALL: [&str; 9] = [
        PREPROCESS_ROUND,
        PREPROCESS_LAYER,
        LATTICE_BRANCH,
        BU_EVAL,
        TD_EVAL,
        GRAPH_COMMIT,
        BATCH_QUERY,
        BATCH_COMMIT,
        SELECT,
    ];
}

/// What an armed fault does when its site is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic with a recognizable message.
    Panic,
    /// Sleep for the given duration (deterministic deadline tests).
    Delay(Duration),
}

/// A fault to inject: the site it targets, what it does there, and how many
/// more times it fires. Clones share the remaining shots, so every query,
/// batch job and commit of the service holding the plan draws on one
/// count; once it is spent the plan is inert.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    site: String,
    mode: FaultMode,
    remaining: Arc<AtomicU32>,
}

impl FaultPlan {
    /// A plan firing `mode` at `site` `shots` times (at least once).
    pub fn new(site: &str, mode: FaultMode, shots: u32) -> Self {
        let remaining = Arc::new(AtomicU32::new(shots.max(1)));
        FaultPlan { site: site.to_string(), mode, remaining }
    }

    /// Parses `<site>:<mode>[:<count>]` (see the module docs), rejecting an
    /// unknown site, an unknown mode, a zero or non-numeric count, and
    /// trailing fields.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let bad = || format!("expected <site>:panic|delay<ms>[:<count>], got `{spec}`");
        let mut parts = spec.split(':').map(str::trim);
        let name = parts.next().unwrap_or_default();
        if !site::ALL.contains(&name) {
            return Err(format!("unknown fault site `{name}` in `{spec}`"));
        }
        let mode = match parts.next().ok_or_else(bad)? {
            "panic" => FaultMode::Panic,
            token => {
                let ms = token.strip_prefix("delay").and_then(|ms| ms.parse().ok());
                FaultMode::Delay(Duration::from_millis(ms.ok_or_else(bad)?))
            }
        };
        let shots = parts.next().map_or(Some(1), |count| count.parse().ok().filter(|&c| c > 0));
        match (shots, parts.next()) {
            (Some(shots), None) => Ok(FaultPlan::new(name, mode, shots)),
            _ => Err(bad()),
        }
    }

    /// Fires the plan if it targets `site` and has a shot left.
    pub(crate) fn fire(&self, site: &str) {
        let take_shot = |n: u32| n.checked_sub(1);
        if site != self.site
            || self.remaining.fetch_update(Ordering::Relaxed, Ordering::Relaxed, take_shot).is_err()
        {
            return;
        }
        match self.mode {
            FaultMode::Panic => panic!("injected fault at {site}"),
            FaultMode::Delay(duration) => std::thread::sleep(duration),
        }
    }
}

/// The engine's site hook: fires the plan the query's monitor carries, if
/// any.
#[inline]
pub(crate) fn fire(monitor: Option<&QueryMonitor>, site: &str) {
    if let Some(plan) = monitor.and_then(|m| m.fault.as_ref()) {
        plan.fire(site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_bad_specs_are_rejected() {
        let plan = FaultPlan::parse("bu.eval:panic").unwrap();
        assert_eq!((plan.site.as_str(), plan.mode), (site::BU_EVAL, FaultMode::Panic));
        assert_eq!(plan.remaining.load(Ordering::Relaxed), 1);
        let plan = FaultPlan::parse("lattice.branch:delay250:3").unwrap();
        assert_eq!(plan.mode, FaultMode::Delay(Duration::from_millis(250)));
        assert_eq!(plan.remaining.load(Ordering::Relaxed), 3);
        for bad in [
            "",
            "panic",
            "bu.evl:panic",
            "bu.eval",
            "bu.eval:explode",
            "bu.eval:delay",
            "bu.eval:delayABC",
            "bu.eval:panic:0",
            "bu.eval:panic:1:2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "spec {bad:?} must be rejected");
        }
    }

    #[test]
    fn armed_panic_fires_once_then_disarms() {
        let plan = FaultPlan::new(site::BU_EVAL, FaultMode::Panic, 1);
        let caught = std::panic::catch_unwind(|| plan.fire(site::BU_EVAL));
        assert!(caught.is_err(), "armed site must panic");
        // The one shot is spent; a second reach is inert.
        plan.fire(site::BU_EVAL);
    }

    #[test]
    fn mismatched_site_does_not_fire() {
        let plan = FaultPlan::new(site::BU_EVAL, FaultMode::Panic, 1);
        plan.fire(site::TD_EVAL); // must not panic, nor spend the shot
        assert_eq!(plan.remaining.load(Ordering::Relaxed), 1);
        // A query with no monitor never reaches a plan at all.
        fire(None, site::BU_EVAL);
    }

    #[test]
    fn delay_mode_sleeps_without_panicking() {
        let plan = FaultPlan::new(site::SELECT, FaultMode::Delay(Duration::from_millis(5)), 2);
        let t0 = std::time::Instant::now();
        plan.fire(site::SELECT);
        plan.clone().fire(site::SELECT); // a clone draws on the same shots
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(plan.remaining.load(Ordering::Relaxed), 0, "a third reach is inert");
    }
}
