//! Deterministic fault injection for robustness tests.
//!
//! The engine's panic-isolation and limit paths are hard to exercise
//! organically, so a handful of **instrumented sites** (see [`site`]) call
//! [`check`] at the same coarse boundaries the query monitor polls. A site
//! is inert unless a fault has been **armed** — programmatically via
//! [`arm`] from a test, or through the `DCCS_FAULT_INJECT` environment
//! variable for end-to-end and CI runs:
//!
//! ```text
//! DCCS_FAULT_INJECT=<site>:<mode>[:<count>]
//!     site   one of the names in [`site`] (e.g. bu.eval)
//!     mode   panic       — panic at the site
//!            delay<ms>   — sleep <ms> milliseconds at the site (e.g. delay50)
//!     count  how many times the fault fires before disarming (default 1)
//! ```
//!
//! Examples: `DCCS_FAULT_INJECT=bu.eval:panic` panics the first bottom-up
//! task evaluation; `DCCS_FAULT_INJECT=lattice.branch:delay200:3` delays the
//! first three lattice branch walks by 200 ms (used to make deadline tests
//! deterministic). An unparseable value is ignored. The disarmed fast path
//! is one relaxed atomic load, so production queries pay nothing.
//!
//! This is a **test hook**: faults are process-global (one armed fault at a
//! time, last [`arm`] wins) and the panics it injects are ordinary Rust
//! panics, converted by the engine's isolation layer into
//! [`crate::DccsError::TaskPanicked`].

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// The instrumented site names accepted by [`arm`] and
/// `DCCS_FAULT_INJECT`.
pub mod site {
    /// Top of each vertex-deletion fixpoint round.
    pub const PREPROCESS_ROUND: &str = "preprocess.round";
    /// Each per-layer d-core peel job of preprocessing.
    pub const PREPROCESS_LAYER: &str = "preprocess.layer";
    /// Start of each depth-1 lattice branch walk (GD/Exact candidate
    /// generation).
    pub const LATTICE_BRANCH: &str = "lattice.branch";
    /// Start of each bottom-up task evaluation.
    pub const BU_EVAL: &str = "bu.eval";
    /// Start of each top-down task evaluation.
    pub const TD_EVAL: &str = "td.eval";
    /// Each task-graph commit on the driver.
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
}

/// What an armed fault does when its site is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic with a recognizable message.
    Panic,
    /// Sleep for the given duration (deterministic deadline tests).
    Delay(Duration),
}

struct Armed {
    site: String,
    mode: FaultMode,
    remaining: u32,
}

/// Fast-path gate. `IDLE` means no fault is armed and [`check`] returns
/// after one relaxed load; `UNINIT` (the initial state) forces the first
/// check through [`slot`] so a `DCCS_FAULT_INJECT` spec from the
/// environment gets parsed even when [`arm`] is never called.
const STATE_UNINIT: u8 = 0;
const STATE_IDLE: u8 = 1;
const STATE_ARMED: u8 = 2;
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

fn slot() -> &'static Mutex<Option<Armed>> {
    static SLOT: OnceLock<Mutex<Option<Armed>>> = OnceLock::new();
    SLOT.get_or_init(|| {
        let armed = std::env::var("DCCS_FAULT_INJECT").ok().and_then(|spec| parse_spec(&spec));
        let state = if armed.is_some() { STATE_ARMED } else { STATE_IDLE };
        STATE.store(state, Ordering::Relaxed);
        Mutex::new(armed)
    })
}

/// Parses a `DCCS_FAULT_INJECT` spec (`<site>:<mode>[:<count>]`); returns
/// `None` (ignore) on anything unparseable.
fn parse_spec(spec: &str) -> Option<Armed> {
    let mut parts = spec.split(':');
    let site = parts.next()?.trim();
    if site.is_empty() {
        return None;
    }
    let mode_token = parts.next()?.trim();
    let mode = if mode_token == "panic" {
        FaultMode::Panic
    } else if let Some(ms) = mode_token.strip_prefix("delay") {
        FaultMode::Delay(Duration::from_millis(ms.parse().ok()?))
    } else {
        return None;
    };
    let remaining = match parts.next() {
        Some(count) => count.trim().parse().ok().filter(|&c| c > 0)?,
        None => 1,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(Armed { site: site.to_string(), mode, remaining })
}

/// Arms a fault at `site`, firing `count` times before disarming. Replaces
/// any previously armed fault (one at a time, process-global). Test use
/// only — see the module docs.
pub fn arm(site: &str, mode: FaultMode, count: u32) {
    let mut slot = slot().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = Some(Armed { site: site.to_string(), mode, remaining: count.max(1) });
    STATE.store(STATE_ARMED, Ordering::Relaxed);
}

/// Disarms any armed fault.
pub fn disarm() {
    let mut slot = slot().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = None;
    STATE.store(STATE_IDLE, Ordering::Relaxed);
}

/// The instrumented-site hook: fires the armed fault when `site` matches,
/// otherwise returns immediately (one relaxed load when nothing is armed).
#[inline]
pub fn check(site: &str) {
    if STATE.load(Ordering::Relaxed) == STATE_IDLE {
        return;
    }
    fire(site);
}

#[cold]
fn fire(site: &str) {
    let mode = {
        let mut slot = slot().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(armed) = slot.as_mut() else {
            // First touch with no env spec: settle into the fast path.
            STATE.store(STATE_IDLE, Ordering::Relaxed);
            return;
        };
        if armed.site != site {
            return;
        }
        let mode = armed.mode;
        armed.remaining -= 1;
        if armed.remaining == 0 {
            *slot = None;
            STATE.store(STATE_IDLE, Ordering::Relaxed);
        }
        mode
    };
    match mode {
        FaultMode::Panic => panic!("injected fault at {site}"),
        FaultMode::Delay(duration) => std::thread::sleep(duration),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sites no engine code checks: a unit test running a query beside
    /// these tests can never absorb (or trip over) their armed shots.
    const TEST_SITE: &str = "test.site";
    const OTHER_TEST_SITE: &str = "test.other";

    // These tests mutate process-global state; keep them serialized.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn specs_parse_and_bad_specs_are_ignored() {
        let armed = parse_spec("bu.eval:panic").unwrap();
        assert_eq!(armed.site, "bu.eval");
        assert_eq!(armed.mode, FaultMode::Panic);
        assert_eq!(armed.remaining, 1);
        let armed = parse_spec("lattice.branch:delay250:3").unwrap();
        assert_eq!(armed.mode, FaultMode::Delay(Duration::from_millis(250)));
        assert_eq!(armed.remaining, 3);
        for bad in ["", "panic", "x:explode", "x:delay", "x:delayABC", "x:panic:0", "x:panic:1:2"] {
            assert!(parse_spec(bad).is_none(), "spec {bad:?} must be ignored");
        }
    }

    #[test]
    fn armed_panic_fires_once_then_disarms() {
        let _guard = lock();
        arm(TEST_SITE, FaultMode::Panic, 1);
        let caught = std::panic::catch_unwind(|| check(TEST_SITE));
        assert!(caught.is_err(), "armed site must panic");
        // Disarmed after one shot; a second check is inert.
        check(TEST_SITE);
        disarm();
    }

    #[test]
    fn mismatched_site_does_not_fire() {
        let _guard = lock();
        arm(TEST_SITE, FaultMode::Panic, 1);
        check(OTHER_TEST_SITE); // must not panic
        disarm();
        check(TEST_SITE); // disarmed: must not panic either
    }

    #[test]
    fn delay_mode_sleeps_without_panicking() {
        let _guard = lock();
        arm(TEST_SITE, FaultMode::Delay(Duration::from_millis(5)), 2);
        let t0 = std::time::Instant::now();
        check(TEST_SITE);
        check(TEST_SITE);
        assert!(t0.elapsed() >= Duration::from_millis(10));
        check(TEST_SITE); // third check: disarmed
        disarm();
    }
}
