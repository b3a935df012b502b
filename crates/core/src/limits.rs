//! Query-lifecycle limits: wall-clock deadlines, candidate budgets, dense
//! memory ceilings, and cooperative cancellation.
//!
//! A [`QueryLimits`] value rides on [`crate::DccsOptions`] and bounds one
//! query; a [`CancelToken`] is the externally shared kill switch a serving
//! layer can trip from another thread. Internally the dispatch layer compiles
//! both, plus the service's [`FaultPlan`] when one is installed, into a
//! `QueryMonitor` — a `Sync` bundle of atomics the algorithms poll
//! at **coarse boundaries only**: per BU/TD search-tree node (before and
//! after its batch of child peels) and per child job, per lattice subtree,
//! per preprocessing fixpoint round, and (through the
//! [`coreness::CancelProbe`] installed on each worker's peel workspace) per
//! cascade frontier. The hot word loops are never instrumented, so an
//! unlimited query pays no measurable cancellation tax.
//!
//! A tripped limit does not abort the query abruptly: every algorithm stops
//! spawning and emitting, flags its [`crate::SearchStats`] as incomplete
//! (`complete = false`, `limit_hit = Some(kind)`), and returns the
//! best-so-far top-k. The query runner then converts that flagged partial into
//! the matching typed [`crate::DccsError`] variant, carrying the partial
//! result so callers degrade gracefully instead of losing all work.

use crate::fault::FaultPlan;
use coreness::CancelProbe;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-query resource limits, all off by default. `Copy`, so it rides on
/// [`crate::DccsOptions`] without changing that type's ergonomics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryLimits {
    /// Wall-clock deadline measured from the start of the query. When it
    /// passes, the query stops at the next cooperative checkpoint and
    /// returns [`crate::DccsError::DeadlineExceeded`] carrying the partial
    /// result.
    pub deadline: Option<Duration>,
    /// Candidate budget: the maximum number of candidate d-CCs a query may
    /// generate, generalizing the exact solver's built-in gate to every
    /// algorithm. Exceeding it surfaces as
    /// [`crate::DccsError::BudgetExceeded`].
    pub candidate_budget: Option<usize>,
    /// Ceiling (in `u64` words) on the dense re-indexed adjacency. Under
    /// [`crate::IndexChoice::Auto`] a universe over the ceiling silently
    /// falls back to the CSR path (the result is bit-identical); a *forced*
    /// dense index over the ceiling fails the query with
    /// [`crate::DccsError::MemoryLimit`]. The engine's built-in
    /// [`crate::engine::DENSE_WORD_BUDGET`] safety bound still applies on
    /// top.
    pub max_dense_words: Option<usize>,
    /// Opt-in degradation ladder: when [`crate::Algorithm::Exact`] blows
    /// its candidate budget, rerun the query as [`crate::Algorithm::Greedy`]
    /// instead of failing, recording the fallback in
    /// [`crate::SearchStats::degraded_from`].
    pub degrade: bool,
}

impl QueryLimits {
    /// No limits — the default.
    pub fn none() -> Self {
        QueryLimits::default()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the candidate budget.
    pub fn with_candidate_budget(mut self, budget: usize) -> Self {
        self.candidate_budget = Some(budget);
        self
    }

    /// Sets the dense-index memory ceiling, in `u64` words.
    pub fn with_max_dense_words(mut self, words: usize) -> Self {
        self.max_dense_words = Some(words);
        self
    }

    /// Enables the Exact-to-Greedy degradation ladder.
    pub fn with_degrade(mut self) -> Self {
        self.degrade = true;
        self
    }

    /// Whether every limit is off (the monitor is skipped entirely then,
    /// unless a [`CancelToken`] is attached or the service has a fault plan
    /// installed).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.candidate_budget.is_none() && self.max_dense_words.is_none()
    }
}

/// Which limit stopped a query, recorded in
/// [`crate::SearchStats::limit_hit`] on the partial result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LimitKind {
    /// The wall-clock deadline passed.
    Deadline,
    /// The query's [`CancelToken`] was tripped externally.
    Cancelled,
    /// The candidate budget was exhausted.
    CandidateBudget,
    /// A forced dense index exceeded the memory ceiling.
    DenseMemory,
}

/// A shared, cloneable cancellation handle. Hand a clone to another thread
/// (or a signal handler) and call [`CancelToken::cancel`]; every query the
/// token is attached to stops at its next cooperative checkpoint and
/// returns [`crate::DccsError::Cancelled`] with the partial result.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Encoding of `Option<LimitKind>` in one atomic byte (0 = no hit).
const HIT_NONE: u8 = 0;
const HIT_DEADLINE: u8 = 1;
const HIT_CANCELLED: u8 = 2;
const HIT_BUDGET: u8 = 3;
const HIT_MEMORY: u8 = 4;

fn kind_to_u8(kind: LimitKind) -> u8 {
    match kind {
        LimitKind::Deadline => HIT_DEADLINE,
        LimitKind::Cancelled => HIT_CANCELLED,
        LimitKind::CandidateBudget => HIT_BUDGET,
        LimitKind::DenseMemory => HIT_MEMORY,
    }
}

fn u8_to_kind(raw: u8) -> Option<LimitKind> {
    match raw {
        HIT_DEADLINE => Some(LimitKind::Deadline),
        HIT_CANCELLED => Some(LimitKind::Cancelled),
        HIT_BUDGET => Some(LimitKind::CandidateBudget),
        HIT_MEMORY => Some(LimitKind::DenseMemory),
        _ => None,
    }
}

/// The compiled, `Sync` form of one query's limits, shared by the driver
/// and every worker through an `Arc`. The first limit observed as tripped
/// wins and is latched; it also trips the embedded [`CancelProbe`] so
/// in-flight cascades on every worker stop at their next frontier.
#[derive(Debug)]
pub(crate) struct QueryMonitor {
    /// The frontier-granularity probe installed on peel workspaces; carries
    /// the deadline.
    probe: Arc<CancelProbe>,
    /// The externally shared cancellation flag, when one was attached.
    token: Option<CancelToken>,
    /// Candidate budget, when set.
    candidate_budget: Option<usize>,
    /// Dense-index memory ceiling in words, when set; the engine's
    /// `peel_index` consults it when planning the representation.
    max_dense_words: Option<usize>,
    /// Candidates generated so far (driver and workers both charge here).
    candidates: AtomicUsize,
    /// First tripped limit, `HIT_*` encoded (0 = still running).
    hit: AtomicU8,
    /// Words a rejected forced-dense index would have needed.
    mem_required: AtomicUsize,
    /// The ceiling that rejected it.
    mem_limit: AtomicUsize,
    /// The fault plan installed on the query's service, carried to the
    /// instrumented sites ([`crate::fault`]).
    pub(crate) fault: Option<FaultPlan>,
}

impl QueryMonitor {
    /// Compiles `limits` (deadline anchored at "now"), an optional token and
    /// an optional fault plan into a monitor.
    pub(crate) fn new(
        limits: &QueryLimits,
        token: Option<CancelToken>,
        fault: Option<FaultPlan>,
    ) -> Self {
        let probe = match limits.deadline {
            Some(budget) => CancelProbe::with_deadline(Instant::now() + budget),
            None => CancelProbe::new(),
        };
        QueryMonitor {
            probe: Arc::new(probe),
            token,
            candidate_budget: limits.candidate_budget,
            max_dense_words: limits.max_dense_words,
            candidates: AtomicUsize::new(0),
            hit: AtomicU8::new(HIT_NONE),
            mem_required: AtomicUsize::new(0),
            mem_limit: AtomicUsize::new(0),
            fault,
        }
    }

    /// The cascade-frontier probe, for installation on a worker's
    /// [`coreness::PeelWorkspace`].
    pub(crate) fn probe(&self) -> Arc<CancelProbe> {
        Arc::clone(&self.probe)
    }

    /// Latches `kind` as the query's outcome (first writer wins) and trips
    /// the probe so cascades already running stop at their next frontier.
    pub(crate) fn record(&self, kind: LimitKind) {
        let _ = self.hit.compare_exchange(
            HIT_NONE,
            kind_to_u8(kind),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.probe.cancel();
    }

    /// The tripped limit, if any — without consulting the clock.
    pub(crate) fn hit(&self) -> Option<LimitKind> {
        u8_to_kind(self.hit.load(Ordering::Relaxed))
    }

    /// The cooperative checkpoint: returns the tripped limit, probing the
    /// token and the deadline. Called at coarse boundaries only.
    pub(crate) fn check(&self) -> Option<LimitKind> {
        if let Some(kind) = self.hit() {
            return Some(kind);
        }
        if self.token.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.record(LimitKind::Cancelled);
            return Some(LimitKind::Cancelled);
        }
        if self.probe.is_hit() {
            // The probe trips on its own only via the deadline (or the
            // test hook simulating one); explicit trips go through
            // `record`, which latches the kind first.
            self.record(LimitKind::Deadline);
            return self.hit();
        }
        None
    }

    /// Charges `n` generated candidates against the budget, tripping
    /// [`LimitKind::CandidateBudget`] when it overflows.
    pub(crate) fn charge_candidates(&self, n: usize) {
        let total = self.candidates.fetch_add(n, Ordering::Relaxed) + n;
        if self.candidate_budget.is_some_and(|budget| total > budget) {
            self.record(LimitKind::CandidateBudget);
        }
    }

    /// Candidates charged so far (a lower bound once the budget tripped:
    /// workers stop charging at their next checkpoint).
    pub(crate) fn candidates(&self) -> usize {
        self.candidates.load(Ordering::Relaxed)
    }

    /// The configured candidate budget.
    pub(crate) fn candidate_budget(&self) -> Option<usize> {
        self.candidate_budget
    }

    /// The configured dense-index memory ceiling, in words.
    pub(crate) fn max_dense_words(&self) -> Option<usize> {
        self.max_dense_words
    }

    /// Records a forced dense index rejected by the memory ceiling.
    pub(crate) fn trip_dense_memory(&self, required_words: usize, limit_words: usize) {
        self.mem_required.store(required_words, Ordering::Relaxed);
        self.mem_limit.store(limit_words, Ordering::Relaxed);
        self.record(LimitKind::DenseMemory);
    }

    /// `(required_words, limit_words)` of the rejected dense index.
    pub(crate) fn dense_memory(&self) -> (usize, usize) {
        (self.mem_required.load(Ordering::Relaxed), self.mem_limit.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_the_default() {
        let limits = QueryLimits::default();
        assert!(limits.is_unlimited());
        assert!(!limits.degrade);
        let bounded = QueryLimits::none()
            .with_deadline(Duration::from_millis(5))
            .with_candidate_budget(100)
            .with_max_dense_words(1 << 20)
            .with_degrade();
        assert!(!bounded.is_unlimited());
        assert_eq!(bounded.candidate_budget, Some(100));
        assert!(bounded.degrade);
    }

    #[test]
    fn token_cancels_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn monitor_latches_the_first_hit() {
        let monitor = QueryMonitor::new(&QueryLimits::default(), None, None);
        assert_eq!(monitor.check(), None);
        monitor.record(LimitKind::CandidateBudget);
        monitor.record(LimitKind::Deadline);
        assert_eq!(monitor.hit(), Some(LimitKind::CandidateBudget));
        assert!(monitor.probe().is_hit(), "a hit trips the cascade probe");
    }

    #[test]
    fn monitor_sees_token_cancellation() {
        let token = CancelToken::new();
        let monitor = QueryMonitor::new(&QueryLimits::default(), Some(token.clone()), None);
        assert_eq!(monitor.check(), None);
        token.cancel();
        assert_eq!(monitor.check(), Some(LimitKind::Cancelled));
    }

    #[test]
    fn check_observes_a_probe_only_trip() {
        // A deadline that passes inside a cascade latches only in the
        // probe's flag (the frontier poll reads the clock); the monitor
        // byte stays unset until the next `check`. The latched-byte read
        // alone must never be used to decide whether emitted state is
        // trustworthy.
        let monitor = QueryMonitor::new(&QueryLimits::default(), None, None);
        monitor.probe().cancel();
        assert_eq!(monitor.hit(), None, "the byte alone misses a probe-only trip");
        assert_eq!(monitor.check(), Some(LimitKind::Deadline));
        assert_eq!(monitor.hit(), Some(LimitKind::Deadline), "check latches it");
    }

    #[test]
    fn monitor_trips_on_a_passed_deadline() {
        let limits = QueryLimits::none().with_deadline(Duration::ZERO);
        let monitor = QueryMonitor::new(&limits, None, None);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(monitor.check(), Some(LimitKind::Deadline));
    }

    #[test]
    fn candidate_budget_charges_accumulate() {
        let limits = QueryLimits::none().with_candidate_budget(10);
        let monitor = QueryMonitor::new(&limits, None, None);
        monitor.charge_candidates(6);
        assert_eq!(monitor.hit(), None);
        monitor.charge_candidates(5);
        assert_eq!(monitor.hit(), Some(LimitKind::CandidateBudget));
        assert_eq!(monitor.candidates(), 11);
    }

    #[test]
    fn dense_memory_trip_records_the_sizes() {
        let monitor = QueryMonitor::new(&QueryLimits::default(), None, None);
        monitor.trip_dense_memory(4096, 1024);
        assert_eq!(monitor.hit(), Some(LimitKind::DenseMemory));
        assert_eq!(monitor.dense_memory(), (4096, 1024));
    }
}
