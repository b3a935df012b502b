//! The session front end: one caller sweeping queries over one graph.
//!
//! The paper's workload is *sweep-shaped*: its experiments vary `d`, `s`,
//! and `k` over a fixed graph (Figs. 14–25), and a production deployment
//! serves many queries against one loaded graph. A [`DccsSession`] is the
//! durable handle for that pattern: constructed once per graph, it is a
//! single-caller client of its own [`QueryService`], so consecutive queries
//! reuse the service's pooled search context (peel scratch, cover/seed
//! buffers, the dense-index cache), its worker crew, and the snapshot's
//! per-`d` layer-core and per-`(d, s)` deletion-fixpoint memos — while
//! returning **bit-identical results** to one-shot calls (the caches only
//! skip recomputing deterministic intermediates; enforced by
//! `crates/core/tests/session_sweep.rs` and
//! `crates/core/tests/fixpoint_memo.rs`). Session queries never read the
//! service's result cache: a repeated query is computed again.
//!
//! Queries go through a builder and return `Result` instead of panicking:
//!
//! ```
//! use mlgraph::MultiLayerGraphBuilder;
//! use dccs::{Algorithm, DccsParams, DccsSession};
//!
//! let mut b = MultiLayerGraphBuilder::new(4, 2);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
//!     b.add_edge(0, u, v).unwrap();
//!     b.add_edge(1, u, v).unwrap();
//! }
//! let g = b.build();
//! let mut session = DccsSession::new(&g);
//! let result = session
//!     .query(DccsParams::new(2, 2, 1))
//!     .algorithm(Algorithm::Auto)
//!     .run()
//!     .expect("valid parameters");
//! assert_eq!(result.cover.to_vec(), vec![0, 1, 2]);
//! // Invalid parameters are typed errors, not panics:
//! assert!(session.query(DccsParams::new(2, 9, 1)).run().is_err());
//! ```
//!
//! Whole sweeps go through [`DccsSession::run_batch`], which fans the
//! queries of a sweep out over the service's worker crew (each query runs
//! sequentially on one worker, so per-query results — and their work
//! counters — are exactly the 1-thread results, in submission order).
//!
//! # Threads
//!
//! A query's `threads` knob selects the width of the shared executor — the
//! fork-join batches of preprocessing, the lattice, and the BU/TD search
//! trees — and nothing else: results are bit-identical at
//! every width. One rule holds everywhere: `0` means **auto**
//! (`available_parallelism`, via [`crate::auto_threads`]) and any other
//! value is taken literally. A multi-thread query drives the service's
//! persistent crew, which is spawned on first use, re-created only when a
//! query asks for a different width, and joined on drop.

use crate::algorithm::Algorithm;
use crate::config::{DccsOptions, DccsParams};
use crate::error::DccsError;
use crate::fault::FaultPlan;
use crate::limits::{CancelToken, QueryLimits};
use crate::result::DccsResult;
use crate::serve::{DccIndex, Serve};
use crate::service::{GraphSnapshot, QueryService};
use mlgraph::MultiLayerGraph;
use std::sync::Arc;

/// One query of a batch: the `(d, s, k)` parameters plus the algorithm to
/// run them with ([`Algorithm::Auto`] by default).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// The DCCS problem parameters.
    pub params: DccsParams,
    /// The algorithm to run (resolved per query when [`Algorithm::Auto`]).
    pub algorithm: Algorithm,
}

impl QuerySpec {
    /// A spec running `params` with automatic algorithm selection.
    pub fn new(params: DccsParams) -> Self {
        QuerySpec { params, algorithm: Algorithm::Auto }
    }

    /// Pins the algorithm instead of auto-selecting.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }
}

/// A long-lived query handle over one graph. See the [module docs](self)
/// for the full story; in short: construct once, [`DccsSession::query`] many
/// times, and every piece of reusable engine state carries over between
/// queries without changing any result.
#[derive(Debug)]
pub struct DccsSession<'g> {
    g: &'g MultiLayerGraph,
    /// The engine every query runs on: the published snapshot (shared tier
    /// and attached [`DccIndex`]), the context pool, and the worker crew.
    service: QueryService<'g>,
    opts: DccsOptions,
    /// The externally shared kill switch attached to every query of this
    /// session (see [`DccsSession::set_cancel_token`]); `None` by default.
    token: Option<CancelToken>,
}

impl<'g> DccsSession<'g> {
    /// A session over `g` with default [`DccsOptions`] (all preprocessing
    /// and pruning on, sequential execution).
    pub fn new(g: &'g MultiLayerGraph) -> Self {
        DccsSession::with_options(g, DccsOptions::default())
    }

    /// A session over `g` whose queries default to `opts`. An `opts.threads`
    /// of `0` means auto ([`crate::auto_threads`]).
    pub fn with_options(g: &'g MultiLayerGraph, opts: DccsOptions) -> Self {
        DccsSession { g, service: QueryService::new(g, opts), opts, token: None }
    }

    /// The session's epoch-versioned [`GraphSnapshot`] — the shared
    /// immutable tier its queries run against. Hand it to a
    /// [`QueryService::over`] (or another reader) to share the
    /// preprocessing work this session has already paid for.
    pub fn snapshot(&self) -> Arc<GraphSnapshot<'g>> {
        self.service.snapshot()
    }

    /// Attaches a [`CancelToken`] to every subsequent query (and batch) of
    /// this session. Hand a clone of the token to another thread and call
    /// [`CancelToken::cancel`] to stop an in-flight query at its next
    /// cooperative checkpoint; the query returns
    /// [`DccsError::Cancelled`] carrying the partial result. Pass `None`
    /// to detach.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.token = token;
    }

    /// Installs a [`FaultPlan`] on the session's service (`None` disarms);
    /// see [`QueryService::set_fault_plan`].
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.service.set_fault_plan(plan);
    }

    /// The graph this session queries.
    pub fn graph(&self) -> &'g MultiLayerGraph {
        self.g
    }

    /// The session's default options (per-query overrides go through the
    /// [`Query`] builder).
    pub fn options(&self) -> &DccsOptions {
        &self.opts
    }

    /// Builds a [`DccIndex`] for the session's graph on the service's crew
    /// at the session's thread width, covering every requested `d` for
    /// subset sizes `1..=max_s` (`max_s == 0` means all subset sizes). The
    /// index is returned, not attached — save it with [`DccIndex::save`]
    /// and/or hand it to [`DccsSession::attach_index`]. Its layer cores come
    /// from the snapshot's per-`d` memo, so later queries at those `d`s
    /// start warm.
    pub fn build_index(&mut self, ds: &[u32], max_s: usize) -> DccIndex {
        let snapshot = self.service.snapshot();
        let g = self.g;
        let monitor = self.service.fault_monitor();
        self.service.on_engine(&snapshot, &self.opts, |ctx, pool| {
            ctx.set_monitor(monitor);
            let index = DccIndex::build_on(ctx, pool, g, ds, max_s);
            ctx.set_monitor(None);
            index
        })
    }

    /// Attaches `index` after validating its fingerprint against the
    /// session's graph ([`DccIndex::matches`]); a mismatched index is
    /// rejected with [`DccsError::IndexUnavailable`] and nothing is
    /// attached. Attaching publishes a successor snapshot under a fresh
    /// epoch ([`QueryService::attach_index`]) with the same warm tier.
    /// Subsequent queries consult the index per the [`Serve`] knob on their
    /// options; [`Serve::Peel`] keeps peeling.
    pub fn attach_index(&mut self, index: DccIndex) -> Result<(), DccsError> {
        self.service.attach_index(index)
    }

    /// The attached index, if any.
    pub fn index(&self) -> Option<Arc<DccIndex>> {
        self.service.snapshot().index().cloned()
    }

    /// Starts building a query for `params`. Nothing runs until
    /// [`Query::run`].
    pub fn query(&mut self, params: DccsParams) -> Query<'_, 'g> {
        let opts = self.opts;
        Query { session: self, spec: QuerySpec::new(params), opts, token: None }
    }

    /// Runs a whole sweep through the service's batch loop.
    ///
    /// All specs are validated up front (the first invalid spec fails the
    /// whole call before any work runs — a malformed sweep is a caller
    /// bug). Once running, the batch is **not** all-or-nothing: a runtime
    /// limit or a panicking engine task on one spec yields an `Err` in that
    /// spec's slot and every other query still completes, so the outer
    /// `Result` wraps one per-spec `Result` per submitted spec, in
    /// submission order.
    ///
    /// With an effective thread count of 1 — or a single spec — the queries
    /// run in order on the calling thread. With more threads, the service's
    /// crew serves the entire batch and each query becomes one job,
    /// executed sequentially on one worker — inter-query parallelism, which
    /// is where a sweep's wall-clock actually goes. Either way each result
    /// is bit-identical to running its spec as a one-shot query
    /// (per-query execution is thread-invariant).
    #[allow(clippy::type_complexity)]
    pub fn run_batch(
        &mut self,
        specs: &[QuerySpec],
    ) -> Result<Vec<Result<DccsResult, DccsError>>, DccsError> {
        let snapshot = self.service.snapshot();
        for spec in specs {
            QueryService::check_on(&snapshot, &spec.params)?;
        }
        let opts = DccsOptions { threads: 1, ..self.opts };
        let (service, token) = (&self.service, &self.token);
        let outcomes =
            service.fan_out(specs, |spec| service.run(&snapshot, spec, &opts, token.clone()));
        Ok(outcomes.into_iter().map(|outcome| outcome.result).collect())
    }
}

/// A configured-but-not-yet-run query, produced by [`DccsSession::query`].
/// Builder methods refine it; [`Query::run`] executes it on the session.
#[derive(Debug)]
#[must_use = "a query does nothing until .run() is called"]
pub struct Query<'s, 'g> {
    session: &'s mut DccsSession<'g>,
    spec: QuerySpec,
    opts: DccsOptions,
    token: Option<CancelToken>,
}

impl Query<'_, '_> {
    /// Selects the algorithm (default: the session runs
    /// [`Algorithm::Auto`]). The concrete algorithm that ends up running is
    /// recorded in [`crate::SearchStats::algorithm`].
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.spec.algorithm = algorithm;
        self
    }

    /// Sets the executor width for this query: `0` means auto
    /// ([`crate::auto_threads`]), `1` sequential. Results are identical at
    /// every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Replaces the full option set for this query (ablation toggles,
    /// threads, limits) instead of inheriting the session defaults.
    pub fn options(mut self, opts: DccsOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets this query's [`QueryLimits`] — deadline, candidate budget,
    /// dense-memory ceiling, degradation — overriding the session default
    /// carried on its [`DccsOptions`].
    pub fn limits(mut self, limits: QueryLimits) -> Self {
        self.opts.limits = limits;
        self
    }

    /// Overrides how this query derives its candidate cores (see
    /// [`Serve`]): `Auto` answers from the session's attached [`DccIndex`]
    /// when possible, `Peel` always re-peels, `Index` fails with
    /// [`DccsError::IndexUnavailable`] instead of falling back. The two
    /// paths are bit-identical; [`crate::SearchStats::serve`] records
    /// which one ran.
    pub fn serve(mut self, serve: Serve) -> Self {
        self.opts.serve = serve;
        self
    }

    /// Attaches a [`CancelToken`] to this query only, overriding the
    /// session-level token ([`DccsSession::set_cancel_token`]) if one is
    /// set.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Validates and executes the query on the session's engine state.
    ///
    /// Every parameter combination [`DccsParams::validate`] rejects — and an
    /// empty graph, and a blown [`Algorithm::Exact`] candidate budget —
    /// comes back as a typed [`DccsError`]; this entry point never panics on
    /// user input. A query bounded by [`QueryLimits`] (or cancelled through
    /// its token) that stops early returns the matching limit error with
    /// the best-so-far partial result attached, and a panicking engine task
    /// comes back as [`DccsError::TaskPanicked`] with the session still
    /// usable.
    pub fn run(self) -> Result<DccsResult, DccsError> {
        let session = self.session;
        let snapshot = session.service.snapshot();
        QueryService::check_on(&snapshot, &self.spec.params)?;
        let token = self.token.or_else(|| session.token.clone());
        session.service.run(&snapshot, &self.spec, &self.opts, token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{auto_threads, bottom_up_dccs, greedy_dccs, IndexPath, ServePath};
    use mlgraph::MultiLayerGraphBuilder;

    fn clique(b: &mut MultiLayerGraphBuilder, layer: usize, vs: &[u32]) {
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                b.add_edge(layer, vs[i], vs[j]).unwrap();
            }
        }
    }

    /// Four layers over 12 vertices with two planted coherent cliques.
    fn graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(12, 4);
        clique(&mut b, 0, &[0, 1, 2, 3]);
        clique(&mut b, 1, &[0, 1, 2, 3]);
        clique(&mut b, 2, &[4, 5, 6, 7]);
        clique(&mut b, 3, &[4, 5, 6, 7]);
        clique(&mut b, 1, &[8, 9, 10, 11]);
        b.build()
    }

    #[test]
    fn one_shot_query_matches_free_function() {
        let g = graph();
        let params = DccsParams::new(3, 2, 2);
        let mut session = DccsSession::new(&g);
        let via_session = session.query(params).algorithm(Algorithm::BottomUp).run().unwrap();
        let via_free = bottom_up_dccs(&g, &params);
        assert_eq!(via_session.cores, via_free.cores);
        assert_eq!(via_session.cover.to_vec(), via_free.cover.to_vec());
        assert_eq!(via_session.stats, via_free.stats);
    }

    #[test]
    fn session_reuse_across_a_sweep_is_bit_identical_to_fresh_sessions() {
        let g = graph();
        let mut session = DccsSession::new(&g);
        for algorithm in [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown] {
            // s-sweep at fixed d (memo + dense cache hits), then a d change.
            for (d, s, k) in [(2, 1, 2), (2, 2, 2), (2, 3, 1), (3, 2, 2), (2, 2, 3)] {
                let params = DccsParams::new(d, s, k);
                let swept = session.query(params).algorithm(algorithm).run().unwrap();
                let fresh = DccsSession::new(&g).query(params).algorithm(algorithm).run().unwrap();
                let label = format!("{} d={d} s={s} k={k}", algorithm.name());
                assert_eq!(swept.cores, fresh.cores, "{label}");
                assert_eq!(swept.cover.to_vec(), fresh.cover.to_vec(), "{label}");
                assert_eq!(swept.stats, fresh.stats, "{label}");
            }
        }
        // An identical repeat is computed again — sessions never read the
        // service's result cache — and only its preprocessing is memoized.
        let params = DccsParams::new(2, 2, 2);
        let first = session.query(params).run().unwrap();
        let repeat = session.query(params).run().unwrap();
        assert!(!repeat.stats.served_from_cache);
        assert!(repeat.stats.preprocess_memo_hit);
        assert_eq!(repeat.stats, first.stats);
    }

    #[test]
    fn auto_records_the_resolved_algorithm_in_stats() {
        let g = graph();
        let params = DccsParams::new(3, 2, 2);
        let mut session = DccsSession::new(&g);
        let result = session.query(params).run().unwrap(); // default = Auto
        let resolved = Algorithm::Auto.resolve(&g, &params);
        assert_ne!(resolved, Algorithm::Auto);
        assert_eq!(result.stats.algorithm, Some(resolved));
        // An explicit algorithm is recorded too.
        let explicit = session.query(params).algorithm(Algorithm::Greedy).run().unwrap();
        assert_eq!(explicit.stats.algorithm, Some(Algorithm::Greedy));
    }

    #[test]
    fn invalid_parameters_are_typed_errors_not_panics() {
        let g = graph();
        let mut session = DccsSession::new(&g);
        assert_eq!(
            session.query(DccsParams::new(2, 0, 2)).run().unwrap_err(),
            DccsError::SupportZero
        );
        assert_eq!(
            session.query(DccsParams::new(2, 9, 2)).run().unwrap_err(),
            DccsError::SupportExceedsLayers { s: 9, num_layers: 4 }
        );
        assert_eq!(
            session.query(DccsParams::new(2, 2, 0)).run().unwrap_err(),
            DccsError::ResultSizeZero
        );
        // The session stays usable after an error.
        assert!(session.query(DccsParams::new(2, 2, 2)).run().is_ok());
    }

    #[test]
    fn empty_graph_is_a_typed_error() {
        // A graph cannot have zero layers (the constructor rejects that),
        // but a zero-vertex graph is constructible — and unqueryable.
        let g = MultiLayerGraph::from_edge_lists(0, &[vec![]]).unwrap();
        let mut session = DccsSession::new(&g);
        assert_eq!(
            session.query(DccsParams::new(2, 1, 1)).run().unwrap_err(),
            DccsError::EmptyGraph { num_vertices: 0, num_layers: 1 }
        );
    }

    #[test]
    fn exact_budget_overflow_is_a_typed_error() {
        // 9 layers sharing one triangle: C(9, 2) = 36 > 24 non-empty
        // candidates blow the exact solver's budget.
        let mut b = MultiLayerGraphBuilder::new(3, 9);
        for layer in 0..9 {
            clique(&mut b, layer, &[0, 1, 2]);
        }
        let g = b.build();
        let mut session = DccsSession::new(&g);
        let err =
            session.query(DccsParams::new(2, 2, 1)).algorithm(Algorithm::Exact).run().unwrap_err();
        assert!(matches!(err, DccsError::BudgetExceeded { candidates: 36, limit: 24 }));
    }

    #[test]
    fn run_batch_matches_one_shot_queries_at_any_width() {
        let g = graph();
        let specs: Vec<QuerySpec> = [(2u32, 2usize, 2usize), (3, 2, 2), (2, 3, 1), (2, 2, 3)]
            .into_iter()
            .map(|(d, s, k)| QuerySpec::new(DccsParams::new(d, s, k)))
            .collect();
        let reference: Vec<DccsResult> = specs
            .iter()
            .map(|spec| DccsSession::new(&g).query(spec.params).run().unwrap())
            .collect();
        for threads in [1usize, 4] {
            let mut session = DccsSession::with_options(&g, DccsOptions::with_threads(threads));
            let batch = session.run_batch(&specs).unwrap();
            assert_eq!(batch.len(), reference.len());
            for (got, want) in batch.iter().zip(&reference) {
                let got = got.as_ref().expect("no limits in force, every spec succeeds");
                assert_eq!(got.cores, want.cores, "threads={threads}");
                assert_eq!(got.cover.to_vec(), want.cover.to_vec(), "threads={threads}");
                assert_eq!(got.stats, want.stats, "threads={threads}");
            }
        }
    }

    #[test]
    fn run_batch_rejects_the_whole_batch_on_one_invalid_spec() {
        let g = graph();
        let specs =
            [QuerySpec::new(DccsParams::new(2, 2, 2)), QuerySpec::new(DccsParams::new(2, 99, 2))];
        let mut session = DccsSession::new(&g);
        assert_eq!(
            session.run_batch(&specs).unwrap_err(),
            DccsError::SupportExceedsLayers { s: 99, num_layers: 4 }
        );
    }

    #[test]
    fn zero_threads_means_auto_and_changes_no_result() {
        assert_eq!(auto_threads(1), 1);
        assert_eq!(auto_threads(4), 4);
        assert!(auto_threads(0) >= 1, "auto must resolve to at least one worker");
        let g = graph();
        let params = DccsParams::new(2, 2, 2);
        let seq = DccsSession::new(&g).query(params).threads(1).run().unwrap();
        let auto = DccsSession::new(&g).query(params).threads(0).run().unwrap();
        assert_eq!(seq.cores, auto.cores);
        assert_eq!(seq.stats, auto.stats);
    }

    #[test]
    fn query_spec_defaults_to_auto() {
        let spec = QuerySpec::new(DccsParams::new(2, 2, 2));
        assert_eq!(spec.algorithm, Algorithm::Auto);
        let pinned = spec.with_algorithm(Algorithm::TopDown);
        assert_eq!(pinned.algorithm, Algorithm::TopDown);
        assert_eq!(pinned.params, spec.params);
    }

    #[test]
    fn unlimited_query_results_are_flagged_complete() {
        let g = graph();
        let result = DccsSession::new(&g).query(DccsParams::new(2, 2, 2)).run().unwrap();
        assert!(result.stats.complete);
        assert_eq!(result.stats.limit_hit, None);
        assert_eq!(result.stats.degraded_from, None);
    }

    #[test]
    fn zero_deadline_returns_deadline_exceeded_with_a_partial() {
        let g = graph();
        let mut session = DccsSession::new(&g);
        let limits = QueryLimits::none().with_deadline(std::time::Duration::ZERO);
        let err = session
            .query(DccsParams::new(2, 2, 2))
            .algorithm(Algorithm::Greedy)
            .limits(limits)
            .run()
            .unwrap_err();
        assert!(matches!(err, DccsError::DeadlineExceeded { .. }), "got {err:?}");
        let partial = err.partial().expect("deadline errors carry the partial");
        assert!(!partial.stats.complete);
        assert_eq!(partial.stats.limit_hit, Some(crate::LimitKind::Deadline));
        // The session answers an unlimited rerun of the same spec exactly.
        let clean = session.query(DccsParams::new(2, 2, 2)).algorithm(Algorithm::Greedy).run();
        let fresh =
            DccsSession::new(&g).query(DccsParams::new(2, 2, 2)).algorithm(Algorithm::Greedy).run();
        assert_eq!(clean.unwrap().stats, fresh.unwrap().stats);
    }

    #[test]
    fn pre_tripped_token_cancels_and_session_survives() {
        let g = graph();
        let mut session = DccsSession::new(&g);
        let token = CancelToken::new();
        token.cancel();
        let err = session.query(DccsParams::new(2, 2, 2)).cancel_token(token).run().unwrap_err();
        assert!(matches!(err, DccsError::Cancelled { .. }), "got {err:?}");
        // The per-query token does not stick to the session.
        assert!(session.query(DccsParams::new(2, 2, 2)).run().is_ok());
    }

    #[test]
    fn session_token_applies_to_every_query_until_detached() {
        let g = graph();
        let mut session = DccsSession::new(&g);
        let token = CancelToken::new();
        session.set_cancel_token(Some(token.clone()));
        assert!(session.query(DccsParams::new(2, 2, 2)).run().is_ok(), "untripped token");
        token.cancel();
        let err = session.query(DccsParams::new(2, 2, 2)).run().unwrap_err();
        assert!(matches!(err, DccsError::Cancelled { .. }), "got {err:?}");
        session.set_cancel_token(None);
        assert!(session.query(DccsParams::new(2, 2, 2)).run().is_ok());
    }

    #[test]
    fn candidate_budget_applies_to_approximation_algorithms() {
        let g = graph();
        let mut session = DccsSession::new(&g);
        // C(4, 2) = 6 subsets; a budget of 2 trips mid-walk.
        let limits = QueryLimits::none().with_candidate_budget(2);
        let err = session
            .query(DccsParams::new(2, 2, 2))
            .algorithm(Algorithm::Greedy)
            .limits(limits)
            .run()
            .unwrap_err();
        match err {
            DccsError::BudgetExceeded { candidates, limit } => {
                assert_eq!(limit, 2);
                assert!(candidates > 2, "the tripping charge is counted: {candidates}");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn exact_degrades_to_greedy_when_opted_in() {
        // Same construction as exact_budget_overflow_is_a_typed_error: 36
        // candidates blow the exact solver's 24-candidate gate.
        let mut b = MultiLayerGraphBuilder::new(3, 9);
        for layer in 0..9 {
            clique(&mut b, layer, &[0, 1, 2]);
        }
        let g = b.build();
        let mut session = DccsSession::new(&g);
        let params = DccsParams::new(2, 2, 1);
        let degraded = session
            .query(params)
            .algorithm(Algorithm::Exact)
            .limits(QueryLimits::none().with_degrade())
            .run()
            .expect("degradation turns the budget error into a greedy result");
        assert_eq!(degraded.stats.algorithm, Some(Algorithm::Greedy));
        assert_eq!(degraded.stats.degraded_from, Some(Algorithm::Exact));
        assert!(degraded.stats.complete);
        let reference = session.query(params).algorithm(Algorithm::Greedy).run().unwrap();
        assert_eq!(degraded.cores, reference.cores);
        // Without the opt-in the same query still fails.
        let err = session.query(params).algorithm(Algorithm::Exact).run().unwrap_err();
        assert!(matches!(err, DccsError::BudgetExceeded { candidates: 36, limit: 24 }));
    }

    #[test]
    fn forced_dense_over_the_memory_ceiling_is_a_typed_error() {
        let g = graph();
        let params = DccsParams::new(2, 2, 2);
        let ceiling = QueryLimits::none().with_max_dense_words(0);
        for algorithm in [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown] {
            let mut session = DccsSession::with_options(
                &g,
                DccsOptions { index: crate::IndexChoice::Dense, ..DccsOptions::default() },
            );
            let err = session.query(params).algorithm(algorithm).limits(ceiling).run().unwrap_err();
            match &err {
                DccsError::MemoryLimit { required_words, limit_words, .. } => {
                    assert!(*required_words > 0);
                    assert_eq!(*limit_words, 0);
                }
                other => panic!("{}: expected MemoryLimit, got {other:?}", algorithm.name()),
            }
            // Auto index under the same ceiling silently uses CSR instead,
            // with the unlimited answer.
            let mut auto = DccsSession::new(&g);
            let unlimited = auto.query(params).algorithm(algorithm).run().unwrap();
            let ok = auto
                .query(params)
                .algorithm(algorithm)
                .limits(ceiling)
                .run()
                .expect("auto falls back to CSR");
            assert!(ok.stats.complete);
            assert_eq!(ok.stats.index_path, Some(IndexPath::Csr), "{}", algorithm.name());
            assert_eq!(ok.cores, unlimited.cores, "{}", algorithm.name());
            assert_eq!(ok.cover.to_vec(), unlimited.cover.to_vec(), "{}", algorithm.name());
        }
    }

    #[test]
    fn auto_serves_from_the_attached_index_and_pins_the_path() {
        let g = graph();
        let mut session = DccsSession::new(&g);
        let params = DccsParams::new(3, 2, 2);
        // Before any index is attached, everything peels.
        let peeled = session.query(params).algorithm(Algorithm::Greedy).run().unwrap();
        assert_eq!(peeled.stats.serve, Some(ServePath::Peel));
        let index = session.build_index(&[3], 0);
        session.attach_index(index).unwrap();
        // Auto algorithm + Auto serve: answered from the index as greedy.
        let served = session.query(params).run().unwrap();
        assert_eq!(served.stats.serve, Some(ServePath::Index));
        assert_eq!(served.stats.algorithm, Some(Algorithm::Greedy));
        assert_eq!(served.stats.dcc_calls, 0, "the index path must not peel");
        assert_eq!(served.cores, peeled.cores);
        assert_eq!(served.cover.to_vec(), peeled.cover.to_vec());
        assert_eq!(served.stats.candidates_generated, peeled.stats.candidates_generated);
        assert_eq!(served.stats.updates_accepted, peeled.stats.updates_accepted);
        // A d the index does not cover falls back to peeling under Auto.
        let fallback =
            session.query(DccsParams::new(2, 2, 2)).algorithm(Algorithm::Greedy).run().unwrap();
        assert_eq!(fallback.stats.serve, Some(ServePath::Peel));
        // Serve::Peel ignores the attached index.
        let repeeled =
            session.query(params).algorithm(Algorithm::Greedy).serve(Serve::Peel).run().unwrap();
        assert_eq!(repeeled.stats.serve, Some(ServePath::Peel));
        assert_eq!(repeeled.stats, peeled.stats);
    }

    #[test]
    fn forced_index_serving_reports_typed_unavailability() {
        let g = graph();
        let mut session = DccsSession::new(&g);
        let params = DccsParams::new(2, 2, 2);
        // No index attached.
        let err = session.query(params).serve(Serve::Index).run().unwrap_err();
        assert!(matches!(err, DccsError::IndexUnavailable { .. }), "got {err:?}");
        // Index attached but (d, s) not covered (only s == 1 stored).
        let index = session.build_index(&[2], 1);
        session.attach_index(index).unwrap();
        let err = session.query(params).serve(Serve::Index).run().unwrap_err();
        assert!(matches!(err, DccsError::IndexUnavailable { .. }), "got {err:?}");
        // An explicit non-greedy algorithm cannot be served.
        let err = session
            .query(DccsParams::new(2, 1, 2))
            .algorithm(Algorithm::BottomUp)
            .serve(Serve::Index)
            .run()
            .unwrap_err();
        assert!(matches!(err, DccsError::IndexUnavailable { .. }), "got {err:?}");
        // The covered entry serves, and the session stays usable throughout.
        let ok = session.query(DccsParams::new(2, 1, 2)).serve(Serve::Index).run().unwrap();
        assert_eq!(ok.stats.serve, Some(ServePath::Index));
    }

    #[test]
    fn serve_peel_ignores_the_attached_index() {
        let g = graph();
        let mut session = DccsSession::new(&g);
        let index = session.build_index(&[2], 0);
        session.attach_index(index).unwrap();
        let peel = session.query(DccsParams::new(2, 2, 2)).serve(Serve::Peel).run().unwrap();
        assert_eq!(peel.stats.serve, Some(ServePath::Peel));
        assert!(peel.stats.dcc_calls > 0, "Serve::Peel must actually peel");
        let served = session.query(DccsParams::new(2, 2, 2)).serve(Serve::Index).run().unwrap();
        assert_eq!(served.cores, peel.cores);
        assert_eq!(served.cover.to_vec(), peel.cover.to_vec());
    }

    #[test]
    fn mismatched_index_is_rejected_at_attach() {
        let g = graph();
        let mut other = MultiLayerGraphBuilder::new(12, 4);
        clique(&mut other, 0, &[0, 1, 2]);
        let other = other.build();
        let foreign = DccIndex::build(&other, &[2], 0);
        let mut session = DccsSession::new(&g);
        let err = session.attach_index(foreign).unwrap_err();
        assert!(matches!(err, DccsError::IndexUnavailable { .. }), "got {err:?}");
        assert!(session.index().is_none());
    }

    #[test]
    fn batch_queries_serve_from_the_index_at_any_width() {
        let g = graph();
        let specs: Vec<QuerySpec> = [(2u32, 2usize, 2usize), (3, 2, 2), (2, 3, 1)]
            .into_iter()
            .map(|(d, s, k)| QuerySpec::new(DccsParams::new(d, s, k)))
            .collect();
        // Serving resolves Auto to greedy, so the peel reference pins it.
        let reference: Vec<DccsResult> = specs
            .iter()
            .map(|spec| {
                DccsSession::new(&g).query(spec.params).algorithm(Algorithm::Greedy).run().unwrap()
            })
            .collect();
        for threads in [1usize, 4] {
            let mut session = DccsSession::with_options(&g, DccsOptions::with_threads(threads));
            let index = session.build_index(&[2, 3], 0);
            session.attach_index(index).unwrap();
            let batch = session.run_batch(&specs).unwrap();
            for (got, want) in batch.iter().zip(&reference) {
                let got = got.as_ref().unwrap();
                assert_eq!(got.stats.serve, Some(ServePath::Index), "threads={threads}");
                assert_eq!(got.cores, want.cores, "threads={threads}");
                assert_eq!(got.cover.to_vec(), want.cover.to_vec(), "threads={threads}");
            }
        }
    }

    #[test]
    fn greedy_via_session_matches_greedy_free_function() {
        let g = graph();
        let params = DccsParams::new(2, 2, 2);
        let via_session =
            DccsSession::new(&g).query(params).algorithm(Algorithm::Greedy).run().unwrap();
        let via_free = greedy_dccs(&g, &params);
        assert_eq!(via_session.cores, via_free.cores);
        assert_eq!(via_session.stats, via_free.stats);
    }
}
