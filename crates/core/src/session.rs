//! The session-based query API — the crate's primary public surface.
//!
//! The paper's workload is *sweep-shaped*: its experiments vary `d`, `s`,
//! and `k` over a fixed graph (Figs. 14–25), and a production deployment
//! serves many queries against one loaded graph. A [`DccsSession`] is the
//! durable handle for that pattern: constructed once per graph, it owns the
//! long-lived engine state — the [`SearchContext`] with the driver's
//! `PeelWorkspace`, the reused cover/seed buffers, the universe-keyed
//! `DenseSubgraph` cache, and the per-`d` layer-core and per-`(d, s)`
//! deletion-fixpoint memos — so consecutive queries reuse everything a
//! fresh run would have to rebuild, while returning **bit-identical
//! results** to one-shot calls (the caches only skip recomputing
//! deterministic intermediates; enforced by
//! `crates/core/tests/session_sweep.rs` and
//! `crates/core/tests/fixpoint_memo.rs`).
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
//! queries of a sweep out over the session's **persistent** worker crew
//! (each query runs sequentially on one worker, so per-query results — and
//! their work counters — are exactly the 1-thread results, in submission
//! order).
//!
//! # Single-crew queries
//!
//! The session keeps one [`PersistentPool`] (spawned on the first query
//! that wants more than one thread) and threads it through preprocessing
//! *and* the search of every query, so neither phase — nor any later
//! query at the same width — pays a worker spawn/join. The crew is
//! re-created only when a query asks for a different width and joined on
//! drop.
//!
//! # Threads
//!
//! A query's `threads` knob selects the width of the shared executor — the
//! fork-join batches of preprocessing and the lattice, and the BU/TD
//! subtree task graphs ([`crate::engine::drive_task_graph`]) — and nothing
//! else: results are bit-identical at every width. The value `0` means
//! **auto** (`available_parallelism`, via [`auto_threads`]) everywhere in
//! the session API; the legacy free functions (`*_with_options`,
//! [`crate::parallel_greedy_dccs`]) keep their historical `0 ≡ 1`
//! (sequential) reading, so existing call sites run exactly as they always
//! did.

use crate::algorithm::Algorithm;
use crate::bottom_up::bottom_up_dccs_on;
use crate::config::{DccsOptions, DccsParams};
use crate::engine::{effective_threads, PersistentPool, PoolRef, SearchContext};
use crate::error::DccsError;
use crate::exact::exact_dccs_on;
use crate::fault::{self, site};
use crate::greedy::greedy_dccs_on;
use crate::limits::{CancelToken, LimitKind, QueryLimits, QueryMonitor};
use crate::result::DccsResult;
use crate::serve::{serve_from_index_on, DccIndex, Serve, ServePath};
use crate::service::GraphSnapshot;
use crate::top_down::top_down_dccs_on;
use coreness::PeelWorkspace;
use mlgraph::MultiLayerGraph;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Resolves the `threads` knob of the session API: `0` means **auto** —
/// `std::thread::available_parallelism()` (falling back to 1 when the
/// platform cannot report it) — while any other value is taken literally
/// (`1` stays sequential). The direct entry points (`*_with_options`) keep
/// the legacy behavior of treating `0` as `1`.
pub fn auto_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

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
    /// The session's epoch-versioned shared tier ([`GraphSnapshot`]): the
    /// layer-core, fixpoint and index-plan memos live here (installed
    /// into every context the session runs queries on, including fresh
    /// batch-job contexts), and the attached [`DccIndex`] is mirrored into
    /// it — so a session *is* a single-tenant
    /// [`crate::service::QueryService`] client over its own snapshot, and
    /// [`DccsSession::snapshot`] hands the same tier to concurrent readers.
    snapshot: Arc<GraphSnapshot<'g>>,
    ctx: SearchContext,
    opts: DccsOptions,
    /// The session's persistent worker crew ([`PersistentPool`]): spawned
    /// on the first query that wants more than one thread, then threaded
    /// through preprocessing and search of **every** subsequent query (and
    /// through whole `run_batch` sweeps), so repeated small queries stop
    /// paying a worker spawn/join per phase. Re-created only when a query
    /// asks for a different width; `None` while every query has been
    /// sequential.
    crew: Option<PersistentPool>,
    /// The externally shared kill switch attached to every query of this
    /// session (see [`DccsSession::set_cancel_token`]); `None` by default.
    token: Option<CancelToken>,
    /// The attached precomputed d-CC hierarchy ([`DccIndex`]), fingerprint-
    /// validated against `g` at attach time. Shared by `Arc` so batch jobs
    /// on the crew read it without copying. `None` until
    /// [`DccsSession::attach_index`]; queries then serve from it per the
    /// [`Serve`] knob.
    index: Option<Arc<DccIndex>>,
}

impl<'g> DccsSession<'g> {
    /// A session over `g` with default [`DccsOptions`] (all preprocessing
    /// and pruning on, sequential execution).
    pub fn new(g: &'g MultiLayerGraph) -> Self {
        DccsSession::with_options(g, DccsOptions::default())
    }

    /// A session over `g` whose queries default to `opts`. An `opts.threads`
    /// of `0` means auto ([`auto_threads`]).
    pub fn with_options(g: &'g MultiLayerGraph, opts: DccsOptions) -> Self {
        let snapshot = GraphSnapshot::new(g);
        let mut ctx = SearchContext::new(auto_threads(opts.threads));
        ctx.set_index_choice(opts.index);
        ctx.set_shared(Some(snapshot.state().clone()));
        DccsSession { g, snapshot, ctx, opts, crew: None, token: None, index: None }
    }

    /// The session's epoch-versioned [`GraphSnapshot`] — the shared
    /// immutable tier its queries run against. Hand a clone of the `Arc` to
    /// a [`crate::service::QueryService`] (or another session-free reader)
    /// to share the preprocessing work this session has already paid for.
    pub fn snapshot(&self) -> &Arc<GraphSnapshot<'g>> {
        &self.snapshot
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

    /// The graph this session queries.
    pub fn graph(&self) -> &'g MultiLayerGraph {
        self.g
    }

    /// The session's default options (per-query overrides go through the
    /// [`Query`] builder).
    pub fn options(&self) -> &DccsOptions {
        &self.opts
    }

    /// Builds a [`DccIndex`] for the session's graph on its persistent
    /// crew (spawned on demand at the session's thread width), covering
    /// every requested `d` for subset sizes `1..=max_s` (`max_s == 0`
    /// means all subset sizes). The index is returned, not attached —
    /// save it with [`DccIndex::save`] and/or hand it to
    /// [`DccsSession::attach_index`].
    pub fn build_index(&mut self, ds: &[u32], max_s: usize) -> DccIndex {
        let threads = auto_threads(self.opts.threads);
        self.ensure_crew(threads);
        let g = self.g;
        match &mut self.crew {
            Some(crew) => DccIndex::build_on(g, ds, max_s, &crew.pool_ref()),
            None => crate::engine::with_pool(1, |pool| DccIndex::build_on(g, ds, max_s, pool)),
        }
    }

    /// Attaches `index` after validating its fingerprint against the
    /// session's graph ([`DccIndex::matches`]); a mismatched index is
    /// rejected with [`DccsError::IndexUnavailable`] and nothing is
    /// attached. Subsequent queries consult the index per the [`Serve`]
    /// knob on their options.
    pub fn attach_index(&mut self, index: DccIndex) -> Result<(), DccsError> {
        index.matches(self.g)?;
        let index = Arc::new(index);
        self.snapshot.install_index(Some(index.clone()));
        self.index = Some(index);
        Ok(())
    }

    /// Detaches the index; subsequent queries always peel.
    pub fn detach_index(&mut self) {
        self.snapshot.install_index(None);
        self.index = None;
    }

    /// The attached index, if any.
    pub fn index(&self) -> Option<&DccIndex> {
        self.index.as_deref()
    }

    /// Starts building a query for `params`. Nothing runs until
    /// [`Query::run`].
    pub fn query(&mut self, params: DccsParams) -> Query<'_, 'g> {
        let opts = self.opts;
        Query { session: self, spec: QuerySpec::new(params), opts, token: None }
    }

    /// Checks that the graph is non-empty and `params` are valid for it.
    fn check(&self, params: &DccsParams) -> Result<(), DccsError> {
        let (n, l) = (self.g.num_vertices(), self.g.num_layers());
        if n == 0 || l == 0 {
            return Err(DccsError::EmptyGraph { num_vertices: n, num_layers: l });
        }
        params.validate(l)
    }

    /// Makes sure the persistent crew matches `threads` (after the CI
    /// forcing override); sequential queries never spawn one. An existing
    /// crew of a different width is torn down and replaced — sweeps at a
    /// fixed width, the common case, reuse one crew for their lifetime.
    fn ensure_crew(&mut self, threads: usize) {
        let effective = effective_threads(threads);
        if effective <= 1 {
            return;
        }
        if self.crew.as_ref().is_none_or(|crew| crew.threads() != effective) {
            self.crew = Some(PersistentPool::new(effective));
        }
    }

    /// Runs one validated query on the session context and the persistent
    /// crew. `opts.threads` must already be resolved (≥ 1).
    fn run_checked(
        &mut self,
        spec: &QuerySpec,
        opts: &DccsOptions,
    ) -> Result<DccsResult, DccsError> {
        self.ctx.set_threads(opts.threads);
        self.ctx.set_index_choice(opts.index);
        let parallel = effective_threads(opts.threads) > 1;
        if parallel {
            self.ensure_crew(opts.threads);
        }
        let token = self.token.clone();
        let index = self.index.clone();
        let index = IndexState::from_option(index.as_deref());
        let epoch = self.snapshot.epoch();
        let ctx = &mut self.ctx;
        let g = self.g;
        let result = match &mut self.crew {
            // A sequential query must not fan out on a crew left over from
            // an earlier wider query — the crew stays alive (a later wide
            // query reuses it) but this query bypasses it.
            Some(crew) if parallel => {
                run_spec_monitored(ctx, &crew.pool_ref(), g, spec, opts, token, index)
            }
            // Truly sequential (no forcing either): a width-1 scoped pool
            // spawns no thread and runs every batch inline.
            _ => crate::engine::with_pool(1, |pool| {
                run_spec_monitored(ctx, pool, g, spec, opts, token, index)
            }),
        };
        result.map(|mut result| {
            result.stats.graph_epoch = Some(epoch);
            result
        })
    }

    /// Runs a whole sweep through **one** executor crew.
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
    /// run in order on the session context, compounding its caches. With
    /// more threads, the session's persistent crew serves the entire batch
    /// and each query becomes one job, executed sequentially on one worker —
    /// inter-query parallelism, which is where a sweep's wall-clock actually
    /// goes. Either way each result is bit-identical to running its spec as
    /// a one-shot query (per-query execution is thread-invariant).
    #[allow(clippy::type_complexity)]
    pub fn run_batch(
        &mut self,
        specs: &[QuerySpec],
    ) -> Result<Vec<Result<DccsResult, DccsError>>, DccsError> {
        for spec in specs {
            self.check(&spec.params)?;
        }
        let threads = auto_threads(self.opts.threads);
        if threads <= 1 || specs.len() <= 1 {
            let opts = DccsOptions { threads, ..self.opts };
            let outcomes = specs
                .iter()
                .map(|spec| {
                    match catch_unwind(AssertUnwindSafe(|| {
                        fault::check(site::BATCH_QUERY);
                        self.run_checked(spec, &opts)
                    })) {
                        Ok(outcome) => outcome,
                        Err(payload) => Err(panic_to_error(None, payload.as_ref())),
                    }
                })
                .collect();
            return Ok(outcomes);
        }
        // The persistent crew serves the whole sweep; each query is one
        // sequential job, so its result (and stats) equal the 1-thread run
        // by construction. Each job catches its own panics: a dying query
        // becomes a `TaskPanicked` in its slot instead of sinking the sweep.
        self.ensure_crew(threads);
        let g = self.g;
        let token = self.token.clone();
        let index = self.index.clone();
        let shared = self.snapshot.state().clone();
        let epoch = self.snapshot.epoch();
        let opts = DccsOptions { threads: 1, ..self.opts };
        let crew = self.crew.as_mut().expect("ensure_crew spawns for threads > 1");
        let jobs: Vec<_> = specs
            .iter()
            .map(|&spec| {
                let opts = &opts;
                let token = token.clone();
                let index = index.clone();
                let shared = shared.clone();
                move |_ws: &mut PeelWorkspace| match catch_unwind(AssertUnwindSafe(|| {
                    fault::check(site::BATCH_QUERY);
                    let mut ctx = SearchContext::new(1);
                    ctx.set_index_choice(opts.index);
                    ctx.set_shared(Some(shared));
                    crate::engine::with_pool(1, |pool| {
                        let index = IndexState::from_option(index.as_deref());
                        run_spec_monitored(&mut ctx, pool, g, &spec, opts, token, index)
                    })
                })) {
                    Ok(outcome) => outcome,
                    Err(payload) => Err(panic_to_error(None, payload.as_ref())),
                }
            })
            .collect();
        let mut outcomes = crew.pool_ref().map(&mut self.ctx.ws, jobs);
        for result in outcomes.iter_mut().flatten() {
            result.stats.graph_epoch = Some(epoch);
        }
        Ok(outcomes)
    }
}

/// What the dispatch layer knows about the caller's [`DccIndex`] — richer
/// than `Option<&DccIndex>` so serve routing can distinguish "never
/// attached" from "attached, then outdated by a mutation commit"
/// ([`crate::QueryService::commit`]) and report the latter as the typed
/// [`DccsError::IndexStale`] instead of a generic unavailability.
#[derive(Clone, Copy, Debug)]
pub(crate) enum IndexState<'a> {
    /// No index attached; [`Serve::Index`] queries fail unavailable.
    Absent,
    /// An index was attached but a committed mutation batch advanced the
    /// graph past the epoch it was built for, auto-detaching it;
    /// [`Serve::Index`] queries fail with [`DccsError::IndexStale`] while
    /// [`Serve::Auto`] silently peels.
    Stale {
        /// Epoch of the graph version the index was valid for.
        index_epoch: u64,
        /// Epoch of the graph version the query runs against.
        graph_epoch: u64,
    },
    /// A fingerprint-validated index for the current graph version.
    Ready(&'a DccIndex),
}

impl<'a> IndexState<'a> {
    /// The static-graph embedding: sessions never outdate their index, so
    /// an attached index is always [`IndexState::Ready`].
    pub(crate) fn from_option(index: Option<&'a DccIndex>) -> Self {
        match index {
            Some(index) => IndexState::Ready(index),
            None => IndexState::Absent,
        }
    }

    /// The usable index, if any.
    fn get(&self) -> Option<&'a DccIndex> {
        match self {
            IndexState::Ready(index) => Some(index),
            _ => None,
        }
    }
}

/// Dispatches one spec on an existing context and executor crew — the
/// single place the algorithm match lives, shared by the session's
/// single-query and batch paths. The caller has already validated the spec
/// and configured the context's thread count and index override; the crew
/// is threaded through preprocessing and the search (the single-crew query
/// path).
///
/// Serve routing lives here too: per `opts.serve`, a greedy-compatible
/// query whose `(d, s)` the attached [`DccIndex`] covers is answered by
/// [`serve_from_index_on`] — hierarchy lookups feeding the same selection
/// engine, no re-peeling — and every peeled result is stamped
/// [`ServePath::Peel`]. Only [`Algorithm::Greedy`] (or [`Algorithm::Auto`],
/// which the index resolves to greedy) can serve: the search-tree
/// algorithms interleave pruning with candidate generation and have no
/// precomputed form.
fn run_spec_on_pool(
    ctx: &mut SearchContext,
    pool: &PoolRef<'_>,
    g: &MultiLayerGraph,
    spec: &QuerySpec,
    opts: &DccsOptions,
    index: IndexState<'_>,
) -> Result<DccsResult, DccsError> {
    let greedy_compatible = matches!(spec.algorithm, Algorithm::Auto | Algorithm::Greedy);
    let serving = match opts.serve {
        Serve::Peel => false,
        Serve::Auto => {
            greedy_compatible
                && index.get().is_some_and(|ix| ix.covers(spec.params.d, spec.params.s))
        }
        Serve::Index => {
            let ix = match index {
                IndexState::Ready(ix) => ix,
                IndexState::Stale { index_epoch, graph_epoch } => {
                    return Err(DccsError::IndexStale { index_epoch, graph_epoch })
                }
                IndexState::Absent => {
                    return Err(DccsError::IndexUnavailable {
                        message: "no index attached to the session".into(),
                    })
                }
            };
            if !greedy_compatible {
                return Err(DccsError::IndexUnavailable {
                    message: format!(
                        "the index serves greedy selection; explicit {} queries must peel",
                        spec.algorithm.name()
                    ),
                });
            }
            if !ix.covers(spec.params.d, spec.params.s) {
                return Err(DccsError::IndexUnavailable {
                    message: format!(
                        "the index has no entry for (d={}, s={})",
                        spec.params.d, spec.params.s
                    ),
                });
            }
            true
        }
    };
    if serving {
        let index = index.get().expect("serving implies a ready index");
        return Ok(serve_from_index_on(ctx, g, index, &spec.params));
    }
    let algorithm = spec.algorithm.resolve(g, &spec.params);
    let mut result = match algorithm {
        Algorithm::Greedy => greedy_dccs_on(ctx, pool, g, &spec.params, opts),
        Algorithm::BottomUp => bottom_up_dccs_on(ctx, pool, g, &spec.params, opts),
        Algorithm::TopDown => top_down_dccs_on(ctx, pool, g, &spec.params, opts),
        Algorithm::Exact => exact_dccs_on(ctx, pool, g, &spec.params, opts)?,
        Algorithm::Auto => unreachable!("resolve never returns Auto"),
    };
    result.stats.serve = Some(ServePath::Peel);
    Ok(result)
}

/// [`run_spec_on_pool`] under the query's limits and panic isolation, plus
/// the opt-in degradation ladder: an explicit [`Algorithm::Exact`] query
/// that blows its candidate budget is rerun as [`Algorithm::Greedy`] (with
/// whatever wall-clock remains) when [`QueryLimits::degrade`] is set, and
/// the fallback is recorded in [`crate::SearchStats::degraded_from`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_spec_monitored(
    ctx: &mut SearchContext,
    pool: &PoolRef<'_>,
    g: &MultiLayerGraph,
    spec: &QuerySpec,
    opts: &DccsOptions,
    token: Option<CancelToken>,
    index: IndexState<'_>,
) -> Result<DccsResult, DccsError> {
    let query_start = Instant::now();
    let result = dispatch_limited(ctx, pool, g, spec, opts, token.clone(), index);
    let degradable = opts.limits.degrade
        && matches!(result, Err(DccsError::BudgetExceeded { .. }))
        && spec.algorithm.resolve(g, &spec.params) == Algorithm::Exact;
    if !degradable {
        return result;
    }
    // The retry keeps every limit; only the deadline needs re-anchoring, to
    // the wall-clock the original query has left (a fallback must not grant
    // itself a second full time budget).
    let mut retry_limits = opts.limits;
    if let Some(budget) = retry_limits.deadline {
        retry_limits.deadline = Some(budget.saturating_sub(query_start.elapsed()));
    }
    let retry_opts = DccsOptions { limits: retry_limits, ..*opts };
    let retry_spec = QuerySpec { params: spec.params, algorithm: Algorithm::Greedy };
    dispatch_limited(ctx, pool, g, &retry_spec, &retry_opts, token, index).map(|mut result| {
        result.stats.degraded_from = Some(Algorithm::Exact);
        result
    })
}

/// One monitored dispatch attempt: compiles the limits and token into a
/// [`QueryMonitor`] (skipped entirely for unlimited, token-less queries),
/// installs it on the context for the duration of the run, converts a
/// flagged-incomplete result into the matching typed error carrying the
/// partial, and converts a panicking engine task into
/// [`DccsError::TaskPanicked`] — replacing the context wholesale, since a
/// panic can leave mid-query state behind, so the session stays usable.
#[allow(clippy::too_many_arguments)]
fn dispatch_limited(
    ctx: &mut SearchContext,
    pool: &PoolRef<'_>,
    g: &MultiLayerGraph,
    spec: &QuerySpec,
    opts: &DccsOptions,
    token: Option<CancelToken>,
    index: IndexState<'_>,
) -> Result<DccsResult, DccsError> {
    let limited = !opts.limits.is_unlimited() || token.is_some();
    let monitor =
        if limited { Some(Arc::new(QueryMonitor::new(&opts.limits, token))) } else { None };
    ctx.set_monitor(monitor.clone());
    let outcome =
        catch_unwind(AssertUnwindSafe(|| run_spec_on_pool(ctx, pool, g, spec, opts, index)));
    let result = match outcome {
        Ok(result) => {
            ctx.set_monitor(None);
            result?
        }
        Err(payload) => {
            // The panic unwound through mid-query engine state; rebuild the
            // context (same width, index override, and shared tier) rather
            // than trusting whatever the unwind left behind. The shared
            // tier survives by design: its entries are only ever installed
            // whole, so a mid-query panic cannot leave one half-built.
            let threads = ctx.threads();
            let shared = ctx.shared().cloned();
            *ctx = SearchContext::new(threads);
            ctx.set_index_choice(opts.index);
            ctx.set_shared(shared);
            return Err(panic_to_error(pool.take_last_panic(), payload.as_ref()));
        }
    };
    if result.stats.complete {
        return Ok(result);
    }
    let monitor = monitor.expect("an incomplete result implies a monitor was installed");
    let partial = Box::new(result);
    Err(match partial.stats.limit_hit {
        Some(LimitKind::Deadline) => DccsError::DeadlineExceeded {
            deadline: opts.limits.deadline.unwrap_or_default(),
            partial,
        },
        Some(LimitKind::Cancelled) => DccsError::Cancelled { partial },
        Some(LimitKind::CandidateBudget) => DccsError::BudgetExceeded {
            candidates: monitor.candidates(),
            limit: monitor.candidate_budget().unwrap_or(0),
        },
        Some(LimitKind::DenseMemory) => {
            let (required_words, limit_words) = monitor.dense_memory();
            DccsError::MemoryLimit { required_words, limit_words, partial }
        }
        None => unreachable!("complete == false implies limit_hit is set"),
    })
}

/// Builds the [`DccsError::TaskPanicked`] for a caught engine panic,
/// preferring the message a pool worker parked (the original panic, not the
/// driver's generic "job died" rethrow) over the caught payload itself.
pub(crate) fn panic_to_error(
    worker_message: Option<String>,
    payload: &(dyn std::any::Any + Send),
) -> DccsError {
    let message = worker_message
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    DccsError::TaskPanicked { message }
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
    /// ([`auto_threads`]), `1` sequential. Results are identical at every
    /// thread count.
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
        self.session.check(&self.spec.params)?;
        let opts = DccsOptions { threads: auto_threads(self.opts.threads), ..self.opts };
        if let Some(token) = self.token {
            // A per-query token substitutes for the session token for this
            // run only.
            let saved = self.session.token.take();
            self.session.token = Some(token);
            let result = self.session.run_checked(&self.spec, &opts);
            self.session.token = saved;
            return result;
        }
        self.session.run_checked(&self.spec, &opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bottom_up_dccs, greedy_dccs};
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
        let mut session = DccsSession::with_options(
            &g,
            DccsOptions { index: crate::IndexChoice::Dense, ..DccsOptions::default() },
        );
        let err = session
            .query(DccsParams::new(2, 2, 2))
            .algorithm(Algorithm::Greedy)
            .limits(QueryLimits::none().with_max_dense_words(0))
            .run()
            .unwrap_err();
        match &err {
            DccsError::MemoryLimit { required_words, limit_words, .. } => {
                assert!(*required_words > 0);
                assert_eq!(*limit_words, 0);
            }
            other => panic!("expected MemoryLimit, got {other:?}"),
        }
        // Auto index under the same ceiling silently uses CSR instead.
        let mut auto = DccsSession::new(&g);
        let ok = auto
            .query(DccsParams::new(2, 2, 2))
            .algorithm(Algorithm::Greedy)
            .limits(QueryLimits::none().with_max_dense_words(0))
            .run()
            .expect("auto falls back to CSR");
        assert!(ok.stats.complete);
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
        // Detaching restores peel-only behavior.
        session.detach_index();
        let detached = session.query(params).algorithm(Algorithm::Greedy).run().unwrap();
        assert_eq!(detached.stats.serve, Some(ServePath::Peel));
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
