//! The concurrent query service: many queries, one graph, zero duplicated
//! preprocessing.
//!
//! [`DccsSession`](crate::DccsSession) is `&mut self` end-to-end — exactly
//! right for a single caller sweeping parameters, and exactly wrong for a
//! server answering many users against one loaded graph, where two
//! concurrent queries would need two full copies of scratch *and* of the
//! preprocessing work. This module splits that state into two tiers:
//!
//! * **Shared immutable tier** — a [`GraphSnapshot`]: the graph reference,
//!   an epoch identifying this published version, the
//!   [`SharedSearchState`] (per-`d` layer cores, per-`(d, s)` converged
//!   deletion fixpoints and dense index plans, each built once on first
//!   use), and the optionally attached [`DccIndex`]. Published behind an
//!   `Arc`, read by any number of queries concurrently.
//! * **Cheap per-query tier** — a pooled [`SearchContext`] (peel workspace
//!   plus cover/seed buffers) checked out per query and returned on drop,
//!   so steady-state queries allocate nothing and never contend beyond a
//!   `Vec` push/pop.
//!
//! On top sits the [`QueryService`]: a shared (`&self`) handle answering
//! [`ServiceQuery`]s either inline on the calling thread or as a batch
//! fanned over a bounded worker crew ([`PersistentPool`]), with a result
//! cache keyed by `(graph_epoch, index_generation, d, s, k, algorithm,
//! serve)`. Cache hits are recorded in
//! [`SearchStats::served_from_cache`](crate::SearchStats::served_from_cache);
//! only unlimited, token-less queries consult the cache (a deadline changes
//! what a query may return, so limited queries always run).
//!
//! **Bit-identity** extends naturally: every query executes sequentially on
//! its own context (worker parallelism is across queries, like
//! [`DccsSession::run_batch`](crate::DccsSession::run_batch)), the shared
//! tier memoizes only deterministic pure functions of the graph, and a
//! cached answer is a clone of the computed one — so service results equal
//! fresh-session results at any worker count, enforced by
//! `crates/core/tests/service_concurrency.rs`.
//!
//! ```
//! use mlgraph::MultiLayerGraphBuilder;
//! use dccs::{DccsOptions, DccsParams, QueryService, ServiceQuery};
//!
//! let mut b = MultiLayerGraphBuilder::new(4, 2);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
//!     b.add_edge(0, u, v).unwrap();
//!     b.add_edge(1, u, v).unwrap();
//! }
//! let g = b.build();
//! let service = QueryService::new(&g, DccsOptions::default());
//! // `query` takes `&self`: any number of threads may call it at once.
//! let first = service.query(&ServiceQuery::new(DccsParams::new(2, 2, 1)))?;
//! let again = service.query(&ServiceQuery::new(DccsParams::new(2, 2, 1)))?;
//! assert_eq!(first.cores, again.cores);
//! assert!(!first.stats.served_from_cache);
//! assert!(again.stats.served_from_cache);
//! # Ok::<(), dccs::DccsError>(())
//! ```

use crate::algorithm::Algorithm;
use crate::config::{DccsOptions, DccsParams};
use crate::engine::{
    effective_threads, lock, with_pool, IndexChoice, PersistentPool, SearchContext,
    SharedSearchState,
};
use crate::error::DccsError;
use crate::fault::{self, site};
use crate::limits::{CancelToken, QueryLimits};
use crate::result::DccsResult;
use crate::serve::{DccIndex, Serve};
use crate::session::{auto_threads, panic_to_error, run_spec_monitored, IndexState, QuerySpec};
use coreness::PeelWorkspace;
use mlgraph::{EdgeBatch, MultiLayerGraph, VertexSet};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Process-wide epoch counter: every published [`GraphSnapshot`] gets a
/// distinct epoch — including each snapshot a committed mutation batch
/// publishes ([`QueryService::commit`]) — so results and cache keys from
/// different graph versions can never alias.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// How a [`GraphSnapshot`] holds its graph. The initial snapshot borrows
/// the caller's graph for the service lifetime; every snapshot a mutation
/// commit publishes owns the rebuilt graph, shared by `Arc` so in-flight
/// queries holding the previous snapshot keep their version alive until
/// they finish.
#[derive(Debug)]
enum GraphHandle<'g> {
    /// The caller's graph, borrowed (the pre-mutation snapshot).
    Borrowed(&'g MultiLayerGraph),
    /// A graph version produced by [`QueryService::commit`], owned.
    Owned(Arc<MultiLayerGraph>),
}

impl GraphHandle<'_> {
    fn get(&self) -> &MultiLayerGraph {
        match self {
            GraphHandle::Borrowed(g) => g,
            GraphHandle::Owned(g) => g,
        }
    }
}

/// The attached-index slot of a snapshot: the index, its generation, and —
/// after a mutation commit auto-detached a previously valid index — the
/// epoch that index was built for, so [`Serve::Index`] queries can report
/// the typed [`DccsError::IndexStale`] instead of a generic
/// unavailability. One lock keeps the triple consistent for readers.
#[derive(Debug, Default)]
struct IndexSlot {
    /// Bumped on every attach/detach — part of the service cache key.
    generation: u64,
    index: Option<Arc<DccIndex>>,
    /// Epoch of the graph version the auto-detached index was valid for;
    /// cleared when a fresh index is attached.
    stale_epoch: Option<u64>,
}

/// The shared immutable tier for one published version of a graph: the
/// graph reference, a process-unique epoch, the lazily filled
/// [`SharedSearchState`], and the optionally attached [`DccIndex`].
///
/// A snapshot is read-only from the query path's perspective — attaching or
/// detaching an index is the one interior mutation, and it bumps the
/// snapshot's *index generation* so the service cache can tell answers
/// derived under different index configurations apart (under
/// [`Serve::Auto`] the same `(d, s, k)` is answered by peeling or by the
/// index depending on coverage, and the two answers differ in their work
/// counters).
///
/// Snapshots are handed around as `Arc<GraphSnapshot>`: a
/// [`crate::DccsSession`] owns one (and exposes it via
/// [`crate::DccsSession::snapshot`]), a [`QueryService`] serves from one,
/// and both can share the same instance — the session's preprocessing work
/// is then visible to every service query and vice versa.
#[derive(Debug)]
pub struct GraphSnapshot<'g> {
    g: GraphHandle<'g>,
    epoch: u64,
    state: Arc<SharedSearchState>,
    /// The attached index, its generation, and the staleness record, under
    /// one lock so a reader always sees a consistent triple.
    index: Mutex<IndexSlot>,
}

impl<'g> GraphSnapshot<'g> {
    /// Publishes a fresh snapshot of `g` with a new epoch and an empty
    /// shared tier (entries fill on first use).
    pub fn new(g: &'g MultiLayerGraph) -> Arc<Self> {
        Arc::new(GraphSnapshot {
            g: GraphHandle::Borrowed(g),
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            state: SharedSearchState::for_graph(g),
            index: Mutex::new(IndexSlot::default()),
        })
    }

    /// The graph this snapshot publishes. The reference is tied to the
    /// snapshot (not to `'g`): a post-commit snapshot owns its graph
    /// version rather than borrowing the caller's.
    pub fn graph(&self) -> &MultiLayerGraph {
        self.g.get()
    }

    /// The process-unique epoch of this snapshot, stamped into
    /// [`crate::SearchStats::graph_epoch`] of every result answered from
    /// it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared compute tier (layer cores, fixpoints and index plans).
    pub fn state(&self) -> &Arc<SharedSearchState> {
        &self.state
    }

    /// Attaches `index` after validating its fingerprint against the
    /// snapshot's graph ([`DccIndex::matches`]); a mismatched index is
    /// rejected and nothing changes. Attaching also clears any staleness
    /// record a mutation commit left behind. Returns the shared handle.
    pub fn attach_index(&self, index: DccIndex) -> Result<Arc<DccIndex>, DccsError> {
        index.matches(self.graph())?;
        let index = Arc::new(index);
        self.install_index(Some(index.clone()));
        Ok(index)
    }

    /// Detaches the index; subsequent queries always peel.
    pub fn detach_index(&self) {
        self.install_index(None);
    }

    /// The attached index, if any.
    pub fn index(&self) -> Option<Arc<DccIndex>> {
        lock(&self.index).index.clone()
    }

    /// How many times the attached index has changed (attach or detach) —
    /// part of the service cache key.
    pub fn index_generation(&self) -> u64 {
        lock(&self.index).generation
    }

    /// When a mutation commit auto-detached an index, the epoch that index
    /// was valid for (`None` otherwise) — the provenance behind
    /// [`DccsError::IndexStale`].
    pub fn stale_index_epoch(&self) -> Option<u64> {
        lock(&self.index).stale_epoch
    }

    /// Stores `index` (already validated by the caller), bumps the
    /// generation, and clears any staleness record.
    pub(crate) fn install_index(&self, index: Option<Arc<DccIndex>>) {
        let mut slot = lock(&self.index);
        slot.generation += 1;
        slot.index = index;
        slot.stale_epoch = None;
    }

    /// A consistent `(generation, index, stale-epoch)` read for the query
    /// path.
    fn indexed(&self) -> (u64, Option<Arc<DccIndex>>, Option<u64>) {
        let slot = lock(&self.index);
        (slot.generation, slot.index.clone(), slot.stale_epoch)
    }
}

/// One query submitted to a [`QueryService`]: the `(d, s, k)` parameters
/// and algorithm ([`QuerySpec`]) plus the per-query serving knobs that the
/// session API spreads over its builder — limits, serve mode, and an
/// optional cancel token.
#[derive(Clone, Debug)]
pub struct ServiceQuery {
    /// Parameters + algorithm ([`Algorithm::Auto`] by default).
    pub spec: QuerySpec,
    /// Per-query resource limits ([`QueryLimits::none`] by default). A
    /// limited query never consults or fills the result cache.
    pub limits: QueryLimits,
    /// How the query derives its candidate cores ([`Serve::Auto`] by
    /// default). Part of the cache key: `Peel` and `Index` answers differ
    /// in their work counters.
    pub serve: Serve,
    /// External kill switch for this query only; a token-carrying query
    /// never consults or fills the result cache.
    pub token: Option<CancelToken>,
}

impl ServiceQuery {
    /// A query for `params` with automatic algorithm selection, no limits,
    /// and `Serve::Auto`.
    pub fn new(params: DccsParams) -> Self {
        ServiceQuery {
            spec: QuerySpec::new(params),
            limits: QueryLimits::none(),
            serve: Serve::Auto,
            token: None,
        }
    }

    /// Pins the algorithm instead of auto-selecting.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.spec.algorithm = algorithm;
        self
    }

    /// Sets the query's resource limits.
    pub fn with_limits(mut self, limits: QueryLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the serve mode.
    pub fn with_serve(mut self, serve: Serve) -> Self {
        self.serve = serve;
        self
    }

    /// Attaches a cancel token.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }
}

/// One slot of a [`QueryService::run_batch`] answer: the query's result (a
/// per-query limit, cancellation, or panic lands here without affecting
/// sibling slots) and its service-side latency, measured around the whole
/// answer path (cache probe included) on whichever worker ran it.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The query's result, exactly as [`QueryService::query`] would have
    /// returned it.
    pub result: Result<DccsResult, DccsError>,
    /// Wall-clock latency of answering this query.
    pub latency: Duration,
}

/// Counters describing the result cache's behavior, from
/// [`QueryService::cache_stats`]. Hits and misses count only
/// cache-eligible queries (unlimited, token-less); limited queries bypass
/// the cache entirely and are counted in neither.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered out of the cache.
    pub hits: u64,
    /// Cache-eligible queries that had to run.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// The pooled per-query tier: idle [`SearchContext`]s (each owning a
/// `PeelWorkspace` and the cover/seed buffers) checked out per query and
/// returned on drop. Contexts keep their context-local caches between
/// checkouts — those only ever memoize deterministic intermediates, so
/// whichever context a query draws, the answer is the same.
///
/// The pool also carries the **graph epoch** its idle contexts' caches may
/// be bound to. A mutation commit bumps it (and clears the idle contexts'
/// caches); a context checked out before the commit and returned after it
/// clears its own cache on the way back in. This closes the one gap in the
/// contexts' best-effort graph-identity key: after the old graph version is
/// dropped, a later version could be allocated at the same address with the
/// same shape.
#[derive(Debug, Default)]
struct ContextPool {
    idle: Mutex<Vec<SearchContext>>,
    epoch: AtomicU64,
}

impl ContextPool {
    /// Checks out an idle context (or builds a fresh one), configured for a
    /// sequential run with the shared tier installed.
    fn checkout(&self, shared: &Arc<SharedSearchState>, index: IndexChoice) -> PooledContext<'_> {
        let mut ctx = lock(&self.idle).pop().unwrap_or_else(|| SearchContext::new(1));
        ctx.set_threads(1);
        ctx.set_index_choice(index);
        ctx.set_shared(Some(shared.clone()));
        PooledContext { ctx: Some(ctx), pool: self, epoch: self.epoch.load(Ordering::Relaxed) }
    }

    /// A mutation commit published `epoch`: every idle context's
    /// graph-bound caches are cleared, and contexts still checked out will
    /// clear theirs when returned (their checkout epoch no longer matches).
    fn invalidate(&self, epoch: u64) {
        for ctx in lock(&self.idle).iter_mut() {
            ctx.clear_cache();
        }
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Number of idle contexts (diagnostics).
    fn idle_len(&self) -> usize {
        lock(&self.idle).len()
    }
}

/// A checked-out context; returns itself to the pool on drop. Safe to
/// return even after a failed query: the dispatch layer replaces a context
/// wholesale when a panic unwinds through it, so what comes back here is
/// always either untouched or freshly rebuilt.
struct PooledContext<'p> {
    ctx: Option<SearchContext>,
    pool: &'p ContextPool,
    /// The pool epoch at checkout; a mismatch at return means a commit
    /// happened mid-query and this context's caches must not survive.
    epoch: u64,
}

impl Deref for PooledContext<'_> {
    type Target = SearchContext;
    fn deref(&self) -> &SearchContext {
        self.ctx.as_ref().expect("context present until drop")
    }
}

impl DerefMut for PooledContext<'_> {
    fn deref_mut(&mut self) -> &mut SearchContext {
        self.ctx.as_mut().expect("context present until drop")
    }
}

impl Drop for PooledContext<'_> {
    fn drop(&mut self) {
        if let Some(mut ctx) = self.ctx.take() {
            if self.pool.epoch.load(Ordering::Relaxed) != self.epoch {
                ctx.clear_cache();
            }
            lock(&self.pool.idle).push(ctx);
        }
    }
}

/// What [`QueryService::commit`] reports back: the epoch of the snapshot
/// the batch published and a summary of the work the commit did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitReceipt {
    /// Epoch of the published snapshot. For a batch whose every operation
    /// was a no-op, the epoch of the still-current snapshot (nothing is
    /// republished).
    pub epoch: u64,
    /// Edges actually inserted (no-op inserts are dropped).
    pub inserted: usize,
    /// Edges actually deleted (no-op deletes are dropped).
    pub deleted: usize,
    /// Number of layers the batch changed.
    pub layers_touched: usize,
    /// Number of per-`d` layer-core memo entries incrementally repaired
    /// into the new snapshot's shared tier (one per `d` the old tier had
    /// materialized).
    pub repaired_ds: usize,
    /// Whether a previously attached [`DccIndex`] was auto-detached because
    /// this commit outdated it ([`DccsError::IndexStale`]).
    pub index_detached: bool,
}

impl CommitReceipt {
    /// Whether the batch changed nothing — no snapshot was republished and
    /// [`CommitReceipt::epoch`] is the still-current one.
    pub fn is_noop_commit(&self) -> bool {
        self.layers_touched == 0
    }
}

/// The result-cache key: everything that can change an answer. Epoch and
/// index generation pin the graph version and index configuration;
/// `(d, s, k)`, the algorithm, and the serve mode are the query itself.
/// The service's ablation toggles and index-choice override are fixed at
/// construction, so they need no slot.
type CacheKey = (u64, u64, u32, usize, usize, Algorithm, Serve);

/// A shared (`&self`) query-answering handle over one [`GraphSnapshot`].
///
/// Concurrency model: [`QueryService::query`] may be called from any number
/// of threads at once — each call checks a context out of the per-query
/// pool and runs sequentially on the calling thread.
/// [`QueryService::run_batch`] instead fans its queries over the service's
/// bounded worker crew (width = the service options' `threads`, spawned on
/// first use), one query per job, results in submission order. Both paths
/// answer through the same cache and the same shared tier.
#[derive(Debug)]
pub struct QueryService<'g> {
    /// The currently published snapshot. Queries clone the `Arc` once at
    /// entry and answer entirely on that version, so a concurrent
    /// [`QueryService::commit`] never changes what an in-flight query sees
    /// — readers finish on the old snapshot while new queries pick up the
    /// new one.
    snapshot: Mutex<Arc<GraphSnapshot<'g>>>,
    /// Serializes mutation commits (queries are never blocked by this —
    /// they only take the brief `snapshot` lock to clone the `Arc`).
    commit_serial: Mutex<()>,
    /// Service-wide defaults: ablation toggles and the index-choice
    /// override apply to every query; `threads` sets the batch worker
    /// width; per-query knobs (limits, serve, token) come from each
    /// [`ServiceQuery`].
    defaults: DccsOptions,
    workers: usize,
    contexts: ContextPool,
    crew: Mutex<Option<PersistentPool>>,
    cache: Mutex<HashMap<CacheKey, DccsResult>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'g> QueryService<'g> {
    /// A service over a fresh snapshot of `g`. `opts.threads` (0 = auto)
    /// sets the batch worker width; ablation toggles and the index-choice
    /// override apply to every query.
    pub fn new(g: &'g MultiLayerGraph, opts: DccsOptions) -> Self {
        QueryService::over(GraphSnapshot::new(g), opts)
    }

    /// A service over an existing snapshot — e.g. one taken from
    /// [`crate::DccsSession::snapshot`], sharing that session's
    /// already-computed tier.
    pub fn over(snapshot: Arc<GraphSnapshot<'g>>, opts: DccsOptions) -> Self {
        QueryService {
            snapshot: Mutex::new(snapshot),
            commit_serial: Mutex::new(()),
            workers: auto_threads(opts.threads),
            defaults: opts,
            contexts: ContextPool::default(),
            crew: Mutex::new(None),
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The currently published snapshot. The clone is the caller's pin on
    /// this graph version: it stays fully queryable (and alive) even after
    /// a later [`QueryService::commit`] republishes.
    pub fn snapshot(&self) -> Arc<GraphSnapshot<'g>> {
        lock(&self.snapshot).clone()
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// The batch worker width ([`QueryService::run_batch`]).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Attaches `index` to the current snapshot (fingerprint-validated) and
    /// clears the result cache — the old entries' keys carry the previous
    /// index generation and could never be read again.
    pub fn attach_index(&self, index: DccIndex) -> Result<(), DccsError> {
        self.snapshot().attach_index(index)?;
        self.clear_cache();
        Ok(())
    }

    /// Detaches the current snapshot's index and clears the result cache.
    pub fn detach_index(&self) {
        self.snapshot().detach_index();
        self.clear_cache();
    }

    /// Drops every cached result (the hit/miss counters keep counting).
    pub fn clear_cache(&self) {
        lock(&self.cache).clear();
    }

    /// Cache behavior so far: hits, misses, and current entry count.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: lock(&self.cache).len(),
        }
    }

    /// Number of idle pooled contexts (diagnostics for tests and stats).
    pub fn idle_contexts(&self) -> usize {
        self.contexts.idle_len()
    }

    /// Validates `params` against a snapshot's graph.
    fn check_on(snapshot: &GraphSnapshot<'g>, params: &DccsParams) -> Result<(), DccsError> {
        let g = snapshot.graph();
        let (n, l) = (g.num_vertices(), g.num_layers());
        if n == 0 || l == 0 {
            return Err(DccsError::EmptyGraph { num_vertices: n, num_layers: l });
        }
        params.validate(l)
    }

    /// Answers one query on the calling thread. Thread-safe: any number of
    /// threads may call this concurrently; results are bit-identical to
    /// running the same query through a fresh [`crate::DccsSession`]. The
    /// query pins the snapshot published at entry — a concurrent
    /// [`QueryService::commit`] does not affect it.
    pub fn query(&self, query: &ServiceQuery) -> Result<DccsResult, DccsError> {
        let snapshot = self.snapshot();
        Self::check_on(&snapshot, &query.spec.params)?;
        self.run_one(&snapshot, query)
    }

    /// The validated answer path: cache probe, then a sequential run on a
    /// pooled context — entirely against `snapshot`, the graph version
    /// pinned when the query entered the service.
    fn run_one(
        &self,
        snapshot: &GraphSnapshot<'g>,
        query: &ServiceQuery,
    ) -> Result<DccsResult, DccsError> {
        let params = &query.spec.params;
        // A limited or cancellable query may legitimately return something
        // other than the full answer (a typed error carrying a partial), so
        // only unlimited token-less queries are cache-eligible — in either
        // direction.
        let cacheable = query.limits.is_unlimited() && query.token.is_none();
        let (generation, index, stale_epoch) = snapshot.indexed();
        let key: CacheKey = (
            snapshot.epoch(),
            generation,
            params.d,
            params.s,
            params.k,
            query.spec.algorithm,
            query.serve,
        );
        if cacheable {
            if let Some(hit) = lock(&self.cache).get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let mut result = hit.clone();
                result.stats.served_from_cache = true;
                return Ok(result);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let index_state = match (index.as_deref(), stale_epoch) {
            (Some(index), _) => IndexState::Ready(index),
            (None, Some(index_epoch)) => {
                IndexState::Stale { index_epoch, graph_epoch: snapshot.epoch() }
            }
            (None, None) => IndexState::Absent,
        };
        let opts =
            DccsOptions { threads: 1, serve: query.serve, limits: query.limits, ..self.defaults };
        let mut ctx = self.contexts.checkout(snapshot.state(), self.defaults.index);
        let result = with_pool(1, |pool| {
            run_spec_monitored(
                &mut ctx,
                pool,
                snapshot.graph(),
                &query.spec,
                &opts,
                query.token.clone(),
                index_state,
            )
        });
        drop(ctx);
        result.map(|mut result| {
            result.stats.graph_epoch = Some(snapshot.epoch());
            result.stats.served_from_cache = false;
            if cacheable && result.stats.complete {
                lock(&self.cache).entry(key).or_insert_with(|| result.clone());
            }
            result
        })
    }

    /// Answers a whole batch over the service's worker crew, one query per
    /// job, outcomes in submission order with per-query latencies.
    ///
    /// Like [`crate::DccsSession::run_batch`]: all queries are validated up
    /// front (the first invalid one fails the call before any work runs),
    /// and once running the batch is not all-or-nothing — a limit,
    /// cancellation, or panic on one query lands in that query's
    /// [`ServiceOutcome`] slot while every sibling completes. With one
    /// worker (or one query) the batch runs inline on the calling thread,
    /// in order.
    pub fn run_batch(&self, queries: &[ServiceQuery]) -> Result<Vec<ServiceOutcome>, DccsError> {
        // The whole batch answers on the snapshot published at submission:
        // a commit that lands mid-batch affects only later submissions.
        let snapshot = self.snapshot();
        for query in queries {
            Self::check_on(&snapshot, &query.spec.params)?;
        }
        let run = |query: &ServiceQuery| -> ServiceOutcome {
            let start = Instant::now();
            let result = match catch_unwind(AssertUnwindSafe(|| {
                fault::check(site::BATCH_QUERY);
                self.run_one(&snapshot, query)
            })) {
                Ok(outcome) => outcome,
                Err(payload) => Err(panic_to_error(None, payload.as_ref())),
            };
            ServiceOutcome { result, latency: start.elapsed() }
        };
        let workers = effective_threads(self.workers);
        if workers <= 1 || queries.len() <= 1 {
            return Ok(queries.iter().map(run).collect());
        }
        let mut crew = lock(&self.crew);
        if crew.as_ref().is_none_or(|crew| crew.threads() != workers) {
            *crew = Some(PersistentPool::new(workers));
        }
        let crew = crew.as_mut().expect("crew spawned above");
        let mut driver_ws = PeelWorkspace::new();
        let jobs: Vec<_> = queries
            .iter()
            .map(|query| {
                let run = &run;
                move |_ws: &mut PeelWorkspace| run(query)
            })
            .collect();
        Ok(crew.pool_ref().map(&mut driver_ws, jobs))
    }

    /// Commits a mutation batch, publishing the next graph version as a new
    /// snapshot with a fresh epoch.
    ///
    /// The commit pipeline, all off the query path (in-flight and
    /// concurrent queries keep answering on the previous snapshot
    /// throughout, and pick up the new one only once it is published
    /// whole):
    ///
    /// 1. **Validate and apply** — [`MultiLayerGraph::apply_batch`] rebuilds
    ///    only the touched layers; a malformed batch is rejected as
    ///    [`DccsError::BatchInvalid`] with nothing published. A batch whose
    ///    every operation is a no-op short-circuits: the current snapshot
    ///    stays published and its epoch is returned.
    /// 2. **Repair the shared tier** — every per-`d` layer-core entry the
    ///    old tier had materialized is repaired incrementally
    ///    ([`coreness::PeelWorkspace::repair_d_core`]: bounded reach-set
    ///    growth for inserts, cascade re-peel within the old core for
    ///    deletes) on the touched layers only; untouched layers carry over.
    ///    The next epoch's queries start warm instead of re-peeling from
    ///    scratch. Memoized deletion fixpoints are dropped, not repaired:
    ///    the next epoch recomputes each from the repaired cores on first
    ///    use, so a commit does no fixpoint work.
    /// 3. **Publish atomically** — the new snapshot (graph, repaired tier,
    ///    fresh epoch) swaps in under the snapshot lock. A previously
    ///    attached [`DccIndex`] is **auto-detached** with its validity epoch
    ///    recorded, so [`Serve::Index`] queries fail typed
    ///    ([`DccsError::IndexStale`]) while [`Serve::Auto`] peels. The
    ///    result cache and the pooled contexts' graph-bound caches are
    ///    invalidated (the epoch bump in the cache key makes old entries
    ///    unreadable; dropping them bounds memory).
    ///
    /// Commits serialize against each other; a commit that panics (e.g.
    /// fault injection at `batch.commit`) before the swap leaves the old
    /// snapshot serving, untouched.
    pub fn commit(&self, batch: &EdgeBatch) -> Result<CommitReceipt, DccsError> {
        let _serial = lock(&self.commit_serial);
        let snapshot = self.snapshot();
        let (next, applied) = snapshot
            .graph()
            .apply_batch(batch)
            .map_err(|e| DccsError::BatchInvalid { message: e.to_string() })?;
        if applied.is_noop() {
            return Ok(CommitReceipt {
                epoch: snapshot.epoch(),
                inserted: 0,
                deleted: 0,
                layers_touched: 0,
                repaired_ds: 0,
                index_detached: false,
            });
        }
        let next = Arc::new(next);
        // Repair the shared tier: for every `d` the old tier materialized,
        // the touched layers' d-cores are repaired against the delta and
        // the untouched layers' carried over verbatim.
        let old_entries = snapshot.state().snapshot_cores();
        let repaired_ds = old_entries.len();
        let mut ws = PeelWorkspace::new();
        let n = next.num_vertices();
        let mut entries = Vec::with_capacity(old_entries.len());
        for (d, cores) in old_entries {
            let mut repaired: Vec<VertexSet> = (*cores).clone();
            for delta in &applied.layers {
                let mut out = VertexSet::new(n);
                ws.repair_d_core(
                    next.layer(delta.layer),
                    d,
                    &cores[delta.layer],
                    &delta.inserted,
                    &mut out,
                );
                repaired[delta.layer] = out;
            }
            entries.push((d, repaired));
        }
        // The fault site sits after all fallible work and before the swap:
        // a panic here proves the old snapshot survives a dying commit.
        fault::check(site::BATCH_COMMIT);
        let state = SharedSearchState::preloaded(&next, entries);
        let epoch = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
        let (generation, old_index, carried_stale) = snapshot.indexed();
        let index_detached = old_index.is_some();
        // An index valid for the old snapshot was (implicitly) built for
        // that epoch; one already detached by an earlier commit keeps its
        // original validity epoch.
        let stale_epoch = if index_detached { Some(snapshot.epoch()) } else { carried_stale };
        let next_snapshot = Arc::new(GraphSnapshot {
            g: GraphHandle::Owned(next),
            epoch,
            state,
            index: Mutex::new(IndexSlot {
                generation: generation + u64::from(index_detached),
                index: None,
                stale_epoch,
            }),
        });
        *lock(&self.snapshot) = next_snapshot;
        self.contexts.invalidate(epoch);
        // Every cached key carries an older epoch and can never be read
        // again; drop them rather than letting dead entries accumulate.
        lock(&self.cache).retain(|key, _| key.0 == epoch);
        Ok(CommitReceipt {
            epoch,
            inserted: applied.num_inserted(),
            deleted: applied.num_deleted(),
            layers_touched: applied.layers.len(),
            repaired_ds,
            index_detached,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DccsSession;
    use mlgraph::MultiLayerGraphBuilder;

    fn clique(b: &mut MultiLayerGraphBuilder, layer: usize, vs: &[u32]) {
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                b.add_edge(layer, vs[i], vs[j]).unwrap();
            }
        }
    }

    /// Serializes the tests that commit: one arms the process-global
    /// `batch.commit` fault, whose one shot a sibling's commit could
    /// otherwise absorb.
    fn commit_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    /// The session tests' fixture: four layers over 12 vertices with two
    /// planted coherent cliques.
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
    fn snapshots_get_distinct_epochs() {
        let g = graph();
        let a = GraphSnapshot::new(&g);
        let b = GraphSnapshot::new(&g);
        assert_ne!(a.epoch(), b.epoch());
        assert!(a.state().bound_to(&g));
    }

    #[test]
    fn service_results_match_a_fresh_session_and_stamp_the_epoch() {
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let params = DccsParams::new(2, 2, 2);
        let via_service = service.query(&ServiceQuery::new(params)).unwrap();
        let via_session = DccsSession::new(&g).query(params).run().unwrap();
        assert_eq!(via_service.cores, via_session.cores);
        assert_eq!(via_service.cover.to_vec(), via_session.cover.to_vec());
        assert_eq!(via_service.stats, via_session.stats);
        assert_eq!(via_service.stats.graph_epoch, Some(service.snapshot().epoch()));
        assert!(!via_service.stats.served_from_cache);
    }

    #[test]
    fn repeat_queries_hit_the_cache_and_the_answer_is_identical() {
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let query = ServiceQuery::new(DccsParams::new(2, 2, 2));
        let first = service.query(&query).unwrap();
        let second = service.query(&query).unwrap();
        assert!(!first.stats.served_from_cache);
        assert!(second.stats.served_from_cache);
        assert_eq!(first.cores, second.cores);
        assert_eq!(first.stats, second.stats, "cache provenance is Eq-excluded");
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_parameters_algorithms_and_serve_modes_miss() {
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let base = ServiceQuery::new(DccsParams::new(2, 2, 2));
        service.query(&base).unwrap();
        service.query(&ServiceQuery::new(DccsParams::new(2, 2, 1))).unwrap();
        service.query(&base.clone().with_algorithm(Algorithm::Greedy)).unwrap();
        service.query(&base.clone().with_serve(Serve::Peel)).unwrap();
        let stats = service.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.entries, 4);
    }

    #[test]
    fn limited_and_cancellable_queries_bypass_the_cache() {
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let params = DccsParams::new(2, 2, 2);
        let limited = ServiceQuery::new(params)
            .with_limits(QueryLimits::none().with_candidate_budget(1_000_000));
        service.query(&limited).unwrap();
        service.query(&limited).unwrap();
        let tokened = ServiceQuery::new(params).with_token(CancelToken::new());
        service.query(&tokened).unwrap();
        let stats = service.cache_stats();
        assert_eq!(stats, CacheStats::default(), "bypassing queries count nowhere");
    }

    #[test]
    fn attach_and_detach_invalidate_the_cache() {
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let query = ServiceQuery::new(DccsParams::new(2, 2, 2));
        let peeled = service.query(&query).unwrap();
        assert_eq!(service.cache_stats().entries, 1);
        let index = DccIndex::build(&g, &[2], 0);
        service.attach_index(index).unwrap();
        assert_eq!(service.cache_stats().entries, 0);
        // The re-run is served from the index (different work counters than
        // the peel), which is exactly why the attach must invalidate.
        let served = service.query(&query).unwrap();
        assert_eq!(served.stats.dcc_calls, 0);
        assert_eq!(served.cores, peeled.cores);
        service.detach_index();
        assert_eq!(service.cache_stats().entries, 0);
        let repeeled = service.query(&query).unwrap();
        assert_eq!(repeeled.stats, peeled.stats);
    }

    #[test]
    fn contexts_are_pooled_and_reused() {
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        assert_eq!(service.idle_contexts(), 0);
        service.query(&ServiceQuery::new(DccsParams::new(2, 2, 2))).unwrap();
        assert_eq!(service.idle_contexts(), 1);
        service.query(&ServiceQuery::new(DccsParams::new(3, 2, 2))).unwrap();
        assert_eq!(service.idle_contexts(), 1, "the idle context is reused, not duplicated");
    }

    #[test]
    fn invalid_parameters_fail_the_whole_batch_up_front() {
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let queries = [
            ServiceQuery::new(DccsParams::new(2, 2, 2)),
            ServiceQuery::new(DccsParams::new(2, 0, 2)),
        ];
        assert_eq!(service.run_batch(&queries).unwrap_err(), DccsError::SupportZero);
    }

    #[test]
    fn batch_outcomes_arrive_in_submission_order_with_latencies() {
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let specs = [(2u32, 2usize, 2usize), (3, 2, 2), (2, 3, 1), (2, 2, 2)];
        let queries: Vec<ServiceQuery> =
            specs.iter().map(|&(d, s, k)| ServiceQuery::new(DccsParams::new(d, s, k))).collect();
        let outcomes = service.run_batch(&queries).unwrap();
        assert_eq!(outcomes.len(), queries.len());
        for (outcome, &(d, s, k)) in outcomes.iter().zip(&specs) {
            let got = outcome.result.as_ref().unwrap();
            let want = DccsSession::new(&g).query(DccsParams::new(d, s, k)).run().unwrap();
            assert_eq!(got.cores, want.cores);
            assert_eq!(got.stats, want.stats);
        }
        // The duplicated spec hit the cache.
        assert!(outcomes[3].result.as_ref().unwrap().stats.served_from_cache);
        assert_eq!(service.cache_stats().hits, 1);
    }

    #[test]
    fn commit_publishes_a_new_epoch_and_queries_see_the_mutated_graph() {
        let _guard = commit_lock();
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let params = DccsParams::new(3, 2, 2);
        let before = service.query(&ServiceQuery::new(params)).unwrap();
        let epoch_before = service.epoch();
        // Wire the second planted clique into layers 0 and 1 as well.
        let mut batch = EdgeBatch::new();
        for i in 4u32..8 {
            for j in (i + 1)..8 {
                batch.insert(0, i, j).insert(1, i, j);
            }
        }
        let receipt = service.commit(&batch).unwrap();
        assert!(receipt.epoch > epoch_before);
        assert_eq!(service.epoch(), receipt.epoch);
        assert_eq!(receipt.inserted, 12);
        assert_eq!(receipt.deleted, 0);
        assert_eq!(receipt.layers_touched, 2);
        assert!(receipt.repaired_ds >= 1, "the d=3 layer cores were materialized pre-commit");
        let after = service.query(&ServiceQuery::new(params)).unwrap();
        assert_eq!(after.stats.graph_epoch, Some(receipt.epoch));
        // The mutation changed what the query returns (the second clique
        // now also lives on layers {0, 1}) ...
        assert_ne!(after.cores, before.cores);
        // ... and incremental repair must be bit-identical to a fresh
        // session on an equivalently mutated graph.
        let (fresh_g, _) = g.apply_batch(&batch).unwrap();
        let fresh = DccsSession::new(&fresh_g).query(params).run().unwrap();
        assert_eq!(after.cores, fresh.cores);
        assert_eq!(after.cover.to_vec(), fresh.cover.to_vec());
        assert_eq!(after.stats.dcc_calls, fresh.stats.dcc_calls);
    }

    #[test]
    fn commit_invalidates_the_result_cache_but_old_snapshots_stay_queryable() {
        let _guard = commit_lock();
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let query = ServiceQuery::new(DccsParams::new(2, 2, 2));
        let before = service.query(&query).unwrap();
        assert_eq!(service.cache_stats().entries, 1);
        let pinned = service.snapshot();
        let mut batch = EdgeBatch::new();
        batch.delete(1, 8, 9);
        let receipt = service.commit(&batch).unwrap();
        assert_eq!(service.cache_stats().entries, 0, "old-epoch entries are dropped");
        let after = service.query(&query).unwrap();
        assert!(!after.stats.served_from_cache);
        assert_eq!(after.stats.graph_epoch, Some(receipt.epoch));
        // The pinned pre-commit snapshot still answers on the old graph.
        assert_eq!(pinned.epoch(), before.stats.graph_epoch.unwrap());
        assert_eq!(pinned.graph().layer(1).num_edges(), g.layer(1).num_edges());
    }

    #[test]
    fn noop_and_invalid_batches_leave_the_snapshot_alone() {
        let _guard = commit_lock();
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let epoch = service.epoch();
        // Every operation a no-op: insert a present edge, delete an absent one.
        let mut noop = EdgeBatch::new();
        noop.insert(0, 0, 1).delete(0, 8, 9);
        let receipt = service.commit(&noop).unwrap();
        assert_eq!(receipt.epoch, epoch, "nothing republished");
        assert!(receipt.is_noop_commit());
        // An invalid batch is a typed error and changes nothing.
        let mut bad = EdgeBatch::new();
        bad.insert(0, 0, 99);
        let err = service.commit(&bad).unwrap_err();
        assert!(matches!(err, DccsError::BatchInvalid { .. }), "got {err:?}");
        assert_eq!(service.epoch(), epoch);
    }

    #[test]
    fn commit_detaches_the_index_and_serve_index_reports_stale() {
        let _guard = commit_lock();
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let index = DccIndex::build(&g, &[2], 0);
        service.attach_index(index).unwrap();
        let index_epoch = service.epoch();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 8, 9);
        let receipt = service.commit(&batch).unwrap();
        assert!(receipt.index_detached);
        let snapshot = service.snapshot();
        assert!(snapshot.index().is_none(), "the stale index must not serve");
        assert_eq!(snapshot.stale_index_epoch(), Some(index_epoch));
        // Serve::Index now fails typed; Serve::Auto silently peels.
        let forced = ServiceQuery::new(DccsParams::new(2, 1, 2)).with_serve(Serve::Index);
        assert_eq!(
            service.query(&forced).unwrap_err(),
            DccsError::IndexStale { index_epoch, graph_epoch: receipt.epoch }
        );
        let auto = service.query(&ServiceQuery::new(DccsParams::new(2, 1, 2))).unwrap();
        assert!(auto.stats.complete);
        // Re-attaching a freshly built index clears the staleness.
        let rebuilt = DccIndex::build(service.snapshot().graph(), &[2], 0);
        service.attach_index(rebuilt).unwrap();
        assert_eq!(service.snapshot().stale_index_epoch(), None);
        assert!(service.query(&forced).is_ok());
    }

    #[test]
    fn a_panicking_commit_leaves_the_old_snapshot_serving() {
        let _guard = commit_lock();
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let query = ServiceQuery::new(DccsParams::new(2, 2, 2));
        let before = service.query(&query).unwrap();
        let epoch = service.epoch();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 8, 9);
        fault::arm(site::BATCH_COMMIT, crate::fault::FaultMode::Panic, 1);
        let caught = catch_unwind(AssertUnwindSafe(|| service.commit(&batch)));
        fault::disarm();
        assert!(caught.is_err(), "the armed fault must panic the commit");
        assert_eq!(service.epoch(), epoch, "the old snapshot is still published");
        let after = service.query(&query).unwrap();
        assert_eq!(after.cores, before.cores);
        assert_eq!(after.stats.graph_epoch, Some(epoch));
        // And the service can still commit afterwards.
        let receipt = service.commit(&batch).unwrap();
        assert!(receipt.epoch > epoch);
    }

    #[test]
    fn successive_commits_stay_bit_identical_to_recompute() {
        let _guard = commit_lock();
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let params = DccsParams::new(2, 2, 2);
        let mut current = g.clone();
        let steps: Vec<EdgeBatch> = vec![
            {
                let mut b = EdgeBatch::new();
                b.insert(2, 0, 4).insert(2, 1, 4).delete(1, 8, 9);
                b
            },
            {
                let mut b = EdgeBatch::new();
                b.delete(0, 0, 1).delete(0, 2, 3).insert(1, 8, 9);
                b
            },
            {
                let mut b = EdgeBatch::new();
                b.insert(0, 0, 1).insert(0, 2, 3);
                b
            },
        ];
        for (i, batch) in steps.iter().enumerate() {
            service.query(&ServiceQuery::new(params)).unwrap();
            let receipt = service.commit(batch).unwrap();
            let (next, _) = current.apply_batch(batch).unwrap();
            current = next;
            let incremental = service.query(&ServiceQuery::new(params)).unwrap();
            let fresh = DccsSession::new(&current).query(params).run().unwrap();
            assert_eq!(incremental.cores, fresh.cores, "step {i}");
            assert_eq!(incremental.cover.to_vec(), fresh.cover.to_vec(), "step {i}");
            assert_eq!(incremental.stats.dcc_calls, fresh.stats.dcc_calls, "step {i}");
            assert_eq!(incremental.stats.graph_epoch, Some(receipt.epoch), "step {i}");
        }
    }

    #[test]
    fn shared_snapshot_between_session_and_service() {
        let g = graph();
        let mut session = DccsSession::new(&g);
        let params = DccsParams::new(2, 2, 2);
        let via_session = session.query(params).run().unwrap();
        // The service built over the session's snapshot reuses its tier and
        // reports the same epoch.
        let service = QueryService::over(session.snapshot().clone(), DccsOptions::default());
        let via_service = service.query(&ServiceQuery::new(params)).unwrap();
        assert_eq!(via_service.stats.graph_epoch, via_session.stats.graph_epoch);
        assert_eq!(via_service.cores, via_session.cores);
        assert_eq!(via_service.stats, via_session.stats);
        assert!(service.snapshot().state().memoized_ds() >= 1);
    }
}
