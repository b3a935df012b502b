//! The query service: the one engine entry point. Many queries, one
//! graph, zero duplicated preprocessing.
//!
//! Every query — a [`QueryService`] request, a
//! [`DccsSession`](crate::DccsSession) query or batch, and the one-shot
//! `*_dccs` functions, which run on a fresh session — ends in the same
//! runner here: a pooled per-query context bound to a pinned graph
//! snapshot, the service's worker crew, and one dispatch layer (serve
//! routing, limits, panic isolation, the degradation ladder). The state is
//! split into two tiers:
//!
//! * **Shared immutable tier** — a [`GraphSnapshot`]: the graph reference,
//!   an epoch identifying this published version, the
//!   [`SharedSearchState`] (per-`d` layer cores, per-`(d, s)` converged
//!   deletion fixpoints and dense index plans, each built once on first
//!   use), and the optionally attached [`DccIndex`]. Published behind an
//!   `Arc`, read by any number of queries concurrently, and never changed:
//!   a mutation commit and an index attach each publish a successor under
//!   a fresh epoch, so one epoch names a graph version together with its
//!   attached index.
//! * **Cheap per-query tier** — a pooled search context (peel workspace,
//!   cover/seed buffers, dense-index cache) checked out per query, bound to
//!   the snapshot the query pinned, and returned on drop, so steady-state
//!   queries allocate nothing and never contend beyond a `Vec` push/pop.
//!   Its caches are keyed by the snapshot epoch, so a context reused
//!   across graph versions never mixes them.
//!
//! On top sits the [`QueryService`]: a shared (`&self`) handle answering
//! [`ServiceQuery`]s either inline on the calling thread or as a batch
//! fanned over the service's worker crew, with a result cache keyed by
//! `(epoch, d, s, k, algorithm, serve)`. An answer is stored only while the
//! snapshot it ran on is still the published one, and publishing drops
//! every entry of an older epoch. Cache hits are recorded in
//! [`SearchStats::served_from_cache`](crate::SearchStats::served_from_cache);
//! only unlimited, token-less service queries consult the cache (a deadline
//! changes what a query may return, so limited queries always run), and
//! session queries never do.
//!
//! **Bit-identity** extends naturally: every service query executes
//! sequentially on its own context (worker parallelism is across queries),
//! the shared tier memoizes only deterministic pure functions of the graph,
//! and a cached answer is a clone of the computed one — so service results
//! equal fresh-session results at any worker count, enforced by
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
use crate::bottom_up::bottom_up_dccs_on;
use crate::config::{DccsOptions, DccsParams};
use crate::engine::{
    auto_threads, effective_threads, lock, with_pool, IndexChoice, PersistentPool, PoolRef,
    SearchContext, SharedSearchState,
};
use crate::error::DccsError;
use crate::exact::exact_dccs_on;
use crate::fault::{site, FaultPlan};
use crate::greedy::greedy_dccs_on;
use crate::limits::{CancelToken, LimitKind, QueryLimits, QueryMonitor};
use crate::result::DccsResult;
use crate::serve::{DccIndex, Serve, ServePath};
use crate::session::QuerySpec;
use crate::top_down::top_down_dccs_on;
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
/// they finish. Attaching an index republishes the same handle.
#[derive(Clone, Debug)]
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

/// The shared immutable tier for one published version of a graph: the
/// graph reference, a process-unique epoch, the lazily filled
/// [`SharedSearchState`], and the optionally attached [`DccIndex`].
///
/// Nothing in a snapshot changes after it is built. Attaching an index
/// ([`QueryService::attach_index`]) publishes a successor with the same
/// graph and shared tier under a fresh epoch, and a mutation commit
/// publishes one with the next graph version and no index; so an epoch
/// names a graph version together with its attached index, and every
/// cache keyed by it tells apart answers that peeled from answers the
/// index served.
///
/// Snapshots are handed around as `Arc<GraphSnapshot>`: a [`QueryService`]
/// serves from one (a [`crate::DccsSession`] exposes its service's via
/// [`crate::DccsSession::snapshot`]), and several services can share the
/// same instance — one's preprocessing work is then visible to every
/// other's queries.
#[derive(Debug)]
pub struct GraphSnapshot<'g> {
    g: GraphHandle<'g>,
    epoch: u64,
    state: Arc<SharedSearchState>,
    index: Option<Arc<DccIndex>>,
}

impl<'g> GraphSnapshot<'g> {
    /// Publishes a fresh snapshot of `g` with a new epoch, an empty shared
    /// tier (entries fill on first use) and no index.
    pub fn new(g: &'g MultiLayerGraph) -> Arc<Self> {
        GraphSnapshot::stamped(GraphHandle::Borrowed(g), Arc::default(), None)
    }

    /// A snapshot of these parts under the next process-wide epoch.
    fn stamped(
        g: GraphHandle<'g>,
        state: Arc<SharedSearchState>,
        index: Option<Arc<DccIndex>>,
    ) -> Arc<Self> {
        let epoch = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
        Arc::new(GraphSnapshot { g, epoch, state, index })
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

    /// The attached index, if any.
    pub fn index(&self) -> Option<&Arc<DccIndex>> {
        self.index.as_ref()
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

/// The pooled per-query tier: idle search contexts (each owning a
/// `PeelWorkspace`, the cover/seed buffers and a dense-index cache) checked
/// out per query and returned on drop. A checkout binds the context to the
/// snapshot the query pinned; its caches are keyed by that snapshot's
/// epoch, so whichever context a query draws, the answer is the same.
#[derive(Debug, Default)]
struct ContextPool {
    idle: Mutex<Vec<SearchContext>>,
}

impl ContextPool {
    /// Checks out an idle context (or builds a fresh one) bound to
    /// `snapshot`, planning its peels under `index`.
    fn checkout(&self, snapshot: &GraphSnapshot<'_>, index: IndexChoice) -> PooledContext<'_> {
        let (epoch, state) = (snapshot.epoch(), snapshot.state().clone());
        let ctx = match lock(&self.idle).pop() {
            Some(mut ctx) => {
                ctx.bind(epoch, state, index);
                ctx
            }
            None => SearchContext::new(epoch, state, index),
        };
        PooledContext { ctx: Some(ctx), pool: self }
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
        if let Some(ctx) = self.ctx.take() {
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
    /// Whether a previously attached [`DccIndex`] was dropped because this
    /// commit outdated it: the new snapshot carries no index, so
    /// [`Serve::Index`] queries answer [`DccsError::IndexUnavailable`]
    /// until one built for the new graph is attached.
    pub index_detached: bool,
}

impl CommitReceipt {
    /// Whether the batch changed nothing — no snapshot was republished and
    /// [`CommitReceipt::epoch`] is the still-current one.
    pub fn is_noop_commit(&self) -> bool {
        self.layers_touched == 0
    }
}

/// The result-cache key: everything that can change an answer. The epoch
/// pins the graph version and its attached index; `(d, s, k)`, the
/// algorithm, and the serve mode are the query itself. The service's
/// ablation toggles and index-choice override are fixed at construction,
/// so they need no slot.
type CacheKey = (u64, u32, usize, usize, Algorithm, Serve);

/// A shared (`&self`) query-answering handle over one [`GraphSnapshot`] —
/// the engine entry point every query path goes through.
///
/// Concurrency model: [`QueryService::query`] may be called from any number
/// of threads at once — each call checks a context out of the per-query
/// pool and runs sequentially on the calling thread.
/// [`QueryService::run_batch`] instead fans its queries over the service's
/// worker crew (width = the service options' `threads`, spawned on first
/// use), one query per job, results in submission order. Both paths
/// answer through the same cache and the same shared tier. A
/// [`crate::DccsSession`] owns a service and runs its queries through the
/// same runner at the session's thread width, bypassing the cache.
#[derive(Debug)]
pub struct QueryService<'g> {
    /// The currently published snapshot. Queries clone the `Arc` once at
    /// entry and answer entirely on that version, so a concurrent
    /// [`QueryService::commit`] never changes what an in-flight query sees
    /// — readers finish on the old snapshot while new queries pick up the
    /// new one.
    snapshot: Mutex<Arc<GraphSnapshot<'g>>>,
    /// Serializes publishing, by commits and index attaches (queries are
    /// never blocked by this — they only take the brief `snapshot` lock to
    /// clone the `Arc`).
    commit_serial: Mutex<()>,
    /// Service-wide defaults: ablation toggles and the index-choice
    /// override apply to every query; `threads` sets the batch worker
    /// width; per-query knobs (limits, serve, token) come from each
    /// [`ServiceQuery`].
    defaults: DccsOptions,
    workers: usize,
    /// The fault plan this service's queries, batch jobs and commits fire
    /// ([`QueryService::set_fault_plan`]); `None` leaves every site inert.
    fault: Option<FaultPlan>,
    contexts: ContextPool,
    /// The worker crew of multi-thread queries and batches: spawned on
    /// first use, re-created only when a caller asks for another width,
    /// joined on drop. One driver at a time, hence the lock.
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
            workers: effective_threads(opts.threads),
            defaults: opts,
            fault: None,
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

    /// The batch worker width [`QueryService::run_batch`] uses: `threads`
    /// (0 = auto), raised by any `DCCS_FORCE_THREADS` override.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Installs `plan` (`None` disarms): it fires in this service's
    /// queries, batch jobs and commits, and in index builds of a session
    /// over it, never in another service's. See [`crate::fault`].
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// A monitor carrying only the installed fault plan (`None` when
    /// unarmed), for engine work outside the query path.
    pub(crate) fn fault_monitor(&self) -> Option<Arc<QueryMonitor>> {
        let plan = self.fault.clone()?;
        Some(Arc::new(QueryMonitor::new(&QueryLimits::none(), None, Some(plan))))
    }

    /// Attaches `index` after validating its fingerprint against the
    /// current graph ([`DccIndex::matches`]; a mismatched index is
    /// rejected and nothing changes), by publishing a successor snapshot:
    /// the same graph and shared tier, with `index`, under a fresh epoch.
    /// Queries that pinned the previous snapshot finish on it, with
    /// whatever index it carried.
    pub fn attach_index(&self, index: DccIndex) -> Result<(), DccsError> {
        let _serial = lock(&self.commit_serial);
        let current = self.snapshot();
        index.matches(current.graph())?;
        let state = current.state().clone();
        self.publish(GraphSnapshot::stamped(current.g.clone(), state, Some(Arc::new(index))));
        Ok(())
    }

    /// Swaps `next` in as the published snapshot, then drops every cached
    /// answer of an older epoch: no query can read those keys again.
    /// Returns the new epoch. The caller holds `commit_serial`.
    fn publish(&self, next: Arc<GraphSnapshot<'g>>) -> u64 {
        let epoch = next.epoch();
        *lock(&self.snapshot) = next;
        lock(&self.cache).retain(|key, _| key.0 == epoch);
        epoch
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
    pub(crate) fn check_on(
        snapshot: &GraphSnapshot<'_>,
        params: &DccsParams,
    ) -> Result<(), DccsError> {
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

    /// The validated service answer path: cache probe, then a sequential
    /// [`QueryService::run`] — entirely against `snapshot`, the graph
    /// version pinned when the query entered the service.
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
        let key: CacheKey =
            (snapshot.epoch(), params.d, params.s, params.k, query.spec.algorithm, query.serve);
        if cacheable {
            if let Some(hit) = lock(&self.cache).get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let mut result = hit.clone();
                result.stats.served_from_cache = true;
                return Ok(result);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let opts =
            DccsOptions { threads: 1, serve: query.serve, limits: query.limits, ..self.defaults };
        let result = self.run(snapshot, &query.spec, &opts, query.token.clone())?;
        // Store only while `snapshot` is still the published one. The check
        // runs under the cache lock and `publish` prunes under it after its
        // swap, so an answer from a superseded snapshot never stays behind.
        if cacheable && result.stats.complete {
            let mut cache = lock(&self.cache);
            if self.epoch() == key.0 {
                cache.entry(key).or_insert_with(|| result.clone());
            }
        }
        Ok(result)
    }

    /// The runner every query ends in: dispatches one validated `spec` on a
    /// context checked out for `snapshot`, at `opts.threads` width (0 =
    /// auto; [`QueryService::on_engine`]), under the query's limits, serve
    /// mode and `token`, and stamps the snapshot's epoch on the result. It
    /// never reads or fills the result cache.
    pub(crate) fn run(
        &self,
        snapshot: &GraphSnapshot<'g>,
        spec: &QuerySpec,
        opts: &DccsOptions,
        token: Option<CancelToken>,
    ) -> Result<DccsResult, DccsError> {
        let index = snapshot.index().map(Arc::as_ref);
        let result = self.on_engine(snapshot, opts, |ctx, pool| {
            let fault = self.fault.clone();
            run_spec_monitored(ctx, pool, snapshot.graph(), spec, opts, token, fault, index)
        });
        result.map(|mut result| {
            result.stats.graph_epoch = Some(snapshot.epoch());
            result
        })
    }

    /// Runs `f` on a pooled context bound to `snapshot` (planning under
    /// `opts.index`) and a crew of `opts.threads` (0 = auto): a one-thread
    /// run gets a crew of its own with no workers, so concurrent sequential
    /// queries never contend; a wider run drives the service's persistent
    /// crew, spawned on first use and re-created only at a new width.
    pub(crate) fn on_engine<R>(
        &self,
        snapshot: &GraphSnapshot<'g>,
        opts: &DccsOptions,
        f: impl FnOnce(&mut SearchContext, &PoolRef<'_>) -> R,
    ) -> R {
        let mut ctx = self.contexts.checkout(snapshot, opts.index);
        let threads = auto_threads(opts.threads);
        if threads <= 1 {
            return with_pool(1, |pool| f(&mut ctx, pool));
        }
        self.with_crew(threads, |pool| f(&mut ctx, pool))
    }

    /// Drives the service crew at `threads` (after CI forcing), re-creating
    /// it when its width differs.
    fn with_crew<R>(&self, threads: usize, f: impl FnOnce(&PoolRef<'_>) -> R) -> R {
        let threads = effective_threads(threads);
        let mut crew = lock(&self.crew);
        if crew.as_ref().is_none_or(|crew| crew.threads() != threads) {
            *crew = Some(PersistentPool::new(threads));
        }
        f(&crew.as_mut().expect("crew spawned above").pool_ref())
    }

    /// Answers a whole batch over the service's worker crew, one query per
    /// job, outcomes in submission order with per-query latencies.
    ///
    /// All queries are validated up front (the first invalid one fails the
    /// call before any work runs), and once running the batch is not
    /// all-or-nothing — a limit, cancellation, or panic on one query lands
    /// in that query's [`ServiceOutcome`] slot while every sibling
    /// completes. With one worker (or one query) the batch runs inline on
    /// the calling thread, in order.
    pub fn run_batch(&self, queries: &[ServiceQuery]) -> Result<Vec<ServiceOutcome>, DccsError> {
        // The whole batch answers on the snapshot published at submission:
        // a commit that lands mid-batch affects only later submissions.
        let snapshot = self.snapshot();
        for query in queries {
            Self::check_on(&snapshot, &query.spec.params)?;
        }
        Ok(self.fan_out(queries, |query| self.run_one(&snapshot, query)))
    }

    /// The batch loop behind [`QueryService::run_batch`] and
    /// [`crate::DccsSession::run_batch`]: answers every item with `answer`,
    /// one job per item on the service crew (width = the service's
    /// `workers`), or inline in order with one worker or one item. Each job
    /// catches its own panic, so a dying query becomes a
    /// [`DccsError::TaskPanicked`] in its slot instead of sinking the batch.
    pub(crate) fn fan_out<T: Sync>(
        &self,
        items: &[T],
        answer: impl Fn(&T) -> Result<DccsResult, DccsError> + Sync,
    ) -> Vec<ServiceOutcome> {
        let run = |item: &T| -> ServiceOutcome {
            let start = Instant::now();
            let result = match catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = &self.fault {
                    plan.fire(site::BATCH_QUERY);
                }
                answer(item)
            })) {
                Ok(outcome) => outcome,
                Err(payload) => Err(panic_to_error(None, payload.as_ref())),
            };
            ServiceOutcome { result, latency: start.elapsed() }
        };
        if self.workers <= 1 || items.len() <= 1 {
            return items.iter().map(run).collect();
        }
        let jobs: Vec<_> = items
            .iter()
            .map(|item| {
                let run = &run;
                move |_ws: &mut PeelWorkspace| run(item)
            })
            .collect();
        self.with_crew(self.workers, |pool| pool.map(&mut PeelWorkspace::new(), jobs))
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
    ///    the touched layers by block-copying the runs of untouched
    ///    vertices and merging only the changed lists, and copies the
    ///    untouched layers; a malformed batch is rejected as
    ///    [`DccsError::BatchInvalid`] with nothing published. A batch whose
    ///    every operation is a no-op short-circuits: the current snapshot
    ///    stays published and its epoch is returned.
    /// 2. **Repair the shared tier** — every per-`d` layer-core entry the
    ///    old tier had materialized is repaired incrementally on the
    ///    touched layers only; untouched layers carry over. The repair
    ///    ([`coreness::PeelWorkspace::repair_d_core_delta`], given each
    ///    [`mlgraph::LayerDelta`]'s inserted and deleted edges) checks only
    ///    the region flooded from the inserted endpoints and the deleted
    ///    endpoints inside the old core, then cascades from the vertices
    ///    that fall below `d`. The next epoch's queries start warm instead
    ///    of re-peeling from scratch. Memoized deletion fixpoints are
    ///    dropped, not repaired: the next epoch recomputes each from the
    ///    repaired cores on first use, so a commit does no fixpoint work.
    /// 3. **Publish atomically** — the new snapshot (graph, repaired tier,
    ///    fresh epoch, no index) swaps in under the snapshot lock, through
    ///    the step [`QueryService::attach_index`] also publishes by. A
    ///    previously attached [`DccIndex`] is dropped
    ///    ([`CommitReceipt::index_detached`]), so [`Serve::Index`] queries
    ///    answer [`DccsError::IndexUnavailable`] while [`Serve::Auto`]
    ///    peels. The result cache drops the old epoch's entries (the epoch
    ///    bump in the cache key makes them unreadable; dropping them bounds
    ///    memory). Pooled contexts need no invalidation: their caches are
    ///    keyed by the epoch they were built on.
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
                ws.repair_d_core_delta(
                    next.layer(delta.layer),
                    d,
                    &cores[delta.layer],
                    &delta.inserted,
                    &delta.deleted,
                    &mut out,
                );
                repaired[delta.layer] = out;
            }
            entries.push((d, repaired));
        }
        // The fault site sits after all fallible work and before the swap:
        // a panic here proves the old snapshot survives a dying commit.
        if let Some(plan) = &self.fault {
            plan.fire(site::BATCH_COMMIT);
        }
        let state = SharedSearchState::preloaded(entries);
        let epoch = self.publish(GraphSnapshot::stamped(GraphHandle::Owned(next), state, None));
        Ok(CommitReceipt {
            epoch,
            inserted: applied.num_inserted(),
            deleted: applied.num_deleted(),
            layers_touched: applied.layers.len(),
            repaired_ds,
            index_detached: snapshot.index().is_some(),
        })
    }
}

/// Dispatches one spec on a checked-out context and crew — the single place
/// the algorithm match lives. The caller has already validated the spec;
/// the crew is threaded through preprocessing and the search.
///
/// Serve routing lives here too: per `opts.serve`, a greedy-compatible
/// query whose `(d, s)` the snapshot's [`DccIndex`] covers runs GD on the
/// stored candidates instead of the lattice walk — no preprocessing, no
/// re-peeling, the same selection — and every result is stamped with the
/// [`ServePath`] that answered. Only [`Algorithm::Greedy`] (or
/// [`Algorithm::Auto`], which the index resolves to greedy) can serve: the
/// search-tree algorithms interleave pruning with candidate generation and
/// have no precomputed form.
fn run_spec_on_pool(
    ctx: &mut SearchContext,
    pool: &PoolRef<'_>,
    g: &MultiLayerGraph,
    spec: &QuerySpec,
    opts: &DccsOptions,
    index: Option<&DccIndex>,
) -> Result<DccsResult, DccsError> {
    let (d, s) = (spec.params.d, spec.params.s);
    let greedy_compatible = matches!(spec.algorithm, Algorithm::Auto | Algorithm::Greedy);
    let stored = match opts.serve {
        Serve::Peel => None,
        Serve::Auto => index.filter(|_| greedy_compatible).and_then(|ix| ix.entry(d, s)),
        Serve::Index => {
            let unavailable = |message: String| Err(DccsError::IndexUnavailable { message });
            let Some(ix) = index else {
                return unavailable("no index attached to this graph version".into());
            };
            if !greedy_compatible {
                return unavailable(format!(
                    "the index serves greedy selection; explicit {} queries must peel",
                    spec.algorithm.name()
                ));
            }
            let Some(stored) = ix.entry(d, s) else {
                return unavailable(format!("the index has no entry for (d={d}, s={s})"));
            };
            Some(stored)
        }
    };
    let algorithm = match stored {
        Some(_) => Algorithm::Greedy,
        None => spec.algorithm.resolve(g, &spec.params),
    };
    let mut result = match algorithm {
        Algorithm::Greedy => greedy_dccs_on(ctx, pool, g, &spec.params, opts, stored),
        Algorithm::BottomUp => bottom_up_dccs_on(ctx, pool, g, &spec.params, opts),
        Algorithm::TopDown => top_down_dccs_on(ctx, pool, g, &spec.params, opts),
        Algorithm::Exact => exact_dccs_on(ctx, pool, g, &spec.params, opts)?,
        Algorithm::Auto => unreachable!("resolve never returns Auto"),
    };
    result.stats.serve = Some(if stored.is_some() { ServePath::Index } else { ServePath::Peel });
    Ok(result)
}

/// [`run_spec_on_pool`] under the query's limits and panic isolation, plus
/// the opt-in degradation ladder: an explicit [`Algorithm::Exact`] query
/// that blows its candidate budget is rerun as [`Algorithm::Greedy`] (with
/// whatever wall-clock remains) when [`QueryLimits::degrade`] is set, and
/// the fallback is recorded in [`crate::SearchStats::degraded_from`].
#[allow(clippy::too_many_arguments)]
fn run_spec_monitored(
    ctx: &mut SearchContext,
    pool: &PoolRef<'_>,
    g: &MultiLayerGraph,
    spec: &QuerySpec,
    opts: &DccsOptions,
    token: Option<CancelToken>,
    fault: Option<FaultPlan>,
    index: Option<&DccIndex>,
) -> Result<DccsResult, DccsError> {
    let query_start = Instant::now();
    let result = dispatch_limited(ctx, pool, g, spec, opts, token.clone(), fault.clone(), index);
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
    let retried = dispatch_limited(ctx, pool, g, &retry_spec, &retry_opts, token, fault, index);
    retried.map(|mut result| {
        result.stats.degraded_from = Some(Algorithm::Exact);
        result
    })
}

/// One monitored dispatch attempt: compiles the limits, token and fault
/// plan into a [`QueryMonitor`] (skipped entirely for unlimited, token-less
/// queries on an unarmed service), installs it on the context for the
/// duration of the run, converts a flagged-incomplete result into the
/// matching typed error carrying the partial, and converts a panicking
/// engine task into [`DccsError::TaskPanicked`] — replacing the context
/// wholesale, since a panic can leave mid-query state behind, so the
/// service stays usable.
#[allow(clippy::too_many_arguments)]
fn dispatch_limited(
    ctx: &mut SearchContext,
    pool: &PoolRef<'_>,
    g: &MultiLayerGraph,
    spec: &QuerySpec,
    opts: &DccsOptions,
    token: Option<CancelToken>,
    fault: Option<FaultPlan>,
    index: Option<&DccIndex>,
) -> Result<DccsResult, DccsError> {
    let monitored = !opts.limits.is_unlimited() || token.is_some() || fault.is_some();
    let monitor = monitored.then(|| Arc::new(QueryMonitor::new(&opts.limits, token, fault)));
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
            // context (same snapshot binding and index override) rather
            // than trusting whatever the unwind left behind. The shared
            // tier survives by design: its entries are only ever installed
            // whole, so a mid-query panic cannot leave one half-built.
            *ctx = ctx.rebuilt();
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
fn panic_to_error(
    worker_message: Option<String>,
    payload: &(dyn std::any::Any + Send),
) -> DccsError {
    let message = worker_message
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    DccsError::TaskPanicked { message }
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
        assert!(!Arc::ptr_eq(a.state(), b.state()), "each snapshot owns its tier");
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

    /// Attaching an index and the commit that detaches it each publish a
    /// new epoch, which drops the cached answers of the old one.
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
        assert_eq!(served.stats.serve, Some(ServePath::Index));
        assert_eq!(served.stats.dcc_calls, 0);
        assert_eq!(served.cores, peeled.cores);
        assert_eq!(service.cache_stats().entries, 1);
        // An edge outside every 2-core: the commit changes no answer, but it
        // outdates the index, detaches it, and drops the served entry.
        let mut batch = EdgeBatch::new();
        batch.insert(0, 8, 9);
        assert!(service.commit(&batch).unwrap().index_detached);
        assert_eq!(service.cache_stats().entries, 0);
        let repeeled = service.query(&query).unwrap();
        assert_eq!(repeeled.stats.serve, Some(ServePath::Peel));
        assert_eq!(repeeled.cores, peeled.cores);
        assert_eq!(repeeled.stats, peeled.stats);
    }

    #[test]
    fn attach_publishes_a_new_epoch_over_the_same_shared_tier() {
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let query = ServiceQuery::new(DccsParams::new(2, 2, 2));
        service.query(&query).unwrap();
        let before = service.snapshot();
        let memoized = before.state().memoized_ds();
        assert!(memoized >= 1);
        service.attach_index(DccIndex::build(&g, &[2], 0)).unwrap();
        let after = service.snapshot();
        assert!(after.epoch() > before.epoch());
        assert!(Arc::ptr_eq(before.state(), after.state()), "attach keeps the shared tier");
        assert_eq!(after.state().memoized_ds(), memoized);
        assert!(after.index().is_some());
        assert!(before.index().is_none(), "a published snapshot never changes");
        // A service over the pre-attach snapshot still answers by peeling.
        let pinned = QueryService::over(before.clone(), DccsOptions::default());
        let peeled = pinned.query(&query).unwrap();
        assert_eq!(peeled.stats.serve, Some(ServePath::Peel));
        assert_eq!(peeled.stats.graph_epoch, Some(before.epoch()));
        let served = service.query(&query).unwrap();
        assert_eq!(served.stats.serve, Some(ServePath::Index));
        assert_eq!(served.stats.graph_epoch, Some(after.epoch()));
        assert_eq!(served.cores, peeled.cores);
        // A mismatched index publishes nothing.
        let mut other = MultiLayerGraphBuilder::new(12, 4);
        clique(&mut other, 0, &[0, 1, 2]);
        let foreign = DccIndex::build(&other.build(), &[2], 0);
        let err = service.attach_index(foreign).unwrap_err();
        assert!(matches!(err, DccsError::IndexUnavailable { .. }), "got {err:?}");
        assert_eq!(service.epoch(), after.epoch());
    }

    /// An answer computed on a snapshot that a commit or an attach has
    /// since replaced is returned but never cached: no later query could
    /// read its key.
    #[test]
    fn run_one_on_a_superseded_snapshot_caches_nothing() {
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let query = ServiceQuery::new(DccsParams::new(2, 2, 2));
        let pinned = service.snapshot();
        let mut batch = EdgeBatch::new();
        batch.delete(1, 8, 9);
        service.commit(&batch).unwrap();
        let stale = service.run_one(&pinned, &query).unwrap();
        assert_eq!(stale.stats.graph_epoch, Some(pinned.epoch()));
        assert_eq!(service.cache_stats().entries, 0);
        let pinned = service.snapshot();
        service.attach_index(DccIndex::build(pinned.graph(), &[2], 0)).unwrap();
        let stale = service.run_one(&pinned, &query).unwrap();
        assert_eq!(stale.stats.serve, Some(ServePath::Peel));
        assert_eq!(service.cache_stats().entries, 0);
        // The published snapshot still fills the cache.
        service.query(&query).unwrap();
        assert_eq!(service.cache_stats().entries, 1);
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
        // The duplicated spec hit the cache (certain only in order, on one worker).
        if service.workers() == 1 {
            assert!(outcomes[3].result.as_ref().unwrap().stats.served_from_cache);
            assert_eq!(service.cache_stats().hits, 1);
        }
    }

    #[test]
    fn commit_publishes_a_new_epoch_and_queries_see_the_mutated_graph() {
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
        let g = graph();
        let service = QueryService::new(&g, DccsOptions::default());
        let index = DccIndex::build(&g, &[2], 0);
        service.attach_index(index.clone()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 8, 9);
        let receipt = service.commit(&batch).unwrap();
        assert!(receipt.index_detached);
        assert!(service.snapshot().index().is_none(), "the outdated index must not serve");
        // Serve::Index now fails typed; Serve::Auto silently peels.
        let forced = ServiceQuery::new(DccsParams::new(2, 1, 2)).with_serve(Serve::Index);
        let err = service.query(&forced).unwrap_err();
        assert!(matches!(err, DccsError::IndexUnavailable { .. }), "got {err:?}");
        let auto = service.query(&ServiceQuery::new(DccsParams::new(2, 1, 2))).unwrap();
        assert!(auto.stats.complete);
        assert_eq!(auto.stats.serve, Some(ServePath::Peel));
        // The outdated index no longer fits the graph; a rebuilt one serves.
        let err = service.attach_index(index).unwrap_err();
        assert!(matches!(err, DccsError::IndexUnavailable { .. }), "got {err:?}");
        let rebuilt = DccIndex::build(service.snapshot().graph(), &[2], 0);
        service.attach_index(rebuilt).unwrap();
        assert!(service.query(&forced).is_ok());
    }

    /// The pooled context's caches are keyed by the snapshot epoch, not by
    /// the candidate universe alone: here a commit rewires layer 1 without
    /// changing any layer's d-core, so the post-commit query builds a dense
    /// index over the very universe the pinned pre-commit query then peels.
    /// Run on that same context, the pinned query must still answer for
    /// its own graph version.
    #[test]
    fn a_pinned_query_after_a_commit_ignores_the_new_epochs_index() {
        let mut b = MultiLayerGraphBuilder::new(10, 2);
        clique(&mut b, 0, &[0, 1, 2, 3]);
        clique(&mut b, 0, &[4, 5, 6]);
        clique(&mut b, 1, &[4, 5, 7]);
        clique(&mut b, 1, &[6, 8, 9]);
        let g = b.build();
        // No vertex deletion: the universe is the union of the per-layer
        // 2-cores, {0..9} before and after the commit.
        let opts = DccsOptions { index: IndexChoice::Dense, ..DccsOptions::no_vertex_deletion() };
        let service = QueryService::new(&g, opts);
        let spec = QuerySpec::new(DccsParams::new(2, 2, 1)).with_algorithm(Algorithm::Greedy);
        let query = ServiceQuery::new(spec.params).with_algorithm(spec.algorithm);
        let pinned = service.snapshot();
        let mut batch = EdgeBatch::new();
        batch.insert(1, 4, 6).insert(1, 5, 6);
        service.commit(&batch).unwrap();
        let after = service.query(&query).unwrap();
        assert_eq!(after.cover.to_vec(), vec![4, 5, 6], "the commit closes a coherent triangle");
        assert_eq!(service.idle_contexts(), 1, "one pooled context serves both versions");
        let stale = service.run(&pinned, &spec, &opts, None).unwrap();
        let fresh = DccsSession::with_options(&g, opts).query(spec.params).run().unwrap();
        assert_eq!(stale.stats.index_path, Some(crate::IndexPath::Dense));
        assert_eq!(stale.cores, fresh.cores);
        assert_eq!(stale.cover.to_vec(), fresh.cover.to_vec());
        assert!(stale.cover.is_empty(), "before the commit no 2-CC spans both layers");
    }

    #[test]
    fn a_panicking_commit_leaves_the_old_snapshot_serving() {
        let g = graph();
        let mut service = QueryService::new(&g, DccsOptions::default());
        let query = ServiceQuery::new(DccsParams::new(2, 2, 2));
        let before = service.query(&query).unwrap();
        let epoch = service.epoch();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 8, 9);
        let plan = FaultPlan::new(site::BATCH_COMMIT, crate::fault::FaultMode::Panic, 1);
        service.set_fault_plan(Some(plan));
        let caught = catch_unwind(AssertUnwindSafe(|| service.commit(&batch)));
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
        let service = QueryService::over(session.snapshot(), DccsOptions::default());
        let via_service = service.query(&ServiceQuery::new(params)).unwrap();
        assert_eq!(via_service.stats.graph_epoch, via_session.stats.graph_epoch);
        assert_eq!(via_service.cores, via_session.cores);
        assert_eq!(via_service.stats, via_session.stats);
        assert!(service.snapshot().state().memoized_ds() >= 1);
    }
}
