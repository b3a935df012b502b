//! `SearchContext` + the shared parallel search executor — the execution
//! layer every DCCS algorithm drives its peels through.
//!
//! The three search algorithms (GD, BU, TD) all reduce to peeling d-CCs over
//! nodes of a layer-subset search tree. This module centralizes the three
//! resources those peels share:
//!
//! * **Scratch** — a `SearchContext` owns the driver-thread
//!   [`PeelWorkspace`] plus the reusable cover/seed buffers threaded through
//!   greedy selection and `InitTopK`. The query service
//!   ([`crate::QueryService`]) pools contexts and binds each to the graph
//!   snapshot a query pinned, so steady-state queries allocate nothing.
//! * **Indexing policy** — a cost model ([`plan_index`]) decides per run
//!   whether the search peels over the word-level [`DenseSubgraph`] rows
//!   or the CSR adjacency, comparing the dense per-query cost (`⌈m/64⌉`
//!   words per row) against the average CSR adjacency length. GD's
//!   lattice walk plans over the union of the layer cores, BU's and TD's
//!   search trees over the preprocessed active set — the same universe
//!   with vertex deletion on — and all three peel through the
//!   [`PeelIndex`] it hands back. The built dense index is cached on the
//!   context, keyed on the snapshot epoch and the universe, so a sweep
//!   over `s` (whose universe is unchanged) re-indexes the graph once.
//! * **Worker scheduling** — one crew type, a `PersistentPool`:
//!   `threads − 1` worker threads, each with its own [`PeelWorkspace`],
//!   draining a shared job queue alongside the driver. The query service
//!   keeps one crew and reuses it across queries; a one-thread run gets a
//!   crew with no workers, so every batch runs inline on the driver. A
//!   crew runs one scheduling shape, the *fork-join batch*
//!   (`PoolRef::map`): a fixed job list whose outputs come back in
//!   submission order. The lattice's depth-1 branches, the per-layer
//!   preprocessing peels, batch query fan-out, and the children of each
//!   BU/TD search-tree node all run this way. BU and TD walk their trees
//!   depth-first on the driver, in pre-order, and peel each node's
//!   children as one batch.
//!
//! Determinism contract: the executor never lets scheduling influence an
//! algorithm's decisions. A batch fixes its job set before any job runs,
//! each job reads only what it captured, and the driver consumes the
//! outputs in submission order. The live search state (the result set, the
//! statistics, every pruning bound) is read and written on the driver
//! only, between batches. The thread-equivalence property tests
//! (`crates/core/tests/engine_threads.rs`) enforce that BU, TD, and the
//! lattice produce bit-identical results and statistics at 1, 2, 4, and 8
//! threads.

use crate::config::{DccsOptions, DccsParams};
use crate::limits::QueryMonitor;
use crate::preprocess::{initial_layer_cores_on, preprocess_from_monitored, Preprocessed};
use crate::result::SearchStats;
use coreness::PeelWorkspace;
use mlgraph::{DenseSubgraph, Layer, MultiLayerGraph, Vertex, VertexSet};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Which adjacency representation a candidate-generation run peeled over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexPath {
    /// CSR adjacency scans with per-neighbor membership tests.
    #[default]
    Csr,
    /// Re-indexed [`DenseSubgraph`] bitset rows (word-level AND+popcount).
    Dense,
    /// Never produced. A former block-compressed row regime, retired
    /// because plain CSR beat it at every measured scale; the variant stays
    /// so counters keyed by it keep their name and read zero.
    CompressedDense,
}

/// Word budget for the dense re-indexed adjacency (64 MiB of `u64` rows).
/// Universes needing more always fall back to the CSR engine regardless of
/// what the per-query cost model prefers.
pub const DENSE_WORD_BUDGET: usize = 8 << 20;

/// Crossover factor of the dense-vs-CSR cost model: the dense path is chosen
/// only when scanning one `⌈m/64⌉`-word adjacency row costs no more than
/// `DENSE_CROSSOVER ×` the average CSR adjacency scan. Word-level AND+popcount
/// streams sequentially while CSR neighbor tests are dependent random loads,
/// so a row word is cheaper than a neighbor test.
///
/// Calibrated on the `bench_dcc` suite: every configuration where dense wins
/// has `words_per_row / avg_degree ≤ 0.5` or thereabouts, the tiny German
/// analogue at `d = 2` (near-complete universe, ratio ≈ 2) still peels
/// fastest dense (the CSR engine measured 0.89× there), and the small-scale
/// German analogue at `d = 2` (ratio ≈ 10) is where dense collapses to
/// 0.48× — the old budget-only gate picked dense there; this factor puts the
/// cut between those regimes.
pub const DENSE_CROSSOVER: f64 = 4.0;

/// The cost-model decision for one candidate universe, with the quantities
/// that produced it (recorded for diagnostics and the crossover unit tests).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexPlan {
    /// Chosen representation.
    pub path: IndexPath,
    /// Universe size `m`.
    pub universe: usize,
    /// Dense row length in words, `⌈m/64⌉`.
    pub words_per_row: usize,
    /// Average CSR adjacency length of a universe member over all layers.
    pub avg_degree: f64,
}

/// Caller override of the dense-vs-CSR cost model, carried on
/// [`crate::DccsOptions::index`] and the CLI's `--index csr|dense|auto`
/// flag so the model can be A/B'd without recompiling. The override only
/// selects one of the two *representations* — both are bit-identical —
/// and the actual decision is still recorded in
/// [`crate::SearchStats::index_path`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum IndexChoice {
    /// Let the [`plan_index`] cost model decide (the default).
    #[default]
    Auto,
    /// Always peel over the CSR adjacency.
    Csr,
    /// Peel over the dense re-indexed rows whenever the universe fits the
    /// [`DENSE_WORD_BUDGET`] (the memory gate is a safety bound, not part
    /// of the cost model, so it still applies).
    Dense,
}

impl IndexChoice {
    /// The CLI spelling (`auto`, `csr`, `dense`).
    pub fn name(self) -> &'static str {
        match self {
            IndexChoice::Auto => "auto",
            IndexChoice::Csr => "csr",
            IndexChoice::Dense => "dense",
        }
    }

    /// Parses a CLI value (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "auto" => Some(IndexChoice::Auto),
            "csr" => Some(IndexChoice::Csr),
            "dense" => Some(IndexChoice::Dense),
            _ => None,
        }
    }
}

/// Whether flat dense rows for `m` vertices over `l` layers fit the
/// [`DENSE_WORD_BUDGET`] (an empty universe never does).
fn fits_dense_budget(m: usize, l: usize) -> bool {
    m > 0 && DenseSubgraph::words_required(m, l) <= DENSE_WORD_BUDGET
}

/// The `Auto` cost model's dense-vs-CSR rule for a universe of `m` vertices
/// over `l` layers whose members' adjacency lists hold `total_degree`
/// entries in all: dense wins when its rows fit the [`DENSE_WORD_BUDGET`]
/// and one `⌈m/64⌉`-word row costs no more than [`DENSE_CROSSOVER`] × the
/// average adjacency length. [`plan_index_with`] applies it to a candidate
/// universe, and [`crate::Algorithm::resolve`] to the full vertex set,
/// whose degree total is `2 ·` the graph's edge count.
pub(crate) fn auto_prefers_dense(m: usize, l: usize, total_degree: usize) -> bool {
    fits_dense_budget(m, l)
        && (m.div_ceil(64) as f64) <= DENSE_CROSSOVER * (total_degree as f64 / (l * m) as f64)
}

/// Decides between the two peeling representations for a candidate
/// `universe` of `g`: flat dense rows or CSR.
///
/// The dense path re-indexes the universe to `0..m` and answers every
/// degree-within query by scanning a `⌈m/64⌉`-word row; the CSR path scans
/// the vertex's full adjacency list with membership tests, costing one
/// dependent load per neighbor. Dense wins when its row is short relative to
/// the average adjacency ([`DENSE_CROSSOVER`]) and the total index fits the
/// [`DENSE_WORD_BUDGET`]; at low degree thresholds on near-complete
/// universes (many vertices, sparse rows), and on every universe too large
/// for the flat rows, CSR is chosen.
pub fn plan_index(g: &MultiLayerGraph, universe: &VertexSet) -> IndexPlan {
    plan_index_with(g, universe, IndexChoice::Auto)
}

/// [`plan_index`] with an explicit [`IndexChoice`] override: `Csr` and
/// `Dense` force the representation (dense still subject to the memory
/// budget), `Auto` runs the cost model. The plan's diagnostic quantities
/// are computed either way, so an overridden run records the same
/// `words_per_row`/`avg_degree` the model would have seen.
pub fn plan_index_with(
    g: &MultiLayerGraph,
    universe: &VertexSet,
    choice: IndexChoice,
) -> IndexPlan {
    let m = universe.len();
    let l = g.num_layers();
    let mut total_degree = 0usize;
    for layer in 0..l {
        let csr = g.layer(layer);
        for v in universe.iter() {
            total_degree += csr.neighbors(v).len();
        }
    }
    let dense = match choice {
        IndexChoice::Auto => auto_prefers_dense(m, l, total_degree),
        IndexChoice::Csr => false,
        IndexChoice::Dense => fits_dense_budget(m, l),
    };
    IndexPlan {
        path: if dense { IndexPath::Dense } else { IndexPath::Csr },
        universe: m,
        words_per_row: m.div_ceil(64),
        avg_degree: if m == 0 { 0.0 } else { total_degree as f64 / (l * m) as f64 },
    }
}

/// One cached dense index, keyed on the snapshot epoch and the universe it
/// was built for.
#[derive(Debug)]
struct DenseCacheEntry {
    /// Epoch of the snapshot the index was built on: a pooled context
    /// re-bound to another graph version never reads it.
    epoch: u64,
    universe: VertexSet,
    dense: DenseSubgraph,
}

/// Bound on how many distinct `(universe, choice)` cost-model decisions the
/// shared tier memoizes. Universes come from preprocessing, so one per
/// distinct `(d, s)` with vertex deletion on (far fewer in practice: an `s`
/// sweep at fixed `d` shares one), and each entry stores a universe clone —
/// the cap keeps a pathological sweep from accumulating them without bound.
const SHARED_PLAN_CAP: usize = 32;

/// Key of one memoized vertex-deletion fixpoint: `(d, s, vertex_deletion)`,
/// the only query inputs [`crate::preprocess`] reads besides the graph.
type FixpointKey = (u32, usize, bool);

/// A map of once-filled cells: the map lock covers only cell lookup, and
/// each cell's [`OnceLock`] serializes its own computation, so the map is
/// never held across one.
type OnceMap<K, V> = Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>;

/// The **shared immutable tier** of one graph version: everything about it
/// that is expensive to derive, deterministic, and reusable by any number of
/// concurrent queries:
///
/// * the per-`d` initial layer cores (the peel of every layer at threshold
///   `d`, the `d`-only-dependent first step of preprocessing);
/// * the per-`(d, s, vertex_deletion)` **converged** vertex-deletion
///   fixpoint ([`Preprocessed`]), so a warm query repeating a `(d, s)` pays
///   only the search;
/// * the dense-vs-CSR cost-model decisions per candidate universe.
///
/// Each [`crate::service::GraphSnapshot`] holds one tier, behind an `Arc`,
/// and every context checked out for that snapshot reads it — so N worker
/// contexts answering N queries share one copy of the preprocessing work
/// instead of each recomputing it. A tier belongs to one graph version: a
/// mutation commit publishes a new snapshot with a new tier, while
/// attaching an index publishes one that keeps the tier (same graph, fresh
/// epoch).
/// Entries are built **once under a once-style guard**: concurrent first
/// queries for the same key block on one computation
/// ([`OnceLock::get_or_init`]), and a computation that panics (e.g. under
/// fault injection) leaves the cell empty, so a poisoned query never voids
/// the tier for its siblings — the next query simply recomputes.
///
/// Bit-identity is preserved by construction: every memoized quantity is a
/// deterministic pure function of the graph and its key (layer peels and
/// fixpoint rounds are thread-invariant, and [`plan_index_with`] is a pure
/// cost model), so a context reading the tier returns exactly what it would
/// have computed locally. A limited query whose fixpoint stopped early
/// holds a less-pruned superset, not that function's value, so it is never
/// stored.
#[derive(Debug, Default)]
pub struct SharedSearchState {
    /// Per-`d` initial layer cores.
    layer_cores: OnceMap<u32, Vec<VertexSet>>,
    /// Converged vertex-deletion fixpoints. Dropped, not repaired, at a
    /// mutation commit: the next epoch's tier starts without them.
    fixpoints: OnceMap<FixpointKey, Preprocessed>,
    /// Memoized [`plan_index_with`] decisions keyed by exact universe
    /// equality (deliberately not a hash: a collision could flip
    /// `stats.index_path`, which *is* part of stats equality).
    plans: Mutex<Vec<(VertexSet, IndexChoice, IndexPlan)>>,
}

impl SharedSearchState {
    /// A tier whose per-`d` layer-core cells arrive already filled — the
    /// mutation-commit path ([`crate::QueryService::commit`]) repairs the
    /// previous epoch's entries against the edge delta instead of letting
    /// the next epoch's queries recompute them from scratch. Fixpoints and
    /// plans start empty: both depend on the whole graph, which the delta
    /// can change arbitrarily, and each is recomputed on first use from the
    /// repaired cores.
    pub(crate) fn preloaded(entries: Vec<(u32, Vec<VertexSet>)>) -> Arc<Self> {
        let map = entries
            .into_iter()
            .map(|(d, cores)| {
                let cell: Arc<OnceLock<Arc<Vec<VertexSet>>>> = Arc::default();
                let _ = cell.set(Arc::new(cores));
                (d, cell)
            })
            .collect();
        Arc::new(SharedSearchState { layer_cores: Mutex::new(map), ..SharedSearchState::default() })
    }

    /// Every **filled** per-`d` layer-core entry, for the commit path to
    /// repair into the next epoch's tier. Cells still in flight are skipped:
    /// their computation belongs to the old snapshot and will finish there.
    pub(crate) fn snapshot_cores(&self) -> Vec<(u32, Arc<Vec<VertexSet>>)> {
        let mut entries: Vec<_> = lock(&self.layer_cores)
            .iter()
            .filter_map(|(&d, cell)| cell.get().map(|cores| (d, cores.clone())))
            .collect();
        entries.sort_by_key(|&(d, _)| d);
        entries
    }

    /// Number of distinct `d` values whose layer cores have a cell (filled
    /// or in flight) — a diagnostic for tests and stats reporting.
    pub fn memoized_ds(&self) -> usize {
        lock(&self.layer_cores).len()
    }

    /// Number of distinct `(d, s, vertex_deletion)` keys whose converged
    /// fixpoint has a cell (filled or in flight) — the fixpoint analogue of
    /// [`SharedSearchState::memoized_ds`].
    pub fn memoized_fixpoints(&self) -> usize {
        lock(&self.fixpoints).len()
    }

    /// The initial layer cores for `d`, computing them via `compute` if no
    /// query has needed this `d` yet. Concurrent first callers block on one
    /// computation; a panicking `compute` leaves the cell empty for the
    /// next caller to retry.
    pub(crate) fn layer_cores(
        &self,
        d: u32,
        compute: impl FnOnce() -> Vec<VertexSet>,
    ) -> Arc<Vec<VertexSet>> {
        let cell = lock(&self.layer_cores).entry(d).or_default().clone();
        cell.get_or_init(|| Arc::new(compute())).clone()
    }

    /// The preprocessing for `key`, and whether it came out of the memo.
    /// `compute` runs the fixpoint and reports whether it converged.
    ///
    /// An unlimited caller (`limited == false`) fills the cell under its
    /// once-guard, exactly like [`SharedSearchState::layer_cores`]: its
    /// fixpoint always converges. A limited caller may stop early, so it
    /// only *reads* a filled cell; on a miss it computes outside the guard
    /// and stores the result only if the fixpoint converged.
    pub(crate) fn fixpoint(
        &self,
        key: FixpointKey,
        limited: bool,
        compute: impl FnOnce() -> (Preprocessed, bool),
    ) -> (Arc<Preprocessed>, bool) {
        if limited {
            let filled = lock(&self.fixpoints).get(&key).and_then(|cell| cell.get().cloned());
            if let Some(pre) = filled {
                return (pre, true);
            }
            let (pre, converged) = compute();
            let pre = Arc::new(pre);
            if converged {
                let cell = lock(&self.fixpoints).entry(key).or_default().clone();
                let _ = cell.set(pre.clone());
            }
            return (pre, false);
        }
        let cell = lock(&self.fixpoints).entry(key).or_default().clone();
        let mut hit = true;
        let pre = cell.get_or_init(|| {
            hit = false;
            let (pre, converged) = compute();
            debug_assert!(converged, "an unmonitored fixpoint always converges");
            Arc::new(pre)
        });
        (pre.clone(), hit)
    }

    /// The cost-model decision for `universe` under `choice`, memoized.
    pub(crate) fn plan(
        &self,
        g: &MultiLayerGraph,
        universe: &VertexSet,
        choice: IndexChoice,
    ) -> IndexPlan {
        if let Some((_, _, plan)) =
            lock(&self.plans).iter().find(|(u, c, _)| *c == choice && u == universe)
        {
            return *plan;
        }
        let plan = plan_index_with(g, universe, choice);
        let mut plans = lock(&self.plans);
        if !plans.iter().any(|(u, c, _)| *c == choice && u == universe) {
            if plans.len() >= SHARED_PLAN_CAP {
                plans.remove(0);
            }
            plans.push((universe.clone(), choice, plan));
        }
        plan
    }
}

/// Locks a mutex, recovering the data from a poisoned lock: every critical
/// section in [`SharedSearchState`] (and the service tier built on it) is a
/// short map/vec operation that cannot leave the data half-updated, so a
/// panic elsewhere (fault injection, a dying sibling query) must not void
/// the shared state.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Per-query execution state: the driver's peel scratch, reusable
/// cover/seed buffers, the lazily built dense index, and the binding to one
/// graph snapshot — its epoch and its [`SharedSearchState`].
///
/// The query service pools contexts and re-binds one to the snapshot each
/// query pinned ([`SearchContext::bind`]). Every cache a context keeps is
/// keyed by that snapshot's epoch, so a context reused across graph
/// versions never serves one version's index to another.
#[derive(Debug)]
pub(crate) struct SearchContext {
    /// Caller override of the dense-vs-CSR cost model (CLI `--index`).
    index_choice: IndexChoice,
    /// Epoch of the snapshot this context is bound to (0 for a standalone
    /// context, which no published snapshot ever carries).
    epoch: u64,
    /// The bound snapshot's tier: layer cores, fixpoints and index plans.
    shared: Arc<SharedSearchState>,
    dense_cache: Option<DenseCacheEntry>,
    /// Driver-thread peel scratch (workers own their own).
    pub(crate) ws: PeelWorkspace,
    /// Reused cover accumulator for the greedy max-k-cover selection.
    pub(crate) cover: VertexSet,
    /// Reused running-intersection buffer for `InitTopK`.
    pub(crate) running: VertexSet,
    /// Reused seed-core output buffer for `InitTopK`.
    pub(crate) seed: VertexSet,
    /// The active query's limit monitor, installed by the dispatch layer
    /// for the duration of one query; it also carries the service's fault
    /// plan. `None` (the default, and for every unlimited query without a
    /// cancel token on an unarmed service) keeps all checkpoint and fault
    /// sites on their no-monitor fast path.
    pub(crate) monitor: Option<Arc<QueryMonitor>>,
}

impl SearchContext {
    /// A context bound to the snapshot with `epoch` and tier `shared`,
    /// planning its peels under `index_choice`.
    pub(crate) fn new(
        epoch: u64,
        shared: Arc<SharedSearchState>,
        index_choice: IndexChoice,
    ) -> Self {
        SearchContext {
            index_choice,
            epoch,
            shared,
            dense_cache: None,
            ws: PeelWorkspace::new(),
            cover: VertexSet::new(0),
            running: VertexSet::new(0),
            seed: VertexSet::new(0),
            monitor: None,
        }
    }

    /// Re-binds a pooled context to the snapshot a query checked it out
    /// for. The scratch buffers carry over; the dense index is read again
    /// only while the epoch matches the one it was built on.
    pub(crate) fn bind(&mut self, epoch: u64, shared: Arc<SharedSearchState>, index: IndexChoice) {
        self.epoch = epoch;
        self.shared = shared;
        self.index_choice = index;
    }

    /// A fresh context bound to the same snapshot and index override —
    /// what the dispatch layer swaps in after a panic unwound through this
    /// one.
    pub(crate) fn rebuilt(&self) -> Self {
        SearchContext::new(self.epoch, self.shared.clone(), self.index_choice)
    }

    /// Runs the Section IV-C preprocessing through the bound tier and
    /// records the deletion counters and whether the memo answered in
    /// `stats`. The initial full-universe d-cores (the only step that
    /// depends on `d` alone) are computed once per distinct `d`, and the
    /// converged vertex-deletion fixpoint once per `(d, s,
    /// vertex_deletion)`, then reused by every later query on the snapshot
    /// — a warm query repeating a `(d, s)` is a refcount bump, and an `s`
    /// sweep at fixed `d` re-runs only the fixpoint, whose rounds shrink
    /// the layer cores by each round's victims instead of re-peeling them.
    /// The initial peels and each round's per-layer shrinks run as
    /// fork-join batches on `pool`. The result is bit-identical to
    /// [`crate::preprocess::preprocess`]. A limited query
    /// (one with a monitor installed) may stop the fixpoint early; the tier
    /// then keeps the unconverged result out of the memo.
    pub(crate) fn preprocess_into(
        &mut self,
        pool: &PoolRef<'_>,
        g: &MultiLayerGraph,
        params: &DccsParams,
        opts: &DccsOptions,
        stats: &mut SearchStats,
    ) -> Arc<Preprocessed> {
        let tier = self.shared.clone();
        let key = (params.d, params.s, opts.vertex_deletion);
        let (pre, hit) = tier.fixpoint(key, self.monitor.is_some(), || {
            let initial = self.layer_cores(pool, g, params.d).to_vec();
            let (ws, monitor) = (&mut self.ws, self.monitor.as_deref());
            preprocess_from_monitored(g, params, opts, ws, initial, pool, monitor)
        });
        stats.vertices_deleted = pre.vertices_deleted;
        stats.fixpoint_rounds = pre.fixpoint_rounds;
        stats.preprocess_memo_hit = hit;
        pre
    }

    /// Every layer's full-universe d-core for `d`, from the bound tier's
    /// per-`d` memo: peeled as a fork-join batch on `pool` by the first
    /// caller, shared by every later one. Preprocessing and the index build
    /// both read layer cores here.
    pub(crate) fn layer_cores(
        &mut self,
        pool: &PoolRef<'_>,
        g: &MultiLayerGraph,
        d: u32,
    ) -> Arc<Vec<VertexSet>> {
        let (ws, monitor) = (&mut self.ws, self.monitor.as_deref());
        self.shared.layer_cores(d, || initial_layer_cores_on(g, d, ws, pool, monitor))
    }

    /// Split borrow of the `InitTopK` scratch: the driver workspace, the
    /// running-intersection buffer, and the seed-core buffer.
    pub(crate) fn init_scratch(&mut self) -> (&mut PeelWorkspace, &mut VertexSet, &mut VertexSet) {
        (&mut self.ws, &mut self.running, &mut self.seed)
    }

    /// Installs (or removes) the limit monitor for the next dispatch. The
    /// dispatch layer sets it right before running a limited query and
    /// clears it after, so reuse of the context never leaks one query's
    /// limits into the next.
    pub(crate) fn set_monitor(&mut self, monitor: Option<Arc<QueryMonitor>>) {
        self.monitor = monitor;
    }

    /// The active query's limit monitor, if one is installed.
    pub(crate) fn monitor(&self) -> Option<&Arc<QueryMonitor>> {
        self.monitor.as_ref()
    }

    /// Plans the peeling representation for `universe` (honoring the
    /// context's [`IndexChoice`] override) and hands back the unified
    /// [`PeelIndex`] plus the driver workspace as a split borrow, so the
    /// search can peel on the driver while worker jobs share the index. The
    /// dense index is cached across calls keyed on the snapshot epoch and
    /// the universe, so a sweep whose preprocessed universe is unchanged —
    /// or a GD query followed by a BU or TD one — re-indexes the graph once.
    pub(crate) fn peel_index<'a>(
        &'a mut self,
        g: &'a MultiLayerGraph,
        universe: &VertexSet,
    ) -> (PeelIndex<'a>, &'a mut PeelWorkspace) {
        let mut plan = self.shared.plan(g, universe, self.index_choice);
        if plan.path == IndexPath::Dense {
            if let Some(ceiling) =
                self.monitor.as_ref().and_then(|monitor| monitor.max_dense_words())
            {
                let required = DenseSubgraph::words_required(universe.len(), g.num_layers());
                if required > ceiling {
                    // Over the caller's memory ceiling: under `Auto` the CSR
                    // path is a bit-identical fallback, so just take it; a
                    // *forced* dense index is a contract the engine cannot
                    // honor, so the monitor trips and the dispatch layer
                    // fails the query with `MemoryLimit`.
                    if self.index_choice == IndexChoice::Dense {
                        if let Some(monitor) = &self.monitor {
                            monitor.trip_dense_memory(required, ceiling);
                        }
                    }
                    plan.path = IndexPath::Csr;
                }
            }
        }
        let dense = if plan.path == IndexPath::Dense {
            let epoch = self.epoch;
            let hit = self
                .dense_cache
                .as_ref()
                .is_some_and(|e| e.epoch == epoch && e.universe == *universe);
            if !hit {
                self.dense_cache = Some(DenseCacheEntry {
                    epoch,
                    universe: universe.clone(),
                    dense: DenseSubgraph::build(g, universe),
                });
            }
            self.dense_cache.as_ref().map(|e| &e.dense)
        } else {
            None
        };
        (PeelIndex::new(g, dense, plan), &mut self.ws)
    }
}

/// A standalone context for unit tests that drive the algorithms directly:
/// epoch 0 (which no published snapshot carries), a private tier, `Auto`
/// index plans. Bound to whichever one graph it is first used on.
#[cfg(test)]
impl Default for SearchContext {
    fn default() -> Self {
        SearchContext::new(0, Arc::default(), IndexChoice::Auto)
    }
}

/// The unified peeling index [`plan_index`] hands back: one object wrapping
/// whichever adjacency representation the cost model (or the caller's
/// [`IndexChoice`] override) picked, consumed by the lattice walk and the
/// BU/TD search trees through the same kernel-dispatched API instead of
/// each call site re-branching on [`IndexPath`].
///
/// On the CSR path the index space **is** the graph's vertex universe
/// (`compress`/`emit` are identity copies and degrees scan adjacency
/// lists); on the dense path it is the re-indexed `0..m` universe and every
/// degree is a `popcount(row ∧ set)` over flat `⌈m/64⌉`-word rows through
/// the selected bit kernel.
#[derive(Clone, Copy)]
pub struct PeelIndex<'a> {
    g: &'a MultiLayerGraph,
    dense: Option<&'a DenseSubgraph>,
    plan: IndexPlan,
    /// The process-dispatched bit kernel, fetched once at construction so
    /// the per-vertex degree queries of a walk pay no repeated
    /// `OnceLock` lookup.
    kernel: &'static dyn mlgraph::kernels::BitKernel,
}

impl std::fmt::Debug for PeelIndex<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeelIndex")
            .field("plan", &self.plan)
            .field("kernel", &self.kernel.kind())
            .finish()
    }
}

/// How [`PeelIndex::inherit_prefix_degrees`] produced a child's
/// prefix-layer degrees — the observable half of the lattice's inheritance
/// diagnostics ([`crate::LatticeStats::inherited`] /
/// [`crate::LatticeStats::recount_fallbacks`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum InheritOutcome {
    /// The parent's counts were copied and patched by the removed
    /// vertices' edges into the child.
    Patched,
    /// The intersection dropped most of the parent, so the (now small)
    /// child was recounted from scratch instead.
    Recounted,
}

impl<'a> PeelIndex<'a> {
    /// Builds an index from an explicit plan and (for the dense path) the
    /// dense subgraph built over the plan's universe; every search builds
    /// its index through here.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is given on a CSR plan or missing on a dense one.
    pub fn new(g: &'a MultiLayerGraph, dense: Option<&'a DenseSubgraph>, plan: IndexPlan) -> Self {
        assert_eq!(plan.path == IndexPath::Dense, dense.is_some(), "dense rows iff a dense plan");
        PeelIndex { g, dense, plan, kernel: mlgraph::kernels::kernel() }
    }

    /// The representation this index peels over.
    pub fn path(&self) -> IndexPath {
        self.plan.path
    }

    /// The cost-model plan that produced this index.
    pub fn plan(&self) -> IndexPlan {
        self.plan
    }

    /// The dense re-indexed subgraph, when the dense path was chosen.
    pub fn dense_index(&self) -> Option<&'a DenseSubgraph> {
        self.dense
    }

    /// Heap footprint of the built adjacency index in bytes: the flat rows
    /// on the dense path, 0 on CSR (no index is built — the graph is peeled
    /// in place).
    pub fn index_bytes(&self) -> usize {
        self.dense.map_or(0, |dense| dense.words_per_row() * dense.len() * self.g.num_layers() * 8)
    }

    /// Universe size in index space: `m` on the dense path, `n` on CSR.
    pub fn universe_len(&self) -> usize {
        self.dense.map_or(self.g.num_vertices(), DenseSubgraph::len)
    }

    /// `|N_layer(v) ∩ set|` in index space — a kernel-dispatched
    /// `popcount(row ∧ set)` on the dense path, an adjacency scan with
    /// membership tests on CSR.
    #[inline]
    pub fn degree_within(&self, layer: Layer, v: Vertex, set: &VertexSet) -> usize {
        match self.dense {
            Some(dense) => self.kernel.and_count(set.words(), dense.row(layer, v)),
            None => self.g.layer(layer).degree_within(v, set),
        }
    }

    /// Calls `f(u)` for every `u ∈ N_layer(v) ∩ set` in index space, in
    /// ascending order — the set bits of `row ∧ set` on the dense path, the
    /// adjacency list filtered by membership on CSR.
    #[inline]
    pub(crate) fn for_each_neighbor_within(
        &self,
        layer: Layer,
        v: Vertex,
        set: &VertexSet,
        mut f: impl FnMut(Vertex),
    ) {
        match self.dense {
            Some(dense) => {
                for (w, (&r, &s)) in dense.row(layer, v).iter().zip(set.words()).enumerate() {
                    let mut bits = r & s;
                    while bits != 0 {
                        f((w * 64 + bits.trailing_zeros() as usize) as Vertex);
                        bits &= bits - 1;
                    }
                }
            }
            None => {
                for &u in self.g.layer(layer).neighbors(v) {
                    if set.contains(u) {
                        f(u);
                    }
                }
            }
        }
    }

    /// Translates per-layer cores into index space: `None` on CSR (the
    /// caller keeps using the originals — index space is vertex space),
    /// re-indexed copies on the dense path.
    pub fn compress_layer_cores(&self, layer_cores: &[VertexSet]) -> Option<Vec<VertexSet>> {
        self.dense.map(|dense| {
            layer_cores
                .iter()
                .map(|core| {
                    let mut compressed = dense.new_set();
                    dense.compress_into(core, &mut compressed);
                    compressed
                })
                .collect()
        })
    }

    /// Translates one vertex-space set into index space: a copy on CSR, the
    /// re-indexed set on the dense path (members outside the universe are
    /// dropped).
    pub fn compress(&self, set: &VertexSet) -> VertexSet {
        match self.dense {
            Some(dense) => {
                let mut compressed = dense.new_set();
                dense.compress_into(set, &mut compressed);
                compressed
            }
            None => set.clone(),
        }
    }

    /// Returns `core` in vertex space for emission: the core itself on CSR,
    /// the expansion written into `buf` on the dense path.
    pub fn emit<'s>(&self, core: &'s VertexSet, buf: &'s mut VertexSet) -> &'s VertexSet {
        match self.dense {
            Some(dense) => {
                dense.expand_into(core, buf);
                buf
            }
            None => core,
        }
    }

    /// [`PeelIndex::emit`] for an owned core: the core itself on CSR, a
    /// fresh vertex-space expansion on the dense path.
    pub fn emit_owned(&self, core: VertexSet) -> VertexSet {
        match self.dense {
            Some(dense) => {
                let mut expanded = VertexSet::new(self.g.num_vertices());
                dense.expand_into(&core, &mut expanded);
                expanded
            }
            None => core,
        }
    }

    /// The full multi-layer `dCC` peel in index space: count every member's
    /// degree on each layer of `layers` inside `alive`, then cascade.
    /// [`PeelWorkspace::peel_dense_in_place`] (kernel popcounts over the
    /// rows) on the dense path, [`PeelWorkspace::peel_in_place`] (CSR
    /// adjacency scans) otherwise; both leave `alive` the same d-CC.
    pub fn peel(&self, ws: &mut PeelWorkspace, layers: &[Layer], d: u32, alive: &mut VertexSet) {
        match self.dense {
            Some(dense) => ws.peel_dense_in_place(dense, layers, d, alive),
            None => ws.peel_in_place(self.g, layers, d, alive),
        }
    }

    /// The cascading removal phase in index space — the peeler's side of
    /// the unified API: [`PeelWorkspace::cascade_dense`] (word-batched, bit
    /// kernels) on the dense path, [`PeelWorkspace::cascade_in_place`] (CSR
    /// adjacency) otherwise. Both reach the same fixpoint — the d-core
    /// cascade is confluent. `degrees` must hold exact within-`alive`
    /// degrees per `layers[j]`, and is kept exact for the survivors.
    pub fn cascade(
        &self,
        ws: &mut PeelWorkspace,
        layers: &[Layer],
        d: u32,
        alive: &mut VertexSet,
        degrees: &mut [u32],
    ) {
        match self.dense {
            Some(dense) => ws.cascade_dense(dense, layers, d, alive, degrees),
            None => ws.cascade_in_place(self.g, layers, d, alive, degrees),
        }
    }

    /// Builds a lattice child's prefix-layer degree rows from its parent's,
    /// by one rule on both representations.
    ///
    /// When at most `|child|` vertices were lost (`|removed| ≤ |child|`),
    /// the parent's counts are copied for the child's members and then
    /// patched: for each removed vertex and each prefix layer, every child
    /// member adjacent to it loses one
    /// ([`PeelIndex::for_each_neighbor_within`] — an adjacency scan on CSR,
    /// the set bits of `row ∧ child` on dense rows). Otherwise the
    /// intersection dropped most of the parent, and the (now small) child is
    /// recounted from scratch.
    ///
    /// `prefix` is the subset's first `depth` layers; `parent_deg` /
    /// `child_deg` are laid out `[t * len + v]` over the index-space
    /// universe.
    pub(crate) fn inherit_prefix_degrees(
        &self,
        prefix: &[Layer],
        parent_deg: &[u32],
        child_deg: &mut [u32],
        child: &VertexSet,
        removed: &VertexSet,
    ) -> InheritOutcome {
        let len = self.universe_len();
        if removed.len() <= child.len() {
            for v in child.iter() {
                let vi = v as usize;
                for t in 0..prefix.len() {
                    child_deg[t * len + vi] = parent_deg[t * len + vi];
                }
            }
            for u in removed.iter() {
                for (t, &layer) in prefix.iter().enumerate() {
                    let deg = &mut child_deg[t * len..(t + 1) * len];
                    self.for_each_neighbor_within(layer, u, child, |v| deg[v as usize] -= 1);
                }
            }
            InheritOutcome::Patched
        } else {
            for (t, &layer) in prefix.iter().enumerate() {
                for v in child.iter() {
                    child_deg[t * len + v as usize] = self.degree_within(layer, v, child) as u32;
                }
            }
            InheritOutcome::Recounted
        }
    }
}

/// A unit of work: one search-tree child evaluation, run on any worker's
/// workspace.
///
/// Jobs are **lifetime-erased** at enqueue time (see [`erase_job`]): the
/// queue holds `'static`-typed boxes whose closures may in fact borrow the
/// enqueuing frame. That is what lets one long-lived crew serve batches
/// whose jobs borrow data created long after the crew was spawned (the
/// preprocessed layer cores, the cached dense index, a lattice branch
/// closure), so a query pays no worker spawn/join of its own.
type Job = Box<dyn FnOnce(&mut PeelWorkspace) + Send>;

/// Erases the borrow lifetime of a job before it enters the shared queue.
///
/// # Safety argument
///
/// Sound because every enqueue site pairs the erased jobs with a
/// [`DrainGuard`] on the enqueuing stack frame: the guard runs on **every**
/// exit path (normal return or unwind), removes any still-queued jobs of
/// the batch, and blocks until the in-flight ones have finished. No erased
/// closure — queued, running, or dropped — can therefore outlive the frame
/// whose borrows it captures. The queue is strictly single-driver (one
/// batch in flight at a time), so a guard never waits on or drops another
/// batch's jobs.
#[allow(unsafe_code)]
fn erase_job<'env>(job: Box<dyn FnOnce(&mut PeelWorkspace) + Send + 'env>) -> Job {
    // SAFETY: per above — completion is enforced before the borrowed frame
    // can die, and a fat Box pointer's layout does not depend on the
    // trait object's lifetime bound.
    unsafe { std::mem::transmute(job) }
}

struct PoolState {
    queue: VecDeque<Job>,
    outstanding: usize,
    shutdown: bool,
}

/// Queue + signalling shared between the driver and the workers.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for jobs (or shutdown).
    work_cv: Condvar,
    /// The driver parks here waiting for the last job of a batch.
    done_cv: Condvar,
    /// Message of the most recent panicking job, recorded by the isolation
    /// layer in [`worker_loop`] before the driver is woken — so when the
    /// driver surfaces the failure (a missing batch result) the dispatch
    /// layer can report the *original* panic, not the generic
    /// missing-result message.
    last_panic: Mutex<Option<String>>,
}

impl PoolShared {
    fn new() -> Self {
        PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                outstanding: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            last_panic: Mutex::new(None),
        }
    }

    fn record_panic(&self, payload: &(dyn std::any::Any + Send)) {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        *self.last_panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(message);
    }

    fn take_last_panic(&self) -> Option<String> {
        self.last_panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
    }
}

fn lock_state<'a>(shared: &'a PoolShared) -> MutexGuard<'a, PoolState> {
    // A panicking job poisons nothing we cannot recover: the state is a
    // plain queue + counter, consistent at every lock release.
    shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The completion fence backing [`erase_job`]'s safety argument: dropped on
/// every exit path of a batch, it discards whatever the current batch still
/// has queued (decrementing the in-flight counter for each discarded job)
/// and then waits until every job already running on a worker has finished.
/// On the normal path the caller has already drained everything and this
/// is one cheap lock; on an unwinding path it is what keeps erased borrows
/// alive until no job can touch them.
struct DrainGuard<'a>(&'a PoolShared);

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_state(self.0);
        while let Some(job) = st.queue.pop_front() {
            st.outstanding -= 1;
            drop(job);
        }
        while st.outstanding > 0 {
            st = self.0.done_cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Decrements the in-flight job counter even if the job panicked, so a
/// driver parked on `done_cv` is woken instead of deadlocking the batch.
/// Every popped job, on a worker or on the driver, runs under this guard;
/// [`PoolRef::map`] increments `outstanding` at enqueue time, so the
/// counter means "enqueued but not finished".
struct JobGuard<'a>(&'a PoolShared);

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_state(self.0);
        st.outstanding -= 1;
        if st.outstanding == 0 {
            self.0.done_cv.notify_all();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut ws = PeelWorkspace::new();
    loop {
        let job = {
            let mut st = lock_state(shared);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break Some(job);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.work_cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        let guard = JobGuard(shared);
        // Panic isolation: a panicking job must not take its worker down —
        // the crew outlives the query (the query service's crew serves
        // every later query too). The panic is recorded for the driver,
        // which sees the job's missing batch result, and the workspace —
        // whose scratch may be mid-cascade — is replaced wholesale. Unwind
        // safety: the job's borrows are fenced by the batch's `DrainGuard`,
        // and nothing of the worker's state beyond `ws` crosses the
        // boundary.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&mut ws)));
        if let Err(payload) = outcome {
            shared.record_panic(payload.as_ref());
            ws = PeelWorkspace::new();
        }
        drop(guard);
    }
}

/// Handle to a running worker crew ([`PersistentPool::pool_ref`]).
pub(crate) struct PoolRef<'pool> {
    shared: &'pool PoolShared,
    workers: usize,
}

impl PoolRef<'_> {
    /// Number of workers draining the queue besides the driver.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Takes (and clears) the message of the most recent panicking job on
    /// this crew — the dispatch layer reads it when converting a panic
    /// into [`crate::DccsError::TaskPanicked`].
    pub(crate) fn take_last_panic(&self) -> Option<String> {
        self.shared.take_last_panic()
    }

    /// Runs a batch of jobs — one search-tree child, lattice branch, layer
    /// peel or query each — across the crew and returns their outputs **in
    /// submission order**.
    ///
    /// The driver participates: it drains the queue alongside the workers on
    /// `driver_ws`, then blocks until the stragglers finish. With no workers
    /// (sequential context) or a single job, everything runs inline on the
    /// driver, so a 1-thread run never touches the queue. The deterministic
    /// output order is what makes parallel search results bit-identical to
    /// sequential ones.
    ///
    /// Jobs may borrow anything alive across this call — including data
    /// created after the crew was spawned; the internal [`DrainGuard`]
    /// guarantees no job outlives the call (see [`erase_job`]).
    pub(crate) fn map<T, F>(&self, driver_ws: &mut PeelWorkspace, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce(&mut PeelWorkspace) -> T + Send,
    {
        if self.workers == 0 || jobs.len() <= 1 {
            return jobs.into_iter().map(|job| job(driver_ws)).collect();
        }
        let n = jobs.len();
        let results: Arc<Mutex<Vec<(usize, T)>>> = Arc::new(Mutex::new(Vec::with_capacity(n)));
        // From the first enqueue on, every exit path must fence on batch
        // completion before `results` (and the jobs' borrows) die.
        let _fence = DrainGuard(self.shared);
        {
            let mut st = lock_state(self.shared);
            st.outstanding += n;
            for (i, job) in jobs.into_iter().enumerate() {
                let slot = Arc::clone(&results);
                st.queue.push_back(erase_job(Box::new(move |ws: &mut PeelWorkspace| {
                    let out = job(ws);
                    slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push((i, out));
                })));
            }
        }
        self.shared.work_cv.notify_all();
        // Participate until the queue is drained…
        loop {
            let job = lock_state(self.shared).queue.pop_front();
            let Some(job) = job else { break };
            let guard = JobGuard(self.shared);
            job(driver_ws);
            drop(guard);
        }
        // …then wait for jobs still running on workers.
        {
            let mut st = lock_state(self.shared);
            while st.outstanding > 0 {
                st =
                    self.shared.done_cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        let results = Arc::try_unwrap(results)
            .unwrap_or_else(|_| panic!("batch results still shared after completion"))
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut results = results;
        results.sort_unstable_by_key(|&(i, _)| i);
        assert_eq!(results.len(), n, "a batch job died without producing its result");
        results.into_iter().map(|(_, t)| t).collect()
    }
}

/// Resolves a `threads` knob: `0` means **auto** —
/// `std::thread::available_parallelism()` (falling back to 1 when the
/// platform cannot report it) — and any other value is taken literally
/// (`1` is sequential). Every entry point reads `threads` through this one
/// rule.
pub fn auto_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// CI escape hatch: `DCCS_FORCE_THREADS=N` raises every crew to at least
/// `N` workers (it never lowers an explicit wider setting). Because the
/// executor's results are thread-invariant, forcing a width changes no
/// output — it only makes single-core CI runners exercise the multi-worker
/// queue and merge paths that a `threads = 1` run would otherwise skip.
/// Read once per process.
fn forced_threads() -> Option<usize> {
    static FORCED: OnceLock<Option<usize>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("DCCS_FORCE_THREADS").ok().and_then(|v| v.parse().ok()).filter(|&n| n >= 1)
    })
}

/// The crew width a `threads` request actually gets: [`auto_threads`],
/// then the `DCCS_FORCE_THREADS` CI override (which only ever raises it).
pub(crate) fn effective_threads(threads: usize) -> usize {
    let threads = auto_threads(threads);
    forced_threads().map_or(threads, |forced| threads.max(forced))
}

/// Runs `f` on a fresh crew of `threads` (see [`PersistentPool::new`]) and
/// joins it before returning. A one-thread crew spawns nothing, so this is
/// how a sequential run gets a [`PoolRef`] whose batches all run inline.
pub(crate) fn with_pool<R>(threads: usize, f: impl FnOnce(&PoolRef<'_>) -> R) -> R {
    f(&PersistentPool::new(threads).pool_ref())
}

/// The executor's one crew type: `threads − 1` worker threads (the driver
/// is the remaining one), spawned once, reused by every batch handed its
/// [`PoolRef`], and joined on drop. The query service
/// keeps one for its multi-thread queries and batches, so repeated queries
/// stop paying a worker spawn/join per phase.
///
/// Determinism is untouched: a crew only changes *where* jobs run, and a
/// batch's outputs come back in submission order (see the module docs). A
/// job that panics is caught on its worker ([`worker_loop`]'s
/// isolation layer): the worker survives with a fresh workspace, the panic
/// message is parked for [`PoolRef::take_last_panic`], and the driver
/// surfaces the failure through the batch's missing result — so the crew
/// keeps its full width across faults and the service stays usable.
#[derive(Debug)]
pub(crate) struct PersistentPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock_state(self);
        f.debug_struct("PoolShared")
            .field("queued", &st.queue.len())
            .field("outstanding", &st.outstanding)
            .field("shutdown", &st.shutdown)
            .finish()
    }
}

impl PersistentPool {
    /// Spawns a crew of [`effective_threads`]`(threads) − 1` workers (the
    /// driver participates as the remaining one): `0` means auto, and
    /// `DCCS_FORCE_THREADS` may raise the width.
    pub(crate) fn new(threads: usize) -> Self {
        let threads = effective_threads(threads);
        let shared = Arc::new(PoolShared::new());
        let handles = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        PersistentPool { shared, handles, threads }
    }

    /// The width this crew was created for (after auto and CI forcing).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// A handle batches run on. Takes `&mut self`: the
    /// queue is strictly single-driver (the [`DrainGuard`] completion fence
    /// purges the whole queue on an unwinding batch), so the borrow checker
    /// must rule out two simultaneous drivers on one crew.
    pub(crate) fn pool_ref(&mut self) -> PoolRef<'_> {
        PoolRef { shared: &self.shared, workers: self.handles.len() }
    }
}

impl Drop for PersistentPool {
    fn drop(&mut self) {
        lock_state(&self.shared).shutdown = true;
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            // A worker that panicked mid-job already surfaced the failure
            // through its batch's missing result; the join result carries
            // nothing further worth propagating during drop.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgraph::MultiLayerGraphBuilder;

    #[test]
    fn map_returns_results_in_submission_order() {
        for threads in [1, 2, 4] {
            let out: Vec<usize> = with_pool(threads, |pool| {
                let mut ws = PeelWorkspace::new();
                let jobs: Vec<_> =
                    (0..17usize).map(|i| move |_ws: &mut PeelWorkspace| i * i).collect();
                pool.map(&mut ws, jobs)
            });
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn repeated_batches_reuse_the_same_crew() {
        let sums: Vec<usize> = with_pool(3, |pool| {
            let mut ws = PeelWorkspace::new();
            (0..10)
                .map(|round| {
                    let jobs: Vec<_> = (0..8usize)
                        .map(|i| move |_ws: &mut PeelWorkspace| round * 100 + i)
                        .collect();
                    pool.map(&mut ws, jobs).into_iter().sum()
                })
                .collect()
        });
        let expected: Vec<usize> = (0..10).map(|round| round * 800 + 28).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn jobs_borrow_the_environment() {
        let data: Vec<u64> = (0..100).collect();
        let total: u64 = with_pool(4, |pool| {
            let mut ws = PeelWorkspace::new();
            let jobs: Vec<_> = data
                .chunks(7)
                .map(|chunk| move |_ws: &mut PeelWorkspace| chunk.iter().sum::<u64>())
                .collect();
            pool.map(&mut ws, jobs).into_iter().sum()
        });
        assert_eq!(total, 4950);
    }

    fn two_clique_graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(64, 3);
        for layer in 0..3 {
            for i in 0..8u32 {
                for j in (i + 1)..8 {
                    b.add_edge(layer, i, j).unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn cost_model_prefers_dense_on_small_dense_universes() {
        let g = two_clique_graph();
        let universe = VertexSet::from_iter(64, 0..8);
        let plan = plan_index(&g, &universe);
        // m = 8 → one word per row; avg degree 7 → dense clearly wins.
        assert_eq!(plan.words_per_row, 1);
        assert_eq!(plan.path, IndexPath::Dense);
    }

    #[test]
    fn cost_model_prefers_csr_on_wide_sparse_universes() {
        // 4000 vertices in a cycle: avg degree 2, rows of ⌈4000/64⌉ = 63
        // words — scanning 63 words to count 2 neighbors loses to CSR.
        let mut b = MultiLayerGraphBuilder::new(4000, 1);
        for v in 0..4000u32 {
            b.add_edge(0, v, (v + 1) % 4000).unwrap();
        }
        let g = b.build();
        let universe = g.full_vertex_set();
        let plan = plan_index(&g, &universe);
        assert_eq!(plan.path, IndexPath::Csr);
        assert!(plan.words_per_row as f64 > DENSE_CROSSOVER * plan.avg_degree);
    }

    #[test]
    fn cost_model_rejects_empty_universe() {
        let g = two_clique_graph();
        let plan = plan_index(&g, &VertexSet::new(64));
        assert_eq!(plan.path, IndexPath::Csr);
    }

    #[test]
    fn index_choice_overrides_the_cost_model_within_the_budget() {
        let g = two_clique_graph();
        let universe = VertexSet::from_iter(64, 0..8);
        // Auto picks dense here; Csr must override it.
        assert_eq!(plan_index_with(&g, &universe, IndexChoice::Auto).path, IndexPath::Dense);
        assert_eq!(plan_index_with(&g, &universe, IndexChoice::Csr).path, IndexPath::Csr);
        assert_eq!(plan_index_with(&g, &universe, IndexChoice::Dense).path, IndexPath::Dense);
        // A wide sparse graph: Auto picks CSR; Dense forces the rows while
        // the budget allows.
        let mut b = MultiLayerGraphBuilder::new(4000, 1);
        for v in 0..4000u32 {
            b.add_edge(0, v, (v + 1) % 4000).unwrap();
        }
        let sparse = b.build();
        let full = sparse.full_vertex_set();
        assert_eq!(plan_index_with(&sparse, &full, IndexChoice::Auto).path, IndexPath::Csr);
        assert_eq!(plan_index_with(&sparse, &full, IndexChoice::Dense).path, IndexPath::Dense);
        // An empty universe can never be dense-indexed, even when forced.
        assert_eq!(
            plan_index_with(&g, &VertexSet::new(64), IndexChoice::Dense).path,
            IndexPath::Csr
        );
        for choice in [IndexChoice::Auto, IndexChoice::Csr, IndexChoice::Dense] {
            assert_eq!(IndexChoice::parse(choice.name()), Some(choice));
        }
        assert_eq!(IndexChoice::parse("btree"), None);
        assert_eq!(IndexChoice::parse("compressed"), None);
    }

    /// A universe too large for the flat dense rows is auto-planned `Csr`:
    /// no index is built, the graph is peeled in place.
    #[test]
    fn cost_model_plans_csr_past_the_flat_word_budget() {
        // 32768 vertices in a cycle: flat dense rows would need
        // 32768 × 512 = 16.7M words, over the 8.4M word budget.
        let n = 32_768u32;
        let mut b = MultiLayerGraphBuilder::new(n as usize, 1);
        for v in 0..n {
            b.add_edge(0, v, (v + 1) % n).unwrap();
        }
        let g = b.build();
        let universe = g.full_vertex_set();
        assert!(DenseSubgraph::words_required(n as usize, 1) > DENSE_WORD_BUDGET);
        let plan = plan_index(&g, &universe);
        assert_eq!(plan.path, IndexPath::Csr);
        // Forcing CSR or (budget-blown) Dense plans CSR too.
        assert_eq!(plan_index_with(&g, &universe, IndexChoice::Csr).path, IndexPath::Csr);
        assert_eq!(plan_index_with(&g, &universe, IndexChoice::Dense).path, IndexPath::Csr);
        let mut ctx = SearchContext::default();
        let (index, _) = ctx.peel_index(&g, &universe);
        assert_eq!((index.path(), index.index_bytes()), (IndexPath::Csr, 0));
    }

    /// One persistent crew must serve many batches — with jobs borrowing
    /// data created long after the crew spawned — and keep the submission
    /// order of a fresh crew.
    #[test]
    fn persistent_pool_serves_repeated_batches() {
        let mut crew = PersistentPool::new(3);
        let mut ws = PeelWorkspace::new();
        for round in 0..5usize {
            // Data created after the crew existed, borrowed by the jobs.
            let data: Vec<usize> = (0..17).map(|i| i + round * 100).collect();
            let out: Vec<usize> = crew
                .pool_ref()
                .map(&mut ws, data.iter().map(|&x| move |_ws: &mut PeelWorkspace| x * 2).collect());
            assert_eq!(out, data.iter().map(|&x| x * 2).collect::<Vec<_>>(), "round {round}");
        }
    }

    /// The isolation layer: a panicking job surfaces on the driver (missing
    /// batch result), its message is parked for the dispatch layer, the workers
    /// survive, and the very next batch on the same crew is correct.
    #[test]
    fn crew_survives_a_panicking_job() {
        let mut crew = PersistentPool::new(3);
        let mut ws = PeelWorkspace::new();
        let faulty: Vec<_> = (0..8usize)
            .map(|i| {
                move |_ws: &mut PeelWorkspace| {
                    if i == 3 {
                        panic!("boom in job 3");
                    }
                    i * 10
                }
            })
            .collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crew.pool_ref().map(&mut ws, faulty)
        }));
        assert!(outcome.is_err(), "the missing result must panic the driver");
        let message = crew.pool_ref().take_last_panic();
        // With >1 worker the panicking job ran on a worker and parked its
        // message; when the driver itself ran it, the payload propagated
        // directly instead. Either way the message must not linger.
        if let Some(message) = message {
            assert!(message.contains("boom in job 3"), "unexpected message: {message}");
        }
        assert_eq!(crew.pool_ref().take_last_panic(), None, "take must clear the slot");
        let clean: Vec<_> = (0..8usize).map(|i| move |_ws: &mut PeelWorkspace| i * 10).collect();
        let out = crew.pool_ref().map(&mut ws, clean);
        assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<_>>());
    }

    /// Both branches of the lattice's degree-inheritance rule, on both
    /// representations, must leave every child member's prefix-layer degree
    /// equal to a from-scratch `degree_within` recount: a child that lost a
    /// few of its parent's vertices is patched, one that lost most of them is
    /// recounted. The neighbour visit the patch runs on must see exactly the
    /// adjacency list filtered by membership, in ascending order.
    #[test]
    fn inherited_prefix_degrees_equal_a_recount() {
        // 150 vertices, so each dense row spans three words.
        let n = 150u32;
        let mut b = MultiLayerGraphBuilder::new(n as usize, 3);
        for layer in 0..3u32 {
            for u in 0..n {
                for v in (u + 1)..n {
                    if (u * 7 + v * 13 + layer) % 5 == 0 {
                        b.add_edge(layer as usize, u, v).unwrap();
                    }
                }
            }
        }
        let g = b.build();
        // The full universe keeps index space equal to vertex space on both
        // representations.
        let universe = g.full_vertex_set();
        let len = universe.len();
        let parent = VertexSet::from_iter(len, (0..n).filter(|v| v % 11 != 3));
        let patched = VertexSet::from_iter(len, parent.iter().filter(|v| v % 17 != 0));
        let recounted = VertexSet::from_iter(len, parent.iter().filter(|&v| v < 40));
        let prefix = [0usize, 2];
        for choice in [IndexChoice::Csr, IndexChoice::Dense] {
            let plan = plan_index_with(&g, &universe, choice);
            let dense =
                (plan.path == IndexPath::Dense).then(|| DenseSubgraph::build(&g, &universe));
            let index = PeelIndex::new(&g, dense.as_ref(), plan);
            assert_eq!(index.universe_len(), len);
            let mut parent_deg = vec![0u32; prefix.len() * len];
            for (t, &layer) in prefix.iter().enumerate() {
                for v in parent.iter() {
                    parent_deg[t * len + v as usize] =
                        index.degree_within(layer, v, &parent) as u32;
                }
            }
            for (child, expected) in
                [(&patched, InheritOutcome::Patched), (&recounted, InheritOutcome::Recounted)]
            {
                let removed = parent.difference(child);
                let mut child_deg = vec![0u32; prefix.len() * len];
                let outcome = index.inherit_prefix_degrees(
                    &prefix,
                    &parent_deg,
                    &mut child_deg,
                    child,
                    &removed,
                );
                assert_eq!(outcome, expected, "{choice:?}");
                for (t, &layer) in prefix.iter().enumerate() {
                    for v in child.iter() {
                        assert_eq!(
                            child_deg[t * len + v as usize] as usize,
                            index.degree_within(layer, v, child),
                            "{choice:?} {expected:?}: layer {layer}, vertex {v}"
                        );
                        let mut seen = Vec::new();
                        index.for_each_neighbor_within(layer, v, child, |u| seen.push(u));
                        let filtered: Vec<Vertex> = g
                            .layer(layer)
                            .neighbors(v)
                            .iter()
                            .copied()
                            .filter(|&u| child.contains(u))
                            .collect();
                        assert_eq!(seen, filtered, "{choice:?}: layer {layer}, vertex {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn dense_cache_is_reused_for_the_same_universe() {
        let g = two_clique_graph();
        let universe = VertexSet::from_iter(64, 0..8);
        let mut ctx = SearchContext::default();
        let dense_at = |ctx: &mut SearchContext, universe: &VertexSet| {
            let (index, _) = ctx.peel_index(&g, universe);
            assert_eq!(index.path(), IndexPath::Dense);
            index.dense_index().expect("dense path chosen") as *const DenseSubgraph
        };
        let first = dense_at(&mut ctx, &universe);
        assert_eq!(first, dense_at(&mut ctx, &universe), "same universe must hit the cache");
        // A different universe rebuilds.
        dense_at(&mut ctx, &VertexSet::from_iter(64, 0..7));
        assert_eq!(ctx.dense_cache.as_ref().unwrap().universe.len(), 7);
        // Re-bound to another snapshot, the same universe rebuilds too: the
        // entry belongs to the epoch it was built on.
        let tier = ctx.shared.clone();
        ctx.bind(7, tier, IndexChoice::Auto);
        dense_at(&mut ctx, &VertexSet::from_iter(64, 0..7));
        assert_eq!(ctx.dense_cache.as_ref().unwrap().epoch, 7);
    }
}
