//! Result types: coherent cores, search statistics, and the algorithm output.

use crate::algorithm::Algorithm;
use crate::engine::IndexPath;
use crate::limits::LimitKind;
use crate::serve::ServePath;
use mlgraph::{Layer, Vertex, VertexSet};
use std::time::Duration;

/// One d-coherent core: the layer subset `L` it was computed for and the
/// vertex set `C_L^d(G)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoherentCore {
    /// The layer subset (sorted original layer indices).
    pub layers: Vec<Layer>,
    /// The vertices of the core.
    pub vertices: VertexSet,
}

impl CoherentCore {
    /// Creates a core, normalizing the layer order.
    pub fn new(mut layers: Vec<Layer>, vertices: VertexSet) -> Self {
        layers.sort_unstable();
        CoherentCore { layers, vertices }
    }

    /// Number of vertices in the core.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the core is empty.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Sorted vertex list.
    pub fn vertex_vec(&self) -> Vec<Vertex> {
        self.vertices.to_vec()
    }
}

/// Wall-clock time spent in each phase of a run. Populated by all four
/// algorithms; excluded from [`SearchStats`] equality (timings are never
/// deterministic) so work-counter assertions stay exact.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Vertex deletion, layer sorting, and `InitTopK` preprocessing.
    pub preprocess: Duration,
    /// Candidate generation / search-tree traversal.
    pub search: Duration,
    /// Final greedy max-k-cover selection (zero for the search-tree
    /// algorithms, which maintain top-k incrementally during search).
    pub select: Duration,
}

/// Counters describing how much work a DCCS run performed. These back the
/// paper's search-space-reduction claims (Section VI: "the bottom-up approach
/// reduces the search space by 80–90 % in comparison with the greedy
/// algorithm").
///
/// Equality compares the work counters and limit flags but **not**
/// [`phase`](SearchStats::phase) timings, so the determinism tests'
/// `assert_eq!(stats)` checks remain meaningful.
#[derive(Clone, Debug)]
pub struct SearchStats {
    /// Number of candidate d-CCs (layer subsets of size exactly `s`) whose
    /// core was actually computed.
    pub candidates_generated: usize,
    /// Total number of core computations (`dCC`/`RefineC` calls), including
    /// internal nodes of the search tree.
    pub dcc_calls: usize,
    /// Number of search-tree subtrees cut off by a pruning rule.
    pub subtrees_pruned: usize,
    /// Number of times the temporary top-k result set accepted an update.
    pub updates_accepted: usize,
    /// Number of vertices removed by the vertex-deletion preprocessing.
    pub vertices_deleted: usize,
    /// Number of vertex-deletion rounds the preprocessing fixpoint ran
    /// ([`crate::preprocess::Preprocessed::fixpoint_rounds`]). Stored with
    /// the memoized fixpoint, so a memo hit reports the count of the run
    /// that filled it.
    pub fixpoint_rounds: usize,
    /// `true` when the preprocessing came out of the shared tier's
    /// fixpoint memo ([`crate::SharedSearchState`]) instead of being
    /// computed. Excluded from equality (like `served_from_cache`): a
    /// memoized fixpoint *is* the computed one.
    pub preprocess_memo_hit: bool,
    /// Which adjacency representation candidate generation peeled over —
    /// the [`crate::engine`] cost model's per-run dense-vs-CSR decision.
    /// `None` for the search-tree algorithms, which always peel CSR.
    pub index_path: Option<IndexPath>,
    /// Heap footprint in bytes of the adjacency index candidate generation
    /// peeled over: the flat dense rows on the dense path, 0 on the CSR
    /// path, where no index is built. A memory diagnostic for the
    /// large-scale bench tier — excluded from equality like the timings:
    /// it describes the machine-side cost, not the answer.
    pub index_bytes: usize,
    /// Capacity in bytes of the driver workspace's peel scratch buffers
    /// after the run (degree arrays, cascade queue, bins). Like
    /// [`index_bytes`](SearchStats::index_bytes) this is a memory
    /// diagnostic, excluded from equality.
    pub peel_scratch_bytes: usize,
    /// Which algorithm actually produced this result. Always the concrete
    /// algorithm — a query submitted with [`Algorithm::Auto`] records the
    /// resolved choice here, which is how the selection policy's decisions
    /// are observed and benchmarked.
    pub algorithm: Option<Algorithm>,
    /// Which query limit stopped the run early, if any. A limited run's
    /// result is the best-so-far partial; the query runner surfaces it inside
    /// the matching [`crate::DccsError`] variant.
    pub limit_hit: Option<LimitKind>,
    /// `true` when the run finished its full search; `false` when a limit
    /// stopped it early and the result is a partial.
    pub complete: bool,
    /// Set when the degradation ladder reran this query with a cheaper
    /// algorithm ([`crate::QueryLimits::degrade`]): the algorithm that was
    /// originally requested and gave up.
    pub degraded_from: Option<Algorithm>,
    /// Which serve path answered the query: re-peeling the graph or
    /// reading candidates from a precomputed [`crate::DccIndex`]. Stamped
    /// on every query result; `None` only on results built outside the
    /// query path. Excluded from equality (like `phase`): the
    /// serve path describes *how* an answer was derived, not the answer —
    /// the two paths are bit-identical on everything equality compares.
    pub serve: Option<ServePath>,
    /// `true` when the [`crate::service::QueryService`] answered this query
    /// out of its result cache instead of running it. Excluded from
    /// equality (like `phase` and `serve`): a cached answer *is* the
    /// computed answer — only its provenance differs.
    pub served_from_cache: bool,
    /// The epoch of the [`crate::service::GraphSnapshot`] this query ran
    /// against, stamped on every query result (the one-shot `*_dccs`
    /// functions run on a fresh session's snapshot too). Excluded from
    /// equality: the epoch identifies *which* published graph version
    /// answered, not the answer.
    pub graph_epoch: Option<u64>,
    /// Per-phase wall-clock breakdown (excluded from equality).
    pub phase: PhaseTimes,
}

impl Default for SearchStats {
    fn default() -> Self {
        SearchStats {
            candidates_generated: 0,
            dcc_calls: 0,
            subtrees_pruned: 0,
            updates_accepted: 0,
            vertices_deleted: 0,
            fixpoint_rounds: 0,
            preprocess_memo_hit: false,
            index_path: None,
            index_bytes: 0,
            peel_scratch_bytes: 0,
            algorithm: None,
            limit_hit: None,
            complete: true,
            degraded_from: None,
            serve: None,
            served_from_cache: false,
            graph_epoch: None,
            phase: PhaseTimes::default(),
        }
    }
}

impl PartialEq for SearchStats {
    fn eq(&self, other: &Self) -> bool {
        self.candidates_generated == other.candidates_generated
            && self.dcc_calls == other.dcc_calls
            && self.subtrees_pruned == other.subtrees_pruned
            && self.updates_accepted == other.updates_accepted
            && self.vertices_deleted == other.vertices_deleted
            && self.fixpoint_rounds == other.fixpoint_rounds
            && self.index_path == other.index_path
            && self.algorithm == other.algorithm
            && self.limit_hit == other.limit_hit
            && self.complete == other.complete
            && self.degraded_from == other.degraded_from
    }
}

impl Eq for SearchStats {}

/// The output of a DCCS algorithm.
#[derive(Clone, Debug)]
pub struct DccsResult {
    /// The reported diversified d-CCs (at most `k`).
    pub cores: Vec<CoherentCore>,
    /// The union of the reported cores' vertex sets, `Cov(R)`.
    pub cover: VertexSet,
    /// Work counters.
    pub stats: SearchStats,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl DccsResult {
    /// Assembles a result from cores, recomputing the cover.
    pub fn from_cores(
        num_vertices: usize,
        cores: Vec<CoherentCore>,
        stats: SearchStats,
        elapsed: Duration,
    ) -> Self {
        let mut cover = VertexSet::new(num_vertices);
        for core in &cores {
            cover.union_with(&core.vertices);
        }
        DccsResult { cores, cover, stats, elapsed }
    }

    /// Assembles a result from the temporary top-k set, materializing
    /// `Cov(R)` through the set's incremental bookkeeping
    /// ([`crate::coverage::TopKDiversified::cover_set_into`]) instead of
    /// re-unioning the cores. Used by the search-tree algorithms.
    pub fn from_topk(
        num_vertices: usize,
        topk: crate::coverage::TopKDiversified,
        stats: SearchStats,
        elapsed: Duration,
    ) -> Self {
        let mut cover = VertexSet::new(num_vertices);
        topk.cover_set_into(&mut cover);
        DccsResult { cores: topk.into_cores(), cover, stats, elapsed }
    }

    /// `|Cov(R)|` — the objective value of the DCCS problem.
    pub fn cover_size(&self) -> usize {
        self.cover.len()
    }

    /// Number of reported cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The largest reported core size, or 0 when no core was reported.
    pub fn max_core_size(&self) -> usize {
        self.cores.iter().map(|c| c.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(layers: Vec<Layer>, vertices: &[Vertex]) -> CoherentCore {
        CoherentCore::new(layers, VertexSet::from_iter(10, vertices.iter().copied()))
    }

    #[test]
    fn coherent_core_normalizes_layers() {
        let c = core(vec![3, 1, 2], &[4, 2]);
        assert_eq!(c.layers, vec![1, 2, 3]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.vertex_vec(), vec![2, 4]);
    }

    #[test]
    fn empty_core() {
        let c = CoherentCore::new(vec![0], VertexSet::new(10));
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn result_cover_is_union_of_cores() {
        let cores = vec![core(vec![0], &[1, 2, 3]), core(vec![1], &[3, 4])];
        let r = DccsResult::from_cores(10, cores, SearchStats::default(), Duration::ZERO);
        assert_eq!(r.cover_size(), 4);
        assert_eq!(r.cover.to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(r.num_cores(), 2);
        assert_eq!(r.max_core_size(), 3);
    }

    #[test]
    fn stats_default_is_complete_and_equality_ignores_phase_times() {
        let a = SearchStats::default();
        assert!(a.complete);
        assert_eq!(a.limit_hit, None);
        let mut b = SearchStats::default();
        b.phase.search = Duration::from_millis(42);
        assert_eq!(a, b, "phase timings must not affect stats equality");
        b.serve = Some(ServePath::Index);
        assert_eq!(a, b, "the serve path must not affect stats equality");
        b.served_from_cache = true;
        b.preprocess_memo_hit = true;
        b.graph_epoch = Some(7);
        assert_eq!(a, b, "cache provenance must not affect stats equality");
        b.index_bytes = 1024;
        b.peel_scratch_bytes = 2048;
        assert_eq!(a, b, "memory diagnostics must not affect stats equality");
        let rounds = SearchStats { fixpoint_rounds: 1, ..SearchStats::default() };
        assert_ne!(a, rounds, "fixpoint rounds are a work counter");
        b.complete = false;
        assert_ne!(a, b);
    }

    #[test]
    fn result_with_no_cores() {
        let r = DccsResult::from_cores(5, vec![], SearchStats::default(), Duration::ZERO);
        assert_eq!(r.cover_size(), 0);
        assert_eq!(r.max_core_size(), 0);
    }
}
