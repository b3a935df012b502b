//! Subset-lattice candidate generation with Lemma-1 prefix reuse.
//!
//! `GD-DCCS` needs the d-CC of every layer subset of size `s`. The naive
//! path computes each one independently: intersect the `s` per-layer d-cores
//! and peel the intersection from scratch, rescanning the adjacency of every
//! candidate on **all** `s` layers and allocating fresh degree arrays per
//! subset. This module instead walks the subset lattice depth-first in
//! lexicographic order, keeping per-level state that children inherit:
//!
//! * **Exact prefix cores** — by Lemma 1 (`C_{L'} ⊆ C_L` for `L ⊆ L'`), the
//!   d-CC of a child subset `L ∪ {j}` is contained in `C_L ∩ C_{{j}}`, so
//!   each peel starts from the parent's already-peeled core, and a prefix
//!   that peels to the empty set proves every completion empty without
//!   touching the graph.
//! * **Inherited degree arrays** — every level stores the exact
//!   within-core degree of each member on each prefix layer. A child copies
//!   the parent's arrays adjusted for the vertices lost in the
//!   intersection, and counts **only the one newly added layer** before
//!   cascading. How the adjustment happens is the index representation's
//!   business ([`PeelIndex::inherit_prefix_degrees`][crate::engine::PeelIndex]):
//!   removed-vertex adjacency patching on CSR, word-restricted
//!   `popcount(row ∧ removed)` subtraction on dense rows (with a recount
//!   fallback counted in [`LatticeStats::recount_fallbacks`]).
//! * **Memoized single-layer cores** — depth-0 prefixes reuse the d-cores
//!   computed during preprocessing
//!   ([`crate::preprocess::Preprocessed::layer_cores`]) and are never
//!   re-peeled.
//!
//! There is **one** walk. Whether it peels over the CSR adjacency or over
//! re-indexed [`DenseSubgraph`] bitset rows is decided per run by the
//! [`crate::engine`] cost model (overridable via
//! [`crate::engine::IndexChoice`], e.g. the CLI's `--index`), which hands
//! back a unified [`crate::engine::PeelIndex`]; the walk consumes it
//! through the same kernel-dispatched API — degrees, cascades, core
//! translation — without ever re-branching on the representation. The walk
//! is partitioned by first layer (the lattice's depth-1 branches), so a
//! query can fan the branches out over the shared executor crew — per-branch
//! outputs are merged in branch order, keeping the emission order (and
//! therefore every downstream tie-break) identical at any thread count.
//!
//! Cascade scratch comes from one [`PeelWorkspace`] per worker and all level
//! state is allocated once per branch, so the steady state allocates nothing
//! beyond the candidate cores the caller chooses to keep.

use crate::engine::{plan_index, IndexPath, InheritOutcome, PeelIndex, PoolRef, SearchContext};
use crate::fault::{self, site};
use crate::layer_subsets::combinations;
use crate::limits::QueryMonitor;
use crate::result::CoherentCore;
use coreness::PeelWorkspace;
use mlgraph::{DenseSubgraph, Layer, MultiLayerGraph, VertexSet};

/// Work counters reported by [`for_each_subset_core`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatticeStats {
    /// Layer subsets of size `s` emitted (always `C(l, s)`).
    pub candidates: usize,
    /// Cascade peels performed (internal prefixes + leaves).
    pub peels: usize,
    /// Size-`s` subsets emitted as empty without peeling because an
    /// ancestor prefix already proved them empty.
    pub empty_skipped: usize,
    /// Dense-walk nodes whose prefix-layer degrees were inherited via
    /// word-restricted row∧removed subtraction (0 on the CSR path, and on
    /// dense universes of ≤ 64 vertices, whose single-word rows always take
    /// the recount fallback).
    pub inherited: usize,
    /// Dense-walk nodes where inheritance lost to a from-scratch recount
    /// because the removals spanned full rows — the measured German-`d=2`
    /// failure mode of row inheritance, observable here instead of in
    /// prose (0 on the CSR path).
    pub recount_fallbacks: usize,
    /// Adjacency representation the cost model picked for this run.
    pub index_path: IndexPath,
    /// Heap footprint of the built adjacency index in bytes (0 on the CSR
    /// path — no index is built). A memory diagnostic, not a work counter:
    /// it is set once per run from the index, never absorbed across
    /// branches.
    pub index_bytes: usize,
}

impl LatticeStats {
    fn absorb(&mut self, other: &LatticeStats) {
        self.candidates += other.candidates;
        self.peels += other.peels;
        self.empty_skipped += other.empty_skipped;
        self.inherited += other.inherited;
        self.recount_fallbacks += other.recount_fallbacks;
    }
}

fn validate(l: usize, s: usize, layer_cores: &[VertexSet]) {
    assert!(s >= 1 && s <= l, "subset size s={s} out of range for {l} layers");
    assert_eq!(layer_cores.len(), l, "one memoized d-core per layer required");
}

/// The union of the per-layer d-cores — every candidate lives inside it.
fn candidate_universe(n: usize, layer_cores: &[VertexSet]) -> VertexSet {
    let mut universe = VertexSet::new(n);
    for core in layer_cores {
        universe.union_with(core);
    }
    universe
}

/// Enumerates every layer subset of size `s` over `0..l` in lexicographic
/// order and calls `emit(subset, core)` with the exact d-CC of each subset,
/// computed incrementally down the subset lattice (see the module docs).
///
/// `layer_cores[i]` must be `C_{{i}}^d` restricted to whatever candidate
/// universe the caller wants (the preprocessing's active set); all sets must
/// share the graph's vertex capacity.
///
/// This is the sequential entry point (one workspace, one thread, the
/// cost model's auto decision); queries run the same walk with a
/// sweep-reusable dense cache, the [`crate::engine::IndexChoice`]
/// override, and the executor fan-out on top.
///
/// # Panics
///
/// Panics if `s == 0` or `s > l`, or if `layer_cores` does not have one
/// entry per layer.
pub fn for_each_subset_core<F>(
    g: &MultiLayerGraph,
    d: u32,
    s: usize,
    layer_cores: &[VertexSet],
    ws: &mut PeelWorkspace,
    mut emit: F,
) -> LatticeStats
where
    F: FnMut(&[Layer], &VertexSet),
{
    let l = g.num_layers();
    validate(l, s, layer_cores);
    let branches = l - s + 1;

    // s == 1 needs no peel and no index; keep the cost model (and a dense
    // build) out of the trivial case.
    let dense_owned;
    let index = if s > 1 {
        let universe = candidate_universe(g.num_vertices(), layer_cores);
        let plan = plan_index(g, &universe);
        dense_owned = (plan.path == IndexPath::Dense).then(|| DenseSubgraph::build(g, &universe));
        PeelIndex::new(g, dense_owned.as_ref(), plan)
    } else {
        PeelIndex::new(g, None, plan_index(g, &VertexSet::new(g.num_vertices())))
    };
    let cores_ix = index.compress_layer_cores(layer_cores);
    let cores_ix: &[VertexSet] = cores_ix.as_deref().unwrap_or(layer_cores);
    let mut stats =
        run_branches(g, d, s, &index, cores_ix, layer_cores, 0, branches, ws, None, &mut emit);
    stats.index_path = index.path();
    stats.index_bytes = index.index_bytes();
    stats
}

/// Collects every candidate d-CC as an owned [`CoherentCore`] list, in the
/// same lexicographic order as [`for_each_subset_core`], using the context's
/// cached dense index and fanning the depth-1 branches out over the given
/// executor crew when it has workers.
///
/// The output — cores, order, and statistics — is identical at every thread
/// count: each branch of the lattice is an independent walk, and the
/// per-branch results are merged in branch order.
pub(crate) fn collect_subset_cores(
    ctx: &mut SearchContext,
    pool: &PoolRef<'_>,
    g: &MultiLayerGraph,
    d: u32,
    s: usize,
    layer_cores: &[VertexSet],
) -> (Vec<CoherentCore>, LatticeStats) {
    let l = g.num_layers();
    validate(l, s, layer_cores);

    if s == 1 {
        // Memoized single-layer cores: no peel, no index decision.
        if let Some(monitor) = ctx.monitor() {
            monitor.charge_candidates(l);
        }
        let stats = LatticeStats { candidates: l, ..LatticeStats::default() };
        let cores = layer_cores
            .iter()
            .enumerate()
            .map(|(j, core)| CoherentCore::new(vec![j], core.clone()))
            .collect();
        return (cores, stats);
    }

    // Clone the monitor Arc out of the context before `peel_index` takes
    // its long mutable borrow; the branch jobs share it by reference.
    let monitor = ctx.monitor().cloned();
    let universe = candidate_universe(g.num_vertices(), layer_cores);
    let (index, driver_ws) = ctx.peel_index(g, &universe);
    let cores_ix = index.compress_layer_cores(layer_cores);
    let cores_ix: &[VertexSet] = cores_ix.as_deref().unwrap_or(layer_cores);
    let branches = l - s + 1;

    let monitor = monitor.as_deref();
    let run_branch = |ws: &mut PeelWorkspace, from: Layer, to: Layer| {
        fault::fire(monitor, site::LATTICE_BRANCH);
        // Install the cascade-frontier probe for this job and always clear
        // it before the workspace serves anyone else's jobs.
        ws.set_probe(monitor.map(QueryMonitor::probe));
        let mut out: Vec<CoherentCore> = Vec::new();
        let mut emit = |subset: &[Layer], core: &VertexSet| {
            out.push(CoherentCore::new(subset.to_vec(), core.clone()));
        };
        let stats =
            run_branches(g, d, s, &index, cores_ix, layer_cores, from, to, ws, monitor, &mut emit);
        ws.set_probe(None);
        (out, stats)
    };

    let per_branch: Vec<(Vec<CoherentCore>, LatticeStats)> = if pool.workers() == 0 || branches <= 1
    {
        vec![run_branch(driver_ws, 0, branches)]
    } else {
        let jobs: Vec<_> = (0..branches)
            .map(|j| {
                let run_branch = &run_branch;
                move |ws: &mut PeelWorkspace| run_branch(ws, j, j + 1)
            })
            .collect();
        pool.map(driver_ws, jobs)
    };

    let mut stats = LatticeStats {
        index_path: index.path(),
        index_bytes: index.index_bytes(),
        ..LatticeStats::default()
    };
    let mut cores = Vec::new();
    for (mut branch_cores, branch_stats) in per_branch {
        stats.absorb(&branch_stats);
        cores.append(&mut branch_cores);
    }
    (cores, stats)
}

/// The frozen oracle: per-subset candidate cores computed exactly the way
/// the pre-refactor code did — intersect the memoized per-layer d-cores and
/// run the per-call-allocating reference peel
/// [`coreness::d_coherent_core_naive`]. Benches and property tests compare
/// the lattice engine against this single implementation.
pub fn naive_subset_cores(
    g: &MultiLayerGraph,
    d: u32,
    s: usize,
    layer_cores: &[VertexSet],
) -> Vec<(Vec<Layer>, VertexSet)> {
    let l = g.num_layers();
    validate(l, s, layer_cores);
    combinations(l, s)
        .map(|subset| {
            let mut candidate = layer_cores[subset[0]].clone();
            for &i in &subset[1..] {
                candidate.intersect_with(&layer_cores[i]);
            }
            let core = coreness::d_coherent_core_naive(g, &subset, d, &candidate);
            (subset, core)
        })
        .collect()
}

/// Walks the lattice branches with first layer in `from..to` over the given
/// index. `to` must not exceed `l − s + 1`.
#[allow(clippy::too_many_arguments)]
fn run_branches<F: FnMut(&[Layer], &VertexSet)>(
    g: &MultiLayerGraph,
    d: u32,
    s: usize,
    index: &PeelIndex<'_>,
    cores_ix: &[VertexSet],
    layer_cores: &[VertexSet],
    from: Layer,
    to: Layer,
    ws: &mut PeelWorkspace,
    monitor: Option<&QueryMonitor>,
    emit: F,
) -> LatticeStats {
    let len = index.universe_len();
    let mut run = LatticeWalk {
        index: *index,
        d,
        s,
        cores_ix,
        layer_cores,
        ws,
        monitor,
        emit,
        subset: Vec::with_capacity(s),
        cores: (0..s).map(|_| VertexSet::new(len)).collect(),
        degrees: (0..s).map(|t| vec![0u32; (t + 1) * len]).collect(),
        removed: VertexSet::new(len),
        removed_word_idx: Vec::new(),
        expanded: VertexSet::new(g.num_vertices()),
        empty: VertexSet::new(g.num_vertices()),
        stats: LatticeStats::default(),
        num_layers: g.num_layers(),
    };
    for j in from..to {
        run.root(j);
    }
    run.stats
}

/// The one lattice walk, generic over the peeling representation: every
/// level's cores and degree arrays live in the [`PeelIndex`]'s index space
/// (vertex space on CSR, the re-indexed `0..m` universe on dense rows), and
/// every representation-specific step — degree counting, prefix-degree
/// inheritance, the cascade, emission back to vertex space — goes through
/// the index's kernel-dispatched API. Formerly two parallel structs
/// (`LatticeRun` / `DenseLatticeRun`) duplicating the traversal.
struct LatticeWalk<'a, F> {
    index: PeelIndex<'a>,
    d: u32,
    s: usize,
    /// Per-layer d-cores in index space.
    cores_ix: &'a [VertexSet],
    /// Per-layer d-cores in vertex space (for the `s == 1` emission, which
    /// must hand out the memoized core itself).
    layer_cores: &'a [VertexSet],
    ws: &'a mut PeelWorkspace,
    /// The active query's limit monitor: polled once per child subtree, and
    /// consulted after every cascade — a probe-aborted cascade leaves a
    /// **superset** of the true core, which must never be emitted.
    monitor: Option<&'a QueryMonitor>,
    emit: F,
    /// The current prefix subset (original layer indices, ascending).
    subset: Vec<Layer>,
    /// `cores[t]`: exact d-CC of the prefix of length `t + 1` (index space).
    cores: Vec<VertexSet>,
    /// `degrees[t][j*len + v]`: degree of `v` inside `cores[t]` on the j-th
    /// prefix layer, exact for every member of `cores[t]` (inherited down
    /// the lattice).
    degrees: Vec<Vec<u32>>,
    /// Scratch: members lost when intersecting parent core with a layer
    /// core (index space).
    removed: VertexSet,
    /// Scratch: indices of `removed`'s non-zero words (dense inheritance).
    removed_word_idx: Vec<u32>,
    /// Reused vertex-space buffer for emitted candidates (dense expansion).
    expanded: VertexSet,
    /// Shared vertex-space empty set for pruned subtrees.
    empty: VertexSet,
    stats: LatticeStats,
    num_layers: usize,
}

impl<F: FnMut(&[Layer], &VertexSet)> LatticeWalk<'_, F> {
    /// `true` once a limit has tripped — the walk stops descending and,
    /// crucially, stops emitting: a probe-aborted cascade leaves a
    /// *superset* of the true core in its buffer, which is not a d-CC.
    ///
    /// This must go through [`QueryMonitor::check`], not the latched-byte
    /// read: a deadline that passes **inside** a cascade latches only in
    /// the [`coreness::CancelProbe`]'s own flag (the frontier poll reads
    /// the clock), and nothing has recorded it in the monitor yet. `check`
    /// observes the probe and latches the kind, so the aborted core is
    /// caught here rather than emitted.
    fn limit_hit(&self) -> bool {
        self.monitor.is_some_and(|m| m.check().is_some())
    }

    /// Counts one emitted candidate, charging the query's candidate budget.
    fn note_candidate(&mut self) {
        self.stats.candidates += 1;
        if let Some(monitor) = self.monitor {
            monitor.charge_candidates(1);
        }
    }

    /// Runs the depth-1 branch rooted at first layer `j`, keeping the
    /// lexicographic emission order of the naive enumeration (so downstream
    /// tie-breaking is unchanged).
    fn root(&mut self, j: Layer) {
        let len = self.index.universe_len();
        self.subset.push(j);
        if self.s == 1 {
            // Memoized single-layer core: already the exact d-CC of {j}.
            self.note_candidate();
            (self.emit)(&self.subset, &self.layer_cores[j]);
        } else {
            // The root's degree row seeds the inheritance chain below.
            self.cores[0].copy_from(&self.cores_ix[j]);
            let core = &self.cores[0];
            let deg = &mut self.degrees[0][..len];
            for v in core.iter() {
                deg[v as usize] = self.index.degree_within(j, v, core) as u32;
            }
            self.descend(1, j + 1);
        }
        self.subset.pop();
    }

    /// Visits every extension of the current prefix by layers in
    /// `start..l`.
    fn descend(&mut self, depth: usize, start: Layer) {
        let l = self.num_layers;
        let last = l - (self.s - depth) + 1;
        for j in start..last {
            // Cooperative checkpoint, once per child subtree.
            if self.monitor.is_some_and(|m| m.check().is_some()) {
                return;
            }
            self.subset.push(j);
            let nonempty = self.make_child(depth, j);
            if self.limit_hit() {
                // The cascade may have been probe-aborted mid-peel; its
                // output is then a superset of the true core, never a d-CC.
                self.subset.pop();
                return;
            }
            if depth + 1 == self.s {
                self.note_candidate();
                if nonempty && !self.cores[depth].is_empty() {
                    let (head, tail) = (&self.cores[depth], &mut self.expanded);
                    (self.emit)(&self.subset, self.index.emit(head, tail));
                } else {
                    (self.emit)(&self.subset, &self.empty);
                }
            } else if nonempty && !self.cores[depth].is_empty() {
                self.descend(depth + 1, j + 1);
            } else {
                // Lemma 1: every completion of an empty prefix is empty.
                self.emit_empty_completions(depth + 1, j + 1);
            }
            self.subset.pop();
        }
    }

    /// Builds level `depth` (prefix `subset[..depth]` extended by layer `j`)
    /// from level `depth − 1`: intersects the cores, inherits the parent's
    /// prefix-layer degrees through the index's representation-specific
    /// strategy, counts the one newly added layer fresh, and cascades.
    /// Returns `false` when the intersection was already empty (no state
    /// was built).
    fn make_child(&mut self, depth: usize, j: Layer) -> bool {
        let len = self.index.universe_len();
        let (head, tail) = self.cores.split_at_mut(depth);
        let parent = &head[depth - 1];
        let child = &mut tail[0];
        child.assign_intersection(parent, &self.cores_ix[j]);
        if child.is_empty() {
            return false;
        }
        self.removed.assign_difference(parent, child);

        let (dhead, dtail) = self.degrees.split_at_mut(depth);
        let parent_deg = &dhead[depth - 1][..depth * len];
        let child_deg = &mut dtail[0];
        match self.index.inherit_prefix_degrees(
            &self.subset[..depth],
            parent_deg,
            child_deg,
            child,
            &self.removed,
            &mut self.removed_word_idx,
        ) {
            InheritOutcome::DenseInherited => self.stats.inherited += 1,
            InheritOutcome::DenseRecount => self.stats.recount_fallbacks += 1,
            InheritOutcome::CsrPatched | InheritOutcome::CsrRecount => {}
        }
        // The newly added layer always needs a fresh count.
        for v in child.iter() {
            child_deg[depth * len + v as usize] = self.index.degree_within(j, v, child) as u32;
        }
        self.index.cascade(self.ws, &self.subset, self.d, child, child_deg);
        self.stats.peels += 1;
        true
    }

    /// Emits the empty core for every size-`s` completion of the current
    /// prefix, without peeling.
    fn emit_empty_completions(&mut self, depth: usize, start: Layer) {
        if self.limit_hit() {
            return;
        }
        let l = self.num_layers;
        if depth == self.s {
            self.note_candidate();
            self.stats.empty_skipped += 1;
            (self.emit)(&self.subset, &self.empty);
            return;
        }
        let last = l - (self.s - depth) + 1;
        for j in start..last {
            self.subset.push(j);
            self.emit_empty_completions(depth + 1, j + 1);
            self.subset.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DccsOptions, DccsParams};
    use crate::engine::with_pool;
    use crate::preprocess::preprocess;
    use mlgraph::MultiLayerGraphBuilder;

    fn clique(b: &mut MultiLayerGraphBuilder, layer: usize, vs: &[u32]) {
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                b.add_edge(layer, vs[i], vs[j]).unwrap();
            }
        }
    }

    fn graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(14, 4);
        clique(&mut b, 0, &[0, 1, 2, 3]);
        clique(&mut b, 1, &[0, 1, 2, 3]);
        clique(&mut b, 1, &[4, 5, 6, 7]);
        clique(&mut b, 2, &[4, 5, 6, 7]);
        clique(&mut b, 2, &[8, 9, 10]);
        clique(&mut b, 3, &[8, 9, 10, 11, 12]);
        b.build()
    }

    fn collect_with_threads(
        threads: usize,
        g: &MultiLayerGraph,
        d: u32,
        s: usize,
        layer_cores: &[VertexSet],
    ) -> (Vec<CoherentCore>, LatticeStats) {
        let mut ctx = SearchContext::default();
        with_pool(threads, |pool| collect_subset_cores(&mut ctx, pool, g, d, s, layer_cores))
    }

    /// The lattice engine must emit, for every subset in lexicographic
    /// order, exactly what the frozen oracle computes from scratch.
    #[test]
    fn matches_naive_per_subset_computation() {
        let g = graph();
        for (d, s) in [(1u32, 1usize), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4)] {
            let params = DccsParams::new(d, s, 2);
            let pre = preprocess(&g, &params, &DccsOptions::no_vertex_deletion());
            let mut ws = PeelWorkspace::new();
            let mut got: Vec<(Vec<Layer>, Vec<u32>)> = Vec::new();
            let stats =
                for_each_subset_core(&g, d, s, &pre.layer_cores, &mut ws, |subset, core| {
                    got.push((subset.to_vec(), core.to_vec()));
                });
            let expected: Vec<(Vec<Layer>, Vec<u32>)> =
                naive_subset_cores(&g, d, s, &pre.layer_cores)
                    .into_iter()
                    .map(|(subset, core)| (subset, core.to_vec()))
                    .collect();
            assert_eq!(got, expected, "d={d} s={s}");
            assert_eq!(stats.candidates as u128, crate::layer_subsets::binomial(4, s));
        }
    }

    /// `collect_subset_cores` must produce the same candidates as the
    /// sequential callback walk, in the same order, at every thread count.
    #[test]
    fn collected_candidates_are_thread_invariant() {
        let g = graph();
        for (d, s) in [(2u32, 1usize), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4)] {
            let params = DccsParams::new(d, s, 2);
            let pre = preprocess(&g, &params, &DccsOptions::no_vertex_deletion());
            let mut ws = PeelWorkspace::new();
            let mut reference: Vec<CoherentCore> = Vec::new();
            let ref_stats =
                for_each_subset_core(&g, d, s, &pre.layer_cores, &mut ws, |subset, core| {
                    reference.push(CoherentCore::new(subset.to_vec(), core.clone()));
                });
            for threads in [1usize, 2, 4] {
                let (cores, stats) = collect_with_threads(threads, &g, d, s, &pre.layer_cores);
                assert_eq!(cores, reference, "d={d} s={s} threads={threads}");
                assert_eq!(stats.candidates, ref_stats.candidates);
                assert_eq!(stats.peels, ref_stats.peels);
                assert_eq!(stats.empty_skipped, ref_stats.empty_skipped);
                assert_eq!(stats.inherited, ref_stats.inherited);
                assert_eq!(stats.recount_fallbacks, ref_stats.recount_fallbacks);
            }
        }
    }

    /// A deadline that trips **inside** a cascade latches only in the
    /// [`coreness::CancelProbe`]'s own flag — nothing has recorded it in
    /// the monitor when the aborted (superset) core comes back. The walk
    /// must still refuse to emit it and must latch the trip into the
    /// monitor. The probe's poll-countdown hook lands the trip on every
    /// possible poll — checkpoint or cascade frontier — deterministically,
    /// with no clock involved; whatever the walk emits before stopping must
    /// equal the naive oracle for that subset.
    #[test]
    fn probe_trip_inside_a_cascade_is_never_emitted() {
        use crate::limits::{LimitKind, QueryLimits};
        use std::sync::Arc;

        // Per-layer 2-cores are nonempty, but every size-2 joint core peels
        // to empty through multi-frontier cascades — so an aborted cascade
        // emitted by mistake is a nonempty set where the oracle says empty.
        let mut b = MultiLayerGraphBuilder::new(10, 3);
        for v in 0..10u32 {
            b.add_edge(0, v, (v + 1) % 10).unwrap(); // cycle: 2-core = all
        }
        clique(&mut b, 1, &[7, 8, 9]);
        for v in 0..7u32 {
            b.add_edge(1, v, v + 1).unwrap(); // chain tail peels off
        }
        clique(&mut b, 2, &[0, 1, 2]);
        clique(&mut b, 2, &[5, 6, 7, 8]);
        let g = b.build();
        let (d, s) = (2u32, 2usize);
        let params = DccsParams::new(d, s, 2);
        let pre = preprocess(&g, &params, &DccsOptions::no_vertex_deletion());
        let naive = naive_subset_cores(&g, d, s, &pre.layer_cores);

        for n in 1..=40u32 {
            // Force the dense path: its cascade polls once per frontier, so
            // the countdown can land mid-peel.
            let mut ctx = SearchContext::new(0, Arc::default(), crate::IndexChoice::Dense);
            let monitor = Arc::new(QueryMonitor::new(&QueryLimits::none(), None, None));
            monitor.probe().trip_after_polls(n);
            ctx.set_monitor(Some(Arc::clone(&monitor)));
            let (cores, _) = with_pool(1, |pool| {
                collect_subset_cores(&mut ctx, pool, &g, d, s, &pre.layer_cores)
            });
            for core in &cores {
                let (_, expected) =
                    naive.iter().find(|(subset, _)| *subset == core.layers).unwrap();
                assert_eq!(
                    core.vertices.to_vec(),
                    expected.to_vec(),
                    "n={n}: emitted candidate for {:?} differs from the oracle",
                    core.layers
                );
            }
            if monitor.probe().cancelled() {
                assert_eq!(
                    monitor.hit(),
                    Some(LimitKind::Deadline),
                    "n={n}: a probe-latched trip must be recorded in the monitor"
                );
            } else {
                // Countdown never ran out: the walk completed in full.
                assert_eq!(cores.len(), naive.len(), "n={n}");
            }
        }
    }

    /// A forced index override must change the representation — and nothing
    /// else: identical cores in identical order under `Csr`, `Dense`, and
    /// `Auto`.
    #[test]
    fn forced_index_choices_are_bit_identical() {
        let g = graph();
        for (d, s) in [(2u32, 2usize), (3, 2), (2, 3)] {
            let params = DccsParams::new(d, s, 2);
            let pre = preprocess(&g, &params, &DccsOptions::no_vertex_deletion());
            let mut reference: Option<Vec<CoherentCore>> = None;
            for choice in
                [crate::IndexChoice::Auto, crate::IndexChoice::Csr, crate::IndexChoice::Dense]
            {
                let mut ctx = SearchContext::new(0, Default::default(), choice);
                let (cores, stats) = with_pool(1, |pool| {
                    collect_subset_cores(&mut ctx, pool, &g, d, s, &pre.layer_cores)
                });
                match choice {
                    crate::IndexChoice::Csr => assert_eq!(stats.index_path, IndexPath::Csr),
                    crate::IndexChoice::Dense => assert_eq!(stats.index_path, IndexPath::Dense),
                    crate::IndexChoice::Auto => {}
                }
                match &reference {
                    None => reference = Some(cores),
                    Some(expected) => assert_eq!(&cores, expected, "choice={choice:?} d={d} s={s}"),
                }
            }
        }
    }

    /// Engine-vs-naive equivalence on the shape the inherited dense rows
    /// exist for: a **multi-word** universe (150 vertices — three words per
    /// row) of heavily overlapping per-layer cores, where each lattice
    /// intersection loses a few vertices clustered in fewer words than a
    /// full row (`nz(removed) < W`, the inheritance path). A single-word
    /// test graph would silently exercise only the recount fallback — the
    /// guard compares word counts, so with `W = 1` any non-empty removal
    /// falls back — which is why the `inherited` stat is asserted. One
    /// layer's small clique drives the fallback within the same walk, which
    /// the `recount_fallbacks` counter must now make observable.
    #[test]
    fn dense_walk_with_inherited_rows_matches_naive() {
        let mut b = MultiLayerGraphBuilder::new(150, 4);
        let all: Vec<u32> = (0..150).collect();
        clique(&mut b, 0, &all);
        clique(&mut b, 1, &all[..140]); // loses 140..150: one word of three
        clique(&mut b, 2, &all[6..150]); // loses 0..6: one word of three
        clique(&mut b, 3, &all[..10]); // small: forces the rescan fallback
        let g = b.build();
        let mut inherited_total = 0usize;
        let mut fallback_total = 0usize;
        for (d, s) in [(2u32, 2usize), (2, 3), (2, 4), (3, 3)] {
            let params = DccsParams::new(d, s, 2);
            let pre = preprocess(&g, &params, &DccsOptions::no_vertex_deletion());
            let mut ws = PeelWorkspace::new();
            let mut got: Vec<(Vec<Layer>, Vec<u32>)> = Vec::new();
            let stats =
                for_each_subset_core(&g, d, s, &pre.layer_cores, &mut ws, |subset, core| {
                    got.push((subset.to_vec(), core.to_vec()));
                });
            assert_eq!(stats.index_path, IndexPath::Dense, "d={d} s={s}: dense path expected");
            let expected: Vec<(Vec<Layer>, Vec<u32>)> =
                naive_subset_cores(&g, d, s, &pre.layer_cores)
                    .into_iter()
                    .map(|(subset, core)| (subset, core.to_vec()))
                    .collect();
            assert_eq!(got, expected, "d={d} s={s}");
            inherited_total += stats.inherited;
            fallback_total += stats.recount_fallbacks;
        }
        assert!(inherited_total > 0, "the inherited-degree path never executed");
        assert!(fallback_total > 0, "the recount fallback never executed (or went uncounted)");
    }

    #[test]
    fn empty_prefixes_skip_peeling() {
        // Layers with disjoint cliques: every subset mixing them is empty,
        // and the depth-1 intersection proves it without any cascade.
        let mut b = MultiLayerGraphBuilder::new(8, 3);
        clique(&mut b, 0, &[0, 1, 2]);
        clique(&mut b, 1, &[3, 4, 5]);
        clique(&mut b, 2, &[0, 1, 2]);
        let g = b.build();
        let params = DccsParams::new(2, 3, 1);
        let pre = preprocess(&g, &params, &DccsOptions::no_vertex_deletion());
        let mut ws = PeelWorkspace::new();
        let mut emitted = 0usize;
        let stats = for_each_subset_core(&g, 2, 3, &pre.layer_cores, &mut ws, |_, core| {
            emitted += 1;
            assert!(core.is_empty());
        });
        assert_eq!(emitted, 1); // C(3,3)
        assert_eq!(stats.peels, 0, "empty intersection at depth 1 must skip all peels");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_s_panics() {
        let g = graph();
        let cores: Vec<VertexSet> = (0..4).map(|_| g.full_vertex_set()).collect();
        let mut ws = PeelWorkspace::new();
        for_each_subset_core(&g, 1, 0, &cores, &mut ws, |_, _| {});
    }
}
