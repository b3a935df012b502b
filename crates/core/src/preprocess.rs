//! Preprocessing shared by the DCCS algorithms (Section IV-C):
//!
//! 1. **Vertex deletion** — iteratively remove every vertex that appears in
//!    fewer than `s` per-layer d-cores (`Num(v) < s`), shrinking the d-cores
//!    until a fixpoint; such a vertex can never belong to a d-CC on `s`
//!    layers.
//! 2. **Layer sorting** — order the layers by per-layer d-core size
//!    (descending for the bottom-up search, ascending for the top-down
//!    search).
//! 3. **Result initialization** (`InitTopK`, Appendix D) — greedily seed the
//!    temporary top-k result set so the pruning rules engage immediately.
//!
//! The initial pass peels every layer over the full vertex set once. Each
//! round of the vertex-deletion fixpoint then removes that round's victims
//! from every layer's current d-core and cascades only from them
//! ([`PeelWorkspace::shrink_d_core`]), so a round costs the edges of the
//! vertices that leave, not a re-peel of every layer; only the leavers lose
//! support, so they alone are candidates for the next round. Both steps are
//! independent across layers and run as fork-join batches on the executor
//! crew that serves the whole query, so preprocessing pays no worker
//! spawn/join of its own. Each layer's job is a pure function of its inputs
//! and the support bookkeeping stays on the driver, so the batches are
//! bit-identical at any width; the public entry points here are the
//! one-thread case.

use crate::config::{DccsOptions, DccsParams};
use crate::coverage::TopKDiversified;
use crate::engine::{with_pool, PoolRef};
use crate::fault::{self, site};
use crate::limits::QueryMonitor;
use crate::result::CoherentCore;
use coreness::{d_coherent_core_in, d_core_within_into, PeelWorkspace};
use mlgraph::{Layer, MultiLayerGraph, Vertex, VertexSet};

/// The state produced by preprocessing and consumed by every algorithm.
#[derive(Clone, Debug)]
pub struct Preprocessed {
    /// Vertices surviving vertex deletion.
    pub active: VertexSet,
    /// Per-layer d-cores restricted to `active`, indexed by original layer.
    pub layer_cores: Vec<VertexSet>,
    /// `Num(v)`: the number of per-layer d-cores containing `v`
    /// (0 for inactive vertices).
    pub support: Vec<u32>,
    /// Number of vertices removed by vertex deletion.
    pub vertices_deleted: usize,
    /// Number of vertex-deletion rounds that removed vertices and shrank
    /// the layer cores (0 when nothing was deleted or deletion is off).
    pub fixpoint_rounds: usize,
}

impl Preprocessed {
    /// Layer order for the bottom-up search: descending d-core size.
    /// Falls back to the natural order when layer sorting is disabled.
    pub fn bottom_up_layer_order(&self, opts: &DccsOptions) -> Vec<Layer> {
        let mut order: Vec<Layer> = (0..self.layer_cores.len()).collect();
        if opts.sort_layers {
            order.sort_by_key(|&i| std::cmp::Reverse(self.layer_cores[i].len()));
        }
        order
    }

    /// Layer order for the top-down search: ascending d-core size.
    pub fn top_down_layer_order(&self, opts: &DccsOptions) -> Vec<Layer> {
        let mut order: Vec<Layer> = (0..self.layer_cores.len()).collect();
        if opts.sort_layers {
            order.sort_by_key(|&i| self.layer_cores[i].len());
        }
        order
    }
}

/// Runs the vertex-deletion preprocessing (lines 1–7 of `BU-DCCS`) and
/// computes the per-layer d-cores of the surviving graph.
///
/// When `opts.vertex_deletion` is `false`, the d-cores are still computed
/// (every algorithm needs them) but no vertex is discarded for low support.
pub fn preprocess(g: &MultiLayerGraph, params: &DccsParams, opts: &DccsOptions) -> Preprocessed {
    let mut ws = PeelWorkspace::with_capacity(g.num_vertices(), 1);
    let initial = initial_layer_cores(g, params.d, &mut ws);
    preprocess_from(g, params, opts, &mut ws, initial)
}

/// The per-layer d-cores over the **full** vertex set — the first step of
/// [`preprocess`], and the only one that depends on `d` alone (vertex
/// deletion additionally depends on `s`). The shared tier
/// ([`crate::engine::SharedSearchState`]) memoizes this per `d`, and the
/// converged fixpoint built on it per `(d, s, vertex_deletion)`: a warm
/// query repeating a `(d, s)` skips preprocessing entirely, and one at a
/// new `s` but a known `d` re-runs only the fixpoint.
pub fn initial_layer_cores(g: &MultiLayerGraph, d: u32, ws: &mut PeelWorkspace) -> Vec<VertexSet> {
    with_pool(1, |pool| initial_layer_cores_on(g, d, ws, pool, None))
}

/// [`initial_layer_cores`] as one fork-join batch on a query's crew, with
/// the query's monitor carrying its fault plan to each layer job. On a crew
/// with no workers the batch runs inline on `ws`, layer by layer.
pub(crate) fn initial_layer_cores_on(
    g: &MultiLayerGraph,
    d: u32,
    ws: &mut PeelWorkspace,
    pool: &PoolRef<'_>,
    monitor: Option<&QueryMonitor>,
) -> Vec<VertexSet> {
    let n = g.num_vertices();
    let active = &g.full_vertex_set();
    let jobs: Vec<_> = (0..g.num_layers())
        .map(|i| {
            move |wws: &mut PeelWorkspace| {
                fault::fire(monitor, site::PREPROCESS_LAYER);
                let mut core = VertexSet::new(n);
                d_core_within_into(wws, g.layer(i), d, active, &mut core);
                core
            }
        })
        .collect();
    pool.map(ws, jobs)
}

/// [`preprocess`] continued from already-computed [`initial_layer_cores`]
/// (which the caller may have pulled from a memo): runs the vertex-deletion
/// fixpoint and assembles the [`Preprocessed`] state. Bit-identical to
/// [`preprocess`] because the initial cores are a deterministic function of
/// `(g, d)`.
pub fn preprocess_from(
    g: &MultiLayerGraph,
    params: &DccsParams,
    opts: &DccsOptions,
    ws: &mut PeelWorkspace,
    layer_cores: Vec<VertexSet>,
) -> Preprocessed {
    with_pool(1, |pool| preprocess_from_monitored(g, params, opts, ws, layer_cores, pool, None).0)
}

/// [`preprocess_from`] on a query's crew, with a limit monitor checked once
/// per fixpoint round; the flag reports whether the fixpoint converged.
///
/// Each round removes its victims from every layer core: one fork-join
/// batch of [`PeelWorkspace::shrink_d_core`] calls, one per layer, over
/// per-layer degree counters and leaver lists the driver owns for the whole
/// fixpoint. A layer's d-core within the new active set is its d-core
/// within `core \ victims`, so each round yields exactly the cores a fresh
/// peel of every layer would, at the cost of the leavers' edges. Only a
/// vertex that left some core loses support, so the next round's victims
/// are the leavers whose support just fell below `s`; that bookkeeping
/// stays on the driver, in layer order, so the result is bit-identical at
/// any width.
///
/// An early exit is always safe here: stopping the fixpoint before
/// convergence leaves `active` a (less-pruned) **superset** of the
/// converged universe, which every downstream search accepts as valid
/// input — preprocessing only ever shrinks the problem, it never decides
/// results. Only a converged result is the pure function of `(g, d, s,
/// vertex_deletion)` that [`crate::engine::SharedSearchState`] may
/// memoize.
#[allow(clippy::too_many_arguments)]
pub(crate) fn preprocess_from_monitored(
    g: &MultiLayerGraph,
    params: &DccsParams,
    opts: &DccsOptions,
    ws: &mut PeelWorkspace,
    mut layer_cores: Vec<VertexSet>,
    pool: &PoolRef<'_>,
    monitor: Option<&QueryMonitor>,
) -> (Preprocessed, bool) {
    let n = g.num_vertices();
    let s = params.s;
    let mut active = g.full_vertex_set();
    let mut support = vec![0u32; n];
    for v in layer_cores.iter().flat_map(VertexSet::iter) {
        support[v as usize] += 1;
    }

    let mut rounds = 0usize;
    let converged = !opts.vertex_deletion || {
        // Before the first round any vertex may lack support; afterwards
        // every survivor has at least `s` until it leaves a core.
        let mut victims: Vec<Vertex> =
            (0..n as Vertex).filter(|&v| (support[v as usize] as usize) < s).collect();
        let mut degrees = vec![vec![u32::MAX; n]; layer_cores.len()];
        let mut left: Vec<Vec<Vertex>> = vec![Vec::new(); layer_cores.len()];
        loop {
            fault::fire(monitor, site::PREPROCESS_ROUND);
            if monitor.is_some_and(|m| m.check().is_some()) {
                break false;
            }
            if victims.is_empty() {
                break true;
            }
            for &v in &victims {
                active.remove(v);
            }
            rounds += 1;
            let jobs: Vec<_> = layer_cores
                .iter_mut()
                .zip(&mut degrees)
                .zip(&mut left)
                .enumerate()
                .map(|(i, ((core, degrees), left))| {
                    let victims = &victims;
                    move |wws: &mut PeelWorkspace| {
                        fault::fire(monitor, site::PREPROCESS_LAYER);
                        left.clear();
                        wws.shrink_d_core(g.layer(i), params.d, core, victims, degrees, left);
                    }
                })
                .collect();
            pool.map(ws, jobs);
            victims.clear();
            for &v in left.iter().flatten() {
                let sv = &mut support[v as usize];
                *sv -= 1;
                // A survivor crosses below `s` exactly once; a victim of
                // this round started below it.
                if *sv as usize + 1 == s {
                    victims.push(v);
                }
            }
        }
    };

    let vertices_deleted = n - active.len();
    let pre =
        Preprocessed { active, layer_cores, support, vertices_deleted, fixpoint_rounds: rounds };
    (pre, converged)
}

/// The `InitTopK` procedure (Appendix D): greedily builds `k` seed d-CCs.
///
/// For each of the `k` rounds it picks the layer whose d-core adds the most
/// uncovered vertices, greedily extends the layer set to size `s` by
/// maximizing the running intersection, computes the d-CC of the resulting
/// layer subset, and offers it to the result set via `Update`.
pub fn init_topk(
    g: &MultiLayerGraph,
    params: &DccsParams,
    pre: &Preprocessed,
    topk: &mut TopKDiversified,
) {
    let mut ws = PeelWorkspace::new();
    let mut running = VertexSet::new(0);
    let mut seed = VertexSet::new(0);
    init_topk_in(&mut ws, &mut running, &mut seed, g, params, pre, topk);
}

/// [`init_topk`] with explicit scratch: `running` accumulates the running
/// layer-core intersection and `seed` receives each seed core (both resized
/// on capacity mismatch, reused otherwise), so a query on a pooled context
/// peels the `k` seeding rounds without per-round intersection/peel-output
/// allocations. Each
/// round still clones `seed` once to hand `Update` an owned candidate —
/// that clone is inherent to offering ownership, not scratch churn (cf.
/// [`TopKDiversified::cover_set_into`] for the same reuse protocol on the
/// cover side).
pub fn init_topk_in(
    ws: &mut PeelWorkspace,
    running: &mut VertexSet,
    seed: &mut VertexSet,
    g: &MultiLayerGraph,
    params: &DccsParams,
    pre: &Preprocessed,
    topk: &mut TopKDiversified,
) {
    let l = g.num_layers();
    if l == 0 {
        return;
    }
    let n = g.num_vertices();
    if running.capacity() != n {
        *running = VertexSet::new(n);
    }
    for _ in 0..params.k {
        // Layer whose d-core maximally enlarges the current cover.
        let Some(first) = (0..l).max_by_key(|&i| topk.marginal_gain(&pre.layer_cores[i])) else {
            return;
        };
        let mut chosen = vec![first];
        running.copy_from(&pre.layer_cores[first]);
        while chosen.len() < params.s {
            let Some(next) = (0..l)
                .filter(|i| !chosen.contains(i))
                .max_by_key(|&j| running.intersection_len(&pre.layer_cores[j]))
            else {
                break;
            };
            chosen.push(next);
            running.intersect_with(&pre.layer_cores[next]);
        }
        if chosen.len() < params.s {
            return;
        }
        d_coherent_core_in(ws, g, &chosen, params.d, running, seed);
        topk.try_update(CoherentCore::new(chosen, seed.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgraph::MultiLayerGraphBuilder;

    /// Layers 0 and 1 share a 4-clique on {0,1,2,3}; layer 2 has a triangle
    /// on {4,5,6}; vertex 7 is a pendant everywhere.
    fn graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(8, 3);
        for layer in [0, 1] {
            for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 7)] {
                b.add_edge(layer, u, v).unwrap();
            }
        }
        for (u, v) in [(4, 5), (5, 6), (4, 6), (6, 7)] {
            b.add_edge(2, u, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn per_layer_cores_computed() {
        let g = graph();
        let params = DccsParams::new(2, 1, 2);
        let pre = preprocess(&g, &params, &DccsOptions::default());
        assert_eq!(pre.layer_cores[0].to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(pre.layer_cores[2].to_vec(), vec![4, 5, 6]);
    }

    #[test]
    fn vertex_deletion_removes_low_support_vertices() {
        let g = graph();
        // s = 2: vertices must appear in at least 2 per-layer 2-cores.
        let params = DccsParams::new(2, 2, 2);
        let pre = preprocess(&g, &params, &DccsOptions::default());
        // {0,1,2,3} are in the 2-core of layers 0 and 1 → kept.
        // {4,5,6} only in layer 2's core → deleted. 7 in none → deleted.
        assert_eq!(pre.active.to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(pre.vertices_deleted, 4);
        assert!(pre.support[0] >= 2);
        assert_eq!(pre.support[4], 0);
    }

    #[test]
    fn vertex_deletion_can_be_disabled() {
        let g = graph();
        let params = DccsParams::new(2, 2, 2);
        let pre = preprocess(&g, &params, &DccsOptions::no_vertex_deletion());
        assert_eq!(pre.active.len(), 8);
        assert_eq!(pre.vertices_deleted, 0);
        assert_eq!(pre.fixpoint_rounds, 0);
        // Support is still computed.
        assert_eq!(pre.support[4], 1);
    }

    #[test]
    fn deletion_cascades_until_fixpoint() {
        // A chain of triangles sharing single vertices: removing a low-support
        // part can push neighbors below the threshold.
        let mut b = MultiLayerGraphBuilder::new(6, 2);
        // layer 0: triangles {0,1,2} and {2,3,4} and edge 4-5
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)] {
            b.add_edge(0, u, v).unwrap();
        }
        // layer 1: only triangle {0,1,2}
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            b.add_edge(1, u, v).unwrap();
        }
        let g = b.build();
        let params = DccsParams::new(2, 2, 1);
        let pre = preprocess(&g, &params, &DccsOptions::default());
        assert_eq!(pre.active.to_vec(), vec![0, 1, 2]);
        // One round deletes {3, 4, 5}; shrinking the cores by them leaves
        // nothing to cut.
        assert_eq!(pre.fixpoint_rounds, 1);
    }

    /// A monitor that has already tripped stops the fixpoint before its
    /// first round and reports it unconverged; without one the same input
    /// converges.
    #[test]
    fn an_early_exit_reports_an_unconverged_fixpoint() {
        let g = graph();
        let params = DccsParams::new(2, 2, 2);
        let opts = DccsOptions::default();
        let mut ws = PeelWorkspace::new();
        let initial = initial_layer_cores(&g, 2, &mut ws);
        let limits = crate::QueryLimits::none().with_deadline(std::time::Duration::ZERO);
        let monitor = QueryMonitor::new(&limits, None, None);
        with_pool(1, |pool| {
            let (pre, converged) = preprocess_from_monitored(
                &g,
                &params,
                &opts,
                &mut ws,
                initial.clone(),
                pool,
                Some(&monitor),
            );
            assert!(!converged);
            assert_eq!((pre.vertices_deleted, pre.fixpoint_rounds), (0, 0));
            let (pre, converged) =
                preprocess_from_monitored(&g, &params, &opts, &mut ws, initial, pool, None);
            assert!(converged);
            assert_eq!((pre.vertices_deleted, pre.fixpoint_rounds), (4, 1));
        });
    }

    /// The parallel per-layer batches (initial pass and fixpoint rounds)
    /// must be bit-identical to the one-thread run at every width.
    #[test]
    fn threaded_preprocessing_is_bit_identical_to_sequential() {
        let g = graph();
        for (d, s) in [(2u32, 1usize), (2, 2), (3, 2), (2, 3)] {
            let params = DccsParams::new(d, s, 2);
            for opts in [DccsOptions::default(), DccsOptions::no_vertex_deletion()] {
                let mut ws = PeelWorkspace::new();
                let initial = initial_layer_cores(&g, d, &mut ws);
                let seq = preprocess_from(&g, &params, &opts, &mut ws, initial.clone());
                for threads in [2usize, 4] {
                    let (par_initial, (par, _)) = with_pool(threads, |pool| {
                        let initial = initial_layer_cores_on(&g, d, &mut ws, pool, None);
                        let cores = initial.clone();
                        let pre = preprocess_from_monitored(
                            &g, &params, &opts, &mut ws, cores, pool, None,
                        );
                        (initial, pre)
                    });
                    assert_eq!(par_initial, initial, "initial d={d} threads={threads}");
                    let label = format!("d={d} s={s} threads={threads}");
                    assert_eq!(par.active.to_vec(), seq.active.to_vec(), "{label}");
                    assert_eq!(par.layer_cores, seq.layer_cores, "{label}");
                    assert_eq!(par.support, seq.support, "{label}");
                    assert_eq!(par.vertices_deleted, seq.vertices_deleted, "{label}");
                    assert_eq!(par.fixpoint_rounds, seq.fixpoint_rounds, "{label}");
                }
            }
        }
    }

    #[test]
    fn layer_orders_follow_core_sizes() {
        let g = graph();
        let params = DccsParams::new(2, 1, 2);
        let pre = preprocess(&g, &params, &DccsOptions::default());
        // Core sizes: layer0 = 4, layer1 = 4, layer2 = 3.
        let bu = pre.bottom_up_layer_order(&DccsOptions::default());
        assert_eq!(*bu.last().unwrap(), 2);
        let td = pre.top_down_layer_order(&DccsOptions::default());
        assert_eq!(td[0], 2);
        // Sorting disabled keeps natural order.
        let natural = pre.bottom_up_layer_order(&DccsOptions::no_sort_layers());
        assert_eq!(natural, vec![0, 1, 2]);
    }

    #[test]
    fn init_topk_seeds_k_cores() {
        let g = graph();
        let params = DccsParams::new(2, 2, 2);
        let pre = preprocess(&g, &params, &DccsOptions::default());
        let mut topk = TopKDiversified::new(g.num_vertices(), params.k);
        init_topk(&g, &params, &pre, &mut topk);
        assert_eq!(topk.len(), 2);
        // The best seed covers the shared 4-clique.
        assert!(topk.cover_size() >= 4);
        let cover = topk.cover_set();
        for v in [0, 1, 2, 3] {
            assert!(cover.contains(v));
        }
    }

    #[test]
    fn init_topk_with_s_equal_one() {
        let g = graph();
        let params = DccsParams::new(2, 1, 3);
        let pre = preprocess(&g, &params, &DccsOptions::default());
        let mut topk = TopKDiversified::new(g.num_vertices(), params.k);
        init_topk(&g, &params, &pre, &mut topk);
        assert!(topk.len() >= 2);
        // With s = 1 the best two seeds cover both the clique and the triangle.
        assert!(topk.cover_size() >= 7);
    }
}
