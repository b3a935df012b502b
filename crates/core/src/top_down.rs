//! `TD-DCCS` — the top-down search algorithm of Section V (Figs. 8 and 11).
//!
//! The search tree is rooted at the full layer set `[l]`; a child removes one
//! layer whose (sorted) index exceeds every previously removed index. The
//! tree is explored depth-first from the root down to level `s`. Each node
//! carries, besides its d-CC `C_L`, a *potential vertex set* `U_L` that
//! contains every vertex of every level-`s` descendant. A child's `U_{L'}`
//! comes from `RefineU`, and since `C_{L'} ⊆ U_{L'}`, one restricted peel of
//! `U_{L'}` over `L'` extracts the child's exact d-CC. (The paper's
//! index-based `RefineC`, Section V-C, only exists to be cheaper than that
//! peel; measured, it was not.) Pruning rules:
//!
//! * **Lemma 5** (search-tree pruning) — if `U_{L'}` fails Eq. (1), no
//!   descendant can update `R`.
//! * **Lemma 6** (order-based pruning) — children are visited in decreasing
//!   order of `|U_{L'}|`; once that size drops below
//!   `|Cov(R)|/k + |Δ(R, C*(R))|` the remaining children are skipped.
//! * **Lemma 7** (potential-set pruning) — when `C_{L'}` satisfies Eq. (1)
//!   and `U_{L'}` satisfies Eq. (2), at most one descendant can update `R`,
//!   so a single representative level-`s` descendant is evaluated instead of
//!   the whole subtree.
//!
//! The approximation ratio is 1/4 (Theorem 4). The paper recommends TD-DCCS
//! when `s ≥ l/2`; the implementation works for any `s` but is typically
//! slower than `BU-DCCS` for small `s`.
//!
//! # Execution model
//!
//! The driver walks the search tree depth-first, in pre-order, over an
//! explicit stack. Each node's children — `RefineU` and the child peel per
//! child, since `TD-Gen` needs every child before it can order them — run
//! as one fork-join batch on the shared executor ([`crate::engine`]) and
//! come back in removable-position order. The driver then sorts them,
//! applies Lemmas 5–7 against the live result set, performs the updates,
//! and pushes the children it must expand. No job reads a pruning bound,
//! and every pruning decision runs on the driver in one order, so the
//! search is bit-identical at any thread count.
//!
//! Every peel — the root, `RefineU`'s Class-1 peel, the child peel and the
//! Lemma-7 representative — runs on the [`crate::engine::PeelIndex`] the
//! cost model plans over the preprocessed active set, as GD's lattice walk
//! does: over word-level dense rows (degrees counted as
//! `popcount(row ∧ alive)`) or over the CSR adjacency, with identical
//! results. Cores, potential sets and layer cores live in the index's
//! space and are expanded to vertex space only where the result set reads
//! them: the Eq. (1) checks and `Update`.

use crate::algorithm::Algorithm;
use crate::config::{DccsOptions, DccsParams};
use crate::coverage::TopKDiversified;
use crate::engine::{PoolRef, SearchContext};
use crate::fault::{self, site};
use crate::limits::QueryMonitor;
use crate::preprocess::init_topk_in;
use crate::refine::refine_u;
use crate::result::{CoherentCore, DccsResult, SearchStats};
use crate::session::DccsSession;
use coreness::PeelWorkspace;
use mlgraph::{Layer, MultiLayerGraph, VertexSet};
use std::time::Instant;

/// Runs `TD-DCCS` with default options as a one-shot query on a fresh
/// [`DccsSession`]; panics on invalid parameters. Repeated queries and
/// sweeps should keep one session instead.
pub fn top_down_dccs(g: &MultiLayerGraph, params: &DccsParams) -> DccsResult {
    DccsSession::new(g)
        .query(*params)
        .algorithm(Algorithm::TopDown)
        .run()
        .expect("invalid DCCS parameters")
}

/// `TD-DCCS` on a query's context and executor crew: preprocessing and the
/// search tree's batches share `pool`, so neither phase pays its own worker
/// spawn/join.
pub(crate) fn top_down_dccs_on(
    ctx: &mut SearchContext,
    pool: &PoolRef<'_>,
    g: &MultiLayerGraph,
    params: &DccsParams,
    opts: &DccsOptions,
) -> DccsResult {
    params.validate(g.num_layers()).expect("invalid DCCS parameters");
    let start = Instant::now();
    let mut stats = SearchStats { algorithm: Some(Algorithm::TopDown), ..SearchStats::default() };
    let l = g.num_layers();

    // Preprocessing covers vertex deletion, `InitTopK` and layer sorting.
    let pre = ctx.preprocess_into(pool, g, params, opts, &mut stats);
    let mut topk = TopKDiversified::new(g.num_vertices(), params.k);
    if opts.init_topk {
        let (ws, running, seed) = ctx.init_scratch();
        init_topk_in(ws, running, seed, g, params, &pre, &mut topk);
    }
    // Positions follow the ascending d-core-size order (Section V-D).
    let order = pre.top_down_layer_order(opts);
    stats.phase.preprocess = start.elapsed();

    let search_start = Instant::now();
    let monitor = ctx.monitor().cloned();
    let mon = monitor.as_deref();
    let tripped = || mon.is_some_and(|m| m.check().is_some());

    // The tree peels in index space over the active set; the plan and any
    // dense build are search time, as in GD. Cores are expanded back to
    // vertex space only where the result set reads them.
    let (index, driver_ws) = ctx.peel_index(g, &pre.active);
    stats.index_path = Some(index.path());
    stats.index_bytes = index.index_bytes();
    let active = index.compress(&pre.active);
    let cores_ix = index.compress_layer_cores(&pre.layer_cores);
    let layer_cores: &[VertexSet] = cores_ix.as_deref().unwrap_or(&pre.layer_cores);

    if params.s == l {
        // The root C_{[l]} is the only candidate, so only this query peels
        // it: over the active vertex set, under the query's probe. An
        // aborted peel leaves `root_core` a superset of the true d-CC —
        // report nothing rather than a wrong core.
        stats.dcc_calls += 1;
        let mut root_core = active;
        driver_ws.set_probe(mon.map(QueryMonitor::probe));
        index.peel(driver_ws, &order, params.d, &mut root_core);
        driver_ws.set_probe(None);
        if !tripped() {
            stats.candidates_generated += 1;
            if let Some(m) = mon {
                m.charge_candidates(1);
            }
            topk.try_update(CoherentCore::new(order, index.emit_owned(root_core)));
        }
        stats.phase.search = search_start.elapsed();
        if let Some(kind) = mon.and_then(QueryMonitor::hit) {
            stats.limit_hit = Some(kind);
            stats.complete = false;
        }
        stats.updates_accepted = topk.accepted_updates();
        return DccsResult::from_topk(g.num_vertices(), topk, stats, start.elapsed());
    }

    let d = params.d;
    let s = params.s;
    let order: &[Layer] = &order;

    // `TD-Gen` (Fig. 8), depth-first in pre-order: the top of the stack is
    // the next node to expand.
    let mut stack = vec![TdNode { positions: (0..l).collect(), potential: active }];
    let mut expanded = VertexSet::new(g.num_vertices());
    while let Some(node) = stack.pop() {
        // Once a limit trips, expand and commit nothing more: `topk`
        // already holds the best-so-far partial the caller gets back.
        if tripped() {
            break;
        }
        // Removable positions: members of L above every removed position.
        let max_removed =
            (0..l).filter(|p| !node.positions.contains(p)).max().map(|p| p as isize).unwrap_or(-1);
        // One batch: every child `L' = L − {j}`, in removable-position
        // order, on any worker (`TD-Gen` needs every child before it can
        // order them). `RefineU` shrinks the node's `U_L` into `U_{L'}`, and
        // one peel of `U_{L'}` over `L'` extracts the exact `C_{L'}`, since
        // every d-CC below the node lies inside its potential set. Both
        // peels run under the query's probe; an aborted peel leaves a child
        // set a *superset* of the truth, which the limit check after the
        // batch keeps out of the result set.
        let node_ref = &node;
        let jobs: Vec<_> = node
            .positions
            .iter()
            .copied()
            .filter(|&p| p as isize > max_removed)
            .map(|j| {
                move |ws: &mut PeelWorkspace| {
                    fault::fire(mon, site::TD_EVAL);
                    if tripped() {
                        return None;
                    }
                    let positions: Vec<usize> =
                        node_ref.positions.iter().copied().filter(|&p| p != j).collect();
                    // Class split w.r.t. L' (Section V-B): max removed
                    // position is `j` because children always remove a
                    // position above every earlier one.
                    let class1: Vec<Layer> =
                        positions.iter().filter(|&&p| p < j).map(|&p| order[p]).collect();
                    let class2: Vec<Layer> =
                        positions.iter().filter(|&&p| p > j).map(|&p| order[p]).collect();
                    let layers: Vec<Layer> = positions.iter().map(|&p| order[p]).collect();
                    ws.set_probe(mon.map(QueryMonitor::probe));
                    let potential = refine_u(
                        ws,
                        &index,
                        d,
                        s,
                        &node_ref.potential,
                        &class1,
                        &class2,
                        layer_cores,
                    );
                    let mut core = potential.clone();
                    index.peel(ws, &layers, d, &mut core);
                    ws.set_probe(None);
                    Some(TdChild { positions, core, potential, removed: j })
                }
            })
            .collect();
        let children = pool.map(driver_ws, jobs);

        // The commit: order the children by |U_{L'}| and apply Lemmas 5–7
        // against the live result set, update R from leaves and Lemma-7
        // representatives, and push the children that must be expanded.
        fault::fire(mon, site::GRAPH_COMMIT);
        if tripped() {
            break;
        }
        // A job returns `None` only after a limit tripped, which the check
        // above has already stopped on.
        let mut children: Vec<TdChild> = children.into_iter().flatten().collect();
        stats.dcc_calls += children.len();
        let leaves = children.iter().filter(|c| c.positions.len() == s).count();
        stats.candidates_generated += leaves;
        if let Some(m) = mon {
            m.charge_candidates(leaves);
        }
        let first = stack.len();
        if !topk.is_full() {
            // Cases 1–2: no pruning while |R| < k.
            for child in children {
                if child.positions.len() == s {
                    let layers: Vec<Layer> = child.positions.iter().map(|&p| order[p]).collect();
                    topk.try_update(CoherentCore::new(layers, index.emit_owned(child.core)));
                } else {
                    stack.push(TdNode { positions: child.positions, potential: child.potential });
                }
            }
        } else {
            // Cases 3–4: order children by |U_{L'}| descending (Lemma 6).
            children.sort_by_key(|c| std::cmp::Reverse(c.potential.len()));
            let total = children.len();
            for (rank, child) in children.into_iter().enumerate() {
                if opts.order_pruning && topk.fails_size_bound(child.potential.len()) {
                    stats.subtrees_pruned += total - rank;
                    break;
                }
                if child.positions.len() == s {
                    let layers: Vec<Layer> = child.positions.iter().map(|&p| order[p]).collect();
                    topk.try_update(CoherentCore::new(layers, index.emit_owned(child.core)));
                    continue;
                }
                // Lemma 5: prune when even the potential set cannot satisfy
                // Eq. (1).
                if !topk.satisfies_eq1(index.emit(&child.potential, &mut expanded)) {
                    stats.subtrees_pruned += 1;
                    continue;
                }
                // Lemma 7: when the child's core already satisfies Eq. (1)
                // and the potential set satisfies Eq. (2), a single
                // representative descendant suffices.
                let removable_below: Vec<usize> =
                    child.positions.iter().copied().filter(|&p| p > child.removed).collect();
                let need_remove = child.positions.len() - s;
                if opts.potential_pruning
                    && topk.satisfies_eq1(index.emit(&child.core, &mut expanded))
                    && topk.satisfies_eq2(child.potential.len())
                {
                    if removable_below.len() < need_remove {
                        // The node has no level-s descendant at all.
                        stats.subtrees_pruned += 1;
                        continue;
                    }
                    // Deterministic choice: drop the largest removable
                    // positions.
                    let drop: Vec<usize> =
                        removable_below.iter().rev().take(need_remove).copied().collect();
                    let descendant: Vec<usize> =
                        child.positions.iter().copied().filter(|p| !drop.contains(p)).collect();
                    let layers: Vec<Layer> = descendant.iter().map(|&p| order[p]).collect();
                    stats.dcc_calls += 1;
                    stats.candidates_generated += 1;
                    if let Some(m) = mon {
                        m.charge_candidates(1);
                    }
                    // The representative peel runs on the driver's workspace
                    // with no probe installed, so it always completes and
                    // the update below is always a true d-CC.
                    let mut core = child.potential;
                    index.peel(driver_ws, &layers, d, &mut core);
                    topk.try_update(CoherentCore::new(layers, index.emit_owned(core)));
                    stats.subtrees_pruned += 1;
                    continue;
                }
                stack.push(TdNode { positions: child.positions, potential: child.potential });
            }
        }
        // The first pushed child is expanded next.
        stack[first..].reverse();
    }

    stats.phase.search = search_start.elapsed();
    if let Some(kind) = mon.and_then(QueryMonitor::hit) {
        stats.limit_hit = Some(kind);
        stats.complete = false;
    }
    stats.updates_accepted = topk.accepted_updates();
    DccsResult::from_topk(g.num_vertices(), topk, stats, start.elapsed())
}

/// One `TD-Gen` search-tree node waiting on the stack to be expanded.
struct TdNode {
    /// Tree positions of the node's layer subset `L` (ascending).
    positions: Vec<usize>,
    /// The node's potential vertex set `U_L`, in index space.
    potential: VertexSet,
}

/// A child node of the top-down search tree, its sets in index space.
struct TdChild {
    positions: Vec<usize>,
    core: VertexSet,
    potential: VertexSet,
    /// The removed position `j` (needed for the Lemma-7 shortcut).
    removed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom_up::bottom_up_dccs;
    use crate::greedy::greedy_dccs;
    use mlgraph::MultiLayerGraphBuilder;

    fn top_down_with(g: &MultiLayerGraph, params: &DccsParams, opts: &DccsOptions) -> DccsResult {
        let mut session = DccsSession::with_options(g, *opts);
        session.query(*params).algorithm(Algorithm::TopDown).run().unwrap()
    }

    fn clique(b: &mut MultiLayerGraphBuilder, layer: usize, vs: &[u32]) {
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                b.add_edge(layer, vs[i], vs[j]).unwrap();
            }
        }
    }

    /// Four layers over 12 vertices: clique A = {0,1,2,3} on layers 0–3,
    /// clique B = {4,5,6,7} on layers 0–2, clique C = {8,9,10,11} on layers 2–3.
    fn graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(12, 4);
        for layer in 0..4 {
            clique(&mut b, layer, &[0, 1, 2, 3]);
        }
        for layer in 0..3 {
            clique(&mut b, layer, &[4, 5, 6, 7]);
        }
        for layer in 2..4 {
            clique(&mut b, layer, &[8, 9, 10, 11]);
        }
        b.build()
    }

    #[test]
    fn finds_coherent_cores_for_large_s() {
        let g = graph();
        // s = 3 (≥ l/2): only cliques A (4 layers) and B (3 layers) qualify.
        let result = top_down_dccs(&g, &DccsParams::new(3, 3, 2));
        assert_eq!(result.cover.to_vec(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn s_equal_to_l_returns_the_root_core() {
        let g = graph();
        let result = top_down_dccs(&g, &DccsParams::new(3, 4, 2));
        assert_eq!(result.cover.to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(result.cores[0].layers, vec![0, 1, 2, 3]);
    }

    #[test]
    fn agrees_with_greedy_and_bottom_up_on_cover_size() {
        let g = graph();
        for (d, s, k) in [(2, 2, 2), (3, 3, 2), (2, 3, 3), (3, 2, 2), (2, 4, 1)] {
            let params = DccsParams::new(d, s, k);
            let td = top_down_dccs(&g, &params);
            let bu = bottom_up_dccs(&g, &params);
            let gd = greedy_dccs(&g, &params);
            assert_eq!(td.cover_size(), gd.cover_size(), "td vs gd d={d} s={s} k={k}");
            assert_eq!(bu.cover_size(), gd.cover_size(), "bu vs gd d={d} s={s} k={k}");
        }
    }

    #[test]
    fn multithreaded_run_is_identical_to_sequential() {
        let g = graph();
        for (d, s, k) in [(2, 2, 2), (3, 3, 2), (2, 3, 3), (2, 4, 1)] {
            let params = DccsParams::new(d, s, k);
            let seq = top_down_dccs(&g, &params);
            for threads in [2, 4] {
                let par = top_down_with(&g, &params, &DccsOptions::with_threads(threads));
                assert_eq!(par.cores, seq.cores, "threads={threads} d={d} s={s} k={k}");
                assert_eq!(par.stats, seq.stats, "threads={threads} d={d} s={s} k={k}");
            }
        }
    }

    #[test]
    fn reported_cores_are_d_dense_with_s_layers() {
        let g = graph();
        let params = DccsParams::new(2, 3, 3);
        let result = top_down_dccs(&g, &params);
        for core in &result.cores {
            assert_eq!(core.layers.len(), params.s);
            assert!(coreness::is_d_dense_multilayer(&g, &core.layers, &core.vertices, params.d));
        }
    }

    #[test]
    fn ablation_options_do_not_change_cover_size() {
        let g = graph();
        let params = DccsParams::new(2, 3, 2);
        let reference = top_down_dccs(&g, &params).cover_size();
        for opts in [
            DccsOptions::no_vertex_deletion(),
            DccsOptions::no_sort_layers(),
            DccsOptions::no_init_topk(),
            DccsOptions::no_preprocessing(),
        ] {
            let r = top_down_with(&g, &params, &opts);
            assert_eq!(r.cover_size(), reference);
        }
    }

    #[test]
    fn pruning_disabled_matches_default() {
        let g = graph();
        let params = DccsParams::new(2, 3, 2);
        let opts = DccsOptions {
            order_pruning: false,
            potential_pruning: false,
            ..DccsOptions::default()
        };
        let unpruned = top_down_with(&g, &params, &opts);
        let pruned = top_down_dccs(&g, &params);
        assert_eq!(unpruned.cover_size(), pruned.cover_size());
        assert!(pruned.stats.dcc_calls <= unpruned.stats.dcc_calls + 4);
    }

    #[test]
    fn empty_result_when_no_core_exists() {
        let mut b = MultiLayerGraphBuilder::new(6, 3);
        for layer in 0..3 {
            for v in 0..5u32 {
                b.add_edge(layer, v, v + 1).unwrap();
            }
        }
        let g = b.build();
        let result = top_down_dccs(&g, &DccsParams::new(2, 2, 2));
        assert_eq!(result.cover_size(), 0);
    }

    #[test]
    fn stats_are_populated() {
        let g = graph();
        let result = top_down_dccs(&g, &DccsParams::new(3, 3, 2));
        assert!(result.stats.dcc_calls > 0);
        assert!(result.stats.candidates_generated > 0);
    }
}
