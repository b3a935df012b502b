//! `TD-DCCS` — the top-down search algorithm of Section V (Figs. 8 and 11).
//!
//! The search tree is rooted at the full layer set `[l]`; a child removes one
//! layer whose (sorted) index exceeds every previously removed index. The
//! tree is explored depth-first from the root down to level `s`. Each node
//! carries, besides its d-CC `C_L`, a *potential vertex set* `U_L` that
//! contains every vertex of every level-`s` descendant; `U_L` is shrunk by
//! `RefineU` and the exact child core is extracted by `RefineC` over the
//! hierarchical vertex index. Pruning rules:
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
//! The search tree runs as a deterministic subtree-level task graph on the
//! shared executor ([`crate::engine`]): each node is one
//! task whose evaluation computes **all** of its children (`RefineU` +
//! `RefineC` — `TD-Gen` needs every child before it can order them), on
//! whichever worker grabs the task. Results are committed on the driver in
//! the tree's pre-order; the commit sorts the children, applies Lemmas
//! 5–7 against the live result set, performs the updates, and spawns the
//! surviving children as new tasks — which then evaluate concurrently with
//! tasks from other subtrees. Unlike BU, evaluation itself consults no
//! pruning bound, so nothing has to be frozen into the task payload: every
//! pruning decision runs at a deterministic commit moment, and the search
//! is bit-identical at any thread count.

use crate::algorithm::Algorithm;
use crate::config::{DccsOptions, DccsParams};
use crate::coverage::TopKDiversified;
use crate::engine::{drive_task_graph, PoolRef, SearchContext};
use crate::fault::{self, site};
use crate::index::VertexIndex;
use crate::limits::QueryMonitor;
use crate::preprocess::init_topk_in;
use crate::refine::{refine_c, refine_u};
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
/// subtree task graph share `pool`, so neither phase pays its own worker
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

    let pre = ctx.preprocess_into(pool, g, params, opts, &mut stats);
    stats.phase.preprocess = start.elapsed();

    let mut topk = TopKDiversified::new(g.num_vertices(), params.k);
    if opts.init_topk {
        let (ws, running, seed) = ctx.init_scratch();
        init_topk_in(ws, running, seed, g, params, &pre, &mut topk);
    }

    // Positions follow the ascending d-core-size order (Section V-D).
    let order = pre.top_down_layer_order(opts);
    let cores_by_layer = pre.layer_cores.clone();
    let index = if opts.use_refine_c && l <= 64 {
        Some(VertexIndex::build(g, params.d, &pre))
    } else {
        None
    };

    // Root: C_{[l]} computed over the active vertex set, under the query's
    // probe — the root peel is the single largest cascade of the search.
    let monitor = ctx.monitor().cloned();
    let mon = monitor.as_deref();
    let all_positions: Vec<usize> = (0..l).collect();
    let all_layers: Vec<Layer> = order.clone();
    stats.dcc_calls += 1;
    let search_start = Instant::now();
    let mut root_core = pre.active.clone();
    ctx.ws.set_probe(mon.map(QueryMonitor::probe));
    ctx.ws.peel_in_place(g, &all_layers, params.d, &mut root_core);
    ctx.ws.set_probe(None);

    if params.s == l {
        // An aborted root peel leaves `root_core` a superset of the true
        // d-CC — report nothing rather than a wrong core.
        if mon.is_none_or(|m| m.check().is_none()) {
            stats.candidates_generated += 1;
            if let Some(m) = mon {
                m.charge_candidates(1);
            }
            topk.try_update(CoherentCore::new(all_layers, root_core));
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
    let use_refine_c = opts.use_refine_c;
    let order_ref: &[Layer] = &order;
    let layer_cores: &[VertexSet] = &cores_by_layer;
    let index_ref = index.as_ref();

    // Evaluating one `TD-Gen` node: compute every child `L' = L − {j}`
    // (`RefineU` then `RefineC` or a plain peel), in removable-position
    // order. Runs on any worker and reads only the task payload.
    let eval = move |task: TdTask, ws: &mut PeelWorkspace| -> TdNodeEval {
        fault::fire(mon, site::TD_EVAL);
        let TdTask { positions, potential } = task;
        // A tripped limit: skip the refinement entirely. The commit sees no
        // children and spawns nothing, so the outstanding subtree drains.
        if mon.is_some_and(|m| m.check().is_some()) {
            return TdNodeEval { children: Vec::new() };
        }
        // Peels run under the query's probe; an aborted peel leaves a child
        // core a *superset* of the truth, which the commit-side limit check
        // keeps out of the result set.
        ws.set_probe(mon.map(QueryMonitor::probe));
        // Removable positions: members of L above every removed position.
        let max_removed =
            (0..l).filter(|p| !positions.contains(p)).max().map(|p| p as isize).unwrap_or(-1);
        let removable: Vec<usize> =
            positions.iter().copied().filter(|&p| p as isize > max_removed).collect();
        let children: Vec<TdChild> = removable
            .into_iter()
            .map(|j| {
                let child_positions: Vec<usize> =
                    positions.iter().copied().filter(|&p| p != j).collect();
                // Class split w.r.t. L' (Section V-B): max removed position
                // is `j` because children always remove a position above
                // every earlier one.
                let class1: Vec<Layer> =
                    child_positions.iter().filter(|&&p| p < j).map(|&p| order_ref[p]).collect();
                let class2: Vec<Layer> =
                    child_positions.iter().filter(|&&p| p > j).map(|&p| order_ref[p]).collect();
                let layers: Vec<Layer> = child_positions.iter().map(|&p| order_ref[p]).collect();
                let spec = TdChildSpec { j, child_positions, class1, class2, layers };
                eval_child(g, d, s, layer_cores, index_ref, use_refine_c, spec, &potential, ws)
            })
            .collect();
        ws.set_probe(None);
        TdNodeEval { children }
    };

    {
        let root = TdTask { positions: all_positions, potential: pre.active.clone() };
        let topk = &mut topk;
        let stats = &mut stats;
        // Committing one node, in pre-order on the driver: order the
        // children by |U_{L'}| and apply Lemmas 5–7 against the live result
        // set, update R from leaves and Lemma-7 representatives, and spawn
        // the children that must be expanded.
        drive_task_graph(pool, &mut ctx.ws, vec![root], &eval, |mut ev: TdNodeEval, ws, spawn| {
            fault::fire(mon, site::GRAPH_COMMIT);
            // Once a limit trips, commit nothing more: children evaluated
            // after the hit may be probe-aborted supersets, and `topk`
            // already holds the best-so-far partial the caller gets back.
            if mon.is_some_and(|m| m.check().is_some()) {
                return;
            }
            stats.dcc_calls += ev.children.len();
            let leaves = ev.children.iter().filter(|c| c.positions.len() == s).count();
            stats.candidates_generated += leaves;
            if let Some(m) = mon {
                m.charge_candidates(leaves);
            }
            if !topk.is_full() {
                // Cases 1–2: no pruning while |R| < k.
                for child in ev.children {
                    if child.positions.len() == s {
                        let layers: Vec<Layer> =
                            child.positions.iter().map(|&p| order[p]).collect();
                        topk.try_update(CoherentCore::new(layers, child.core));
                    } else {
                        spawn.push(TdTask {
                            positions: child.positions,
                            potential: child.potential,
                        });
                    }
                }
                return;
            }
            // Cases 3–4: order children by |U_{L'}| descending (Lemma 6).
            ev.children.sort_by_key(|c| std::cmp::Reverse(c.potential.len()));
            let total = ev.children.len();
            for (rank, child) in ev.children.into_iter().enumerate() {
                if opts.order_pruning && topk.fails_size_bound(child.potential.len()) {
                    stats.subtrees_pruned += total - rank;
                    break;
                }
                if child.positions.len() == s {
                    let layers: Vec<Layer> = child.positions.iter().map(|&p| order[p]).collect();
                    topk.try_update(CoherentCore::new(layers, child.core));
                    continue;
                }
                // Lemma 5: prune when even the potential set cannot satisfy
                // Eq. (1).
                if !topk.satisfies_eq1(&child.potential) {
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
                    && topk.satisfies_eq1(&child.core)
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
                    let mut core = child.potential.clone();
                    ws.peel_in_place(g, &layers, d, &mut core);
                    topk.try_update(CoherentCore::new(layers, core));
                    stats.subtrees_pruned += 1;
                    continue;
                }
                spawn.push(TdTask { positions: child.positions, potential: child.potential });
            }
        });
    }

    stats.phase.search = search_start.elapsed();
    if let Some(kind) = mon.and_then(QueryMonitor::hit) {
        stats.limit_hit = Some(kind);
        stats.complete = false;
    }
    stats.updates_accepted = topk.accepted_updates();
    DccsResult::from_topk(g.num_vertices(), topk, stats, start.elapsed())
}

/// One `TD-Gen` search-tree node, scheduled as a task on the executor's
/// task graph. Evaluation needs no pruning state — `TD-Gen` computes every
/// child before ordering them — so the payload is just the node identity
/// and its potential vertex set.
struct TdTask {
    /// Tree positions of the node's layer subset `L` (ascending).
    positions: Vec<usize>,
    /// The node's potential vertex set `U_L`.
    potential: VertexSet,
}

/// The outcome of evaluating one [`TdTask`]: every child, in
/// removable-position order, committed on the driver in pre-order.
struct TdNodeEval {
    children: Vec<TdChild>,
}

/// A child node of the top-down search tree.
struct TdChild {
    positions: Vec<usize>,
    core: VertexSet,
    potential: VertexSet,
    /// The removed position `j` (needed for the Lemma-7 shortcut).
    removed: usize,
}

/// The driver-computed description of one child evaluation: the removed
/// position, the child's positions, the `RefineU` class split, and the
/// child's layer list.
struct TdChildSpec {
    j: usize,
    child_positions: Vec<usize>,
    class1: Vec<Layer>,
    class2: Vec<Layer>,
    layers: Vec<Layer>,
}

/// One child evaluation — `RefineU` then `RefineC` (or a plain peel) —
/// shared by the sequential path and the executor jobs.
#[allow(clippy::too_many_arguments)]
fn eval_child(
    g: &MultiLayerGraph,
    d: u32,
    s: usize,
    layer_cores: &[VertexSet],
    index: Option<&VertexIndex>,
    use_refine_c: bool,
    spec: TdChildSpec,
    u_l: &VertexSet,
    ws: &mut PeelWorkspace,
) -> TdChild {
    let TdChildSpec { j, child_positions, class1, class2, layers } = spec;
    let potential = refine_u(g, d, s, u_l, &class1, &class2, layer_cores);
    let core = match index {
        Some(ix) if use_refine_c => refine_c(g, d, ix, &potential, &layers),
        _ => {
            let mut core = potential.clone();
            ws.peel_in_place(g, &layers, d, &mut core);
            core
        }
    };
    TdChild { positions: child_positions, core, potential, removed: j }
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
    fn refine_c_and_plain_dcc_give_identical_results() {
        let g = graph();
        let params = DccsParams::new(3, 3, 2);
        let with_index = top_down_dccs(&g, &params);
        let opts = DccsOptions { use_refine_c: false, ..DccsOptions::default() };
        let without_index = top_down_with(&g, &params, &opts);
        assert_eq!(with_index.cover_size(), without_index.cover_size());
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
