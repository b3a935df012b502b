//! `BU-DCCS` — the bottom-up search algorithm of Section IV (Figs. 3 and 7).
//!
//! Candidate d-CCs are organized in a search tree over layer subsets: the
//! node for layer subset `L` has one child per layer index `j > max(L)`.
//! The tree is explored depth-first from the empty subset down to level `s`,
//! and the temporary top-k result set is updated by every candidate reached
//! at level `s`. Three pruning rules cut subtrees:
//!
//! * **Lemma 2** (search-tree pruning) — a node failing Eq. (1) has no
//!   descendant that can update `R`.
//! * **Lemma 3** (order-based pruning) — children are visited in decreasing
//!   order of `|C_L ∩ C^d(G_j)|`; once that intersection drops below
//!   `|Cov(R)|/k + |Δ(R, C*(R))|` the remaining children can be skipped.
//! * **Lemma 4** (layer pruning) — a layer `j` whose child fails Eq. (1) is
//!   excluded from every deeper subset containing `L`.
//!
//! The approximation ratio is 1/4 (Theorem 3).
//!
//! # Execution model
//!
//! The search tree runs as a deterministic subtree-level task graph on the
//! shared executor ([`crate::engine`]): every node is one
//! task that peels its surviving children on whichever worker grabs it,
//! and the results are committed on the driver in the tree's pre-order.
//! The Lemma-3 child selection inside a task is evaluated against a
//! [`crate::coverage::PruneBounds`] snapshot captured when the task was
//! spawned (its parent's commit — a deterministic pre-order moment), so
//! evaluation never reads scheduling-dependent state; the Lemma-2 subtree
//! check, the Lemma-4 exclusions, and every `Update` run at commit time
//! against the live result set. The snapshot bound can be staler than the
//! sequential in-loop bound — a node spawned at its parent's commit misses
//! every update accepted in its earlier siblings' subtrees, so its
//! Lemma-3 cut may let extra children through — but each extra candidate
//! is still gated by Eq. (1) inside `Update`, so the search stays
//! bit-identical at any thread count and the 1/4 guarantee is untouched,
//! while sibling subtrees peel concurrently.

use crate::algorithm::Algorithm;
use crate::config::{DccsOptions, DccsParams};
use crate::coverage::{PruneBounds, TopKDiversified};
use crate::engine::{drive_task_graph, PoolRef, SearchContext};
use crate::fault::{self, site};
use crate::limits::QueryMonitor;
use crate::preprocess::init_topk_in;
use crate::result::{CoherentCore, DccsResult, SearchStats};
use crate::session::DccsSession;
use coreness::PeelWorkspace;
use mlgraph::{Layer, MultiLayerGraph, VertexSet};
use std::time::Instant;

/// Runs `BU-DCCS` with default options as a one-shot query on a fresh
/// [`DccsSession`]; panics on invalid parameters. Repeated queries and
/// sweeps should keep one session instead.
pub fn bottom_up_dccs(g: &MultiLayerGraph, params: &DccsParams) -> DccsResult {
    DccsSession::new(g)
        .query(*params)
        .algorithm(Algorithm::BottomUp)
        .run()
        .expect("invalid DCCS parameters")
}

/// `BU-DCCS` on a query's context and executor crew: preprocessing and the
/// subtree task graph share `pool`, so neither phase pays its own worker
/// spawn/join.
pub(crate) fn bottom_up_dccs_on(
    ctx: &mut SearchContext,
    pool: &PoolRef<'_>,
    g: &MultiLayerGraph,
    params: &DccsParams,
    opts: &DccsOptions,
) -> DccsResult {
    params.validate(g.num_layers()).expect("invalid DCCS parameters");
    let start = Instant::now();
    let mut stats = SearchStats { algorithm: Some(Algorithm::BottomUp), ..SearchStats::default() };

    let pre = ctx.preprocess_into(pool, g, params, opts, &mut stats);
    stats.phase.preprocess = start.elapsed();

    let mut topk = TopKDiversified::new(g.num_vertices(), params.k);
    if opts.init_topk {
        let (ws, running, seed) = ctx.init_scratch();
        init_topk_in(ws, running, seed, g, params, &pre, &mut topk);
    }

    // Positions in the search tree follow the sorted layer order.
    let order = pre.bottom_up_layer_order(opts);
    let cores_by_pos: Vec<VertexSet> = order.iter().map(|&i| pre.layer_cores[i].clone()).collect();
    let l = g.num_layers();
    let d = params.d;
    let s = params.s;
    let order_pruning = opts.order_pruning;

    // Evaluating one `BU-Gen` node (Fig. 3, lines 2–22 minus the commit):
    // Lemma-3 child selection against the task's spawn-time bound snapshot,
    // then one Lemma-1-seeded peel per surviving child. Runs on any worker;
    // reads nothing but the task payload and the immutable search inputs.
    let monitor = ctx.monitor().cloned();
    let mon = monitor.as_deref();
    let order_ref = &order;
    let cores_ref = &cores_by_pos;
    let eval = move |task: BuTask, ws: &mut PeelWorkspace| -> BuNodeEval {
        fault::fire(mon, site::BU_EVAL);
        let BuTask { positions, core: c_l, excluded, bounds } = task;
        // A tripped limit: skip the peels entirely. The commit sees no
        // children and spawns nothing, so the outstanding subtree drains.
        if mon.is_some_and(|m| m.check().is_some()) {
            return BuNodeEval { positions, excluded, children: Vec::new(), order_pruned: 0 };
        }
        let next_start = positions.last().map(|&p| p + 1).unwrap_or(0);
        let lp: Vec<usize> = (next_start..l).filter(|&j| !excluded[j]).collect();
        // While |R| < k no pruning is possible; once full, order children by
        // |C_L ∩ C^d(G_j)| and cut at the Lemma-3 bound.
        let mut order_pruned = 0usize;
        let eval_positions: Vec<usize> = if !bounds.is_full() {
            lp
        } else {
            let mut ordered: Vec<(usize, usize)> =
                lp.iter().map(|&j| (j, c_l.intersection_len(&cores_ref[j]))).collect();
            ordered.sort_by_key(|&(j, size)| (std::cmp::Reverse(size), j));
            let mut cut = ordered.len();
            if order_pruning {
                if let Some(rank) = ordered.iter().position(|&(_, ub)| bounds.fails_size_bound(ub))
                {
                    // Lemma 3: this child and all following ones are pruned.
                    order_pruned = ordered.len() - rank;
                    cut = rank;
                }
            }
            ordered.truncate(cut);
            ordered.into_iter().map(|(j, _)| j).collect()
        };
        // Peels run under the query's probe so a deadline or cancellation
        // aborts the cascade mid-word-batch; an aborted peel leaves the
        // candidate a *superset* of the true core, which the commit-side
        // limit check keeps out of the result set.
        ws.set_probe(mon.map(QueryMonitor::probe));
        let mut children = Vec::with_capacity(eval_positions.len());
        for &j in &eval_positions {
            let mut candidate = c_l.intersection(&cores_ref[j]);
            if !candidate.is_empty() {
                let mut layers: Vec<Layer> = positions.iter().map(|&p| order_ref[p]).collect();
                layers.push(order_ref[j]);
                ws.peel_in_place(g, &layers, d, &mut candidate);
            }
            children.push((j, candidate));
        }
        ws.set_probe(None);
        BuNodeEval { positions, excluded, children, order_pruned }
    };

    let search_start = Instant::now();
    {
        let root = BuTask {
            positions: Vec::new(),
            core: pre.active.clone(),
            excluded: vec![false; l],
            bounds: topk.bounds(),
        };
        let topk = &mut topk;
        let stats = &mut stats;
        // Committing one node, in pre-order on the driver: leaves update R
        // (Rule 1/2), internal children pass Lemma 2 against the live result
        // set, Lemma-4 exclusions are derived from the kept set, and the
        // survivors are spawned as new tasks under the current bounds.
        drive_task_graph(pool, &mut ctx.ws, vec![root], &eval, |ev: BuNodeEval, _ws, spawn| {
            fault::fire(mon, site::GRAPH_COMMIT);
            // Once a limit trips, commit nothing more: children evaluated
            // after the hit may be probe-aborted supersets, and `topk`
            // already holds the best-so-far partial the caller gets back.
            if mon.is_some_and(|m| m.check().is_some()) {
                return;
            }
            stats.dcc_calls += ev.children.len();
            stats.subtrees_pruned += ev.order_pruned;
            let is_leaf = ev.positions.len() + 1 == s;
            let mut kept: Vec<(usize, VertexSet)> = Vec::new();
            let mut visited: Vec<usize> = Vec::new();
            for (j, core) in ev.children {
                if is_leaf {
                    stats.candidates_generated += 1;
                    if let Some(m) = mon {
                        m.charge_candidates(1);
                    }
                    let mut layers: Vec<Layer> = ev.positions.iter().map(|&p| order[p]).collect();
                    layers.push(order[j]);
                    topk.try_update(CoherentCore::new(layers, core));
                } else if topk.satisfies_eq1(&core) {
                    visited.push(j);
                    kept.push((j, core));
                } else {
                    // Lemma 2: the whole subtree below this child is pruned.
                    visited.push(j);
                    stats.subtrees_pruned += 1;
                }
            }
            if ev.positions.len() + 1 >= s {
                return;
            }
            // Layers that were visited but not kept are excluded from every
            // descendant (Lemma 4).
            let mut child_excluded = ev.excluded;
            if opts.layer_pruning {
                for &j in &visited {
                    if !kept.iter().any(|&(kj, _)| kj == j) {
                        child_excluded[j] = true;
                    }
                }
            }
            for (j, core) in kept {
                let mut positions = ev.positions.clone();
                positions.push(j);
                spawn.push(BuTask {
                    positions,
                    core,
                    excluded: child_excluded.clone(),
                    bounds: topk.bounds(),
                });
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

/// One `BU-Gen` search-tree node, scheduled as a task on the executor's
/// task graph. Everything evaluation needs travels in the payload — most
/// importantly the [`PruneBounds`] snapshot captured when the task was
/// spawned, which keeps the Lemma-3 selection scheduling-independent.
struct BuTask {
    /// Tree positions of the node's layer subset `L` (ascending).
    positions: Vec<usize>,
    /// The node's d-CC `C_L`, peeled by the parent's task.
    core: VertexSet,
    /// Lemma-4 layer exclusions inherited from the ancestors.
    excluded: Vec<bool>,
    /// Result-set bounds at spawn time (the parent's commit).
    bounds: PruneBounds,
}

/// The outcome of evaluating one [`BuTask`], committed on the driver in
/// pre-order.
struct BuNodeEval {
    positions: Vec<usize>,
    excluded: Vec<bool>,
    /// Evaluated children in Lemma-3 order: `(position, peeled core)`.
    children: Vec<(usize, VertexSet)>,
    /// Children cut by the Lemma-3 bound (never peeled).
    order_pruned: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_dccs;
    use mlgraph::MultiLayerGraphBuilder;

    fn bottom_up_with(g: &MultiLayerGraph, params: &DccsParams, opts: &DccsOptions) -> DccsResult {
        let mut session = DccsSession::with_options(g, *opts);
        session.query(*params).algorithm(Algorithm::BottomUp).run().unwrap()
    }

    fn clique(b: &mut MultiLayerGraphBuilder, layer: usize, vs: &[u32]) {
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                b.add_edge(layer, vs[i], vs[j]).unwrap();
            }
        }
    }

    /// Four layers over 12 vertices with two planted coherent cliques and a
    /// single-layer clique that must not count for s = 2.
    fn graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(12, 4);
        clique(&mut b, 0, &[0, 1, 2, 3]);
        clique(&mut b, 1, &[0, 1, 2, 3]);
        clique(&mut b, 2, &[4, 5, 6, 7]);
        clique(&mut b, 3, &[4, 5, 6, 7]);
        clique(&mut b, 1, &[8, 9, 10, 11]); // only on one layer
        b.build()
    }

    #[test]
    fn finds_both_planted_cores() {
        let g = graph();
        let result = bottom_up_dccs(&g, &DccsParams::new(3, 2, 2));
        assert_eq!(result.num_cores(), 2);
        assert_eq!(result.cover.to_vec(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn matches_greedy_cover_on_small_graphs() {
        let g = graph();
        for (d, s, k) in [(2, 1, 2), (2, 2, 2), (3, 2, 1), (3, 2, 3), (2, 3, 2)] {
            let params = DccsParams::new(d, s, k);
            let bu = bottom_up_dccs(&g, &params);
            let gd = greedy_dccs(&g, &params);
            // Both are approximations; on these tiny inputs they find the
            // same cover size.
            assert_eq!(bu.cover_size(), gd.cover_size(), "d={d} s={s} k={k}");
        }
    }

    #[test]
    fn multithreaded_run_is_identical_to_sequential() {
        let g = graph();
        for (d, s, k) in [(2, 2, 2), (3, 2, 1), (2, 3, 2), (2, 4, 2)] {
            let params = DccsParams::new(d, s, k);
            let seq = bottom_up_dccs(&g, &params);
            for threads in [2, 4] {
                let par = bottom_up_with(&g, &params, &DccsOptions::with_threads(threads));
                assert_eq!(par.cores, seq.cores, "threads={threads} d={d} s={s} k={k}");
                assert_eq!(par.stats, seq.stats, "threads={threads} d={d} s={s} k={k}");
            }
        }
    }

    #[test]
    fn reported_cores_are_d_dense_with_s_layers() {
        let g = graph();
        let params = DccsParams::new(2, 2, 3);
        let result = bottom_up_dccs(&g, &params);
        for core in &result.cores {
            assert_eq!(core.layers.len(), params.s);
            assert!(coreness::is_d_dense_multilayer(&g, &core.layers, &core.vertices, params.d));
        }
    }

    #[test]
    fn pruning_reduces_work_without_changing_the_answer() {
        let g = graph();
        let params = DccsParams::new(2, 2, 1);
        let pruned = bottom_up_dccs(&g, &params);
        let opts = DccsOptions {
            order_pruning: false,
            layer_pruning: false,
            init_topk: false,
            ..DccsOptions::default()
        };
        let unpruned = bottom_up_with(&g, &params, &opts);
        assert_eq!(pruned.cover_size(), unpruned.cover_size());
        assert!(pruned.stats.dcc_calls <= unpruned.stats.dcc_calls);
    }

    #[test]
    fn ablation_options_do_not_change_cover_size() {
        let g = graph();
        let params = DccsParams::new(2, 2, 2);
        let reference = bottom_up_dccs(&g, &params).cover_size();
        for opts in [
            DccsOptions::no_vertex_deletion(),
            DccsOptions::no_sort_layers(),
            DccsOptions::no_init_topk(),
            DccsOptions::no_preprocessing(),
        ] {
            let r = bottom_up_with(&g, &params, &opts);
            assert_eq!(r.cover_size(), reference);
        }
    }

    #[test]
    fn large_s_equal_to_layer_count() {
        let mut b = MultiLayerGraphBuilder::new(5, 3);
        for layer in 0..3 {
            clique(&mut b, layer, &[0, 1, 2, 3]);
        }
        let g = b.build();
        let result = bottom_up_dccs(&g, &DccsParams::new(2, 3, 1));
        assert_eq!(result.cover.to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(result.cores[0].layers, vec![0, 1, 2]);
    }

    #[test]
    fn empty_result_when_no_core_exists() {
        let mut b = MultiLayerGraphBuilder::new(6, 2);
        // Only a path on each layer: no 2-core anywhere.
        for layer in 0..2 {
            for v in 0..5u32 {
                b.add_edge(layer, v, v + 1).unwrap();
            }
        }
        let g = b.build();
        let result = bottom_up_dccs(&g, &DccsParams::new(2, 2, 2));
        assert_eq!(result.cover_size(), 0);
    }

    #[test]
    fn stats_are_populated() {
        let g = graph();
        let result = bottom_up_dccs(&g, &DccsParams::new(3, 2, 2));
        // With InitTopK finding the optimal cover up front, the whole search
        // tree may be pruned — work shows up either as dCC calls or prunes.
        assert!(result.stats.dcc_calls + result.stats.subtrees_pruned > 0);
        assert!(result.stats.updates_accepted >= result.num_cores());
        assert!(result.stats.vertices_deleted > 0); // the single-layer clique
    }
}
