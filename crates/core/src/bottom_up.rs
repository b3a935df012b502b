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
//! The driver walks the search tree depth-first, in pre-order, over an
//! explicit stack. Each node's surviving children are peeled as one
//! fork-join batch on the shared executor ([`crate::engine`]): the jobs run
//! on any worker, their cores come back in child order, and the driver then
//! commits them. The Lemma-3 child selection reads a
//! [`crate::coverage::PruneBounds`] snapshot taken at the parent's commit;
//! the Lemma-2 subtree check, the Lemma-4 exclusions, and every `Update`
//! run at commit time against the live result set. The snapshot can be
//! staler than the live bound — a node pushed at its parent's commit misses
//! every update accepted in its earlier siblings' subtrees, so its Lemma-3
//! cut may let extra children through — but each extra candidate is still
//! gated by Eq. (1) inside `Update`, so the 1/4 guarantee is untouched.
//! Every decision is made on the driver in one order, so the search is
//! bit-identical at any thread count.
//!
//! Every child peel runs on the [`crate::engine::PeelIndex`] the cost model
//! plans over the preprocessed active set, as GD's lattice walk does: over
//! word-level dense rows (degrees counted as `popcount(row ∧ alive)`) or
//! over the CSR adjacency, with identical results. Node and layer cores
//! live in the index's space and are expanded to vertex space only where
//! the result set reads them: the Eq. (1) check and `Update`.

use crate::algorithm::Algorithm;
use crate::config::{DccsOptions, DccsParams};
use crate::coverage::{PruneBounds, TopKDiversified};
use crate::engine::{PoolRef, SearchContext};
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
/// search tree's batches share `pool`, so neither phase pays its own worker
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

    // Preprocessing covers vertex deletion, `InitTopK` and layer sorting.
    let pre = ctx.preprocess_into(pool, g, params, opts, &mut stats);
    let mut topk = TopKDiversified::new(g.num_vertices(), params.k);
    if opts.init_topk {
        let (ws, running, seed) = ctx.init_scratch();
        init_topk_in(ws, running, seed, g, params, &pre, &mut topk);
    }
    // Positions in the search tree follow the sorted layer order.
    let order = pre.bottom_up_layer_order(opts);
    stats.phase.preprocess = start.elapsed();

    let search_start = Instant::now();
    let l = g.num_layers();
    let d = params.d;
    let s = params.s;
    let monitor = ctx.monitor().cloned();
    let mon = monitor.as_deref();
    let tripped = || mon.is_some_and(|m| m.check().is_some());

    // The tree peels in index space over the active set; the plan and any
    // dense build are search time, as in GD. Cores are expanded back to
    // vertex space only where the result set reads them.
    let (index, driver_ws) = ctx.peel_index(g, &pre.active);
    let cores_ix = index.compress_layer_cores(&pre.layer_cores);
    let layer_cores: &[VertexSet] = cores_ix.as_deref().unwrap_or(&pre.layer_cores);
    let cores_by_pos: Vec<&VertexSet> = order.iter().map(|&i| &layer_cores[i]).collect();

    // `BU-Gen` (Fig. 3), depth-first in pre-order: the top of the stack is
    // the next node to expand.
    let mut stack = vec![BuNode {
        positions: Vec::new(),
        core: index.compress(&pre.active),
        excluded: vec![false; l],
        bounds: topk.bounds(),
    }];
    let mut expanded = VertexSet::new(g.num_vertices());
    while let Some(node) = stack.pop() {
        // Once a limit trips, expand and commit nothing more: `topk`
        // already holds the best-so-far partial the caller gets back.
        if tripped() {
            break;
        }
        let BuNode { positions, core: c_l, excluded, bounds } = node;
        let next_start = positions.last().map_or(0, |&p| p + 1);
        let lp: Vec<usize> = (next_start..l).filter(|&j| !excluded[j]).collect();
        // While |R| < k no pruning is possible; once full, order children by
        // |C_L ∩ C^d(G_j)| and cut at the Lemma-3 bound.
        let mut order_pruned = 0usize;
        let selected: Vec<usize> = if !bounds.is_full() {
            lp
        } else {
            let mut ordered: Vec<(usize, usize)> =
                lp.iter().map(|&j| (j, c_l.intersection_len(cores_by_pos[j]))).collect();
            ordered.sort_by_key(|&(j, size)| (std::cmp::Reverse(size), j));
            let mut cut = ordered.len();
            if opts.order_pruning {
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
        // One batch: the Lemma-1-seeded peel of every selected child, on any
        // worker. Peels run under the query's probe so a deadline or
        // cancellation aborts the cascade mid-word-batch; an aborted peel
        // leaves the candidate a *superset* of the true core, which the
        // limit check after the batch keeps out of the result set.
        let c_l = &c_l;
        let jobs: Vec<_> = selected
            .iter()
            .map(|&j| {
                let layer_core = cores_by_pos[j];
                let mut layers: Vec<Layer> = positions.iter().map(|&p| order[p]).collect();
                layers.push(order[j]);
                move |ws: &mut PeelWorkspace| {
                    fault::fire(mon, site::BU_EVAL);
                    let mut candidate = c_l.intersection(layer_core);
                    if !candidate.is_empty() && !tripped() {
                        ws.set_probe(mon.map(QueryMonitor::probe));
                        index.peel(ws, &layers, d, &mut candidate);
                        ws.set_probe(None);
                    }
                    (layers, candidate)
                }
            })
            .collect();
        let children = pool.map(driver_ws, jobs);

        // The commit: leaves update R (Rule 1/2), internal children pass
        // Lemma 2 against the live result set, and the survivors are pushed
        // under the bounds as they stand now.
        fault::fire(mon, site::GRAPH_COMMIT);
        if tripped() {
            break;
        }
        stats.dcc_calls += children.len();
        stats.subtrees_pruned += order_pruned;
        let is_leaf = positions.len() + 1 == s;
        let mut child_excluded = excluded;
        let mut kept: Vec<(usize, VertexSet)> = Vec::new();
        for (&j, (layers, core)) in selected.iter().zip(children) {
            if is_leaf {
                stats.candidates_generated += 1;
                if let Some(m) = mon {
                    m.charge_candidates(1);
                }
                topk.try_update(CoherentCore::new(layers, index.emit_owned(core)));
            } else if topk.satisfies_eq1(index.emit(&core, &mut expanded)) {
                kept.push((j, core));
            } else {
                // Lemma 2: the whole subtree below this child is pruned, and
                // Lemma 4 excludes its layer from every descendant.
                stats.subtrees_pruned += 1;
                if opts.layer_pruning {
                    child_excluded[j] = true;
                }
            }
        }
        let bounds = topk.bounds();
        let first = stack.len();
        for (j, core) in kept {
            let mut child_positions = positions.clone();
            child_positions.push(j);
            stack.push(BuNode {
                positions: child_positions,
                core,
                excluded: child_excluded.clone(),
                bounds,
            });
        }
        // The first kept child is expanded next.
        stack[first..].reverse();
    }

    stats.index_path = Some(index.path());
    stats.index_bytes = index.index_bytes();
    stats.phase.search = search_start.elapsed();
    if let Some(kind) = mon.and_then(QueryMonitor::hit) {
        stats.limit_hit = Some(kind);
        stats.complete = false;
    }
    stats.updates_accepted = topk.accepted_updates();
    DccsResult::from_topk(g.num_vertices(), topk, stats, start.elapsed())
}

/// One `BU-Gen` search-tree node waiting on the stack to be expanded.
struct BuNode {
    /// Tree positions of the node's layer subset `L` (ascending).
    positions: Vec<usize>,
    /// The node's d-CC `C_L` in index space, peeled in its parent's batch.
    core: VertexSet,
    /// Lemma-4 layer exclusions inherited from the ancestors.
    excluded: Vec<bool>,
    /// Result-set bounds at the parent's commit, which the node's Lemma-3
    /// cut reads.
    bounds: PruneBounds,
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
