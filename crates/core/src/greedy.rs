//! `GD-DCCS` — the greedy algorithm of Section III (Fig. 2).
//!
//! Every candidate d-CC (one per layer subset of size `s`) is generated, and
//! `k` of them are then selected greedily by marginal cover gain. The
//! selection phase is the classic greedy max-k-cover algorithm, so the
//! approximation ratio is `1 − 1/e` (Theorem 2). The candidate-generation
//! phase exploits Lemma 1: `C_L^d(G) ⊆ ⋂_{i∈L} C^d(G_i)`, so each candidate
//! is computed inside the intersection of per-layer d-cores.
//!
//! Candidates are produced by the subset-lattice engine
//! ([`crate::lattice`]) driven through the query's pooled context: each
//! subset's peel is seeded from its parent prefix's exact d-CC (Lemma 1),
//! the dense-vs-CSR representation is chosen by the [`crate::engine`] cost
//! model, and with `threads > 1` the lattice's depth-1 branches fan out
//! over the shared executor — with results (and work counters) identical
//! to the sequential walk.

use crate::algorithm::Algorithm;
use crate::config::{DccsOptions, DccsParams};
use crate::engine::{PoolRef, SearchContext};
use crate::fault::{self, site};
use crate::lattice::collect_subset_cores;
use crate::result::{CoherentCore, DccsResult, SearchStats};
use crate::session::DccsSession;
use mlgraph::{MultiLayerGraph, VertexSet};
use std::time::Instant;

/// Runs `GD-DCCS` with default options as a one-shot query on a fresh
/// [`DccsSession`]; panics on invalid parameters. Repeated queries and
/// sweeps should keep one session instead.
pub fn greedy_dccs(g: &MultiLayerGraph, params: &DccsParams) -> DccsResult {
    DccsSession::new(g)
        .query(*params)
        .algorithm(Algorithm::Greedy)
        .run()
        .expect("invalid DCCS parameters")
}

/// `GD-DCCS` on a query's context and executor crew: preprocessing and
/// candidate generation share `pool`, so neither phase pays its own worker
/// spawn/join.
pub(crate) fn greedy_dccs_on(
    ctx: &mut SearchContext,
    pool: &PoolRef<'_>,
    g: &MultiLayerGraph,
    params: &DccsParams,
    opts: &DccsOptions,
) -> DccsResult {
    params.validate(g.num_layers()).expect("invalid DCCS parameters");
    let start = Instant::now();
    let mut stats = SearchStats { algorithm: Some(Algorithm::Greedy), ..SearchStats::default() };

    let pre = ctx.preprocess_into(pool, g, params, opts, &mut stats);
    stats.phase.preprocess = start.elapsed();

    // Lines 2–7 of Fig. 2: the full candidate set F_{d,s}(G).
    let search_start = Instant::now();
    let (candidates, lattice) =
        collect_subset_cores(ctx, pool, g, params.d, params.s, &pre.layer_cores);
    stats.candidates_generated += lattice.candidates;
    stats.dcc_calls += lattice.peels;
    stats.index_path = Some(lattice.index_path);
    stats.index_bytes = lattice.index_bytes;
    stats.peel_scratch_bytes = ctx.ws.scratch_bytes();
    stats.phase.search = search_start.elapsed();

    // A tripped limit stopped the walk early; everything already emitted is
    // a valid d-CC, so select over it and return the flagged partial — the
    // dispatch layer converts the flag into the matching typed error. This final
    // poll must be `check`, not the latched-byte read: a deadline that
    // latches only in the cascade probe after the walk's last checkpoint
    // (e.g. on the checkpoint-free `s == 1` path) would otherwise go
    // unobserved and the run would be declared complete.
    if let Some(kind) = ctx.monitor().and_then(|m| m.check()) {
        stats.limit_hit = Some(kind);
        stats.complete = false;
    }

    fault::fire(ctx.monitor().map(|m| m.as_ref()), site::SELECT);
    let select_start = Instant::now();
    let cores = select_greedy(g.num_vertices(), candidates, params.k, &mut stats, &mut ctx.cover);
    stats.phase.select = select_start.elapsed();
    DccsResult::from_cores(g.num_vertices(), cores, stats, start.elapsed())
}

/// The greedy max-k-cover selection (lines 8–10 of Fig. 2). `cover` is a
/// reusable accumulator for `Cov(R)` (resized on capacity mismatch), so a
/// context-driven sweep allocates it once.
pub(crate) fn select_greedy(
    num_vertices: usize,
    mut candidates: Vec<CoherentCore>,
    k: usize,
    stats: &mut SearchStats,
    cover: &mut VertexSet,
) -> Vec<CoherentCore> {
    if cover.capacity() != num_vertices {
        *cover = VertexSet::new(num_vertices);
    } else {
        cover.clear();
    }
    let mut chosen = Vec::with_capacity(k);
    for _ in 0..k {
        if candidates.is_empty() {
            break;
        }
        let (best_idx, best_gain) = candidates
            .iter()
            .enumerate()
            .map(|(idx, core)| {
                // Word-level marginal gain: |C| − |C ∩ Cov(R)|.
                let gain = core.vertices.len() - core.vertices.intersection_len(cover);
                (idx, gain)
            })
            .max_by_key(|&(idx, gain)| (gain, std::cmp::Reverse(idx)))
            .expect("non-empty candidate list");
        // The paper keeps selecting k cores even when the marginal gain is 0;
        // we do the same so |R| = k whenever enough candidates exist.
        let core = candidates.swap_remove(best_idx);
        cover.union_with(&core.vertices);
        chosen.push(core);
        stats.updates_accepted += 1;
        let _ = best_gain;
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::with_pool;
    use mlgraph::MultiLayerGraphBuilder;

    /// Three layers over 10 vertices:
    /// * layers 0 and 1 share a 4-clique A = {0,1,2,3};
    /// * layers 1 and 2 share a 4-clique B = {4,5,6,7};
    /// * layer 2 additionally has a triangle C = {7,8,9}.
    fn graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(10, 3);
        let clique = |b: &mut MultiLayerGraphBuilder, layer: usize, vs: &[u32]| {
            for i in 0..vs.len() {
                for j in (i + 1)..vs.len() {
                    b.add_edge(layer, vs[i], vs[j]).unwrap();
                }
            }
        };
        clique(&mut b, 0, &[0, 1, 2, 3]);
        clique(&mut b, 1, &[0, 1, 2, 3]);
        clique(&mut b, 1, &[4, 5, 6, 7]);
        clique(&mut b, 2, &[4, 5, 6, 7]);
        clique(&mut b, 2, &[7, 8, 9]);
        b.build()
    }

    #[test]
    fn finds_the_two_planted_cliques() {
        let g = graph();
        let result = greedy_dccs(&g, &DccsParams::new(3, 2, 2));
        assert_eq!(result.num_cores(), 2);
        assert_eq!(result.cover_size(), 8);
        let cover = result.cover.to_vec();
        assert_eq!(cover, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn candidate_count_matches_binomial() {
        let g = graph();
        let result = greedy_dccs(&g, &DccsParams::new(2, 2, 2));
        assert_eq!(result.stats.candidates_generated, 3); // C(3,2)
        let result = greedy_dccs(&g, &DccsParams::new(2, 1, 2));
        assert_eq!(result.stats.candidates_generated, 3); // C(3,1)
    }

    #[test]
    fn k_larger_than_candidates_returns_all() {
        let g = graph();
        let result = greedy_dccs(&g, &DccsParams::new(3, 2, 10));
        // Only C(3,2) = 3 candidates exist.
        assert!(result.num_cores() <= 3);
        assert_eq!(result.cover_size(), 8);
    }

    #[test]
    fn s_equals_one_reduces_to_per_layer_cores() {
        let g = graph();
        let result = greedy_dccs(&g, &DccsParams::new(3, 1, 3));
        // Layer 2's 3-core is {4,5,6,7} (the triangle {7,8,9} is only 2-dense).
        assert_eq!(result.cover_size(), 8);
    }

    #[test]
    fn d_larger_than_any_core_gives_empty_cover() {
        let g = graph();
        let result = greedy_dccs(&g, &DccsParams::new(5, 2, 2));
        assert_eq!(result.cover_size(), 0);
    }

    #[test]
    fn every_reported_core_is_d_dense() {
        let g = graph();
        let params = DccsParams::new(2, 2, 3);
        let result = greedy_dccs(&g, &params);
        for core in &result.cores {
            assert!(coreness::is_d_dense_multilayer(&g, &core.layers, &core.vertices, params.d));
            assert_eq!(core.layers.len(), params.s);
        }
    }

    fn greedy_with(g: &MultiLayerGraph, params: DccsParams, opts: DccsOptions) -> DccsResult {
        let mut session = DccsSession::with_options(g, opts);
        session.query(params).algorithm(Algorithm::Greedy).run().unwrap()
    }

    #[test]
    fn options_do_not_change_the_result_only_the_work() {
        let g = graph();
        let params = DccsParams::new(2, 2, 2);
        let with = greedy_with(&g, params, DccsOptions::default());
        let without = greedy_with(&g, params, DccsOptions::no_preprocessing());
        assert_eq!(with.cover_size(), without.cover_size());
    }

    #[test]
    fn context_reuse_across_a_sweep_matches_fresh_contexts() {
        let g = graph();
        let opts = DccsOptions::default();
        let mut ctx = SearchContext::default();
        for (d, s, k) in [(2, 2, 2), (3, 2, 2), (2, 3, 1), (2, 2, 3)] {
            let params = DccsParams::new(d, s, k);
            let swept = with_pool(1, |pool| greedy_dccs_on(&mut ctx, pool, &g, &params, &opts));
            let fresh = greedy_with(&g, params, opts);
            assert_eq!(swept.cores, fresh.cores, "d={d} s={s} k={k}");
            assert_eq!(swept.stats, fresh.stats, "d={d} s={s} k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid DCCS parameters")]
    fn invalid_parameters_panic() {
        let g = graph();
        let _ = greedy_dccs(&g, &DccsParams::new(2, 9, 2));
    }

    /// A deadline that latches only in the cascade probe — never observed
    /// by a checkpoint — must still flag the run incomplete. `s == 1` with
    /// vertex deletion off runs no cooperative checkpoint at all (memoized
    /// cores, no walk, no fixpoint rounds), so the final poll in
    /// `greedy_dccs_on` is the sole observer; reading the latched byte
    /// instead of `check()` would declare the run complete.
    #[test]
    fn probe_only_trip_flags_the_partial() {
        use crate::limits::{LimitKind, QueryLimits, QueryMonitor};
        use std::sync::Arc;

        let g = graph();
        let opts = DccsOptions::no_vertex_deletion();
        let mut ctx = SearchContext::default();
        let monitor = Arc::new(QueryMonitor::new(&QueryLimits::none(), None, None));
        monitor.probe().cancel(); // the clock latch, without the clock
        ctx.set_monitor(Some(Arc::clone(&monitor)));
        let params = DccsParams::new(3, 1, 3);
        let result = with_pool(1, |pool| greedy_dccs_on(&mut ctx, pool, &g, &params, &opts));
        assert!(!result.stats.complete);
        assert_eq!(result.stats.limit_hit, Some(LimitKind::Deadline));
        // The memoized per-layer cores emitted before the trip are valid:
        // the flagged partial still carries them.
        assert_eq!(result.stats.candidates_generated, 3);
    }
}
