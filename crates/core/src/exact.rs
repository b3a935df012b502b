//! Brute-force exact DCCS solver.
//!
//! The paper's Section III notes that the exact algorithm — enumerate every
//! candidate d-CC and every `k`-combination of them — is intractable for real
//! inputs; it exists here purely as a test oracle for the approximation
//! algorithms on tiny graphs, and to validate approximation-ratio claims
//! empirically (GD-DCCS ≥ (1 − 1/e)·OPT, BU/TD-DCCS ≥ OPT/4).

use crate::algorithm::Algorithm;
use crate::config::{DccsOptions, DccsParams};
use crate::engine::{PoolRef, SearchContext};
use crate::error::DccsError;
use crate::lattice::collect_subset_cores;
use crate::limits::QueryMonitor;
use crate::result::{CoherentCore, DccsResult, SearchStats};
use crate::session::DccsSession;
use mlgraph::{MultiLayerGraph, VertexSet};
use std::time::Instant;

/// Maximum number of candidate d-CCs the exact solver will accept before
/// giving up (the k-combination enumeration is exponential).
const MAX_CANDIDATES: usize = 24;

/// Solves the DCCS problem exactly by exhaustive enumeration, as a one-shot
/// query on a fresh [`DccsSession`].
///
/// # Panics
///
/// Panics on invalid parameters and when the candidate set `F_{d,s}(G)`
/// holds more than 24 non-empty d-CCs — the oracle is only meant for tiny
/// test graphs. The session API ([`DccsSession`] with
/// [`Algorithm::Exact`]) reports both conditions as typed [`DccsError`]s
/// instead.
pub fn exact_dccs(g: &MultiLayerGraph, params: &DccsParams) -> DccsResult {
    match DccsSession::new(g).query(*params).algorithm(Algorithm::Exact).run() {
        Ok(result) => result,
        Err(DccsError::BudgetExceeded { candidates, limit }) => panic!(
            "exact_dccs is a test oracle; {candidates} candidates exceed the limit of {limit}"
        ),
        Err(err) => panic!("invalid DCCS parameters: {err}"),
    }
}

/// The exact solver on a query's context and executor crew, returning typed
/// errors instead of panicking: invalid parameters and a blown candidate
/// budget ([`DccsError::BudgetExceeded`]) come back as `Err`. Only the
/// preprocessing toggles of `opts` influence the work done; the result is
/// the exact optimum regardless.
pub(crate) fn exact_dccs_on(
    ctx: &mut SearchContext,
    pool: &PoolRef<'_>,
    g: &MultiLayerGraph,
    params: &DccsParams,
    opts: &DccsOptions,
) -> Result<DccsResult, DccsError> {
    params.validate(g.num_layers())?;
    let start = Instant::now();
    let mut stats = SearchStats { algorithm: Some(Algorithm::Exact), ..SearchStats::default() };
    let pre = ctx.preprocess_into(pool, g, params, opts, &mut stats);
    stats.phase.preprocess = start.elapsed();

    let search_start = Instant::now();
    let (mut candidates, lattice) =
        collect_subset_cores(ctx, pool, g, params.d, params.s, &pre.layer_cores);
    stats.candidates_generated += lattice.candidates;
    stats.dcc_calls += lattice.peels;
    stats.index_path = Some(lattice.index_path);
    stats.index_bytes = lattice.index_bytes;
    stats.peel_scratch_bytes = ctx.ws.scratch_bytes();
    stats.phase.search = search_start.elapsed();
    candidates.retain(|c| !c.is_empty());

    // The solver's built-in gate, tightened by the query's candidate budget
    // when one is set: the k-combination enumeration is exponential in the
    // candidate count, so the smaller bound wins.
    let monitor = ctx.monitor().cloned();
    let mon = monitor.as_deref();
    let limit = mon
        .and_then(QueryMonitor::candidate_budget)
        .map_or(MAX_CANDIDATES, |b| b.min(MAX_CANDIDATES));
    if candidates.len() > limit {
        return Err(DccsError::BudgetExceeded { candidates: candidates.len(), limit });
    }

    let select_start = Instant::now();
    let k = params.k.min(candidates.len());
    let mut best_cover = 0usize;
    let mut best: Vec<usize> = Vec::new();
    let mut chosen: Vec<usize> = Vec::new();
    // A deadline or cancellation that tripped during candidate generation
    // (or trips mid-enumeration — checked every 256 leaves) stops the
    // combination search; `best` keeps the best combination seen so far.
    let mut ctl = SearchCtl { monitor: mon, leaves: 0, hit: false };
    ctl.hit = mon.is_some_and(|m| m.check().is_some());
    if !ctl.hit {
        search(
            &candidates,
            k,
            0,
            &mut chosen,
            &mut best,
            &mut best_cover,
            g.num_vertices(),
            &mut ctl,
        );
    }
    stats.phase.select = select_start.elapsed();
    if let Some(kind) = mon.and_then(QueryMonitor::hit) {
        stats.limit_hit = Some(kind);
        stats.complete = false;
    }

    let cores: Vec<CoherentCore> = best.iter().map(|&i| candidates[i].clone()).collect();
    Ok(DccsResult::from_cores(g.num_vertices(), cores, stats, start.elapsed()))
}

/// Cooperative-cancellation state threaded through the recursive
/// enumeration: the query monitor (when limits are in force), a leaf
/// counter driving the every-256-leaves deadline check, and the latched
/// abort flag.
struct SearchCtl<'a> {
    monitor: Option<&'a QueryMonitor>,
    leaves: usize,
    hit: bool,
}

#[allow(clippy::too_many_arguments)]
fn search(
    candidates: &[CoherentCore],
    k: usize,
    from: usize,
    chosen: &mut Vec<usize>,
    best: &mut Vec<usize>,
    best_cover: &mut usize,
    n: usize,
    ctl: &mut SearchCtl<'_>,
) {
    if ctl.hit {
        return;
    }
    if chosen.len() == k {
        ctl.leaves += 1;
        if ctl.leaves.is_multiple_of(256) && ctl.monitor.is_some_and(|m| m.check().is_some()) {
            ctl.hit = true;
            return;
        }
        let mut cover = VertexSet::new(n);
        for &i in chosen.iter() {
            cover.union_with(&candidates[i].vertices);
        }
        if cover.len() > *best_cover {
            *best_cover = cover.len();
            *best = chosen.clone();
        }
        return;
    }
    let remaining_needed = k - chosen.len();
    if candidates.len() - from < remaining_needed {
        return;
    }
    for i in from..candidates.len() {
        chosen.push(i);
        search(candidates, k, i + 1, chosen, best, best_cover, n, ctl);
        chosen.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom_up::bottom_up_dccs;
    use crate::greedy::greedy_dccs;
    use crate::top_down::top_down_dccs;
    use mlgraph::MultiLayerGraphBuilder;

    fn clique(b: &mut MultiLayerGraphBuilder, layer: usize, vs: &[u32]) {
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                b.add_edge(layer, vs[i], vs[j]).unwrap();
            }
        }
    }

    /// Three overlapping planted cliques over 3 layers.
    fn graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(12, 3);
        clique(&mut b, 0, &[0, 1, 2, 3]);
        clique(&mut b, 1, &[0, 1, 2, 3]);
        clique(&mut b, 1, &[4, 5, 6]);
        clique(&mut b, 2, &[4, 5, 6]);
        clique(&mut b, 0, &[7, 8, 9, 10]);
        clique(&mut b, 2, &[7, 8, 9, 10]);
        b.build()
    }

    #[test]
    fn exact_maximizes_cover() {
        let g = graph();
        let params = DccsParams::new(2, 2, 2);
        let exact = exact_dccs(&g, &params);
        // The best two candidates are the two 4-cliques: cover 8.
        assert_eq!(exact.cover_size(), 8);
    }

    #[test]
    fn exact_with_k_one() {
        let g = graph();
        let exact = exact_dccs(&g, &DccsParams::new(2, 2, 1));
        assert_eq!(exact.cover_size(), 4);
    }

    #[test]
    fn approximation_ratios_hold_empirically() {
        let g = graph();
        for (d, s, k) in [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 1, 2)] {
            let params = DccsParams::new(d, s, k);
            let opt = exact_dccs(&g, &params).cover_size();
            let gd = greedy_dccs(&g, &params).cover_size();
            let bu = bottom_up_dccs(&g, &params).cover_size();
            let td = top_down_dccs(&g, &params).cover_size();
            // Theorem 2: GD ≥ (1 − 1/e)·OPT. Theorems 3–4: BU, TD ≥ OPT/4.
            assert!(gd as f64 >= 0.632 * opt as f64 - 1e-9, "gd {gd} vs opt {opt} ({d},{s},{k})");
            assert!(4 * bu >= opt, "bu {bu} vs opt {opt} ({d},{s},{k})");
            assert!(4 * td >= opt, "td {td} vs opt {opt} ({d},{s},{k})");
        }
    }

    #[test]
    fn exact_handles_fewer_candidates_than_k() {
        let g = graph();
        let exact = exact_dccs(&g, &DccsParams::new(2, 3, 5));
        // No 2-CC spans all three layers.
        assert_eq!(exact.cover_size(), 0);
    }
}
