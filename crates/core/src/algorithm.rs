//! Algorithm selection: the [`Algorithm`] enum and the `Auto` policy.
//!
//! The paper evaluates three approximation algorithms and recommends them by
//! regime: `GD-DCCS` when every candidate must be enumerated anyway,
//! `BU-DCCS` for small support thresholds, `TD-DCCS` when `s ≥ l/2`
//! (Section V). [`Algorithm::Auto`] encodes that guidance — plus the
//! [`crate::engine::plan_index`] cost model's dense-vs-CSR rule as a cheap
//! density probe — so callers of the session API ([`crate::DccsSession`])
//! don't have to be experts to get the right search strategy per query.
//! The resolved choice is recorded in [`crate::SearchStats::algorithm`].

use crate::config::DccsParams;
use crate::engine::auto_prefers_dense;
use crate::layer_subsets::binomial;
use mlgraph::MultiLayerGraph;

/// Candidate-count ceiling under which a dense-indexed graph favors the
/// greedy lattice walk over the search trees: with few subsets to peel and
/// word-level rows, full enumeration is cheaper than maintaining top-k
/// bounds. Calibrated on the tiny analogues (`l ≤ 10`, so `C(l, 3) ≤ 120`).
const DENSE_GREEDY_CANDIDATE_CAP: u128 = 64;

/// Candidate-count ceiling, as a multiple of the layer count, under which a
/// **large-support** query (`s ≥ l/2`) runs the greedy lattice walk instead
/// of `TD-DCCS`. Near the top of the lattice (`s` close to `l`) there are
/// only `C(l, l−s)` candidates — `l` of them at `s = l − 1` — and the
/// lattice enumerates them with Lemma-1 prefix-seeded peels, while the
/// top-down tree still pays `RefineU` over near-full layer sets at every
/// node. The `bench_dcc` `auto_selection` group measured the old TD pick at
/// ~0.45 efficiency on the tiny Wiki analogue at `s = l − 1`; capping at
/// `2·l` candidates flips exactly those degenerate-tree cases to GD while
/// leaving mid-range `s` (e.g. `C(6, 4) = 15 > 12`) with the paper's TD
/// recommendation.
const LARGE_S_GREEDY_CANDIDATE_FACTOR: u128 = 2;

/// Which DCCS algorithm a query runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// `GD-DCCS` (Fig. 2): enumerate every candidate, greedy max-k-cover.
    Greedy,
    /// `BU-DCCS` (Fig. 7): bottom-up search tree, recommended for small `s`.
    BottomUp,
    /// `TD-DCCS` (Fig. 11): top-down search tree, recommended for `s ≥ l/2`.
    TopDown,
    /// Brute-force exact solver — a test oracle for tiny inputs only; fails
    /// with [`crate::DccsError::BudgetExceeded`] beyond its candidate budget.
    Exact,
    /// Pick between the approximation algorithms per query from the
    /// `(s, l, k)` regime heuristics and the dense-vs-CSR cost model (see
    /// [`Algorithm::resolve`]). Never resolves to [`Algorithm::Exact`].
    Auto,
}

impl Algorithm {
    /// The paper's name for the algorithm (`AUTO` for the meta-selector).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Greedy => "GD-DCCS",
            Algorithm::BottomUp => "BU-DCCS",
            Algorithm::TopDown => "TD-DCCS",
            Algorithm::Exact => "EXACT",
            Algorithm::Auto => "AUTO",
        }
    }

    /// Parses an algorithm name (several aliases accepted, case-insensitive):
    /// `gd`/`greedy`, `bu`/`bottom-up`, `td`/`top-down`, `exact`, `auto`.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "gd" | "greedy" | "gd-dccs" => Some(Algorithm::Greedy),
            "bu" | "bottom-up" | "bottomup" | "bu-dccs" => Some(Algorithm::BottomUp),
            "td" | "top-down" | "topdown" | "td-dccs" => Some(Algorithm::TopDown),
            "exact" | "brute-force" | "oracle" => Some(Algorithm::Exact),
            "auto" => Some(Algorithm::Auto),
            _ => None,
        }
    }

    /// Resolves `Auto` to a concrete approximation algorithm for `(g,
    /// params)`; any other variant resolves to itself.
    ///
    /// The policy, in order:
    ///
    /// 1. **`k ≥ C(l, s)`** → [`Algorithm::Greedy`]. The top-k result set
    ///    keeps every candidate, so the search trees' pruning rules (which
    ///    all compare against the `k`-th best) can never fire — full
    ///    enumeration over the lattice, with its prefix-seeded peels, is the
    ///    cheapest way to visit every subset.
    /// 2. **Dense index + few candidates** → [`Algorithm::Greedy`]. When the
    ///    [`crate::engine::plan_index`] cost model would pick the word-level
    ///    dense path on the full vertex set (a small, dense graph) and
    ///    `C(l, s)` is tiny, lattice enumeration beats tree bookkeeping. The
    ///    probe reads only `n`, `l` and the edge count: every edge sits in
    ///    both endpoints' adjacency lists, so the full set's degree total
    ///    is `2 ·` [`MultiLayerGraph::total_edges`], exactly.
    /// 3. **Large `s`, few candidates** → [`Algorithm::Greedy`]. At
    ///    `s ≥ l/2` with `C(l, s) ≤ 2·l` (e.g. `s = l − 1`, where only `l`
    ///    candidates exist) the search trees degenerate — every pruning
    ///    bound is paid but almost nothing can be pruned — and the lattice
    ///    enumerates the handful of subsets directly, regardless of the
    ///    index representation. This closes the policy gap recorded by the
    ///    `auto_selection` bench group (TD at ~0.45 efficiency on the tiny
    ///    Wiki analogue at `s = l − 1`).
    /// 4. **`s ≥ l/2`** → [`Algorithm::TopDown`], the paper's Section V
    ///    recommendation: near the full layer set, the top-down tree reaches
    ///    level `s` in few steps and `RefineU` keeps potential sets small.
    /// 5. Otherwise → [`Algorithm::BottomUp`], the paper's default for small
    ///    support thresholds.
    pub fn resolve(self, g: &MultiLayerGraph, params: &DccsParams) -> Algorithm {
        if self != Algorithm::Auto {
            return self;
        }
        let l = g.num_layers();
        let candidates = binomial(l, params.s);
        if params.k as u128 >= candidates {
            return Algorithm::Greedy;
        }
        if candidates <= DENSE_GREEDY_CANDIDATE_CAP
            && auto_prefers_dense(g.num_vertices(), l, 2 * g.total_edges())
        {
            return Algorithm::Greedy;
        }
        if 2 * params.s >= l {
            if candidates <= LARGE_S_GREEDY_CANDIDATE_FACTOR * l as u128 {
                return Algorithm::Greedy;
            }
            Algorithm::TopDown
        } else {
            Algorithm::BottomUp
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgraph::MultiLayerGraphBuilder;

    fn clique(b: &mut MultiLayerGraphBuilder, layer: usize, vs: &[u32]) {
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                b.add_edge(layer, vs[i], vs[j]).unwrap();
            }
        }
    }

    /// Six layers over a sparse wide graph: cycles, so the CSR path wins the
    /// cost model and the regime heuristics decide.
    fn wide_sparse(layers: usize) -> mlgraph::MultiLayerGraph {
        let n = 600;
        let mut b = MultiLayerGraphBuilder::new(n, layers);
        for layer in 0..layers {
            for v in 0..n as u32 {
                b.add_edge(layer, v, (v + 1) % n as u32).unwrap();
            }
        }
        b.build()
    }

    /// A tiny dense graph: cliques on every layer, dense path wins.
    fn tiny_dense(layers: usize) -> mlgraph::MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(8, layers);
        for layer in 0..layers {
            clique(&mut b, layer, &[0, 1, 2, 3, 4, 5, 6, 7]);
        }
        b.build()
    }

    #[test]
    fn names_and_parsing_round_trip() {
        for algo in [
            Algorithm::Greedy,
            Algorithm::BottomUp,
            Algorithm::TopDown,
            Algorithm::Exact,
            Algorithm::Auto,
        ] {
            assert_eq!(Algorithm::parse(algo.name()), Some(algo), "{}", algo.name());
        }
        assert_eq!(Algorithm::parse("auto"), Some(Algorithm::Auto));
        assert_eq!(Algorithm::parse("exact"), Some(Algorithm::Exact));
        assert_eq!(Algorithm::parse("gibberish"), None);
    }

    #[test]
    fn explicit_algorithms_resolve_to_themselves() {
        let g = wide_sparse(6);
        let params = DccsParams::new(2, 2, 3);
        for algo in [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown, Algorithm::Exact] {
            assert_eq!(algo.resolve(&g, &params), algo);
        }
    }

    #[test]
    fn auto_picks_greedy_when_k_covers_all_candidates() {
        let g = wide_sparse(6);
        // C(6, 2) = 15 candidates, k = 20 keeps them all.
        let params = DccsParams::new(2, 2, 20);
        assert_eq!(Algorithm::Auto.resolve(&g, &params), Algorithm::Greedy);
    }

    #[test]
    fn auto_picks_top_down_for_large_support() {
        let g = wide_sparse(6);
        // s = 4 ≥ l/2 = 3, k small, C(6, 4) = 15 > 2·6 candidates — enough
        // tree for TD's pruning to pay off.
        let params = DccsParams::new(2, 4, 2);
        assert_eq!(Algorithm::Auto.resolve(&g, &params), Algorithm::TopDown);
    }

    #[test]
    fn auto_picks_greedy_for_large_support_with_few_candidates() {
        // s = l − 1 leaves only l candidates: the top-down tree degenerates
        // and lattice enumeration must win even on a CSR-bound graph.
        let g = wide_sparse(8);
        let params = DccsParams::new(2, 7, 2);
        assert_eq!(Algorithm::Auto.resolve(&g, &params), Algorithm::Greedy);
        // C(8, 6) = 28 > 2·8: back in TD territory.
        let params = DccsParams::new(2, 6, 2);
        assert_eq!(Algorithm::Auto.resolve(&g, &params), Algorithm::TopDown);
    }

    #[test]
    fn auto_picks_bottom_up_for_small_support() {
        let g = wide_sparse(8);
        // s = 2 < l/2 = 4, k = 3 < C(8, 2) = 28.
        let params = DccsParams::new(2, 2, 3);
        assert_eq!(Algorithm::Auto.resolve(&g, &params), Algorithm::BottomUp);
    }

    #[test]
    fn auto_prefers_greedy_on_tiny_dense_graphs() {
        let g = tiny_dense(8);
        // s = 2 < l/2 would pick BU on a sparse graph, but the dense index
        // with C(8, 2) = 28 ≤ 64 candidates favors lattice enumeration.
        let params = DccsParams::new(2, 2, 3);
        assert_eq!(Algorithm::Auto.resolve(&g, &params), Algorithm::Greedy);
    }

    /// The density probe's `(n, l, 2·edges)` shortcut decides exactly what
    /// the full cost model decides on the full vertex set.
    #[test]
    fn density_probe_matches_plan_index_on_the_full_set() {
        let mut seen = Vec::new();
        for g in [wide_sparse(6), wide_sparse(8), tiny_dense(3), tiny_dense(8)] {
            let plan = crate::engine::plan_index(&g, &g.full_vertex_set());
            let probe = auto_prefers_dense(g.num_vertices(), g.num_layers(), 2 * g.total_edges());
            assert_eq!(probe, plan.path == crate::IndexPath::Dense, "{plan:?}");
            seen.push(probe);
        }
        assert!(seen.contains(&true) && seen.contains(&false), "both outcomes exercised");
    }
}
