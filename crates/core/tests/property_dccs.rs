//! Property-based tests for the DCCS algorithms.
//!
//! Random small multi-layer graphs are generated, all three approximation
//! algorithms are run, and the paper's structural guarantees are checked:
//! every reported core really is a d-CC on exactly `s` layers, the covers
//! respect the proven approximation ratios against the exact optimum, and
//! the search algorithms agree with the greedy baseline within the expected
//! bounds.

use dccs::{
    bottom_up_dccs, exact_dccs, greedy_dccs, top_down_dccs, Algorithm, DccsOptions, DccsParams,
    DccsSession,
};
use mlgraph::{MultiLayerGraph, Vertex};
use proptest::prelude::*;

fn small_multilayer(
    n: usize,
    layers: usize,
    max_edges: usize,
) -> impl Strategy<Value = MultiLayerGraph> {
    prop::collection::vec(
        prop::collection::vec((0..n as Vertex, 0..n as Vertex), 0..max_edges),
        layers..=layers,
    )
    .prop_map(move |lists| {
        let cleaned: Vec<Vec<(Vertex, Vertex)>> = lists
            .into_iter()
            .map(|edges| edges.into_iter().filter(|(u, v)| u != v).collect())
            .collect();
        MultiLayerGraph::from_edge_lists(n, &cleaned).unwrap()
    })
}

fn check_cores_are_valid(g: &MultiLayerGraph, params: &DccsParams, result: &dccs::DccsResult) {
    assert!(result.num_cores() <= params.k);
    for core in &result.cores {
        assert_eq!(core.layers.len(), params.s, "core must span exactly s layers");
        assert!(
            coreness::is_d_dense_multilayer(g, &core.layers, &core.vertices, params.d),
            "reported core is not d-dense"
        );
        // Maximality: the core must equal the full d-CC for its layer set.
        let full = coreness::d_coherent_core_full(g, &core.layers, params.d);
        assert_eq!(core.vertices.to_vec(), full.to_vec(), "core is not maximal");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_algorithms_produce_valid_maximal_cores(
        g in small_multilayer(18, 4, 70),
        d in 1u32..4,
        s in 1usize..4,
        k in 1usize..4,
    ) {
        let params = DccsParams::new(d, s, k);
        for result in [greedy_dccs(&g, &params), bottom_up_dccs(&g, &params), top_down_dccs(&g, &params)] {
            check_cores_are_valid(&g, &params, &result);
        }
    }

    #[test]
    fn approximation_ratios_against_exact(
        g in small_multilayer(14, 3, 45),
        d in 1u32..3,
        k in 1usize..4,
    ) {
        let params = DccsParams::new(d, 2, k);
        let opt = exact_dccs(&g, &params).cover_size();
        let gd = greedy_dccs(&g, &params).cover_size();
        let bu = bottom_up_dccs(&g, &params).cover_size();
        let td = top_down_dccs(&g, &params).cover_size();
        prop_assert!(gd as f64 + 1e-9 >= (1.0 - 1.0 / std::f64::consts::E) * opt as f64,
            "greedy below 1-1/e: gd={} opt={}", gd, opt);
        prop_assert!(4 * bu >= opt, "bottom-up below 1/4: bu={} opt={}", bu, opt);
        prop_assert!(4 * td >= opt, "top-down below 1/4: td={} opt={}", td, opt);
        prop_assert!(gd <= opt && bu <= opt && td <= opt, "no algorithm may exceed the optimum");
    }

    #[test]
    fn pruning_and_preprocessing_do_not_change_bottom_up_validity(
        g in small_multilayer(16, 4, 60),
        d in 1u32..3,
        s in 1usize..4,
    ) {
        let params = DccsParams::new(d, s, 2);
        let baseline = bottom_up_dccs(&g, &params);
        let no_pruning = DccsOptions {
            order_pruning: false,
            layer_pruning: false,
            ..DccsOptions::default()
        };
        let unpruned = DccsSession::with_options(&g, no_pruning)
            .query(params)
            .algorithm(Algorithm::BottomUp)
            .run()
            .unwrap();
        check_cores_are_valid(&g, &params, &unpruned);
        // Pruning is an optimization within the same 1/4-approximate scheme;
        // the pruned run never needs more core computations.
        prop_assert!(baseline.stats.dcc_calls <= unpruned.stats.dcc_calls);
    }

    #[test]
    fn top_down_refine_c_matches_plain_peeling(
        g in small_multilayer(16, 4, 60),
        d in 1u32..3,
        s in 2usize..5,
    ) {
        let params = DccsParams::new(d, s.min(4), 2);
        let with_index = top_down_dccs(&g, &params);
        let opts = DccsOptions { use_refine_c: false, ..DccsOptions::default() };
        let plain = DccsSession::with_options(&g, opts)
            .query(params)
            .algorithm(Algorithm::TopDown)
            .run()
            .unwrap();
        // Same algorithm, two implementations of the core-extraction step.
        prop_assert_eq!(with_index.cover_size(), plain.cover_size());
        check_cores_are_valid(&g, &params, &with_index);
    }

    #[test]
    fn lattice_candidates_match_naive_per_subset_peels(
        g in small_multilayer(18, 4, 70),
        d in 1u32..4,
        s in 1usize..5,
    ) {
        // The subset-lattice engine (prefix-seeded peels on a reused
        // workspace) must emit, per layer subset in lexicographic order,
        // exactly what the pre-refactor path computed: a from-scratch peel
        // of the intersection of the memoized per-layer d-cores.
        let params = DccsParams::new(d, s, 2);
        let pre = dccs::preprocess::preprocess(&g, &params, &DccsOptions::default());
        let mut ws = coreness::PeelWorkspace::new();
        let mut got: Vec<(Vec<usize>, Vec<Vertex>)> = Vec::new();
        dccs::for_each_subset_core(&g, d, s, &pre.layer_cores, &mut ws, |subset, core| {
            got.push((subset.to_vec(), core.to_vec()));
        });
        let expected: Vec<(Vec<usize>, Vec<Vertex>)> =
            dccs::naive_subset_cores(&g, d, s, &pre.layer_cores)
                .into_iter()
                .map(|(subset, core)| (subset, core.to_vec()))
                .collect();
        prop_assert_eq!(got, expected, "d={} s={}", d, s);
    }

    #[test]
    fn greedy_cover_never_shrinks_with_k(
        g in small_multilayer(16, 3, 60),
        d in 1u32..3,
    ) {
        let mut previous = 0usize;
        for k in 1..5usize {
            let cover = greedy_dccs(&g, &DccsParams::new(d, 2, k)).cover_size();
            prop_assert!(cover >= previous, "cover shrank when k grew");
            previous = cover;
        }
    }

    #[test]
    fn cover_never_grows_with_s_or_d(
        g in small_multilayer(16, 3, 70),
    ) {
        // Property 2 / Property 3 consequences observed in Figs. 16–17, 20–21.
        let c_s1 = greedy_dccs(&g, &DccsParams::new(2, 1, 2)).cover_size();
        let c_s2 = greedy_dccs(&g, &DccsParams::new(2, 2, 2)).cover_size();
        let c_s3 = greedy_dccs(&g, &DccsParams::new(2, 3, 2)).cover_size();
        prop_assert!(c_s1 >= c_s2 && c_s2 >= c_s3);
        let c_d1 = greedy_dccs(&g, &DccsParams::new(1, 2, 2)).cover_size();
        let c_d2 = greedy_dccs(&g, &DccsParams::new(2, 2, 2)).cover_size();
        let c_d3 = greedy_dccs(&g, &DccsParams::new(3, 2, 2)).cover_size();
        prop_assert!(c_d1 >= c_d2 && c_d2 >= c_d3);
    }
}
