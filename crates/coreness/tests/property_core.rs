//! Property-based tests for the core-decomposition substrate.
//!
//! Random multi-layer graphs are generated and the paper's structural
//! properties (hierarchy, containment, intersection bound, maximality) are
//! checked against brute-force or definitional oracles.

use coreness::{
    core_numbers, d_coherent_core, d_coherent_core_in, d_coherent_core_naive, d_core, is_d_dense,
    is_d_dense_multilayer, PeelWorkspace,
};
use mlgraph::{Csr, DenseSubgraph, MultiLayerGraph, Vertex, VertexSet};
use proptest::prelude::*;

/// Strategy: a random edge list over `n` vertices.
fn edges_strategy(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(Vertex, Vertex)>> {
    prop::collection::vec((0..n as Vertex, 0..n as Vertex), 0..max_edges)
}

fn multilayer_strategy(
    n: usize,
    layers: usize,
    max_edges: usize,
) -> impl Strategy<Value = MultiLayerGraph> {
    prop::collection::vec(edges_strategy(n, max_edges), layers..=layers).prop_map(move |lists| {
        let cleaned: Vec<Vec<(Vertex, Vertex)>> = lists
            .into_iter()
            .map(|edges| edges.into_iter().filter(|(u, v)| u != v).collect())
            .collect();
        MultiLayerGraph::from_edge_lists(n, &cleaned).unwrap()
    })
}

/// Brute-force d-core: repeatedly delete any vertex with degree < d.
fn naive_d_core(g: &Csr, d: u32) -> VertexSet {
    let mut alive = VertexSet::full(g.num_vertices());
    loop {
        let victim = alive.iter().find(|&v| g.degree_within(v, &alive) < d as usize);
        match victim {
            Some(v) => {
                alive.remove(v);
            }
            None => return alive,
        }
    }
}

/// Definitional from-scratch multi-layer peel: repeatedly delete any
/// candidate whose degree inside the survivors drops below `d` on some
/// layer. Quadratic, independent of both the workspace engine and the
/// allocating reference implementation.
fn definitional_dcc(
    g: &MultiLayerGraph,
    layers: &[usize],
    d: u32,
    candidates: &VertexSet,
) -> VertexSet {
    let mut alive = candidates.clone();
    loop {
        let victim = alive
            .iter()
            .find(|&v| layers.iter().any(|&i| g.layer(i).degree_within(v, &alive) < d as usize));
        match victim {
            Some(v) => {
                alive.remove(v);
            }
            None => return alive,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn core_numbers_match_naive_d_core(graph in multilayer_strategy(24, 1, 80), d in 1u32..5) {
        let layer = graph.layer(0);
        let fast = d_core(layer, d);
        let naive = naive_d_core(layer, d);
        prop_assert_eq!(fast.to_vec(), naive.to_vec());
    }

    #[test]
    fn core_number_is_max_d_with_membership(graph in multilayer_strategy(20, 1, 70)) {
        let layer = graph.layer(0);
        let core = core_numbers(layer);
        for d in 1..=4u32 {
            let dc = d_core(layer, d);
            for v in 0..layer.num_vertices() as Vertex {
                prop_assert_eq!(dc.contains(v), core[v as usize] >= d,
                    "membership mismatch at v={} d={}", v, d);
            }
        }
    }

    #[test]
    fn dcc_is_dense_and_contains_no_denser_superset(
        graph in multilayer_strategy(20, 3, 60),
        d in 1u32..4,
    ) {
        let all = graph.full_vertex_set();
        let layers = vec![0usize, 1, 2];
        let cc = d_coherent_core(&graph, &layers, d, &all);
        prop_assert!(is_d_dense_multilayer(&graph, &layers, &cc, d));
        // Adding any single outside vertex breaks maximality: the d-CC of the
        // graph is unique, so recomputation from the enlarged candidate set
        // must return the same set.
        for v in 0..graph.num_vertices() as Vertex {
            if !cc.contains(v) {
                let mut enlarged = cc.clone();
                enlarged.insert(v);
                let again = d_coherent_core(&graph, &layers, d, &enlarged);
                prop_assert_eq!(again.to_vec(), cc.to_vec());
            }
        }
    }

    #[test]
    fn dcc_hierarchy_and_containment(graph in multilayer_strategy(22, 3, 70)) {
        let all = graph.full_vertex_set();
        // Hierarchy in d (Property 2).
        let mut prev = d_coherent_core(&graph, &[0, 1], 0, &all);
        for d in 1..4u32 {
            let cur = d_coherent_core(&graph, &[0, 1], d, &all);
            prop_assert!(cur.is_subset_of(&prev));
            prev = cur;
        }
        // Containment in L (Property 3) and intersection bound (Lemma 1).
        for d in 1..3u32 {
            let c01 = d_coherent_core(&graph, &[0, 1], d, &all);
            let c0 = d_coherent_core(&graph, &[0], d, &all);
            let c1 = d_coherent_core(&graph, &[1], d, &all);
            let c012 = d_coherent_core(&graph, &[0, 1, 2], d, &all);
            prop_assert!(c01.is_subset_of(&c0));
            prop_assert!(c01.is_subset_of(&c1));
            prop_assert!(c012.is_subset_of(&c01));
            prop_assert!(c01.is_subset_of(&c0.intersection(&c1)));
        }
    }

    #[test]
    fn dcc_on_intersection_of_cores_equals_dcc_on_full_graph(
        graph in multilayer_strategy(25, 3, 90),
        d in 1u32..4,
    ) {
        // The greedy algorithm's key shortcut (line 5 of GD-DCCS): computing
        // the d-CC inside the intersection of per-layer d-cores gives the
        // same result as computing it on the whole graph.
        let all = graph.full_vertex_set();
        let layers = vec![0usize, 2];
        let full = d_coherent_core(&graph, &layers, d, &all);
        let mut candidates = d_core(graph.layer(0), d);
        candidates.intersect_with(&d_core(graph.layer(2), d));
        let restricted = d_coherent_core(&graph, &layers, d, &candidates);
        prop_assert_eq!(full.to_vec(), restricted.to_vec());
    }

    #[test]
    fn workspace_engine_matches_naive_from_scratch_peel(
        graph in multilayer_strategy(22, 3, 80),
        d in 1u32..4,
        restrict in prop::collection::vec(0u32..22, 0..22),
    ) {
        // One workspace reused across every subset and candidate set of the
        // case: the optimized engine must agree with both the allocating
        // reference implementation and a definitional from-scratch peel,
        // with no state leaking between calls.
        let mut ws = PeelWorkspace::new();
        let mut out = VertexSet::new(graph.num_vertices());
        let all = graph.full_vertex_set();
        let restricted = VertexSet::from_iter(graph.num_vertices(), restrict);
        for candidates in [&all, &restricted] {
            for layers in [vec![0usize], vec![1], vec![0, 1], vec![0, 2], vec![0, 1, 2]] {
                let engine = d_coherent_core(&graph, &layers, d, candidates);
                let naive = d_coherent_core_naive(&graph, &layers, d, candidates);
                let definitional = definitional_dcc(&graph, &layers, d, candidates);
                prop_assert_eq!(engine.to_vec(), naive.to_vec(),
                    "engine vs reference: layers={:?} d={}", layers, d);
                prop_assert_eq!(naive.to_vec(), definitional.to_vec(),
                    "reference vs definitional: layers={:?} d={}", layers, d);
                d_coherent_core_in(&mut ws, &graph, &layers, d, candidates, &mut out);
                prop_assert_eq!(out.to_vec(), engine.to_vec(),
                    "explicit workspace vs thread-local: layers={:?} d={}", layers, d);
            }
        }
    }

    #[test]
    fn dense_peel_matches_csr_peel_on_the_expanded_set(
        graph in multilayer_strategy(90, 3, 420),
        d in 1u32..5,
        universe in prop::collection::vec(0u32..90, 40..90),
        alive in prop::collection::vec(0u32..90, 0..90),
    ) {
        // Universes of up to 90 vertices take two-word rows; one workspace
        // serves every layer set, so no state may leak between peels.
        let n = graph.num_vertices();
        let universe = VertexSet::from_iter(n, universe);
        let dense = DenseSubgraph::build(&graph, &universe);
        let m = dense.len();
        let alive_ix = VertexSet::from_iter(m, alive.into_iter().filter(|&v| (v as usize) < m));
        let mut ws = PeelWorkspace::new();
        for layers in [vec![0usize], vec![2], vec![0, 1], vec![1, 2], vec![0, 1, 2]] {
            let mut expanded = VertexSet::new(n);
            dense.expand_into(&alive_ix, &mut expanded);
            ws.peel_in_place(&graph, &layers, d, &mut expanded);
            let mut peeled = alive_ix.clone();
            ws.peel_dense_in_place(&dense, &layers, d, &mut peeled);
            let mut back = VertexSet::new(n);
            dense.expand_into(&peeled, &mut back);
            prop_assert_eq!(back.to_vec(), expanded.to_vec(), "layers={:?} d={}", layers, d);
        }
    }

    #[test]
    fn single_layer_dcc_matches_d_core(graph in multilayer_strategy(20, 2, 60), d in 1u32..4) {
        let all = graph.full_vertex_set();
        let via_dcc = d_coherent_core(&graph, &[1], d, &all);
        let via_core = d_core(graph.layer(1), d);
        prop_assert_eq!(via_dcc.to_vec(), via_core.to_vec());
        prop_assert!(is_d_dense(graph.layer(1), &via_core, d));
    }
}
