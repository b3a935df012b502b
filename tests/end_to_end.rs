//! Cross-crate integration tests: dataset generation → preprocessing →
//! all three DCCS algorithms → metrics, exercised through the public APIs
//! only.

use datasets::{all_datasets, generate, DatasetId, Scale};
use dccs::{
    bottom_up_dccs, greedy_dccs, top_down_dccs, Algorithm, DccsOptions, DccsParams, DccsSession,
    IndexChoice, QuerySpec,
};
use mlgraph::GraphStats;

#[test]
fn every_dataset_analogue_generates_and_validates() {
    for id in all_datasets() {
        let ds = generate(id, Scale::Tiny);
        assert!(ds.graph.validate(), "{:?} analogue has a corrupt layer", id);
        assert_eq!(ds.graph.num_layers(), ds.spec.synthetic_layers);
        let stats = GraphStats::compute(&ds.graph);
        assert!(stats.total_edges > 0);
        assert!(stats.union_edges <= stats.total_edges);
        if id.has_ground_truth() {
            assert!(!ds.ground_truth.is_empty());
        }
    }
}

#[test]
fn all_algorithms_agree_on_core_validity_for_a_module_dataset() {
    let ds = generate(DatasetId::Ppi, Scale::Tiny);
    let params = DccsParams::new(2, 3, 5);
    // All three algorithms as one session batch over the same graph.
    let mut session = DccsSession::new(&ds.graph);
    let batch = session
        .run_batch(&[
            QuerySpec::new(params).with_algorithm(Algorithm::Greedy),
            QuerySpec::new(params).with_algorithm(Algorithm::BottomUp),
            QuerySpec::new(params).with_algorithm(Algorithm::TopDown),
        ])
        .unwrap();
    // No limits in force: every per-spec slot succeeds.
    let gd = batch[0].as_ref().unwrap();
    let bu = batch[1].as_ref().unwrap();
    let td = batch[2].as_ref().unwrap();
    for result in [gd, bu, td] {
        assert!(result.cover_size() > 0, "planted modules must be detectable");
        for core in &result.cores {
            assert_eq!(core.layers.len(), params.s);
            // d-dense and maximal: the core is the whole d-CC of its layers.
            assert!(coreness::is_maximal_d_coherent_core(
                &ds.graph,
                &core.layers,
                params.d,
                &core.vertices
            ));
        }
    }
    // The three covers are comparable in size (all are constant-factor
    // approximations of the same objective).
    let max = gd.cover_size().max(bu.cover_size()).max(td.cover_size());
    assert!(4 * bu.cover_size() >= max);
    assert!(4 * td.cover_size() >= max);
    assert!(gd.cover_size() * 5 >= max * 3); // greedy is at least (1 - 1/e)
}

#[test]
fn top_down_reports_exact_d_ccs_across_a_parameter_sweep() {
    // TD-DCCS extracts each child's core from its refined potential set; a
    // core that misses vertices of the true d-CC is still d-dense, so only a
    // comparison with the whole graph's d-CC of the same layers catches it.
    assert_search_tree_reports_exact_d_ccs(Algorithm::TopDown);
}

#[test]
fn bottom_up_reports_exact_d_ccs_across_a_parameter_sweep() {
    assert_search_tree_reports_exact_d_ccs(Algorithm::BottomUp);
}

/// Runs `algorithm` on the PPI and Author tiny analogues over d 1..=4,
/// s 2..=min(l, 8) and k 5/10/20, under the cost model and under forced
/// CSR and dense peeling, and checks every reported core against the whole
/// graph's d-CC of its layers.
fn assert_search_tree_reports_exact_d_ccs(algorithm: Algorithm) {
    for id in [DatasetId::Ppi, DatasetId::Author] {
        let ds = generate(id, Scale::Tiny);
        let g = &ds.graph;
        let l = g.num_layers();
        let params: Vec<DccsParams> = (1..=4u32)
            .flat_map(|d| {
                (2..=l.min(8)).flat_map(move |s| [5, 10, 20].map(move |k| DccsParams::new(d, s, k)))
            })
            .collect();
        let specs: Vec<QuerySpec> =
            params.iter().map(|&p| QuerySpec::new(p).with_algorithm(algorithm)).collect();
        for index in [IndexChoice::Auto, IndexChoice::Csr, IndexChoice::Dense] {
            let opts = DccsOptions { index, ..DccsOptions::default() };
            let results = DccsSession::with_options(g, opts).run_batch(&specs).unwrap();
            for (p, result) in params.iter().zip(results) {
                let result = result.unwrap();
                for core in &result.cores {
                    let full = coreness::d_coherent_core_full(g, &core.layers, p.d);
                    assert_eq!(
                        core.vertices.to_vec(),
                        full.to_vec(),
                        "{} {id:?} {index:?} d={} s={} k={}: core on layers {:?} is not the d-CC",
                        algorithm.name(),
                        p.d,
                        p.s,
                        p.k,
                        core.layers
                    );
                }
            }
        }
    }
}

#[test]
fn search_algorithms_examine_fewer_candidates_than_greedy() {
    let ds = generate(DatasetId::German, Scale::Tiny);
    let l = ds.graph.num_layers();
    // Small s: BU-DCCS explores a pruned subtree of the C(l, s) candidates.
    let params = DccsParams::new(3, 3, 10);
    let gd = greedy_dccs(&ds.graph, &params);
    let bu = bottom_up_dccs(&ds.graph, &params);
    assert!(bu.stats.candidates_generated <= gd.stats.candidates_generated);
    // Large s: TD-DCCS explores far fewer candidates than greedy.
    let params = DccsParams::new(3, l - 2, 10);
    let gd = greedy_dccs(&ds.graph, &params);
    let td = top_down_dccs(&ds.graph, &params);
    assert!(td.stats.candidates_generated <= gd.stats.candidates_generated);
}

#[test]
fn planted_modules_are_recovered_on_their_layers() {
    // Strongly planted modules must appear inside the d-CC of their layers.
    let ds = generate(DatasetId::Ppi, Scale::Full);
    let params = DccsParams::new(2, 4, 15);
    let bu = bottom_up_dccs(&ds.graph, &params);
    // At least half of the planted complexes are fully covered by the result
    // cover (they are planted with density 0.9 on 5 of 8 layers).
    let fully_covered =
        ds.ground_truth.modules.iter().filter(|m| m.iter().all(|&v| bu.cover.contains(v))).count();
    assert!(
        2 * fully_covered >= ds.ground_truth.len(),
        "only {fully_covered}/{} planted complexes covered",
        ds.ground_truth.len()
    );
}

#[test]
fn cover_size_shrinks_as_s_and_d_grow() {
    // The optimum cover is monotone non-increasing in both s and d
    // (Properties 2–3); the approximation algorithms track that trend. The
    // endpoints of the sweep are far enough apart that the trend must be
    // visible even through the 1/4-approximation. The whole sweep runs as
    // one session batch — the canonical workload shape of the paper.
    let ds = generate(DatasetId::Author, Scale::Tiny);
    let k = 10;
    let mut session = DccsSession::new(&ds.graph);
    let specs: Vec<QuerySpec> = [(2u32, 1usize), (2, 5), (1, 2), (5, 2)]
        .into_iter()
        .map(|(d, s)| QuerySpec::new(DccsParams::new(d, s, k)).with_algorithm(Algorithm::BottomUp))
        .collect();
    let covers: Vec<usize> = session
        .run_batch(&specs)
        .unwrap()
        .iter()
        .map(|r| r.as_ref().unwrap().cover_size())
        .collect();
    let (loose_s, tight_s, loose_d, tight_d) = (covers[0], covers[1], covers[2], covers[3]);
    assert!(tight_s <= loose_s, "cover grew when s grew: {tight_s} > {loose_s}");
    assert!(tight_d <= loose_d, "cover grew when d grew: {tight_d} > {loose_d}");
}

#[test]
fn edge_list_roundtrip_preserves_dccs_results() {
    let ds = generate(DatasetId::Ppi, Scale::Tiny);
    let mut buffer = Vec::new();
    mlgraph::io::write_edge_list(&ds.graph, &mut buffer).unwrap();
    let reloaded = mlgraph::io::edge_list::parse_edge_list(std::io::Cursor::new(buffer)).unwrap();
    assert_eq!(reloaded.num_vertices(), ds.graph.num_vertices());
    assert_eq!(reloaded.total_edges(), ds.graph.total_edges());
    let params = DccsParams::new(2, 2, 5);
    // Vertex ids may be permuted by label interning, so compare cover sizes.
    let original = bottom_up_dccs(&ds.graph, &params).cover_size();
    let roundtripped = bottom_up_dccs(&reloaded, &params).cover_size();
    assert_eq!(original, roundtripped);
}
