//! Integration tests for the ablation switches (Fig. 28) and the result
//! analysis utilities, exercised through the public APIs.

use datasets::{generate, DatasetId, Scale};
use dccs::{
    analyze_result, bottom_up_dccs, Algorithm, DccsOptions, DccsParams, DccsResult, DccsSession,
};
use mlgraph::MultiLayerGraph;

/// One query through a fresh session configured with `opts`.
fn run(
    algorithm: Algorithm,
    g: &MultiLayerGraph,
    params: DccsParams,
    opts: DccsOptions,
) -> DccsResult {
    DccsSession::with_options(g, opts).query(params).algorithm(algorithm).run().unwrap()
}

#[test]
fn every_ablation_variant_produces_valid_results() {
    let ds = generate(DatasetId::Wiki, Scale::Tiny);
    let l = ds.graph.num_layers();
    let small = DccsParams::new(3, 3, 5);
    let large = DccsParams::new(3, l - 2, 5);
    let variants = [
        DccsOptions::default(),
        DccsOptions::no_vertex_deletion(),
        DccsOptions::no_sort_layers(),
        DccsOptions::no_init_topk(),
        DccsOptions::no_preprocessing(),
    ];
    // Per-query option overrides through the session builder: every
    // ablation variant shares one session (and its caches).
    let mut session = DccsSession::new(&ds.graph);
    for opts in variants {
        for result in [
            session.query(small).algorithm(Algorithm::BottomUp).options(opts).run().unwrap(),
            session.query(large).algorithm(Algorithm::TopDown).options(opts).run().unwrap(),
        ] {
            for core in &result.cores {
                assert!(coreness::is_d_dense_multilayer(
                    &ds.graph,
                    &core.layers,
                    &core.vertices,
                    3
                ));
            }
        }
    }
}

#[test]
fn disabling_preprocessing_increases_explored_candidates() {
    // The Fig. 28 effect: without InitTopK the pruning rules engage later, so
    // BU-DCCS computes more candidate cores (and never fewer).
    let ds = generate(DatasetId::German, Scale::Tiny);
    let params = DccsParams::new(3, 3, 10);
    let with_pre = bottom_up_dccs(&ds.graph, &params);
    let without_ir = run(Algorithm::BottomUp, &ds.graph, params, DccsOptions::no_init_topk());
    assert!(without_ir.stats.dcc_calls >= with_pre.stats.dcc_calls);
    // A per-query override is bit-identical to a session-wide default.
    let via_session = DccsSession::new(&ds.graph)
        .query(params)
        .algorithm(Algorithm::BottomUp)
        .options(DccsOptions::no_init_topk())
        .run()
        .unwrap();
    assert_eq!(via_session.stats, without_ir.stats);
    assert_eq!(via_session.cores, without_ir.cores);
}

#[test]
fn vertex_deletion_only_removes_hopeless_vertices() {
    // Vertex deletion never changes the candidate d-CCs (the removed vertices
    // cannot belong to any of them), so the greedy algorithm — which examines
    // every candidate — must return the same cover with and without it. The
    // search algorithms may differ slightly (different exploration order of
    // the same 1/4-approximate scheme) but must stay in the same band.
    let ds = generate(DatasetId::Author, Scale::Tiny);
    for (d, s) in [(2u32, 2usize), (3, 3), (2, 4)] {
        let params = DccsParams::new(d, s, 5);
        let gd_with = dccs::greedy_dccs(&ds.graph, &params);
        let gd_without =
            run(Algorithm::Greedy, &ds.graph, params, DccsOptions::no_vertex_deletion());
        assert_eq!(gd_with.cover_size(), gd_without.cover_size(), "greedy d={d} s={s}");

        let bu_with = bottom_up_dccs(&ds.graph, &params);
        let bu_without =
            run(Algorithm::BottomUp, &ds.graph, params, DccsOptions::no_vertex_deletion());
        let min = bu_with.cover_size().min(bu_without.cover_size());
        let max = bu_with.cover_size().max(bu_without.cover_size());
        assert!(4 * min >= max, "bottom-up d={d} s={s}: {min} vs {max}");
    }
}

#[test]
fn overlap_analysis_reflects_diversification() {
    // The paper observes that d-CCs overlap substantially; diversified
    // selection still leaves each reported core with some exclusive
    // contribution. The report must also be internally consistent.
    let ds = generate(DatasetId::Ppi, Scale::Full);
    let params = DccsParams::new(2, 4, 10);
    let result = bottom_up_dccs(&ds.graph, &params);
    let report = analyze_result(ds.graph.num_vertices(), &result);
    assert_eq!(report.num_cores, result.num_cores());
    assert_eq!(report.cover_size, result.cover_size());
    assert!(report.cover_size <= report.total_core_size);
    assert!((0.0..1.0).contains(&report.redundancy));
    // Note: two different layer subsets can legitimately yield the same
    // vertex set, so identical cores (Jaccard 1.0) may appear in the result.
    assert!(report.max_jaccard() <= 1.0 && report.mean_jaccard() <= report.max_jaccard());
    assert_eq!(
        report.pairwise_jaccard.len(),
        report.num_cores * report.num_cores.saturating_sub(1) / 2
    );
    let exclusive_total: usize = report.exclusive_counts.iter().sum();
    assert!(exclusive_total <= report.cover_size);
    // At least some cores contribute vertices nobody else covers.
    assert!(report.exclusive_counts.iter().any(|&c| c > 0));
}
