//! Cross-crate integration tests for the session API: algorithm
//! auto-selection on the synthetic dataset analogues, typed query errors,
//! and batched sweeps — everything through the public `dccs::DccsSession`
//! surface.

use datasets::{generate, DatasetId, Scale};
use dccs::{Algorithm, DccsError, DccsParams, DccsSession, QuerySpec, SearchStats};

#[test]
fn auto_selection_follows_the_paper_regimes_on_tiny_analogues() {
    for id in [DatasetId::Wiki, DatasetId::German, DatasetId::Author] {
        let ds = generate(id, Scale::Tiny);
        let l = ds.graph.num_layers();
        // s = l − 1 leaves only l candidates: the candidate-count-aware
        // large-s rule must pick lattice enumeration over a degenerate
        // search tree, dense or not.
        if l >= 4 {
            let large = DccsParams::new(3, l - 1, 1);
            assert_eq!(
                Algorithm::Auto.resolve(&ds.graph, &large),
                Algorithm::Greedy,
                "{id:?}: s = l − 1 must pick GD"
            );
        }
        // k at least C(l, s): the search trees cannot prune, so full
        // enumeration (greedy) is chosen.
        let exhaustive = DccsParams::new(3, 1, l);
        assert_eq!(
            Algorithm::Auto.resolve(&ds.graph, &exhaustive),
            Algorithm::Greedy,
            "{id:?}: k >= candidates must pick GD"
        );
    }
}

/// Regression test for the `Algorithm::Auto` large-`s` policy gap: on the
/// tiny Wiki analogue at `s = l − 1` the old regime rules picked TD-DCCS,
/// which the `auto_selection` bench group measured at ~0.45 efficiency
/// against the fixed algorithms (GD was fastest). The candidate-count-aware
/// rule must resolve the query to GD — pinned through the session so the
/// recorded `SearchStats::algorithm` is checked, not just the resolver.
#[test]
fn auto_resolves_tiny_wiki_large_s_to_greedy() {
    let ds = generate(DatasetId::Wiki, Scale::Tiny);
    let l = ds.graph.num_layers();
    assert!(l >= 4, "the Wiki analogue has many layers");
    let params = DccsParams::new(3, l - 1, 10);
    let mut session = DccsSession::new(&ds.graph);
    let result = session.query(params).algorithm(Algorithm::Auto).run().unwrap();
    assert_eq!(result.stats.algorithm, Some(Algorithm::Greedy));
    // The policy only selects — the result must equal the fixed GD run.
    let fixed = session.query(params).algorithm(Algorithm::Greedy).run().unwrap();
    assert_eq!(result.cores, fixed.cores);
    assert_eq!(result.stats, fixed.stats);
}

#[test]
fn auto_picks_bottom_up_for_small_support_on_sparse_analogues() {
    // The Stack/English analogues have enough layers for a genuinely small
    // s regime (s < l/2) with k below the candidate count.
    for id in [DatasetId::Stack, DatasetId::English] {
        let ds = generate(id, Scale::Tiny);
        let l = ds.graph.num_layers();
        if l < 6 {
            continue;
        }
        let params = DccsParams::new(3, 2, 3);
        let resolved = Algorithm::Auto.resolve(&ds.graph, &params);
        assert!(
            resolved == Algorithm::BottomUp || resolved == Algorithm::Greedy,
            "{id:?}: small s resolved to {resolved:?}"
        );
    }
}

#[test]
fn auto_query_result_equals_its_resolved_fixed_query() {
    let ds = generate(DatasetId::German, Scale::Tiny);
    let params = DccsParams::new(3, 2, 5);
    let mut session = DccsSession::new(&ds.graph);
    let auto = session.query(params).run().unwrap();
    let resolved = auto.stats.algorithm.expect("auto records its choice");
    assert_ne!(resolved, Algorithm::Auto);
    let fixed = session.query(params).algorithm(resolved).run().unwrap();
    assert_eq!(auto.cores, fixed.cores);
    assert_eq!(auto.stats, fixed.stats);
}

/// An astronomically large `k` is answered like `k = C(l, s)`, where GD
/// already chooses every candidate: GD reserves no `k` result slots, and
/// Auto, which resolves to GD whenever `k ≥ C(l, s)`, follows it.
#[test]
fn greedy_answers_a_huge_k_like_k_equal_to_the_candidate_count() {
    let ds = generate(DatasetId::German, Scale::Tiny);
    let (d, s) = (2, 2);
    let all = dccs::layer_subsets::binomial(ds.graph.num_layers(), s) as usize;
    let mut session = DccsSession::new(&ds.graph);
    for algorithm in [Algorithm::Greedy, Algorithm::Auto] {
        let reference =
            session.query(DccsParams::new(d, s, all)).algorithm(algorithm).run().unwrap();
        let huge = session
            .query(DccsParams::new(d, s, 1_000_000_000_000_000))
            .algorithm(algorithm)
            .run()
            .unwrap();
        let label = algorithm.name();
        assert_eq!(huge.stats.algorithm, Some(Algorithm::Greedy), "{label}");
        assert_eq!(huge.cores.len(), all, "{label}");
        assert_eq!(huge.cores, reference.cores, "{label}");
        assert_eq!(huge.cover.to_vec(), reference.cover.to_vec(), "{label}");
        assert_eq!(huge.stats, reference.stats, "{label}");
    }
}

#[test]
fn session_reports_typed_errors_for_every_invalid_parameter_class() {
    let ds = generate(DatasetId::Ppi, Scale::Tiny);
    let l = ds.graph.num_layers();
    let mut session = DccsSession::new(&ds.graph);
    assert_eq!(session.query(DccsParams::new(2, 0, 1)).run().unwrap_err(), DccsError::SupportZero);
    assert_eq!(
        session.query(DccsParams::new(2, l + 1, 1)).run().unwrap_err(),
        DccsError::SupportExceedsLayers { s: l + 1, num_layers: l }
    );
    assert_eq!(
        session.query(DccsParams::new(2, 2, 0)).run().unwrap_err(),
        DccsError::ResultSizeZero
    );
    // The messages are one-line and human-readable.
    let msg = DccsError::SupportExceedsLayers { s: l + 1, num_layers: l }.to_string();
    assert!(msg.contains("exceeds"), "unexpected message: {msg}");
    assert!(!msg.contains('\n'));
}

#[test]
fn batched_sweep_over_an_analogue_matches_one_shot_queries() {
    let ds = generate(DatasetId::Wiki, Scale::Tiny);
    let l = ds.graph.num_layers();
    let specs: Vec<QuerySpec> =
        (1..=l.min(4)).map(|s| QuerySpec::new(DccsParams::new(3, s, 5))).collect();
    let mut session = DccsSession::new(&ds.graph);
    let batch = session.run_batch(&specs).unwrap();
    for (result, spec) in batch.iter().zip(&specs) {
        let result = result.as_ref().expect("unlimited batch specs all succeed");
        let one_shot = DccsSession::new(&ds.graph).query(spec.params).run().unwrap();
        assert_eq!(result.cores, one_shot.cores, "s={}", spec.params.s);
        assert_eq!(result.stats, one_shot.stats, "s={}", spec.params.s);
    }
}

/// `run_batch` validation is all-or-nothing: one invalid spec — wherever it
/// sits in the sweep — fails the whole call up front with that spec's typed
/// error and produces no partial results, and the session stays fully
/// usable. (Runtime failures, by contrast, stay confined to their spec's
/// slot — see `crates/core/tests/fault_injection.rs`.)
#[test]
fn run_batch_rejects_the_whole_sweep_on_any_invalid_spec() {
    let ds = generate(DatasetId::German, Scale::Tiny);
    let l = ds.graph.num_layers();
    let valid = QuerySpec::new(DccsParams::new(2, 2, 2));
    let invalid_s = QuerySpec::new(DccsParams::new(2, l + 7, 2));
    let invalid_k = QuerySpec::new(DccsParams::new(2, 2, 0));
    let mut session = DccsSession::new(&ds.graph);
    // Invalid spec first, in the middle, and last: the error is always the
    // first invalid spec's, and Result<Vec<_>, _> leaves no partial output.
    assert_eq!(
        session.run_batch(&[invalid_s, valid, valid]).unwrap_err(),
        DccsError::SupportExceedsLayers { s: l + 7, num_layers: l }
    );
    assert_eq!(
        session.run_batch(&[valid, invalid_k, valid]).unwrap_err(),
        DccsError::ResultSizeZero
    );
    assert_eq!(
        session.run_batch(&[valid, valid, invalid_s]).unwrap_err(),
        DccsError::SupportExceedsLayers { s: l + 7, num_layers: l }
    );
    // Two invalid specs: validation reports the earliest one.
    assert_eq!(
        session.run_batch(&[valid, invalid_k, invalid_s]).unwrap_err(),
        DccsError::ResultSizeZero
    );
    // The rejected batches ran nothing that corrupted the session: the same
    // sweep without the bad spec still matches fresh one-shot queries.
    let batch = session.run_batch(&[valid, valid]).unwrap();
    let fresh = DccsSession::new(&ds.graph).query(valid.params).run().unwrap();
    assert_eq!(batch.len(), 2);
    let first = batch[0].as_ref().unwrap();
    assert_eq!(first.cores, fresh.cores);
    assert_eq!(first.stats, fresh.stats);
    assert_eq!(batch[1].as_ref().unwrap().cores, fresh.cores);
}

/// An empty sweep is a no-op, not an error.
#[test]
fn run_batch_of_nothing_returns_nothing() {
    let ds = generate(DatasetId::German, Scale::Tiny);
    let mut session = DccsSession::new(&ds.graph);
    assert_eq!(session.run_batch(&[]).unwrap().len(), 0);
}

#[test]
fn session_sweep_reuses_state_without_changing_results() {
    // The d-then-s grid of the paper's experiments through one session,
    // checked against fresh sessions — the cross-crate complement of the
    // property test in crates/core/tests/session_sweep.rs.
    let ds = generate(DatasetId::Author, Scale::Tiny);
    let l = ds.graph.num_layers();
    let mut session = DccsSession::new(&ds.graph);
    for d in [2u32, 3] {
        for s in 1..=l.min(3) {
            let params = DccsParams::new(d, s, 5);
            let swept = session.query(params).run().unwrap();
            let fresh = DccsSession::new(&ds.graph).query(params).run().unwrap();
            assert_eq!(swept.cores, fresh.cores, "d={d} s={s}");
            assert_eq!(swept.stats, fresh.stats, "d={d} s={s}");
        }
    }
}

#[test]
fn every_algorithm_is_reachable_through_the_session() {
    let ds = generate(DatasetId::Ppi, Scale::Tiny);
    let params = DccsParams::new(3, 4, 2);
    let mut session = DccsSession::new(&ds.graph);
    for algorithm in [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown, Algorithm::Exact]
    {
        let result = session.query(params).algorithm(algorithm).run().unwrap();
        assert_eq!(result.stats.algorithm, Some(algorithm), "{}", algorithm.name());
        for core in &result.cores {
            assert!(coreness::is_d_dense_multilayer(
                &ds.graph,
                &core.layers,
                &core.vertices,
                params.d
            ));
        }
    }
}

/// The `--index` override must select the recorded peeling representation
/// without changing any result, for the lattice walk and both search trees,
/// and the session must keep serving queries on its persistent crew across
/// overrides and thread widths.
#[test]
fn index_override_is_recorded_and_bit_identical() {
    use dccs::{DccsOptions, IndexChoice, IndexPath};
    let ds = generate(DatasetId::Ppi, Scale::Tiny);
    let params = DccsParams::new(2, 2, 5);
    for algorithm in [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown] {
        let reference =
            DccsSession::new(&ds.graph).query(params).algorithm(algorithm).run().unwrap();
        for (choice, expect) in [
            (IndexChoice::Csr, Some(IndexPath::Csr)),
            (IndexChoice::Dense, Some(IndexPath::Dense)),
            (IndexChoice::Auto, reference.stats.index_path),
        ] {
            for threads in [1usize, 3] {
                let label = format!("{} {choice:?} threads={threads}", algorithm.name());
                let opts = DccsOptions { index: choice, threads, ..DccsOptions::default() };
                let mut session = DccsSession::with_options(&ds.graph, opts);
                let result = session.query(params).algorithm(algorithm).run().unwrap();
                assert_eq!(result.stats.index_path, expect, "{label}");
                assert_eq!(result.cores, reference.cores, "{label}");
                assert_eq!(result.cover.to_vec(), reference.cover.to_vec(), "{label}");
                // Every other Eq-compared counter is representation-blind.
                let stats = SearchStats { index_path: reference.stats.index_path, ..result.stats };
                assert_eq!(stats, reference.stats, "{label}");
                // A second query on the same session reuses the crew and the
                // context caches; still identical.
                let again = session.query(params).algorithm(algorithm).run().unwrap();
                assert_eq!(again.cores, reference.cores, "{label} (second)");
            }
        }
    }
}
