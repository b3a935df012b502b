//! Round-trip and bit-identity tests for the serve-from-index path.
//!
//! The contract under test: build a [`DccIndex`] → serialize → deserialize
//! (in-process or through a file) → attach → query, and the answer is
//! **bit-identical** to the peel path — same cores, same cover, same work
//! counters modulo the serve-path/timing fields — which the peel path's own
//! suites already tie to the frozen `naive_subset_cores` oracle. The stored
//! candidate lists are additionally compared against that oracle directly.
//! Corrupt artifacts (flipped bytes, truncations) must fail with the typed
//! [`DccsError::IndexCorrupt`], never a panic.

use dccs::{
    naive_subset_cores, Algorithm, DccIndex, DccsError, DccsOptions, DccsParams, DccsSession,
    Serve, ServePath,
};
use mlgraph::{MultiLayerGraph, Vertex, VertexSet};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Build → serialize → deserialize → attach → query at 1 and 4 threads:
    // every query from the loaded index is bit-identical to the same query
    // peeled from scratch.
    #[test]
    fn queries_from_a_loaded_index_are_bit_identical_to_peeling(
        g in small_multilayer(16, 4, 60),
        d in 1u32..4,
        s in 1usize..4,
        k in 1usize..4,
    ) {
        let params = DccsParams::new(d, s, k);
        let built = DccIndex::build(&g, &[d], 0);
        let loaded = DccIndex::from_bytes(&built.to_bytes()).expect("round trip");
        prop_assert_eq!(&built, &loaded);
        for threads in [1usize, 4] {
            let opts = DccsOptions::with_threads(threads);
            let mut peel_session = DccsSession::with_options(&g, opts);
            let peeled = peel_session
                .query(params)
                .algorithm(Algorithm::Greedy)
                .serve(Serve::Peel)
                .run()
                .unwrap();
            let mut index_session = DccsSession::with_options(&g, opts);
            index_session.attach_index(loaded.clone()).unwrap();
            let served = index_session
                .query(params)
                .algorithm(Algorithm::Greedy)
                .serve(Serve::Index)
                .run()
                .unwrap();
            prop_assert_eq!(served.stats.serve, Some(ServePath::Index));
            prop_assert_eq!(peeled.stats.serve, Some(ServePath::Peel));
            prop_assert_eq!(&served.cores, &peeled.cores, "threads={}", threads);
            prop_assert_eq!(
                served.cover.to_vec(), peeled.cover.to_vec(), "threads={}", threads
            );
            prop_assert_eq!(served.stats.candidates_generated, peeled.stats.candidates_generated);
            prop_assert_eq!(served.stats.updates_accepted, peeled.stats.updates_accepted);
            prop_assert_eq!(served.stats.complete, peeled.stats.complete);
            prop_assert_eq!(served.stats.limit_hit, peeled.stats.limit_hit);
            prop_assert_eq!(served.stats.algorithm, Some(Algorithm::Greedy));
        }
    }

    // The stored candidate list for every (d, s) equals the frozen oracle's
    // per-subset cores, in the oracle's lexicographic order. The oracle's
    // layer cores are plain per-layer peels, d = 0 (every vertex) included.
    #[test]
    fn stored_candidates_match_the_frozen_oracle(
        g in small_multilayer(14, 3, 45),
        d in 0u32..4,
    ) {
        let index = DccIndex::build(&g, &[d], 0);
        let layer_cores: Vec<VertexSet> =
            g.layers().iter().map(|layer| coreness::d_core(layer, d)).collect();
        for s in 1..=g.num_layers() {
            let naive = naive_subset_cores(&g, d, s, &layer_cores);
            let stored = index.entry(d, s).expect("build covers every s");
            prop_assert_eq!(stored.len(), naive.len(), "s={}", s);
            for (core, (subset, vertices)) in stored.iter().zip(&naive) {
                prop_assert_eq!(&core.layers, subset, "s={}", s);
                prop_assert_eq!(core.vertices.to_vec(), vertices.to_vec(), "s={}", s);
            }
        }
    }

    // Any single flipped byte makes deserialization fail with the typed
    // corruption error — never a panic, never a silently wrong index.
    #[test]
    fn any_byte_flip_is_a_typed_error(
        g in small_multilayer(10, 3, 25),
        pos_seed in 0usize..10_000,
        mask in 1u32..=255,
    ) {
        let bytes = DccIndex::build(&g, &[2], 0).to_bytes();
        let pos = pos_seed % bytes.len();
        let mut mangled = bytes.clone();
        mangled[pos] ^= mask as u8;
        let err = DccIndex::from_bytes(&mangled).unwrap_err();
        prop_assert!(
            matches!(err, DccsError::IndexCorrupt { .. }),
            "flip at {} gave {:?}", pos, err
        );
    }
}

fn clique(b: &mut mlgraph::MultiLayerGraphBuilder, layer: usize, vs: &[u32]) {
    for i in 0..vs.len() {
        for j in (i + 1)..vs.len() {
            b.add_edge(layer, vs[i], vs[j]).unwrap();
        }
    }
}

/// Four layers over 12 vertices with two planted coherent cliques — the
/// session suite's fixture.
fn fixture() -> MultiLayerGraph {
    let mut b = mlgraph::MultiLayerGraphBuilder::new(12, 4);
    clique(&mut b, 0, &[0, 1, 2, 3]);
    clique(&mut b, 1, &[0, 1, 2, 3]);
    clique(&mut b, 2, &[4, 5, 6, 7]);
    clique(&mut b, 3, &[4, 5, 6, 7]);
    clique(&mut b, 1, &[8, 9, 10, 11]);
    b.build()
}

#[test]
fn file_round_trip_serves_bit_identical_queries() {
    let g = fixture();
    let dir = std::env::temp_dir().join("dccs_serve_index_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fixture.dcx");

    let mut session = DccsSession::new(&g);
    let index = session.build_index(&[2, 3], 0);
    index.save(&path).unwrap();
    let loaded = DccIndex::load(&path).unwrap();
    assert_eq!(index, loaded);
    session.attach_index(loaded).unwrap();

    for (d, s, k) in [(2u32, 2usize, 2usize), (3, 2, 2), (2, 1, 3), (3, 4, 1)] {
        let params = DccsParams::new(d, s, k);
        let served = session.query(params).serve(Serve::Index).run().unwrap();
        let peeled = DccsSession::new(&g).query(params).algorithm(Algorithm::Greedy).run().unwrap();
        assert_eq!(served.cores, peeled.cores, "d={d} s={s} k={k}");
        assert_eq!(served.cover.to_vec(), peeled.cover.to_vec(), "d={d} s={s} k={k}");
        assert_eq!(served.stats.serve, Some(ServePath::Index));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_truncation_of_the_artifact_is_a_typed_error() {
    let g = fixture();
    let bytes = DccIndex::build(&g, &[2], 2).to_bytes();
    for cut in 0..bytes.len() {
        let err = DccIndex::from_bytes(&bytes[..cut]).unwrap_err();
        assert!(matches!(err, DccsError::IndexCorrupt { .. }), "cut at {cut}: {err}");
        assert!(!err.to_string().contains('\n'), "one-line message: {err}");
    }
}

#[test]
fn corrupt_and_missing_files_are_typed_errors() {
    let g = fixture();
    let dir = std::env::temp_dir().join("dccs_serve_index_corrupt_test");
    std::fs::create_dir_all(&dir).unwrap();

    // Truncated on disk.
    let path = dir.join("truncated.dcx");
    let bytes = DccIndex::build(&g, &[2], 0).to_bytes();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = DccIndex::load(&path).unwrap_err();
    assert!(matches!(err, DccsError::IndexCorrupt { .. }), "got {err}");

    // Not an index at all.
    let garbage = dir.join("garbage.dcx");
    std::fs::write(&garbage, b"definitely not an index").unwrap();
    let err = DccIndex::load(&garbage).unwrap_err();
    assert!(matches!(err, DccsError::IndexCorrupt { .. }), "got {err}");

    // Missing file.
    let err = DccIndex::load(dir.join("does_not_exist.dcx")).unwrap_err();
    assert!(matches!(err, DccsError::IndexCorrupt { .. }), "got {err}");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&garbage).ok();
}

/// `Auto` picks the index exactly when it can serve; the chosen path is
/// pinned in `stats.serve` either way.
#[test]
fn auto_serve_path_is_pinned_in_stats() {
    let g = fixture();
    let mut session = DccsSession::new(&g);
    let index = session.build_index(&[3], 0);
    session.attach_index(index).unwrap();
    // Covered (d, s): Auto serves from the index, resolving to greedy.
    let served = session.query(DccsParams::new(3, 2, 2)).run().unwrap();
    assert_eq!(served.stats.serve, Some(ServePath::Index));
    assert_eq!(served.stats.algorithm, Some(Algorithm::Greedy));
    // Uncovered d: Auto peels.
    let peeled = session.query(DccsParams::new(2, 2, 2)).run().unwrap();
    assert_eq!(peeled.stats.serve, Some(ServePath::Peel));
}
