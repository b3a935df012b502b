//! Concurrency property tests for the [`dccs::QueryService`] tier split:
//! N interleaved service queries — batched over 1/2/4/8 workers or issued
//! concurrently through `&self` from scoped threads, under mixed
//! `Serve::{Auto,Peel,Index}` modes — must be bit-identical to the same
//! specs run sequentially through fresh single-tenant sessions. Fault
//! injection (`batch.query`, `bu.eval`) and mid-flight cancellation must
//! stay confined to their own query: siblings and the shared snapshot
//! survive, and a clean rerun still matches the sequential reference. Each
//! fault test arms its own service, so every test here runs in parallel.

use dccs::fault::{site, FaultMode, FaultPlan};
use dccs::{
    Algorithm, CancelToken, DccIndex, DccsError, DccsOptions, DccsParams, DccsResult, DccsSession,
    QueryLimits, QueryService, Serve, ServiceQuery,
};
use mlgraph::{MultiLayerGraph, MultiLayerGraphBuilder, Vertex};
use proptest::prelude::*;
use std::time::Duration;

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

const ALGORITHMS: [Algorithm; 4] =
    [Algorithm::Auto, Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown];

/// One service query drawn by proptest: `(d, s, k)` plus algorithm and
/// serve-mode picks. `Serve::Index` is exercised by the deterministic test
/// below (it needs an attached index to be meaningful).
fn query_strategy() -> impl Strategy<Value = ServiceQuery> {
    (1u32..4, 1usize..4, 1usize..4, 0usize..ALGORITHMS.len(), 0usize..2).prop_map(
        |(d, s, k, a, peel)| {
            ServiceQuery::new(DccsParams::new(d, s, k))
                .with_algorithm(ALGORITHMS[a])
                .with_serve(if peel == 1 { Serve::Peel } else { Serve::Auto })
        },
    )
}

/// The sequential ground truth: each query through its own fresh session.
fn sequential_reference(g: &MultiLayerGraph, queries: &[ServiceQuery]) -> Vec<DccsResult> {
    queries
        .iter()
        .map(|q| {
            DccsSession::new(g)
                .query(q.spec.params)
                .algorithm(q.spec.algorithm)
                .serve(q.serve)
                .run()
                .expect("unlimited reference queries succeed")
        })
        .collect()
}

fn assert_identical(got: &DccsResult, want: &DccsResult, label: &str) {
    assert_eq!(got.cores, want.cores, "{label}: cores differ");
    assert_eq!(got.cover.to_vec(), want.cover.to_vec(), "{label}: cover differs");
    assert_eq!(got.stats, want.stats, "{label}: work counters differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_service_queries_match_sequential_sessions_at_any_width(
        g in small_multilayer(14, 3, 50),
        queries in prop::collection::vec(query_strategy(), 1..8),
    ) {
        let reference = sequential_reference(&g, &queries);
        for workers in [1usize, 2, 4, 8] {
            let service = QueryService::new(&g, DccsOptions::with_threads(workers));
            let outcomes = service.run_batch(&queries).unwrap();
            prop_assert_eq!(outcomes.len(), reference.len());
            for (i, (outcome, want)) in outcomes.iter().zip(&reference).enumerate() {
                let got = outcome.result.as_ref().expect("unlimited queries succeed");
                assert_identical(got, want, &format!("workers={workers} query={i}"));
            }
        }
    }

    #[test]
    fn interleaved_shared_queries_match_sequential_sessions(
        g in small_multilayer(12, 3, 40),
        queries in prop::collection::vec(query_strategy(), 1..5),
    ) {
        let reference = sequential_reference(&g, &queries);
        let service = QueryService::new(&g, DccsOptions::default());
        // Four threads issue the same interleaved mix concurrently through
        // `&self`; every one of them must observe the sequential answers,
        // whether its queries ran or hit the cache warmed by a sibling.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (i, (query, want)) in queries.iter().zip(&reference).enumerate() {
                        let got = service.query(query).expect("unlimited queries succeed");
                        assert_identical(&got, want, &format!("concurrent query={i}"));
                    }
                });
            }
        });
    }
}

/// The session tests' planted-clique fixture, where every serve mode and
/// algorithm has real work to do.
fn clique_graph() -> MultiLayerGraph {
    let mut b = MultiLayerGraphBuilder::new(12, 4);
    for (layer, vs) in [
        (0usize, [0u32, 1, 2, 3]),
        (1, [0, 1, 2, 3]),
        (2, [4, 5, 6, 7]),
        (3, [4, 5, 6, 7]),
        (1, [8, 9, 10, 11]),
    ] {
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                b.add_edge(layer, vs[i], vs[j]).unwrap();
            }
        }
    }
    b.build()
}

#[test]
fn mixed_serve_modes_with_an_attached_index_match_indexed_sessions() {
    let g = clique_graph();
    let queries: Vec<ServiceQuery> = [
        (2u32, 2usize, 2usize, Serve::Index),
        (3, 2, 2, Serve::Auto),
        (2, 3, 1, Serve::Peel),
        (2, 1, 2, Serve::Index),
        (3, 2, 2, Serve::Auto), // repeat: served from the result cache
    ]
    .into_iter()
    .map(|(d, s, k, serve)| ServiceQuery::new(DccsParams::new(d, s, k)).with_serve(serve))
    .collect();
    // Reference: fresh sessions with the same index attached (the build is
    // deterministic, so rebuilding per session attaches the same artifact).
    let reference: Vec<DccsResult> = queries
        .iter()
        .map(|q| {
            let mut session = DccsSession::new(&g);
            session.attach_index(DccIndex::build(&g, &[2, 3], 0)).unwrap();
            session.query(q.spec.params).algorithm(q.spec.algorithm).serve(q.serve).run().unwrap()
        })
        .collect();
    for workers in [1usize, 2, 4, 8] {
        let service = QueryService::new(&g, DccsOptions::with_threads(workers));
        service.attach_index(DccIndex::build(&g, &[2, 3], 0)).unwrap();
        let outcomes = service.run_batch(&queries).unwrap();
        for (i, (outcome, want)) in outcomes.iter().zip(&reference).enumerate() {
            let got = outcome.result.as_ref().unwrap();
            assert_identical(got, want, &format!("workers={workers} query={i}"));
        }
    }
}

#[test]
fn limit_tripped_queries_do_not_affect_batch_siblings() {
    let g = clique_graph();
    let tripped = CancelToken::new();
    tripped.cancel();
    let queries = vec![
        ServiceQuery::new(DccsParams::new(2, 2, 2)),
        // A zero deadline trips deterministically at the first checkpoint.
        ServiceQuery::new(DccsParams::new(2, 2, 2))
            .with_serve(Serve::Peel)
            .with_limits(QueryLimits::none().with_deadline(Duration::ZERO)),
        ServiceQuery::new(DccsParams::new(3, 2, 2)),
        // A pre-tripped token cancels deterministically.
        ServiceQuery::new(DccsParams::new(2, 3, 1)).with_token(tripped),
        ServiceQuery::new(DccsParams::new(2, 2, 3)),
    ];
    let healthy = [0usize, 2, 4];
    let reference =
        sequential_reference(&g, &healthy.iter().map(|&i| queries[i].clone()).collect::<Vec<_>>());
    for workers in [1usize, 2, 4] {
        let service = QueryService::new(&g, DccsOptions::with_threads(workers));
        let outcomes = service.run_batch(&queries).unwrap();
        assert!(
            matches!(outcomes[1].result, Err(DccsError::DeadlineExceeded { .. })),
            "workers={workers}: got {:?}",
            outcomes[1].result
        );
        assert!(
            matches!(outcomes[3].result, Err(DccsError::Cancelled { .. })),
            "workers={workers}: got {:?}",
            outcomes[3].result
        );
        for (&slot, want) in healthy.iter().zip(&reference) {
            let got = outcomes[slot].result.as_ref().expect("healthy siblings succeed");
            assert_identical(got, want, &format!("workers={workers} slot={slot}"));
        }
    }
}

#[test]
fn a_poisoned_batch_query_stays_in_its_slot_and_the_snapshot_survives() {
    let g = clique_graph();
    let queries: Vec<ServiceQuery> = [(2u32, 2usize, 2usize), (3, 2, 2), (2, 3, 1), (2, 1, 2)]
        .into_iter()
        .map(|(d, s, k)| ServiceQuery::new(DccsParams::new(d, s, k)))
        .collect();
    let reference = sequential_reference(&g, &queries);
    for (fault_site, algorithm) in
        [(site::BATCH_QUERY, None), (site::BU_EVAL, Some(Algorithm::BottomUp))]
    {
        for workers in [1usize, 2, 4] {
            let label = format!("{fault_site} workers={workers}");
            let queries: Vec<ServiceQuery> = queries
                .iter()
                .map(|q| match algorithm {
                    Some(a) => q.clone().with_algorithm(a),
                    None => q.clone(),
                })
                .collect();
            let reference = match algorithm {
                Some(_) => sequential_reference(&g, &queries),
                None => reference.clone(),
            };
            let mut service = QueryService::new(&g, DccsOptions::with_threads(workers));
            // Warm nothing: the fault must hit a cold snapshot and leave it
            // usable. One armed shot panics exactly one query.
            service.set_fault_plan(Some(FaultPlan::new(fault_site, FaultMode::Panic, 1)));
            let outcomes = service.run_batch(&queries).unwrap();
            service.set_fault_plan(None);
            let panicked: Vec<usize> = outcomes
                .iter()
                .enumerate()
                .filter(|(_, o)| matches!(o.result, Err(DccsError::TaskPanicked { .. })))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(panicked.len(), 1, "{label}: exactly one slot absorbs the fault");
            for (i, (outcome, want)) in outcomes.iter().zip(&reference).enumerate() {
                if i == panicked[0] {
                    continue;
                }
                let got = outcome.result.as_ref().expect("siblings are unaffected");
                assert_identical(got, want, &format!("{label} sibling={i}"));
            }
            // The snapshot and service survive: a clean rerun of the full
            // mix — including the slot that died — matches the reference.
            let rerun = service.run_batch(&queries).unwrap();
            for (i, (outcome, want)) in rerun.iter().zip(&reference).enumerate() {
                let got = outcome.result.as_ref().expect("clean rerun succeeds");
                assert_identical(got, want, &format!("{label} rerun={i}"));
            }
        }
    }
}

#[test]
fn mid_flight_cancellation_under_concurrency_is_confined_to_the_token() {
    let g = clique_graph();
    let token = CancelToken::new();
    // Half the mix carries the shared token, half does not; limits disable
    // caching for the tokened half, so every tokened query really runs.
    let queries: Vec<ServiceQuery> = (0..16)
        .map(|i| {
            let params = DccsParams::new(2, 1 + (i % 3), 1 + (i % 2));
            let q = ServiceQuery::new(params).with_algorithm(Algorithm::BottomUp);
            if i % 2 == 0 {
                q.with_token(token.clone())
            } else {
                q
            }
        })
        .collect();
    let service = QueryService::new(&g, DccsOptions::with_threads(4));
    let outcomes = std::thread::scope(|scope| {
        let canceller = scope.spawn(|| {
            // Best-effort mid-flight: whenever this lands, every tokened
            // query must come back either complete or cleanly cancelled.
            std::thread::sleep(Duration::from_millis(2));
            token.cancel();
        });
        let outcomes = service.run_batch(&queries).unwrap();
        canceller.join().unwrap();
        outcomes
    });
    let untokened: Vec<ServiceQuery> = queries.iter().skip(1).step_by(2).cloned().collect();
    let reference = sequential_reference(&g, &untokened);
    let mut refs = reference.iter();
    for (i, (outcome, query)) in outcomes.iter().zip(&queries).enumerate() {
        if query.token.is_some() {
            match &outcome.result {
                Ok(result) => assert!(result.stats.complete, "slot {i}: complete or cancelled"),
                Err(DccsError::Cancelled { partial }) => {
                    assert!(!partial.stats.complete, "slot {i}: partial must be flagged")
                }
                Err(other) => panic!("slot {i}: unexpected error {other:?}"),
            }
        } else {
            let want = refs.next().unwrap();
            let got = outcome.result.as_ref().expect("untokened queries are unaffected");
            assert_identical(got, want, &format!("untokened slot {i}"));
        }
    }
    // The tripped token does not stick to the service: a fresh batch of the
    // same specs without tokens matches the sequential reference.
    let rerun = service.run_batch(&untokened).unwrap();
    for (outcome, want) in rerun.iter().zip(&reference) {
        assert_identical(outcome.result.as_ref().unwrap(), want, "post-cancel rerun");
    }
}
