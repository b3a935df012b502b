//! Fault-injection robustness tests: every instrumented site
//! (`dccs::fault::site`) is armed in turn and the session must convert the
//! injected panic into [`DccsError::TaskPanicked`], keep its worker crew
//! alive, and answer the next query **bit-identically to a fresh session**.
//! Delay injection makes the deadline path deterministic, in the lattice
//! and in the BU/TD search trees, and a panicking batch spec must stay
//! confined to its own result slot.
//!
//! Each test arms a fault plan on its own session or service, which no
//! other test's queries see, so the tests run in parallel; the last test
//! proves that isolation.

use dccs::fault::{site, FaultMode, FaultPlan};
use dccs::{
    Algorithm, DccsError, DccsOptions, DccsParams, DccsResult, DccsSession, LimitKind, QueryLimits,
    QueryService, QuerySpec, ServiceQuery,
};
use mlgraph::{EdgeBatch, MultiLayerGraph, MultiLayerGraphBuilder, Vertex};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::Duration;

/// A 4-layer graph with planted quasi-cliques so every algorithm has real
/// work at d = 2: an 8-clique on layers 0–2, a 6-clique on layers 1–3, and
/// a background cycle per layer.
fn test_graph() -> MultiLayerGraph {
    let n = 24u32;
    let mut b = MultiLayerGraphBuilder::new(n as usize, 4);
    for layer in 0..3 {
        for i in 0..8 {
            for j in (i + 1)..8 {
                b.add_edge(layer, i, j).unwrap();
            }
        }
    }
    for layer in 1..4 {
        for i in 10..16 {
            for j in (i + 1)..16 {
                b.add_edge(layer, i, j).unwrap();
            }
        }
    }
    for layer in 0..4u32 {
        for v in 0..n {
            b.add_edge(layer as usize, v, (v + 1) % n).unwrap();
        }
    }
    b.build()
}

fn assert_identical(a: &DccsResult, b: &DccsResult, label: &str) {
    assert_eq!(a.cores, b.cores, "{label}: cores differ");
    assert_eq!(a.cover.to_vec(), b.cover.to_vec(), "{label}: cover differs");
    assert_eq!(a.stats, b.stats, "{label}: work counters differ");
}

/// Every instrumented site, paired with a query shape that reaches it.
const SITES: [(&str, Algorithm, u32, usize); 7] = [
    (site::PREPROCESS_ROUND, Algorithm::Greedy, 2, 2),
    (site::PREPROCESS_LAYER, Algorithm::Greedy, 2, 2),
    (site::LATTICE_BRANCH, Algorithm::Greedy, 2, 2),
    (site::SELECT, Algorithm::Greedy, 2, 2),
    (site::BU_EVAL, Algorithm::BottomUp, 2, 2),
    (site::TD_EVAL, Algorithm::TopDown, 2, 3),
    (site::GRAPH_COMMIT, Algorithm::BottomUp, 2, 2),
];

#[test]
fn every_fault_site_converts_to_a_typed_error_and_the_session_recovers() {
    let g = test_graph();
    for (fault_site, algorithm, d, s) in SITES {
        let params = DccsParams::new(d, s, 3);
        for threads in [1usize, 2, 4] {
            let label = format!("{fault_site} threads={threads}");
            let opts = DccsOptions::with_threads(threads);
            let mut session = DccsSession::with_options(&g, opts);
            session.set_fault_plan(Some(FaultPlan::new(fault_site, FaultMode::Panic, 1)));
            let err = session
                .query(params)
                .algorithm(algorithm)
                .run()
                .expect_err(&format!("{label}: armed site must fail the query"));
            match err {
                DccsError::TaskPanicked { message } => assert!(
                    message.contains("injected fault"),
                    "{label}: panic message lost: {message}"
                ),
                other => panic!("{label}: expected TaskPanicked, got: {other}"),
            }
            session.set_fault_plan(None);
            // The crew survived and the session's rebuilt state is
            // invisible: the same query now matches a fresh session.
            let after = session.query(params).algorithm(algorithm).run().unwrap();
            let fresh = DccsSession::with_options(&g, opts)
                .query(params)
                .algorithm(algorithm)
                .run()
                .unwrap();
            assert_identical(&after, &fresh, &label);
        }
    }
}

#[test]
fn delay_injection_trips_the_deadline_deterministically() {
    let g = test_graph();
    let params = DccsParams::new(2, 2, 3);
    let opts = DccsOptions::with_threads(1);
    let mut session = DccsSession::with_options(&g, opts);
    // Every lattice branch walk sleeps 60 ms against a 10 ms deadline: the
    // first post-delay checkpoint must stop the query, regardless of
    // machine speed.
    let delay = FaultMode::Delay(Duration::from_millis(60));
    session.set_fault_plan(Some(FaultPlan::new(site::LATTICE_BRANCH, delay, 50)));
    let err = session
        .query(params)
        .algorithm(Algorithm::Greedy)
        .limits(QueryLimits::none().with_deadline(Duration::from_millis(10)))
        .run()
        .expect_err("a blown deadline must fail the query");
    let DccsError::DeadlineExceeded { deadline, partial } = err else {
        panic!("expected DeadlineExceeded, got: {err}");
    };
    assert_eq!(deadline, Duration::from_millis(10));
    assert!(!partial.stats.complete, "partial results are flagged incomplete");
    assert_eq!(partial.stats.limit_hit, Some(LimitKind::Deadline));
    session.set_fault_plan(None);
    // Unlimited rerun on the same session: complete and bit-identical.
    let after = session.query(params).algorithm(Algorithm::Greedy).run().unwrap();
    assert!(after.stats.complete);
    let fresh = DccsSession::with_options(&g, opts)
        .query(params)
        .algorithm(Algorithm::Greedy)
        .run()
        .unwrap();
    assert_identical(&after, &fresh, "post-deadline rerun");
}

/// A deadline that passes inside BU's or TD's search tree: every child job
/// sleeps 20 ms against a 5 ms deadline, at every width. The query must
/// stop with a flagged partial holding only exact d-CCs — no probe-aborted
/// superset may reach the result set — and leave the session answering
/// bit-identically to a fresh one.
#[test]
fn delay_injection_trips_the_deadline_inside_the_search_trees() {
    let g = test_graph();
    let delay = FaultMode::Delay(Duration::from_millis(20));
    let deadline = Duration::from_millis(5);
    for (fault_site, algorithm, params) in [
        (site::BU_EVAL, Algorithm::BottomUp, DccsParams::new(2, 2, 3)),
        (site::TD_EVAL, Algorithm::TopDown, DccsParams::new(2, 3, 3)),
    ] {
        for threads in [1usize, 2, 4] {
            let label = format!("{fault_site} threads={threads}");
            let opts = DccsOptions::with_threads(threads);
            let mut session = DccsSession::with_options(&g, opts);
            session.set_fault_plan(Some(FaultPlan::new(fault_site, delay, 50)));
            let err = session
                .query(params)
                .algorithm(algorithm)
                .limits(QueryLimits::none().with_deadline(deadline))
                .run()
                .expect_err(&format!("{label}: a blown deadline must fail the query"));
            let DccsError::DeadlineExceeded { partial, .. } = err else {
                panic!("{label}: expected DeadlineExceeded, got: {err}");
            };
            assert!(!partial.stats.complete, "{label}: partial results are flagged incomplete");
            assert_eq!(partial.stats.limit_hit, Some(LimitKind::Deadline), "{label}");
            for core in &partial.cores {
                let full = coreness::d_coherent_core_full(&g, &core.layers, params.d);
                assert_eq!(core.vertices, full, "{label}: layers {:?}", core.layers);
            }
            session.set_fault_plan(None);
            let after = session.query(params).algorithm(algorithm).run().unwrap();
            assert!(after.stats.complete, "{label}");
            let fresh = DccsSession::with_options(&g, opts)
                .query(params)
                .algorithm(algorithm)
                .run()
                .unwrap();
            assert_identical(&after, &fresh, &label);
        }
    }
}

#[test]
fn a_panicking_batch_spec_stays_in_its_own_slot() {
    let g = test_graph();
    let specs = [
        QuerySpec::new(DccsParams::new(2, 2, 3)).with_algorithm(Algorithm::Greedy),
        QuerySpec::new(DccsParams::new(2, 2, 3)).with_algorithm(Algorithm::BottomUp),
        QuerySpec::new(DccsParams::new(2, 3, 3)).with_algorithm(Algorithm::TopDown),
    ];
    let reference: Vec<DccsResult> = specs
        .iter()
        .map(|spec| {
            DccsSession::new(&g).query(spec.params).algorithm(spec.algorithm).run().unwrap()
        })
        .collect();
    for threads in [1usize, 4] {
        let opts = DccsOptions::with_threads(threads);
        let mut session = DccsSession::with_options(&g, opts);
        session.set_fault_plan(Some(FaultPlan::new(site::BATCH_QUERY, FaultMode::Panic, 1)));
        let batch = session.run_batch(&specs).expect("valid specs pass up-front validation");
        session.set_fault_plan(None);
        assert_eq!(batch.len(), specs.len());
        // Exactly one slot died (the first, on one worker); every other slot
        // still holds its correct result.
        let dead: Vec<usize> = (0..batch.len()).filter(|&i| batch[i].is_err()).collect();
        assert_eq!(dead.len(), 1, "threads={threads}: exactly one spec absorbs the panic");
        if QueryService::new(&g, opts).workers() == 1 {
            assert_eq!(dead[0], 0, "the sequential path fails the first spec");
        }
        for (i, slot) in batch.iter().enumerate() {
            match slot {
                Ok(result) => {
                    assert_identical(result, &reference[i], &format!("slot {i} threads={threads}"));
                }
                Err(DccsError::TaskPanicked { message }) => {
                    assert!(message.contains("injected fault"), "slot {i}: {message}");
                }
                Err(other) => panic!("slot {i}: unexpected error: {other}"),
            }
        }
        // The session survives the batch fault: rerunning the dead spec
        // alone matches its reference.
        let spec = specs[dead[0]];
        let again = session.query(spec.params).algorithm(spec.algorithm).run().unwrap();
        assert_identical(&again, &reference[dead[0]], "post-batch rerun");
    }
}

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
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The recovery property over random graphs: whatever an injected
    // mid-query panic did to the session's caches and crew, the next
    // query is bit-identical to a fresh session (the fault may or may not
    // fire on a degenerate graph — recovery must hold either way).
    #[test]
    fn post_fault_queries_match_a_fresh_session(
        g in small_multilayer(14, 4, 50),
        d in 1u32..3,
        s in 1usize..4,
    ) {
        let params = DccsParams::new(d, s, 2);
        for (fault_site, algorithm) in [
            (site::GRAPH_COMMIT, Algorithm::BottomUp),
            (site::LATTICE_BRANCH, Algorithm::Greedy),
        ] {
            for threads in [1usize, 2] {
                let opts = DccsOptions::with_threads(threads);
                let mut session = DccsSession::with_options(&g, opts);
                session.set_fault_plan(Some(FaultPlan::new(fault_site, FaultMode::Panic, 1)));
                let _ = session.query(params).algorithm(algorithm).run();
                session.set_fault_plan(None);
                let after = session.query(params).algorithm(algorithm).run().unwrap();
                let fresh = DccsSession::with_options(&g, opts)
                    .query(params)
                    .algorithm(algorithm)
                    .run()
                    .unwrap();
                assert_identical(
                    &after,
                    &fresh,
                    &format!("{fault_site} d={d} s={s} threads={threads}"),
                );
            }
        }
    }
}

/// A plan belongs to the one service it is installed on. Service A, armed
/// with a many-shot `bu.eval` panic and then a many-shot `batch.commit`
/// panic, runs on one thread while service B, unarmed and over the same
/// snapshot, queries and commits in lockstep on another. Every A query
/// dies and A's commit publishes nothing, while B's answers equal fresh
/// sessions and B's commit publishes. A process-global plan fails B.
#[test]
fn a_plan_armed_on_one_service_never_fires_in_another() {
    let g = test_graph();
    let snapshot = dccs::GraphSnapshot::new(&g);
    let mut armed = QueryService::over(snapshot.clone(), DccsOptions::default());
    let unarmed = QueryService::over(snapshot, DccsOptions::default());
    let epoch = unarmed.epoch();
    let queries: Vec<ServiceQuery> = (1..=3)
        .map(|s| ServiceQuery::new(DccsParams::new(2, s, 3)).with_algorithm(Algorithm::BottomUp))
        .collect();
    let mut batch = EdgeBatch::new();
    batch.insert(0, 20, 22);
    let many = |site| Some(FaultPlan::new(site, FaultMode::Panic, u32::MAX));
    armed.set_fault_plan(many(site::BU_EVAL));
    // Each phase starts once A's plan for it is in place, and A re-arms
    // only after B's queries are done. The threads assert nothing, so a
    // failure on one side cannot strand the other at a barrier.
    let barrier = Barrier::new(2);
    let ((a_answers, a_commit), (b_answers, b_commit)) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            barrier.wait();
            let answers: Vec<_> = queries.iter().map(|q| armed.query(q)).collect();
            barrier.wait();
            armed.set_fault_plan(many(site::BATCH_COMMIT));
            barrier.wait();
            (answers, catch_unwind(AssertUnwindSafe(|| armed.commit(&batch))))
        });
        let b = scope.spawn(|| {
            barrier.wait();
            let answers: Vec<_> = queries.iter().map(|q| unarmed.query(q)).collect();
            barrier.wait();
            barrier.wait();
            (answers, catch_unwind(AssertUnwindSafe(|| unarmed.commit(&batch))))
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    for (i, answer) in a_answers.iter().enumerate() {
        let err = answer.as_ref().err();
        assert!(matches!(err, Some(DccsError::TaskPanicked { .. })), "A query {i}: got {err:?}");
    }
    assert!(a_commit.is_err() && armed.epoch() == epoch, "A's armed commit dies unpublished");
    for (query, got) in queries.iter().zip(b_answers) {
        let params = query.spec.params;
        let want = DccsSession::new(&g).query(params).algorithm(Algorithm::BottomUp).run();
        assert_identical(&got.expect("B is unarmed"), &want.unwrap(), &format!("B {params:?}"));
    }
    let receipt = b_commit.expect("B's commit must not panic").expect("B's batch is valid");
    assert!(receipt.epoch > epoch && unarmed.epoch() == receipt.epoch, "B's commit publishes");
}
