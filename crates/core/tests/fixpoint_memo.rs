//! Correctness guard for the shared tier's fixpoint memo.
//!
//! [`dccs::SharedSearchState`] memoizes the converged vertex-deletion
//! fixpoint per `(d, s, vertex_deletion)`, so a warm query repeating a
//! `(d, s)` skips preprocessing. These tests prove the memo is invisible
//! in the answers and exact in its bookkeeping:
//!
//! * a random interleaved `(d, s, k, algorithm)` sequence through one
//!   session (1, 2 and 4 threads) answers bit-identically to fresh
//!   sessions, and hits the memo exactly on the repeated `(d, s)`s;
//! * the same sequence through a [`QueryService`] with mutation commits
//!   interleaved answers like a fresh session on each new graph, and each
//!   commit drops the fixpoints while keeping the repaired layer cores;
//! * options that change the fixpoint get their own entry;
//! * a limited query whose fixpoint stopped early stores nothing, and two
//!   concurrent first queries for one `(d, s)` fill the entry once.

use dccs::{
    Algorithm, CancelToken, DccsError, DccsOptions, DccsParams, DccsResult, DccsSession,
    QueryLimits, QueryService, ServiceQuery,
};
use mlgraph::generators::{chung_lu_layers, ChungLuConfig};
use mlgraph::{EdgeBatch, MultiLayerGraph, MultiLayerGraphBuilder, Vertex};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Barrier;
use std::time::Duration;

const N: usize = 14;
const LAYERS: usize = 4;
const ALGORITHMS: [Algorithm; 5] =
    [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown, Algorithm::Exact, Algorithm::Auto];

fn small_multilayer() -> impl Strategy<Value = MultiLayerGraph> {
    prop::collection::vec(
        prop::collection::vec((0..N as Vertex, 0..N as Vertex), 0..50),
        LAYERS..=LAYERS,
    )
    .prop_map(|lists| {
        let cleaned: Vec<Vec<(Vertex, Vertex)>> = lists
            .into_iter()
            .map(|edges| edges.into_iter().filter(|(u, v)| u != v).collect())
            .collect();
        MultiLayerGraph::from_edge_lists(N, &cleaned).unwrap()
    })
}

/// One query of a sequence: `(d, s, k, algorithm)`. `d` and `s` range over
/// few values so a sequence repeats `(d, s)` pairs at new `k`s and
/// algorithms — the access pattern the memo targets.
#[derive(Clone, Copy, Debug)]
struct Step {
    d: u32,
    s: usize,
    k: usize,
    algorithm: Algorithm,
}

impl Step {
    fn params(self) -> DccsParams {
        DccsParams::new(self.d, self.s, self.k)
    }
}

fn step() -> impl Strategy<Value = Step> {
    (1u32..4, 1usize..4, 1usize..4, 0..ALGORITHMS.len()).prop_map(|(d, s, k, a)| Step {
        d,
        s,
        k,
        algorithm: ALGORITHMS[a],
    })
}

fn fresh(g: &MultiLayerGraph, step: Step, opts: DccsOptions) -> DccsResult {
    DccsSession::with_options(g, opts)
        .query(step.params())
        .algorithm(step.algorithm)
        .run()
        .expect("unlimited reference queries succeed")
}

fn assert_identical(got: &DccsResult, want: &DccsResult, label: &str) {
    assert_eq!(got.cores, want.cores, "{label}: cores differ");
    assert_eq!(got.cover.to_vec(), want.cover.to_vec(), "{label}: cover differs");
    assert_eq!(got.stats, want.stats, "{label}: work counters differ");
}

/// One raw mutation draw, sanitized into a valid batch by [`to_batch`].
type Op = (bool, usize, Vertex, Vertex);

fn op() -> impl Strategy<Value = Op> {
    (0usize..2, 0..LAYERS, 0..N as Vertex, 0..N as Vertex)
        .prop_map(|(insert, layer, u, v)| (insert == 1, layer, u, v))
}

/// Drops self loops and keeps only the first operation per `(layer, edge)`.
fn to_batch(ops: &[Op]) -> EdgeBatch {
    let mut batch = EdgeBatch::new();
    let mut used = HashSet::new();
    for &(insert, layer, u, v) in ops {
        if u == v || !used.insert((layer, u.min(v), u.max(v))) {
            continue;
        }
        if insert {
            batch.insert(layer, u, v);
        } else {
            batch.delete(layer, u, v);
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn session_sequences_match_fresh_sessions_and_hit_on_repeats(
        g in small_multilayer(),
        steps in prop::collection::vec(step(), 4..12),
    ) {
        for threads in [1usize, 2, 4] {
            let opts = DccsOptions::with_threads(threads);
            let mut session = DccsSession::with_options(&g, opts);
            let mut seen = HashSet::new();
            // The sequence twice over: the second pass is all memo hits.
            for (i, &step) in steps.iter().chain(&steps).enumerate() {
                let label = format!("threads={threads} step={i} {step:?}");
                let got = session.query(step.params()).algorithm(step.algorithm).run().unwrap();
                assert_identical(&got, &fresh(&g, step, opts), &label);
                let repeat = !seen.insert((step.d, step.s));
                prop_assert_eq!(got.stats.preprocess_memo_hit, repeat, "{}", label);
                prop_assert_eq!(session.snapshot().state().memoized_fixpoints(), seen.len());
            }
        }
    }

    #[test]
    fn service_sequences_with_commits_match_fresh_sessions(
        base in small_multilayer(),
        script in prop::collection::vec(
            (prop::collection::vec(step(), 1..5), prop::collection::vec(op(), 0..12)),
            1..4,
        ),
    ) {
        let opts = DccsOptions::default();
        let service = QueryService::new(&base, opts);
        let mut current = base.clone();
        let mut seen = HashSet::new();
        for (round, (steps, ops)) in script.iter().enumerate() {
            for (i, &step) in steps.iter().enumerate() {
                let label = format!("round={round} step={i} {step:?}");
                let query = ServiceQuery::new(step.params()).with_algorithm(step.algorithm);
                let got = service.query(&query).unwrap();
                assert_identical(&got, &fresh(&current, step, opts), &label);
                seen.insert((step.d, step.s));
            }
            let state = service.snapshot().state().clone();
            prop_assert_eq!(state.memoized_fixpoints(), seen.len());
            let batch = to_batch(ops);
            let receipt = service.commit(&batch).unwrap();
            let (next, applied) = current.apply_batch(&batch).unwrap();
            current = next;
            if !applied.is_noop() {
                // Layer cores are repaired into the next tier; fixpoints
                // are dropped and recomputed on first use.
                let next_state = service.snapshot().state().clone();
                prop_assert_eq!(receipt.repaired_ds, state.memoized_ds());
                prop_assert_eq!(next_state.memoized_ds(), state.memoized_ds());
                prop_assert_eq!(next_state.memoized_fixpoints(), 0);
                seen.clear();
            }
        }
        // The post-commit graph answers like a fresh session too.
        for &step in &script[0].0 {
            let query = ServiceQuery::new(step.params()).with_algorithm(step.algorithm);
            let got = service.query(&query).unwrap();
            assert_identical(&got, &fresh(&current, step, opts), &format!("final {step:?}"));
        }
    }
}

/// An 8-clique on layers 0–2, a 6-clique on layers 1–3 and a background
/// cycle per layer: at `d = 3, s = 2` the deletion fixpoint removes the 10
/// cycle-only vertices in one round.
fn planted_graph() -> MultiLayerGraph {
    let n = 24u32;
    let mut b = MultiLayerGraphBuilder::new(n as usize, 4);
    for (layers, members) in [(0..3, 0..8u32), (1..4, 10..16)] {
        for layer in layers {
            for i in members.clone() {
                for j in (i + 1)..members.end {
                    b.add_edge(layer, i, j).unwrap();
                }
            }
        }
    }
    for layer in 0..4 {
        for v in 0..n {
            b.add_edge(layer, v, (v + 1) % n).unwrap();
        }
    }
    b.build()
}

const PLANTED: DccsParams = DccsParams { d: 3, s: 2, k: 2 };

#[test]
fn vertex_deletion_options_do_not_share_an_entry() {
    let g = planted_graph();
    let mut session = DccsSession::new(&g);
    let pruned = session.query(PLANTED).algorithm(Algorithm::BottomUp).run().unwrap();
    let unpruned = session
        .query(PLANTED)
        .algorithm(Algorithm::BottomUp)
        .options(DccsOptions::no_vertex_deletion())
        .run()
        .unwrap();
    assert_eq!(session.snapshot().state().memoized_fixpoints(), 2);
    assert!(!unpruned.stats.preprocess_memo_hit);
    assert_eq!((pruned.stats.vertices_deleted, pruned.stats.fixpoint_rounds), (10, 1));
    assert_eq!((unpruned.stats.vertices_deleted, unpruned.stats.fixpoint_rounds), (0, 0));
    let step = Step { d: PLANTED.d, s: PLANTED.s, k: PLANTED.k, algorithm: Algorithm::BottomUp };
    assert_identical(&pruned, &fresh(&g, step, DccsOptions::default()), "default");
    assert_identical(&unpruned, &fresh(&g, step, DccsOptions::no_vertex_deletion()), "no-VD");
}

#[test]
fn an_early_exited_fixpoint_is_never_stored() {
    let g = planted_graph();
    for threads in [1usize, 2] {
        let opts = DccsOptions::with_threads(threads);
        let mut session = DccsSession::with_options(&g, opts);
        let state = session.snapshot().state().clone();

        let zero = QueryLimits::none().with_deadline(Duration::ZERO);
        let err = session.query(PLANTED).limits(zero).run().unwrap_err();
        assert!(matches!(err, DccsError::DeadlineExceeded { .. }), "got: {err}");
        assert_eq!(state.memoized_fixpoints(), 0, "threads={threads}: deadline");

        let token = CancelToken::new();
        token.cancel();
        let err = session.query(PLANTED).cancel_token(token).run().unwrap_err();
        assert!(matches!(err, DccsError::Cancelled { .. }), "got: {err}");
        assert_eq!(state.memoized_fixpoints(), 0, "threads={threads}: cancel");

        // The next unlimited query computes and stores the full fixpoint.
        let after = session.query(PLANTED).run().unwrap();
        let want = DccsSession::with_options(&g, opts).query(PLANTED).run().unwrap();
        assert_identical(&after, &want, &format!("threads={threads}"));
        assert!(!after.stats.preprocess_memo_hit);
        assert_eq!((after.stats.vertices_deleted, after.stats.fixpoint_rounds), (10, 1));
        assert_eq!(state.memoized_fixpoints(), 1);

        // A limited query reads the filled entry.
        let roomy = QueryLimits::none().with_deadline(Duration::from_secs(600));
        let limited = session.query(PLANTED).limits(roomy).run().unwrap();
        assert!(limited.stats.preprocess_memo_hit);
        assert_identical(&limited, &want, &format!("threads={threads} limited"));
    }
}

#[test]
fn a_limited_query_that_converges_stores_its_fixpoint() {
    let g = planted_graph();
    let mut session = DccsSession::new(&g);
    let roomy = QueryLimits::none().with_deadline(Duration::from_secs(600));
    let limited = session.query(PLANTED).limits(roomy).run().unwrap();
    assert!(!limited.stats.preprocess_memo_hit);
    assert_eq!(session.snapshot().state().memoized_fixpoints(), 1);
    let unlimited = session.query(PLANTED).run().unwrap();
    assert!(unlimited.stats.preprocess_memo_hit);
    assert_identical(&unlimited, &limited, "limited fill, unlimited read");
}

/// Concurrent first queries for one `(d, s)` must block on a single fill.
/// The graph is large enough (a 12,000-vertex Chung–Lu graph) that the
/// fixpoint outlasts the gap between the two threads' starts, so a fill
/// without the once-guard would run it twice.
#[test]
fn concurrent_first_queries_fill_one_entry_once() {
    let g = chung_lu_layers(&ChungLuConfig {
        num_vertices: 12_000,
        num_layers: 3,
        avg_degree: 7.0,
        exponent: 2.5,
        layer_jitter: 0.2,
        seed: 7,
    })
    .unwrap();
    // Different (k, algorithm) per thread so neither answer can come out
    // of the service's result cache: both must reach preprocessing.
    let steps = [
        Step { d: 2, s: 2, k: 2, algorithm: Algorithm::Greedy },
        Step { d: 2, s: 2, k: 1, algorithm: Algorithm::BottomUp },
    ];
    let want: Vec<DccsResult> =
        steps.iter().map(|&step| fresh(&g, step, DccsOptions::default())).collect();
    assert!(want[0].stats.fixpoint_rounds > 0, "the fixpoint must do real work");
    for round in 0..8 {
        let service = QueryService::new(&g, DccsOptions::default());
        let barrier = Barrier::new(steps.len());
        let results: Vec<DccsResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = steps
                .iter()
                .map(|step| {
                    let (service, barrier) = (&service, &barrier);
                    let query = ServiceQuery::new(step.params()).with_algorithm(step.algorithm);
                    scope.spawn(move || {
                        barrier.wait();
                        service.query(&query).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fills = results.iter().filter(|r| !r.stats.preprocess_memo_hit).count();
        assert_eq!(fills, 1, "round {round}: exactly one query computes the fixpoint");
        assert_eq!(service.snapshot().state().memoized_fixpoints(), 1, "round {round}");
        for (got, want) in results.iter().zip(&want) {
            assert_identical(got, want, &format!("round {round}"));
        }
    }
}
