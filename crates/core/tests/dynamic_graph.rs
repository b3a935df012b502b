//! Dynamic-graph property suite: epoch-versioned mutation batches with
//! incremental d-core maintenance must be indistinguishable from a full
//! recompute on the mutated graph.
//!
//! The central property: after **every** commit of a random insert/delete
//! batch sequence, a [`dccs::QueryService`] answers a probe mix bit-identically
//! (cores, cover, and work counters) to fresh single-tenant sessions built
//! from scratch on an equivalently mutated graph — at 1, 2, and 4 workers.
//! CI re-runs this whole binary under `DCCS_FORCE_KERNEL=scalar` (the kernel
//! is latched once per process), so the repair path is also proven
//! kernel-invariant. Deterministic tests cover the nastiest shapes — a batch
//! that empties a layer and a follow-up that refills it — and fault
//! injection at `batch.commit`, proving a panicking commit leaves the old
//! snapshot serving.

use dccs::fault::{self, site, FaultMode};
use dccs::{
    Algorithm, DccsOptions, DccsParams, DccsResult, DccsSession, QueryService, Serve, ServiceQuery,
};
use mlgraph::{EdgeBatch, MultiLayerGraph, MultiLayerGraphBuilder, Vertex};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

/// Serializes every test in this file around the process-global fault slot
/// (same idiom as `fault_injection.rs`; separate test binaries cannot
/// collide). Tests that never arm a fault take it too: a commit running
/// beside an armed test would absorb its one shot.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// RAII disarm so a panicking assertion never leaks an armed fault.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        fault::disarm();
    }
}

const N: usize = 12;
const LAYERS: usize = 3;

fn small_multilayer() -> impl Strategy<Value = MultiLayerGraph> {
    prop::collection::vec(
        prop::collection::vec((0..N as Vertex, 0..N as Vertex), 0..40),
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

/// One raw mutation draw; sanitized into a valid [`EdgeBatch`] by
/// [`to_batch`].
#[derive(Clone, Debug)]
struct Op {
    insert: bool,
    layer: usize,
    u: Vertex,
    v: Vertex,
}

fn batch_sequence() -> impl Strategy<Value = Vec<Vec<Op>>> {
    let op = (0usize..2, 0..LAYERS, 0..N as Vertex, 0..N as Vertex)
        .prop_map(|(insert, layer, u, v)| Op { insert: insert == 1, layer, u, v });
    prop::collection::vec(prop::collection::vec(op, 0..24), 1..4)
}

/// Drops self loops and keeps only the first operation touching each
/// `(layer, edge)` — `apply_batch` rejects an edge on both lists of one
/// layer, and this suite is about valid batches, not rejection paths
/// (those have their own deterministic test below).
fn to_batch(ops: &[Op]) -> EdgeBatch {
    let mut batch = EdgeBatch::new();
    let mut used = std::collections::HashSet::new();
    for op in ops {
        if op.u == op.v || !used.insert((op.layer, op.u.min(op.v), op.u.max(op.v))) {
            continue;
        }
        if op.insert {
            batch.insert(op.layer, op.u, op.v);
        } else {
            batch.delete(op.layer, op.u, op.v);
        }
    }
    batch
}

/// The probe mix answered after every commit: every algorithm family and a
/// spread of `(d, s, k)` shapes.
fn probes() -> Vec<ServiceQuery> {
    [
        (1u32, 1usize, 2usize, Algorithm::Auto),
        (2, 2, 2, Algorithm::Greedy),
        (2, 2, 1, Algorithm::BottomUp),
        (3, 2, 2, Algorithm::TopDown),
        (2, 3, 2, Algorithm::Auto),
    ]
    .into_iter()
    .map(|(d, s, k, a)| ServiceQuery::new(DccsParams::new(d, s, k)).with_algorithm(a))
    .collect()
}

/// The recompute-from-scratch ground truth: each probe through its own
/// fresh session on the mutated graph.
fn recompute_reference(g: &MultiLayerGraph, queries: &[ServiceQuery]) -> Vec<DccsResult> {
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
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The tentpole invariant: after every commit of a random batch
    // sequence, the incrementally maintained service is bit-identical to
    // recompute-from-scratch, at every worker count.
    #[test]
    fn incremental_maintenance_matches_recompute_after_every_commit(
        base in small_multilayer(),
        sequence in batch_sequence(),
    ) {
        let _guard = lock();
        let probes = probes();
        for workers in [1usize, 2, 4] {
            let service = QueryService::new(&base, DccsOptions::with_threads(workers));
            let mut current = base.clone();
            // Warm the shared tier so commits have per-`d` memos to repair
            // (a cold service would just recompute lazily — also correct,
            // but then the repair path would go untested).
            let _ = service.run_batch(&probes).unwrap();
            let mut epoch = service.epoch();
            for (step, ops) in sequence.iter().enumerate() {
                let batch = to_batch(ops);
                let receipt = service.commit(&batch).unwrap();
                let (next, applied) = current.apply_batch(&batch).unwrap();
                current = next;
                prop_assert_eq!(
                    receipt.is_noop_commit(),
                    applied.is_noop(),
                    "workers={} step={}: no-op classification", workers, step
                );
                if applied.is_noop() {
                    prop_assert_eq!(receipt.epoch, epoch);
                } else {
                    prop_assert!(receipt.epoch > epoch, "epochs advance monotonically");
                }
                epoch = receipt.epoch;
                let outcomes = service.run_batch(&probes).unwrap();
                let reference = recompute_reference(&current, &probes);
                for (i, (outcome, want)) in outcomes.iter().zip(&reference).enumerate() {
                    let got = outcome.result.as_ref().expect("unlimited probes succeed");
                    assert_identical(
                        got,
                        want,
                        &format!("workers={workers} step={step} probe={i}"),
                    );
                }
            }
        }
    }
}

/// The session tests' planted-clique fixture, where every algorithm has
/// real work to do.
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

/// Emptying a layer outright and refilling it next commit is the harshest
/// delete/insert shape for the repair path: every core on that layer dies,
/// then has to grow back from nothing.
#[test]
fn emptying_a_layer_and_refilling_it_round_trips() {
    let _guard = lock();
    let g = clique_graph();
    let probes = probes();
    for workers in [1usize, 2, 4] {
        let service = QueryService::new(&g, DccsOptions::with_threads(workers));
        let before = service.run_batch(&probes).unwrap();

        // Commit 1: delete every edge of layer 1 (both cliques on it).
        let layer_1_edges: Vec<(Vertex, Vertex)> = g.layer(1).edges().collect();
        assert!(!layer_1_edges.is_empty());
        let mut empty = EdgeBatch::new();
        for &(u, v) in &layer_1_edges {
            empty.delete(1, u, v);
        }
        let receipt = service.commit(&empty).unwrap();
        assert_eq!(receipt.deleted, layer_1_edges.len());
        let (emptied, _) = g.apply_batch(&empty).unwrap();
        assert_eq!(emptied.layer(1).num_edges(), 0);
        let outcomes = service.run_batch(&probes).unwrap();
        let reference = recompute_reference(&emptied, &probes);
        for (i, (outcome, want)) in outcomes.iter().zip(&reference).enumerate() {
            let got = outcome.result.as_ref().unwrap();
            assert_identical(got, want, &format!("workers={workers} emptied probe={i}"));
        }

        // Commit 2: re-add the same edges; the graph is back to the
        // original, and so must be every answer (including work counters).
        let mut refill = EdgeBatch::new();
        for &(u, v) in &layer_1_edges {
            refill.insert(1, u, v);
        }
        let receipt = service.commit(&refill).unwrap();
        assert_eq!(receipt.inserted, layer_1_edges.len());
        let outcomes = service.run_batch(&probes).unwrap();
        for (i, (outcome, want)) in outcomes.iter().zip(&before).enumerate() {
            let got = outcome.result.as_ref().unwrap();
            let want = want.result.as_ref().unwrap();
            assert_identical(got, want, &format!("workers={workers} refilled probe={i}"));
        }
    }
}

/// An invalid batch must reject without publishing anything, and `Serve`
/// modes keep working across commits.
#[test]
fn rejected_batches_leave_the_epoch_and_answers_alone() {
    let _guard = lock();
    let g = clique_graph();
    let service = QueryService::new(&g, DccsOptions::default());
    let probes = probes();
    let before = service.run_batch(&probes).unwrap();
    let epoch = service.epoch();
    for bad in [
        {
            let mut b = EdgeBatch::new();
            b.insert(9, 0, 1); // layer out of range
            b
        },
        {
            let mut b = EdgeBatch::new();
            b.insert(0, 0, 99); // vertex out of range
            b
        },
        {
            let mut b = EdgeBatch::new();
            b.insert(0, 4, 4); // self loop
            b
        },
        {
            let mut b = EdgeBatch::new();
            b.insert(0, 0, 5).delete(0, 5, 0); // insert+delete conflict
            b
        },
    ] {
        let err = service.commit(&bad).unwrap_err();
        assert!(
            matches!(err, dccs::DccsError::BatchInvalid { .. }),
            "expected BatchInvalid, got {err:?}"
        );
        assert_eq!(service.epoch(), epoch, "a rejected batch must not publish");
    }
    let after = service.run_batch(&probes).unwrap();
    for (i, (got, want)) in after.iter().zip(&before).enumerate() {
        assert_identical(
            got.result.as_ref().unwrap(),
            want.result.as_ref().unwrap(),
            &format!("post-reject probe={i}"),
        );
    }
}

/// Fault injection at `batch.commit`: a panic after the batch is validated
/// and repaired but before the swap must leave the old snapshot serving,
/// and the service must accept a clean retry of the same batch.
#[test]
fn a_panicking_commit_is_invisible_and_retryable() {
    let _guard = lock();
    let _disarm = Disarm;
    let g = clique_graph();
    let probes = probes();
    for workers in [1usize, 2, 4] {
        let service = QueryService::new(&g, DccsOptions::with_threads(workers));
        let before = service.run_batch(&probes).unwrap();
        let epoch = service.epoch();

        let mut batch = EdgeBatch::new();
        for (u, v) in [(4u32, 8u32), (5, 9), (6, 10)] {
            batch.insert(0, u, v);
        }
        fault::arm(site::BATCH_COMMIT, FaultMode::Panic, 1);
        let unwound = catch_unwind(AssertUnwindSafe(|| service.commit(&batch)));
        fault::disarm();
        assert!(unwound.is_err(), "workers={workers}: the armed commit must panic");

        // The failed commit published nothing: same epoch, same answers.
        assert_eq!(service.epoch(), epoch, "workers={workers}");
        let still = service.run_batch(&probes).unwrap();
        for (i, (got, want)) in still.iter().zip(&before).enumerate() {
            assert_identical(
                got.result.as_ref().unwrap(),
                want.result.as_ref().unwrap(),
                &format!("workers={workers} post-panic probe={i}"),
            );
        }

        // A clean retry of the identical batch commits and matches a full
        // recompute on the mutated graph.
        let receipt = service.commit(&batch).unwrap();
        assert!(receipt.epoch > epoch, "workers={workers}: retry publishes");
        let (mutated, _) = g.apply_batch(&batch).unwrap();
        let outcomes = service.run_batch(&probes).unwrap();
        let reference = recompute_reference(&mutated, &probes);
        for (i, (outcome, want)) in outcomes.iter().zip(&reference).enumerate() {
            assert_identical(
                outcome.result.as_ref().unwrap(),
                want,
                &format!("workers={workers} retry probe={i}"),
            );
        }
    }
}

/// Old snapshots pinned before a commit keep answering on their own
/// version while the service has moved on — the reader-side half of the
/// epoch contract, proven here against explicit `Serve::Peel` probes so
/// nothing is served from a cache.
#[test]
fn pinned_snapshots_survive_later_commits() {
    let _guard = lock();
    let g = clique_graph();
    let service = QueryService::new(&g, DccsOptions::default());
    let probe = ServiceQuery::new(DccsParams::new(2, 2, 2)).with_serve(Serve::Peel);
    let before = service.query(&probe).unwrap();
    let pinned = service.snapshot();

    // Cut vertex 0 out of the layer-0 clique entirely: the d-core on layer
    // subsets containing layer 0 shrinks from {0,1,2,3} to {1,2,3}.
    let mut batch = EdgeBatch::new();
    batch.delete(0, 0, 1).delete(0, 0, 2).delete(0, 0, 3);
    let receipt = service.commit(&batch).unwrap();
    assert!(receipt.epoch > pinned.epoch());

    // The service answers on the new version...
    let after = service.query(&probe).unwrap();
    assert_ne!(after.cores, before.cores, "the mutation must be visible");
    // ...while a session over the pinned snapshot's graph still reproduces
    // the pre-commit answer bit-identically.
    let mut session = DccsSession::new(pinned.graph());
    let replay = session.query(probe.spec.params).serve(Serve::Peel).run().unwrap();
    assert_eq!(replay.cores, before.cores);
    assert_eq!(replay.cover.to_vec(), before.cover.to_vec());
}
